"""sevlogit benchmark: two workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {cli-200k,calib-5k} --seed N \
        --seconds S --trace {0,1} [--scale F]

Run from the root of a checkout; the package is imported from src/.

Workloads (each a single process at a time, OpenBLAS pinned to one thread):
  cli-200k  the analyst's workflow as `python -m sevlogit` subprocesses on
            200,000 rows: simulate, estimate, elasticities, partition
            --by road_class, then temporal-test on a 2 x 100,000-row file.
            Set-up draws that two-period file with `sevlogit simulate`.
  calib-5k  closed loop, one client, in-process: criterion 06's replication
            (simulate 5,000 rows, pooled fit, partition, two cell fits,
            lr_split_test) over a fixed block of seeds.

A rep is one pass of the five commands, or one replication. With
--trace 0 the run sets up three times, then repeats reps for --seconds
(cli-200k: at least two passes).
Its JSON line holds rep_ms_best (the sum of each stage's fastest time),
setup_s (median set-up) and peak_rss_mb (largest max RSS of a command or
workload child, read with os.wait4). Printed beside them: the median and
fastest time of each stage, rep_ms_p50, rep_ms_tail, reps_per_s and
failed_frac. With --trace 1 it runs one unit (a pass, or a seed block)
both untraced and traced, reports the per-layer metrics from spans
taken by wrapping sevlogit's call sites from outside, and the tracing
overhead. Output checks that fail count as failed operations. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
--scale shrinks the row counts of cli-200k (smoke tests).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

# One BLAS thread in this process and every child: at most nproc threads in all.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

WORKLOADS = ("cli-200k", "calib-5k")
CLI_N = 200_000
CLI_PERIOD_N = 100_000
SETUPS = 3  # set-up repeats per run; setup_s is their median
CLI_MIN_PASSES = 2
COMMAND_TIMEOUT_S = 170.0

# End-to-end metrics in the JSON line, reported by every workload:
# name -> (unit, better). rep_ms_best is the sum, over the stages of a rep,
# of each stage's fastest time in the run. On a shared host, contention
# from other tenants slows a stage for seconds at a time; the fastest of
# several samples of each stage is the figure that repeats from run to run.
END_TO_END = {
    "rep_ms_best": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# The timed stages of one rep, per workload.
STAGES = {
    "cli-200k": ("simulate_s", "estimate_s", "elasticities_s", "partition_s", "temporal_test_s"),
    "calib-5k": ("simulate_s", "estimate_s", "partition_s"),
}

THETA = {
    "constant:injury": -2.0,
    "constant:fatality": -4.5,
    "speed_limit:injury+fatality": 0.025,
    "curve:injury": 0.35,
    "curve:fatality": 0.6,
    "dark:fatality": 0.8,
}
SPEC = {
    "outcomes": ["property-damage-only", "injury", "fatality"],
    "terms": [
        {"variable": "constant", "outcomes": ["injury", "fatality"]},
        {"variable": "speed_limit", "outcomes": ["injury", "fatality"], "shared": True},
        {"variable": "curve", "outcomes": ["injury", "fatality"]},
        {"variable": "dark", "outcomes": ["fatality"]},
    ],
}
SEGMENTS = (("interstate", "rural"), ("county-road", "rural"))


def tail(samples):
    """Highest of p99/p90 with at least ten samples beyond it, else the maximum."""
    ordered = sorted(samples)
    for q in (99, 90):
        if len(ordered) * (100 - q) / 100 >= 10:
            pos = (len(ordered) - 1) * q / 100
            lo = math.floor(pos)
            return f"p{q}", ordered[lo] + (ordered[lo + 1] - ordered[lo]) * (pos - lo)
    return "max", ordered[-1]


# ---------------------------------------------------------------- cli-200k

def write_cli_configs(work: Path, seed: int, n: int, n_period: int) -> None:
    """Model spec and the generator configs of the one-period and two-period files."""
    (work / "spec.json").write_text(json.dumps(SPEC))
    gen = {
        "model": "spec.json",
        "theta": THETA,
        "n": n,
        "seed": seed,
        "covariates": {
            "speed_limit": {"dist": "uniform", "low": 25, "high": 70},
            "curve": {"dist": "indicator", "p": 0.3},
            "dark": {"dist": "indicator", "p": 0.25},
        },
        "segments": [{"road_class": r, "location": loc, "weight": 0.5} for r, loc in SEGMENTS],
    }
    (work / "gen.json").write_text(json.dumps(gen))
    (work / "gen-periods.json").write_text(json.dumps({**gen, "n": 2 * n_period, "seed": seed + 1}))


def make_period_file(work: Path, n_period: int) -> None:
    """Set-up of cli-200k: the two-period file, drawn under the null by `sevlogit simulate`.

    One simulate command draws both periods' rows and labels them 2001;
    the second n_period rows are then relabelled 2002.
    """
    drawn = work / "periods-drawn.csv"
    argv = [sys.executable, "-m", "sevlogit", "simulate", "--config",
            str(work / "gen-periods.json"), "--period", "2001", "--out", str(drawn)]
    code, _, _ = run_child(argv, ROOT / "src", work / "setup.stdout", work / "setup.stderr")
    if code != 0:
        err = (work / "setup.stderr").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"cli-200k set-up: simulate exited with code {code}:\n{err}")
    lines = [ln for ln in drawn.read_text().splitlines() if not ln.startswith("#")]
    column = lines[0].split(",").index("period")
    for i in range(1 + n_period, len(lines)):
        fields = lines[i].split(",")
        fields[column] = "2002"
        lines[i] = ",".join(fields)
    (work / "periods.csv").write_text("\n".join(lines) + "\n")


def run_child(argv, cwd, stdout_path, stderr_path):
    """Run a child to completion; return (exit code, wall seconds, max RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def _within_4se(record, label):
    problems = []
    if not record.get("converged"):
        problems.append(f"{label}: fit did not converge")
    for slot, est, se in zip(record["slots"], record["estimates"], record["std_errors"]):
        if not abs(est - THETA[slot]) <= 4.0 * se:
            problems.append(f"{label}: {slot} = {est:.5g} is more than 4 SE ({se:.3g}) "
                            f"from {THETA[slot]}")
    return problems


def check_cli_outputs(work: Path) -> dict[str, list[str]]:
    """Per-command problems found in the records each command wrote."""
    problems: dict[str, list[str]] = {}

    def guarded(command, check):
        try:
            problems[command] = check()
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems[command] = [f"{command}: unreadable output ({type(exc).__name__}: {exc})"]

    def simulate():
        header = [ln for ln in (work / "data.csv").open() if not ln.startswith("#")][:1]
        return [] if header and header[0].startswith("outcome,") else ["simulate: no CSV header"]

    def estimate():
        rec = _records(work / "estimate.jsonl")[1]
        return _within_4se(rec, "estimate")

    def elasticities():
        est = (work / "estimate.jsonl").read_text().splitlines()[1]
        lines = (work / "elasticities.jsonl").read_text().splitlines()
        out = [] if lines[1] == est else ["elasticities: estimation record differs from estimate's"]
        if json.loads(lines[2]).get("record") != "elasticity_report":
            out.append("elasticities: no elasticity report record")
        return out

    def partition():
        rec = _records(work / "partition.jsonl")[1]
        out = [] if rec.get("test") else ["partition: split test not computed"]
        statuses = [cell["status"] for cell in rec["cells"]]
        if statuses != ["ok"] * len(SEGMENTS):
            out.append(f"partition: cell statuses {statuses}")
        return out + _within_4se(rec["pooled"], "partition pooled")

    def temporal():
        recs = _records(work / "temporal-test.jsonl")
        test = recs[-1]
        out = [] if test.get("record") == "lr_test" and math.isfinite(test["statistic"]) else [
            "temporal-test: no LR statistic"]
        return out + _within_4se(recs[1], "temporal-test combined")

    for command, check in (("simulate", simulate), ("estimate", estimate),
                           ("elasticities", elasticities), ("partition", partition),
                           ("temporal-test", temporal)):
        guarded(command, check)
    return problems


def cli_commands(work: Path):
    data, spec = str(work / "data.csv"), str(work / "spec.json")
    common = ["--model", spec, "--format", "records"]
    return [
        ("simulate", ["simulate", "--config", str(work / "gen.json"), "--out", data]),
        ("estimate", ["estimate", "--data", data, *common]),
        ("elasticities", ["elasticities", "--data", data, *common]),
        ("partition", ["partition", "--data", data, *common, "--by", "road_class"]),
        ("temporal-test", ["temporal-test", "--data", str(work / "periods.csv"), *common]),
    ]


STAGE_OF = {"simulate": "simulate_s", "estimate": "estimate_s", "elasticities": "elasticities_s",
            "partition": "partition_s", "temporal-test": "temporal_test_s"}


def cli_pass(work: Path, traced: bool, state: dict):
    """Run the five commands once; record timings, RSS and check results.

    A traced pass runs each command untraced and then traced, back to back,
    so that the overhead is taken from neighbouring runs.
    """
    spans_files = []
    overhead = 0.0
    failures: dict[str, list[str]] = {}
    pass_start = time.perf_counter()
    for command, args in cli_commands(work):
        out_file = work / ("data.csv" if command == "simulate" else f"{command}.jsonl")
        if command != "simulate":
            args = [*args, "--out", str(out_file)]
        found = failures.setdefault(command, [])
        for mode in ("untraced", "traced") if traced else ("untraced",):
            if mode == "traced":
                spans = work / f"spans-{command}.json"
                argv = [sys.executable, str(HERE / "child.py"), "cli", str(spans), *args]
                spans_files.append(spans)
            else:
                argv = [sys.executable, "-m", "sevlogit", *args]
            code, wall, rss = run_child(argv, ROOT / "src", work / f"{command}.stdout",
                                        work / f"{command}.stderr")
            overhead += wall if mode == "traced" else -wall
            if mode == "untraced":
                state["samples"].setdefault(STAGE_OF[command], []).append(wall)
            state["rss"].append(rss)
            if code != 0:
                err = (work / f"{command}.stderr").read_text(errors="replace").strip()[-300:]
                found.append(f"{command}: exit code {code}: {err}")
            digest = hashlib.sha256(out_file.read_bytes()).hexdigest() if out_file.exists() else None
            if digest != state["digests"].setdefault(command, digest):
                found.append(f"{command}: output differs from the first run")
    if not traced:
        state["samples"].setdefault("rep_s", []).append(time.perf_counter() - pass_start)

    for command, problems in check_cli_outputs(work).items():
        failures[command].extend(problems)
    for command, found in failures.items():
        state["attempted"] += 1
        if found:
            state["failed"] += 1
            state["problems"].extend(found[:3])
    return spans_files, overhead


def run_cli(seed, seconds, trace, scale, work: Path):
    state = {"samples": {}, "rss": [], "digests": {}, "attempted": 0, "failed": 0,
             "problems": []}
    n = max(int(CLI_N * scale), 1)
    n_period = max(int(CLI_PERIOD_N * scale), 1)
    write_cli_configs(work, seed, n, n_period)
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        make_period_file(work, n_period)
        state["samples"].setdefault("setup_s", []).append(time.perf_counter() - t0)

    result = {"trace": None}
    if trace:
        spans_files, result["overhead_s"] = cli_pass(work, True, state)
        docs = [json.loads(p.read_text()) for p in spans_files if p.exists()]
        result["trace"] = tracing.merge(docs)
        result["import_times"] = [m["import_s"] for m in result["trace"][2] if "import_s" in m]
    else:
        # At least two passes, so that every stage has a fastest of several
        # and the records of one pass are compared with another's.
        start = time.perf_counter()
        passes = 0
        while passes < CLI_MIN_PASSES or time.perf_counter() - start < seconds:
            cli_pass(work, False, state)
            passes += 1

    env_file = work / "env.json"
    code, _, _ = run_child(
        [sys.executable, "-c",
         "import json, sys, child; json.dump(child.environment(int(sys.argv[1])), sys.stdout)",
         str(seed)],
        HERE, env_file, work / "env.stderr",
    )
    result.update(
        samples=state["samples"], attempted=state["attempted"], failed=state["failed"],
        problems=state["problems"], peak_rss_mb=max(state["rss"]),
        environment=json.loads(env_file.read_text()) if code == 0 else {"error": "unavailable"},
    )
    return result


# -------------------------------------------------------- calib-5k (child)

def run_calib(seed, seconds, trace, work: Path):
    out = work / "child.json"
    argv = [sys.executable, str(HERE / "child.py"), "calib", str(seed), str(seconds),
            "1" if trace else "0", str(out)]
    code, _, rss = run_child(argv, ROOT, work / "child.stdout", work / "child.stderr")
    if code != 0:
        err = (work / "child.stderr").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"calib-5k child exited with code {code}:\n{err}")
    doc = json.loads(out.read_text())
    doc["peak_rss_mb"] = rss
    if trace:
        doc["trace"] = tracing.merge([doc["trace"]])
        doc["import_times"] = []
    return doc


# ------------------------------------------------------------------ report

def end_to_end(workload, result) -> tuple[dict, dict]:
    """JSON metrics, plus every per-stage figure printed beside them."""
    samples = result["samples"]
    reps = samples["rep_s"]
    stages = STAGES[workload]
    values = {
        "rep_ms_best": sum(min(samples[stage]) for stage in stages) * 1e3,
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}
    label, tail_s = tail(reps)
    extra = {
        "rep_ms_p50": (statistics.median(reps) * 1e3, "ms", f"n={len(reps)}"),
        "rep_ms_tail": (tail_s * 1e3, "ms", f"{label} of n={len(reps)}"),
        "reps_per_s": (len(reps) / sum(reps), "1/s", f"n={len(reps)}"),
        "failed_frac": (result["failed"] / max(result["attempted"], 1), "ratio",
                        f"{result['failed']} of {result['attempted']}"),
    }
    for stage in stages:
        n = len(samples[stage])
        extra[stage] = (statistics.median(samples[stage]), "s", f"median, n={n}")
        if n > 1:
            extra[f"{stage[:-2]}_min_s"] = (min(samples[stage]), "s", f"n={n}")
    return metrics, extra


def print_report(workload, seed, trace, result, metrics, extra):
    print(f"# sevlogit benchmark: workload={workload} seed={seed} trace={int(trace)}")
    env = result.get("environment", {})
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, metric in metrics.items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        note = f"  ({metric['reason']})" if "reason" in metric else ""
        print(f"{name:<30} {shown:>14} {metric['unit']}{note}")
    for name, (value, unit, note) in extra.items():
        print(f"{name:<30} {value:>14.6g} {unit}  ({note})")
    counts = {k: len(v) for k, v in result["samples"].items()}
    print("# samples: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    if result.get("blocks"):
        print(f"# seed blocks: {result['blocks']}")
    for problem in result["problems"][:20]:
        print(f"# check failed: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="row-count multiplier for cli-200k")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sevlogit" / "__init__.py").is_file():
        print(f"error: sevlogit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = args.seed % 2**31
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        if args.workload == "cli-200k":
            result = run_cli(seed, args.seconds, args.trace, args.scale, work)
        else:
            result = run_calib(seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        spans, missing, _ = result["trace"]
        metrics = tracing.per_layer_metrics(spans, missing, result["import_times"],
                                            result["overhead_s"])
        extra = {f"self_s.{layer}": (t, "s", "self time")
                 for layer, t in sorted(tracing.layer_self_times(spans).items())}
        extra["failed_frac"] = (result["failed"] / max(result["attempted"], 1), "ratio",
                                f"{result['failed']} of {result['attempted']}")
        (base / f"spans-{args.workload}.json").write_text(
            json.dumps({"spans": spans, "missing": missing}))
    else:
        metrics, extra = end_to_end(args.workload, result)
    print_report(args.workload, seed, args.trace, result, metrics, extra)
    (base / f"last-{args.workload}-trace{args.trace}.json").write_text(json.dumps(
        {"metrics": metrics, "extra": extra, "environment": result.get("environment"),
         "samples": result["samples"], "problems": result["problems"]}, indent=1))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
