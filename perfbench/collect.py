"""Run every workload over several seeds and record the numbers.

    python3 perfbench/collect.py --runs 10 --out perfbench/baseline.json [--workloads ...]

For each workload: --runs untraced runs with seeds 1..runs, then one traced
run with seed 1. Writes the values, median, quartiles and spread
(interquartile distance over the median, with the quartiles of
statistics.quantiles(values, n=4)) of each end-to-end metric in the JSON
line ("end_to_end") and of each figure printed beside them ("printed"),
the traced run's per-layer metrics, and the environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(workload, values: dict[str, list]) -> dict:
    summary = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median if median else None
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        print(f"{workload:9} {name:22} median {median:12.6g}  spread {spread}", flush=True)
    return summary


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in declared["workloads"]])
    args = parser.parse_args()

    doc = {"run_seconds": declared["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        gated: dict[str, list] = {}
        printed: dict[str, list] = {}
        failed = attempted = 0
        last = ROOT / ".perfbench_work" / f"last-{workload}-trace0.json"
        for seed in range(1, args.runs + 1):
            result = bench(workload, seed, declared["run_seconds"], 0)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                gated.setdefault(name, []).append(metric["value"])
            for name, (value, _, _) in json.loads(last.read_text())["extra"].items():
                printed.setdefault(name, []).append(value)
        traced = bench(workload, 1, declared["run_seconds"], 1)
        doc["workloads"][workload] = {
            "end_to_end": summarize(workload, gated),
            "printed": summarize(workload, printed),
            "failed": failed + traced["failed"],
            "attempted": attempted + traced["attempted"],
            "per_layer_seed_1": traced["metrics"],
        }
        trace_last = ROOT / ".perfbench_work" / f"last-{workload}-trace1.json"
        doc["environment"] = json.loads(trace_last.read_text())["environment"]
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
