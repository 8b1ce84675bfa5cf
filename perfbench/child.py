"""Child-process side of the benchmark: it imports sevlogit from src/.

Two entry points, both run by run.py with src/ on sys.path:

    python perfbench/child.py calib <seed> <seconds> <trace> <out.json>
        Run the in-process calib-5k workload and write its timings, check
        results, environment and spans to out.json.
    python perfbench/child.py cli <spans.json> <sevlogit CLI arguments...>
        Run one sevlogit CLI command with every call site traced; write the
        spans and the import time of sevlogit.cli to spans.json.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402

CALIB_N = 5_000
CALIB_BLOCK = 32  # replications per seed block; every block pass must repeat exactly


# ------------------------------------------------------------------ models

def recovery_model(sl):
    """The 6-slot model of the acceptance tests and the ROADMAP Baseline."""
    from sevlogit.io import model_spec_from_dict

    model = model_spec_from_dict(run.SPEC)
    theta = sl.ParameterVector.from_dict(sl.build_layout(model), run.THETA)
    covariates = {
        "speed_limit": sl.UniformDist(25, 70),
        "curve": sl.IndicatorDist(0.3),
        "dark": sl.IndicatorDist(0.25),
    }
    return model, theta, covariates


def two_segments(sl):
    return tuple(
        sl.SegmentComponent(sl.SegmentKey(road_class=road, location=loc), 0.5)
        for road, loc in run.SEGMENTS
    )


# ------------------------------------------------------------- environment

def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
        for line in handle:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = (index / "size").read_text().strip()
    return sizes


def environment(seed: int) -> dict:
    import numpy as np

    import sevlogit as sl

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _cache_sizes()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "backend": sl.active_backend(),
        "seed": seed,
        "package": str(Path(sl.__file__).resolve().parent.relative_to(ROOT)),
    }


# --------------------------------------------------------------- workloads

class Recorder:
    """Stage timings and check outcomes of one workload run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, stage: str, seconds: float) -> None:
        self.samples.setdefault(stage, []).append(seconds)

    def op(self, problems: list[str]) -> None:
        """Count one operation; any failed check marks it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def _calib_setup(sl, seed):
    model, theta, covariates = recovery_model(sl)
    configs = [
        sl.GeneratorConfig(model, theta, CALIB_N, covariates, segments=two_segments(sl),
                           seed=seed * 1000 + i)
        for i in range(CALIB_BLOCK)
    ]
    return model, configs


def _calib_rep(sl, model, config, rec: Recorder):
    """Criterion 06's replication: simulate, pooled fit, partition, cell fits, split test."""
    problems = []
    t0 = time.perf_counter()
    try:
        data = sl.simulate(config)
        t1 = time.perf_counter()
        pooled = sl.estimate(model, data)
        t2 = time.perf_counter()
        cells = sl.partition(data, ("road_class",))
        fits = [sl.estimate(model, cell) for cell in cells.values()]
        test = sl.lr_split_test(pooled.ll_converged, pooled.n_params,
                                [(f.ll_converged, f.n_params) for f in fits])
        t3 = time.perf_counter()
    except sl.SevlogitError as exc:
        rec.op([f"seed {config.seed}: {type(exc).__name__}: {exc}"])
        return None
    if not all(f.converged for f in (pooled, *fits)):
        problems.append(f"seed {config.seed}: a fit did not converge")
    if len(fits) != 2:
        problems.append(f"seed {config.seed}: expected 2 road-class cells, got {len(fits)}")
    rec.op(problems)
    rec.add("simulate_s", t1 - t0)
    rec.add("estimate_s", t2 - t1)
    rec.add("partition_s", t3 - t2)
    rec.add("rep_s", t3 - t0)
    return test


def run_calib(sl, seed, seconds, trace, rec: Recorder):
    """The calibration loop over a fixed block of seeds."""
    for _ in range(run.SETUPS):
        t0 = time.perf_counter()
        model, configs = _calib_setup(sl, seed)
        _calib_rep(sl, model, configs[0], Recorder())  # warm-up: first-call costs
        rec.add("setup_s", time.perf_counter() - t0)

    first_pass: list = []
    blocks = {"passes": 0, "null_rejections": []}

    def check_block(stats):
        """Every pass over the seed block must repeat the first one exactly."""
        blocks["passes"] += 1
        blocks["null_rejections"].append(sum(1 for s in stats if s and s[1]))
        if not first_pass:
            first_pass.extend(stats)
        else:
            rec.op([] if stats == first_pass else
                   [f"seed block pass {blocks['passes']} differs from the first pass"])

    def rep(config):
        test = _calib_rep(sl, model, config, rec)
        return None if test is None else (test.statistic, test.reject(0.95))

    if trace:
        # Each seed runs untraced, then traced, back to back: the overhead
        # comes from neighbouring reps, the spans from exactly one block.
        tracer = tracing.Tracer()
        overhead = 0.0
        untraced_stats, traced_stats = [], []
        for config in configs:
            t0 = time.perf_counter()
            untraced_stats.append(rep(config))
            t1 = time.perf_counter()
            tracer.install()
            try:
                traced_stats.append(rep(config))
            finally:
                tracer.uninstall()
            overhead += time.perf_counter() - t1 - (t1 - t0)
        check_block(untraced_stats)
        check_block(traced_stats)
        return tracer, overhead, blocks

    start = time.perf_counter()
    i = 0
    stats = []
    while time.perf_counter() - start < seconds or i == 0:
        stats.append(rep(configs[i % CALIB_BLOCK]))
        i += 1
        if len(stats) == CALIB_BLOCK:
            check_block(stats)
            stats = []
    return None, None, blocks


def calib_main(seed, seconds, trace, out_path):
    import sevlogit as sl

    rec = Recorder()
    tracer, overhead, blocks = run_calib(sl, seed, seconds, trace, rec)
    doc = {
        "samples": rec.samples,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "problems": rec.problems,
        "environment": environment(seed),
        "blocks": blocks,
    }
    if tracer is not None:
        doc["overhead_s"] = overhead
        doc["trace"] = {"spans": tracer.spans, "missing": tracer.missing, "meta": {}}
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def cli_main(spans_path, argv) -> int:
    t0 = time.perf_counter()
    import sevlogit.cli

    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = sevlogit.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path, meta={"import_s": import_s})
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "calib":
        seed, seconds, trace, out = sys.argv[2:6]
        calib_main(int(seed), float(seconds), trace == "1", out)
    elif mode == "cli":
        sys.exit(cli_main(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
