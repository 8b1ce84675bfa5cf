"""Tiny-size smoke run of every workload, so that the benchmark cannot rot.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs at a tiny size (cli-200k at 5% of its row count;
calib-5k has a fixed size) for one second, untraced and traced. Every
metric declared in BENCHMARK.json must come back with its unit, and every
output check must pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def test_declared_metrics_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in DECLARED["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in DECLARED["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in tracing.PER_LAYER.items()
    }


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_present_with_its_unit(workload, trace):
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    # Every metric line reads "name value unit [(note)]".
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if line and not line.startswith("#")}
    assert printed["failed_frac"] == "ratio"
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        expected = {name: unit for name, (unit, _) in run.END_TO_END.items()}
        expected.update({"rep_ms_p50": "ms", "rep_ms_tail": "ms", "reps_per_s": "1/s"})
        expected.update({stage: "s" for stage in run.STAGES[workload]})
        assert {name: printed.get(name) for name in expected} == expected


def test_missing_call_site_reads_null_with_reason():
    tracer = tracing.Tracer()
    tracer.install([("sevlogit._kernels", "no_such_kernel", "kernel", "ll")])
    metrics = tracing.per_layer_metrics(tracer.spans, tracer.missing, [], 0.0)
    for name in ("kernel.ll_calls", "kernel.ll_s", "estimate.accept_ratio"):
        assert metrics[name]["value"] is None
        assert "sevlogit._kernels.no_such_kernel" in metrics[name]["reason"]
    assert metrics["kernel.full_calls"]["value"] == 0


def test_self_time_excludes_child_spans():
    spans = [
        ["a", "estimate", "fit", 0, 10_000_000_000, -1, None],
        ["b", "kernel", "full", 1_000_000_000, 7_000_000_000, 0, {"rows": 6}],
    ]
    assert tracing.layer_self_times(spans) == {"estimate": 4.0, "kernel": 6.0}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("calib-5k", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
