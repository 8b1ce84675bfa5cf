"""Span tracing of sevlogit from outside the package.

A Tracer replaces the package's call sites with timing wrappers. Modules
bind these names at import (``from .estimate import estimate``), so each
name is patched in every module namespace it is looked up from. Spans
(name, layer, operation, start, end, parent, extra) stay in memory until
``dump`` writes them out. A site that no longer exists is recorded as
missing rather than raising, and the per-layer metrics built on it are
reported as null with that reason.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time

# (module, attribute, layer, operation). Layers are named after sevlogit's
# modules; the kernel layer is _kernels plus likelihood.
CALL_SITES = (
    ("sevlogit.cli", "main", "cli", "main"),
    ("sevlogit.cli", "ingest_csv", "io", "ingest"),
    ("sevlogit.cli", "write_csv", "io", "write_csv"),
    ("sevlogit.cli", "simulate", "simulate", "simulate"),
    ("sevlogit", "simulate", "simulate", "simulate"),
    ("sevlogit.cli", "partition", "data", "partition"),
    ("sevlogit.inference", "partition", "data", "partition"),
    ("sevlogit", "partition", "data", "partition"),
    ("sevlogit.data", "concatenate", "data", "concatenate"),
    ("sevlogit.data", "Dataset.covariate_matrix", "data", "covariate_matrix"),
    ("sevlogit.estimate", "bind_design", "modelspec", "design"),
    ("sevlogit.inference", "bind_design", "modelspec", "design"),
    ("sevlogit.likelihood", "bind_design", "modelspec", "design"),
    ("sevlogit.likelihood", "augmented_matrix", "modelspec", "design"),
    ("sevlogit._kernels", "loglik_grad_hess", "kernel", "full"),
    ("sevlogit._kernels", "loglik", "kernel", "ll"),
    ("sevlogit._kernels", "prob_matrix", "kernel", "prob"),
    ("sevlogit.inference", "probability_matrix", "kernel", "probability_matrix"),
    ("sevlogit.cli", "estimate", "estimate", "fit"),
    ("sevlogit.inference", "estimate", "estimate", "fit"),
    ("sevlogit", "estimate", "estimate", "fit"),
    ("sevlogit.cli", "evaluate_partition", "inference", "partition"),
    ("sevlogit", "evaluate_partition", "inference", "partition"),
    ("sevlogit.cli", "elasticity_report", "inference", "elasticity"),
    ("sevlogit", "elasticity_report", "inference", "elasticity"),
    ("sevlogit.cli", "lr_temporal_test", "inference", "lr_test"),
    ("sevlogit.inference", "lr_split_test", "inference", "lr_test"),
    ("sevlogit", "lr_split_test", "inference", "lr_test"),
    ("sevlogit.report", "run_config_record", "report", "render"),
    ("sevlogit.report", "estimation_record", "report", "render"),
    ("sevlogit.report", "elasticity_record", "report", "render"),
    ("sevlogit.report", "lr_record", "report", "render"),
    ("sevlogit.report", "partition_record", "report", "render"),
    ("sevlogit.report", "records_to_text", "report", "render"),
)

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    """Current resident set size of this process (Linux)."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * _PAGE_SIZE


def _extra(op, args, result, rss_before):
    """Counts taken at the boundary: rows, Newton iterations, RSS growth."""
    if op in ("full", "ll", "prob"):
        return {"rows": int(args[0].shape[0])}
    if op == "fit":
        return {"iterations": int(result.iterations), "converged": bool(result.converged)}
    if op == "ingest":
        return {"rows": int(result.n_obs), "rss_growth": rss_bytes() - rss_before}
    return None


class Tracer:
    """Owns the patches and the in-memory span list of one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, op, start_ns, end_ns, parent, extra]
        self.missing: dict[str, list] = {}  # site -> [layer, op, reason]
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, fn, name, layer, op):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rss_before = rss_bytes() if op == "ingest" else 0
            index = len(spans)
            span = [name, layer, op, 0, 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[3] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = time.perf_counter_ns()
                span[6] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[4] = time.perf_counter_ns()
            span[6] = _extra(op, args, result, rss_before)
            return result

        return traced

    def install(self, sites=CALL_SITES) -> None:
        for module_name, attr, layer, op in sites:
            name = f"{module_name}.{attr}"
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[leaf] if path else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError) as exc:
                reason = f"call site {name} not found ({type(exc).__name__}: {exc})"
                self.missing[name] = [layer, op, reason]
                continue
            if isinstance(original, functools.cached_property):
                replacement = functools.cached_property(self._wrap(original.func, name, layer, op))
                replacement.__set_name__(owner, leaf)
            else:
                replacement = self._wrap(original, name, layer, op)
            setattr(owner, leaf, replacement)
            self._restore.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    def dump(self, path, meta=None) -> None:
        doc = {"spans": self.spans, "missing": self.missing, "meta": meta or {}}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def merge(docs):
    """Concatenate span dumps of several processes, re-basing parent indices."""
    spans, missing, metas = [], {}, []
    for doc in docs:
        base = len(spans)
        for name, layer, op, start, end, parent, extra in doc["spans"]:
            spans.append([name, layer, op, start, end, parent + base if parent >= 0 else -1, extra])
        missing.update(doc["missing"])
        metas.append(doc["meta"])
    return spans, missing, metas


def _self_times(spans):
    child_time = [0] * len(spans)
    for span in spans:
        if span[5] >= 0:
            child_time[span[5]] += span[4] - span[3]
    return [(s[4] - s[3] - c) / 1e9 for s, c in zip(spans, child_time)]


def layer_self_times(spans) -> dict[str, float]:
    """Seconds of self time per layer: span time minus its child spans' time."""
    out: dict[str, float] = {}
    for span, own in zip(spans, _self_times(spans)):
        out[span[1]] = out.get(span[1], 0.0) + own
    return out


# Per-layer metrics: name -> (unit, better, (layer, op) pairs whose call sites it needs).
PER_LAYER = {
    "cli.import_s": ("s", "lower", [("cli", "main")]),
    "io.ingest_s": ("s", "lower", [("io", "ingest")]),
    "io.ingest_rows_per_s": ("1/s", "higher", [("io", "ingest")]),
    "io.ingest_rss_mb": ("MB", "lower", [("io", "ingest")]),
    "io.write_csv_s": ("s", "lower", [("io", "write_csv")]),
    "simulate.simulate_s": ("s", "lower", [("simulate", "simulate")]),
    "data.partition_s": ("s", "lower", [("data", "partition")]),
    "data.concatenate_s": ("s", "lower", [("data", "concatenate")]),
    "data.covariate_matrix_s": ("s", "lower", [("data", "covariate_matrix")]),
    "modelspec.design_s": ("s", "lower", [("modelspec", "design")]),
    "kernel.full_calls": ("count", "lower", [("kernel", "full")]),
    "kernel.full_s": ("s", "lower", [("kernel", "full")]),
    "kernel.ll_calls": ("count", "lower", [("kernel", "ll")]),
    "kernel.ll_s": ("s", "lower", [("kernel", "ll")]),
    "kernel.prob_calls": ("count", "lower", [("kernel", "prob")]),
    "kernel.prob_s": ("s", "lower", [("kernel", "prob")]),
    "kernel.full_rows_per_s": ("1/s", "higher", [("kernel", "full")]),
    "estimate.fits": ("count", "lower", [("estimate", "fit")]),
    "estimate.iterations": ("count", "lower", [("estimate", "fit")]),
    "estimate.full_per_fit": ("count", "lower", [("estimate", "fit"), ("kernel", "full")]),
    "estimate.accept_ratio": ("ratio", "higher", [("estimate", "fit"), ("kernel", "ll")]),
    "estimate.self_s": ("s", "lower", [("estimate", "fit")]),
    "estimate.failures": ("count", "lower", [("estimate", "fit")]),
    "inference.partition_self_s": ("s", "lower", [("inference", "partition")]),
    "inference.elasticity_self_s": ("s", "lower", [("inference", "elasticity")]),
    "inference.lr_test_s": ("s", "lower", [("inference", "lr_test")]),
    "report.render_s": ("s", "lower", [("report", "render")]),
    "trace.overhead_s": ("s", "lower", []),
}


def _outermost(spans, layer, op):
    """Spans of (layer, op) that have no ancestor of the same (layer, op)."""
    keep = []
    for span in spans:
        if span[1] != layer or span[2] != op:
            continue
        parent = span[5]
        while parent >= 0 and not (spans[parent][1] == layer and spans[parent][2] == op):
            parent = spans[parent][5]
        if parent < 0:
            keep.append(span)
    return keep


def per_layer_metrics(spans, missing, import_times, overhead_s):
    """Every PER_LAYER metric as {"value", "unit"}; null with a reason if a site is missing.

    Totals cover the whole traced unit. A layer the workload does not reach
    reads 0; rates and ratios over zero work read 0.
    """
    own = _self_times(spans)

    def of(layer, op):
        return [s for s in spans if s[1] == layer and s[2] == op]

    def total(layer, op):
        return sum(s[4] - s[3] for s in _outermost(spans, layer, op)) / 1e9

    def self_total(layer, op):
        return sum((t for s, t in zip(spans, own) if s[1] == layer and s[2] == op), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    fits = of("estimate", "fit")
    in_fit = [False] * len(spans)  # spans below a fit span
    for i, span in enumerate(spans):
        parent = span[5]
        in_fit[i] = parent >= 0 and (in_fit[parent] or spans[parent][2] == "fit")
    full_in_fit = sum(1 for s, inside in zip(spans, in_fit) if inside and s[2] == "full")
    ll_in_fit = sum(1 for s, inside in zip(spans, in_fit) if inside and s[2] == "ll")
    iterations = sum(s[6]["iterations"] for s in fits if s[6] and "iterations" in s[6])
    ingests = [s for s in of("io", "ingest") if s[6] and "rows" in s[6]]
    full = of("kernel", "full")
    full_rows = sum(s[6]["rows"] for s in full if s[6] and "rows" in s[6])

    values = {
        "cli.import_s": statistics.median(import_times) if import_times else 0.0,
        "io.ingest_s": total("io", "ingest"),
        "io.ingest_rows_per_s": ratio(sum(s[6]["rows"] for s in ingests), total("io", "ingest")),
        "io.ingest_rss_mb": max((s[6]["rss_growth"] / 2**20 for s in ingests), default=0.0),
        "io.write_csv_s": total("io", "write_csv"),
        "simulate.simulate_s": total("simulate", "simulate"),
        "data.partition_s": total("data", "partition"),
        "data.concatenate_s": total("data", "concatenate"),
        "data.covariate_matrix_s": total("data", "covariate_matrix"),
        "modelspec.design_s": self_total("modelspec", "design"),
        "kernel.full_calls": len(full),
        "kernel.full_s": total("kernel", "full"),
        "kernel.ll_calls": len(of("kernel", "ll")),
        "kernel.ll_s": total("kernel", "ll"),
        "kernel.prob_calls": len(of("kernel", "prob")),
        "kernel.prob_s": total("kernel", "prob"),
        "kernel.full_rows_per_s": ratio(full_rows, total("kernel", "full")),
        "estimate.fits": len(fits),
        "estimate.iterations": iterations,
        "estimate.full_per_fit": ratio(full_in_fit, len(fits)),
        "estimate.accept_ratio": ratio(iterations, ll_in_fit),
        "estimate.self_s": self_total("estimate", "fit"),
        "estimate.failures": sum(1 for s in fits if s[6] and "error" in s[6]),
        "inference.partition_self_s": self_total("inference", "partition"),
        "inference.elasticity_self_s": self_total("inference", "elasticity"),
        "inference.lr_test_s": total("inference", "lr_test"),
        "report.render_s": total("report", "render"),
        "trace.overhead_s": overhead_s,
    }

    metrics = {}
    for name, (unit, _, needs) in PER_LAYER.items():
        reasons = [reason for layer, op, reason in missing.values() if (layer, op) in needs]
        if reasons:
            metrics[name] = {"value": None, "unit": unit, "reason": "; ".join(reasons)}
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    return metrics
