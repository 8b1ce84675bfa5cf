"""Machine-readable JSON-lines records and the human-readable text tables drawn from them.

Each result becomes one record (`*_record`); every table is rendered from a record
(`render`), so the two formats cannot disagree. Both are deterministic: records use
sorted keys and canonical float repr, tables use fixed formats, so identical runs
produce identical bytes.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from .data import SummaryTable
from .estimate import EstimationResult, fit_statistics
from .inference import ElasticityReport, LRTestResult, PartitionReport


def records_to_text(records: Sequence[dict]) -> str:
    return "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"


def run_config_record(command: str, resolved: dict) -> dict:
    return {"record": "run_config", "command": command, **resolved}


# ----------------------------------------------------------------- estimation

def estimation_record(result: EstimationResult, label: Optional[str] = None) -> dict:
    rec = {
        "record": "estimation_result",
        "slots": list(result.slot_names()),
        "estimates": [float(v) for v in result.theta_hat.values],
        "std_errors": [float(v) for v in result.std_errors],
        "t_ratios": [float(v) for v in result.t_ratios],
        "ll_converged": result.ll_converged,
        "ll_null": result.ll_null,
        "ll_zero": result.ll_zero,
        "iterations": result.iterations,
        "converged": result.converged,
        "gradient_max": result.gradient_max,
        "n_obs": result.n_obs,
        "diagnostics": list(result.diagnostics),
    }
    if result.converged and result.ll_zero != 0.0:
        stats = fit_statistics(result)
        rec["rho_squared"] = stats.rho_squared
        rec["rho_squared_adj"] = stats.rho_squared_adj
    if label is not None:
        rec["label"] = label
    return rec


def _table(rows: list[list[str]], align_right: Sequence[bool]) -> str:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [
            cell.rjust(widths[c]) if align_right[c] else cell.ljust(widths[c])
            for c, cell in enumerate(row)
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def render_estimation(rec: dict) -> str:
    rows = [["Slot", "Estimate", "Std. error", "t-ratio"]]
    for name, est, se, t in zip(rec["slots"], rec["estimates"], rec["std_errors"], rec["t_ratios"]):
        rows.append([name, f"{est:.6g}", f"{se:.6g}", f"{t:.2f}"])
    lines = []
    if rec.get("label"):
        lines.append(f"Model: {rec['label']}")
    lines.append(_table(rows, [False, True, True, True]))
    lines.append("")
    lines.append(f"Observations: {rec['n_obs']}    Parameters: {len(rec['slots'])}")
    lines.append(
        f"Log-likelihood: {rec['ll_converged']:.6f}  (constants-only {rec['ll_null']:.6f}, "
        f"at zero {rec['ll_zero']:.6f})"
    )
    if "rho_squared" in rec:
        lines.append(
            f"rho-squared: {rec['rho_squared']:.4f}    adjusted: {rec['rho_squared_adj']:.4f}"
        )
    # at an optimum the gradient is rounding noise; only a failed fit shows it
    status = "yes" if rec["converged"] else f"no    max |gradient|: {rec['gradient_max']:.3e}"
    lines.append(f"Iterations: {rec['iterations']}    Converged: {status}")
    for note in rec["diagnostics"]:
        lines.append(f"Note: {note}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- elasticity

def _severity_order(n_outcomes: int) -> list[int]:
    # most severe outcome first, matching the conventional report layout
    return list(range(n_outcomes - 1, 0, -1))


def elasticity_record(report: ElasticityReport) -> dict:
    return {
        "record": "elasticity_report",
        "aggregation": report.aggregation,
        "significance_threshold": report.threshold,
        "outcomes": list(report.outcome_labels),
        "cells": [
            {
                "variable": c.variable,
                "outcome": c.outcome_label,
                "estimate": c.estimate,
                "t_ratio": c.t_ratio,
                "elasticity": c.elasticity,
                "method": c.method,
            }
            for c in report.cells
        ],
    }


def render_elasticity(rec: dict) -> str:
    labels = [rec["outcomes"][i] for i in _severity_order(len(rec["outcomes"]))]
    header1 = ["Variable"] + ["Parameter estimate (t-ratio)"] + [""] * (len(labels) - 1)
    header1 += ["Elasticity"] + [""] * (len(labels) - 1)
    header2 = [""] + labels + labels

    variables = []
    for cell in rec["cells"]:
        if cell["variable"] not in variables:
            variables.append(cell["variable"])

    any_pseudo = False
    rows = [header1, header2]
    for var in variables:
        row = [var]
        cells = {c["outcome"]: c for c in rec["cells"] if c["variable"] == var}
        for label in labels:
            c = cells.get(label)
            row.append("" if c is None else f"{c['estimate']:.4g}({c['t_ratio']:.2f})")
        for label in labels:
            c = cells.get(label)
            if c is None or c["elasticity"] is None:
                row.append("")
            else:
                mark = "*" if c["method"] == "pseudo-elasticity" else ""
                any_pseudo = any_pseudo or bool(mark)
                row.append(f"{c['elasticity']:.2f}{mark}")
        rows.append(row)

    n_cols = 1 + 2 * len(labels)
    text = _table(rows, [False] + [True] * (n_cols - 1))
    lines = [text]
    lines.append("")
    lines.append(
        f"Elasticities shown for |t| > {rec['significance_threshold']:g} only; "
        f"aggregation: {rec['aggregation']}."
    )
    if any_pseudo:
        lines.append("* pseudo-elasticity: relative probability change flipping the indicator 0 -> 1.")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ LR tests

def lr_record(test: LRTestResult, kind: str) -> dict:
    return {
        "record": "lr_test",
        "kind": kind,
        "statistic": test.statistic,
        "df": test.df,
        "p_value": test.p_value,
        "reject_at": {f"{level:.2f}": flag for level, flag in sorted(test.reject_at.items())},
        "component_lls": {k: v for k, v in sorted(test.component_lls.items())},
    }


def render_lr(rec: dict) -> str:
    lines = [
        f"Likelihood-ratio {rec['kind']} test",
        f"statistic: {rec['statistic']:.6f}    df: {rec['df']}    p-value: {rec['p_value']:.6g}",
    ]
    decisions = "    ".join(
        f"{float(level):.0%}: {'reject' if flag else 'retain'}"
        for level, flag in rec["reject_at"].items()
    )
    lines.append(f"Homogeneity decision by confidence level -> {decisions}")
    comps = ", ".join(f"{k}={v:.6f}" for k, v in rec["component_lls"].items())
    lines.append(f"Component log-likelihoods: {comps}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- partition

def partition_record(report: PartitionReport, confidence: float) -> dict:
    rec = {
        "record": "partition_report",
        "dims": list(report.dims),
        "min_cell_size": report.min_cell_size,
        "pooled": estimation_record(report.pooled, label="pooled"),
        "cells": [],
        "confidence": confidence,
        "split_recommended": report.split_recommended(confidence),
    }
    for cell in report.cells:
        entry = {
            "label": cell.label,
            "n_obs": cell.n_obs,
            "status": cell.status,
            "reason": cell.reason,
        }
        if cell.result is not None:
            entry["result"] = estimation_record(cell.result, label=cell.label)
        rec["cells"].append(entry)
    if report.test is not None:
        rec["test"] = lr_record(report.test, "split")
    else:
        rec["test"] = None
        rec["test_unavailable_reason"] = report.test_unavailable_reason
    return rec


def render_partition(rec: dict) -> str:
    dims = ", ".join(rec["dims"])
    lines = [f"Partition by: {dims} (minimum cell size {rec['min_cell_size']})", ""]
    lines.append(render_estimation(rec["pooled"]))
    for cell in rec["cells"]:
        label = f"{cell['label']} (n={cell['n_obs']})"
        if cell["status"] == "ok":
            lines.append(render_estimation({**cell["result"], "label": label}))
        else:
            lines.append(f"Model: {label}  [{cell['status']}: {cell['reason']}]\n")
    if rec["test"] is not None:
        lines.append(render_lr(rec["test"]))
        lines.append(
            f"Splitting by {{{dims}}} is "
            f"{'recommended' if rec['split_recommended'] else 'not recommended'} "
            f"at {rec['confidence']:.0%} confidence.\n"
        )
    else:
        lines.append(f"Split test unavailable: {rec['test_unavailable_reason']}\n")
    return "\n".join(lines)


# ------------------------------------------------------------------- summary

def summary_record(table: SummaryTable) -> dict:
    return {
        "record": "summary_table",
        "variable": table.variable,
        "outcomes": list(table.outcome_labels),
        "bins": [
            {
                "band": b.label,
                "counts": list(b.counts),
                "shares": None if b.shares is None else [float(s) for s in b.shares],
            }
            for b in table.bins
        ],
    }


def render_summary(rec: dict) -> str:
    outcomes = rec["outcomes"]
    rows = [[rec["variable"].replace("_", " ").capitalize(), *outcomes]]
    for b in rec["bins"]:
        if b["shares"] is None:
            rows.append([b["band"], *["-" for _ in outcomes]])
        else:
            rows.append([b["band"], *[f"{100 * s:.1f}%" for s in b["shares"]]])
    text = _table(rows, [False] + [True] * len(outcomes))
    total = sum(sum(b["counts"]) for b in rec["bins"])
    return text + f"\n\nObservations: {total}\n"


_RENDERERS = {
    "estimation_result": render_estimation,
    "elasticity_report": render_elasticity,
    "lr_test": render_lr,
    "partition_report": render_partition,
    "summary_table": render_summary,
}


def render(record: dict) -> str:
    """The text table of a result record."""
    return _RENDERERS[record["record"]](record)
