"""Elasticities of outcome probabilities and likelihood-ratio segmentation tests."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .chi2 import chi_square_sf
from .data import PARTITION_DIMS, Dataset, partition
from .errors import EmptyPartitionError, InconsistencyError, SevlogitError
from .estimate import EstimateOptions, EstimationResult, estimate
from .likelihood import probabilities_for_matrix, probability_matrix
# bind_design is not called here, but perfbench/tracing.py patches it in this namespace
from .modelspec import ModelSpec, ThetaLike, bind_design  # noqa: F401

SPLIT_CONFIDENCE_LEVELS = (0.90, 0.95, 0.99)
TEMPORAL_CONFIDENCE_LEVELS = (0.70, 0.90, 0.95, 0.99)

DEFAULT_SIGNIFICANCE_T = 1.96


def elasticity_point(probability: float, coefficient: float, value: float) -> float:
    """Percent response of an outcome probability to a 1% change in a covariate.

    Closed MNL form: (1 - P) * coefficient * value. Exact for coefficients
    specific to the outcome; the conventional approximation for shared ones.
    Applies elementwise to arrays of probabilities and values.
    """
    return (1.0 - probability) * coefficient * value


@dataclass(frozen=True)
class ElasticityCell:
    """One (variable, outcome) entry of an elasticity report."""

    variable: str
    outcome: int
    outcome_label: str
    estimate: float
    t_ratio: float
    elasticity: Optional[float]  # None when the slot is not significant
    method: str  # "elasticity" or "pseudo-elasticity"
    per_observation: Optional[np.ndarray] = None


@dataclass(frozen=True)
class ElasticityReport:
    """Mean elasticities per (variable, outcome), gated on slot significance."""

    outcome_labels: tuple[str, ...]
    cells: tuple[ElasticityCell, ...]
    aggregation: str
    threshold: float

    def cell(self, variable: str, outcome: int) -> ElasticityCell:
        for c in self.cells:
            if c.variable == variable and c.outcome == outcome:
                return c
        raise KeyError(f"no cell for ({variable!r}, outcome {outcome})")


def _is_indicator(values: np.ndarray) -> bool:
    return bool(np.isin(values, (0.0, 1.0)).all())


def _aggregate(per_obs: np.ndarray, prob: np.ndarray, aggregation: str) -> float:
    if aggregation == "mean":
        return float(per_obs.mean())
    if aggregation == "prob-weighted":
        return float((prob * per_obs).sum() / prob.sum())
    raise ValueError(f"unknown aggregation {aggregation!r}; expected 'mean' or 'prob-weighted'")


def elasticity_report(
    model: ModelSpec,
    result: EstimationResult,
    dataset: Dataset,
    threshold: float = DEFAULT_SIGNIFICANCE_T,
    aggregation: str = "mean",
    keep_per_observation: bool = False,
) -> ElasticityReport:
    """Per-(variable, outcome) elasticities averaged over the dataset.

    Every non-constant slot gets a cell carrying its estimate and t-ratio;
    the elasticity value is filled only where |t| exceeds the threshold.
    Indicator (0/1) variables get a pseudo-elasticity: the relative
    probability change from flipping the indicator 0 -> 1.
    """
    if not result.converged:
        raise ValueError("elasticity report requires a converged result")
    if dataset.n_obs == 0:
        raise ValueError("dataset is empty")

    layout = result.theta_hat.layout
    theta = result.theta_hat.values
    prob = probability_matrix(model, result.theta_hat, dataset)
    x = dataset.covariate_matrix

    cells: list[ElasticityCell] = []
    for variable in model.variables():
        col = dataset.variable_names.index(variable)
        values = x[:, col]
        indicator = _is_indicator(values)
        if indicator:
            prob_off, prob_on = _flipped_probabilities(model, result.theta_hat, dataset, col)
        pairs = sorted(
            {(t_idx, out) for t_idx, term in enumerate(model.terms) if term.variable == variable
             for out in term.outcomes},
            key=lambda p: p[1],
        )
        for t_idx, out in pairs:
            slot = layout.slot_of[(t_idx, out)]
            t_ratio = float(result.t_ratios[slot])
            significant = abs(t_ratio) > threshold
            per_obs = None
            value = None
            if significant:
                if indicator:
                    per_obs = (prob_on[:, out] - prob_off[:, out]) / prob_off[:, out]
                else:
                    per_obs = elasticity_point(prob[:, out], theta[slot], values)
                value = _aggregate(per_obs, prob[:, out], aggregation)
            cells.append(
                ElasticityCell(
                    variable=variable,
                    outcome=out,
                    outcome_label=model.outcome_set.labels[out],
                    estimate=float(theta[slot]),
                    t_ratio=t_ratio,
                    elasticity=value,
                    method="pseudo-elasticity" if indicator else "elasticity",
                    per_observation=per_obs if keep_per_observation else None,
                )
            )
    return ElasticityReport(model.outcome_set.labels, tuple(cells), aggregation, threshold)


def _flipped_probabilities(model, theta, dataset, col):
    base = dataset.covariate_matrix.copy()
    base[:, col] = 0.0
    off = probabilities_for_matrix(model, theta, dataset.variable_names, base)
    base[:, col] = 1.0
    on = probabilities_for_matrix(model, theta, dataset.variable_names, base)
    return off, on


def finite_difference_elasticity(
    model: ModelSpec,
    theta: ThetaLike,
    dataset: Dataset,
    variable: str,
    outcome: int,
    rel_step: float = 1e-5,
) -> np.ndarray:
    """Per-observation elasticity by centered differencing of the probabilities.

    Independent numerical route for cross-checking the closed form; exact up
    to differencing error for any coefficient structure.
    """
    col = dataset.variable_names.index(variable)
    x = dataset.covariate_matrix
    values = x[:, col]
    step = rel_step * np.maximum(np.abs(values), 1.0)

    plus = x.copy()
    plus[:, col] = values + step
    minus = x.copy()
    minus[:, col] = values - step
    names = dataset.variable_names
    p_plus = probabilities_for_matrix(model, theta, names, plus)[:, outcome]
    p_minus = probabilities_for_matrix(model, theta, names, minus)[:, outcome]
    p_base = probabilities_for_matrix(model, theta, names, x)[:, outcome]
    derivative = (p_plus - p_minus) / (2.0 * step)
    return derivative * values / p_base


@dataclass(frozen=True)
class LRTestResult:
    """Likelihood-ratio statistic, degrees of freedom, p-value, and decisions."""

    statistic: float
    df: int
    p_value: float
    reject_at: dict[float, bool]
    component_lls: dict[str, float]

    def reject(self, confidence: float = 0.95) -> bool:
        return self.p_value < 1.0 - confidence


def lr_split_test(
    ll_pooled: float,
    k_pooled: int,
    subsets: Sequence[tuple[float, int]],
    levels: Sequence[float] = SPLIT_CONFIDENCE_LEVELS,
) -> LRTestResult:
    """Test whether separate per-subset models fit better than one pooled model.

    statistic = -2 * (pooled LL - sum of subset LLs), chi-square with
    df = sum of subset parameter counts - pooled parameter count (the familiar
    (M - 1) * K when every model has the same K).
    """
    if len(subsets) < 2:
        raise ValueError(f"need at least two subsets, got {len(subsets)}")
    ll_sum = float(sum(ll for ll, _ in subsets))
    statistic = -2.0 * (ll_pooled - ll_sum)
    if statistic < -1e-8:
        details = ", ".join(f"subset{i}: LL={ll:.6f}" for i, (ll, _) in enumerate(subsets))
        raise InconsistencyError(
            f"subset log-likelihoods sum below the pooled value (statistic {statistic:.3e}); "
            f"impossible for correctly nested fits - one of the subset estimations likely "
            f"failed (pooled LL={ll_pooled:.6f}; {details})"
        )
    statistic = max(statistic, 0.0)
    df = int(sum(k for _, k in subsets)) - int(k_pooled)
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    p_value = chi_square_sf(statistic, df)
    components = {"pooled": float(ll_pooled)}
    components.update({f"subset{i}": float(ll) for i, (ll, _) in enumerate(subsets)})
    decisions = {level: p_value < 1.0 - level for level in levels}
    return LRTestResult(statistic, df, p_value, decisions, components)


def lr_temporal_test(
    ll_all: float,
    ll_first: float,
    ll_second: float,
    k_all: int,
    k_first: int,
    k_second: int,
    levels: Sequence[float] = TEMPORAL_CONFIDENCE_LEVELS,
) -> LRTestResult:
    """Test whether model parameters shifted between two periods.

    The split test with the two periods as subsets: statistic =
    -2 * (combined LL - (first-period LL + second-period LL)), chi-square with
    df = K_first + K_second - K_combined. Rejection means the periods should
    not be pooled.
    """
    test = lr_split_test(ll_all, k_all, [(ll_first, k_first), (ll_second, k_second)], levels)
    components = {"combined": float(ll_all), "first": float(ll_first), "second": float(ll_second)}
    return replace(test, component_lls=components)


@dataclass(frozen=True)
class CellReport:
    """Outcome of estimating one partition cell."""

    key: tuple
    label: str
    n_obs: int
    status: str  # "ok", "skipped", or "failed"
    reason: Optional[str]
    result: Optional[EstimationResult]
    error: Optional[SevlogitError] = None  # the exception of a "failed" cell


@dataclass(frozen=True)
class PartitionReport:
    """Pooled model, per-cell models, and the split test over one partition."""

    dims: tuple[str, ...]
    pooled: EstimationResult
    cells: tuple[CellReport, ...]
    test: Optional[LRTestResult]
    test_unavailable_reason: Optional[str]
    min_cell_size: int

    def split_recommended(self, confidence: float = 0.95) -> Optional[bool]:
        """True/False per the test, or None when the test is unavailable."""
        if self.test is None:
            return None
        return self.test.reject(confidence)


def _cell_label(dims: Sequence[str], key: tuple) -> str:
    return ", ".join(f"{d}={'-' if v is None else v}" for d, v in zip(dims, key))


def evaluate_partition(
    model: ModelSpec,
    dataset: Dataset,
    dims: Sequence[str],
    options: EstimateOptions | None = None,
    min_cell_size: int | None = None,
    levels: Sequence[float] = SPLIT_CONFIDENCE_LEVELS,
) -> PartitionReport:
    """Estimate pooled and per-cell models over a partition and run the split test.

    Cells below the minimum size (default 30 observations per parameter) are
    flagged and skipped; a cell that fails to estimate keeps its exception in
    `error`. If any cell is skipped or failed, the split test is marked
    unavailable instead of being computed over a subset.
    """
    cells = partition(dataset, dims)
    dims = tuple(d for d in PARTITION_DIMS if d in dims)
    n_params = model.n_params
    if min_cell_size is None:
        min_cell_size = 30 * n_params

    # no cells means no rows; the pooled fit below rejects an empty dataset
    if cells and all(ds.n_obs < min_cell_size for ds in cells.values()):
        raise EmptyPartitionError(
            f"every cell is below the minimum size {min_cell_size}; nothing to evaluate"
        )

    pooled = estimate(model, dataset, options)

    if len(cells) == 1:
        return PartitionReport(
            dims=dims,
            pooled=pooled,
            cells=(),
            test=None,
            test_unavailable_reason="single-cell partition; nothing to compare",
            min_cell_size=min_cell_size,
        )

    reports: list[CellReport] = []
    for key, cell_data in cells.items():
        label = _cell_label(dims, key)
        if cell_data.n_obs < min_cell_size:
            reports.append(
                CellReport(key, label, cell_data.n_obs, "skipped",
                           f"cell size {cell_data.n_obs} below minimum {min_cell_size}", None)
            )
            continue
        try:
            cell_result = estimate(model, cell_data, options)
        except SevlogitError as exc:
            reports.append(CellReport(key, label, cell_data.n_obs, "failed", str(exc), None, exc))
            continue
        reports.append(CellReport(key, label, cell_data.n_obs, "ok", None, cell_result))

    not_ok = [r for r in reports if r.status != "ok"]
    if not_ok:
        reason = "; ".join(f"{r.label}: {r.status} ({r.reason})" for r in not_ok)
        test = None
        unavailable = f"not all cells estimated: {reason}"
    else:
        test = lr_split_test(
            pooled.ll_converged,
            pooled.n_params,
            [(r.result.ll_converged, r.result.n_params) for r in reports],
            levels=levels,
        )
        unavailable = None

    return PartitionReport(
        dims=dims,
        pooled=pooled,
        cells=tuple(reports),
        test=test,
        test_unavailable_reason=unavailable,
        min_cell_size=min_cell_size,
    )
