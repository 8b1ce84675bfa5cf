"""Elasticities of outcome probabilities and likelihood-ratio segmentation tests."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .chi2 import chi_square_sf
from .data import Dataset, checked_count, checked_real, partition, partition_dims, real
from .errors import EmptyPartitionError, InconsistencyError, SevlogitError
from .estimate import EstimateOptions, EstimationResult, estimate
from .likelihood import _probabilities, probability_matrix
from .modelspec import ModelSpec, ThetaLike, augmented_matrix, bind_design

SPLIT_CONFIDENCE_LEVELS = (0.90, 0.95, 0.99)
TEMPORAL_CONFIDENCE_LEVELS = (0.70, 0.90, 0.95, 0.99)

DEFAULT_SIGNIFICANCE_T = 1.96
AGGREGATIONS = ("mean", "prob-weighted")


@dataclass(frozen=True)
class ElasticityOptions:
    """Elasticity report settings: the |t| gate of a cell and how observations are averaged."""

    threshold: float = DEFAULT_SIGNIFICANCE_T
    aggregation: str = "mean"

    def __post_init__(self):
        threshold, aggregation = real(self.threshold), self.aggregation
        if threshold is None or threshold < 0.0:
            raise ValueError(
                f"significance threshold must be finite and >= 0, got {self.threshold!r}"
            )
        if aggregation not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation {aggregation!r}; expected 'mean' or 'prob-weighted'")
        object.__setattr__(self, "threshold", threshold)


@dataclass(frozen=True)
class PartitionOptions:
    """Partition dims (kept in canonical order), minimum cell size and headline confidence."""

    dims: tuple[str, ...]
    min_cell_size: Optional[int] = None
    confidence: float = 0.95

    def __post_init__(self):
        object.__setattr__(self, "dims", partition_dims(self.dims))
        if self.min_cell_size is not None:
            size = checked_count("minimum cell size", self.min_cell_size)
            object.__setattr__(self, "min_cell_size", size)
        confidence = real(self.confidence)
        if confidence is None or not 0.0 < confidence < 1.0:
            raise ValueError(f"--confidence must be in (0, 1), got {self.confidence!r}")
        object.__setattr__(self, "confidence", confidence)


def elasticity_point(probability: float, coefficient: float, value: float) -> float:
    """Percent response of an outcome probability to a 1% change in a covariate.

    (1 - P) * coefficient * value: the MNL elasticity x * (beta_i - sum_j P_j beta_j)
    when the covariate enters only this outcome's utility. Applies elementwise to
    arrays of probabilities and values.
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
    return float((prob * per_obs).sum() / prob.sum())  # "prob-weighted"


def elasticity_report(
    model: ModelSpec,
    result: EstimationResult,
    dataset: Dataset,
    threshold: float = DEFAULT_SIGNIFICANCE_T,
    aggregation: str = "mean",
    keep_per_observation: bool = False,
) -> ElasticityReport:
    """Per-(variable, outcome) elasticities averaged over the dataset.

    Every (variable, outcome) pair with a slot gets a cell carrying its estimate
    and t-ratio; the elasticity value is filled only where |t| exceeds the
    threshold. A continuous variable's elasticity is the exact MNL form
    x * (beta_i - sum_j P_j beta_j), with beta_j = 0 on outcomes the variable
    does not enter. Indicator (0/1) variables get a pseudo-elasticity: the
    relative probability change from flipping the indicator 0 -> 1.
    """
    threshold = ElasticityOptions(threshold, aggregation).threshold  # raises on a bad value
    if not result.converged:
        raise ValueError("elasticity report requires a converged result")
    if dataset.n_obs == 0:
        raise ValueError("dataset is empty")

    layout = result.theta_hat.layout
    theta = result.theta_hat.values
    design = bind_design(model, dataset.variable_names)
    x = augmented_matrix(dataset.covariate_matrix)
    prob = _probabilities(x, design, result.theta_hat)

    cells: list[ElasticityCell] = []
    for variable in model.variables():
        col = dataset.variable_names.index(variable)
        values = dataset.covariate_matrix[:, col]
        outcomes = sorted(o for v, o in layout.slot_of if v == variable)
        slots = [layout.slot_of[(variable, o)] for o in outcomes]
        indicator = _is_indicator(values)
        if indicator:
            off = _probabilities_with(x, design, result.theta_hat, col, 0.0)
            on = _probabilities_with(x, design, result.theta_hat, col, 1.0)
            x[:, col] = values
            on -= off
            on /= off  # (on - off) / off, in place
            per_outcome = on
            del off
        else:
            beta = np.zeros(model.outcome_set.n_outcomes)
            beta[outcomes] = theta[slots]
            per_outcome = values[:, None] * (beta - (prob @ beta)[:, None])
        for out, slot in zip(outcomes, slots):
            t_ratio = float(result.t_ratios[slot])
            per_obs = per_outcome[:, out] if abs(t_ratio) > threshold else None
            value = None if per_obs is None else _aggregate(per_obs, prob[:, out], aggregation)
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


def _probabilities_with(x, design, theta, col, values) -> np.ndarray:
    """Outcome probabilities of design matrix x after writing `values` into its column `col`."""
    x[:, col] = values
    return _probabilities(x, design, theta)


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
    design = bind_design(model, dataset.variable_names)
    x = augmented_matrix(dataset.covariate_matrix)
    col = dataset.variable_names.index(variable)
    values = dataset.covariate_matrix[:, col]
    step = rel_step * np.maximum(np.abs(values), 1.0)
    p_plus = _probabilities_with(x, design, theta, col, values + step)[:, outcome]
    p_minus = _probabilities_with(x, design, theta, col, values - step)[:, outcome]
    p_base = probability_matrix(model, theta, dataset)[:, outcome]
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
    (M - 1) * K when every model has the same K). A log-likelihood that is not
    finite, or a parameter count that is not a positive integer, is a ValueError.
    """
    if len(subsets) < 2:
        raise ValueError(f"need at least two subsets, got {len(subsets)}")
    ll_pooled = checked_real("pooled log-likelihood", ll_pooled)
    k_pooled = checked_count("pooled parameter count", k_pooled)
    subsets = [
        (checked_real(f"subset {i} log-likelihood", ll),
         checked_count(f"subset {i} parameter count", k))
        for i, (ll, k) in enumerate(subsets)
    ]
    ll_sum = sum(ll for ll, _ in subsets)
    statistic = -2.0 * (ll_pooled - ll_sum)
    if statistic < -1e-8:
        details = ", ".join(f"subset{i}: LL={ll:.6f}" for i, (ll, _) in enumerate(subsets))
        raise InconsistencyError(
            f"subset log-likelihoods sum below the pooled value (statistic {statistic:.3e}); "
            f"impossible for correctly nested fits - one of the subset estimations likely "
            f"failed (pooled LL={ll_pooled:.6f}; {details})"
        )
    statistic = max(statistic, 0.0)
    df = sum(k for _, k in subsets) - k_pooled
    p_value = chi_square_sf(statistic, df)  # refuses a df below 1
    components = {"pooled": ll_pooled}
    components.update({f"subset{i}": ll for i, (ll, _) in enumerate(subsets)})
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


def cell_value(value) -> str:
    """A cell key's value as reports show it; no period reads '-'."""
    return "-" if value is None else str(value)


def evaluate_partition(
    model: ModelSpec,
    dataset: Dataset,
    dims: Sequence[str],
    options: EstimateOptions | None = None,
    min_cell_size: int | None = None,
    fit=None,
) -> PartitionReport:
    """Estimate pooled and per-cell models over a partition and run the split test.

    Cells below the minimum size (default 30 observations per parameter) are
    flagged and skipped; a cell that fails to estimate keeps its exception in
    `error`. If any cell is skipped or failed, the split test is marked
    unavailable instead of being computed over a subset. `fit` makes each fit
    and takes estimate's arguments (default: estimate, looked up at the call).
    """
    fit = fit or estimate
    settings = PartitionOptions(dims, min_cell_size)
    dims, min_cell_size = settings.dims, settings.min_cell_size or 30 * model.n_params
    cells = partition(dataset, dims)

    # no cells means no rows; the pooled fit below rejects an empty dataset
    if cells and all(ds.n_obs < min_cell_size for ds in cells.values()):
        raise EmptyPartitionError(
            f"every cell is below the minimum size {min_cell_size}; nothing to evaluate"
        )

    pooled = fit(model, dataset, options)

    # a single cell is the pooled data again: there is nothing to fit or compare
    reports: list[CellReport] = []
    for key, cell_data in cells.items() if len(cells) > 1 else ():
        status, reason, result, error = "ok", None, None, None
        if cell_data.n_obs < min_cell_size:
            status, reason = "skipped", f"cell size {cell_data.n_obs} below minimum {min_cell_size}"
        else:
            try:
                result = fit(model, cell_data, options)
            except SevlogitError as exc:
                status, reason, error = "failed", str(exc), exc
        label = ", ".join(f"{d}={cell_value(v)}" for d, v in zip(dims, key))
        reports.append(CellReport(key, label, cell_data.n_obs, status, reason, result, error))

    not_ok = [r for r in reports if r.status != "ok"]
    test, unavailable = None, None
    if len(cells) == 1:
        unavailable = "single-cell partition; nothing to compare"
    elif not_ok:
        unavailable = "not all cells estimated: " + "; ".join(
            f"{r.label}: {r.status} ({r.reason})" for r in not_ok
        )
    else:
        subsets = [(r.result.ll_converged, r.result.n_params) for r in reports]
        test = lr_split_test(pooled.ll_converged, pooled.n_params, subsets)
    return PartitionReport(dims, pooled, tuple(reports), test, unavailable, min_cell_size)
