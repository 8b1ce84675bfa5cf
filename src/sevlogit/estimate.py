"""Maximum-likelihood estimation of one MNL model on one dataset.

Newton iterations on the exact Hessian with step-halving, starting from
theta = 0 (the objective is globally concave, so the start only affects the
iteration count). Every iterate's information matrix is checked for
singularity before a step is taken from it. Covariance comes from the
observed information (inverse negative Hessian) at the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .data import Dataset, checked_count, real
from .errors import (
    NonConvergenceError,
    NonIdentificationError,
    NumericError,
    UndefinedStatisticError,
)
from .modelspec import ModelSpec, ParameterVector, bind_design
from .likelihood import _data_inputs


LL_REL_TOL = 1e-10  # relative LL-change convergence threshold
MAX_HALVINGS = 30
CONDITION_LIMIT = 1e10  # beyond this the information matrix is singular


@dataclass(frozen=True)
class EstimateOptions:
    gradient_tol: float = 1e-6  # max-norm convergence threshold
    max_iterations: int = 200

    def __post_init__(self):
        tol = real(self.gradient_tol)
        if tol is None or not tol > 0:
            raise ValueError(f"gradient_tol must be finite and > 0, got {self.gradient_tol!r}")
        object.__setattr__(self, "gradient_tol", tol)
        object.__setattr__(self, "max_iterations", checked_count("max_iterations", self.max_iterations))


@dataclass(frozen=True)
class EstimationResult:
    """Converged parameters with covariance, t-ratios, and fit log-likelihoods."""

    theta_hat: ParameterVector
    covariance: np.ndarray
    t_ratios: np.ndarray
    ll_converged: float
    ll_null: float
    ll_zero: float
    iterations: int
    converged: bool
    gradient_max: float
    n_obs: int
    diagnostics: tuple[str, ...] = ()
    options: EstimateOptions = field(default_factory=EstimateOptions)

    @property
    def n_params(self) -> int:
        return self.theta_hat.layout.n_params

    @property
    def std_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))

    def slot_names(self) -> tuple[str, ...]:
        return self.theta_hat.layout.slot_names()


@dataclass(frozen=True)
class FitStatistics:
    rho_squared: float
    rho_squared_adj: float


def null_log_likelihood(dataset: Dataset) -> float:
    """Saturated constants-only LL: sum over outcomes of W_i * ln(W_i / W)."""
    by_outcome = np.bincount(dataset.outcome_indices, weights=dataset.weights).tolist()
    total = float(dataset.weights.sum())
    return sum(w_i * math.log(w_i / total) for w_i in by_outcome if w_i > 0.0)


def _deficient_slots(eigvals: np.ndarray, eigvecs: np.ndarray) -> list[int]:
    """Slots loading on the eigenvectors of -Hessian at or below the condition cutoff."""
    cutoff = max(eigvals.max(), 0.0) / CONDITION_LIMIT
    slots: set[int] = set()
    for j in range(eigvals.shape[0]):
        if eigvals[j] <= cutoff:
            vec = np.abs(eigvecs[:, j])
            slots.update(int(i) for i in np.flatnonzero(vec >= 0.5 * vec.max()))
    return sorted(slots)


def estimate(
    model: ModelSpec, dataset: Dataset, options: EstimateOptions | None = None
) -> EstimationResult:
    """Fit the model by maximum likelihood.

    Raises
    ------
    NonConvergenceError
        Iteration cap exceeded or the line search stalled away from an
        optimum; the exception carries the last iterate, with NaN covariance
        and t-ratios.
    NonIdentificationError
        The information matrix at some iterate, the optimum included, is
        singular past the condition limit; raised at that iterate, before a
        step is taken from it. The exception names the offending slots.
    NumericError
        The log-likelihood at theta = 0 is not finite.
    ValueError
        The dataset is empty.
    """
    options = options or EstimateOptions()
    if dataset.n_obs == 0:
        raise ValueError("dataset is empty")

    design = bind_design(model, dataset.variable_names)
    layout = design.layout
    n_params = layout.n_params
    inputs = _data_inputs(dataset)

    counts = dataset.outcome_counts()
    diagnostics = [
        f"outcome {model.outcome_set.labels[out]!r} appears in the model "
        "but never in the data; its coefficients are not identified"
        for out in sorted({int(o) for o in design.entry_outcome})
        if counts[out] == 0
    ]
    max_floored = 0

    def evaluate(values: np.ndarray):
        nonlocal max_floored
        ll, grad, hess, n_floored = _kernels.loglik_grad_hess(*inputs, design, values)
        max_floored = max(max_floored, n_floored)
        return ll, grad, hess

    theta = np.zeros(n_params)
    ll, grad, hess = evaluate(theta)
    if not math.isfinite(ll):
        raise NumericError("log-likelihood is not finite")
    ll_zero = ll
    ll_stalls = 0  # consecutive sub-threshold LL gains
    iterations = 0
    failure = None  # why the loop stopped short of an optimum

    while True:
        # the log-likelihood is concave, so -Hessian singular past the limit at
        # any iterate means collinear columns or separation: stop right there
        neg_hess = -hess
        eigvals, eigvecs = np.linalg.eigh(neg_hess)
        min_eig = float(eigvals.min())
        max_eig = float(eigvals.max())
        if (
            not math.isfinite(min_eig)
            or min_eig <= 0.0
            or max_eig / min_eig > CONDITION_LIMIT
        ):
            slots = _deficient_slots(eigvals, eigvecs)
            names = ", ".join(layout.slot_names()[i] for i in slots) or "unknown"
            raise NonIdentificationError(
                "information matrix is singular or near-singular at iteration "
                f"{iterations} (condition {max_eig / max(min_eig, 1e-300):.2e}); "
                f"unidentified slots: {names}",
                slots=slots,
            )
        gradient_max = float(np.abs(grad).max())
        if gradient_max < options.gradient_tol:
            break
        if ll_stalls >= 3:
            # LL-change criterion: the objective has stopped moving. Requiring
            # consecutive stalls lets the quadratic Newton tail push the
            # gradient under its own tolerance first in well-posed problems.
            diagnostics.append(
                "converged on log-likelihood stall with gradient max-norm "
                f"{gradient_max:.3e} above {options.gradient_tol:g}"
            )
            break
        if iterations >= options.max_iterations:
            failure = f"no convergence after {iterations} iterations"
            break

        direction = np.linalg.solve(neg_hess, grad)
        # accept within summation-noise slack: near the optimum the true Newton
        # gain sinks below the evaluation noise of a several-thousand-unit LL
        slack = 1e-12 * (abs(ll) + 1.0)
        iterations += 1
        for halvings in range(MAX_HALVINGS + 1):
            new_theta = theta + 0.5**halvings * direction
            new_ll, new_grad, new_hess = evaluate(new_theta)
            if math.isfinite(new_ll) and new_ll >= ll - slack:
                break
        else:  # no step length was accepted
            failure = f"line search stalled after {MAX_HALVINGS} halvings"
            break

        stalled = abs(new_ll - ll) < LL_REL_TOL * (abs(new_ll) + 1.0)
        ll_stalls = ll_stalls + 1 if stalled else 0
        theta, ll, grad, hess = new_theta, new_ll, new_grad, new_hess

    if max_floored > 0:
        diagnostics.append(
            f"observed-outcome probability floored for {max_floored} observation(s) "
            "during optimization (possible quasi-separation)"
        )

    if failure is None:
        condition = max_eig / min_eig
        if condition > 0.01 * CONDITION_LIMIT:
            diagnostics.append(
                f"information matrix is ill-conditioned (condition {condition:.2e}); "
                "standard errors for weakly identified slots are unreliable"
            )
        # the eigh check proved -Hessian positive definite, so every variance is > 0
        covariance = np.linalg.inv(neg_hess)
        covariance = 0.5 * (covariance + covariance.T)
        t_ratios = theta / np.sqrt(np.diag(covariance))
    else:
        covariance = np.full((n_params, n_params), np.nan)
        t_ratios = np.full(n_params, np.nan)

    result = EstimationResult(
        theta_hat=ParameterVector(theta, layout),
        covariance=covariance,
        t_ratios=t_ratios,
        ll_converged=float(ll),
        ll_null=null_log_likelihood(dataset),
        ll_zero=float(ll_zero),
        iterations=iterations,
        converged=failure is None,
        gradient_max=gradient_max,
        n_obs=dataset.n_obs,
        diagnostics=tuple(diagnostics),
        options=options,
    )
    if failure is not None:
        raise NonConvergenceError(
            f"{failure} (gradient max-norm {gradient_max:.3e} >= {options.gradient_tol:g})",
            last_result=result,
        )
    return result


def fit_statistics(result: EstimationResult) -> FitStatistics:
    """McFadden rho-squared against the theta = 0 baseline, plus the K-adjusted variant."""
    if not result.converged:
        raise ValueError("fit statistics require a converged result")
    if result.ll_zero == 0.0:
        raise UndefinedStatisticError("baseline log-likelihood is zero; rho-squared undefined")
    rho = 1.0 - result.ll_converged / result.ll_zero
    rho_adj = 1.0 - (result.ll_converged - result.n_params) / result.ll_zero
    return FitStatistics(rho_squared=rho, rho_squared_adj=rho_adj)
