"""MNL probability kernel and log-likelihood with analytic first and second derivatives.

All functions are pure in their immutable inputs. Probabilities use
max-subtraction stabilization, so any finite utilities are safe; the
observed-outcome probability is floored at the smallest positive normal
before logs and the flooring count is surfaced as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .data import Dataset, Observation
from .errors import NumericError
from .modelspec import Design, ModelSpec, ThetaLike, _theta_values, augmented_matrix, bind_design


@dataclass(frozen=True)
class LikelihoodEvaluation:
    """Log-likelihood value with its gradient and (symmetric, NSD) Hessian."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    n_floored: int = 0


def probabilities_from_utilities(utilities: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis; invariant to adding a constant."""
    u = np.asarray(utilities, dtype=np.float64)
    if not np.isfinite(u).all():
        raise NumericError("non-finite utility")
    prob = np.empty_like(u.T)
    _kernels._softmax(u.T, prob, np.empty(prob.shape[1:]), np.empty(prob.shape[1:]))
    return prob.T


def _data_inputs(dataset: Dataset):
    """The kernels' (x, y, w) for a dataset: the design matrix, outcomes and weights."""
    return augmented_matrix(dataset.covariate_matrix), dataset.outcome_indices, dataset.weights


@np.errstate(over="ignore", invalid="ignore")  # the finiteness check names overflow
def _probabilities(x: np.ndarray, design: Design, theta: ThetaLike) -> np.ndarray:
    """(rows, n_outcomes) outcome probabilities of a design matrix from ``augmented_matrix``."""
    p = _kernels.prob_matrix(x, design, _theta_values(theta, design.layout))
    if not np.isfinite(p).all():
        raise NumericError("non-finite utility while computing probabilities")
    return p


def probabilities(model: ModelSpec, theta: ThetaLike, obs: Observation) -> np.ndarray:
    """Outcome probabilities for one observation; each in (0, 1), summing to 1."""
    ds = Dataset(model.outcome_set, (obs,), tuple(sorted(obs.covariates)))
    return probability_matrix(model, theta, ds)[0]


def probability_matrix(model: ModelSpec, theta: ThetaLike, dataset: Dataset) -> np.ndarray:
    """(n_obs, n_outcomes) matrix of outcome probabilities."""
    design = bind_design(model, dataset.variable_names)
    return _probabilities(augmented_matrix(dataset.covariate_matrix), design, theta)


def log_likelihood(model: ModelSpec, theta: ThetaLike, dataset: Dataset) -> float:
    """Weighted sum over observations of the log observed-outcome probability."""
    if dataset.n_obs == 0:
        raise ValueError("dataset is empty")
    design = bind_design(model, dataset.variable_names)
    values = _theta_values(theta, design.layout)
    value, _ = _kernels.loglik(*_data_inputs(dataset), design, values)
    return float(value)


def gradient_hessian(model: ModelSpec, theta: ThetaLike, dataset: Dataset) -> LikelihoodEvaluation:
    """Log-likelihood with analytic score and Hessian, aggregated through shared slots."""
    if dataset.n_obs == 0:
        raise ValueError("dataset is empty")
    design = bind_design(model, dataset.variable_names)
    values = _theta_values(theta, design.layout)
    value, grad, hess, n_floored = _kernels.loglik_grad_hess(*_data_inputs(dataset), design, values)
    return LikelihoodEvaluation(float(value), grad, hess, int(n_floored))
