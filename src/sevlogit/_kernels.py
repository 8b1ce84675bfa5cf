"""Hot numeric kernels: stabilized MNL probabilities, log-likelihood, score, information.

Vectorized numpy over all observations at once. Reductions run in numpy's
fixed order, so results are bit-reproducible from run to run on one machine.

Every kernel takes the flattened design: per-entry arrays (slot, outcome,
column) plus the covariate matrix whose last column is the constant 1.
Probabilities are floored at the smallest positive normal before logs; the
flooring count is returned as a quasi-separation diagnostic.
"""

import numpy as np

_LOG_FLOOR = float(np.log(np.finfo(np.float64).tiny))


def _entry_tables(entry_slot, entry_outcome, n_outcomes, n_params):
    n_entries = entry_slot.shape[0]
    onehot = np.zeros((n_entries, n_outcomes))
    onehot[np.arange(n_entries), entry_outcome] = 1.0
    scatter = np.zeros((n_params, n_entries))
    scatter[entry_slot, np.arange(n_entries)] = 1.0
    return onehot, scatter


def _utilities(x, entry_slot, entry_outcome, entry_col, theta, n_outcomes):
    xe = x[:, entry_col]
    onehot, _ = _entry_tables(entry_slot, entry_outcome, n_outcomes, theta.shape[0])
    return (xe * theta[entry_slot]) @ onehot, xe


def _floored_loglik(util, y, w):
    """Weighted LL over floored log-probabilities, the floored count, and log-sum-exp."""
    top = util.max(axis=1)
    lse = top + np.log(np.exp(util - top[:, None]).sum(axis=1))
    logp = util[np.arange(util.shape[0]), y] - lse
    n_floored = int((logp < _LOG_FLOOR).sum())
    return float(w @ np.maximum(logp, _LOG_FLOOR)), n_floored, lse


def prob_matrix(x, entry_slot, entry_outcome, entry_col, theta, n_outcomes):
    util, _ = _utilities(x, entry_slot, entry_outcome, entry_col, theta, n_outcomes)
    util -= util.max(axis=1, keepdims=True)
    np.exp(util, out=util)
    util /= util.sum(axis=1, keepdims=True)
    return util


def loglik(x, y, w, entry_slot, entry_outcome, entry_col, theta, n_outcomes):
    util, _ = _utilities(x, entry_slot, entry_outcome, entry_col, theta, n_outcomes)
    value, n_floored, _ = _floored_loglik(util, y, w)
    return value, n_floored


def loglik_grad_hess(x, y, w, entry_slot, entry_outcome, entry_col, theta, n_outcomes):
    n_params = theta.shape[0]
    util, xe = _utilities(x, entry_slot, entry_outcome, entry_col, theta, n_outcomes)
    value, n_floored, lse = _floored_loglik(util, y, w)

    prob = np.exp(util - lse[:, None])
    pe = prob[:, entry_outcome]  # per-entry outcome probability, (n, E)
    observed = (y[:, None] == entry_outcome[None, :]).astype(np.float64)
    g_entry = (w[:, None] * (observed - pe) * xe).sum(axis=0)
    gradient = np.bincount(entry_slot, weights=g_entry, minlength=n_params)

    wpx = w[:, None] * pe * xe
    same = (entry_outcome[:, None] == entry_outcome[None, :]).astype(np.float64)
    info_entry = same * (wpx.T @ xe) - wpx.T @ (pe * xe)
    _, scatter = _entry_tables(entry_slot, entry_outcome, n_outcomes, n_params)
    hessian = -(scatter @ info_entry @ scatter.T)
    hessian = 0.5 * (hessian + hessian.T)
    return value, gradient, hessian, n_floored


def active_backend() -> str:
    """Name of the kernel backend; kept for the ``backend`` field of run records."""
    return "numpy"
