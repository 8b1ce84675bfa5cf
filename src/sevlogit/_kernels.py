"""Hot numeric kernels: stabilized MNL probabilities, log-likelihood, score, information.

Outcome-major numpy: design entries (slot, outcome, column) fill a (J, cols)
matrix C; utilities are C @ xᵀ, (J, n), so outcome reductions run along
contiguous length-n rows, not along n rows only J wide, which numpy reduces
slowly. The score is (w·(Y − P)) @ x and each information block, one per
referenced outcome pair, is (xᵀ·w·p_j·(δ_jk − p_k)) @ x; both are gathered to
entries and summed into slots. x ends in the constant-1 column and is
column-major, so xᵀ is contiguous. Reductions run in a fixed order, so results
are bit-reproducible per machine. Probabilities are floored at the smallest
positive normal before logs; the floored count flags quasi-separation.
"""

import numpy as np

_LOG_FLOOR = float(np.log(np.finfo(np.float64).tiny))


def _utilities(x, entry_slot, entry_outcome, entry_col, theta, n_outcomes):
    """(J, n) utilities; the base outcome's row, never referenced, stays 0."""
    coef = np.zeros((n_outcomes, x.shape[1]))
    coef[entry_outcome, entry_col] = theta[entry_slot]
    return coef @ x.T


def _softmax(util):
    """(J, n) probabilities and the log-sum-exp of each observation's utilities."""
    top = util.max(axis=0)
    prob = np.exp(util - top)
    total = prob.sum(axis=0)
    prob /= total
    return prob, top + np.log(total)


def _floored_loglik(util, lse, y, w):
    """Weighted floored LL, floored count, flat indices of observed outcomes in (J, n)."""
    observed = y * util.shape[1] + np.arange(util.shape[1])
    logp = np.take(util, observed) - lse
    n_floored = int((logp < _LOG_FLOOR).sum())
    return float(w @ np.maximum(logp, _LOG_FLOOR)), n_floored, observed


def prob_matrix(x, entry_slot, entry_outcome, entry_col, theta, n_outcomes):
    """(n, J) outcome probabilities, a transposed view of the (J, n) result."""
    return _softmax(_utilities(x, entry_slot, entry_outcome, entry_col, theta, n_outcomes))[0].T


def loglik(x, y, w, entry_slot, entry_outcome, entry_col, theta, n_outcomes):
    util = _utilities(x, entry_slot, entry_outcome, entry_col, theta, n_outcomes)
    return _floored_loglik(util, _softmax(util)[1], y, w)[:2]


def loglik_grad_hess(x, y, w, entry_slot, entry_outcome, entry_col, theta, n_outcomes):
    n_params = theta.shape[0]
    util = _utilities(x, entry_slot, entry_outcome, entry_col, theta, n_outcomes)
    prob, lse = _softmax(util)
    value, n_floored, observed = _floored_loglik(util, lse, y, w)

    wprob = prob * w
    resid = -wprob  # w·(Y − P), C-ordered like prob
    resid.ravel()[observed] += w
    score = resid @ x  # (J, cols)
    gradient = np.bincount(entry_slot, weights=score[entry_outcome, entry_col], minlength=n_params)

    blocks = np.zeros((n_outcomes, n_outcomes, x.shape[1], x.shape[1]))
    referenced = np.flatnonzero(np.bincount(entry_outcome, minlength=n_outcomes)).tolist()
    for a, j in enumerate(referenced):
        for k in referenced[a:]:
            blocks[j, k] = (x.T * (wprob[j] * ((j == k) - prob[k]))) @ x
            blocks[k, j] = blocks[j, k].T
    info = blocks[entry_outcome[:, None], entry_outcome, entry_col[:, None], entry_col]
    pairs = (entry_slot[:, None] * n_params + entry_slot).ravel()
    hessian = np.bincount(pairs, weights=info.ravel(), minlength=n_params**2).reshape(n_params, -1)
    hessian = -0.5 * (hessian + hessian.T)
    return value, gradient, hessian, n_floored


def active_backend() -> str:
    """Name of the kernel backend; kept for the ``backend`` field of run records."""
    return "numpy"
