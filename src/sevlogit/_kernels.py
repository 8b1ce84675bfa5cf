"""Hot numeric kernels: stabilized MNL probabilities, log-likelihood, score, information.

Outcome-major numpy: design entries (slot, outcome, column) fill a (J, cols)
matrix C; utilities are C @ xᵀ, (J, n), so outcome reductions run along
contiguous length-n rows, not along n rows only J wide, which numpy reduces
slowly. The score is (w·(Y − P)) @ x and each information block, one per
referenced outcome pair, is (xᵀ·w·p_j·(δ_jk − p_k)) @ x; both are gathered to
entries and summed into slots. x ends in the constant-1 column and is
column-major, so xᵀ is contiguous. A pass runs over blocks of ROWS rows, whose
(J, rows) temporaries fit in cache, and sums the blocks' LL, score and
information pairwise before the gather; up to ROWS rows it is one block.
Reductions run in a fixed order, so results are bit-reproducible per machine.
Probabilities are floored at the smallest positive normal before logs; the
floored count flags quasi-separation.
"""

from itertools import zip_longest

import numpy as np

_LOG_FLOOR = float(np.log(np.finfo(np.float64).tiny))
ROWS = 16384  # rows per block of a likelihood pass: its (J, rows) temporaries stay in cache


def _coefficients(entry_slot, entry_outcome, entry_col, theta, n_outcomes, cols):
    """(J, cols) coefficients; the base outcome's row, never referenced, stays 0."""
    coef = np.zeros((n_outcomes, cols))
    coef[entry_outcome, entry_col] = theta[entry_slot]
    return coef


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
    np.maximum(logp, _LOG_FLOOR, out=logp)
    logp *= w
    # numpy's pairwise sum, not a BLAS dot, whose order changes with the thread count
    return float(logp.sum()), n_floored, observed


def _row_blocks(x, y, w):
    """(x, y, w) over consecutive blocks of ROWS rows: views, or the arrays if one block."""
    if x.shape[0] <= ROWS:
        return [(x, y, w)]
    return [(x[i : i + ROWS], y[i : i + ROWS], w[i : i + ROWS]) for i in range(0, x.shape[0], ROWS)]


def _total(parts):
    """Sum of block partials, pairwise: rounding error grows with log(blocks), not blocks."""
    while len(parts) > 1:
        parts = [a + b for a, b in zip_longest(parts[::2], parts[1::2], fillvalue=0)]
    return parts[0]


def prob_matrix(x, entry_slot, entry_outcome, entry_col, theta, n_outcomes):
    """(n, J) outcome probabilities, a transposed view of the (J, n) result."""
    coef = _coefficients(entry_slot, entry_outcome, entry_col, theta, n_outcomes, x.shape[1])
    return _softmax(coef @ x.T)[0].T


def loglik(x, y, w, entry_slot, entry_outcome, entry_col, theta, n_outcomes):
    coef = _coefficients(entry_slot, entry_outcome, entry_col, theta, n_outcomes, x.shape[1])
    parts = []
    for xb, yb, wb in _row_blocks(x, y, w):
        util = coef @ xb.T
        parts.append(_floored_loglik(util, _softmax(util)[1], yb, wb)[:2])
    return tuple(map(_total, zip(*parts)))


def loglik_grad_hess(x, y, w, entry_slot, entry_outcome, entry_col, theta, n_outcomes):
    n_params, cols = theta.shape[0], x.shape[1]
    coef = _coefficients(entry_slot, entry_outcome, entry_col, theta, n_outcomes, cols)
    referenced = np.flatnonzero(np.bincount(entry_outcome, minlength=n_outcomes)).tolist()
    upper = [(j, k) for a, j in enumerate(referenced) for k in referenced[a:]]
    parts = []
    for xb, yb, wb in _row_blocks(x, y, w):
        util = coef @ xb.T
        prob, lse = _softmax(util)
        value, n_floored, observed = _floored_loglik(util, lse, yb, wb)
        wprob = prob * wb
        resid = -wprob  # w·(Y − P), C-ordered like prob
        resid.ravel()[observed] += wb
        blocks = np.zeros((n_outcomes, n_outcomes, cols, cols))
        for j, k in upper:
            blocks[j, k] = (xb.T * (wprob[j] * ((j == k) - prob[k]))) @ xb
        parts.append((value, n_floored, resid @ xb, blocks))
    value, n_floored, score, blocks = map(_total, zip(*parts))

    gradient = np.bincount(entry_slot, weights=score[entry_outcome, entry_col], minlength=n_params)
    for j, k in upper:
        blocks[k, j] = blocks[j, k].T
    info = blocks[entry_outcome[:, None], entry_outcome, entry_col[:, None], entry_col]
    pairs = (entry_slot[:, None] * n_params + entry_slot).ravel()
    hessian = np.bincount(pairs, weights=info.ravel(), minlength=n_params**2).reshape(n_params, -1)
    hessian = -0.5 * (hessian + hessian.T)
    return value, gradient, hessian, n_floored


def active_backend() -> str:
    """Name of the kernel backend; kept for the ``backend`` field of run records."""
    return "numpy"
