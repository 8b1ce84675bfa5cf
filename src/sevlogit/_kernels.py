"""Hot numeric kernels: stabilized MNL probabilities, log-likelihood, score, information.

Each kernel takes the design matrix x first and the bound ``modelspec.Design``
whole. Outcome-major numpy: the design's entries (slot, outcome, column) fill a
(J, cols) matrix C; utilities are C @ xᵀ, (J, n), so outcome reductions run along
contiguous length-n rows, not along n rows only J wide, which numpy reduces
slowly. The score is (w·(Y − P)) @ x and each information block, one per
referenced outcome pair, is (xᵀ·w·p_j·(δ_jk − p_k)) @ x; both are gathered to
entries and summed into slots. x ends in the constant-1 column and is
column-major, so xᵀ is contiguous. Over ROWS rows, a pass splits at the largest
power-of-two multiple of ROWS below n and adds the two sides' LL, score and
information: blocks of ROWS rows, whose (J, rows) temporaries fit in cache, are
summed pairwise before the gather. Reductions run in a fixed order, so results
are bit-reproducible per machine.
Probabilities are floored at the smallest positive normal before logs; the
floored count flags quasi-separation.
"""

import numpy as np

_LOG_FLOOR = float(np.log(np.finfo(np.float64).tiny))
ROWS = 16384  # rows per block of a likelihood pass: its (J, rows) temporaries stay in cache


def _coefficients(design, theta, cols):
    """(J, cols) coefficients; the base outcome's row, never referenced, stays 0."""
    coef = np.zeros((design.n_outcomes, cols))
    coef[design.entry_outcome, design.entry_col] = theta[design.entry_slot]
    return coef


def _softmax(util):
    """(J, n) probabilities and the log-sum-exp of each observation's utilities."""
    top = util.max(axis=0)
    prob = np.exp(util - top)
    total = prob.sum(axis=0)
    prob /= total
    return prob, top + np.log(total)


def _forward(coef, x, y, w):
    """A block's (J, n) probabilities, weighted floored LL, floored count, observed flat indices."""
    util = coef @ x.T
    prob, lse = _softmax(util)
    observed = y * util.shape[1] + np.arange(util.shape[1])
    logp = np.take(util, observed) - lse
    n_floored = int((logp < _LOG_FLOOR).sum())
    np.maximum(logp, _LOG_FLOOR, out=logp)
    logp *= w
    # numpy's pairwise sum, not a BLAS dot, whose order changes with the thread count
    return prob, float(logp.sum()), n_floored, observed


def _pairwise(block, x, y, w):
    """block(x, y, w) over ROWS-row blocks, summed pairwise: error grows with log(blocks)."""
    n = x.shape[0]
    if n <= ROWS:
        return block(x, y, w)
    half = ROWS << (((n - 1) // ROWS).bit_length() - 1)  # largest power-of-two multiple < n
    left = _pairwise(block, x[:half], y[:half], w[:half])
    return tuple(a + b for a, b in zip(left, _pairwise(block, x[half:], y[half:], w[half:])))


def prob_matrix(x, design, theta):
    """(n, J) outcome probabilities, a transposed view of the (J, n) result."""
    return _softmax(_coefficients(design, theta, x.shape[1]) @ x.T)[0].T


def loglik(x, y, w, design, theta):
    coef = _coefficients(design, theta, x.shape[1])
    return _pairwise(lambda xb, yb, wb: _forward(coef, xb, yb, wb)[1:3], x, y, w)


def loglik_grad_hess(x, y, w, design, theta):
    n_params, n_outcomes, cols = theta.shape[0], design.n_outcomes, x.shape[1]
    entry_slot, entry_outcome, entry_col = design.entry_slot, design.entry_outcome, design.entry_col
    coef = _coefficients(design, theta, cols)
    referenced = np.flatnonzero(np.bincount(entry_outcome, minlength=n_outcomes)).tolist()
    upper = [(j, k) for a, j in enumerate(referenced) for k in referenced[a:]]

    def block(xb, yb, wb):
        prob, value, n_floored, observed = _forward(coef, xb, yb, wb)
        wprob = prob * wb
        resid = -wprob  # w·(Y − P), C-ordered like prob
        resid.ravel()[observed] += wb
        blocks = np.zeros((n_outcomes, n_outcomes, cols, cols))
        for j, k in upper:
            blocks[j, k] = (xb.T * (wprob[j] * ((j == k) - prob[k]))) @ xb
        return value, n_floored, resid @ xb, blocks

    value, n_floored, score, blocks = _pairwise(block, x, y, w)
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
