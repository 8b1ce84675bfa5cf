"""Hot numeric kernels: stabilized MNL probabilities, log-likelihood, score, information.

Each kernel takes the design matrix x first and the bound ``modelspec.Design``
whole. θ reaches the (J, cols) coefficient matrix C through one 0/1 slot map P of
(J·cols, K), P[j·cols + c, s] = 1 where slot s is outcome j's coefficient on column
c: C is P·θ, the gradient Pᵀ·s for the flattened (J, cols) score s, and the Hessian
−(M + Mᵀ) for M = Pᵀ·B·P, where B lays the information blocks out as one
(J·cols, J·cols) matrix with the diagonal blocks halved. Outcome-major numpy:
utilities are C @ xᵀ, (J, n), so outcome reductions run along contiguous length-n
rows, not along n rows only J wide, which numpy reduces slowly. The score is
(w·(Y − P)) @ x and each information block, one per referenced outcome pair j ≤ k,
is (xᵀ·w·p_j·(δ_jk − p_k)) @ x; block (k, j) is block (j, k) transposed, so only
the upper ones are formed. x ends in the constant-1 column and is column-major, so
xᵀ is contiguous. Over ROWS rows, a pass splits at the largest power-of-two
multiple of ROWS below n and adds the two sides' LL, score and information: blocks
of ROWS rows, whose (J, rows) arrays fit in cache, are summed pairwise before P
folds them into slots. Reductions run in a fixed order, so results are
bit-reproducible per machine.
A pass writes its blocks' arrays into a ``Scratch`` built for one fit (its design
and its x), which all of the fit's passes reuse, so a pass allocates nothing of a
block's size; the probability matrix is filled in ROWS-row blocks with no (J, n)
temporaries. The design's tables are built once per design and shared read-only
by every scratch, so a fit allocates only its buffers.
Probabilities are floored at the smallest positive normal before logs; the
floored count flags quasi-separation.
"""

from functools import lru_cache

import numpy as np

_LOG_FLOOR = float(np.log(np.finfo(np.float64).tiny))
ROWS = 16384  # rows per block of a likelihood pass: its (J, rows) arrays stay in cache


@lru_cache(maxsize=32)
def _tables(design, cols):
    """A design's read-only tables for x of cols columns: the referenced outcome pairs
    (j ≤ k), the (J·cols, K) slot map P and the (J, J, 1, 1) block weights, ½ on the
    diagonal, that fold the upper blocks into one symmetric matrix. Cached per design,
    which hashes by identity, so the fits of one binding build them once."""
    n_outcomes = design.n_outcomes
    slot_map = np.zeros((n_outcomes * cols, design.n_params))
    slot_map[design.entry_outcome * cols + design.entry_col, design.entry_slot] = 1.0
    referenced = np.flatnonzero(slot_map.reshape(n_outcomes, -1).any(axis=1)).tolist()
    weights = (1.0 - 0.5 * np.eye(n_outcomes))[:, :, None, None]
    for array in (slot_map, weights):
        array.flags.writeable = False
    return tuple((j, k) for i, j in enumerate(referenced) for k in referenced[i:]), slot_map, weights


class Scratch:
    """Work space of one fit, reused by each of its passes over x: a float and an int buffer
    for min(n, ROWS) rows, carved into views once per block size, and the design's shared
    tables (see ``_tables``)."""

    def __init__(self, design, x):
        n, cols = x.shape
        rows, n_outcomes = min(n, ROWS), design.n_outcomes
        self._floats = np.empty((2 * n_outcomes + cols + 2) * rows)
        self._ints = np.tile(np.arange(rows), (2, 1))
        self._outcomes, self._cols, self._views = n_outcomes, cols, {}
        self.tables = _tables(design, cols)

    def views(self, rows):
        """(util, prob, product, vec, total, observed, index) for a block of rows."""
        if rows not in self._views:
            j, height = self._outcomes, 2 * self._outcomes + self._cols + 2
            block = self._floats[: height * rows].reshape(height, rows)
            self._views[rows] = (block[:j], block[j : 2 * j], block[2 * j : -2], *block[-2:],
                                 *self._ints[:, :rows])
        return self._views[rows]


def _softmax(util, prob, top, total):
    """(J, n) probabilities into prob, which may be util; returns, in total, the log-sum-exp
    of each observation's utilities. top and total hold n values each."""
    util.max(axis=0, out=top)
    np.subtract(util, top, out=prob)
    np.exp(prob, out=prob)
    prob.sum(axis=0, out=total)
    prob /= total
    return np.add(top, np.log(total, out=total), out=total)


def _forward(coef, x, y, w, scratch):
    """A block's weighted floored LL, floored count, and its scratch views, which hold its
    (J, n) probabilities and observed flat indices."""
    views = scratch.views(x.shape[0])
    util, prob, _, vec, total, observed, index = views
    np.matmul(coef, x.T, out=util)
    lse = _softmax(util, prob, vec, total)
    np.multiply(y, util.shape[1], out=observed)
    observed += index
    logp = np.take(util, observed, out=vec)
    logp -= lse
    n_floored = int(np.count_nonzero(logp < _LOG_FLOOR))
    np.maximum(logp, _LOG_FLOOR, out=logp)
    logp *= w
    # numpy's pairwise sum, not a BLAS dot, whose order changes with the thread count
    return float(logp.sum()), n_floored, views


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
    n, cols = x.shape
    coef = (_tables(design, cols)[1] @ theta).reshape(design.n_outcomes, cols)
    prob = np.empty((design.n_outcomes, n))
    top, total = np.empty((2, min(n, ROWS)))
    for start in range(0, n, ROWS):
        block = prob[:, start : start + ROWS]
        np.matmul(coef, x[start : start + ROWS].T, out=block)
        _softmax(block, block, top[: block.shape[1]], total[: block.shape[1]])
    return prob.T


def loglik(x, y, w, design, theta, scratch=None):
    scratch = Scratch(design, x) if scratch is None else scratch
    coef = (scratch.tables[1] @ theta).reshape(design.n_outcomes, -1)
    return _pairwise(lambda xb, yb, wb: _forward(coef, xb, yb, wb, scratch)[:2], x, y, w)


def loglik_grad_hess(x, y, w, design, theta, scratch=None):
    scratch = Scratch(design, x) if scratch is None else scratch
    n_outcomes, cols = design.n_outcomes, x.shape[1]
    upper, slot_map, block_weights = scratch.tables
    coef = (slot_map @ theta).reshape(n_outcomes, cols)

    def block(xb, yb, wb):
        value, n_floored, views = _forward(coef, xb, yb, wb, scratch)
        wprob, prob, product, vec, _, observed, _ = views  # w·P in the utilities' dead buffer
        np.multiply(prob, wb, out=wprob)
        blocks = np.zeros((n_outcomes, n_outcomes, cols, cols))
        for j, k in upper:
            np.subtract(j == k, prob[k], out=vec)
            np.multiply(wprob[j], vec, out=vec)
            np.multiply(xb.T, vec, out=product)  # row-major for either order of x: same sums
            np.matmul(product, xb, out=blocks[j, k])
        resid = np.negative(wprob, out=wprob)  # w·(Y − P)
        resid.ravel()[observed] += wb
        return value, n_floored, resid @ xb, blocks

    value, n_floored, score, blocks = _pairwise(block, x, y, w)
    upper_layout = (blocks * block_weights).transpose(0, 2, 1, 3).reshape(n_outcomes * cols, -1)  # B
    half = slot_map.T @ upper_layout @ slot_map
    return value, slot_map.T @ score.ravel(), -(half + half.T), n_floored


def active_backend() -> str:
    """Name of the kernel backend; kept for the ``backend`` field of run records."""
    return "numpy"
