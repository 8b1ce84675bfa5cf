"""Kernel details not covered through the likelihood API, and the per-entry oracle.

The oracle works per design entry: (n, E) arrays of entry covariates and
probabilities, a dense entry-to-outcome one-hot table and an entry-to-slot
scatter table. It is slow and memory-hungry but reads straight off the MNL
derivatives, so the outcome-major kernel in ``sevlogit._kernels`` must
agree with it. It computes in ``np.longdouble``, so its own rounding error is
well below the float64 kernel's and the bounds measure the kernel alone.
"""

import numpy as np
import pytest

import sevlogit as sl
from conftest import allocated_peak
from sevlogit import _kernels
from sevlogit._kernels import _LOG_FLOOR
from sevlogit.modelspec import augmented_matrix, bind_design


def _entry_tables(entry_slot, entry_outcome, n_outcomes, n_params):
    n_entries = entry_slot.shape[0]
    onehot = np.zeros((n_entries, n_outcomes))
    onehot[np.arange(n_entries), entry_outcome] = 1.0
    scatter = np.zeros((n_params, n_entries))
    scatter[entry_slot, np.arange(n_entries)] = 1.0
    return onehot, scatter


def _oracle_utilities(x, entry_slot, entry_outcome, entry_col, theta, n_outcomes):
    xe = x[:, entry_col].astype(np.longdouble)
    onehot, _ = _entry_tables(entry_slot, entry_outcome, n_outcomes, theta.shape[0])
    return (xe * theta[entry_slot].astype(np.longdouble)) @ onehot, xe


def oracle_prob_matrix(x, entry_slot, entry_outcome, entry_col, theta, n_outcomes):
    util, _ = _oracle_utilities(x, entry_slot, entry_outcome, entry_col, theta, n_outcomes)
    util -= util.max(axis=1, keepdims=True)
    np.exp(util, out=util)
    util /= util.sum(axis=1, keepdims=True)
    return util


def oracle_loglik_grad_hess(x, y, w, entry_slot, entry_outcome, entry_col, theta, n_outcomes):
    n_params = theta.shape[0]
    w = w.astype(np.longdouble)
    util, xe = _oracle_utilities(x, entry_slot, entry_outcome, entry_col, theta, n_outcomes)
    top = util.max(axis=1)
    lse = top + np.log(np.exp(util - top[:, None]).sum(axis=1))
    logp = util[np.arange(util.shape[0]), y] - lse
    n_floored = int((logp < _LOG_FLOOR).sum())
    value = w @ np.maximum(logp, _LOG_FLOOR)

    prob = np.exp(util - lse[:, None])
    pe = prob[:, entry_outcome]  # per-entry outcome probability, (n, E)
    observed = (y[:, None] == entry_outcome[None, :]).astype(np.longdouble)
    g_entry = (w[:, None] * (observed - pe) * xe).sum(axis=0)
    _, scatter = _entry_tables(entry_slot, entry_outcome, n_outcomes, n_params)
    gradient = scatter @ g_entry  # a matrix product: np.bincount would round to float64

    wpx = w[:, None] * pe * xe
    same = (entry_outcome[:, None] == entry_outcome[None, :]).astype(np.longdouble)
    info_entry = same * (wpx.T @ xe) - wpx.T @ (pe * xe)
    hessian = -(scatter @ info_entry @ scatter.T)
    hessian = 0.5 * (hessian + hessian.T)
    return value, gradient, hessian, n_floored


FOUR = sl.OutcomeSet(("none", "minor", "serious", "fatal"))
SHARED_AND_SPECIFIC = (
    sl.TermSpec("constant", (1, 2)),
    sl.TermSpec("speed", (1, 2), shared=True),
    sl.TermSpec("curve", (1, 2)),
    sl.TermSpec("dark", (2,)),
)
# outcome 2 ("serious") is in the data but no term references it
UNREFERENCED = (
    sl.TermSpec("constant", (1, 3)),
    sl.TermSpec("speed", (1, 3), shared=True),
    sl.TermSpec("dark", (3,)),
)

CASES = {
    "shared-and-specific": (sl.OutcomeSet(), SHARED_AND_SPECIFIC, False, 1.0),
    "unreferenced-outcome": (FOUR, UNREFERENCED, False, 1.0),
    "non-unit-weights": (sl.OutcomeSet(), SHARED_AND_SPECIFIC, True, 1.0),
    "floored": (sl.OutcomeSet(), SHARED_AND_SPECIFIC, True, 400.0),
}


def _case(name, order, n=2000):
    outcome_set, terms, weighted, scale = CASES[name]
    rng = np.random.default_rng(sorted(CASES).index(name))
    names = ("curve", "dark", "speed")
    x = np.column_stack([
        rng.random(n) < 0.3, rng.random(n) < 0.25, rng.uniform(25, 70, n),
    ]).astype(np.float64)
    design = bind_design(sl.ModelSpec(outcome_set, terms), names)
    n_outcomes = outcome_set.n_outcomes
    y = rng.integers(0, n_outcomes, n)
    w = rng.uniform(0.2, 3.0, n) if weighted else np.ones(n)
    theta = scale * rng.normal(0.0, 0.05, design.n_params)
    xa = augmented_matrix(x)
    xa = np.asfortranarray(xa) if order == "F" else np.ascontiguousarray(xa)
    return (xa, y, w), design, theta


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_agrees_with_per_entry_oracle(name, order):
    (x, y, w), design, theta = _case(name, order)
    entries = (design.entry_slot, design.entry_outcome, design.entry_col)
    n_outcomes = design.n_outcomes
    ll, grad, hess, n_floored = _kernels.loglik_grad_hess(x, y, w, design, theta)
    ll_o, grad_o, hess_o, n_floored_o = oracle_loglik_grad_hess(
        x, y, w, *entries, theta, n_outcomes
    )
    assert abs(ll - ll_o) <= 1e-13 * abs(ll_o)
    assert np.abs(grad - grad_o).max() <= 1e-10 * np.abs(grad_o).max()
    assert np.abs(hess - hess_o).max() <= 1e-13 * np.abs(hess_o).max()
    assert np.array_equal(hess, hess.T)
    assert n_floored == n_floored_o
    assert (n_floored > 0) == (name == "floored")

    ll_only, n_floored_ll = _kernels.loglik(x, y, w, design, theta)
    assert ll_only == ll
    assert n_floored_ll == n_floored

    prob = _kernels.prob_matrix(x, design, theta)
    prob_o = oracle_prob_matrix(x, *entries, theta, n_outcomes)
    assert prob.shape == prob_o.shape
    assert np.abs(prob - prob_o).max() <= 1e-13


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_agrees_with_per_entry_oracle_across_blocks(name, order, monkeypatch):
    # n = 2000 runs as three blocks of 512 rows and a ragged fourth of 464
    monkeypatch.setattr(_kernels, "ROWS", 512)
    test_agrees_with_per_entry_oracle(name, order)


@pytest.mark.parametrize("rows", [400, 433, 466, 499])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_agrees_with_per_entry_oracle_in_five_blocks(name, order, rows, monkeypatch):
    # n = 2000 runs as five blocks, the last one ragged unless rows divides 2000, so a pass
    # carves the scratch's views for two block sizes; each scratch is made after the patch
    monkeypatch.setattr(_kernels, "ROWS", rows)
    test_agrees_with_per_entry_oracle(name, order)


def _bit_equal(a, b):
    return len(a) == len(b) and all(np.array_equal(p, q) for p, q in zip(a, b))


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("rows", [_kernels.ROWS, 512])
def test_a_fits_scratch_gives_on_every_pass_what_a_fresh_one_gives(rows, name, monkeypatch):
    # one scratch through the passes of one fit, at θ moving as Newton steps would and through
    # both kernels; n = 2000 is one block, or with 512-row blocks three and a ragged 464, so
    # the scratch carves views for two block sizes
    monkeypatch.setattr(_kernels, "ROWS", rows)
    (x, y, w), design, theta = _case(name, "F")
    scratch = _kernels.Scratch(design, x)
    steps = np.random.default_rng(rows).normal(0.0, 0.05, (6, theta.shape[0]))
    for step in steps:
        theta = theta + step
        for kernel in (_kernels.loglik_grad_hess, _kernels.loglik):
            args = (x, y, w, design, theta)
            assert _bit_equal(kernel(*args, scratch), kernel(*args, _kernels.Scratch(design, x)))
    assert sorted(scratch._views) == ([464, 512] if rows == 512 else [2000])


@pytest.mark.parametrize("name", ["shared-and-specific", "unreferenced-outcome"])
def test_the_slot_map_is_the_oracles_scatter_on_outcome_column_rows(name):
    (x, _, _), design, _ = _case(name, "F")
    cols, n_outcomes = x.shape[1], design.n_outcomes
    _, scatter = _entry_tables(design.entry_slot, design.entry_outcome, n_outcomes, design.n_params)
    expected = np.zeros((n_outcomes * cols, design.n_params))
    np.add.at(expected, design.entry_outcome * cols + design.entry_col, scatter.T)
    upper, slot_map, weights = _kernels._tables(design, cols)
    assert np.array_equal(slot_map, expected)
    referenced = sorted(set(design.entry_outcome.tolist()))
    assert upper == tuple((j, k) for j in referenced for k in referenced if j <= k)
    assert np.array_equal(weights[:, :, 0, 0], 1.0 - 0.5 * np.eye(n_outcomes))


def test_the_scratches_of_one_design_share_its_read_only_tables():
    (x, _, _), design, _ = _case("shared-and-specific", "F")
    tables = _kernels.Scratch(design, x).tables
    assert _kernels.Scratch(design, x[:100]).tables is tables
    upper, slot_map, weights = tables
    assert isinstance(upper, tuple)
    for array in (slot_map, weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize("n", [5000, 40001])
def test_a_warm_pass_allocates_less_than_one_block(n):
    (x, y, w), design, theta = _case("non-unit-weights", "F", n)
    block = design.n_outcomes * min(n, _kernels.ROWS) * 8  # bytes of one (J, rows) array
    scratch = _kernels.Scratch(design, x)
    _kernels.loglik_grad_hess(x, y, w, design, theta, scratch)
    assert allocated_peak(lambda: _kernels.loglik_grad_hess(x, y, w, design, theta, scratch)) < block
    assert allocated_peak(lambda: _kernels.loglik(x, y, w, design, theta, scratch)) < block


@pytest.mark.parametrize("n", [5000, 40001])
def test_prob_matrix_allocates_its_output_and_less_than_one_block(n):
    (x, _, _), design, theta = _case("shared-and-specific", "F", n)
    output = design.n_outcomes * n * 8
    block = design.n_outcomes * min(n, _kernels.ROWS) * 8
    assert allocated_peak(lambda: _kernels.prob_matrix(x, design, theta)) < output + block


@pytest.mark.parametrize("rows, half", [(512, 1024), (400, 1600)])
@pytest.mark.parametrize("seed", range(20))
def test_blocks_are_summed_pairwise(seed, rows, half, monkeypatch):
    # n = 2000 in blocks of 512: the LL is (b0 + b1) + (b2 + b3), the sum of the two halves'
    # passes bit for bit, which a sequential ((b0 + b1) + b2) + b3 misses on some seeds; in
    # blocks of 400 the lone fifth block joins ((b0 + b1) + (b2 + b3)) only at the top
    monkeypatch.setattr(_kernels, "ROWS", rows)
    (x, y, w), design, theta = _case("non-unit-weights", "F")
    rows_drawn = np.random.default_rng(seed).permutation(x.shape[0])
    x, y, w = np.asfortranarray(x[rows_drawn]), y[rows_drawn], w[rows_drawn]
    ll, n_floored = _kernels.loglik(x, y, w, design, theta)
    ll_a, n_a = _kernels.loglik(x[:half], y[:half], w[:half], design, theta)
    ll_b, n_b = _kernels.loglik(x[half:], y[half:], w[half:], design, theta)
    assert ll == ll_a + ll_b
    assert n_floored == n_a + n_b


def test_augmented_matrix_is_column_major():
    xa = augmented_matrix(np.arange(6.0).reshape(3, 2))
    assert xa.flags.f_contiguous
    assert np.array_equal(xa, [[0.0, 1.0, 1.0], [2.0, 3.0, 1.0], [4.0, 5.0, 1.0]])


def test_flooring_counts_agree():
    outs = sl.OutcomeSet(("a", "b"))
    model = sl.ModelSpec(outs, (sl.TermSpec("x", (1,)),))
    ds = sl.Dataset(
        outs,
        (sl.Observation({"x": 1.0}, 0), sl.Observation({"x": 1.0}, 1)),
        ("x",),
    )
    design = bind_design(model, ds.variable_names)
    args = (augmented_matrix(ds.covariate_matrix), ds.outcome_indices, ds.weights, design)
    theta = np.array([800.0])  # first row's observed-outcome probability underflows
    _, n_floored = _kernels.loglik(*args, theta)
    assert n_floored == 1
    *_, n_floored_full = _kernels.loglik_grad_hess(*args, theta)
    assert n_floored_full == 1


def test_active_backend_reports_selection():
    assert sl.active_backend() == "numpy"
