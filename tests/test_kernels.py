"""Kernel details not covered through the likelihood API."""

import numpy as np

import sevlogit as sl
from sevlogit import _kernels
from sevlogit.modelspec import augmented_matrix, bind_design


def test_flooring_counts_agree():
    outs = sl.OutcomeSet(("a", "b"))
    model = sl.ModelSpec(outs, (sl.TermSpec("x", (1,)),))
    ds = sl.Dataset(
        outs,
        (sl.Observation({"x": 1.0}, 0), sl.Observation({"x": 1.0}, 1)),
        ("x",),
    )
    design = bind_design(model, ds.variable_names)
    args = (
        augmented_matrix(ds.covariate_matrix),
        ds.outcome_indices,
        ds.weights,
        design.entry_slot,
        design.entry_outcome,
        design.entry_col,
    )
    theta = np.array([800.0])  # first row's observed-outcome probability underflows
    _, n_floored = _kernels.loglik(*args, theta, 2)
    assert n_floored == 1
    *_, n_floored_full = _kernels.loglik_grad_hess(*args, theta, 2)
    assert n_floored_full == 1


def test_active_backend_reports_selection():
    assert sl.active_backend() == "numpy"
