"""Maximum-likelihood estimation: identities, equivariance, error paths."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

import sevlogit as sl
from sevlogit import _kernels
from sevlogit.estimate import EstimateOptions, null_log_likelihood
from sevlogit.likelihood import _data_inputs, gradient_hessian
from sevlogit.modelspec import bind_design

from conftest import dataset_from_outcomes

TIGHT = EstimateOptions(gradient_tol=1e-10)


class TestSaturatedConstants:
    def test_fitted_probabilities_equal_shares(self, constants_model, share_dataset):
        result = sl.estimate(constants_model, share_dataset, TIGHT)
        probs = sl.probabilities(constants_model, result.theta_hat, sl.Observation({}, 0))
        assert np.allclose(probs, [0.7903, 0.2056, 0.0041], atol=1e-6)

    def test_constants_hit_log_odds(self, constants_model, share_dataset):
        result = sl.estimate(constants_model, share_dataset, TIGHT)
        expected = [math.log(0.2056 / 0.7903), math.log(0.0041 / 0.7903)]
        assert np.allclose(result.theta_hat.values, expected, atol=1e-6)

    def test_matches_closed_form_null(self, constants_model, share_dataset):
        result = sl.estimate(constants_model, share_dataset, TIGHT)
        assert result.ll_converged == pytest.approx(
            null_log_likelihood(share_dataset), abs=1e-8
        )


class TestEstimate:
    def test_recovers_generating_parameters(self, speed_model, speed_theta):
        config = sl.GeneratorConfig(
            model=speed_model,
            true_theta=speed_theta,
            n_obs=20_000,
            covariates={
                "speed_limit": sl.UniformDist(25, 70),
                "curve": sl.IndicatorDist(0.3),
            },
            seed=31,
        )
        result = sl.estimate(speed_model, sl.simulate(config))
        z = np.abs(result.theta_hat.values - speed_theta.values) / result.std_errors
        assert (z < 4.0).all()

    def test_gradient_below_tolerance_at_optimum(self, speed_model, speed_dataset):
        result = sl.estimate(speed_model, speed_dataset)
        assert result.gradient_max < result.options.gradient_tol
        ev = gradient_hessian(speed_model, result.theta_hat, speed_dataset)
        assert np.abs(ev.gradient).max() < result.options.gradient_tol

    def test_deterministic_bit_identical(self, speed_model, speed_dataset):
        a = sl.estimate(speed_model, speed_dataset)
        b = sl.estimate(speed_model, speed_dataset)
        assert np.array_equal(a.theta_hat.values, b.theta_hat.values)
        assert np.array_equal(a.covariance, b.covariance)
        assert a.ll_converged == b.ll_converged
        assert a.iterations == b.iterations

    def test_likelihood_nesting(self, speed_model, speed_dataset):
        result = sl.estimate(speed_model, speed_dataset)
        assert result.ll_converged >= result.ll_null >= result.ll_zero - 1e-8

    def test_nested_specs_monotone(self, three_outcomes, speed_model, speed_dataset):
        small = sl.ModelSpec(three_outcomes, (sl.TermSpec("constant", (1, 2)),))
        bigger = sl.estimate(speed_model, speed_dataset)
        smaller = sl.estimate(small, speed_dataset)
        assert bigger.ll_converged >= smaller.ll_converged - 1e-8

    def test_scale_equivariance(self, speed_model, speed_dataset):
        result = sl.estimate(speed_model, speed_dataset)
        scaled_obs = tuple(
            sl.Observation(
                {**o.covariates, "speed_limit": o.covariates["speed_limit"] * 10.0},
                o.outcome,
                o.segment,
            )
            for o in speed_dataset.observations
        )
        scaled = sl.Dataset(speed_dataset.outcome_set, scaled_obs, speed_dataset.variable_names)
        result10 = sl.estimate(speed_model, scaled)
        layout = sl.build_layout(speed_model)
        k = layout.slot_names().index("speed_limit:injury+fatality")
        assert result10.theta_hat.values[k] == pytest.approx(
            result.theta_hat.values[k] / 10.0, rel=1e-6
        )
        assert result10.ll_converged == pytest.approx(result.ll_converged, abs=1e-6)
        assert np.allclose(result10.t_ratios, result.t_ratios, rtol=1e-6, atol=1e-6)

    def test_weights_are_frequency_weights(self, speed_model, speed_dataset):
        # a weight of k acts as k identical rows: the weighted log-likelihood and its
        # information are those of the duplicated rows, so every reported number agrees
        columns = dict(speed_dataset.columns, w=np.full(speed_dataset.n_obs, 2.0))
        doubled = sl.Dataset.from_columns(
            speed_dataset.outcome_set, speed_dataset.variable_names, columns
        )
        fits = [
            sl.estimate(speed_model, data, TIGHT)
            for data in (doubled, sl.concatenate([speed_dataset, speed_dataset]))
        ]
        for get in (
            lambda fit: fit.theta_hat.values,
            lambda fit: fit.std_errors,
            lambda fit: fit.ll_converged,
            lambda fit: fit.ll_null,
        ):
            np.testing.assert_allclose(get(fits[0]), get(fits[1]), rtol=1e-9, atol=0)

    def test_covariance_properties(self, speed_model, speed_dataset):
        result = sl.estimate(speed_model, speed_dataset)
        assert np.array_equal(result.covariance, result.covariance.T)
        assert (np.linalg.eigvalsh(result.covariance) > 0).all()
        expected_t = result.theta_hat.values / np.sqrt(np.diag(result.covariance))
        assert np.allclose(result.t_ratios, expected_t, atol=0)

    @pytest.mark.parametrize("fit", ["speed", "near-collinear"])
    def test_covariance_is_within_condition_times_epsilon_of_the_exact_inverse(
        self, speed_model, speed_dataset, fit
    ):
        # the oracle is -H at theta-hat inverted in rational arithmetic; an inverse computed
        # in floating point errs by up to about condition x epsilon, relative to the scale
        # sqrt(var_i var_j). The fits' conditions are about 9e4 and 1.4e9.
        model, ds = (speed_model, speed_dataset) if fit == "speed" else near_collinear_dataset()
        result = sl.estimate(model, ds)
        neg_hess = -gradient_hessian(model, result.theta_hat, ds).hessian
        exact = _exact_inverse(neg_hess)
        errors = np.vectorize(lambda c, e: float(Fraction(c) - e))(result.covariance, exact)
        variances = np.diag(exact).astype(float)
        relative = np.abs(errors) / np.sqrt(np.outer(variances, variances))
        eigvals = np.linalg.eigvalsh(neg_hess)
        assert relative.max() <= eigvals.max() / eigvals.min() * np.finfo(float).eps

    def test_missing_outcome_warns(self, three_outcomes, monkeypatch):
        ds = dataset_from_outcomes([0, 1, 0, 1, 0, 1] * 20)  # fatality never occurs
        model = sl.ModelSpec(three_outcomes, (sl.TermSpec("constant", (1, 2)),))
        thetas = _record_thetas(monkeypatch)
        result = sl.estimate(model, ds)
        assert any("never in the data" in d for d in result.diagnostics)
        assert any("'fatality'" in d for d in result.diagnostics)
        assert np.array_equal(thetas[0], np.zeros(2))  # a group of no weight: no closed form

    def test_empty_dataset_rejected(self, constants_model):
        ds = sl.Dataset(sl.OutcomeSet(), (), ())
        with pytest.raises(ValueError, match="empty"):
            sl.estimate(constants_model, ds)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("gradient_tol", 0.0),
            ("gradient_tol", -1.0),
            ("gradient_tol", math.nan),
            ("max_iterations", 0),
        ],
    )
    def test_invalid_options_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            EstimateOptions(**{field: value})
        EstimateOptions(max_iterations=1)  # the edge is valid

    def test_iteration_cap_raises_with_last_iterate(self, speed_model, speed_dataset):
        # a constants-only model starts at its optimum, so the cap needs slopes to fit
        with pytest.raises(sl.NonConvergenceError) as err:
            sl.estimate(speed_model, speed_dataset, EstimateOptions(max_iterations=1))
        partial = err.value.last_result
        assert partial is not None
        assert not partial.converged
        assert partial.iterations == 1
        assert np.isnan(partial.covariance).all()
        assert np.isnan(partial.t_ratios).all()


def _count_full_passes(monkeypatch):
    """Count calls of the full kernel; the returned one-item list is updated in place."""
    calls = [0]
    real = _kernels.loglik_grad_hess

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(_kernels, "loglik_grad_hess", counted)
    return calls


def _record_thetas(monkeypatch):
    """Record a copy of the theta of each full kernel pass, in order."""
    thetas = []
    real = _kernels.loglik_grad_hess

    def recorded(*args):
        thetas.append(args[4].copy())
        return real(*args)

    monkeypatch.setattr(_kernels, "loglik_grad_hess", recorded)
    return thetas


def _count_linalg(monkeypatch):
    """Count calls of the numpy.linalg factorisations a fit may make, by name."""
    calls = dict.fromkeys(("eigh", "solve", "inv"), 0)
    for name in calls:
        def counted(*args, _name=name, _real=getattr(np.linalg, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _exact_inverse(matrix):
    """The inverse of a float matrix in rational arithmetic, by Gauss-Jordan elimination."""
    n = matrix.shape[0]
    rows = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(matrix.tolist())]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return np.array([row[n:] for row in rows], dtype=object)


class TestNewtonLoop:
    def test_one_full_pass_per_iterate_and_no_ll_only_pass(
        self, speed_model, speed_dataset, monkeypatch
    ):
        def ll_only(*args):
            raise AssertionError("estimate called the LL-only kernel")

        monkeypatch.setattr(_kernels, "loglik", ll_only)
        full_passes = _count_full_passes(monkeypatch)
        result = sl.estimate(speed_model, speed_dataset)
        assert result.iterations >= 3
        assert full_passes == [result.iterations + 1]

    def test_one_scratch_per_fit(self, speed_model, speed_dataset, monkeypatch):
        real = _kernels.loglik_grad_hess
        scratches = []

        def recorded(*args):
            scratches.append(args[-1])
            return real(*args)

        monkeypatch.setattr(_kernels, "loglik_grad_hess", recorded)
        sl.estimate(speed_model, speed_dataset)
        passes = len(scratches)
        sl.estimate(speed_model, speed_dataset)
        assert len(scratches) == 2 * passes
        assert isinstance(scratches[0], _kernels.Scratch)
        assert all(s is scratches[0] for s in scratches[:passes])
        assert all(s is scratches[passes] for s in scratches[passes:])
        assert scratches[passes] is not scratches[0]
        assert scratches[passes].tables is scratches[0].tables  # built once per design

    def test_nonfinite_trial_is_halved_not_raised(self, speed_model, speed_dataset, monkeypatch):
        expected = sl.estimate(speed_model, speed_dataset, TIGHT).theta_hat.values
        real = _kernels.loglik_grad_hess
        calls = [0]

        def first_trial_nan(*args):
            calls[0] += 1
            ll, grad, hess, n_floored = real(*args)
            if calls[0] == 2:  # pass 1 is the start, pass 2 the first full Newton step
                ll = math.nan
            return ll, grad, hess, n_floored

        monkeypatch.setattr(_kernels, "loglik_grad_hess", first_trial_nan)
        result = sl.estimate(speed_model, speed_dataset, TIGHT)
        assert result.converged
        assert calls[0] >= result.iterations + 2  # at least one halving
        assert np.abs(result.theta_hat.values - expected).max() < 1e-8

    def test_ll_stall_converges_with_note(self, speed_model, speed_dataset):
        # no iterate can meet this gradient tolerance, so only the LL stall ends the loop
        result = sl.estimate(speed_model, speed_dataset, EstimateOptions(gradient_tol=1e-300))
        assert result.converged
        assert result.iterations >= 3  # three consecutive stalls are required
        notes = [d for d in result.diagnostics if d.startswith("converged on log-likelihood stall")]
        assert notes == [
            f"converged on log-likelihood stall with gradient max-norm "
            f"{result.gradient_max:.3e} above 1e-300"
        ]
        assert np.isfinite(result.covariance).all()

    def test_line_search_stall_raises_with_start(self, speed_model, speed_dataset, monkeypatch):
        real = _kernels.loglik_grad_hess
        calls = [0]

        def nan_after_start(*args):
            calls[0] += 1
            ll, grad, hess, n_floored = real(*args)
            return (ll if calls[0] == 1 else math.nan), grad, hess, n_floored

        monkeypatch.setattr(_kernels, "loglik_grad_hess", nan_after_start)
        with pytest.raises(sl.NonConvergenceError) as err:
            sl.estimate(speed_model, speed_dataset)
        assert str(err.value).startswith("line search stalled after 30 halvings (gradient max-norm")
        assert calls[0] == 1 + 1 + 30  # the start, the full step, then every halving
        partial = err.value.last_result
        assert not partial.converged
        assert partial.iterations == 1
        # the last iterate is the start: each constant at its outcome's log-odds on the base
        counts = speed_dataset.outcome_counts()
        start = np.zeros(partial.n_params)
        for outcome in (1, 2):
            start[partial.theta_hat.layout.slot_index("constant", outcome)] = math.log(
                counts[outcome] / counts[0]
            )
        assert np.array_equal(partial.theta_hat.values, start)
        assert np.isnan(partial.covariance).all()
        assert np.isnan(partial.t_ratios).all()

    def test_nonfinite_ll_at_zero_raises(self, speed_model, speed_dataset, monkeypatch):
        real = _kernels.loglik_grad_hess

        def nan_ll(*args):
            _, grad, hess, n_floored = real(*args)
            return math.nan, grad, hess, n_floored

        monkeypatch.setattr(_kernels, "loglik_grad_hess", nan_ll)
        with pytest.raises(sl.NumericError):
            sl.estimate(speed_model, speed_dataset)

    def test_an_information_matrix_that_overflows_raises_numeric_error(
        self, speed_model, speed_dataset
    ):
        # speed limits near 1e162 square past the largest double: the information matrix
        # holds inf at the start. No overflow warning escapes (warnings fail tests here).
        x = speed_dataset.columns["X"].copy()
        x[:, speed_dataset.variable_names.index("speed_limit")] *= 1e160
        huge = sl.Dataset.from_columns(
            speed_dataset.outcome_set, speed_dataset.variable_names,
            dict(speed_dataset.columns, X=x),
        )
        with pytest.raises(
            sl.NumericError, match="^score or information matrix is not finite at iteration 0$"
        ):
            sl.estimate(speed_model, huge)

    @pytest.mark.parametrize("which", [1, 2], ids=["score", "information"])
    def test_a_nonfinite_score_or_information_raises_at_its_iterate(
        self, speed_model, speed_dataset, monkeypatch, which
    ):
        real = _kernels.loglik_grad_hess
        calls = [0]

        def nan_at_first_step(*args):
            calls[0] += 1
            out = list(real(*args))
            if calls[0] == 2:  # pass 1 is the start, pass 2 the first full Newton step
                out[which] = np.full_like(out[which], math.nan)
            return tuple(out)

        monkeypatch.setattr(_kernels, "loglik_grad_hess", nan_at_first_step)
        with pytest.raises(
            sl.NumericError, match="^score or information matrix is not finite at iteration 1$"
        ):
            sl.estimate(speed_model, speed_dataset)

    def test_one_eigendecomposition_per_iterate_and_one_inverse_per_converged_fit(
        self, speed_model, speed_dataset, monkeypatch
    ):
        calls = _count_linalg(monkeypatch)
        result = sl.estimate(speed_model, speed_dataset)
        assert result.iterations >= 3
        assert calls == {"eigh": result.iterations + 1, "solve": 0, "inv": 1}
        calls.update(dict.fromkeys(calls, 0))
        with pytest.raises(sl.NonConvergenceError) as err:
            sl.estimate(speed_model, speed_dataset, EstimateOptions(max_iterations=2))
        assert calls == {"eigh": err.value.last_result.iterations + 1, "solve": 0, "inv": 0}


def _weighted(outcome_set, weights_by_outcome):
    """A dataset of no covariates: one row per weight, listed by outcome."""
    obs = tuple(
        sl.Observation({}, out, weight=w)
        for out, weights in enumerate(weights_by_outcome)
        for w in weights
    )
    return sl.Dataset(outcome_set, obs, ())


def _calib_model():
    """Criterion 06's six-slot model, its generating theta and its covariates."""
    model = sl.ModelSpec(
        sl.OutcomeSet(),
        (
            sl.TermSpec("constant", (1, 2)),
            sl.TermSpec("speed_limit", (1, 2), shared=True),
            sl.TermSpec("curve", (1, 2)),
            sl.TermSpec("dark", (2,)),
        ),
    )
    theta = sl.ParameterVector.from_dict(
        sl.build_layout(model),
        {
            "constant:injury": -2.0,
            "constant:fatality": -4.5,
            "speed_limit:injury+fatality": 0.025,
            "curve:injury": 0.35,
            "curve:fatality": 0.6,
            "dark:fatality": 0.8,
        },
    )
    covariates = {
        "speed_limit": sl.UniformDist(25, 70),
        "curve": sl.IndicatorDist(0.3),
        "dark": sl.IndicatorDist(0.25),
    }
    return model, theta, covariates


class TestStart:
    def test_constants_only_converges_at_the_start(self, constants_model, monkeypatch):
        ds = _weighted(constants_model.outcome_set, [[2.5, 1.0] * 300, [0.5, 3.0] * 40, [1.75] * 9])
        thetas = _record_thetas(monkeypatch)
        result = sl.estimate(constants_model, ds, TIGHT)
        assert result.converged
        assert result.iterations == 0
        assert len(thetas) == 1  # one full pass: the start is the optimum
        by_outcome = np.bincount(ds.outcome_indices, weights=ds.weights)
        assert np.allclose(
            result.theta_hat.values, np.log(by_outcome[1:] / by_outcome[0]), rtol=1e-15, atol=0
        )
        assert result.ll_converged == pytest.approx(null_log_likelihood(ds), rel=1e-12)

    def test_a_shared_constant_starts_at_the_grouped_closed_form(self, monkeypatch):
        # outcomes 1 and 2 share a constant, 3 has its own, 0 and 4 have none: the reference
        outs = sl.OutcomeSet(("none", "minor", "moderate", "serious", "other"))
        ds = _weighted(outs, [[1.0] * 50, [2.0] * 10, [0.5] * 30, [1.5] * 7, [1.0] * 20])
        model = sl.ModelSpec(
            outs, (sl.TermSpec("constant", (1, 2), shared=True), sl.TermSpec("constant", (3,)))
        )
        layout = sl.build_layout(model)
        mean_ref = (50.0 + 20.0) / 2
        expected = np.zeros(layout.n_params)
        expected[layout.slot_index("constant", 1)] = math.log((20.0 + 15.0) / 2 / mean_ref)
        expected[layout.slot_index("constant", 3)] = math.log(10.5 / mean_ref)
        thetas = _record_thetas(monkeypatch)
        result = sl.estimate(model, ds, TIGHT)
        assert np.allclose(thetas[0], expected, rtol=1e-15, atol=0)
        assert result.iterations == 0  # the grouped closed form is this model's optimum

    @pytest.mark.parametrize("weighted", [False, True])
    def test_ll_zero_is_the_likelihood_at_zero(self, speed_model, speed_dataset, weighted):
        ds = speed_dataset
        if weighted:
            rows = [sl.Observation(o.covariates, o.outcome, weight=1.0 + (i % 7) / 3)
                    for i, o in enumerate(ds.observations)]
            ds = sl.Dataset(ds.outcome_set, tuple(rows), ds.variable_names)
        design = bind_design(speed_model, ds.variable_names)
        at_zero, _ = _kernels.loglik(*_data_inputs(ds), design, np.zeros(design.n_params))
        result = sl.estimate(speed_model, ds)
        assert result.ll_zero == pytest.approx(at_zero, rel=1e-12)


def _fit_a_criterion_06_seed_block():
    """Draw and fit 16 seeds of 2,500 rows each."""
    model, theta, covariates = _calib_model()
    for seed in range(1000, 1016):
        data = sl.simulate(sl.GeneratorConfig(model, theta, 2500, covariates, seed=seed))
        assert sl.estimate(model, data).converged


def test_full_passes_over_a_criterion_06_seed_block(monkeypatch):
    # 16 fits of 2,500 rows took 116 full passes from theta = 0 and take 89 from the
    # constants-only start; the bound between the two catches a return to the old start
    full_passes = _count_full_passes(monkeypatch)
    _fit_a_criterion_06_seed_block()
    assert full_passes[0] <= 102


def test_a_criterion_06_seed_block_binds_once_and_builds_its_tables_once():
    # 16 draws and 16 fits of one model on one variable list: one binding, one set of tables
    bind_design.cache_clear()
    _kernels._tables.cache_clear()
    _fit_a_criterion_06_seed_block()
    assert bind_design.cache_info().misses == 1
    assert _kernels._tables.cache_info().misses == 1


def test_fits_after_a_cleared_cache_are_bit_identical_to_warm_ones():
    model, theta, covariates = _calib_model()
    config = sl.GeneratorConfig(model, theta, 2500, covariates, seed=1003)
    data = sl.simulate(config)
    warm = sl.estimate(model, data)
    design = bind_design(model, data.variable_names)
    bind_design.cache_clear()
    _kernels._tables.cache_clear()
    cold_data = sl.simulate(config)
    cold = sl.estimate(model, cold_data)
    assert bind_design(model, data.variable_names) is not design  # bound anew
    assert cold_data == data
    assert cold.theta_hat.values.tobytes() == warm.theta_hat.values.tobytes()
    for field in ("covariance", "t_ratios"):
        assert getattr(cold, field).tobytes() == getattr(warm, field).tobytes()
    assert (cold.ll_converged, cold.iterations, cold.gradient_max) == (
        warm.ll_converged, warm.iterations, warm.gradient_max)


@functools.cache
def separable_dataset(n):
    """Fatality occurs exactly when the indicator is on: a perfectly separated pattern."""
    outs = sl.OutcomeSet()
    obs = []
    for i in range(n):
        z = 1.0 if i % 10 == 0 else 0.0
        outcome = 2 if z == 1.0 else (1 if i % 3 == 0 else 0)
        obs.append(sl.Observation({"z": z}, outcome))
    model = sl.ModelSpec(outs, (sl.TermSpec("constant", (1, 2)), sl.TermSpec("z", (2,))))
    return model, sl.Dataset(outs, tuple(obs), ("z",))


@functools.cache
def near_collinear_dataset():
    """x2 is x1 plus noise of scale 1e-4: identified, with an ill-conditioned information."""
    outs = sl.OutcomeSet()
    model = sl.ModelSpec(
        outs, (sl.TermSpec("constant", (1, 2)), sl.TermSpec("x1", (1,)), sl.TermSpec("x2", (1,)))
    )
    rng = np.random.default_rng(0)
    obs = []
    for _ in range(500):
        v = float(rng.uniform(0, 3))
        p_injury = 0.9 / (1.0 + math.exp(1.0 - 0.5 * v))
        outcome = int(rng.choice(3, p=[0.9 - p_injury, p_injury, 0.1]))
        obs.append(sl.Observation({"x1": v, "x2": v + 1e-4 * rng.standard_normal()}, outcome))
    return model, sl.Dataset(outs, tuple(obs), ("x1", "x2"))


class TestNonIdentification:
    def test_collinear_covariates_raise_with_both_slots(self, three_outcomes, monkeypatch):
        # identical columns make the information matrix singular at every theta,
        # so non-identification is declared at the start, before any step
        model = sl.ModelSpec(
            three_outcomes,
            (sl.TermSpec("constant", (1, 2)), sl.TermSpec("x1", (1,)), sl.TermSpec("x2", (1,))),
        )
        rng = np.random.default_rng(0)
        obs = []
        for _ in range(500):
            v = float(rng.uniform(0, 3))
            outcome = int(rng.choice(3, p=[0.5, 0.4, 0.1]))
            obs.append(sl.Observation({"x1": v, "x2": v}, outcome))
        ds = sl.Dataset(three_outcomes, tuple(obs), ("x1", "x2"))
        full_passes = _count_full_passes(monkeypatch)
        with pytest.raises(sl.NonIdentificationError) as err:
            sl.estimate(model, ds)
        assert full_passes == [1]  # the start only
        layout = sl.build_layout(model)
        flagged = {layout.slot_names()[i] for i in err.value.slots}
        assert {"x1:injury", "x2:injury"} <= flagged

    def test_perfect_separation_raises(self):
        model, ds = separable_dataset(2000)
        with pytest.raises(sl.NonIdentificationError) as err:
            sl.estimate(model, ds, EstimateOptions(gradient_tol=1e-9))
        layout = sl.build_layout(model)
        flagged = {layout.slot_names()[i] for i in err.value.slots}
        assert "z:fatality" in flagged

    def test_separation_at_desk_scale_with_defaults(self):
        model, ds = separable_dataset(20_000)
        with pytest.raises(sl.NonIdentificationError):
            sl.estimate(model, ds)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    @pytest.mark.parametrize("n", [500, 2000, 5000, 20_000, 100_000])
    def test_separation_raises_at_every_size_and_tolerance(self, n, tol):
        # from the constants-only start the Newton path reaches the condition limit at
        # the same iterate whatever the size or tolerance, so no separated fit is kept
        model, ds = separable_dataset(n)
        with pytest.raises(sl.NonIdentificationError, match="at iteration 16 ") as err:
            sl.estimate(model, ds, EstimateOptions(gradient_tol=tol))
        layout = sl.build_layout(model)
        assert "z:fatality" in {layout.slot_names()[i] for i in err.value.slots}

    def test_near_collinearity_flagged_not_silent(self):
        # identified but ill-conditioned: below the condition limit the fit is kept,
        # with a conditioning note
        result = sl.estimate(*near_collinear_dataset())
        eigvals = np.linalg.eigvalsh(np.linalg.inv(result.covariance))
        assert 1e8 < eigvals.max() / eigvals.min() <= 1e10
        assert result.converged
        assert np.isfinite(result.std_errors).all()
        notes = [d for d in result.diagnostics if "ill-conditioned" in d]
        assert len(notes) == 1


class TestFitStatistics:
    def _result_with(self, ll, ll_zero, n_params=3):
        outs = sl.OutcomeSet()
        model = sl.ModelSpec(outs, (sl.TermSpec("constant", (1, 2)),))
        layout = sl.build_layout(model)
        return sl.EstimationResult(
            theta_hat=sl.ParameterVector(np.zeros(layout.n_params), layout),
            covariance=np.eye(layout.n_params),
            t_ratios=np.zeros(layout.n_params),
            ll_converged=ll,
            ll_null=ll,
            ll_zero=ll_zero,
            iterations=1,
            converged=True,
            gradient_max=0.0,
            n_obs=10,
        )

    def test_no_improvement_is_zero(self):
        stats = sl.fit_statistics(self._result_with(-100.0, -100.0))
        assert stats.rho_squared == 0.0

    def test_half_improvement(self):
        stats = sl.fit_statistics(self._result_with(-50.0, -100.0))
        assert stats.rho_squared == pytest.approx(0.5)

    def test_adjusted_subtracts_params(self):
        result = self._result_with(-50.0, -100.0)
        stats = sl.fit_statistics(result)
        assert stats.rho_squared_adj == pytest.approx(
            1.0 - (-50.0 - result.n_params) / -100.0
        )

    def test_zero_baseline_undefined(self):
        with pytest.raises(sl.UndefinedStatisticError):
            sl.fit_statistics(self._result_with(0.0, 0.0))

    def test_strong_signal_beats_weak(self, three_outcomes):
        model = sl.ModelSpec(
            three_outcomes,
            (sl.TermSpec("constant", (1, 2)), sl.TermSpec("x", (1, 2), shared=True)),
        )
        layout = sl.build_layout(model)

        def rho_for(slope):
            theta = sl.ParameterVector.from_dict(
                layout, {"constant:injury": -0.5, "constant:fatality": -1.5,
                         "x:injury+fatality": slope}
            )
            config = sl.GeneratorConfig(
                model, theta, 4000, {"x": sl.UniformDist(-2, 2)}, seed=77
            )
            result = sl.estimate(model, sl.simulate(config))
            return sl.fit_statistics(result).rho_squared

        assert rho_for(2.0) > rho_for(0.1)

    def test_requires_convergence(self):
        result = self._result_with(-50.0, -100.0)
        object.__setattr__(result, "converged", False)
        with pytest.raises(ValueError):
            sl.fit_statistics(result)


class TestNullLogLikelihood:
    def test_closed_form(self):
        ds = dataset_from_outcomes([0] * 6 + [1] * 3 + [2] * 1)
        expected = 6 * math.log(0.6) + 3 * math.log(0.3) + 1 * math.log(0.1)
        assert null_log_likelihood(ds) == pytest.approx(expected, rel=1e-12)

    def test_zero_count_outcomes_skipped(self):
        ds = dataset_from_outcomes([0, 0, 1, 1])
        expected = 4 * math.log(0.5)
        assert null_log_likelihood(ds) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_estimate_takes_the_same_value_from_its_outcome_counts(self, speed_model,
                                                                  speed_dataset, weighted):
        ds = speed_dataset
        if weighted:
            weights = np.random.default_rng(5).uniform(0.1, 3.0, ds.n_obs)
            ds = sl.Dataset.from_columns(ds.outcome_set, ds.variable_names,
                                         dict(ds.columns, w=weights), ds.period_labels)
        assert sl.estimate(speed_model, ds).ll_null == null_log_likelihood(ds)


class TestEstimateOptionsOwnTheirNumbers:
    @pytest.mark.parametrize("cap", [2.5, True, "200", None])
    def test_max_iterations_is_an_integer(self, cap):
        refused = f"max_iterations must be an integer >= 1, got {cap!r}"
        with pytest.raises(ValueError, match=refused):
            EstimateOptions(max_iterations=cap)

    @pytest.mark.parametrize("tol", [True, "1e-6", math.inf, math.nan, 0.0])
    def test_gradient_tol_is_a_positive_finite_number(self, tol):
        with pytest.raises(ValueError, match=f"gradient_tol must be finite and > 0, got {tol!r}"):
            EstimateOptions(gradient_tol=tol)

    def test_values_are_stored_normalised(self):
        options = EstimateOptions(np.float32(0.5), np.int64(50))
        assert options == EstimateOptions(0.5, 50)
        assert type(options.gradient_tol) is float and type(options.max_iterations) is int
        assert EstimateOptions(max_iterations=2e2).max_iterations == 200
