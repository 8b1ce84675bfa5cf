"""Maximum-likelihood estimation: identities, equivariance, error paths."""

import math

import numpy as np
import pytest

import sevlogit as sl
from sevlogit import _kernels
from sevlogit.estimate import EstimateOptions, null_log_likelihood
from sevlogit.likelihood import gradient_hessian

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

    def test_covariance_properties(self, speed_model, speed_dataset):
        result = sl.estimate(speed_model, speed_dataset)
        assert np.array_equal(result.covariance, result.covariance.T)
        assert (np.linalg.eigvalsh(result.covariance) > 0).all()
        expected_t = result.theta_hat.values / np.sqrt(np.diag(result.covariance))
        assert np.allclose(result.t_ratios, expected_t, atol=0)

    def test_missing_outcome_warns(self, three_outcomes):
        ds = dataset_from_outcomes([0, 1, 0, 1, 0, 1] * 20)  # fatality never occurs
        model = sl.ModelSpec(three_outcomes, (sl.TermSpec("constant", (1, 2)),))
        result = sl.estimate(model, ds)
        assert any("never in the data" in d for d in result.diagnostics)
        assert any("'fatality'" in d for d in result.diagnostics)

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

    def test_iteration_cap_raises_with_last_iterate(self, constants_model, share_dataset):
        with pytest.raises(sl.NonConvergenceError) as err:
            sl.estimate(constants_model, share_dataset, EstimateOptions(max_iterations=1))
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

    def test_nonfinite_trial_is_halved_not_raised(self, speed_model, speed_dataset, monkeypatch):
        expected = sl.estimate(speed_model, speed_dataset, TIGHT).theta_hat.values
        real = _kernels.loglik_grad_hess
        calls = [0]

        def first_trial_nan(*args):
            calls[0] += 1
            ll, grad, hess, n_floored = real(*args)
            if calls[0] == 2:  # pass 1 is theta = 0, pass 2 the first full Newton step
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
        assert calls[0] == 1 + 1 + 30  # theta = 0, the full step, then every halving
        partial = err.value.last_result
        assert not partial.converged
        assert partial.iterations == 1
        assert np.array_equal(partial.theta_hat.values, np.zeros(partial.n_params))
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


class TestNonIdentification:
    def test_collinear_covariates_raise_with_both_slots(self, three_outcomes, monkeypatch):
        # identical columns make the information matrix singular at every theta,
        # so non-identification is declared at theta = 0, before any step
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
        assert full_passes == [1]  # theta = 0 only
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

    def test_near_separation_flagged_not_silent(self):
        # below the condition limit the fit is kept but carries a conditioning note
        model, ds = separable_dataset(2000)
        result = sl.estimate(model, ds)
        assert any("ill-conditioned" in d for d in result.diagnostics)


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
