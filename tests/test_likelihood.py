"""Probability kernel and log-likelihood derivatives."""

import math

import numpy as np
import pytest

import sevlogit as sl
from sevlogit.likelihood import gradient_hessian, log_likelihood

from conftest import dataset_from_outcomes


class TestProbabilities:
    def test_uniform_at_zero_theta(self, constants_model):
        p = sl.probabilities(constants_model, np.zeros(2), sl.Observation({}, 0))
        assert np.allclose(p, [1 / 3] * 3, atol=1e-15)

    def test_closed_form_ratios(self, constants_model):
        # utilities (0, ln 2, ln 3) -> probabilities (1/6, 2/6, 3/6)
        theta = np.array([math.log(2), math.log(3)])
        p = sl.probabilities(constants_model, theta, sl.Observation({}, 0))
        assert np.allclose(p, [1 / 6, 2 / 6, 3 / 6], atol=1e-15)

    def test_stabilized_for_huge_utilities(self):
        outs = sl.OutcomeSet(("a", "b"))
        model = sl.ModelSpec(outs, (sl.TermSpec("constant", (1,)),))
        p = sl.probabilities(model, np.array([1000.0]), sl.Observation({}, 0))
        assert np.isfinite(p).all()
        assert p.sum() == 1.0
        assert p[1] == pytest.approx(1.0)

    def test_sum_to_one_random(self, speed_model):
        rng = np.random.default_rng(2)
        layout = sl.build_layout(speed_model)
        for _ in range(50):
            theta = rng.normal(0, 2, layout.n_params)
            obs = sl.Observation(
                {"speed_limit": float(rng.uniform(0, 80)), "curve": float(rng.integers(2))}, 0
            )
            p = sl.probabilities(speed_model, theta, obs)
            assert abs(p.sum() - 1.0) < 1e-12
            assert (p >= 0).all()

    def test_translation_invariance_of_softmax(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            u = rng.normal(0, 5, size=4)
            c = rng.normal(0, 100)
            base = sl.probabilities_from_utilities(u)
            shifted = sl.probabilities_from_utilities(u + c)
            assert np.allclose(base, shifted, atol=1e-14)

    def test_term_reordering_invariance(self, three_outcomes):
        terms = (
            sl.TermSpec("constant", (1, 2)),
            sl.TermSpec("speed_limit", (1, 2), shared=True),
            sl.TermSpec("curve", (2,)),
        )
        m1 = sl.ModelSpec(three_outcomes, terms)
        m2 = sl.ModelSpec(three_outcomes, terms[::-1])
        theta = np.array([-1.8, -4.0, 0.7, 0.03])
        obs = sl.Observation({"speed_limit": 55.0, "curve": 1.0}, 0)
        assert np.allclose(
            sl.probabilities(m1, theta, obs), sl.probabilities(m2, theta, obs), atol=0
        )

    def test_non_finite_theta_rejected(self, constants_model):
        with pytest.raises(sl.NumericError):
            sl.probabilities(constants_model, np.array([np.inf, 0.0]), sl.Observation({}, 0))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_utility_is_refused(self, bad):
        with pytest.raises(sl.NumericError, match="^non-finite utility$"):
            sl.probabilities_from_utilities(np.array([0.0, bad, 1.0]))

    def test_an_overflowing_utility_is_refused_without_a_warning(self):
        # 10 × 1.7e308 overflows to inf, and the softmax's inf − inf is NaN; numpy's
        # warnings about both would fail this test (pytest turns them into errors)
        model = sl.ModelSpec(sl.OutcomeSet(("a", "b")), (sl.TermSpec("x", (1,)),))
        with pytest.raises(sl.NumericError, match="^non-finite utility while computing"):
            sl.probabilities(model, np.array([10.0]), sl.Observation({"x": 1.7e308}, 0))


class TestLogLikelihood:
    def test_uniform_single_observation(self, constants_model):
        ds = dataset_from_outcomes([1])
        value = log_likelihood(constants_model, np.zeros(2), ds)
        assert value == pytest.approx(math.log(1 / 3), abs=1e-14)

    def test_duplication_additivity(self, constants_model):
        base = dataset_from_outcomes([0, 1, 1, 2, 0])
        theta = np.array([0.3, -0.8])
        single = log_likelihood(constants_model, theta, base)
        tripled = dataset_from_outcomes([0, 1, 1, 2, 0] * 3)
        assert log_likelihood(constants_model, theta, tripled) == pytest.approx(
            3 * single, rel=1e-14
        )

    def test_weights_match_duplication(self, constants_model):
        outs = sl.OutcomeSet()
        weighted = sl.Dataset(
            outs,
            (sl.Observation({}, 1, weight=3.0), sl.Observation({}, 0, weight=2.0)),
            (),
        )
        duplicated = dataset_from_outcomes([1, 1, 1, 0, 0])
        theta = np.array([0.4, -0.2])
        assert log_likelihood(constants_model, theta, weighted) == pytest.approx(
            log_likelihood(constants_model, theta, duplicated), rel=1e-14
        )

    def test_brute_force_oracle(self, speed_model):
        # independent direct summation with math.exp/math.log, no shared code path
        records = [(55.0, 1.0, 1), (30.0, 0.0, 0), (70.0, 1.0, 2), (45.0, 0.0, 1), (25.0, 0.0, 0)]
        outs = sl.OutcomeSet()
        obs = tuple(
            sl.Observation({"speed_limit": s, "curve": c}, o) for s, c, o in records
        )
        ds = sl.Dataset(outs, obs, ("speed_limit", "curve"))
        layout = sl.build_layout(speed_model)
        theta = dict(zip(layout.slot_names(), [-1.2, -3.5, 0.6, 0.02]))

        expected = 0.0
        for s, c, o in records:
            utilities = [
                0.0,
                theta["constant:injury"] + theta["speed_limit:injury+fatality"] * s,
                theta["constant:fatality"]
                + theta["speed_limit:injury+fatality"] * s
                + theta["curve:fatality"] * c,
            ]
            denom = sum(math.exp(u) for u in utilities)
            expected += math.log(math.exp(utilities[o]) / denom)

        got = log_likelihood(speed_model, np.array([-1.2, -3.5, 0.6, 0.02]), ds)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_concavity_midpoint(self, speed_model, speed_dataset):
        rng = np.random.default_rng(9)
        layout = sl.build_layout(speed_model)
        for _ in range(10):
            t1 = rng.normal(0, 0.2, layout.n_params)
            t2 = rng.normal(0, 0.2, layout.n_params)
            mid = log_likelihood(speed_model, 0.5 * (t1 + t2), speed_dataset)
            avg = 0.5 * (
                log_likelihood(speed_model, t1, speed_dataset)
                + log_likelihood(speed_model, t2, speed_dataset)
            )
            assert mid >= avg - 1e-10

    def test_empty_dataset_rejected(self, constants_model):
        ds = sl.Dataset(sl.OutcomeSet(), (), ())
        with pytest.raises(ValueError, match="empty"):
            log_likelihood(constants_model, np.zeros(2), ds)

    def test_nonpositive_for_unit_weights(self, speed_model, speed_dataset):
        rng = np.random.default_rng(10)
        theta = rng.normal(0, 0.1, speed_model.n_params)
        assert log_likelihood(speed_model, theta, speed_dataset) <= 0.0


class TestGradientHessian:
    def test_symmetric_stationary_point(self, constants_model):
        ds = dataset_from_outcomes([0, 1, 2] * 10)
        ev = gradient_hessian(constants_model, np.zeros(2), ds)
        assert np.allclose(ev.gradient, 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self, speed_model, speed_dataset):
        rng = np.random.default_rng(17)
        layout = sl.build_layout(speed_model)
        step = 1e-6
        for _ in range(5):
            theta = rng.uniform(-0.3, 0.3, layout.n_params)
            ev = gradient_hessian(speed_model, theta, speed_dataset)
            fd = np.empty(layout.n_params)
            for j in range(layout.n_params):
                plus, minus = theta.copy(), theta.copy()
                plus[j] += step
                minus[j] -= step
                fd[j] = (
                    log_likelihood(speed_model, plus, speed_dataset)
                    - log_likelihood(speed_model, minus, speed_dataset)
                ) / (2 * step)
            scale = max(1.0, np.abs(ev.gradient).max())
            assert np.abs(fd - ev.gradient).max() / scale < 1e-6

    def test_hessian_matches_differenced_gradient(self, speed_model, speed_dataset):
        rng = np.random.default_rng(18)
        layout = sl.build_layout(speed_model)
        step = 1e-6
        theta = rng.uniform(-0.3, 0.3, layout.n_params)
        ev = gradient_hessian(speed_model, theta, speed_dataset)
        fd = np.empty((layout.n_params, layout.n_params))
        for j in range(layout.n_params):
            plus, minus = theta.copy(), theta.copy()
            plus[j] += step
            minus[j] -= step
            fd[:, j] = (
                gradient_hessian(speed_model, plus, speed_dataset).gradient
                - gradient_hessian(speed_model, minus, speed_dataset).gradient
            ) / (2 * step)
        scale = max(1.0, np.abs(ev.hessian).max())
        assert np.abs(fd - ev.hessian).max() / scale < 1e-4

    def test_hessian_symmetric_and_nsd(self, speed_model, speed_dataset):
        rng = np.random.default_rng(19)
        theta = rng.uniform(-0.5, 0.5, speed_model.n_params)
        ev = gradient_hessian(speed_model, theta, speed_dataset)
        assert np.array_equal(ev.hessian, ev.hessian.T)
        assert np.linalg.eigvalsh(ev.hessian).max() <= 1e-10

    def test_shared_slot_sums_tied_contributions(self, three_outcomes):
        # shared-slot gradient equals the sum of the untied per-outcome gradients
        shared = sl.ModelSpec(
            three_outcomes, (sl.TermSpec("speed_limit", (1, 2), shared=True),)
        )
        untied = sl.ModelSpec(three_outcomes, (sl.TermSpec("speed_limit", (1, 2)),))
        outs = sl.OutcomeSet()
        obs = tuple(
            sl.Observation({"speed_limit": float(10 + 7 * i)}, i % 3) for i in range(9)
        )
        ds = sl.Dataset(outs, obs, ("speed_limit",))
        beta = 0.021
        ev_shared = gradient_hessian(shared, np.array([beta]), ds)
        ev_untied = gradient_hessian(untied, np.array([beta, beta]), ds)
        assert ev_shared.gradient[0] == pytest.approx(ev_untied.gradient.sum(), rel=1e-12)
        assert ev_shared.hessian[0, 0] == pytest.approx(ev_untied.hessian.sum(), rel=1e-12)

    def test_empty_dataset_rejected(self, constants_model):
        ds = sl.Dataset(sl.OutcomeSet(), (), ())
        with pytest.raises(ValueError, match="dataset is empty"):
            gradient_hessian(constants_model, np.zeros(2), ds)

    def test_flooring_reported(self):
        outs = sl.OutcomeSet(("a", "b"))
        model = sl.ModelSpec(outs, (sl.TermSpec("x", (1,)),))
        ds = sl.Dataset(outs, (sl.Observation({"x": 1.0}, 0),), ("x",))
        ev = gradient_hessian(model, np.array([800.0]), ds)
        assert ev.n_floored == 1
        assert math.isfinite(ev.value)
