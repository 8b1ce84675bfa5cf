"""Synthetic data generator: reproducibility and distributional fidelity."""

import numpy as np
import pytest

import sevlogit as sl
from sevlogit.simulate import theta_for_target_shares


@pytest.fixture(scope="module")
def simple_config(constants_model):
    return sl.GeneratorConfig(
        model=constants_model,
        true_theta=np.zeros(2),
        n_obs=30_000,
        covariates={},
        seed=42,
    )


class TestSimulate:
    def test_uniform_shares_at_zero_theta(self, simple_config):
        ds = sl.simulate(simple_config)
        shares = ds.outcome_counts() / ds.n_obs
        assert np.abs(shares - 1 / 3).max() < 0.01

    def test_target_share_constants(self, constants_model):
        targets = np.array([0.7903, 0.2056, 0.0041])
        theta = theta_for_target_shares(targets)
        config = sl.GeneratorConfig(constants_model, theta, 100_000, {}, seed=1)
        shares = sl.simulate(config).outcome_counts() / 100_000
        assert np.abs(shares - targets).max() < 0.005

    def test_seed_determinism(self, constants_model):
        config = sl.GeneratorConfig(
            constants_model,
            np.array([-0.5, -1.5]),
            500,
            {"speed_limit": sl.UniformDist(25, 70)},
            seed=42,
        )
        a = sl.simulate(config)
        b = sl.simulate(config)
        assert a.observations[0] == b.observations[0]
        assert a == b

    def test_different_seeds_differ(self, constants_model):
        base = dict(
            model=constants_model,
            true_theta=np.array([-0.5, -1.5]),
            n_obs=500,
            covariates={"speed_limit": sl.UniformDist(25, 70)},
        )
        a = sl.simulate(sl.GeneratorConfig(**base, seed=1))
        b = sl.simulate(sl.GeneratorConfig(**base, seed=2))
        assert a != b

    def test_goodness_of_fit_to_model_probabilities(self, constants_model):
        # chi-square GOF at the 99% level should pass for nearly every seed
        theta = np.array([-0.8, -2.2])
        p = sl.probabilities(constants_model, theta, sl.Observation({}, 0))
        passes = 0
        for seed in range(20):
            config = sl.GeneratorConfig(constants_model, theta, 10_000, {}, seed=seed)
            counts = sl.simulate(config).outcome_counts()
            expected = p * 10_000
            statistic = float(((counts - expected) ** 2 / expected).sum())
            passes += sl.chi_square_sf(statistic, 2) > 0.01
        assert passes >= 19

    def test_covariate_distributions(self, three_outcomes):
        model = sl.ModelSpec(three_outcomes, (sl.TermSpec("constant", (1, 2)),))
        config = sl.GeneratorConfig(
            model,
            np.zeros(2),
            5000,
            {
                "fixed": sl.ConstantDist(7.5),
                "u": sl.UniformDist(10, 20),
                "cat": sl.CategoricalDist((30.0, 55.0, 70.0), (0.5, 0.3, 0.2)),
                "flag": sl.IndicatorDist(0.25),
            },
            seed=3,
        )
        ds = sl.simulate(config)
        x = ds.covariate_matrix
        names = ds.variable_names
        assert (x[:, names.index("fixed")] == 7.5).all()
        u = x[:, names.index("u")]
        assert u.min() >= 10 and u.max() <= 20
        cat = x[:, names.index("cat")]
        assert set(np.unique(cat)) <= {30.0, 55.0, 70.0}
        flag = x[:, names.index("flag")]
        assert set(np.unique(flag)) <= {0.0, 1.0}
        assert abs(flag.mean() - 0.25) < 0.02

    def test_segment_mixture_and_override(self, speed_model, speed_theta):
        seg_a = sl.SegmentKey(road_class="interstate")
        seg_b = sl.SegmentKey(road_class="county-road")
        boosted = speed_theta.values.copy()
        boosted[0] += 2.0  # much higher injury constant in segment B
        config = sl.GeneratorConfig(
            speed_model,
            speed_theta,
            20_000,
            {"speed_limit": sl.UniformDist(25, 70), "curve": sl.IndicatorDist(0.3)},
            segments=(
                sl.SegmentComponent(seg_a, 0.7),
                sl.SegmentComponent(seg_b, 0.3, boosted),
            ),
            seed=4,
        )
        ds = sl.simulate(config)
        parts = sl.partition(ds, ("road_class",))
        n_a = parts[("interstate",)].n_obs
        assert abs(n_a / ds.n_obs - 0.7) < 0.02
        share_injury_a = np.mean(parts[("interstate",)].outcome_indices == 1)
        share_injury_b = np.mean(parts[("county-road",)].outcome_indices == 1)
        assert share_injury_b > share_injury_a + 0.1

    def test_default_segment_is_other(self, simple_config):
        ds = sl.simulate(sl.GeneratorConfig(simple_config.model, np.zeros(2), 5, {}, seed=0))
        assert all(o.segment == sl.SegmentKey() for o in ds.observations)


class TestGeneratorConfigValidation:
    def test_bad_uniform(self):
        with pytest.raises(sl.ConfigError):
            sl.UniformDist(5, 5)

    def test_bad_categorical(self):
        with pytest.raises(sl.ConfigError):
            sl.CategoricalDist((1.0, 2.0), (0.6, 0.6))
        with pytest.raises(sl.ConfigError):
            sl.CategoricalDist((1.0,), (0.5, 0.5))

    def test_bad_indicator(self):
        with pytest.raises(sl.ConfigError):
            sl.IndicatorDist(1.5)

    def test_segment_weights_must_sum_to_one(self, constants_model):
        with pytest.raises(sl.ConfigError, match="sum to 1"):
            sl.GeneratorConfig(
                constants_model,
                np.zeros(2),
                10,
                {},
                segments=(
                    sl.SegmentComponent(sl.SegmentKey(), 0.5),
                    sl.SegmentComponent(sl.SegmentKey(road_class="interstate"), 0.6),
                ),
                seed=0,
            )

    def test_model_variables_need_distributions(self, speed_model):
        with pytest.raises(sl.ConfigError, match="no covariate distribution"):
            sl.GeneratorConfig(
                speed_model,
                np.zeros(4),
                10,
                {"speed_limit": sl.UniformDist(25, 70)},  # curve missing
                seed=0,
            )

    def test_n_must_be_positive(self, constants_model):
        with pytest.raises(sl.ConfigError):
            sl.GeneratorConfig(constants_model, np.zeros(2), 0, {}, seed=0)

    def test_seed_must_be_non_negative(self, constants_model):
        with pytest.raises(sl.ConfigError, match="seed must be a non-negative integer, got -1"):
            sl.GeneratorConfig(constants_model, np.zeros(2), 10, {}, seed=-1)

    @pytest.mark.parametrize("n_obs", [20.7, True, "20", None, float("inf")])
    def test_n_must_be_an_integer(self, constants_model, n_obs):
        with pytest.raises(sl.ConfigError, match="n_obs .* must be an integer >= 1"):
            sl.GeneratorConfig(constants_model, np.zeros(2), n_obs, {}, seed=0)

    @pytest.mark.parametrize("seed", [1.5, False, "1", None, float("nan")])
    def test_seed_must_be_an_integer(self, constants_model, seed):
        with pytest.raises(sl.ConfigError, match="seed must be a non-negative integer, got"):
            sl.GeneratorConfig(constants_model, np.zeros(2), 10, {}, seed=seed)

    def test_integral_floats_are_integers(self, constants_model):
        config = sl.GeneratorConfig(constants_model, np.zeros(2), 2e1, {}, seed=np.float64(7.0))
        assert (config.n_obs, config.seed) == (20, 7)
        assert type(config.n_obs) is int and type(config.seed) is int
        exact = sl.GeneratorConfig(constants_model, np.zeros(2), 20, {}, seed=7)
        assert sl.simulate(config) == sl.simulate(exact)


class TestThetaForTargetShares:
    def test_round_trip(self, constants_model):
        targets = np.array([0.6, 0.3, 0.1])
        theta = theta_for_target_shares(targets)
        p = sl.probabilities(constants_model, theta, sl.Observation({}, 0))
        assert np.allclose(p, targets, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            theta_for_target_shares([0.5, 0.4])
        with pytest.raises(ValueError):
            theta_for_target_shares([1.0, 0.0, 0.0])
