"""Synthetic data generator: reproducibility and distributional fidelity."""

from hashlib import blake2b

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

    def test_a_uniform_range_that_overflows_is_refused(self, constants_model):
        with pytest.raises(sl.ConfigError, match=r"^uniform range high - low must be finite, "
                                                 r"got \(-1e\+308, 1e\+308\)$"):
            sl.UniformDist(-1e308, 1e308)
        widest = {"x": sl.UniformDist(-8e307, 8e307)}  # high - low is 1.6e308: finite
        ds = sl.simulate(sl.GeneratorConfig(constants_model, np.zeros(2), 50, widest, seed=1))
        assert np.all(np.abs(ds.columns["X"]) <= 8e307)

    def test_bad_categorical(self):
        with pytest.raises(sl.ConfigError):
            sl.CategoricalDist((1.0, 2.0), (0.6, 0.6))
        with pytest.raises(sl.ConfigError):
            sl.CategoricalDist((1.0,), (0.5, 0.5))

    def test_bad_indicator(self):
        with pytest.raises(sl.ConfigError):
            sl.IndicatorDist(1.5)

    @pytest.mark.parametrize("weight", [0, -0.5])
    def test_a_segment_weight_must_be_positive(self, weight):
        with pytest.raises(sl.ConfigError, match=f"^segment weight must be positive, got {weight}"):
            sl.SegmentComponent(sl.SegmentKey(), weight)

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

    def test_theta_must_fit_the_model(self, constants_model):
        with pytest.raises(sl.ConfigError, match=r"^true_theta \(config key 'theta'\): expected 2 "
                                                 r"parameter values, got shape \(3,\)$"):
            sl.GeneratorConfig(constants_model, np.zeros(3), 10, {}, seed=0)

    def test_a_segment_theta_must_fit_the_model(self, constants_model):
        segments = (sl.SegmentComponent(sl.SegmentKey(), 1.0, [0.1]),)
        with pytest.raises(sl.ConfigError, match=r"^segment 0: theta: expected 2 parameter "
                                                 r"values, got shape \(1,\)$"):
            sl.GeneratorConfig(constants_model, np.zeros(2), 10, {}, segments=segments, seed=0)

    def test_covariates_must_be_distributions(self, constants_model):
        with pytest.raises(sl.ConfigError, match="^covariate 'x': expected a distribution, got 5$"):
            sl.GeneratorConfig(constants_model, np.zeros(2), 10, {"x": 5}, seed=0)

    def test_covariates_must_be_a_mapping(self, constants_model):
        with pytest.raises(sl.ConfigError, match="covariates must map names to distributions"):
            sl.GeneratorConfig(constants_model, np.zeros(2), 10, ["x"], seed=0)

    @pytest.mark.parametrize("segments", [["interstate"], "interstate", [{"weight": 1.0}]])
    def test_segments_must_be_components(self, constants_model, segments):
        with pytest.raises(sl.ConfigError, match="segments must be SegmentComponent objects"):
            sl.GeneratorConfig(constants_model, np.zeros(2), 10, {}, segments=segments, seed=0)

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
        with pytest.raises(ValueError, match="sum to 1"):
            theta_for_target_shares([0.5, 0.4])
        with pytest.raises(ValueError, match="positive"):
            theta_for_target_shares([1.0, 0.0, 0.0])
        for shape in ([1.0], [[0.5, 0.5]]):
            with pytest.raises(ValueError, match="need one share per outcome"):
                theta_for_target_shares(shape)


# (constructor of one config type from a value of the named field, the field as named)
NUMBER_FIELDS = {
    "constant-value": (lambda v: sl.ConstantDist(v), "'value'"),
    "uniform-low": (lambda v: sl.UniformDist(v, 70), "'low'"),
    "uniform-high": (lambda v: sl.UniformDist(25, v), "'high'"),
    "indicator-p": (lambda v: sl.IndicatorDist(v), "'p'"),
    "categorical-values": (lambda v: sl.CategoricalDist((1.0, v), (0.5, 0.5)), "'values' entry 1"),
    "categorical-probs": (lambda v: sl.CategoricalDist((1.0, 2.0), (v, 0.5)), "'probs' entry 0"),
    "segment-weight": (lambda v: sl.SegmentComponent(sl.SegmentKey(), v), "'weight'"),
    "segment-theta": (
        lambda v: sl.SegmentComponent(sl.SegmentKey(), 1.0, [0.1, v]), "'theta' entry 1"
    ),
}


class TestConfigTypesOwnTheirNumbers:
    """Each config type refuses a number field that is not a finite int or float, naming it."""

    @pytest.mark.parametrize("value", ["0.5", True, float("nan"), float("inf"), None])
    @pytest.mark.parametrize("field", NUMBER_FIELDS)
    def test_a_non_number_is_refused_by_name(self, field, value):
        build, name = NUMBER_FIELDS[field]
        refused = f"^{name} must be a finite number, got {value!r}$"
        with pytest.raises(sl.ConfigError, match=refused):
            build(value)

    def test_numbers_are_stored_as_floats(self):
        one = np.int64(1)
        assert type(sl.ConstantDist(one).value) is float
        uniform = sl.UniformDist(one, 2)
        assert type(uniform.low) is float and type(uniform.high) is float
        assert type(sl.IndicatorDist(one).p) is float
        categorical = sl.CategoricalDist([one, 2], [one, 0])
        assert all(type(v) is float for v in categorical.values + categorical.probs)
        segment = sl.SegmentComponent(sl.SegmentKey(), one, [one, 2])
        assert type(segment.weight) is float and segment.theta.dtype == np.float64

    def test_string_bounds_are_not_compared(self):
        with pytest.raises(sl.ConfigError, match="'low' must be a finite number, got '100'"):
            sl.UniformDist("100", "70")

    @pytest.mark.parametrize("values", ["ab", {1.0: 0.5}, 1.0])
    def test_categorical_needs_a_list(self, values):
        with pytest.raises(sl.ConfigError, match="'values' must be a list of numbers"):
            sl.CategoricalDist(values, (0.5, 0.5))

    def test_segment_theta_needs_a_list(self):
        with pytest.raises(sl.ConfigError, match="'theta' must be a list of numbers, got '01'"):
            sl.SegmentComponent(sl.SegmentKey(), 1.0, "01")

    def test_integer_and_float_bounds_draw_identical_columns(self, constants_model):
        def draw(dist):
            config = sl.GeneratorConfig(constants_model, np.zeros(2), 1000, {"x": dist}, seed=5)
            return sl.simulate(config).covariate_matrix

        assert np.array_equal(draw(sl.UniformDist(25, 70)), draw(sl.UniformDist(25.0, 70.0)))
        assert sl.UniformDist(25, 70) == sl.UniformDist(25.0, 70.0)


# BLAKE2b of every column simulate draws, recorded before the draw became outcome-major and
# one probability pass per theta group: the draw must not change a bit. 40,000 rows span
# more than one kernel block (_kernels.ROWS).
DRAW_DIGESTS = {
    ("shared", 1): "fa9ebc83e8beea203e89a3acf2fd7cb9",
    ("shared", 7): "d6fb37c487364368f4a9ccc461e5c97f",
    ("shared", 5000): "f9a3dcec46f27c37042f6f6778478f3e",
    ("shared", 40000): "73fe6cf0805eb8f045fc47fce4663493",
    ("one_own", 1): "86f6505d871359d768de5fa13edd2dd8",
    ("one_own", 7): "a975126cd0970ddd620105e29d31176c",
    ("one_own", 5000): "cf6c523db7c8ad6ed2dbb246c415efe8",
    ("one_own", 40000): "1574224d9c52afd4db1a1cfc9760176b",
    ("all_own", 1): "650a1c88fb2f114d7e617f81d7b15069",
    ("all_own", 7): "ccbeb83e47477ff991cc92d347fa7d27",
    ("all_own", 5000): "ee8e8c1eb6262a33ed82b03f27559b42",
    ("all_own", 40000): "d23bf56d0cd45b9554b86f31df2a47e2",
}


def _identity_config(case: str, n: int) -> sl.GeneratorConfig:
    """speed-limit model; no segments, one component of three with its own theta (two share
    the config's), or two components each with its own theta."""
    outcomes = sl.OutcomeSet()
    model = sl.ModelSpec(outcomes, (
        sl.TermSpec("constant", (1, 2)),
        sl.TermSpec("speed_limit", (1, 2), shared=True),
        sl.TermSpec("curve", (2,)),
    ))
    theta = np.array([-1.8, -4.0, 0.03, 0.7])
    segments = {
        "shared": (),
        "one_own": (
            sl.SegmentComponent(sl.SegmentKey(road_class="interstate"), 0.4),
            sl.SegmentComponent(sl.SegmentKey(road_class="us-route"), 0.35),
            sl.SegmentComponent(sl.SegmentKey(road_class="county-road"), 0.25, theta + 1.0),
        ),
        "all_own": (
            sl.SegmentComponent(sl.SegmentKey(location="urban"), 0.5, theta - 0.5),
            sl.SegmentComponent(sl.SegmentKey(location="rural"), 0.5, theta + 0.5),
        ),
    }[case]
    covariates = {"speed_limit": sl.UniformDist(25, 70), "curve": sl.IndicatorDist(0.3)}
    return sl.GeneratorConfig(model, theta, n, covariates, segments=segments, seed=2008 + n)


def _draw_digest(dataset: sl.Dataset) -> str:
    digest = blake2b(digest_size=16)
    for key, column in dataset.columns.items():
        digest.update(f"{key}:{column.dtype}:{column.shape}".encode())
        digest.update(np.ascontiguousarray(column).tobytes())
    digest.update(repr(dataset.period_labels).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("case", ["shared", "one_own", "all_own"])
@pytest.mark.parametrize("n", [1, 7, 5000, 40_000])
def test_the_draw_is_bit_identical_to_its_recorded_digest(case, n):
    assert _draw_digest(sl.simulate(_identity_config(case, n))) == DRAW_DIGESTS[case, n]
