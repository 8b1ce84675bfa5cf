"""Elasticities, LR tests, and partition evaluation."""

import numpy as np
import pytest

import sevlogit as sl
from sevlogit.inference import lr_split_test, lr_temporal_test
from sevlogit.report import partition_record, render_partition


class TestElasticityPoint:
    def test_saturation_limit(self):
        assert sl.elasticity_point(1.0, 0.5, 100.0) == 0.0

    def test_zero_coefficient(self):
        assert sl.elasticity_point(0.3, 0.0, 55.0) == 0.0

    def test_published_magnitude(self):
        # realistic magnitudes: half probability, 0.0396 slope, 55 mi/h
        assert sl.elasticity_point(0.5, 0.0396, 55.0) == pytest.approx(1.089)


@pytest.fixture(scope="module")
def alt_specific_setup():
    outs = sl.OutcomeSet()
    model = sl.ModelSpec(
        outs,
        (
            sl.TermSpec("constant", (1, 2)),
            sl.TermSpec("speed_limit", (1,)),
            sl.TermSpec("dark", (2,)),
        ),
    )
    layout = sl.build_layout(model)
    theta = sl.ParameterVector.from_dict(
        layout,
        {
            "constant:injury": -1.0,
            "constant:fatality": -3.0,
            "speed_limit:injury": 0.02,
            "dark:fatality": 0.6,
        },
    )
    config = sl.GeneratorConfig(
        model,
        theta,
        1000,
        {"speed_limit": sl.UniformDist(20, 75), "dark": sl.UniformDist(0.1, 2.0)},
        seed=3,
    )
    return model, theta, sl.simulate(config)


class TestElasticityReport:
    def test_single_observation_equals_point_value(self, three_outcomes):
        model = sl.ModelSpec(
            three_outcomes,
            (sl.TermSpec("constant", (1, 2)), sl.TermSpec("speed_limit", (1,))),
        )
        layout = sl.build_layout(model)
        values = {"constant:injury": -0.5, "constant:fatality": -2.0, "speed_limit:injury": 0.03}
        theta = sl.ParameterVector.from_dict(layout, values)
        ds = sl.Dataset(
            three_outcomes, (sl.Observation({"speed_limit": 55.0}, 1),), ("speed_limit",)
        )
        # hand-built converged result so the t-ratio gate is under our control
        result = sl.EstimationResult(
            theta_hat=theta,
            covariance=np.eye(3) * 1e-4,
            t_ratios=np.array([10.0, 10.0, 10.0]),
            ll_converged=-1.0,
            ll_null=-1.0,
            ll_zero=-1.1,
            iterations=1,
            converged=True,
            gradient_max=0.0,
            n_obs=1,
        )
        report = sl.elasticity_report(model, result, ds)
        p = sl.probabilities(model, theta, ds.observations[0])
        cell = report.cell("speed_limit", 1)
        assert cell.elasticity == pytest.approx(sl.elasticity_point(p[1], 0.03, 55.0))

    def test_analytic_matches_finite_difference(self, alt_specific_setup):
        model, theta, ds = alt_specific_setup
        prob = sl.probability_matrix(model, theta, ds)
        for variable, outcome, beta, col in (
            ("speed_limit", 1, 0.02, 0),
            ("dark", 2, 0.6, 1),
        ):
            fd = sl.finite_difference_elasticity(model, theta, ds, variable, outcome)
            x = ds.covariate_matrix[:, col]
            analytic = (1.0 - prob[:, outcome]) * beta * x
            rel = np.abs(fd - analytic) / np.maximum(np.abs(analytic), 1e-12)
            assert rel.max() < 1e-6

    def test_shared_slot_finite_difference_is_base_share(
        self, speed_model, speed_theta, speed_dataset
    ):
        # for a slot shared by every non-base outcome the exact MNL elasticity
        # x * (beta_i - sum_j P_j beta_j) reduces to beta * x * P_base; the
        # closed form (1 - P_i) * beta * x overstates it by beta * x * P_other
        beta = speed_theta.values[sl.build_layout(speed_model).slot_index("speed_limit", 1)]
        prob = sl.probability_matrix(speed_model, speed_theta, speed_dataset)
        x = speed_dataset.covariate_matrix[:, speed_dataset.variable_names.index("speed_limit")]
        exact = beta * x * prob[:, 0]
        for outcome, other in ((1, 2), (2, 1)):
            fd = sl.finite_difference_elasticity(
                speed_model, speed_theta, speed_dataset, "speed_limit", outcome
            )
            assert np.abs(fd - exact).max() < 1e-8 * np.abs(exact).max()
            closed = (1.0 - prob[:, outcome]) * beta * x
            assert np.allclose(closed - fd, beta * x * prob[:, other], rtol=1e-6, atol=0.0)
        fatality_closed = ((1.0 - prob[:, 2]) * beta * x).mean()
        assert fatality_closed > 1.5 * exact.mean()

    def test_report_matches_finite_difference_for_every_slot_kind(self, three_outcomes):
        # shared (speed_limit), specific to one outcome (dark) and one slot per
        # outcome (width): the report's exact form must agree with the oracle
        model = sl.ModelSpec(
            three_outcomes,
            (
                sl.TermSpec("constant", (1, 2)),
                sl.TermSpec("speed_limit", (1, 2), shared=True),
                sl.TermSpec("dark", (2,)),
                sl.TermSpec("width", (1, 2)),
            ),
        )
        layout = sl.build_layout(model)
        theta = sl.ParameterVector.from_dict(
            layout,
            {
                "constant:injury": -1.5,
                "constant:fatality": -4.0,
                "speed_limit:injury+fatality": 0.03,
                "dark:fatality": 0.6,
                "width:injury": -0.2,
                "width:fatality": 0.15,
            },
        )
        covariates = {
            "speed_limit": sl.UniformDist(25, 70),
            "dark": sl.UniformDist(0.1, 2.0),
            "width": sl.UniformDist(2.5, 4.5),
        }
        ds = sl.simulate(sl.GeneratorConfig(model, theta, 500, covariates, seed=9))
        result = sl.EstimationResult(
            theta_hat=theta,
            covariance=np.eye(layout.n_params),
            t_ratios=np.full(layout.n_params, 10.0),
            ll_converged=-1.0,
            ll_null=-1.0,
            ll_zero=-2.0,
            iterations=1,
            converged=True,
            gradient_max=0.0,
            n_obs=ds.n_obs,
        )
        report = sl.elasticity_report(model, result, ds, keep_per_observation=True)
        assert len(report.cells) == 5
        for cell in report.cells:
            fd = sl.finite_difference_elasticity(model, theta, ds, cell.variable, cell.outcome)
            rel = np.abs(cell.per_observation - fd) / np.abs(fd)
            assert rel.max() < 1e-6, (cell.variable, cell.outcome, rel.max())

    def test_significance_gating(self, alt_specific_setup):
        model, theta, ds = alt_specific_setup
        layout = sl.build_layout(model)
        t_ratios = np.array([5.0, 5.0, 0.4, 3.0])  # slot order is layout order
        result = sl.EstimationResult(
            theta_hat=theta,
            covariance=np.eye(4),
            t_ratios=t_ratios,
            ll_converged=-1.0,
            ll_null=-1.0,
            ll_zero=-2.0,
            iterations=1,
            converged=True,
            gradient_max=0.0,
            n_obs=ds.n_obs,
        )
        report = sl.elasticity_report(model, result, ds)
        names = layout.slot_names()
        for cell in report.cells:
            slot = layout.slot_index(cell.variable, cell.outcome)
            expected_significant = abs(t_ratios[slot]) > report.threshold
            assert (cell.elasticity is not None) == expected_significant
            assert cell.t_ratio == t_ratios[slot]
        assert "dark:fatality" in names  # the gated slot exists
        gated = report.cell("dark", 2)
        assert gated.elasticity is None

    def test_indicator_gets_pseudo_elasticity(self, speed_model, speed_theta, speed_dataset):
        result = sl.estimate(speed_model, speed_dataset)
        report = sl.elasticity_report(speed_model, result, speed_dataset)
        curve = report.cell("curve", 2)
        assert curve.method == "pseudo-elasticity"
        speed = report.cell("speed_limit", 1)
        assert speed.method == "elasticity"
        # pseudo-elasticity agrees with a direct flip computation on one observation
        ds1 = sl.Dataset(
            speed_dataset.outcome_set,
            (sl.Observation({"speed_limit": 55.0, "curve": 1.0}, 2),),
            speed_dataset.variable_names,
        )
        rep1 = sl.elasticity_report(speed_model, result, ds1)
        p_off = sl.probabilities(
            speed_model, result.theta_hat, sl.Observation({"speed_limit": 55.0, "curve": 0.0}, 2)
        )
        p_on = sl.probabilities(
            speed_model, result.theta_hat, sl.Observation({"speed_limit": 55.0, "curve": 1.0}, 2)
        )
        expected = (p_on[2] - p_off[2]) / p_off[2]
        assert rep1.cell("curve", 2).elasticity == pytest.approx(expected, rel=1e-12)

    def test_two_indicators_match_independent_flips(self, three_outcomes):
        # curve is flipped before dark: had curve's column been left at 0 or 1, dark's flips
        # would see the wrong curve values
        model = sl.ModelSpec(
            three_outcomes,
            (
                sl.TermSpec("constant", (1, 2)),
                sl.TermSpec("curve", (1, 2)),
                sl.TermSpec("dark", (1, 2)),
                sl.TermSpec("speed_limit", (1, 2), shared=True),
            ),
        )
        covariates = {
            "curve": sl.IndicatorDist(0.3),
            "dark": sl.IndicatorDist(0.4),
            "speed_limit": sl.UniformDist(25, 70),
        }
        theta = np.array([-1.0, -3.0, 0.4, 0.7, 0.2, 0.9, 0.02])
        data = sl.simulate(sl.GeneratorConfig(model, theta, 4000, covariates, seed=8))
        assert model.variables() == data.variable_names == ("curve", "dark", "speed_limit")
        result = sl.estimate(model, data)
        report = sl.elasticity_report(model, result, data, threshold=0.0, keep_per_observation=True)

        def flipped(col, value):
            x = data.covariate_matrix.copy()
            x[:, col] = value
            columns = dict(data.columns, X=x)
            copy = sl.Dataset.from_columns(
                data.outcome_set, data.variable_names, columns, data.period_labels
            )
            return sl.probability_matrix(model, result.theta_hat, copy)

        for col, variable in enumerate(("curve", "dark")):
            off, on = flipped(col, 0.0), flipped(col, 1.0)
            for out in (1, 2):
                cell = report.cell(variable, out)
                assert cell.method == "pseudo-elasticity"
                expected = (on[:, out] - off[:, out]) / off[:, out]
                assert np.array_equal(cell.per_observation, expected)

    def test_aggregation_options(self, speed_model, speed_dataset):
        result = sl.estimate(speed_model, speed_dataset)
        mean_rep = sl.elasticity_report(speed_model, result, speed_dataset, aggregation="mean")
        weighted = sl.elasticity_report(
            speed_model, result, speed_dataset, aggregation="prob-weighted"
        )
        assert mean_rep.aggregation == "mean"
        assert weighted.aggregation == "prob-weighted"
        assert mean_rep.cell("speed_limit", 1).elasticity != weighted.cell(
            "speed_limit", 1
        ).elasticity
        with pytest.raises(ValueError, match="aggregation"):
            sl.elasticity_report(speed_model, result, speed_dataset, aggregation="median")

    def test_unknown_aggregation_rejected_with_no_significant_cell(
        self, speed_model, speed_dataset
    ):
        # with no cell above the threshold no value is aggregated, so only the
        # up-front check can reject the name
        result = sl.estimate(speed_model, speed_dataset)
        with pytest.raises(ValueError, match="unknown aggregation 'bogus'"):
            sl.elasticity_report(
                speed_model, result, speed_dataset, threshold=1e300, aggregation="bogus"
            )

    def test_per_observation_vector_optional(self, speed_model, speed_dataset):
        result = sl.estimate(speed_model, speed_dataset)
        rep = sl.elasticity_report(
            speed_model, result, speed_dataset, keep_per_observation=True
        )
        cell = rep.cell("speed_limit", 1)
        assert cell.per_observation is not None
        assert cell.per_observation.shape == (speed_dataset.n_obs,)
        assert cell.elasticity == pytest.approx(cell.per_observation.mean())

    def test_unconverged_result_rejected(self, speed_model, speed_dataset, speed_theta):
        bad = sl.EstimationResult(
            theta_hat=speed_theta,
            covariance=np.eye(4),
            t_ratios=np.zeros(4),
            ll_converged=-1.0,
            ll_null=-1.0,
            ll_zero=-2.0,
            iterations=1,
            converged=False,
            gradient_max=1.0,
            n_obs=speed_dataset.n_obs,
        )
        with pytest.raises(ValueError, match="converged"):
            sl.elasticity_report(speed_model, bad, speed_dataset)


class TestLRSplitTest:
    def test_no_improvement_never_rejects(self):
        test = lr_split_test(-100.0, 4, [(-60.0, 4), (-40.0, 4)])
        assert test.statistic == 0.0
        assert test.p_value == 1.0
        assert not any(test.reject_at.values())

    def test_df_formula_equal_k(self):
        test = lr_split_test(-100.0, 5, [(-55.0, 5), (-40.0, 5)])
        assert test.df == 5  # (M - 1) * K for M = 2, K = 5

    def test_df_formula_unequal_k(self):
        test = lr_split_test(-100.0, 4, [(-50.0, 6), (-40.0, 3)])
        assert test.df == 5

    def test_statistic_definition(self):
        test = lr_split_test(-105.0, 2, [(-60.0, 2), (-41.0, 2)])
        assert test.statistic == pytest.approx(-2.0 * (-105.0 - (-101.0)), abs=1e-10)
        assert test.reject(0.95) == (test.p_value < 0.05)

    def test_negative_statistic_inconsistency(self):
        with pytest.raises(sl.InconsistencyError, match="likely"):
            lr_split_test(-100.0, 2, [(-60.0, 2), (-41.0, 2)])

    def test_tiny_negative_clamped(self):
        test = lr_split_test(-100.0, 2, [(-60.0, 2), (-40.0 - 1e-12, 2)])
        assert test.statistic == 0.0

    def test_needs_two_subsets(self):
        with pytest.raises(ValueError):
            lr_split_test(-100.0, 2, [(-100.0, 2)])

    def test_reject_ladder_matches_p(self):
        test = lr_split_test(-100.0, 3, [(-55.0, 3), (-40.0, 3)])
        for level, flag in test.reject_at.items():
            assert flag == (test.p_value < 1.0 - level)


class TestLRTemporalTest:
    def test_identical_periods_retained_everywhere(self):
        test = lr_temporal_test(-100.0, -60.0, -40.0, 4, 4, 4)
        assert test.statistic == 0.0
        assert not any(test.reject_at.values())
        assert 0.70 in test.reject_at  # the diagnostic confidence rung is present

    def test_df_formula(self):
        test = lr_temporal_test(-100.0, -60.0, -39.0, 4, 4, 4)
        assert test.df == 4

    def test_df_must_be_positive(self):
        with pytest.raises(ValueError):
            lr_temporal_test(-100.0, -60.0, -40.0, 8, 4, 4)

    def test_negative_statistic_inconsistency(self):
        with pytest.raises(sl.InconsistencyError):
            lr_temporal_test(-99.0, -60.0, -40.0, 4, 4, 4)

    def test_component_lls_echoed(self):
        test = lr_temporal_test(-100.0, -60.0, -39.5, 4, 4, 4)
        assert test.component_lls == {"combined": -100.0, "first": -60.0, "second": -39.5}


@pytest.fixture(scope="module")
def mixture_pieces(speed_model, speed_theta):
    covs = {"speed_limit": sl.UniformDist(25, 70), "curve": sl.IndicatorDist(0.3)}
    seg_a = sl.SegmentKey(road_class="interstate", location="rural")
    seg_b = sl.SegmentKey(road_class="county-road", location="urban")
    return covs, seg_a, seg_b


def _mixture_dataset(speed_model, speed_theta, covs, seg_a, seg_b, theta_b=None, n=6000, seed=5):
    config = sl.GeneratorConfig(
        speed_model,
        speed_theta,
        n,
        covs,
        segments=(
            sl.SegmentComponent(seg_a, 0.5),
            sl.SegmentComponent(seg_b, 0.5, theta_b),
        ),
        seed=seed,
    )
    return sl.simulate(config)


class TestOptionTypes:
    def test_partition_options_keep_dims_in_canonical_order(self):
        assert sl.PartitionOptions(["period", "road_class"]).dims == ("road_class", "period")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"dims": ()}, "non-empty"),
            ({"dims": ("bogus",)}, "unknown partition dims"),
            ({"dims": ("period",), "min_cell_size": 0}, "minimum cell size"),
            ({"dims": ("period",), "confidence": 1.0}, "--confidence"),
        ],
    )
    def test_partition_options_reject(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            sl.PartitionOptions(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"threshold": -0.5}, "significance threshold"), ({"aggregation": "median"}, "aggregation")],
    )
    def test_elasticity_options_reject(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            sl.ElasticityOptions(**kwargs)


class TestEvaluatePartition:
    def test_single_cell_reports_pooled_only(self, speed_model, speed_theta):
        config = sl.GeneratorConfig(
            speed_model,
            speed_theta,
            1500,
            {"speed_limit": sl.UniformDist(25, 70), "curve": sl.IndicatorDist(0.3)},
            seed=13,
        )
        ds = sl.simulate(config)
        report = sl.evaluate_partition(speed_model, ds, ("road_class",))
        assert report.cells == ()
        assert report.test is None
        assert "single-cell" in report.test_unavailable_reason
        assert report.split_recommended() is None

    def test_distinct_segments_recommend_split(self, speed_model, speed_theta, mixture_pieces):
        covs, seg_a, seg_b = mixture_pieces
        shifted = speed_theta.values.copy()
        shifted[3] *= 2.0  # double the shared speed slope in segment B
        ds = _mixture_dataset(speed_model, speed_theta, covs, seg_a, seg_b, shifted)
        report = sl.evaluate_partition(speed_model, ds, ("road_class",))
        assert report.split_recommended(0.95) is True
        assert all(c.status == "ok" for c in report.cells)

    def test_common_theta_usually_retains(self, speed_model, speed_theta, mixture_pieces):
        covs, seg_a, seg_b = mixture_pieces
        ds = _mixture_dataset(speed_model, speed_theta, covs, seg_a, seg_b, None, seed=6)
        report = sl.evaluate_partition(speed_model, ds, ("road_class",))
        assert report.test is not None
        assert report.test.statistic >= 0.0

    def test_small_cells_skipped_and_test_unavailable(
        self, speed_model, speed_theta, mixture_pieces
    ):
        covs, seg_a, seg_b = mixture_pieces
        config = sl.GeneratorConfig(
            speed_model,
            speed_theta,
            2000,
            covs,
            segments=(
                sl.SegmentComponent(seg_a, 0.85),  # ~1700 observations: estimable
                sl.SegmentComponent(seg_b, 0.15),  # ~300 observations: below the bar
            ),
            seed=8,
        )
        ds = sl.simulate(config)
        report = sl.evaluate_partition(speed_model, ds, ("road_class",), min_cell_size=800)
        statuses = {c.label: c.status for c in report.cells}
        assert "skipped" in statuses.values()
        assert "ok" in statuses.values()
        assert report.test is None
        assert "not all cells estimated" in report.test_unavailable_reason
        rendered = render_partition(partition_record(report, 0.95))
        assert "Split test unavailable: not all cells estimated: road_class=" in rendered

    def test_failed_cell_carries_its_error(self, dark_gap_model, dark_gap_dataset):
        report = sl.evaluate_partition(dark_gap_model, dark_gap_dataset, ("road_class",))
        cells = {c.key: c for c in report.cells}
        failed = cells[("county-road",)]
        assert failed.status == "failed"
        assert isinstance(failed.error, sl.NonIdentificationError)
        assert "dark:fatality" in str(failed.error)
        assert failed.reason == str(failed.error)
        assert failed.result is None
        assert cells[("interstate",)].status == "ok"
        assert cells[("interstate",)].error is None
        assert report.test is None
        assert "county-road: failed" in report.test_unavailable_reason

    def test_default_min_cell_size(self, speed_model, speed_theta, mixture_pieces):
        covs, seg_a, seg_b = mixture_pieces
        ds = _mixture_dataset(speed_model, speed_theta, covs, seg_a, seg_b, None, n=3000, seed=9)
        report = sl.evaluate_partition(speed_model, ds, ("road_class",))
        assert report.min_cell_size == 30 * speed_model.n_params

    def test_all_cells_skipped_is_error(self, speed_model, speed_theta, mixture_pieces):
        covs, seg_a, seg_b = mixture_pieces
        ds = _mixture_dataset(speed_model, speed_theta, covs, seg_a, seg_b, None, n=100, seed=10)
        with pytest.raises(sl.EmptyPartitionError):
            sl.evaluate_partition(speed_model, ds, ("road_class",), min_cell_size=1000)

    def test_lr_statistic_invariant_under_rescaling(
        self, speed_model, speed_theta, mixture_pieces
    ):
        covs, seg_a, seg_b = mixture_pieces
        ds = _mixture_dataset(speed_model, speed_theta, covs, seg_a, seg_b, None, seed=12)
        report = sl.evaluate_partition(speed_model, ds, ("road_class",))
        scaled_obs = tuple(
            sl.Observation(
                {**o.covariates, "speed_limit": o.covariates["speed_limit"] * 10.0},
                o.outcome,
                o.segment,
            )
            for o in ds.observations
        )
        scaled = sl.Dataset(ds.outcome_set, scaled_obs, ds.variable_names)
        report10 = sl.evaluate_partition(speed_model, scaled, ("road_class",))
        assert report10.test.statistic == pytest.approx(report.test.statistic, abs=1e-6)
