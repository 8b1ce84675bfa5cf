"""Acceptance suite: each criterion runs at its stated tolerance and prints one
pass/fail line (the print is reached only after every assertion in the test).

Run with `pytest tests/test_acceptance.py -v`.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import sevlogit as sl
from sevlogit.cli import main as cli_main
from sevlogit.estimate import EstimateOptions
from sevlogit.io import model_spec_to_dict
from sevlogit.likelihood import gradient_hessian, log_likelihood
from sevlogit.report import elasticity_record, render_elasticity, render_summary, summary_record

GOLDEN = Path(__file__).parent / "golden"


def _passed(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


@pytest.fixture(scope="module")
def recovery_model():
    """3 outcomes, 6 parameters, one shared coefficient."""
    outs = sl.OutcomeSet()
    model = sl.ModelSpec(
        outs,
        (
            sl.TermSpec("constant", (1, 2)),
            sl.TermSpec("speed_limit", (1, 2), shared=True),
            sl.TermSpec("curve", (1, 2)),
            sl.TermSpec("dark", (2,)),
        ),
    )
    layout = sl.build_layout(model)
    theta = sl.ParameterVector.from_dict(
        layout,
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


def test_criterion_01_parameter_recovery(recovery_model):
    """Simulated 6-parameter model, n=50,000: within 3 SE for >= 95% of (slot, seed)."""
    model, theta, covariates = recovery_model
    started = time.monotonic()
    hits = 0
    total = 0
    for seed in range(20):
        config = sl.GeneratorConfig(model, theta, 50_000, covariates, seed=1000 + seed)
        result = sl.estimate(model, sl.simulate(config))
        z = np.abs(result.theta_hat.values - theta.values) / result.std_errors
        hits += int((z < 3.0).sum())
        total += z.shape[0]
    elapsed = time.monotonic() - started
    assert total == 120
    assert hits / total >= 0.95, f"only {hits}/{total} slot estimates within 3 SE"
    assert elapsed < 60.0, f"recovery run took {elapsed:.1f}s"
    _passed(1, f"{hits}/{total} slot estimates within 3 SE over 20 seeds in {elapsed:.1f}s")


def test_criterion_02_saturated_constants_identity():
    """Constants-only fit on 79.03/20.56/0.41 shares reproduces the closed form."""
    outcomes = [0] * 7903 + [1] * 2056 + [2] * 41
    data = sl.Dataset(
        sl.OutcomeSet(), tuple(sl.Observation({}, o) for o in outcomes), ()
    )
    model = sl.ModelSpec(sl.OutcomeSet(), (sl.TermSpec("constant", (1, 2)),))
    result = sl.estimate(model, data, EstimateOptions(gradient_tol=1e-9))
    probs = sl.probabilities(model, result.theta_hat, sl.Observation({}, 0))
    shares = np.array([0.7903, 0.2056, 0.0041])
    assert np.abs(probs - shares).max() < 1e-6
    expected = np.array([math.log(0.2056 / 0.7903), math.log(0.0041 / 0.7903)])
    assert np.abs(result.theta_hat.values - expected).max() < 1e-6
    _passed(2, "fitted probabilities equal shares and constants equal log odds to 1e-6")


def test_criterion_03_derivative_correctness(recovery_model):
    """Analytic gradient vs central FD < 1e-6; Hessian vs FD gradient < 1e-4; 50 draws."""
    model, theta, covariates = recovery_model
    config = sl.GeneratorConfig(model, theta, 1500, covariates, seed=300)
    data = sl.simulate(config)
    layout = sl.build_layout(model)
    rng = np.random.default_rng(301)
    step = 1e-6
    worst_grad = 0.0
    worst_hess = 0.0
    for _ in range(50):
        point = rng.uniform(-0.3, 0.3, layout.n_params)
        ev = gradient_hessian(model, point, data)

        fd_grad = np.empty(layout.n_params)
        fd_hess = np.empty((layout.n_params, layout.n_params))
        for j in range(layout.n_params):
            plus, minus = point.copy(), point.copy()
            plus[j] += step
            minus[j] -= step
            fd_grad[j] = (
                log_likelihood(model, plus, data) - log_likelihood(model, minus, data)
            ) / (2 * step)
            fd_hess[:, j] = (
                gradient_hessian(model, plus, data).gradient
                - gradient_hessian(model, minus, data).gradient
            ) / (2 * step)

        grad_err = np.abs(fd_grad - ev.gradient).max() / max(1.0, np.abs(ev.gradient).max())
        hess_err = np.abs(fd_hess - ev.hessian).max() / max(1.0, np.abs(ev.hessian).max())
        worst_grad = max(worst_grad, grad_err)
        worst_hess = max(worst_hess, hess_err)
    assert worst_grad < 1e-6, f"gradient max relative error {worst_grad:.2e}"
    assert worst_hess < 1e-4, f"Hessian max relative error {worst_hess:.2e}"
    _passed(3, f"gradient err {worst_grad:.1e} < 1e-6, Hessian err {worst_hess:.1e} < 1e-4")


def test_criterion_04_elasticity_consistency():
    """Closed-form elasticity equals finite-difference probability elasticity, 1e-6."""
    outs = sl.OutcomeSet()
    model = sl.ModelSpec(
        outs,
        (
            sl.TermSpec("constant", (1, 2)),
            sl.TermSpec("speed_limit", (1,)),  # alternative-specific: injury only
            sl.TermSpec("dark", (2,)),  # alternative-specific: fatality only
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
        seed=400,
    )
    data = sl.simulate(config)
    probs = sl.probability_matrix(model, theta, data)
    worst = 0.0
    for variable, outcome, beta in (("speed_limit", 1, 0.02), ("dark", 2, 0.6)):
        col = data.variable_names.index(variable)
        closed = (1.0 - probs[:, outcome]) * beta * data.covariate_matrix[:, col]
        fd = sl.finite_difference_elasticity(model, theta, data, variable, outcome)
        rel = np.abs(fd - closed) / np.maximum(np.abs(closed), 1e-12)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-6, f"per-observation relative error {worst:.2e}"
    _passed(4, f"closed form vs finite difference per observation: {worst:.1e} < 1e-6")


def test_criterion_05_chi_square_kernel():
    """Survival function within 1e-10 of adaptive quadrature; df=2 closed form to 1e-12."""

    def quad_sf(x, df):
        def density(t):
            return (
                t ** (df / 2.0 - 1.0)
                * math.exp(-t / 2.0)
                / (2.0 ** (df / 2.0) * math.gamma(df / 2.0))
            )

        value, _ = integrate.quad(density, x, np.inf, limit=300)
        return value

    worst = 0.0
    for df in (1, 2, 5, 20):
        for x in (0.001, 1.0, 3.841, 10.0, 50.0):
            worst = max(worst, abs(sl.chi_square_sf(x, df) - quad_sf(x, df)))
    assert worst < 1e-10, f"quadrature disagreement {worst:.2e}"
    for x in (0.001, 1.0, 3.841, 10.0, 50.0):
        assert abs(sl.chi_square_sf(x, 2) - math.exp(-x / 2.0)) < 1e-12
    _passed(5, f"grid vs quadrature within {worst:.1e}; df=2 closed form to 1e-12")


@pytest.fixture(scope="module")
def split_setup(recovery_model):
    model, theta, covariates = recovery_model
    seg_a = sl.SegmentKey(road_class="interstate", location="rural")
    seg_b = sl.SegmentKey(road_class="county-road", location="rural")

    def replicate(seed, theta_b=None):
        config = sl.GeneratorConfig(
            model,
            theta,
            5000,
            covariates,
            segments=(
                sl.SegmentComponent(seg_a, 0.5),
                sl.SegmentComponent(seg_b, 0.5, theta_b),
            ),
            seed=seed,
        )
        data = sl.simulate(config)
        pooled = sl.estimate(model, data)
        parts = sl.partition(data, ("road_class",))
        components = [
            (fit.ll_converged, fit.n_params)
            for fit in (sl.estimate(model, cell) for cell in parts.values())
        ]
        return sl.lr_split_test(pooled.ll_converged, pooled.n_params, components)

    return model, theta, covariates, replicate


def test_criterion_06_lr_null_calibration_and_power(split_setup):
    """Null rejection rate 5% +- 3% at 95%; >= 90% power under a 5-SE shift; < 10 min."""
    model, theta, covariates, replicate = split_setup
    started = time.monotonic()

    null_rejections = sum(replicate(1000 + i).reject(0.95) for i in range(200))
    rate = null_rejections / 200.0
    assert 0.02 <= rate <= 0.08, f"null rejection rate {rate:.3f} outside [0.02, 0.08]"

    # shift one coefficient by 5 estimated standard errors at the subset scale
    pilot_config = sl.GeneratorConfig(model, theta, 2500, covariates, seed=99)
    pilot = sl.estimate(model, sl.simulate(pilot_config))
    layout = sl.build_layout(model)
    slot = layout.slot_names().index("dark:fatality")
    shifted = theta.values.copy()
    shifted[slot] += 5.0 * pilot.std_errors[slot]

    power_rejections = sum(replicate(5000 + i, shifted).reject(0.95) for i in range(200))
    power = power_rejections / 200.0
    elapsed = time.monotonic() - started
    assert power >= 0.90, f"power {power:.3f} under the 5-SE shift"
    assert elapsed < 600.0, f"calibration took {elapsed:.0f}s"
    _passed(
        6,
        f"null rejects {rate:.1%} (target 5% +- 3%), power {power:.1%} >= 90%, "
        f"{elapsed:.0f}s < 10 min",
    )


def test_criterion_07_temporal_stability_analogue():
    """Two same-theta years: null retained at the 70% level in >= 60 of 100 replications."""
    outs = sl.OutcomeSet()
    model = sl.ModelSpec(
        outs,
        (
            sl.TermSpec("constant", (1, 2)),
            sl.TermSpec("speed_limit", (1, 2), shared=True),
        ),
    )
    layout = sl.build_layout(model)
    theta = sl.ParameterVector.from_dict(
        layout,
        {
            "constant:injury": -2.0,
            "constant:fatality": -4.0,
            "speed_limit:injury+fatality": 0.025,
        },
    )
    covariates = {"speed_limit": sl.UniformDist(25, 70)}

    retained = 0
    for i in range(100):
        early = sl.simulate(sl.GeneratorConfig(model, theta, 2000, covariates, seed=42_000 + i))
        late = sl.simulate(
            sl.GeneratorConfig(model, theta, 2000, covariates, seed=1_042_000 + i)
        )
        fit_all = sl.estimate(model, sl.concatenate([early, late]))
        fit_a = sl.estimate(model, early)
        fit_b = sl.estimate(model, late)
        test = sl.lr_temporal_test(
            fit_all.ll_converged,
            fit_a.ll_converged,
            fit_b.ll_converged,
            fit_all.n_params,
            fit_a.n_params,
            fit_b.n_params,
        )
        retained += int(not test.reject(0.70))
    assert retained >= 60, f"null retained at 70% in only {retained}/100 replications"
    _passed(7, f"null retained at the 70% level in {retained}/100 replications")


def test_criterion_08_scale_equivariance(recovery_model):
    """Multiplying a covariate by 10 divides its estimate by 10 and changes nothing else."""
    model, theta, covariates = recovery_model
    config = sl.GeneratorConfig(model, theta, 5000, covariates, seed=800)
    data = sl.simulate(config)
    scaled_obs = tuple(
        sl.Observation(
            {**o.covariates, "speed_limit": o.covariates["speed_limit"] * 10.0},
            o.outcome,
            o.segment,
        )
        for o in data.observations
    )
    scaled = sl.Dataset(data.outcome_set, scaled_obs, data.variable_names)

    base = sl.estimate(model, data)
    rescaled = sl.estimate(model, scaled)
    layout = sl.build_layout(model)
    slot = layout.slot_names().index("speed_limit:injury+fatality")

    assert rescaled.theta_hat.values[slot] == pytest.approx(
        base.theta_hat.values[slot] / 10.0, rel=1e-6
    )
    assert rescaled.ll_converged == pytest.approx(base.ll_converged, abs=1e-6)
    assert np.abs(rescaled.t_ratios - base.t_ratios).max() < 1e-6
    probs_base = sl.probability_matrix(model, base.theta_hat, data)
    probs_scaled = sl.probability_matrix(model, rescaled.theta_hat, scaled)
    assert np.abs(probs_base - probs_scaled).max() < 1e-6

    # LR statistics built from the fits are unchanged as well
    half = data.n_obs // 2
    def lr_stat(ds, pooled_fit):
        first = sl.Dataset(ds.outcome_set, ds.observations[:half], ds.variable_names)
        second = sl.Dataset(ds.outcome_set, ds.observations[half:], ds.variable_names)
        fit_1 = sl.estimate(model, first)
        fit_2 = sl.estimate(model, second)
        return sl.lr_split_test(
            pooled_fit.ll_converged,
            pooled_fit.n_params,
            [(fit_1.ll_converged, fit_1.n_params), (fit_2.ll_converged, fit_2.n_params)],
        ).statistic

    assert lr_stat(scaled, rescaled) == pytest.approx(lr_stat(data, base), abs=1e-6)
    _passed(8, "estimates rescale; LL, t-ratios, probabilities, LR statistic invariant to 1e-6")


def test_criterion_09_report_shapes():
    """Elasticity table reproduces the segment-table column structure; summary the
    speed-band rows; both against golden files."""
    outs = sl.OutcomeSet()
    model = sl.ModelSpec(
        outs,
        (
            sl.TermSpec("constant", (1, 2)),
            sl.TermSpec("speed_limit", (1, 2), shared=True),
            sl.TermSpec("curve", (1, 2)),
        ),
    )
    layout = sl.build_layout(model)
    theta = sl.ParameterVector.from_dict(
        layout,
        {
            "constant:injury": -1.3464,
            "constant:fatality": -5.2614,
            "speed_limit:injury+fatality": 0.0396,
            "curve:injury": 0.0089,
            "curve:fatality": 0.5100,
        },
    )
    t_by_name = {
        "constant:injury": -21.40,
        "constant:fatality": -18.20,
        "curve:fatality": 2.43,
        "curve:injury": 0.32,
        "speed_limit:injury+fatality": 5.48,
    }
    result = sl.EstimationResult(
        theta_hat=theta,
        covariance=np.eye(5),
        t_ratios=np.array([t_by_name[n] for n in layout.slot_names()]),
        ll_converged=-100.0,
        ll_null=-120.0,
        ll_zero=-140.0,
        iterations=5,
        converged=True,
        gradient_max=1e-9,
        n_obs=4,
    )
    obs = tuple(
        sl.Observation({"speed_limit": s, "curve": c}, o)
        for s, c, o in ((55.0, 0.0, 0), (55.0, 1.0, 1), (40.0, 0.0, 1), (65.0, 1.0, 2))
    )
    data = sl.Dataset(outs, obs, ("speed_limit", "curve"))
    report = sl.elasticity_report(model, result, data)
    rendered = render_elasticity(elasticity_record(report))
    assert rendered == (GOLDEN / "elasticity_table.txt").read_text()
    # structural assertions on top of the golden bytes
    assert rendered.count("0.0396(5.48)") == 2  # shared slot prints in both outcome columns
    insignificant = report.cell("curve", 1)
    assert insignificant.elasticity is None  # blank cell in the table

    bands = [
        (25.0, (806, 192, 2)),
        (45.0, (753, 243, 4)),
        (57.0, (778, 213, 9)),
        (68.0, (819, 174, 7)),
    ]
    rows = []
    for speed, (pdo, inj, fat) in bands:
        rows += [sl.Observation({"speed_limit": speed}, 0)] * pdo
        rows += [sl.Observation({"speed_limit": speed}, 1)] * inj
        rows += [sl.Observation({"speed_limit": speed}, 2)] * fat
    summary_data = sl.Dataset(sl.OutcomeSet(), tuple(rows), ("speed_limit",))
    summary = sl.summarize(summary_data, bins=[30, 50, 60])
    rendered_summary = render_summary(summary_record(summary))
    assert rendered_summary == (GOLDEN / "summary_table.txt").read_text()
    for band in ("<= 30", "(30, 50]", "(50, 60]", "> 60"):
        assert band in rendered_summary
    _passed(9, "elasticity and summary tables match golden files")


def test_criterion_10_determinism(tmp_path, recovery_model):
    """Identical seeds and flags produce byte-identical structured outputs."""
    model, theta, covariates = recovery_model
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(model_spec_to_dict(model)))
    gen_path = tmp_path / "gen.json"
    gen_path.write_text(
        json.dumps(
            {
                "model": "spec.json",
                "theta": list(theta.values),
                "n": 2000,
                "seed": 4242,
                "covariates": {
                    "speed_limit": {"dist": "uniform", "low": 25, "high": 70},
                    "curve": {"dist": "indicator", "p": 0.3},
                    "dark": {"dist": "indicator", "p": 0.25},
                },
            }
        )
    )
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["simulate", "--config", str(gen_path), "--out", str(csv_a)]) == 0
    assert cli_main(["simulate", "--config", str(gen_path), "--out", str(csv_b)]) == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()

    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for target in (out_a, out_b):
        code = cli_main(
            [
                "estimate",
                "--data", str(csv_a),
                "--model", str(spec_path),
                "--format", "records",
                "--out", str(target),
            ]
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    _passed(10, "simulate CSV and estimation records byte-identical across repeated runs")
