"""The benchmark's tracer finds every call site it wraps.

perfbench/tracing.py patches sevlogit's functions by module and name. A
refactor that drops one of those names makes the per-layer metrics built on
it read null, so it must fail here instead.
"""

import importlib.util
from pathlib import Path

import numpy as np

import sevlogit as sl
import sevlogit.cli
import sevlogit.data

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_call_site_is_found():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == {}
        assert sevlogit.cli.partition is not sevlogit.data.partition
    finally:
        tracer.uninstall()
    assert sevlogit.cli.partition is sevlogit.data.partition


def _results(model, config):
    # a fresh dataset each time: covariate_matrix is cached per instance
    data = sl.simulate(config)
    fit = sl.estimate(model, data)
    return data.covariate_matrix, fit, sl.partition(data, ("road_class",))


def test_tracing_does_not_change_results(speed_model, speed_theta):
    config = sl.GeneratorConfig(
        speed_model,
        speed_theta,
        3000,
        {"speed_limit": sl.UniformDist(25, 70), "curve": sl.IndicatorDist(0.3)},
        segments=(
            sl.SegmentComponent(sl.SegmentKey(road_class="interstate"), 0.5),
            sl.SegmentComponent(sl.SegmentKey(road_class="county-road"), 0.5),
        ),
        seed=4,
    )
    matrix, fit, parts = _results(speed_model, config)
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        traced_matrix, traced_fit, traced_parts = _results(speed_model, config)
    finally:
        tracer.uninstall()
    assert {span[2] for span in tracer.spans} >= {"covariate_matrix", "fit", "partition"}
    assert isinstance(traced_matrix, np.ndarray)
    assert np.array_equal(traced_matrix, matrix)
    assert np.array_equal(traced_fit.theta_hat.values, fit.theta_hat.values)
    assert np.array_equal(traced_fit.covariance, fit.covariance)
    assert traced_fit.ll_converged == fit.ll_converged
    assert traced_fit.iterations == fit.iterations
    assert list(traced_parts) == list(parts)
    assert all(traced_parts[key] == parts[key] for key in parts)
