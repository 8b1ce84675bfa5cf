"""The benchmark's tracer finds every call site it wraps.

perfbench/tracing.py patches sevlogit's functions by module and name. A
refactor that drops one of those names makes the per-layer metrics built on
it read null, so it must fail here instead.
"""

import importlib.util
from pathlib import Path

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
