"""The benchmark tracer's targets name functions that exist.

``perfbench/tracing.py`` wraps each ``(module, function)`` of its
``TARGETS`` table by name; a renamed or deleted function would otherwise
only fail the benchmark's own smoke run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_exists():
    tracing = load_tracing()
    assert tracing.TARGETS
    for module_name, fn_name, _, _ in tracing.TARGETS:
        assert module_name in tracing.MODULES, module_name
        module = importlib.import_module(f"qnet_stp.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"qnet_stp.{module_name}.{fn_name}"
