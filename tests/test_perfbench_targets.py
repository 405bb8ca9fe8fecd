"""The benchmark's tracer wraps package functions by name
(`perfbench/tracer.py::TARGETS`). A target that no longer resolves is
skipped silently and its per-layer metrics read 0, so renaming a traced
function must fail here instead."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Targets whose functions are already gone; the next benchmark change drops them.
STALE = {"optim.enforce_zero_diag", "harness.run_fold"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer().Tracer()
    try:
        missing = tracer.install()
    finally:
        tracer.uninstall()
    assert set(missing) <= STALE, sorted(set(missing) - STALE)
