"""The benchmark reads the package by name: its tracer wraps package
functions (`perfbench/tracer.py::TARGETS`) and its ablation workload reads
the arms' run directories (`perfbench/workloads.py::Workload.arm_dirs`).
A target that no longer resolves is skipped silently and its per-layer
metrics read 0, and a renamed or reordered arm shows only as a drop of
`pass_ratio`, so either change must fail here instead."""

import importlib.util
import sys
from pathlib import Path

from coupled_labels import harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Targets whose functions are already gone; the next benchmark change drops them.
STALE = {"optim.enforce_zero_diag", "harness.run_fold", "harness.predict_with_views"}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load("tracer").Tracer()
    try:
        missing = tracer.install()
    finally:
        tracer.uninstall()
    assert set(missing) <= STALE, sorted(set(missing) - STALE)


def test_ablation_arms_are_the_benchmark_arm_dirs():
    workloads = _load("workloads")
    paths = workloads.Paths(Path("work"))
    dirs = workloads.WORKLOADS["ablate-bce-b256"].arm_dirs(paths)
    assert [d.relative_to(paths.run).as_posix() for d in dirs] == list(harness.ABLATION_ARMS)
