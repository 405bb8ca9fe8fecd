"""Tests of the benchmark's own arithmetic and bookkeeping.

Run with `python3 -m pytest perfbench/tests -q`. They start no pipeline.
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from checks import Checks, IterationOutputs, check_expected, check_same_digests  # noqa: E402
from tracer import Span, Tracer, percentile, self_times, summarize, union_length  # noqa: E402

BENCHMARK_JSON = BENCH_DIR.parent / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, "r0")


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10), (2, 3), (4, 5)]) == 10


def test_self_times_nested_and_overlapping_children():
    spans = [
        _span("root", 0.0, 10.0),          # 0
        _span("a", 1.0, 4.0, parent=0),    # 1
        _span("a.x", 1.5, 2.0, parent=1),  # 2: nested grandchild
        _span("b", 3.0, 6.0, parent=0),    # 3: overlaps a on [3, 4]
        _span("c", 9.0, 12.0, parent=0),   # 4: runs past the root's end
    ]
    selfs = self_times(spans)
    # root: children cover [1, 6] and [9, 10] -> 6 of 10
    assert selfs[0] == pytest.approx(4.0)
    assert selfs[1] == pytest.approx(2.5)
    assert selfs[2] == pytest.approx(0.5)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(3.0)


def test_self_times_of_a_proper_tree_sum_to_the_root():
    spans = [_span("root", 0.0, 8.0), _span("a", 1.0, 3.0, 0), _span("b", 1.5, 2.5, 1),
             _span("c", 4.0, 7.0, 0), _span("d", 5.0, 6.0, 3)]
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_tracer_records_parents_and_only_inside_a_root():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()                                 # no root open: not recorded
    assert tracer.spans == []
    with tracer.root("cli.train", run_id="iter0.train"):
        outer()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("cli.train", None), ("outer", 0), ("inner", 1)]
    stats, durations = summarize(tracer.spans)
    assert stats["inner"].calls == 1
    assert sum(s.self_seconds for s in stats.values()) == tracer.spans[0].duration


def test_tracer_install_restores_originals():
    import types
    module = types.ModuleType("fake_pkg.mod")
    module.f = lambda: 1
    sys.modules["fake_pkg"] = types.ModuleType("fake_pkg")
    sys.modules["fake_pkg.mod"] = module
    try:
        original = module.f
        tracer = Tracer()
        missing = tracer.install("fake_pkg", [("mod", "f", "mod.f"), ("mod", "gone", "x")])
        assert missing == ["mod.gone"]
        assert module.f is not original and module.f() == 1
        tracer.uninstall()
        assert module.f is original
    finally:
        del sys.modules["fake_pkg"], sys.modules["fake_pkg.mod"]


def test_percentile_needs_ten_samples_beyond_p99():
    assert percentile([], 50) == (None, 0)
    assert percentile(range(1, 11), 50) == (5, 5)
    value, beyond = percentile(range(999), 99, min_beyond=10)
    assert value is None and beyond == 9
    value, beyond = percentile(range(1000), 99, min_beyond=10)
    assert value == 989 and beyond == 10


def test_metric_names_use_allowed_characters():
    names = list(run.END_TO_END) + list(run.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {n: run.layer_unit(n) for n in run.PER_LAYER}
    for entry in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(entry["name"]), entry["name"]


def _outputs(digest: str) -> IterationOutputs:
    return IterationOutputs(digests={"report.json": digest, "data.csv": "d"}, steps=10,
                            skipped_steps=0, epochs_run=3, wasted_epochs=0,
                            macro_auc=0.62, delta=None)


def test_corrupted_digest_raises_failed_ratio():
    clean = Checks()
    check_same_digests(clean, [_outputs("aa"), _outputs("aa"), _outputs("aa")])
    assert clean.attempted == 4 and clean.failed_ratio == 0.0

    corrupted = Checks()
    check_same_digests(corrupted, [_outputs("aa"), _outputs("aa"), _outputs("ab")])
    assert corrupted.failed == 1
    assert corrupted.failed_ratio == pytest.approx(1 / 4)
    assert "report.json" in corrupted.failures()[0]


def test_expected_value_check_uses_the_tolerance():
    recorded = {"macro_auc": 0.62, "tolerance": 1e-6}
    ok = Checks()
    check_expected(ok, _outputs("aa"), recorded)
    assert ok.failed == 0
    off = Checks()
    check_expected(off, _outputs("aa"), {"macro_auc": 0.6201, "tolerance": 1e-6})
    assert off.failed == 1
