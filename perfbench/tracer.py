"""In-memory span tracer that wraps the package's functions from outside.

A wrapper replaces a module-level name where the caller looks it up, so
`coupled_labels.optim.predict_forward` (the training path) and
`coupled_labels.harness.predict_forward` (the evaluation path) give two
different spans around the same function. Spans are recorded only inside a
root span (one CLI stage), kept in a list, and written out at the end.
Everything runs on one thread, so a plain stack gives each span its parent.
"""

from __future__ import annotations

import csv
import functools
import importlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the parent span, None for a root
    run_id: str
    nbytes: int = 0      # bytes written, for the writers that measure it

    @property
    def duration(self) -> float:
        return self.end - self.start


def _bytes_of_path_arg(args, result) -> int:
    return Path(args[1]).stat().st_size


def _bytes_under_result(args, result) -> int:
    return sum(p.stat().st_size for p in Path(result).rglob("*") if p.is_file())


# (module under coupled_labels, attribute the caller looks up, span name)
TARGETS = (
    ("cli", "load_dataset", "datamodel.load_dataset"),
    ("cli", "save_dataset", "datamodel.save_dataset"),
    ("cli", "load_config", "datamodel.load_config"),
    ("synthgen", "generate", "synthgen.generate"),
    ("stratify", "mis_split", "stratify.mis_split"),
    ("harness", "mis_split", "stratify.mis_split"),
    ("stratify", "save_folds", "stratify.save_folds"),
    ("harness", "save_folds", "stratify.save_folds"),
    ("stratify", "split_quality", "stratify.split_quality"),
    ("optim", "predict_forward", "predictor.predict_forward.train"),
    ("harness", "predict_forward", "predictor.predict_forward.eval"),
    ("optim", "predict_backward", "predictor.predict_backward"),
    ("harness", "save_checkpoint", "predictor.save_checkpoint"),
    ("optim", "refine_forward", "coupling.refine_forward"),
    ("harness", "refine_forward", "coupling.refine_forward.eval"),
    ("optim", "refine_backward", "coupling.refine_backward"),
    ("optim", "enforce_zero_diag", "coupling.enforce_zero_diag"),
    ("harness", "save_coupling_csv", "coupling.save_coupling_csv"),
    ("losses", "asl_loss", "losses.asl_loss"),
    ("losses", "weighted_bce_loss", "losses.weighted_bce_loss"),
    ("losses", "l1_penalty", "losses.l1_penalty"),
    ("harness", "train_step", "optim.train_step"),
    ("optim", "adamw_step", "optim.adamw_step"),
    ("optim", "clip_global_norm", "optim.clip_global_norm"),
    ("optim", "ema_update", "optim.ema_update"),
    ("harness", "save_train_log", "optim.save_train_log"),
    ("metrics", "macro_auc", "metrics.macro_auc"),
    ("metrics", "fold_agreement", "metrics.fold_agreement"),
    ("metrics", "per_label_fold_std", "metrics.per_label_fold_std"),
    ("metrics", "pearson_label_correlation", "metrics.pearson_label_correlation"),
    ("metrics", "probability_histograms", "metrics.probability_histograms"),
    ("harness", "run_fold", "harness.run_fold"),
    ("harness", "predict_with_views", "harness.predict_with_views"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "run_ablation", "harness.run_ablation"),
    ("harness", "write_run_report", "harness.write_run_report"),
    ("harness", "read_report_json", "harness.read_report_json"),
)

BYTE_COUNTERS = {
    "datamodel.save_dataset": _bytes_of_path_arg,
    "harness.write_run_report": _bytes_under_result,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._run_id = ""
        self._clock = clock
        self._restore: list[tuple[object, str, object]] = []

    def _begin(self) -> tuple[int, int | None]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _end(self, sid: int, parent: int | None, name: str, start: float) -> None:
        end = self._clock()
        self._stack.pop()
        self.spans[sid] = Span(name, start, end, parent, self._run_id)

    @contextmanager
    def root(self, name: str, run_id: str):
        """Open the root span of one request (here: one CLI stage)."""
        self._run_id = run_id
        sid, parent = self._begin()
        start = self._clock()
        try:
            yield
        finally:
            self._end(sid, parent, name, start)

    def wrap(self, fn, name: str, count_bytes=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            sid, parent = self._begin()
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(sid, parent, name, start)
            if count_bytes is not None:
                span = self.spans[sid]
                self.spans[sid] = Span(span.name, span.start, span.end, span.parent,
                                       span.run_id, count_bytes(args, result))
            return result
        return traced

    def install(self, package: str = "coupled_labels", targets=TARGETS) -> list[str]:
        """Wrap every target; return the ones the package no longer has."""
        missing = []
        for module_name, attr, name in targets:
            module = importlib.import_module(f"{package}.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, BYTE_COUNTERS.get(name)))
        return missing

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "run_id", "bytes"])
            for sid, s in enumerate(self.spans):
                writer.writerow([sid, s.name, repr(s.start), repr(s.end),
                                 "" if s.parent is None else s.parent, s.run_id, s.nbytes])


def read_csv(path) -> list[Span]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [Span(r["name"], float(r["start"]), float(r["end"]),
                 None if r["parent"] == "" else int(r["parent"]), r["run_id"],
                 int(r["bytes"])) for r in rows]


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for sid, s in enumerate(spans):
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children.get(sid, ())
                   if min(b, s.end) > max(a, s.start)]
        out.append(s.duration - union_length(clipped))
    return out


def percentile(values, q: float, min_beyond: int = 0) -> tuple[float | None, int]:
    """Nearest-rank percentile and the number of samples above it. The value
    is None when fewer than `min_beyond` samples lie above it."""
    ordered = sorted(values)
    if not ordered:
        return None, 0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        return None, beyond
    return ordered[rank - 1], beyond


@dataclass
class NameStats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    nbytes: int = 0


def summarize(spans: list[Span]) -> tuple[dict[str, NameStats], dict[str, list[float]]]:
    """Per span name: call count, total and self seconds, bytes; and the
    list of call durations."""
    stats: dict[str, NameStats] = {}
    durations: dict[str, list[float]] = {}
    for s, self_s in zip(spans, self_times(spans)):
        st = stats.setdefault(s.name, NameStats())
        st.calls += 1
        st.seconds += s.duration
        st.self_seconds += self_s
        st.nbytes += s.nbytes
        durations.setdefault(s.name, []).append(s.duration)
    return stats, durations
