"""Correctness checks on the files a pipeline iteration leaves behind.

Every check is counted as attempted; a failed one raises `failed_ratio`
and makes the run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Checks:
    results: list[tuple[str, bool, str]] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return ok

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.results if not ok]


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class IterationOutputs:
    """What `run.py` reads back from one finished iteration."""

    digests: dict[str, str]        # file label -> sha256
    steps: int                     # optimizer steps in the fit stage
    skipped_steps: int
    epochs_run: int
    wasted_epochs: int             # sum over folds of epochs_run - best_epoch
    macro_auc: float               # ensemble macro-AUC (refined arm for ablate)
    delta: float | None            # ablation delta, None for train


def _train_log_counts(rundir: Path) -> tuple[int, int]:
    steps = skipped = 0
    for log in sorted(rundir.glob("fold*_train_log.csv")):
        with open(log, newline="") as fh:
            for row in csv.DictReader(fh):
                steps += 1
                skipped += row["skipped"] == "1"
    return steps, skipped


def check_iteration(checks: Checks, tag: str, stage_names: list[str], stages: list[dict],
                    paths, arm_dirs: list[Path]) -> IterationOutputs | None:
    """Checks on one iteration; returns its outputs, or None when a stage
    failed and there is nothing to read."""
    ran = {s["name"]: s["rc"] for s in stages}
    all_ok = True
    for name in stage_names:
        all_ok &= checks.record(f"{tag} stage {name} exits 0", ran.get(name) == 0,
                                f"exit code {ran.get(name, 'not run')}")
    if not all_ok:
        return None

    digests = {"data.csv": sha256(paths.data)}
    ablation = paths.run / "ablation.json"
    reports = [ablation] if ablation.exists() else []
    reports += [d / "report.json" for d in arm_dirs]
    parsed = {}
    for path in reports:
        label = str(path.relative_to(paths.run))
        try:
            parsed[label] = json.loads(path.read_text())
            ok, detail = True, ""
        except (OSError, json.JSONDecodeError) as exc:
            ok, detail = False, str(exc)
        if not checks.record(f"{tag} {label} parses", ok, detail):
            return None
        digests[label] = sha256(path)

    split_folds = sha256(paths.folds)
    for d in arm_dirs:
        checks.record(f"{tag} split folds equal {d.name}/folds.csv",
                      sha256(d / "folds.csv") == split_folds)

    steps = skipped = epochs_run = wasted = 0
    for d in arm_dirs:
        s, k = _train_log_counts(d)
        steps += s
        skipped += k
        report = parsed[str((d / "report.json").relative_to(paths.run))]
        for fold in report["folds"]:
            epochs_run += fold["epochs_run"]
            wasted += fold["epochs_run"] - fold["best_epoch"]
    first = parsed[str((arm_dirs[0] / "report.json").relative_to(paths.run))]
    comparison = parsed.get("ablation.json")
    return IterationOutputs(
        digests=digests,
        steps=steps,
        skipped_steps=skipped,
        epochs_run=epochs_run,
        wasted_epochs=wasted,
        macro_auc=first["ensemble"]["auc"]["macro_auc"],
        delta=None if comparison is None else comparison["delta"],
    )


def check_same_digests(checks: Checks, outputs: list[IterationOutputs]) -> None:
    """Every iteration of one invocation must write byte-identical files."""
    reference = outputs[0].digests
    for i, out in enumerate(outputs[1:], start=1):
        for label, digest in out.digests.items():
            checks.record(f"iteration {i} {label} sha256 equals iteration 0",
                          digest == reference.get(label),
                          f"{digest[:12]} != {str(reference.get(label))[:12]}")


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_expected(checks: Checks, out: IterationOutputs, expected: dict | None) -> None:
    """Against the recorded values where the seed has them. Other seeds only
    get a range check: after one epoch, or forty at batch 256, the EMA
    weights are still close to their initialisation and the AUC sits near
    0.5, so it may fall on either side of chance."""
    if expected is None:
        checks.record("macro-AUC is finite and in [0, 1]",
                      _finite(out.macro_auc) and 0.0 <= out.macro_auc <= 1.0,
                      repr(out.macro_auc))
        if out.delta is not None:
            checks.record("ablation delta is finite", _finite(out.delta), repr(out.delta))
        return
    tol = expected["tolerance"]
    checks.record("macro-AUC matches the recorded value",
                  _finite(out.macro_auc) and abs(out.macro_auc - expected["macro_auc"]) <= tol,
                  f"{out.macro_auc!r} vs {expected['macro_auc']!r}")
    if "delta" in expected:
        checks.record("ablation delta matches the recorded value",
                      _finite(out.delta) and abs(out.delta - expected["delta"]) <= tol,
                      f"{out.delta!r} vs {expected['delta']!r}")


def check_dataset_matches_generator(checks: Checks, paths) -> None:
    """`load_dataset(data.csv)` must equal `generate(spec)` bit for bit."""
    import numpy as np
    from coupled_labels import synthgen
    from coupled_labels.datamodel import load_dataset

    loaded = load_dataset(paths.data)
    generated = synthgen.generate(synthgen.load_spec(paths.spec))
    for part in ("features", "labels"):
        a, b = getattr(loaded, part), getattr(generated, part)
        same = a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))
        checks.record(f"data.csv {part} equal generate(spec) bit for bit", same)
