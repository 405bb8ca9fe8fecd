"""Workload definitions shared by `run.py` and its child.

Every workload runs the CLI stages gen -> split -> <fit> -> report, where
<fit> is `train` or `ablate`. The inputs are derived from the workload seed
only: the generator spec seed is 11 + seed (so seed 0 is the stock default
spec) and the experiment seed is the workload seed itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

K = 3
SPEC_SEED_OFFSET = 11


@dataclass(frozen=True)
class Workload:
    name: str
    n_examples: int
    config: dict           # experiment config minus "seed"
    fit: str               # "train" or "ablate"
    why: str

    def spec(self, seed: int) -> dict:
        return {
            "n_examples": self.n_examples,
            "n_features": 20,
            "n_labels": 14,
            "planted_edges": [[0, 1, 2.0], [2, 3, 2.0], [4, 5, 2.0]],
            "noise_scale": 1.0,
            "seed": SPEC_SEED_OFFSET + seed,
        }

    def cfg(self, seed: int) -> dict:
        return {**self.config, "seed": seed}

    def write_inputs(self, workdir: Path, seed: int) -> "Paths":
        workdir.mkdir(parents=True, exist_ok=True)
        paths = Paths(workdir)
        paths.spec.write_text(json.dumps(self.spec(seed), indent=2) + "\n")
        paths.config.write_text(json.dumps(self.cfg(seed), indent=2) + "\n")
        return paths

    def stages(self, paths: "Paths", seed: int) -> list[tuple[str, list[str]]]:
        """(stage name, cli argv) in the order a user would run them."""
        data, run = str(paths.data), str(paths.run)
        return [
            ("gen", ["gen", "--spec", str(paths.spec), "--out", data]),
            ("split", ["split", "--data", data, "--k", str(K), "--seed", str(seed),
                       "--method", "mis", "--out", str(paths.folds)]),
            (self.fit, [self.fit, "--data", data, "--config", str(paths.config),
                        "--out", run]),
            ("report", ["report", "--run", run]),
        ]

    def arm_dirs(self, paths: "Paths") -> list[Path]:
        """Run directories holding a report.json after the fit stage."""
        if self.fit == "ablate":
            return [paths.run / "with_refinement", paths.run / "no_refinement"]
        return [paths.run]


class Paths:
    """File layout of one pipeline iteration inside its working directory."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.spec = workdir / "spec.json"
        self.config = workdir / "config.json"
        self.data = workdir / "data.csv"
        self.folds = workdir / "folds.csv"
        self.run = workdir / "run"


# `patience` equals `epochs` so that early stopping never cuts a run short:
# every seed then does the same number of optimizer steps, and stage times
# are comparable across seeds. At seed 0 no fold stops early either way.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="default-6k",
        n_examples=6000,
        config={"epochs": 20, "patience": 20},
        fit="train",
        why="default spec, 20 epochs of ASL at batch 24: 10,020 tiny optimizer steps, "
            "so per-step dispatch in optim/losses/predictor/coupling dominates",
    ),
    Workload(
        name="rows-60k",
        n_examples=60000,
        config={"epochs": 1},
        fit="train",
        why="60k rows, 1 epoch: CSV save/load, mis_split and eval over 20k-row "
            "validation sets dominate; training is a minority",
    ),
    Workload(
        name="ablate-bce-b256",
        n_examples=6000,
        config={"loss_kind": "WeightedBCE", "batch_size": 256, "epochs": 40,
                "patience": 40},
        fit="ablate",
        why="weighted BCE at batch 256, refinement on and off: larger BLAS calls, "
            "coupling bypassed in one arm, per-epoch macro_auc a large share",
    ),
)}
