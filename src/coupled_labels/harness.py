"""Experiment orchestration: K-fold stratified training with early stopping
and best-checkpoint selection, cross-fold ensembling, ablation, and report
assembly.

All training goes through `train_folds`: a list of runs (fold, seed, rows,
refinement on or off) cut into shards of one refinement flag, each shard
in lockstep, one shard per CPU through `datamodel.split_work` where the
runs divide evenly. One `train_step` per batch position advances every
model of a shard that has a full batch there, and each model computes bit
for bit what it would compute trained alone.

Reports are fully deterministic for a given (dataset, config, seed): no
timestamps, fixed key order, repr-exact floats.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

from . import metrics
from .coupling import new_coupling, refine_forward, save_coupling_csv
from .datamodel import (
    CoupledLabelsError,
    Dataset,
    ExperimentConfig,
    fork_cpus,
    read_json,
    save_config,
    split_work,
    validate_config,
    write_json,
)
from .losses import compute_pos_weights
from .optim import (
    Schedule,
    StepLog,
    TrainState,
    init_train_state,
    save_train_log,
    stack_states,
    train_step,
)
from .predictor import PredictorParams, init_params, predict_forward, save_checkpoint
from .stratify import FoldAssignment, mis_split, save_folds


class HarnessError(CoupledLabelsError):
    pass


# Equal-width probability bins per label in a report's histograms.
HISTOGRAM_BINS = 20
# |A| at or below this counts as a near-zero coupling in the ablation summary.
NEAR_ZERO = 0.05


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def predict_probs(params: PredictorParams, A: np.ndarray | None, alpha: float, x,
                  batch_size: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Probabilities (post-refinement sigmoid), chunked, written into the
    (n, L) float64 `out` if one is given; without a coupling matrix `A` the
    logits are not refined."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    step = n if batch_size is None else max(1, batch_size)
    if out is None:
        out = np.empty((n, params.n_labels))
    for lo in range(0, n, step):
        chunk = x[lo:lo + step]
        z, _ = predict_forward(chunk, params)
        if A is not None:
            z, _ = refine_forward(z, A, alpha)
        expit(z, out=out[lo:lo + step])
    return out


# ---------------------------------------------------------------------------
# per-fold training
# ---------------------------------------------------------------------------


@dataclass
class FoldResult:
    fold: int
    best_epoch: int
    best_val_macro_auc: float
    epochs_run: int
    skipped_steps: int
    checkpoint_params: PredictorParams       # EMA weights at the best epoch
    checkpoint_coupling: np.ndarray | None   # EMA coupling matrix, None without refinement
    val_auc: metrics.AucReport
    train_log: list[StepLog]


@dataclass
class _Run:
    """One model: its place in the caller's list, data rows, shuffle
    stream, one-model starting state and early-stopping record."""

    index: int
    fold: int
    train_idx: np.ndarray
    val_idx: np.ndarray
    rng_shuffle: np.random.Generator
    state: TrainState
    best: FoldResult | None = None
    epochs_without_improvement: int = 0


def _plan_shards(refine: list[bool]) -> tuple[list[list[int]], bool]:
    """Cut the run indices into shards of one refinement flag each, and say
    whether to split them across processes with `split_work`.

    Split shards are W of one size, for the largest W up to `fork_cpus`
    that the runs and their flag groups divide evenly: a process with more
    models than another would keep the others waiting. Without such a W,
    each flag group trains as one shard in this process.
    """
    groups = [g for g in ([i for i, r in enumerate(refine) if r == flag]
                          for flag in (True, False)) if g]
    n = len(refine)
    for w in range(min(fork_cpus(), n), 1, -1):
        size = n // w
        if n % w == 0 and all(len(g) % size == 0 for g in groups):
            return [g[i:i + size] for g in groups for i in range(0, len(g), size)], True
    return groups, False


def fold_runs(assign: FoldAssignment, seed: int, refine: bool) -> list[tuple]:
    """The K runs of one experiment for `train_folds`: fold k validates on
    its own rows, trains on the rest, and has seed `seed + k`."""
    return [(k, seed + k, np.flatnonzero(assign.fold_of != k), assign.indices(k), refine)
            for k in range(assign.K)]


def train_folds(features, labels, runs, cfg: ExperimentConfig) -> list[FoldResult]:
    """Train one model per run and return their results in the order of
    `runs`.

    `runs` holds (fold index, seed, train row indices, validation row
    indices, refine) into the shared `features` and `labels`; `refine` says
    whether the model has the coupling layer, whatever
    `cfg.refinement_enabled` says. Each model has its own seed streams,
    schedule, Adam clock and early stopping: per-epoch validation on EMA
    weights, keep the best checkpoint, stop after `patience` epochs without
    improvement.

    The models of one refinement flag train in lockstep, in even shards
    split across processes by `split_work`, or as one shard per flag in
    this process (`_plan_shards`). Every model computes the same bits
    either way, and a failure names the first failing run in the order of
    `runs`.
    """
    cfg = validate_config(cfg)
    if not runs:
        raise HarnessError("no runs to train")
    models = [_new_run(features, labels, i, run, cfg) for i, run in enumerate(runs)]
    plan, forked = _plan_shards([run[4] for run in runs])
    shards = [[models[i] for i in shard] for shard in plan]

    def train(s: int) -> list[tuple]:
        return _train_lockstep(features, labels, shards[s], cfg)

    trained = split_work(train, len(shards)) if forked else map(train, range(len(shards)))
    outcomes = sorted((pair for shard in trained for pair in shard), key=lambda pair: pair[0])
    for _, outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return [outcome for _, outcome in outcomes]


def _new_run(features, labels, index: int, run: tuple, cfg: ExperimentConfig) -> _Run:
    fold, seed, train_idx, val_idx, refine = run
    n_train = train_idx.shape[0]
    if n_train < 1 or val_idx.shape[0] < 1:
        raise HarnessError(f"fold {fold}: empty train or validation subset")
    # Child 2 seeds the shuffle stream and child 1 goes unused: spawning
    # fewer than three would change the shuffles and every trained result.
    init_seed, _, shuffle_seed = np.random.SeedSequence(seed).spawn(3)
    rng_shuffle = np.random.default_rng(shuffle_seed)
    predictor = init_params(features.shape[1], labels.shape[1], np.random.default_rng(init_seed))
    A = new_coupling(labels.shape[1]) if refine else None
    steps_per_epoch = math.ceil(n_train / cfg.batch_size)
    total_steps = steps_per_epoch * cfg.epochs
    if total_steps < 2:
        raise HarnessError(f"fold {fold}: schedule needs at least 2 steps, got {total_steps}")
    schedule = Schedule(
        warmup_steps=min(steps_per_epoch, total_steps - 1),
        total_steps=total_steps,
    )
    pos_weight = (compute_pos_weights(labels[train_idx])
                  if cfg.loss_kind == "WeightedBCE" else None)
    state = init_train_state(predictor, A, schedule, cfg, pos_weight=pos_weight)
    return _Run(index, fold, train_idx, val_idx, rng_shuffle, state)


def _train_lockstep(features, labels, runs: list[_Run], cfg: ExperimentConfig) -> list[tuple]:
    """Train the runs' models together and return (run index, result)
    pairs in run order, or the first failing run's (run index, error).
    One `train_step` per batch position advances every model that has a
    full batch there; ragged tails step alone."""
    bs = cfg.batch_size
    # Buffer rows go in falling order of full batches per epoch, so the
    # models with a full batch at a position are always a leading slice.
    runs = sorted(runs, key=lambda run: -(run.train_idx.shape[0] // bs))
    state = stack_states([run.state for run in runs])
    eval_batch = bs * cfg.eval_batch_multiplier
    results = []

    for epoch in range(1, cfg.epochs + 1):
        sizes = [run.train_idx.shape[0] for run in runs]
        full = [n // bs for n in sizes]
        rows = np.zeros((len(runs), max(sizes)), dtype=np.intp)
        for i, run in enumerate(runs):
            rows[i, :sizes[i]] = run.train_idx[run.rng_shuffle.permutation(sizes[i])]
        models = {(0, len(runs)): state}   # (first row, end row) -> those models
        for j in range(math.ceil(max(sizes) / bs)):
            lo, hi = j * bs, (j + 1) * bs
            c = sum(f > j for f in full)
            # (first row, end row, end column): the full batches, then ragged tails
            groups = [(0, c, hi)] if c else []
            groups += [(i, i + 1, n) for i, (f, n) in enumerate(zip(full, sizes))
                       if f == j and n > lo]
            for a, b, end in groups:
                if (a, b) not in models:
                    models[a, b] = state.select(slice(a, b))
                batch = rows[a:b, lo:end]
                train_step(features[batch], labels[batch], models[a, b], cfg)

        stopped = []
        for i in sorted(range(len(runs)), key=lambda i: runs[i].index):
            run = runs[i]
            params, A = state.ema_snapshot(i)
            val_probs = predict_probs(params, A, cfg.alpha, features[run.val_idx],
                                      batch_size=eval_batch)
            try:
                report = metrics.macro_auc(val_probs, labels[run.val_idx])
            except metrics.UndefinedAucError as exc:
                return [(run.index, HarnessError(f"fold {run.fold}: {exc}"))]
            if run.best is None or report.macro_auc > run.best.best_val_macro_auc:
                run.best = FoldResult(
                    fold=run.fold, best_epoch=epoch, best_val_macro_auc=report.macro_auc,
                    epochs_run=0, skipped_steps=0, checkpoint_params=params,
                    checkpoint_coupling=A, val_auc=report, train_log=state.logs[i],
                )
                run.epochs_without_improvement = 0
            else:
                run.epochs_without_improvement += 1
                if run.epochs_without_improvement >= cfg.patience:
                    stopped.append(i)
        if epoch == cfg.epochs:
            stopped = list(range(len(runs)))
        results += [(runs[i].index, dataclasses.replace(runs[i].best, epochs_run=epoch,
                                                        skipped_steps=int(state.skips[i])))
                    for i in stopped]
        keep = [i for i in range(len(runs)) if i not in stopped]
        if not keep:
            break
        if stopped:
            runs = [runs[i] for i in keep]
            state = stack_states([state.select(slice(i, i + 1)) for i in keep])
    return sorted(results, key=lambda pair: pair[0])


# ---------------------------------------------------------------------------
# full experiment
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    config: ExperimentConfig
    label_names: list[str]
    assignment: FoldAssignment
    fold_results: list[FoldResult]
    ensemble_source: str               # "test" | "oof"
    ensemble_auc: metrics.AucReport
    coupling_mean: np.ndarray | None
    agreement: metrics.FoldAgreement
    per_label_std: np.ndarray
    correlation: np.ndarray
    histograms: np.ndarray

    def to_json_dict(self) -> dict:
        return _jsonify({
            "config": self.config.to_json_dict(),
            "label_names": self.label_names,
            "fold_assignment": self.assignment.fold_of.tolist(),
            "folds": [
                {
                    "fold": fr.fold,
                    "best_epoch": fr.best_epoch,
                    "best_val_macro_auc": fr.best_val_macro_auc,
                    "epochs_run": fr.epochs_run,
                    "skipped_steps": fr.skipped_steps,
                    "val_auc": fr.val_auc.to_json_dict(),
                }
                for fr in self.fold_results
            ],
            "ensemble": {
                "source": self.ensemble_source,
                "auc": self.ensemble_auc.to_json_dict(),
            },
            "coupling_mean": None if self.coupling_mean is None else self.coupling_mean.tolist(),
            "diagnostics": {
                "fold_agreement": self.agreement.to_json_dict(),
                "per_label_fold_std": self.per_label_std.tolist(),
                "pearson_correlation": self.correlation.tolist(),
                "probability_histograms": {
                    "bins": HISTOGRAM_BINS,
                    "counts": self.histograms.tolist(),
                },
            },
        })


def _jsonify(obj):
    """Recursively replace NaN/Inf floats with None for strict JSON."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def run_experiment(dataset: Dataset, cfg: ExperimentConfig,
                   test_dataset: Dataset | None = None) -> RunReport:
    """Stratified K-fold training plus fold-ensemble evaluation."""
    cfg, assign = _split(dataset, cfg, test_dataset)
    fold_results = train_folds(dataset.features, dataset.labels,
                               fold_runs(assign, cfg.seed, cfg.refinement_enabled), cfg)
    return experiment_report(dataset, cfg, assign, fold_results, test_dataset=test_dataset)


def _split(dataset: Dataset, cfg: ExperimentConfig,
           test_dataset: Dataset | None) -> tuple[ExperimentConfig, FoldAssignment]:
    cfg = validate_config(cfg)
    if test_dataset is not None and test_dataset.n_labels != dataset.n_labels:
        raise HarnessError("train and test datasets disagree on label count")
    return cfg, mis_split(dataset.labels, cfg.K, cfg.seed)


def experiment_report(dataset: Dataset, cfg: ExperimentConfig, assign: FoldAssignment,
                      fold_results: list[FoldResult],
                      test_dataset: Dataset | None = None) -> RunReport:
    """The report of one experiment from its K trained fold models.

    With a test dataset, fold models are ensembled (arithmetic mean) on it.
    Without one, the headline AUC, correlations and histograms come from
    out-of-fold predictions, while agreement/variability diagnostics use the
    fold models' predictions on the full feature matrix (they need common
    inputs). Each fold model predicts straight into its slot of one
    (K, n, L) stack, which every diagnostic reads without copying; the
    report keeps what is computed from the stack, not the stack.
    """
    eval_batch = cfg.batch_size * cfg.eval_batch_multiplier
    if test_dataset is not None:
        eval_x, eval_labels = test_dataset.features, test_dataset.labels
    else:
        eval_x, eval_labels = dataset.features, dataset.labels
    stack = np.empty((len(fold_results),) + eval_labels.shape)
    for fr, out in zip(fold_results, stack):
        predict_probs(fr.checkpoint_params, fr.checkpoint_coupling, cfg.alpha, eval_x,
                      batch_size=eval_batch, out=out)

    if test_dataset is not None:
        source = "test"
        headline_probs = np.mean(stack, axis=0)
    else:
        source = "oof"
        headline_probs = np.empty(eval_labels.shape)
        for k in range(cfg.K):
            val_idx = assign.indices(k)
            headline_probs[val_idx] = stack[k, val_idx]
    ensemble_auc = metrics.macro_auc(headline_probs, eval_labels)

    coupling_mean = None
    if cfg.refinement_enabled:
        coupling_mean = np.mean(
            np.stack([fr.checkpoint_coupling for fr in fold_results], axis=0), axis=0
        )

    return RunReport(
        config=cfg,
        label_names=dataset.label_names,
        assignment=assign,
        fold_results=fold_results,
        ensemble_source=source,
        ensemble_auc=ensemble_auc,
        coupling_mean=coupling_mean,
        agreement=metrics.fold_agreement(stack),
        per_label_std=metrics.per_label_fold_std(stack),
        correlation=metrics.pearson_label_correlation(headline_probs),
        histograms=metrics.probability_histograms(headline_probs, bins=HISTOGRAM_BINS),
    )


# ---------------------------------------------------------------------------
# run directory
# ---------------------------------------------------------------------------


def write_run_report(report: RunReport, outdir, record: dict | None = None) -> Path:
    """Materialize a run directory: report.json, config snapshot, fold
    assignment, per-fold logs and checkpoints, mean coupling CSV.
    `record` is `report.to_json_dict()` if the caller has built it."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_json(report.to_json_dict() if record is None else record, outdir / "report.json")
    save_config(report.config, outdir / "config.json")
    save_folds(report.assignment, outdir / "folds.csv")
    cfg_hash = report.config.hash()
    for fr in report.fold_results:
        save_train_log(fr.train_log, outdir / f"fold{fr.fold}_train_log.csv")
        save_checkpoint(outdir / "checkpoints" / f"fold{fr.fold}.json",
                        fr.checkpoint_params, fr.checkpoint_coupling, cfg_hash)
    if report.coupling_mean is not None:
        save_coupling_csv(report.coupling_mean, report.label_names,
                          outdir / "coupling_mean.csv")
    return outdir


def read_report_json(rundir) -> dict:
    path = Path(rundir) / "report.json"
    if not path.exists():
        raise HarnessError(f"no report.json under {rundir}")
    return read_json(path)


# ---------------------------------------------------------------------------
# ablation
# ---------------------------------------------------------------------------


@dataclass
class AblationResult:
    refined: RunReport
    baseline: RunReport

    def comparison(self) -> dict:
        A = self.refined.coupling_mean
        off = A[~np.eye(A.shape[0], dtype=bool)]
        summary = {
            "n_positive": int((off > NEAR_ZERO).sum()),
            "n_negative": int((off < -NEAR_ZERO).sum()),
            "n_near_zero": int((np.abs(off) <= NEAR_ZERO).sum()),
            "near_zero_threshold": NEAR_ZERO,
        }
        return _jsonify({
            "macro_auc_refined": self.refined.ensemble_auc.macro_auc,
            "macro_auc_baseline": self.baseline.ensemble_auc.macro_auc,
            "delta": self.refined.ensemble_auc.macro_auc - self.baseline.ensemble_auc.macro_auc,
            "source": self.refined.ensemble_source,
            "coupling_sign_summary": summary,
        })


def run_ablation(dataset: Dataset, cfg: ExperimentConfig,
                 test_dataset: Dataset | None = None) -> AblationResult:
    """Same data, folds and seeds, refinement on vs off: both arms' 2K
    models train in one `train_folds` call."""
    cfg, assign = _split(dataset, cfg, test_dataset)
    cfg_on = dataclasses.replace(cfg, refinement_enabled=True)
    cfg_off = dataclasses.replace(cfg, refinement_enabled=False)
    results = train_folds(dataset.features, dataset.labels,
                          fold_runs(assign, cfg.seed, True) + fold_runs(assign, cfg.seed, False),
                          cfg)
    return AblationResult(
        refined=experiment_report(dataset, cfg_on, assign, results[:cfg.K],
                                  test_dataset=test_dataset),
        baseline=experiment_report(dataset, cfg_off, assign, results[cfg.K:],
                                   test_dataset=test_dataset),
    )
