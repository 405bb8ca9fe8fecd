"""Experiment orchestration: K-fold stratified training with early stopping
and best-checkpoint selection, cross-fold ensembling, ablation, report
assembly and run directories. A fold model is one mapping of named float64
arrays (`predictor`), and its checkpoint file holds exactly those arrays.

All training goes through `train_folds`: runs (fold, train rows, validation
rows, config) cut into shards of runs whose configs are equal apart from
`seed`, each shard in lockstep, one shard per CPU through `split_work`
where the runs divide evenly. One `train_step` per batch position advances
every model of a shard that has a full batch there, and each model
computes bit for bit what it would compute trained alone. Every experiment
driver is `run_experiments`, which trains any list of configs in one call.

Reports are fully deterministic for a given (dataset, config, seed): no
timestamps, fixed key order, repr-exact floats.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics
from .coupling import new_coupling, refine_forward, save_coupling_csv
from .datamodel import (
    CoupledLabelsError,
    Dataset,
    ExperimentConfig,
    _number,
    checked,
    fork_cpus,
    read_json,
    save_config,
    split_work,
    write_json,
)
from .losses import compute_pos_weights
from .optim import (
    Schedule,
    TrainLog,
    TrainState,
    init_train_state,
    save_train_log,
    stack_states,
    train_step,
)
from .predictor import PredictorShapeError, expit, init_params, predict_forward
from .stratify import FoldAssignment, mis_split, save_folds


class HarnessError(CoupledLabelsError):
    pass


# Equal-width probability bins per label in a report's histograms.
HISTOGRAM_BINS = 20
# |A| at or below this counts as a near-zero coupling in the ablation summary.
NEAR_ZERO = 0.05
# Rows per block in `predict_probs`. The output bits do not depend on it.
PREDICT_ROWS = 512


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def predict_probs(model: Mapping, alpha: float, x, out: np.ndarray | None = None) -> np.ndarray:
    """Probabilities (post-refinement sigmoid) of one model, in blocks of
    `PREDICT_ROWS` rows, written into the (n, L) float64 `out` if one is
    given; the logits are refined exactly when the model holds `A`.

    BLAS evaluates a one-row product as a matrix-vector product, which
    rounds otherwise, so a one-row block is predicted as two copies of its
    row: a row's bits do not depend on the number of rows or on its block."""
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty((x.shape[0], model["b2"].shape[-1]))
    for lo in range(0, x.shape[0], PREDICT_ROWS):
        block = x[lo:lo + PREDICT_ROWS]
        z, _ = predict_forward(block if len(block) > 1 else np.repeat(block, 2, axis=0), model)
        if "A" in model:
            z, _ = refine_forward(z, model["A"], alpha)
        expit(z[:len(block)], out=out[lo:lo + PREDICT_ROWS])
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
    checkpoint: Mapping   # EMA weights at the best epoch: W2, b2 and, if refined, A
    val_auc: metrics.AucReport
    train_log: TrainLog


@dataclass
class _Run:
    """One model: its place in the caller's list, config, data rows,
    shuffle stream, one-model starting state (until the lockstep stacks it)
    and early-stopping record."""

    index: int
    fold: int
    cfg: ExperimentConfig
    train_idx: np.ndarray
    val_idx: np.ndarray
    rng_shuffle: np.random.Generator
    state: TrainState | None
    best: FoldResult | None = None


def _plan_shards(cfgs: list[ExperimentConfig]) -> tuple[list[list[int]], bool]:
    """Cut the run indices into shards of runs whose configs are equal apart
    from `seed`, and say whether to fork them with `split_work`.

    Split shards are W of one size, for the largest W up to `fork_cpus`
    that the runs and their config groups divide evenly: a process with
    more models than another would keep the others waiting. Without such a
    W, each config group trains as one shard in this process.
    """
    keys = [dataclasses.replace(cfg, seed=0) for cfg in cfgs]
    groups = [[i for i, k in enumerate(keys) if k == key] for key in dict.fromkeys(keys)]
    n = len(cfgs)
    for w in range(min(fork_cpus(), n), 1, -1):
        size = n // w
        if n % w == 0 and all(len(g) % size == 0 for g in groups):
            return [g[i:i + size] for g in groups for i in range(0, len(g), size)], True
    return groups, False


def fold_runs(assign: FoldAssignment, cfg: ExperimentConfig) -> list[tuple]:
    """The K runs of one experiment for `train_folds`: fold k validates on
    its own rows and trains on the rest."""
    return [(k, np.flatnonzero(assign.fold_of != k), assign.indices(k), cfg)
            for k in range(assign.K)]


def train_folds(features, labels, runs) -> list[FoldResult]:
    """Train one model per run and return their results in the order of
    `runs`.

    `runs` holds (fold index, train row indices, validation row indices,
    config) into the shared `features` and `labels`. Each model has its own
    seed streams (`_new_run`), schedule, Adam clock and early stopping:
    per-epoch validation on EMA weights, keep the best checkpoint, stop
    after `patience` epochs without improvement.

    The models whose configs are equal apart from `seed` train in lockstep,
    in even shards split across processes by `split_work`, or as one shard
    per config in this process (`_plan_shards`). Every model computes the
    same bits either way, and a failure names the first failing run in the
    order of `runs`.
    """
    if not runs:
        raise HarnessError("no runs to train")
    models = [_new_run(features, labels, i, run) for i, run in enumerate(runs)]
    plan, forked = _plan_shards([model.cfg for model in models])
    shards = [[models[i] for i in shard] for shard in plan]

    def train(s: int) -> list[tuple]:
        return _train_lockstep(features, labels, shards[s])

    trained = split_work(train, len(shards)) if forked else map(train, range(len(shards)))
    outcomes = sorted((pair for shard in trained for pair in shard), key=lambda pair: pair[0])
    for _, outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return [outcome for _, outcome in outcomes]


def _new_run(features, labels, index: int, run: tuple) -> _Run:
    fold, train_idx, val_idx, cfg = run
    n_train = train_idx.shape[0]
    if n_train < 1 or val_idx.shape[0] < 1:
        raise HarnessError(f"fold {fold}: empty train or validation subset")
    # Fold k's model is seeded from cfg.seed + k. Child 1 goes unused and child
    # 2 seeds the shuffles: spawning fewer would change every trained result.
    init_seed, _, shuffle_seed = np.random.SeedSequence(cfg.seed + fold).spawn(3)
    rng_shuffle = np.random.default_rng(shuffle_seed)
    model = init_params(features.shape[1], labels.shape[1], np.random.default_rng(init_seed))
    if cfg.refinement_enabled:
        model["A"] = new_coupling(labels.shape[1])
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
    state = init_train_state(model, schedule, pos_weight=pos_weight)
    return _Run(index, fold, cfg, train_idx, val_idx, rng_shuffle, state)


def _train_lockstep(features, labels, runs: list[_Run]) -> list[tuple]:
    """Train the runs' models, whose configs are equal apart from `seed`,
    together and return (run index, result) pairs in run order, or the
    first failing run's (run index, error). One `train_step` per batch
    position advances every model that has a full batch there; ragged tails
    step alone."""
    cfg = runs[0].cfg
    bs = cfg.batch_size
    # Buffer rows go in falling order of full batches per epoch, so the
    # models with a full batch at a position are always a leading slice.
    runs = sorted(runs, key=lambda run: -(run.train_idx.shape[0] // bs))
    state = stack_states([run.state for run in runs])
    for run in runs:
        run.state = None   # the stack holds the models now
    results = []

    for epoch in range(1, cfg.epochs + 1):
        sizes = [run.train_idx.shape[0] for run in runs]
        full = [n // bs for n in sizes]
        rows = np.zeros((len(runs), max(sizes)), dtype=np.intp)
        for i, run in enumerate(runs):
            rows[i, :sizes[i]] = run.train_idx[run.rng_shuffle.permutation(sizes[i])]
        for j in range(math.ceil(max(sizes) / bs)):
            lo, hi = j * bs, (j + 1) * bs
            c = sum(f > j for f in full)
            # (first row, end row, end column): the full batches, then ragged tails
            groups = [(0, c, hi)] if c else []
            groups += [(i, i + 1, n) for i, (f, n) in enumerate(zip(full, sizes))
                       if f == j and n > lo]
            for a, b, end in groups:
                batch = rows[a:b, lo:end]
                train_step(features[batch], labels[batch],
                           state if b - a == len(runs) else state.select(slice(a, b)), cfg)

        stopped = []
        for i in sorted(range(len(runs)), key=lambda i: runs[i].index):
            run = runs[i]
            model = state.ema_snapshot(i)
            try:
                report = metrics.macro_auc(predict_probs(model, cfg.alpha, features[run.val_idx]),
                                           labels[run.val_idx])
            except metrics.UndefinedAucError as exc:
                return [(run.index, HarnessError(f"fold {run.fold}: {exc}"))]
            if run.best is None or report.macro_auc > run.best.best_val_macro_auc:
                run.best = FoldResult(
                    fold=run.fold, best_epoch=epoch, best_val_macro_auc=report.macro_auc,
                    epochs_run=0, skipped_steps=0, checkpoint=model,
                    val_auc=report, train_log=None,
                )
            elif epoch - run.best.best_epoch >= cfg.patience:
                stopped.append(i)
        if epoch == cfg.epochs:
            stopped = list(range(len(runs)))
        for i in stopped:
            log = state.log_of(i)
            results.append((runs[i].index, dataclasses.replace(
                runs[i].best, epochs_run=epoch, skipped_steps=int(log.skipped.sum()),
                train_log=log)))
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
    ensemble_auc: metrics.AucReport
    coupling_mean: np.ndarray | None
    agreement: metrics.FoldAgreement
    per_label_std: np.ndarray
    correlation: np.ndarray
    histograms: np.ndarray
    # The ensemble is scored out of fold; report.json keeps naming that.
    ensemble_source = "oof"

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


def run_experiments(dataset: Dataset, cfgs: list[ExperimentConfig]) -> list[RunReport]:
    """Each config's stratified K-fold experiment report, in order: one
    `mis_split` per distinct (K, seed), one `train_folds` call for all."""
    keys = [(cfg.K, cfg.seed) for cfg in cfgs]
    splits = {key: mis_split(dataset.labels, *key) for key in dict.fromkeys(keys)}
    # the runs' row indices are freed before the reports are built
    results = iter(train_folds(dataset.features, dataset.labels, [
        run for cfg, key in zip(cfgs, keys) for run in fold_runs(splits[key], cfg)]))
    return [experiment_report(dataset, cfg, splits[key], [next(results) for _ in range(cfg.K)])
            for cfg, key in zip(cfgs, keys)]


def run_experiment(dataset: Dataset, cfg: ExperimentConfig) -> RunReport:
    """Stratified K-fold training plus fold-ensemble evaluation."""
    return run_experiments(dataset, [cfg])[0]


def experiment_report(dataset: Dataset, cfg: ExperimentConfig, assign: FoldAssignment,
                      fold_results: list[FoldResult]) -> RunReport:
    """The report of one experiment from its K trained fold models.

    The headline AUC, correlations and histograms come from out-of-fold
    predictions: each row is scored by the model of the fold that held it
    out. The agreement and variability diagnostics compare all K models on
    every row, since they need common inputs.

    One pass over blocks of rows, of at most `metrics._BLOCK_CELLS` cells
    of all K models, has every fold model predict the block into a
    (K, b, L) buffer, copies the held-out model's rows into the (n, L)
    out-of-fold matrix, and feeds the buffer to `metrics.FoldStats`.
    Besides the out-of-fold matrix the pass holds nothing that grows with
    n. The correlation is its last reader and centres it in place.
    """
    K, (n, L) = len(fold_results), dataset.labels.shape
    oof = np.empty((n, L))
    stats = metrics.FoldStats(K, n, L)
    for rows in metrics._blocks(n, K * L):
        x = dataset.features[rows]
        block = np.empty((K, x.shape[0], L))
        for fr, out in zip(fold_results, block):
            predict_probs(fr.checkpoint, cfg.alpha, x, out=out)
        oof[rows] = block[assign.fold_of[rows], np.arange(x.shape[0])]
        stats.add(block)

    coupling_mean = (np.mean([fr.checkpoint["A"] for fr in fold_results], axis=0)
                     if cfg.refinement_enabled else None)
    ensemble_auc = metrics.macro_auc(oof, dataset.labels)
    histograms = metrics.probability_histograms(oof, bins=HISTOGRAM_BINS)

    return RunReport(
        config=cfg,
        label_names=dataset.label_names,
        assignment=assign,
        fold_results=fold_results,
        ensemble_auc=ensemble_auc,
        coupling_mean=coupling_mean,
        agreement=stats.agreement(),
        per_label_std=stats.per_label_std(),
        correlation=metrics._pearson_in_place(oof),
        histograms=histograms,
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
        save_checkpoint(outdir / "checkpoints" / f"fold{fr.fold}.json", fr.checkpoint, cfg_hash)
    if report.coupling_mean is not None:
        save_coupling_csv(report.coupling_mean, report.label_names,
                          outdir / "coupling_mean.csv")
    return outdir


# The key paths read back from a run's report.json, ablation.json and
# checkpoints, `*` standing for every entry of a list, each with the
# (what, test) of the value it formats, iterates, counts or loads.
_NUMBER = ("a finite number", _number)
_COUNT = ("an integer >= 0", lambda v: _number(v, int) and v >= 0)
_STRING = ("a string", lambda v: isinstance(v, str))
_LIST = ("a list", lambda v: isinstance(v, list))
_NONEMPTY = ("a non-empty list", lambda v: isinstance(v, list) and len(v) > 0)
REPORT_RULES = {
    "folds": _LIST,
    "folds.*.fold": _NUMBER,
    "folds.*.best_epoch": _NUMBER,
    "folds.*.best_val_macro_auc": _NUMBER,
    "ensemble.source": _STRING,
    "ensemble.auc.macro_auc": _NUMBER,
    "label_names": _LIST,
    "label_names.*": _STRING,
    "diagnostics.probability_histograms.bins": (
        "an integer >= 1", lambda v: _number(v, int) and v >= 1),
    "diagnostics.fold_agreement.majority_counts": (
        "an object of integer keys and counts >= 0",
        lambda v: isinstance(v, dict) and all(
            k.isdecimal() and _number(c, int) and c >= 0 for k, c in v.items())),
}
CHECKPOINT_RULES = {
    "config_hash": _STRING,
    "arrays": ("an object of W2, b2 and an optional A",
               lambda v: isinstance(v, dict) and {"W2", "b2"} <= v.keys() <= {"W2", "b2", "A"}),
    "arrays.W2": _NONEMPTY,
    "arrays.b2": _NONEMPTY,
    "arrays.b2.*": _NUMBER,
}


def _list_of(n: int) -> tuple:
    return f"a list of {n} entries", lambda v: isinstance(v, list) and len(v) == n


def _sized_rules(n_labels: int, bins: int, n_folds: int) -> dict:
    """The rules of the lists `report` indexes by label, bin or fold."""
    rules = {"diagnostics.per_label_fold_std": _list_of(n_labels),
             "diagnostics.per_label_fold_std.*": _NUMBER}
    for key, rows, cols, entry in (
            ("diagnostics.pearson_correlation", n_labels, n_labels,
             ("a finite number or null", lambda v: v is None or _number(v))),
            ("diagnostics.probability_histograms.counts", n_labels, bins, _COUNT),
            ("diagnostics.fold_agreement.pair_agreement", n_folds, n_folds, _NUMBER)):
        rules.update({key: _list_of(rows), f"{key}.*": _list_of(cols),
                      f"{key}.*.*": entry})
    return rules


def read_report_json(rundir) -> dict:
    """A run's report.json, checked by `REPORT_RULES` and then by the
    `_sized_rules` of its label count, bins and number of folds."""
    path = Path(rundir) / "report.json"
    if not path.exists():
        raise HarnessError(f"no report.json under {rundir}")
    doc = checked(path, read_json(path), REPORT_RULES, HarnessError)
    bins = doc["diagnostics"]["probability_histograms"]["bins"]
    return checked(path, doc, _sized_rules(len(doc["label_names"]), bins, len(doc["folds"])),
                   HarnessError)


def save_checkpoint(path, model: Mapping, config_hash: str) -> None:
    """No alpha: a refined model's rate is its run config's, matched by hash."""
    record = {"config_hash": config_hash,
              "arrays": {name: np.asarray(arr).tolist() for name, arr in model.items()}}
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], str]:
    """Returns (model, config hash): finite W2 (D, L), b2 (L,) and, for a
    refined model, A (L, L), checked by `CHECKPOINT_RULES`, then by L."""
    record = checked(path, read_json(path), CHECKPOINT_RULES, PredictorShapeError)
    arrays, row = record["arrays"], _list_of(len(record["arrays"]["b2"]))
    rules = {"arrays.W2.*": row, "arrays.W2.*.*": _NUMBER}
    if "A" in arrays:
        rules.update({"arrays.A": row, "arrays.A.*": row, "arrays.A.*.*": _NUMBER})
    checked(path, record, rules, PredictorShapeError)
    return ({name: np.array(value, dtype=np.float64) for name, value in arrays.items()},
            record["config_hash"])


# ---------------------------------------------------------------------------
# ablation
# ---------------------------------------------------------------------------


# The ablation's arms in training order: run-directory name -> (refinement
# flag, the ablation.json key of the arm's macro-AUC). The first arm is the
# refined one: `delta` is its macro-AUC minus the second arm's, and the
# coupling summary reads its mean A.
ABLATION_ARMS = {
    "with_refinement": (True, "macro_auc_refined"),
    "no_refinement": (False, "macro_auc_baseline"),
}
ABLATION_RULES = dict.fromkeys([key for _, key in ABLATION_ARMS.values()] + ["delta"], _NUMBER)


def run_ablation(dataset: Dataset, cfg: ExperimentConfig) -> dict[str, RunReport]:
    """Same data, folds and seeds, one experiment per arm of `ABLATION_ARMS`
    in table order: all arms' models train in one `train_folds` call."""
    return dict(zip(ABLATION_ARMS, run_experiments(dataset, [
        dataclasses.replace(cfg, refinement_enabled=flag) for flag, _ in ABLATION_ARMS.values()])))


def ablation_record(arms: Mapping[str, RunReport]) -> dict:
    """The ablation.json record of `run_ablation`'s arms."""
    first, second = (arms[name] for name in ABLATION_ARMS)
    off = first.coupling_mean[~np.eye(len(first.label_names), dtype=bool)]
    summary = {
        "n_positive": int((off > NEAR_ZERO).sum()),
        "n_negative": int((off < -NEAR_ZERO).sum()),
        "n_near_zero": int((np.abs(off) <= NEAR_ZERO).sum()),
        "near_zero_threshold": NEAR_ZERO,
    }
    return _jsonify({
        **{key: arms[name].ensemble_auc.macro_auc for name, (_, key) in ABLATION_ARMS.items()},
        "delta": first.ensemble_auc.macro_auc - second.ensemble_auc.macro_auc,
        "source": first.ensemble_source,
        "coupling_sign_summary": summary,
    })
