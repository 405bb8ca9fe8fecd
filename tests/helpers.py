"""Shared oracles for the test suite: central finite differences, a
relative-error reducer, the pair-count AUC reference, per-column
references for roc_auc, macro_auc and the label histograms, whole-matrix
references for the cross-fold agreement and std, `train_folds`
for a single model, a training loop that never touches the coupling
module, the identifiable planted-edge construction, row-loop references for
the CSV data path and mis_split, a reader for the
coupling CSV, a one-fold-at-a-time training reference with a per-array
optimizer, generator spec files that `gen` must reject, and a time limit
for tests that wait on forked workers."""

import contextlib
import math
import signal
from dataclasses import dataclass

import numpy as np
from scipy.special import expit


def central_diff(f, x, h=1e-6):
    """Central finite-difference gradient of scalar f at x, coordinate-wise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2.0 * h)
        it.iternext()
    return grad


def max_rel_err(a, b, floor=1e-4):
    """Max over entries of |a-b| / max(|a|, |b|, floor).

    The floor keeps the check meaningful where the true gradient is below
    the central-difference noise level (~1e-10 absolute at h=1e-6): such
    entries are judged on absolute error against the floor instead.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    rel = np.abs(a - b) / scale
    return float(rel.max()) if rel.size else 0.0


def brute_force_auc(scores, targets):
    """O(n^2) pair-count AUC oracle: ties credited half."""
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets)
    pos = scores[targets == 1]
    neg = scores[targets == 0]
    diff = pos[:, None] - neg[None, :]
    wins = (diff > 0).sum()
    ties = (diff == 0).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


# roc_auc, macro_auc and probability_histograms must give exactly what these
# give: one scipy rankdata call and one bincount per label column.
def reference_roc_auc(scores, targets):
    """roc_auc from the midranks of one scipy rankdata call."""
    from scipy.stats import rankdata

    from coupled_labels.metrics import MetricError, UndefinedAucError

    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(targets, dtype=np.float64).ravel()
    if s.shape != y.shape:
        raise MetricError(f"scores {s.shape} and targets {y.shape} differ in length")
    pos = y == 1.0
    n_pos = int(pos.sum())
    n_neg = s.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAucError("AUC undefined: only one class present")
    ranks = rankdata(s, method="average")
    r_pos = float(ranks[pos].sum())
    return (r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def reference_macro_auc(probs, labels):
    """macro_auc as one reference_roc_auc call per non-skipped label."""
    from coupled_labels.metrics import AucReport, MetricError, UndefinedAucError

    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape or p.ndim != 2:
        raise MetricError(f"probs {p.shape} and labels {y.shape} must be equal 2-D shapes")
    per_label = []
    skipped = []
    for l in range(y.shape[1]):
        col = y[:, l]
        if col.min() == col.max():
            per_label.append(None)
            skipped.append(l)
        else:
            per_label.append(reference_roc_auc(p[:, l], col))
    present = [v for v in per_label if v is not None]
    if not present:
        raise UndefinedAucError("macro-AUC undefined: every label has a single class")
    return AucReport(per_label_auc=per_label, macro_auc=float(np.mean(present)),
                     skipped_labels=skipped)


def reference_probability_histograms(probs, bins=20):
    """probability_histograms with one bincount per label."""
    p = np.asarray(probs, dtype=np.float64)
    idx = np.minimum((p * bins).astype(np.int64), bins - 1)
    counts = np.zeros((p.shape[1], bins), dtype=np.int64)
    for l in range(p.shape[1]):
        counts[l] = np.bincount(idx[:, l], minlength=bins)
    return counts


def reference_fold_agreement(fold_probs, threshold=0.5):
    """fold_agreement on the stacked matrices at once: int64 votes, levels
    from np.unique, pair rates as means of the equality masks."""
    from coupled_labels.metrics import FoldAgreement

    stack = np.stack([np.asarray(m, dtype=np.float64) for m in fold_probs])
    K = stack.shape[0]
    binary = (stack >= threshold).astype(np.int64)
    ones = binary.sum(axis=0)
    majority = np.maximum(ones, K - ones)
    levels, counts = np.unique(majority, return_counts=True)
    unanimous = int((majority == K).sum())
    pair = np.ones((K, K))
    for a in range(K):
        for b in range(a + 1, K):
            pair[a, b] = pair[b, a] = float((binary[a] == binary[b]).mean())
    return FoldAgreement(
        majority_counts={int(lv): int(c) for lv, c in zip(levels, counts)},
        unanimous_cells=unanimous,
        split_cells=int(majority.size - unanimous),
        pair_agreement=pair,
    )


def reference_per_label_fold_std(fold_probs):
    """per_label_fold_std as one std over the whole stacked matrices."""
    stack = np.stack([np.asarray(m, dtype=np.float64) for m in fold_probs])
    return stack.std(axis=0, ddof=0).mean(axis=0)


def run_fold(train_x, train_y, val_x, val_y, cfg, seed, fold_index=0):
    """`train_folds` for one model on its own train and validation arrays,
    with the refinement flag of `cfg`."""
    from coupled_labels.harness import train_folds

    n_train = len(train_x)
    features, labels = np.concatenate([train_x, val_x]), np.concatenate([train_y, val_y])
    rows = np.arange(len(features))
    run = (fold_index, seed, rows[:n_train], rows[n_train:], cfg.refinement_enabled)
    return train_folds(features, labels, [run], cfg)[0]


def couplings_free_fold(train_x, train_y, val_x, val_y, cfg, seed):
    """Reference fold trainer that never imports the coupling module.

    Mirrors the harness fold loop (same rng streams, batching, EMA, early
    stopping) using only the predictor/loss/optimizer primitives, so a
    refinement-disabled harness run must match it bit for bit. Returns
    (best_macro_auc, best_epoch, best_eval_params).
    """
    from coupled_labels import metrics
    from coupled_labels.losses import asl_loss
    from coupled_labels.optim import (
        ParamBuffer, Schedule, adamw_step, clip_global_norm, ema_update, init_ema,
        init_optim, lr_at,
    )
    from coupled_labels.predictor import (
        PredictorParams, init_params, predict_backward, predict_forward,
    )

    ss = np.random.SeedSequence(seed)
    rng_init, _, rng_shuffle = (np.random.default_rng(c) for c in ss.spawn(3))
    pred = init_params(train_x.shape[1], train_y.shape[1], rng_init)
    n = train_x.shape[0]
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total = steps_per_epoch * cfg.epochs
    sched = Schedule(warmup_steps=min(steps_per_epoch, total - 1), total_steps=total)
    params = ParamBuffer.of(pred.trainable())
    pred = PredictorParams(W2=params["W2"], b2=params["b2"])
    opt = init_optim(params, cfg.weight_decay)
    ema = init_ema(params, cfg.ema_decay)
    step = 0
    best_auc, best_params, best_epoch = -np.inf, None, 0
    bad = 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng_shuffle.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            lr = lr_at(sched, step, cfg.lr)
            z, cache = predict_forward(train_x[idx], pred)
            sup = asl_loss(z, train_y[idx], cfg.asl.gamma_pos, cfg.asl.gamma_neg,
                           cfg.asl.clip)
            grads = predict_backward(sup.grad_logits, cache, pred)
            grads, _ = clip_global_norm(grads, cfg.grad_clip_norm)
            adamw_step(params, grads, opt, lr)
            ema_update(ema, params)
            step += 1
        eval_params = PredictorParams(W2=ema.shadow["W2"].copy(), b2=ema.shadow["b2"].copy())
        eval_batch = cfg.batch_size * cfg.eval_batch_multiplier
        probs = np.empty((val_x.shape[0], train_y.shape[1]))
        for lo in range(0, val_x.shape[0], eval_batch):
            chunk = val_x[lo:lo + eval_batch]
            zz, _ = predict_forward(chunk, eval_params)
            probs[lo:lo + eval_batch] = expit(zz)
        auc = metrics.macro_auc(probs, val_y).macro_auc
        if auc > best_auc:
            best_auc, best_params, best_epoch = auc, eval_params, epoch
            bad = 0
        else:
            bad += 1
            if bad >= cfg.patience:
                break
    return best_auc, best_epoch, best_params


# Training settings under which the fit on identifiable_spec() leaves its
# transient within 20 epochs: 10x the default lr. At that lr the default
# lambda_l1 of 1e-3 makes planted-edge recovery depend on the construction's
# seed (6 of seeds 11-20 recover all three edges, against 9 of 10 at 3e-4).
IDENTIFIABLE_TRAINING = {"epochs": 20, "lr": 2e-3, "lambda_l1": 3e-4}


def identifiable_spec():
    """The planted-edge construction on which the learned coupling matrix is
    identifiable: the pinned 6000 x 20 x 14 shape and planted edges
    0->1, 2->3, 4->5 of strength 2, but with QR-orthogonal base directions
    scaled by 2 (so shared-feature label correlations vanish) and noise 0.5,
    generator seed 13."""
    from coupled_labels.synthgen import GenSpec, PlantedEdge

    d, l = 20, 14
    rng = np.random.default_rng(13)
    q, _ = np.linalg.qr(rng.normal(size=(d, l)))
    return GenSpec(
        n_examples=6000, n_features=d, n_labels=l,
        planted_edges=(PlantedEdge(0, 1, 2.0), PlantedEdge(2, 3, 2.0),
                       PlantedEdge(4, 5, 2.0)),
        noise_scale=0.5, seed=13, base_weights=q * 2.0,
    )


# ---------------------------------------------------------------------------
# Row-loop reference implementations of the data path. The package's
# save_dataset, load_dataset, mis_split and save_folds must give exactly
# what these give: the same bytes, the same bits, the same folds and the
# same DataFormatError text.
# ---------------------------------------------------------------------------


def reference_load_dataset(path):
    """load_dataset as one csv.reader loop over every row."""
    import csv
    from pathlib import Path

    from coupled_labels.datamodel import LABEL_PREFIX, DataFormatError, Dataset

    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"dataset file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file, expected a header row") from None
        n_cols = len(header)
        label_start = None
        for idx, name in enumerate(header):
            if name.startswith(LABEL_PREFIX):
                label_start = idx
                break
        if label_start is None:
            raise DataFormatError(f"{path}: header has no '{LABEL_PREFIX}' columns")
        for idx in range(label_start, n_cols):
            if not header[idx].startswith(LABEL_PREFIX):
                raise DataFormatError(
                    f"{path}: feature column {header[idx]!r} appears after label columns"
                )
        label_names = [name[len(LABEL_PREFIX):] for name in header[label_start:]]

        feats, labs = [], []
        for row_idx, row in enumerate(reader):
            if len(row) != n_cols:
                raise DataFormatError(
                    f"{path}: row {row_idx} has {len(row)} columns, expected {n_cols}"
                )
            try:
                feats.append([float(cell) for cell in row[:label_start]])
            except ValueError as exc:
                raise DataFormatError(f"{path}: row {row_idx}: bad feature value ({exc})") from None
            lab_row = []
            for col_off, cell in enumerate(row[label_start:]):
                if cell == "0":
                    lab_row.append(0.0)
                elif cell == "1":
                    lab_row.append(1.0)
                else:
                    raise DataFormatError(
                        f"{path}: row {row_idx}, column {header[label_start + col_off]!r}: "
                        f"label value {cell!r} is not 0 or 1"
                    )
            labs.append(lab_row)
    if not feats:
        raise DataFormatError(f"{path}: no data rows")
    return Dataset(
        features=np.array(feats, dtype=np.float64),
        labels=np.array(labs, dtype=np.float64),
        label_names=label_names,
    )


def reference_save_dataset(ds, path):
    """save_dataset as one csv.writer call per row."""
    import csv

    from coupled_labels.datamodel import LABEL_PREFIX

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [f"f{i}" for i in range(ds.n_features)]
        header += [LABEL_PREFIX + name for name in ds.label_names]
        writer.writerow(header)
        for i in range(ds.n_examples):
            row = [repr(float(v)) for v in ds.features[i]]
            row += [str(int(v)) for v in ds.labels[i]]
            writer.writerow(row)


def reference_save_folds(assign, path):
    """save_folds as one csv.writer call per row."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["example_index", "fold"])
        for i, f in enumerate(assign.fold_of):
            writer.writerow([i, int(f)])


@dataclass(frozen=True)
class MisStats:
    """Bookkeeping from one reference_mis_split run.

    ``label_order`` is the sequence in which labels were exhausted;
    ``pre_assigned`` counts, per entry of label_order, how many of that
    label's positives had already been placed while serving earlier labels.
    A label picked with pre_assigned == 0 is guaranteed per-fold positive
    counts within +-1 of its real-valued quota.
    """

    label_order: list[int]
    pre_assigned: list[int]


def reference_mis_split(labels, K, seed):
    """mis_split with NumPy calls on K-long arrays inside the per-example
    loop; returns (FoldAssignment, MisStats)."""
    from coupled_labels.datamodel import check_label_matrix
    from coupled_labels.stratify import FoldAssignment, SplitError

    y = check_label_matrix(labels)
    n, n_labels = y.shape
    if K < 2:
        raise SplitError(f"K must be >= 2, got {K}")
    if K > n:
        raise SplitError(f"cannot split {n} examples into {K} folds")
    rng = np.random.default_rng(seed)

    fold_of = np.full(n, -1, dtype=np.int64)
    example_quota = np.full(K, n / K, dtype=np.float64)
    counts = y.sum(axis=0)
    label_quota = np.tile(counts / K, (K, 1))  # (K, L)
    remaining_pos = counts.copy()
    positives = [np.flatnonzero(y[:, l] == 1.0) for l in range(n_labels)]
    unassigned = np.ones(n, dtype=bool)

    label_order, pre_assigned = [], []

    def pick_fold(quota_row):
        best = quota_row.max()
        tied = np.flatnonzero(quota_row == best)
        if tied.size > 1:
            sub = example_quota[tied]
            tied = tied[np.flatnonzero(sub == sub.max())]
        if tied.size > 1:
            return int(tied[rng.integers(tied.size)])
        return int(tied[0])

    while True:
        active = np.flatnonzero(remaining_pos > 0)
        if active.size == 0:
            break
        lab = int(active[np.argmin(remaining_pos[active])])
        label_order.append(lab)
        pre_assigned.append(int(counts[lab] - remaining_pos[lab]))
        for i in positives[lab]:
            if not unassigned[i]:
                continue
            f = pick_fold(label_quota[:, lab])
            fold_of[i] = f
            unassigned[i] = False
            example_quota[f] -= 1.0
            row = y[i]
            label_quota[f, row == 1.0] -= 1.0
            remaining_pos[row == 1.0] -= 1.0

    for i in np.flatnonzero(unassigned):
        best = example_quota.max()
        tied = np.flatnonzero(example_quota == best)
        f = int(tied[rng.integers(tied.size)]) if tied.size > 1 else int(tied[0])
        fold_of[i] = f
        example_quota[f] -= 1.0

    return (FoldAssignment(fold_of=fold_of, K=K),
            MisStats(label_order=label_order, pre_assigned=pre_assigned))


# ---------------------------------------------------------------------------
# One-fold-at-a-time training reference: the fold loop, training step and
# optimizer as they were before the fold models shared one parameter
# buffer, with one dict entry per parameter array. Training the folds in
# lockstep must give the same FoldResult bit for bit.
# ---------------------------------------------------------------------------

_REFERENCE_DECAY_KEYS = frozenset({"W2", "A"})


def _reference_clip(grads, max_norm):
    sq = 0.0
    for g in grads.values():
        sq += float(np.sum(np.square(g)))
    norm = math.sqrt(sq)
    if math.isfinite(norm) and norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def _reference_adamw(params, grads, opt, lr, weight_decay, beta1=0.9, beta2=0.999,
                     eps=1e-8):
    opt["t"] += 1
    bc1 = 1.0 - beta1 ** opt["t"]
    bc2 = 1.0 - beta2 ** opt["t"]
    for k, p in params.items():
        g = grads[k]
        m = opt["m"][k]
        v = opt["v"][k]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        if k in _REFERENCE_DECAY_KEYS:
            update = update + weight_decay * p
        p -= lr * update


def _reference_ema(shadow, params, decay):
    for k, p in params.items():
        s = shadow[k]
        s *= decay
        s += (1.0 - decay) * p


def reference_run_fold(train_x, train_y, val_x, val_y, cfg, seed, fold_index=0):
    """run_fold for one fold on its own, with a per-array optimizer loop."""
    from coupled_labels import losses, metrics
    from coupled_labels.coupling import new_coupling, refine_backward, refine_forward, zero_diag
    from coupled_labels.harness import FoldResult, HarnessError, predict_probs
    from coupled_labels.optim import Schedule, StepLog, lr_at
    from coupled_labels.predictor import (
        PredictorParams, init_params, predict_backward, predict_forward,
    )

    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.float64)
    n_train = train_x.shape[0]
    ss = np.random.SeedSequence(seed)
    rng_init, _, rng_shuffle = (np.random.default_rng(c) for c in ss.spawn(3))
    predictor = init_params(train_x.shape[1], train_y.shape[1], rng_init)
    A = new_coupling(train_y.shape[1]) if cfg.refinement_enabled else None
    steps_per_epoch = math.ceil(n_train / cfg.batch_size)
    total_steps = steps_per_epoch * cfg.epochs
    if total_steps < 2:
        raise HarnessError(
            f"fold {fold_index}: schedule needs at least 2 steps, got {total_steps}"
        )
    schedule = Schedule(warmup_steps=min(steps_per_epoch, total_steps - 1),
                        total_steps=total_steps)
    pos_weight = (losses.compute_pos_weights(train_y)
                  if cfg.loss_kind == "WeightedBCE" else None)

    params = predictor.trainable()
    if A is not None:
        params["A"] = A
    opt = {"t": 0, "m": {k: np.zeros_like(p) for k, p in params.items()},
           "v": {k: np.zeros_like(p) for k, p in params.items()}}
    shadow = {k: p.copy() for k, p in params.items()}
    log, skips, step = [], 0, 0

    def train_step(x, y):
        nonlocal skips, step
        lr = lr_at(schedule, step, cfg.lr)
        z, pcache = predict_forward(x, predictor)
        if A is not None:
            z_ref, ccache = refine_forward(z, A, cfg.alpha)
            l1_value, l1_grad = losses.l1_penalty(A, cfg.lambda_l1)
        else:
            z_ref, l1_value = z, 0.0
        if cfg.loss_kind == "ASL":
            sup = losses.asl_loss(z_ref, y, gamma_pos=cfg.asl.gamma_pos,
                                  gamma_neg=cfg.asl.gamma_neg, clip=cfg.asl.clip)
        else:
            sup = losses.weighted_bce_loss(z_ref, y, pos_weight)
        total = sup.value + l1_value
        skipped = False
        grad_norm = math.nan
        if not sup.is_finite or not math.isfinite(total):
            skipped = True
        else:
            if A is not None:
                grad_z, grad_A = refine_backward(sup.grad_logits, ccache, A, cfg.alpha)
                grad_A = grad_A + l1_grad
            else:
                grad_z = sup.grad_logits
            grads = predict_backward(grad_z, pcache, predictor)
            if A is not None:
                grads["A"] = grad_A
            grad_norm = _reference_clip(grads, cfg.grad_clip_norm)
            if not math.isfinite(grad_norm):
                skipped = True
            else:
                _reference_adamw(params, grads, opt, lr, cfg.weight_decay)
                if A is not None:
                    zero_diag(A)
                _reference_ema(shadow, params, cfg.ema_decay)
        log.append(StepLog(step=step, lr=lr, loss=total, grad_norm=grad_norm,
                           skipped=skipped))
        step += 1
        skips += skipped

    eval_batch = cfg.batch_size * cfg.eval_batch_multiplier
    best_auc, best_epoch, best = -math.inf, 0, None
    bad = epochs_run = 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng_shuffle.permutation(n_train)
        for lo in range(0, n_train, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            train_step(train_x[idx], train_y[idx])
        epochs_run = epoch
        ema_params = PredictorParams(W2=shadow["W2"].copy(), b2=shadow["b2"].copy())
        ema_A = None if A is None else shadow["A"].copy()
        val_probs = predict_probs(ema_params, ema_A, cfg.alpha, val_x, batch_size=eval_batch)
        try:
            report = metrics.macro_auc(val_probs, val_y)
        except metrics.UndefinedAucError as exc:
            raise HarnessError(f"fold {fold_index}: {exc}") from None
        if report.macro_auc > best_auc:
            best_auc, best_epoch = report.macro_auc, epoch
            best = (ema_params, ema_A, report)
            bad = 0
        else:
            bad += 1
            if bad >= cfg.patience:
                break
    return FoldResult(
        fold=fold_index, best_epoch=best_epoch, best_val_macro_auc=best_auc,
        epochs_run=epochs_run, skipped_steps=skips, checkpoint_params=best[0],
        checkpoint_coupling=best[1], val_auc=best[2], train_log=log,
    )


def fold_result_bits(fr):
    """Everything a FoldResult holds, with every float as its exact bits."""
    arrays = dict(fr.checkpoint_params.trainable())
    if fr.checkpoint_coupling is not None:
        arrays["A"] = fr.checkpoint_coupling
    return {
        "fold": fr.fold,
        "best_epoch": fr.best_epoch,
        "best_val_macro_auc": repr(fr.best_val_macro_auc),
        "epochs_run": fr.epochs_run,
        "skipped_steps": fr.skipped_steps,
        "val_auc": repr(fr.val_auc),
        "arrays": {k: (a.shape, np.asarray(a, dtype=np.float64).view(np.uint64).tolist())
                   for k, a in arrays.items()},
        "train_log": [(e.step, repr(e.lr), repr(e.loss), repr(e.grad_norm), e.skipped)
                      for e in fr.train_log],
    }


def load_coupling_csv(path):
    """Read a coupling CSV written by save_coupling_csv: (A, label names)."""
    import csv

    from coupled_labels.coupling import CouplingShapeError

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader)[1:]
        A = np.array([[float(v) for v in row[1:]] for row in reader], dtype=np.float64)
    if A.shape != (len(names), len(names)):
        raise CouplingShapeError(f"{path}: ragged coupling CSV")
    return A, names


# A valid generator spec file, and patches of one field that make it invalid:
# (field, bad value).
GOOD_SPEC = {"n_examples": 300, "n_features": 4, "n_labels": 3,
             "planted_edges": [[0, 1, 2.0]], "noise_scale": 1.0, "seed": 0}
BAD_SPEC_PATCHES = [
    ("noise_scale", float("nan")),
    ("noise_scale", float("inf")),
    ("n_examples", True),
    ("n_examples", 12.7),
    ("seed", 1.5),
    ("n_examples", "300"),
    ("n_labels", 14.0),
    ("planted_edges", [[0.5, 1, 2.0]]),
    ("seed", -1),
    ("planted_edges", [[0, 1]]),
    ("planted_edges", 5),
]


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the main thread if the block runs too long."""
    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
