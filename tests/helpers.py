"""Shared oracles for the test suite: central finite differences, a
relative-error reducer, the pair-count AUC reference, a training loop
that never touches the coupling module, the identifiable planted-edge
construction, and row-loop references for the CSV data path and mis_split."""

import math

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
        Schedule, adamw_step, clip_global_norm, ema_update, init_ema,
        init_optim, lr_at,
    )
    from coupled_labels.predictor import (
        PredictorParams, init_params, predict_backward, predict_forward,
    )

    ss = np.random.SeedSequence(seed)
    rng_init, rng_dropout, rng_shuffle = (np.random.default_rng(c) for c in ss.spawn(3))
    pred = init_params("linear", train_x.shape[1], train_y.shape[1], rng_init, hidden=32)
    n = train_x.shape[0]
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total = steps_per_epoch * cfg.epochs
    sched = Schedule(warmup_steps=min(steps_per_epoch, total - 1), total_steps=total)
    params = pred.trainable()
    opt = init_optim(params, cfg.lr, cfg.weight_decay)
    ema = init_ema(params, cfg.ema_decay)
    step = 0
    best_auc, best_params, best_epoch = -np.inf, None, 0
    bad = 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng_shuffle.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            lr = lr_at(sched, step, cfg.lr)
            z, cache = predict_forward(train_x[idx], pred, mode="train", rng=rng_dropout)
            sup = asl_loss(z, train_y[idx], cfg.asl.gamma_pos, cfg.asl.gamma_neg,
                           cfg.asl.clip)
            grads, _ = predict_backward(sup.grad_logits, cache, pred)
            grads, _ = clip_global_norm(grads, cfg.grad_clip_norm)
            adamw_step(params, grads, opt, lr)
            ema_update(ema, params)
            step += 1
        eval_params = PredictorParams(variant="linear", W2=ema.shadow["W2"].copy(),
                                      b2=ema.shadow["b2"].copy(),
                                      dropout_p=pred.dropout_p)
        eval_batch = cfg.batch_size * cfg.eval_batch_multiplier
        probs = np.empty((val_x.shape[0], train_y.shape[1]))
        for lo in range(0, val_x.shape[0], eval_batch):
            chunk = val_x[lo:lo + eval_batch]
            zz, _ = predict_forward(chunk, eval_params, mode="eval")
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


def reference_mis_split(labels, K, seed):
    """mis_split with NumPy calls on K-long arrays inside the per-example
    loop; returns (FoldAssignment, MisStats)."""
    from coupled_labels.datamodel import check_label_matrix
    from coupled_labels.stratify import FoldAssignment, MisStats, SplitError

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
