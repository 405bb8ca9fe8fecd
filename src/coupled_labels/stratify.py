"""K-fold assignment that keeps per-label positive counts balanced.

``mis_split`` is the greedy iterative-stratification procedure (rarest label
first), a pure function of (labels, K, seed). ``random_kfold`` is the
uniform baseline it is measured against.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datamodel import CoupledLabelsError, check_label_matrix


class SplitError(CoupledLabelsError):
    """Invalid splitter input (e.g. more folds than examples)."""


@dataclass(frozen=True)
class FoldAssignment:
    """Exact partition of N examples into K folds."""

    fold_of: np.ndarray  # length N, int, entries in [0, K)
    K: int

    def __post_init__(self):
        arr = np.asarray(self.fold_of, dtype=np.int64)
        if arr.ndim != 1:
            raise SplitError("fold_of must be one-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= self.K):
            raise SplitError(f"fold indices must lie in [0, {self.K})")
        if arr.size >= self.K:
            sizes = np.bincount(arr, minlength=self.K)
            if (sizes == 0).any():
                empty = int(np.argmin(sizes))
                raise SplitError(f"fold {empty} is empty although N >= K")
        arr.setflags(write=False)
        object.__setattr__(self, "fold_of", arr)

    @property
    def n_examples(self) -> int:
        return self.fold_of.shape[0]

    def fold_sizes(self) -> np.ndarray:
        return np.bincount(self.fold_of, minlength=self.K)

    def indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)


def save_folds(assign: FoldAssignment, path) -> None:
    """Write ``example_index,fold`` rows, byte for byte as ``csv.writer`` would."""
    rows = [f"{i},{f}\r\n" for i, f in enumerate(assign.fold_of.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("example_index,fold\r\n" + "".join(rows))


def load_folds(path) -> FoldAssignment:
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["example_index", "fold"]:
            raise SplitError(f"{path}: expected header 'example_index,fold'")
        rows = []
        for row_idx, row in enumerate(reader):
            try:
                index, fold = map(int, row)
            except ValueError:
                raise SplitError(f"{path}: row {row_idx}: expected two integers "
                                 f"'example_index,fold', got {row!r}") from None
            rows.append((index, fold))
    if not rows:
        raise SplitError(f"{path}: no rows after the header")
    rows.sort()
    if [i for i, _ in rows] != list(range(len(rows))):
        raise SplitError(f"{path}: example indices must be 0..N-1 without gaps")
    folds = np.array([f for _, f in rows], dtype=np.int64)
    return FoldAssignment(fold_of=folds, K=int(folds.max()) + 1)


def _check_split_args(n: int, K: int, seed: int):
    if K < 2:
        raise SplitError(f"K must be >= 2, got {K}")
    if K > n:
        raise SplitError(f"cannot split {n} examples into {K} folds")
    if seed < 0:
        raise SplitError(f"seed must be >= 0, got {seed}")


def mis_split(labels, K: int, seed: int) -> FoldAssignment:
    """Multilabel iterative stratification.

    Repeatedly takes the label with the fewest remaining unassigned positives
    (ties: lowest label index) and deals each of its unassigned positive
    examples, in index order, to the fold with the largest remaining quota
    for that label. Ties fall through to the largest remaining example quota
    and finally to a seeded uniform choice. Every quota the example touches
    is decremented. Examples with no positive labels are dealt last by
    example quota alone.
    """
    y = check_label_matrix(labels)
    n, n_labels = y.shape
    _check_split_args(n, K, seed)
    rng = np.random.default_rng(seed)

    # The loop below runs once per example on K- and L-long state, where
    # Python floats and lists are far cheaper than NumPy calls. The float64
    # quota arithmetic and the rng draws are the same as on arrays.
    counts = y.sum(axis=0).astype(np.int64).tolist()
    example_quota = [n / K] * K
    label_quota = [[c / K] * K for c in counts]  # [label][fold]
    remaining_pos = list(counts)
    # example i is positive for labels_of[row_start[i]:row_start[i + 1]]
    flat = np.flatnonzero(y == 1.0)
    row_start = np.searchsorted(flat, np.arange(n + 1) * n_labels).tolist()
    labels_of = (flat % n_labels).tolist()
    fold_of = [-1] * n
    folds = range(K)

    def pick(candidates: list[int]) -> int:
        if len(candidates) > 1:
            return candidates[rng.integers(len(candidates))]
        return candidates[0]

    while True:
        active = [l for l in range(n_labels) if remaining_pos[l] > 0]
        if not active:
            break
        lab = min(active, key=remaining_pos.__getitem__)
        quota = label_quota[lab]
        for i in np.flatnonzero(y[:, lab] == 1.0).tolist():
            if fold_of[i] >= 0:
                continue
            best = max(quota)
            tied = [f for f in folds if quota[f] == best]
            if len(tied) > 1:
                best = max([example_quota[f] for f in tied])
                tied = [f for f in tied if example_quota[f] == best]
            f = pick(tied)
            fold_of[i] = f
            example_quota[f] -= 1.0
            for l in labels_of[row_start[i]:row_start[i + 1]]:
                label_quota[l][f] -= 1.0
                remaining_pos[l] -= 1

    for i in range(n):
        if fold_of[i] >= 0:
            continue
        best = max(example_quota)
        f = pick([f for f in folds if example_quota[f] == best])
        fold_of[i] = f
        example_quota[f] -= 1.0

    return FoldAssignment(fold_of=np.array(fold_of, dtype=np.int64), K=K)


def random_kfold(n: int, K: int, seed: int) -> FoldAssignment:
    """Uniform random near-equal K-fold; the comparison baseline."""
    _check_split_args(n, K, seed)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[perm] = np.arange(n) % K
    return FoldAssignment(fold_of=fold_of, K=K)


@dataclass(frozen=True)
class SplitQuality:
    """Exact arithmetic summary of how well a split preserves prevalences."""

    fold_sizes: np.ndarray          # (K,)
    deviation: np.ndarray           # (K, L) |fold prevalence - global prevalence|
    max_deviation: float


def split_quality(labels, assign: FoldAssignment) -> SplitQuality:
    y = check_label_matrix(labels)
    if y.shape[0] != assign.n_examples:
        raise SplitError(
            f"labels have {y.shape[0]} rows but assignment covers {assign.n_examples}"
        )
    K = assign.K
    sizes = assign.fold_sizes().astype(np.float64)
    pos = np.zeros((K, y.shape[1]))
    for f in range(K):
        pos[f] = y[assign.fold_of == f].sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        prevalence = np.where(sizes[:, None] > 0, pos / np.maximum(sizes[:, None], 1), np.nan)
    deviation = np.abs(prevalence - y.mean(axis=0)[None, :])
    return SplitQuality(
        fold_sizes=sizes.astype(np.int64),
        deviation=deviation,
        max_deviation=float(np.nanmax(deviation)),
    )
