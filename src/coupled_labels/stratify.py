"""K-fold assignment that keeps per-label positive counts balanced.

``mis_split`` is multilabel iterative stratification (Sechidis, Tsoumakas
and Vlahavas, 2011), a pure function of (labels, K, seed): rarest label
first, each of its unassigned positives to the fold with the largest label
quota, then the largest example quota, then a seeded draw. It keeps int64
counts of what each fold holds in place of float quotas, deals each label's
pass with array operations, and draws all of a pass's tie-breaks in one
generator call; see its docstring for why that gives the same folds as one
draw per tie. ``random_kfold`` is the uniform baseline it is measured
against.
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


# Rows formatted per write in `save_folds`.
_FOLD_BLOCK_ROWS = 4096


def save_folds(assign: FoldAssignment, path) -> None:
    """Write ``example_index,fold`` rows, byte for byte as `write_csv` would,
    one block of `_FOLD_BLOCK_ROWS` rows at a time."""
    folds = assign.fold_of
    with open(path, "w", newline="") as fh:
        fh.write("example_index,fold\r\n")
        for lo in range(0, folds.shape[0], _FOLD_BLOCK_ROWS):
            block = folds[lo:lo + _FOLD_BLOCK_ROWS].tolist()
            fh.write("".join([f"{i},{f}\r\n" for i, f in enumerate(block, lo)]))


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
    and finally to a seeded uniform choice among the tied folds, in fold
    order. Every quota the example touches is decremented. Examples with no
    positive labels are dealt last by example quota alone.

    The folds are those of dealing one example at a time on float quotas
    with one draw per tie, bit for bit, because:

    - Every label quota starts at count / K and every example quota at
      n / K, and each only ever loses 1.0, so the larger of two quotas
      belongs to the fold holding fewer positives or examples (exact below
      2**53). The state is int64 counts.
    - A pass deals only its own label's unassigned positives, picked by one
      mask; the other labels' counts take the whole pass once, after it.
    - Every example a pass deals is positive for its label, so each fold's
      examples minus its positives of that label stay fixed through the
      pass. The folds that tie at each deal are then known before any draw
      (`_deal`), and the pass draws once with ``integers(highs)``, which
      advances the generator as the scalar calls in turn would (a test pins
      this for the installed numpy).
    """
    y = check_label_matrix(labels)
    n, n_labels = y.shape
    _check_split_args(n, K, seed)
    rng = np.random.default_rng(seed)

    positive = y == 1.0
    fold_of = np.full(n, -1, dtype=np.int64)
    held = np.zeros(K, dtype=np.int64)                  # examples per fold
    held_pos = np.zeros((K, n_labels), dtype=np.int64)  # positives per fold, label
    remaining = positive.sum(axis=0)                    # unassigned positives
    while remaining.any():
        lab = int(np.argmin(np.where(remaining > 0, remaining, n + 1)))
        idx = np.flatnonzero(positive[:, lab] & (fold_of < 0))
        folds = _deal(held_pos[:, lab], held - held_pos[:, lab], idx.size, rng)
        fold_of[idx] = folds
        # positives of every label dealt to each fold in this pass
        dealt = np.array([positive[idx[folds == f]].sum(axis=0) for f in range(K)])
        held += dealt[:, lab]
        held_pos += dealt
        remaining -= dealt.sum(axis=0)

    idx = np.flatnonzero(fold_of < 0)
    fold_of[idx] = _deal(held, np.zeros(K, dtype=np.int64), idx.size, rng)
    return FoldAssignment(fold_of=fold_of, K=K)


def _deal(held, offset, m: int, rng) -> np.ndarray:
    """Folds for m examples dealt in turn, each to a fold holding the fewest
    (``held``), then with the lowest ``offset``, then a seeded draw among the
    tied folds; a deal adds 1 to its fold's ``held`` and leaves ``offset``.

    The tie groups are known before any draw. Level v (``held`` minus its
    minimum) deals once each fold that starts at v or below: in groups of
    equal offset, lowest first, a group of t folds drawing ``integers(t)``,
    ``integers(t - 1)``, ..., ``integers(2)`` among its folds not yet dealt,
    in fold order. So the m deals draw with one ``rng.integers(highs)``
    call, which advances the generator exactly as those scalar calls in turn.
    """
    K = held.size
    order = np.argsort(offset, kind="stable")   # columns: folds by offset, then fold
    level = (held - held.min())[order]
    top = int(level.max())
    # the levels below top deal (top - level).sum() examples, every later one K
    n_levels = top + max(-(-(m - int((top - level).sum())) // K), 0)
    present = level <= np.arange(n_levels)[:, None]   # (level, column): dealt there
    new_group = np.r_[True, np.diff(offset[order]) != 0]
    start = np.flatnonzero(new_group)            # first column of each tie group
    group = np.cumsum(new_group) - 1             # tie group of each column
    j = np.arange(K) - start[group]              # column's place in its group
    size = np.add.reduceat(present, start, axis=1, dtype=np.int64)[:, group]
    # cell (v, start + j) holds the group's j-th deal at level v, which draws
    # among size - j folds; row-major order over the cells is dealing order
    slots = j < size
    highs = (size - j)[slots][:m]
    flat = np.zeros(int(slots.sum()), dtype=np.int64)
    tied = np.flatnonzero(highs > 1)
    if tied.size:
        flat[tied] = rng.integers(highs[tied])
    draws = np.zeros(slots.shape, dtype=np.int64)
    draws[slots] = flat

    folds = np.zeros(slots.shape, dtype=np.int64)
    rows = np.arange(n_levels)
    for a, b in zip(start, np.r_[start[1:], K]):
        left = present[:, a:b].copy()
        for c in range(a, b):   # deal c - a picks the draws[:, c]-th fold left
            pick = np.argmax(np.cumsum(left, axis=1) > draws[:, c, None], axis=1)
            folds[:, c] = order[a + pick]
            left[rows, pick] = False
    return folds[slots][:m]


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
