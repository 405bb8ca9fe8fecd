"""Ranking and agreement metrics: exact ROC-AUC via the Mann-Whitney
statistic with midrank tie handling, macro averaging with the single-class
skip rule, and the cross-fold diagnostic statistics. `FoldStats` is the
one implementation of the cross-fold agreement and std: the report feeds
it row blocks in row order as it predicts them, `fold_agreement` and
`per_label_fold_std` feed it the row blocks of a stack they are given.
The label correlation runs numpy's `corrcoef` steps on a matrix it may
centre in place: a copy in `pearson_label_correlation`, the out-of-fold
matrix itself in the report.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .datamodel import CoupledLabelsError


class MetricError(CoupledLabelsError):
    pass


class UndefinedAucError(MetricError):
    """AUC asked for a score set with only one class present."""


# Cells that one block of a metric's work covers: a call holds a few MiB of
# temporaries whatever n and K are. AUC blocks are whole labels of an (n, L)
# matrix, the other metrics' blocks are whole rows, of all K folds in
# `FoldStats`.
_BLOCK_CELLS = 1 << 16
# A fold model votes for a label where its probability is at least this.
VOTE_THRESHOLD = 0.5


def _blocks(n_items: int, cells_per_item: int):
    """Slices cutting `n_items` into runs of at most `_BLOCK_CELLS` cells,
    and of at least one item."""
    step = max(1, _BLOCK_CELLS // max(1, cells_per_item))
    return (slice(lo, lo + step) for lo in range(0, n_items, step))


def _column_aucs(scores, pos) -> list[float]:
    """ROC-AUC of every row of (L, n) scores against (L, n) positive flags,
    all rows ranked by one argsort.

    Past the sort the kernel holds two block-sized arrays, the sorted scores
    and their positive flags, besides the positives' positions. A positive
    at sorted position j of its row has rank j + 1 when untied; a tie group
    at positions first..last gives each of its k positives the midrank
    (first + last + 2) / 2 instead. So twice the positives' midrank sum is
    the no-tie sum 2 * sum(j + 1) plus k * (first + last) - 2 * sum(j) over
    each tie group: an exact integer, and R_pos = that / 2 is the float a
    float64 midrank sum gives.
    A row whose scores contain NaN gets NaN, as NaN ranks propagate.
    """
    L, n = scores.shape
    n_pos = pos.sum(axis=1)
    if np.any((n_pos == 0) | (n_pos == n)):
        raise UndefinedAucError("AUC undefined: only one class present")
    # flat indices into the (L, n) buffers, so one gather serves every row;
    # flat position f of row r is sorted position f - r * n
    order = np.argsort(scores, axis=1)
    order += np.arange(0, L * n, n)[:, None]
    s = scores.ravel()[order.ravel()]
    p = pos.ravel()[order.ravel()]
    del order
    has_nan = np.isnan(s[n - 1::n])  # NaN sorts last
    at = np.flatnonzero(p)            # the positives' flat positions, row by row
    twice_r_pos = 2 * np.add.reduceat(at, np.cumsum(n_pos) - n_pos)
    twice_r_pos -= (2 * n * np.arange(L) - 2) * n_pos
    # tied[f]: s[f] == s[f + 1] within one row; a tie group is a run of them
    tied = s[1:] == s[:-1]
    del s
    tied[n - 1::n] = False
    edges = np.flatnonzero(np.diff(tied, prepend=False, append=False))
    if edges.size:
        first, last = edges[0::2], edges[1::2]
        lo, hi = np.searchsorted(at, first), np.searchsorted(at, last, side="right")
        sums = np.zeros(at.size + 1, dtype=np.int64)   # sums[i]: at[:i].sum()
        np.cumsum(at, out=sums[1:])
        np.add.at(twice_r_pos, first // n, (hi - lo) * (first + last) - 2 * (sums[hi] - sums[lo]))
    aucs = []
    for twice, k, nan in zip(twice_r_pos.tolist(), n_pos.tolist(), has_nan.tolist()):
        r_pos = math.nan if nan else twice / 2.0
        aucs.append((r_pos - k * (k + 1) / 2.0) / (k * (n - k)))
    return aucs


def roc_auc(scores, targets) -> float:
    """Probability a random positive outranks a random negative, ties
    counted half: AUC = (R_pos - n_pos(n_pos+1)/2) / (n_pos * n_neg) with
    R_pos the midrank sum of the positives."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(targets, dtype=np.float64).ravel()
    if s.shape != y.shape:
        raise MetricError(f"scores {s.shape} and targets {y.shape} differ in length")
    return _column_aucs(s[None, :], (y == 1.0)[None, :])[0]


@dataclass(frozen=True)
class AucReport:
    per_label_auc: list[float | None]  # None where the label was skipped
    macro_auc: float
    skipped_labels: list[int]

    def to_json_dict(self) -> dict:
        return asdict(self)


def macro_auc(probs, labels) -> AucReport:
    """Per-label ROC-AUC, macro-averaged; single-class labels are skipped
    and listed. Raises if every label is single-class."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape or p.ndim != 2:
        raise MetricError(f"probs {p.shape} and labels {y.shape} must be equal 2-D shapes")
    # a (0, 0) matrix has no column to reduce, and no label to keep
    single = y.min(axis=0) == y.max(axis=0) if y.shape[1] else np.ones(0, dtype=bool)
    kept = np.flatnonzero(~single)
    skipped = np.flatnonzero(single).tolist()
    # each block's labels are gathered into (labels, n) rows for the kernel
    present = []
    for block in _blocks(kept.size, y.shape[0]):
        cols = kept[block]
        present += _column_aucs(p.T[cols], y.T[cols] == 1.0)
    per_label: list[float | None] = [None] * len(single)
    for l, auc in zip(kept.tolist(), present):
        per_label[l] = auc
    if not present:
        raise UndefinedAucError("macro-AUC undefined: every label has a single class")
    return AucReport(
        per_label_auc=per_label,
        macro_auc=float(np.mean(present)),
        skipped_labels=skipped,
    )


def pearson_label_correlation(probs) -> np.ndarray:
    """L x L Pearson correlation between probability columns. Columns with
    zero variance produce NaN rows/columns (reported as absent)."""
    p = np.array(probs, dtype=np.float64)   # a copy, which the kernel centres
    if p.ndim != 2:
        raise MetricError(f"expected 2-D probabilities, got shape {p.shape}")
    return _pearson_in_place(p)


def _pearson_in_place(x: np.ndarray) -> np.ndarray:
    """`pearson_label_correlation` of the float64 (n, L) matrix `x`, which
    it centres in place: numpy's own `corrcoef(x, rowvar=False)` steps, with
    the same bits, on the caller's array instead of a private copy."""
    n, L = x.shape
    xt = x.T
    with np.errstate(invalid="ignore", divide="ignore"):
        xt -= xt.mean(axis=1)[:, None]
        # `cov` multiplies by `X.T.conj()`, which for real X is X.T itself, so
        # `dot` gets one buffer and its own transpose; a copy would change the
        # BLAS routine and the bits
        corr = np.dot(xt, xt.T)
        corr *= np.true_divide(1, n - 1 if n > 1 else 0.0)
        if L == 1:   # numpy's scalar covariance: 1, or NaN where undefined
            return corr / corr
        std = np.sqrt(np.diag(corr))
        corr /= std[:, None]
        corr /= std[None, :]
    return np.clip(corr, -1.0, 1.0, out=corr)


@dataclass(frozen=True)
class FoldAgreement:
    """Cell-level agreement among K fold models' thresholded predictions."""

    majority_counts: dict[int, int]  # majority size -> number of cells
    unanimous_cells: int
    split_cells: int
    pair_agreement: np.ndarray       # (K, K), fraction of cells agreeing

    def to_json_dict(self) -> dict:
        return {
            "majority_counts": {str(k): v for k, v in sorted(self.majority_counts.items())},
            "unanimous_cells": self.unanimous_cells,
            "split_cells": self.split_cells,
            "pair_agreement": self.pair_agreement.tolist(),
        }


class FoldStats:
    """The cross-fold diagnostics of K fold models' (n, L) predictions, fed
    one (K, b, L) block of rows at a time, so no (K, n, L) stack needs to
    exist: the majority levels and pairwise agreement of the votes
    p >= `VOTE_THRESHOLD`, as integer counts, and a running (L,) sum of each
    cell's population std across the folds. The blocks must come in row
    order; then any blocking gives the same bits."""

    def __init__(self, K: int, n: int, L: int):
        self.K, self.n, self.L = K, n, L
        self.levels = np.zeros(K + 1, dtype=np.int64)   # majority size -> cells
        self.agree = np.zeros((K, K), dtype=np.int64)   # cells on which folds a < b agree
        self.std_sum = np.zeros(L)

    def add(self, block: np.ndarray) -> None:
        """Count the (K, b, L) predictions `block` of the next b rows."""
        K = self.K
        votes = block >= VOTE_THRESHOLD
        ones = np.count_nonzero(votes, axis=0)
        self.levels += np.bincount(np.maximum(ones, K - ones).ravel(), minlength=K + 1)
        for a in range(K):
            for b in range(a + 1, K):
                self.agree[a, b] += np.count_nonzero(votes[a] == votes[b])
        # Row 0 carries the sum so far: an axis-0 sum of a C-ordered matrix
        # of L >= 2 columns adds its rows one after another, so the running
        # sum has the bits of one sum over all n rows.
        rows = np.empty((block.shape[1] + 1, self.L))
        rows[0] = self.std_sum
        block.std(axis=0, ddof=0, out=rows[1:])
        rows.sum(axis=0, out=self.std_sum)

    def agreement(self) -> FoldAgreement:
        cells = self.n * self.L
        pair = self.agree / cells
        pair += pair.T
        np.fill_diagonal(pair, 1.0)
        unanimous = int(self.levels[self.K])
        return FoldAgreement(
            majority_counts={lv: c for lv, c in enumerate(self.levels.tolist()) if c},
            unanimous_cells=unanimous,
            split_cells=cells - unanimous,
            pair_agreement=pair,
        )

    def per_label_std(self) -> np.ndarray:
        """Mean over examples of each cell's std across folds."""
        return self.std_sum / self.n


def _stacked_stats(fold_probs) -> FoldStats:
    """`FoldStats` of fold predictions already held in full: a (K, n, L)
    array, read without a copy, or a list of (n, L) matrices, stacked."""
    try:
        stack = np.asarray(fold_probs, dtype=np.float64)
    except ValueError:   # a ragged list
        stack = None
    if stack is None or stack.ndim != 3 or len(stack) < 2:
        raise MetricError("need at least two fold prediction matrices of one 2-D shape")
    K, n, L = stack.shape
    stats = FoldStats(K, n, L)
    for rows in _blocks(n, K * L):
        stats.add(stack[:, rows])
    return stats


def fold_agreement(fold_probs) -> FoldAgreement:
    """Binarize each fold's probabilities at `VOTE_THRESHOLD` (p >= t -> 1)
    and count, per cell, how many folds voted with the majority."""
    return _stacked_stats(fold_probs).agreement()


def per_label_fold_std(fold_probs) -> np.ndarray:
    """Population std across folds per cell, then mean over examples."""
    return _stacked_stats(fold_probs).per_label_std()


def probability_histograms(probs, bins: int = 20) -> np.ndarray:
    """Per-label counts over uniform bins of [0, 1].

    Bins are half-open [lo, hi) with the last bin right-closed, i.e. the bin
    index is min(floor(p * bins), bins - 1); p = 0.5 with two bins lands in
    the upper bin. A value outside [0, 1], NaN included, raises.
    """
    if bins < 1:
        raise MetricError(f"bins must be >= 1, got {bins}")
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2:
        raise MetricError(f"expected 2-D probabilities, got shape {p.shape}")
    n, L = p.shape
    counts = np.zeros(L * bins, dtype=np.intp)
    for rows in _blocks(n, L):
        block = p[rows]
        outside = ~((block >= 0.0) & (block <= 1.0))
        if outside.any():
            row, col = np.argwhere(outside)[0]
            raise MetricError(f"label column {col}: probability {float(block[row, col])!r} "
                              "is outside [0, 1]")
        # label l counts into bins l*bins .. l*bins + bins - 1
        idx = np.minimum((block * bins).astype(np.int64), bins - 1)
        counts += np.bincount((idx + np.arange(L) * bins).ravel(), minlength=L * bins)
    return counts.reshape(L, bins)
