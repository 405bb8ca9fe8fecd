from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupled_labels import metrics
from coupled_labels.metrics import (
    MetricError,
    UndefinedAucError,
    fold_agreement,
    macro_auc,
    pearson_label_correlation,
    per_label_fold_std,
    probability_histograms,
    roc_auc,
)
from helpers import (
    brute_force_auc,
    reference_fold_agreement,
    reference_macro_auc,
    reference_pearson,
    reference_per_label_fold_std,
    reference_probability_histograms,
    reference_roc_auc,
)


def _outcome(fn, *args):
    """What fn returns, with every float as float.hex, or the error it raises."""
    try:
        result = fn(*args)
    except Exception as exc:  # the error itself is the outcome compared
        return ("raised", type(exc), str(exc))
    if isinstance(result, float):
        return ("auc", result.hex())
    return ("report", [None if v is None else v.hex() for v in result.per_label_auc],
            result.macro_auc.hex(), result.skipped_labels)


@st.composite
def auc_cases(draw):
    """A (probs, labels) pair drawn to hit the rank kernel's edge cases: heavy
    ties, all-tied columns, +-inf, -0.0 next to 0.0, a NaN score, single-class
    columns and targets outside {0, 1}."""
    n = draw(st.integers(2, 3000))
    L = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "special", "uniform"]))
    if kind == "grid":
        probs = rng.integers(0, draw(st.integers(1, 8)), size=(n, L)) / 2.0
    elif kind == "special":
        probs = rng.choice([-np.inf, -1.0, -0.0, 0.0, 0.25, 1.0, np.inf], size=(n, L))
    else:
        probs = rng.random((n, L))
    labels = (rng.random((n, L)) < draw(st.floats(0.0, 1.0))).astype(np.float64)
    if draw(st.booleans()):
        probs[:, draw(st.integers(0, L - 1))] = 0.5  # all tied
    if draw(st.booleans()):
        probs[draw(st.integers(0, n - 1)), draw(st.integers(0, L - 1))] = np.nan
    if draw(st.booleans()):
        labels[:, draw(st.integers(0, L - 1))] = draw(st.sampled_from([0.0, 1.0]))
    if draw(st.booleans()):
        labels[rng.random((n, L)) < 0.1] = draw(st.sampled_from([2.0, -1.0, 0.5]))
    return probs, labels


class TestMatchesRankdataReference:
    """roc_auc and macro_auc give the bits the per-column rankdata code gave."""

    @settings(max_examples=150, deadline=None)
    @given(auc_cases())
    def test_macro_auc_bit_identical(self, case):
        probs, labels = case
        assert _outcome(macro_auc, probs, labels) == _outcome(reference_macro_auc, probs, labels)

    @settings(max_examples=150, deadline=None)
    @given(auc_cases())
    def test_roc_auc_bit_identical(self, case):
        probs, labels = case
        for l in range(probs.shape[1]):
            assert (_outcome(roc_auc, probs[:, l], labels[:, l])
                    == _outcome(reference_roc_auc, probs[:, l], labels[:, l]))

    def test_nan_score_gives_nan_for_its_label_only(self):
        rng = np.random.default_rng(14)
        probs = rng.random((50, 3))
        labels = (rng.random((50, 3)) < 0.5).astype(float)
        probs[7, 1] = np.nan
        report = macro_auc(probs, labels)
        assert np.isnan(report.per_label_auc[1]) and np.isnan(report.macro_auc)
        assert not np.isnan(report.per_label_auc[0]) and not np.isnan(report.per_label_auc[2])
        assert _outcome(macro_auc, probs, labels) == _outcome(reference_macro_auc, probs, labels)

    def test_signed_zero_and_infinities_tie(self):
        probs = np.array([[-0.0], [0.0], [np.inf], [np.inf], [-np.inf], [0.0]])
        labels = np.array([[1.0], [0.0], [1.0], [0.0], [0.0], [1.0]])
        assert _outcome(macro_auc, probs, labels) == _outcome(reference_macro_auc, probs, labels)
        # midranks 3 (the zeros) and 5.5 (the infinities): (11.5 - 6) / 9
        assert macro_auc(probs, labels).macro_auc == 5.5 / 9

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (1, 2)])
    def test_degenerate_shapes(self, shape):
        probs = np.zeros(shape)
        labels = np.ones(shape)
        assert _outcome(macro_auc, probs, labels) == _outcome(reference_macro_auc, probs, labels)

    def test_validation_sized_matrix(self):
        rng = np.random.default_rng(15)
        probs = np.round(rng.random((60000, 14)), 3)  # ties between rows
        labels = (rng.random((60000, 14)) < rng.random(14)).astype(float)
        labels[:, 13] = 0.0
        assert _outcome(macro_auc, probs, labels) == _outcome(reference_macro_auc, probs, labels)


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_ties(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_matches_pair_count_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(5, 60))
            # integer-grid scores force heavy ties
            scores = rng.integers(0, 8, size=n).astype(float) / 2.0
            targets = (rng.random(n) < 0.4).astype(int)
            if targets.sum() in (0, n):
                continue
            assert roc_auc(scores, targets) == brute_force_auc(scores, targets)

    def test_single_class_raises(self):
        with pytest.raises(UndefinedAucError):
            roc_auc([0.1, 0.9], [1, 1])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=30)
        targets = (rng.random(30) < 0.5).astype(int)
        base = roc_auc(scores, targets)
        assert roc_auc(np.exp(scores), targets) == pytest.approx(base, abs=1e-12)
        assert roc_auc(3.0 * scores + 7.0, targets) == pytest.approx(base, abs=1e-12)

    def test_complement_identity_without_ties(self):
        rng = np.random.default_rng(2)
        scores = rng.permutation(40).astype(float)
        targets = (rng.random(40) < 0.5).astype(int)
        assert roc_auc(scores, targets) + roc_auc(-scores, targets) == pytest.approx(
            1.0, abs=1e-12
        )


class TestMacroAuc:
    def test_single_class_label_skipped(self):
        probs = np.array([[0.9, 0.4], [0.1, 0.6], [0.8, 0.5]])
        labels = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        report = macro_auc(probs, labels)
        assert report.skipped_labels == [1]
        assert report.per_label_auc[1] is None
        assert report.macro_auc == report.per_label_auc[0] == 1.0

    def test_perfect_predictions(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        report = macro_auc(labels.copy(), labels)
        assert report.macro_auc == 1.0

    def test_matches_per_label_oracle(self):
        rng = np.random.default_rng(3)
        probs = rng.random((30, 4))
        labels = (rng.random((30, 4)) < 0.5).astype(float)
        report = macro_auc(probs, labels)
        oracle = np.mean(
            [brute_force_auc(probs[:, l], labels[:, l]) for l in range(4)]
        )
        assert report.macro_auc == pytest.approx(oracle, abs=1e-12)

    def test_all_labels_skipped(self):
        with pytest.raises(UndefinedAucError):
            macro_auc(np.random.rand(3, 2), np.ones((3, 2)))

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(4)
        probs = rng.random((25, 5))
        labels = (rng.random((25, 5)) < 0.4).astype(float)
        base = macro_auc(probs, labels).macro_auc
        perm = rng.permutation(5)
        assert macro_auc(probs[:, perm], labels[:, perm]).macro_auc == pytest.approx(
            base, abs=1e-12
        )


def _constant_column():
    probs = np.random.default_rng(26).random((40, 4))
    probs[:, 2] = 0.25
    return probs


# name -> probabilities; each call draws the same matrix
PEARSON_CASES = {
    "random": lambda: np.random.default_rng(27).random((3000, 14)),
    "constant column": _constant_column,
    "n2 L2": lambda: np.random.default_rng(28).random((2, 2)),
    "offset 1e6": lambda: 1e6 + np.random.default_rng(29).random((200, 5)),
    "tied": lambda: np.round(np.random.default_rng(30).random((300, 6)), 1),
    "one row": lambda: np.random.default_rng(31).random((1, 3)),
    "one column": lambda: np.random.default_rng(32).random((30, 1)),
    "fortran order": lambda: np.asfortranarray(np.random.default_rng(33).random((50, 3))),
}


class TestPearson:
    def test_duplicated_column(self):
        rng = np.random.default_rng(5)
        col = rng.random(50)
        probs = np.stack([col, col, rng.random(50)], axis=1)
        corr = pearson_label_correlation(probs)
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_complement_column(self):
        rng = np.random.default_rng(6)
        col = rng.random(50)
        probs = np.stack([col, 1.0 - col], axis=1)
        corr = pearson_label_correlation(probs)
        assert corr[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(7)
        probs = rng.random((100, 3))
        corr = pearson_label_correlation(probs)
        mu = probs.mean(axis=0)
        centered = probs - mu
        cov = centered.T @ centered / probs.shape[0]
        sd = np.sqrt(np.diag(cov))
        oracle = cov / np.outer(sd, sd)
        np.testing.assert_allclose(corr, oracle, atol=1e-12)
        assert np.all(np.abs(corr) <= 1.0)
        np.testing.assert_allclose(np.diag(corr), np.ones(3), atol=1e-15)

    def test_zero_variance_column_reported_absent(self):
        probs = np.stack([np.full(10, 0.5), np.linspace(0, 1, 10)], axis=1)
        corr = pearson_label_correlation(probs)
        assert np.isnan(corr[0, 1]) and np.isnan(corr[1, 0])
        assert corr[1, 1] == 1.0

    @pytest.mark.parametrize("case", list(PEARSON_CASES))
    def test_in_place_kernel_has_corrcoef_bits(self, case):
        probs = PEARSON_CASES[case]()
        want = reference_pearson(probs)
        kept = probs.copy()
        got = pearson_label_correlation(probs)
        assert _bits(got) == _bits(want)
        assert probs.tobytes() == kept.tobytes()
        if case == "constant column":
            assert np.isnan(got[2]).all() and np.isnan(got[:, 2]).all()
            assert not np.isnan(np.delete(np.delete(got, 2, 0), 2, 1)).any()
        centred = np.array(probs)
        assert _bits(metrics._pearson_in_place(centred)) == _bits(want)


class TestFoldAgreement:
    def test_identical_folds_unanimous(self):
        rng = np.random.default_rng(8)
        probs = rng.random((10, 4))
        agreement = fold_agreement([probs, probs.copy(), probs.copy()])
        assert agreement.unanimous_cells == 40
        assert agreement.split_cells == 0
        np.testing.assert_allclose(agreement.pair_agreement, np.ones((3, 3)))

    def test_one_flipped_fold(self):
        rng = np.random.default_rng(9)
        probs = rng.random((10, 4)) * 0.4  # all below threshold
        flipped = probs + 0.6               # all above
        agreement = fold_agreement([probs, probs.copy(), flipped])
        assert agreement.majority_counts == {2: 40}
        assert agreement.unanimous_cells == 0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(10)
        folds = [rng.random((12, 3)) for _ in range(3)]
        agreement = fold_agreement(folds)
        binary = [(f >= 0.5).astype(int) for f in folds]
        unanimous = split = 0
        counts = {}
        for i in range(12):
            for l in range(3):
                votes = [b[i, l] for b in binary]
                majority = max(votes.count(0), votes.count(1))
                counts[majority] = counts.get(majority, 0) + 1
                if majority == 3:
                    unanimous += 1
                else:
                    split += 1
        assert agreement.unanimous_cells == unanimous
        assert agreement.split_cells == split
        assert agreement.majority_counts == counts
        for a in range(3):
            for b in range(3):
                expected = float(np.mean(binary[a] == binary[b]))
                assert agreement.pair_agreement[a, b] == pytest.approx(expected)

    def test_shape_mismatch(self):
        with pytest.raises(MetricError):
            fold_agreement([np.zeros((3, 2)), np.zeros((4, 2))])


class TestPerLabelFoldStd:
    def test_identical_folds_zero(self):
        probs = np.random.default_rng(11).random((8, 3))
        np.testing.assert_array_equal(
            per_label_fold_std([probs, probs.copy()]), np.zeros(3)
        )

    def test_opposite_binary_folds(self):
        a = np.zeros((5, 2))
        b = np.ones((5, 2))
        np.testing.assert_allclose(per_label_fold_std([a, b]), [0.5, 0.5])

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(12)
        folds = [rng.random((20, 4)) for _ in range(3)]
        result = per_label_fold_std(folds)
        stack = np.stack(folds)
        oracle = np.sqrt(((stack - stack.mean(axis=0)) ** 2).mean(axis=0)).mean(axis=0)
        np.testing.assert_allclose(result, oracle, atol=1e-12)


class TestHistograms:
    def test_half_open_convention(self):
        # 0.5 with two bins lands in the upper bin
        counts = probability_histograms(np.full((4, 1), 0.5), bins=2)
        np.testing.assert_array_equal(counts, [[0, 4]])

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(13)
        probs = rng.random((37, 5))
        counts = probability_histograms(probs, bins=20)
        np.testing.assert_array_equal(counts.sum(axis=1), np.full(5, 37))

    def test_uniform_grid_one_per_bin(self):
        grid = (np.arange(20) / 20.0).reshape(-1, 1)
        counts = probability_histograms(grid, bins=20)
        np.testing.assert_array_equal(counts, np.ones((1, 20), dtype=int))

    def test_probability_one_in_last_bin(self):
        counts = probability_histograms(np.array([[1.0]]), bins=10)
        assert counts[0, -1] == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 20), st.integers(1, 30),
           st.integers(0, 2**32 - 1))
    def test_matches_per_label_loop(self, n, L, bins, seed):
        rng = np.random.default_rng(seed)
        probs = rng.random((n, L))
        probs[rng.random((n, L)) < 0.1] = 1.0
        probs[rng.random((n, L)) < 0.1] = 0.0
        probs[rng.random((n, L)) < 0.1] = 0.5
        np.testing.assert_array_equal(probability_histograms(probs, bins=bins),
                                      reference_probability_histograms(probs, bins=bins))

    def test_one_and_half_match_per_label_loop(self):
        probs = np.array([[1.0, 0.5], [0.5, 1.0], [0.0, 0.5]])
        for bins in (1, 2, 3):
            np.testing.assert_array_equal(probability_histograms(probs, bins=bins),
                                          reference_probability_histograms(probs, bins=bins))
        np.testing.assert_array_equal(probability_histograms(probs, bins=2), [[1, 2], [0, 3]])

    # the loop's bincount rejects an index below 0, but counts -0.01 in
    # bin 0 and 1.7 in the last bin
    @pytest.mark.parametrize("bad,loop_rejects", [
        pytest.param(bad, rejects, id=repr(bad)) for bad, rejects in [
            (-0.5, True), (np.nan, True), (-0.01, False), (1.7, False),
            (np.inf, True), (-np.inf, True)]])
    def test_out_of_range_probability_rejected_as_by_the_loop(self, bad, loop_rejects):
        probs = np.array([[0.2, 0.7], [0.1, bad]])  # not in label 0's bins
        with np.errstate(invalid="ignore"):
            if loop_rejects:
                with pytest.raises(ValueError):
                    reference_probability_histograms(probs, bins=4)
            with pytest.raises(MetricError,
                               match=rf"label column 1: probability {bad!r} is outside \[0, 1\]"):
                probability_histograms(probs, bins=4)


def _bits(arr):
    return np.asarray(arr, dtype=np.float64).view(np.int64).tolist()


def _agreement_outcome(agreement):
    return (agreement.majority_counts, list(agreement.majority_counts),
            agreement.unanimous_cells, agreement.split_cells,
            _bits(agreement.pair_agreement))


def _fold_stack(rng, K, n, L):
    """K fold prediction matrices on a coarse grid that holds the threshold
    0.5 itself, so votes tie at the boundary and majorities split."""
    return rng.integers(0, 9, size=(K, n, L)) / 8.0


class TestBlockwiseMetrics:
    """Metrics that work block by block give the bits of the whole-matrix
    code, for blocks of any size and inputs spanning many blocks."""

    @pytest.mark.parametrize("labels_per_block", [1, 2, 3, 5, 64])
    def test_macro_auc_blocks_match_reference(self, labels_per_block):
        rng = np.random.default_rng(20)
        n, L = 400, 13
        probs = np.round(rng.random((n, L)), 2)       # ties between rows
        labels = (rng.random((n, L)) < rng.uniform(0.05, 0.6, size=L)).astype(float)
        probs[17, 4] = np.nan                          # NaN score in one label
        probs[:, 6] = 0.5                              # all tied
        labels[rng.random((n, L)) < 0.05] = 2.0        # targets outside {0, 1}
        labels[:, [0, 7, 12]] = [0.0, 1.0, 0.0]        # skipped labels in several blocks
        with mock.patch.object(metrics, "_BLOCK_CELLS", labels_per_block * n):
            got = _outcome(macro_auc, probs, labels)
        assert got == _outcome(reference_macro_auc, probs, labels)
        assert np.isnan(macro_auc(probs, labels).per_label_auc[4])
        assert got[3] == [0, 7, 12]

    @settings(max_examples=60, deadline=None)
    @given(auc_cases(), st.integers(1, 4))
    def test_macro_auc_blocks_match_reference_on_drawn_cases(self, case, labels_per_block):
        probs, labels = case
        with mock.patch.object(metrics, "_BLOCK_CELLS", labels_per_block * probs.shape[0]):
            got = _outcome(macro_auc, probs, labels)
        assert got == _outcome(reference_macro_auc, probs, labels)

    def test_default_blocks_span_several_labels_at_validation_size(self):
        rng = np.random.default_rng(21)
        n, L = 30000, 14
        assert 1 < metrics._BLOCK_CELLS // n < L
        probs = np.round(rng.random((n, L)), 3)
        labels = (rng.random((n, L)) < rng.random(L)).astype(float)
        labels[:, 5] = 1.0
        probs[3, 9] = np.nan
        assert _outcome(macro_auc, probs, labels) == _outcome(reference_macro_auc, probs, labels)

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    @pytest.mark.parametrize("rows_per_block", [1, 3, 1000])
    def test_fold_agreement_matches_unique_formulation(self, K, rows_per_block):
        rng = np.random.default_rng(22 + K)
        n, L = 37, 4
        stack = _fold_stack(rng, K, n, L)
        with mock.patch.object(metrics, "_BLOCK_CELLS", rows_per_block * L):
            got_array = _agreement_outcome(fold_agreement(stack))
            got_list = _agreement_outcome(fold_agreement(list(stack)))
        assert got_array == got_list == _agreement_outcome(reference_fold_agreement(stack))
        assert sum(got_array[0].values()) == n * L

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_fold_agreement_absent_majority_levels(self, K):
        # unanimous folds: only level K; one fold flipped: only level K - 1
        # (for K = 2 that is level 1, a tie every cell)
        base = np.random.default_rng(23).random((9, 3)) * 0.4
        folds = [base.copy() for _ in range(K)]
        for stack in (folds, folds[:-1] + [base + 0.6]):
            with mock.patch.object(metrics, "_BLOCK_CELLS", 2 * 3):
                got = _agreement_outcome(fold_agreement(np.stack(stack)))
            assert got == _agreement_outcome(reference_fold_agreement(stack))
            assert len(got[0]) == 1

    @pytest.mark.parametrize("K", [2, 3, 5])
    @pytest.mark.parametrize("rows_per_block", [1, 4, 1000])
    @pytest.mark.parametrize("n", [1, 53, 1561])
    @pytest.mark.parametrize("L", [2, 3, 14])
    def test_per_label_fold_std_array_and_list_same_bits(self, K, rows_per_block, n, L):
        # the running sum of the blocks' stds has the bits of one mean over
        # the (n, L) per-cell std, whatever the blocking
        rng = np.random.default_rng(24 + K)
        stack = rng.random((K, n, L))
        stack[:, ::4] = np.round(stack[:, ::4], 1)
        with mock.patch.object(metrics, "_BLOCK_CELLS", rows_per_block * K * L):
            from_array = per_label_fold_std(stack)
            from_list = per_label_fold_std(list(stack))
        assert _bits(from_array) == _bits(from_list) == _bits(reference_per_label_fold_std(stack))

    def test_fold_stack_shape_errors(self):
        with pytest.raises(MetricError, match="at least two"):
            per_label_fold_std(np.zeros((1, 4, 3)))
        with pytest.raises(MetricError, match="one 2-D shape"):
            fold_agreement(np.zeros((3, 4)))
        with pytest.raises(MetricError, match="one 2-D shape"):
            fold_agreement([np.zeros(4), np.zeros(4)])
        with pytest.raises(MetricError, match="one 2-D shape"):
            per_label_fold_std([np.zeros((4, 3)), np.zeros((5, 3))])

    @pytest.mark.parametrize("rows_per_block", [1, 7])
    def test_histograms_blocks_match_per_label_loop(self, rows_per_block):
        rng = np.random.default_rng(25)
        probs = rng.random((50, 5))
        probs[rng.random((50, 5)) < 0.1] = 1.0
        with mock.patch.object(metrics, "_BLOCK_CELLS", rows_per_block * 5):
            got = probability_histograms(probs, bins=7)
        np.testing.assert_array_equal(got, reference_probability_histograms(probs, bins=7))
