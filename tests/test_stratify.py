import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coupled_labels.stratify import (
    FoldAssignment,
    SplitError,
    load_folds,
    mis_split,
    random_kfold,
    save_folds,
    split_quality,
)
from coupled_labels.synthgen import default_spec, generate
from helpers import (
    joined_save_folds,
    list_loop_mis_split,
    reference_mis_split,
    reference_save_folds,
)

label_matrices = st.integers(2, 12).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda l: st.lists(
            st.lists(st.sampled_from([0.0, 1.0]), min_size=l, max_size=l),
            min_size=n, max_size=n,
        )
    )
)


class TestMisSplit:
    def test_single_label_balance_brute_force(self):
        # every valid 2-fold split of [1,1,0,0] puts one positive and one
        # negative in each fold; check mis lands on one of them
        labels = np.array([[1.0], [1.0], [0.0], [0.0]])
        valid = set()
        for fold_bits in itertools.product([0, 1], repeat=4):
            sizes = [fold_bits.count(f) for f in (0, 1)]
            pos = [sum(1 for i in (0, 1) if fold_bits[i] == f) for f in (0, 1)]
            if sizes == [2, 2] and pos == [1, 1]:
                valid.add(fold_bits)
        for seed in range(6):
            assign = mis_split(labels, 2, seed)
            assert tuple(assign.fold_of.tolist()) in valid

    def test_all_zero_labels(self):
        labels = np.zeros((4, 3))
        assign = mis_split(labels, 2, 0)
        assert sorted(assign.fold_sizes().tolist()) == [2, 2]

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        labels = (rng.random((40, 4)) < 0.3).astype(float)
        a = mis_split(labels, 3, seed=9)
        b = mis_split(labels, 3, seed=9)
        np.testing.assert_array_equal(a.fold_of, b.fold_of)

    def test_k_greater_than_n(self):
        with pytest.raises(SplitError):
            mis_split(np.ones((3, 2)), 4, 0)

    def test_k_below_two(self):
        with pytest.raises(SplitError):
            mis_split(np.ones((3, 2)), 1, 0)

    def test_negative_seed_rejected_by_every_splitter(self):
        labels = np.ones((3, 2))
        for split in (lambda: mis_split(labels, 2, -1), lambda: random_kfold(3, 2, -1)):
            with pytest.raises(SplitError, match="seed"):
                split()

    @settings(max_examples=40, deadline=None)
    @given(label_matrices, st.integers(0, 3))
    def test_partition_property(self, rows, seed):
        labels = np.array(rows)
        assign = mis_split(labels, 2, seed)
        assert assign.fold_of.shape == (labels.shape[0],)
        assert assign.fold_sizes().sum() == labels.shape[0]
        assert set(assign.fold_of.tolist()) <= {0, 1}

    def test_quota_balance_for_unconstrained_labels(self):
        # labels dealt before any of their positives were taken by an
        # earlier label must land within +-1 of the per-fold quota
        rng = np.random.default_rng(0)
        labels = (rng.random((120, 6)) < rng.uniform(0.05, 0.5, size=6)).astype(float)
        K = 3
        assign = mis_split(labels, K, seed=2)
        ref_assign, stats = reference_mis_split(labels, K, seed=2)
        np.testing.assert_array_equal(assign.fold_of, ref_assign.fold_of)
        for lab, pre in zip(stats.label_order, stats.pre_assigned):
            if pre > 0:
                continue
            quota = labels[:, lab].sum() / K
            for f in range(K):
                got = labels[assign.fold_of == f, lab].sum()
                assert abs(got - quota) <= 1.0



@st.composite
def tie_heavy_splits(draw):
    """(labels, K) with K in 2..6 and labels built from a few distinct rows,
    one of them all-zero, each repeated, so quota ties and seeded draws are
    common."""
    K = draw(st.integers(2, 6))
    n_labels = draw(st.integers(1, 5))
    row = st.lists(st.sampled_from([0.0, 1.0]), min_size=n_labels, max_size=n_labels)
    base = draw(st.lists(row, min_size=1, max_size=4)) + [[0.0] * n_labels]
    counts = draw(st.lists(st.integers(0, 8), min_size=len(base), max_size=len(base)))
    counts[draw(st.integers(0, len(base) - 1))] += K
    rows = [r for r, c in zip(base, counts) for _ in range(c)]
    order = draw(st.permutations(range(len(rows))))
    return np.array([rows[i] for i in order], dtype=np.float64), K


class TestMisSplitMatchesReference:
    """mis_split against the NumPy-per-example loop in tests/helpers.py."""

    @settings(max_examples=150, deadline=None)
    @given(tie_heavy_splits(), st.integers(0, 2**32 - 1))
    def test_same_folds_and_stats(self, split, seed):
        # the quota checks read the reference's stats, which describe
        # mis_split's folds only where the two splits match
        labels, K = split
        assign = mis_split(labels, K, seed)
        ref_assign, _ = reference_mis_split(labels, K, seed)
        np.testing.assert_array_equal(assign.fold_of, ref_assign.fold_of)

    @pytest.mark.parametrize("K,seed", [(2, 0), (3, 1), (4, 7), (5, 2), (6, 3)])
    def test_same_folds_and_stats_at_scale(self, K, seed):
        rng = np.random.default_rng(K)
        base = (rng.random((40, 8)) < rng.uniform(0.02, 0.5, size=8)).astype(float)
        labels = base[rng.integers(0, 40, size=3000)]
        assign = mis_split(labels, K, seed)
        ref_assign, _ = reference_mis_split(labels, K, seed)
        np.testing.assert_array_equal(assign.fold_of, ref_assign.fold_of)


@pytest.fixture(scope="module")
def rows_60k_labels():
    """The labels of perfbench's rows-60k workload."""
    return generate(default_spec(60000)).labels


def cxr_like_labels(K, n=20000):
    """n rows of 14 labels at prevalences of 1-18%, raised together by a
    per-row severity, so that many rows are all zero; label 6 has K - 1
    positives, fewer than one per fold."""
    rng = np.random.default_rng(K)
    prevalence = np.linspace(0.01, 0.18, 14)
    labels = (rng.random((n, 14)) < 2 * prevalence * rng.random((n, 1))).astype(float)
    labels[:, 6] = 0.0
    labels[rng.choice(n, K - 1, replace=False), 6] = 1.0
    return labels


class TestMisSplitMatchesListLoop:
    """mis_split against the per-positive list loop in tests/helpers.py,
    which draws once per tie, on inputs where many passes open unlevel."""

    def test_rows_60k(self, rows_60k_labels):
        assign = mis_split(rows_60k_labels, 3, 0)
        np.testing.assert_array_equal(
            assign.fold_of, list_loop_mis_split(rows_60k_labels, 3, 0).fold_of)

    @pytest.mark.parametrize("K", [2, 5, 7])
    def test_cxr_like(self, K):
        labels = cxr_like_labels(K)
        assert (labels.sum(axis=1) == 0).any() and labels[:, 6].sum() < K
        np.testing.assert_array_equal(mis_split(labels, K, 0).fold_of,
                                      list_loop_mis_split(labels, K, 0).fold_of)


class TestMisSplitDraws:
    def test_batched_draw_is_the_scalar_draws(self):
        # mis_split draws each label pass's tie-breaks with one
        # integers(highs) call in place of one integers(h) call per tie;
        # that gives the same folds only while the two consume the stream alike
        highs = np.concatenate([np.arange(2, 11),
                                np.random.default_rng(99).integers(2, 11, size=5000)])
        for seed in range(3):
            batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            got = batched.integers(highs).tolist()
            want = [int(scalar.integers(h)) for h in highs.tolist()]
            assert got == want, f"numpy {np.__version__}: batched draws differ from scalar"
            assert batched.integers(2**62) == scalar.integers(2**62), (
                f"numpy {np.__version__}: batched draws leave another generator state")

    def test_few_generator_calls(self, rows_60k_labels, monkeypatch):
        # a count, not a time: one call per tie would be about 20k calls here
        calls = []

        class CountingGenerator:
            def __init__(self, rng):
                self.rng = rng

            def integers(self, *args, **kwargs):
                calls.append(args)
                return self.rng.integers(*args, **kwargs)

        make = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: CountingGenerator(make(seed)))
        n = rows_60k_labels.shape[0]
        mis_split(rows_60k_labels, 3, 0)
        assert 0 < len(calls) < n / 100


class TestSplitQuality:
    def test_perfectly_balanced(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        assign = FoldAssignment(fold_of=np.array([0, 0, 1, 1]), K=2)
        q = split_quality(labels, assign)
        assert q.max_deviation == 0.0

    def test_one_fold_holds_all_positives(self):
        # 4 examples, K=2, one positive in fold 0: fold prevalences are
        # 1/2 and 0 against a global 1/4, so both deviations are 1/4
        labels = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        assign = FoldAssignment(fold_of=np.array([0, 0, 1, 1]), K=2)
        q = split_quality(labels, assign)
        assert q.deviation[0, 0] == pytest.approx(0.25, abs=1e-15)
        assert q.deviation[1, 0] == pytest.approx(0.25, abs=1e-15)
        assert q.max_deviation == pytest.approx(0.25, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(SplitError):
            split_quality(np.zeros((5, 2)), FoldAssignment(np.array([0, 1]), K=2))


class TestDominance:
    def test_mis_beats_random_on_average(self):
        # small-scale version of the acceptance oracle
        rng = np.random.default_rng(12)
        labels = (rng.random((200, 8)) < rng.uniform(0.05, 0.4, size=8)).astype(float)
        mis_devs, rand_devs = [], []
        for seed in range(5):
            mis_devs.append(split_quality(labels, mis_split(labels, 3, seed)).max_deviation)
            rand_devs.append(
                split_quality(labels, random_kfold(labels.shape[0], 3, seed)).max_deviation
            )
        assert np.mean(mis_devs) <= np.mean(rand_devs)


class TestFoldsCsv:
    def test_round_trip(self, tmp_path):
        labels = (np.random.default_rng(1).random((15, 3)) < 0.4).astype(float)
        assign = mis_split(labels, 3, 0)
        path = tmp_path / "folds.csv"
        save_folds(assign, path)
        back = load_folds(path)
        np.testing.assert_array_equal(back.fold_of, assign.fold_of)

    @pytest.mark.parametrize("body, row", [
        pytest.param("0,0\r\n1,x\r\n", 1, id="non-integer-fold"),
        pytest.param("0,0\r\n1\r\n", 1, id="one-cell"),
        pytest.param("0,0,1\r\n", 0, id="three-cells"),
        pytest.param("0,0\r\n\r\n1,1\r\n", 1, id="blank-line"),
    ])
    def test_bad_row_named(self, tmp_path, body, row):
        path = tmp_path / "folds.csv"
        path.write_bytes(("example_index,fold\r\n" + body).encode())
        with pytest.raises(SplitError, match=re.escape(f"{path}: row {row}: ")):
            load_folds(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "folds.csv"
        path.write_bytes(b"example_index,fold\r\n")
        with pytest.raises(SplitError, match=re.escape(f"{path}: no rows")):
            load_folds(path)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tie_heavy_splits(), st.integers(0, 3))
    def test_save_byte_identical_to_reference(self, tmp_path, split, seed):
        labels, K = split
        assign = mis_split(labels, K, seed)
        # every example shares tmp_path; writing fresh files instead of
        # truncating the last example's can be far cheaper on ext4
        (tmp_path / "folds.csv").unlink(missing_ok=True)
        (tmp_path / "ref.csv").unlink(missing_ok=True)
        save_folds(assign, tmp_path / "folds.csv")
        reference_save_folds(assign, tmp_path / "ref.csv")
        assert (tmp_path / "folds.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_save_streams_rows_at_60k(self, tmp_path):
        """Blocks of rows, the last one ragged, give the one-string writer's
        bytes, while the traced peak stays far below its n row strings
        (about 5 MB here)."""
        n = 60_000
        assign = FoldAssignment(fold_of=np.random.default_rng(4).integers(0, 5, n), K=5)
        joined_save_folds(assign, tmp_path / "ref.csv")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            save_folds(assign, tmp_path / "folds.csv")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert (tmp_path / "folds.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert peak <= 2 ** 20, peak

    def test_empty_fold_rejected(self):
        with pytest.raises(SplitError):
            FoldAssignment(fold_of=np.array([0, 0, 0]), K=2)
