import dataclasses
import json
import multiprocessing
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from coupled_labels import datamodel, harness, metrics
from coupled_labels.coupling import refine_forward
from coupled_labels.datamodel import CoupledLabelsError, ConfigError, Dataset, config_from_dict
from coupled_labels.harness import (
    HISTOGRAM_BINS,
    FoldResult,
    HarnessError,
    experiment_report,
    fold_runs,
    load_checkpoint,
    predict_probs,
    read_report_json,
    run_ablation,
    run_experiment,
    run_experiments,
    train_folds,
    write_run_report,
)
from coupled_labels.predictor import init_params
from coupled_labels.stratify import FoldAssignment, mis_split
from coupled_labels.synthgen import default_spec, generate
from helpers import (
    IDENTIFIABLE_TRAINING,
    couplings_free_fold,
    fold_result_bits,
    identifiable_spec,
    reference_report_parts,
    reference_run_fold,
    run_fold,
    time_limit,
)


def toy_dataset(n=60, d=5, l=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    w = rng.normal(size=(d, l))
    labels = (expit(x @ w) > rng.random((n, l))).astype(float)
    # ensure both classes everywhere so macro-AUC is defined in every fold
    labels[: l] = np.eye(l)[:l]
    labels[l: 2 * l] = 1.0 - np.eye(l)[:l]
    return Dataset(features=x, labels=labels, label_names=[f"y{i}" for i in range(l)])


ALPHA = 0.3


def _traced_peak(call) -> int:
    """Bytes `call()` adds to the traced heap at its peak."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def fast_cfg(**over):
    base = dict(K=2, epochs=2, batch_size=16, seed=3)
    base.update(over)
    return config_from_dict(base)


def fold_probs(report, x):
    """Each fold model's probabilities on `x`, predicted again from its
    checkpoint."""
    return [predict_probs(fr.checkpoint, report.config.alpha, x)
            for fr in report.fold_results]


class TestPredictProbs:
    def test_chunked_prediction_matches_unchunked(self):
        # three full blocks and a ragged tail, against one unblocked pass
        rng = np.random.default_rng(5)
        plain = init_params(4, 3, rng)
        refined = {**plain, "A": rng.normal(scale=0.2, size=(3, 3))}
        x = rng.normal(size=(3 * harness.PREDICT_ROWS + 37, 4))
        z = x @ plain["W2"] + plain["b2"]
        for model, logits in ((plain, z), (refined, refine_forward(z, refined["A"], ALPHA)[0])):
            got = predict_probs(model, ALPHA, x)
            assert got.view(np.uint64).tolist() == expit(logits).view(np.uint64).tolist()

    @pytest.mark.parametrize("refined", [False, True])
    def test_one_row_block_has_the_bits_of_a_larger_call(self, refined):
        # 2 * PREDICT_ROWS + 1 rows end in a one-row block, and a single row is
        # one; BLAS's matrix-vector path rounds a (1, 20) @ (20, 14) product
        # otherwise in most cells
        rng = np.random.default_rng(9)
        model = init_params(20, 14, rng)
        if refined:
            model["A"] = rng.normal(scale=0.2, size=(14, 14))
        x = rng.normal(size=(3 * harness.PREDICT_ROWS, 20))
        whole = predict_probs(model, ALPHA, x).view(np.uint64)
        n = 2 * harness.PREDICT_ROWS + 1
        assert predict_probs(model, ALPHA, x[:n]).view(np.uint64).tolist() == whole[:n].tolist()
        for i in (0, 1, n - 1, len(x) - 1):
            got = predict_probs(model, ALPHA, x[i:i + 1]).view(np.uint64)
            assert got.tolist() == whole[i:i + 1].tolist(), i

    def test_out_slot_filled_with_same_bits(self):
        rng = np.random.default_rng(6)
        model = {**init_params(4, 3, rng), "A": rng.normal(scale=0.2, size=(3, 3))}
        x = rng.normal(size=(23, 4))
        stack = np.full((2, 23, 3), np.nan)
        filled = predict_probs(model, ALPHA, x, out=stack[1])
        assert np.shares_memory(filled, stack[1])
        assert np.isnan(stack[0]).all()
        fresh = predict_probs(model, ALPHA, x)
        assert stack[1].view(np.int64).tolist() == fresh.view(np.int64).tolist()


class TestRunFold:
    def test_rerun_identical(self):
        ds = toy_dataset()
        cfg = fast_cfg()
        train_x, train_y = ds.features[:40], ds.labels[:40]
        val_x, val_y = ds.features[40:], ds.labels[40:]
        a = run_fold(train_x, train_y, val_x, val_y, cfg, seed=7)
        b = run_fold(train_x, train_y, val_x, val_y, cfg, seed=7)
        assert a.best_val_macro_auc == b.best_val_macro_auc
        assert a.best_epoch == b.best_epoch
        np.testing.assert_array_equal(a.checkpoint["W2"], b.checkpoint["W2"])
        np.testing.assert_array_equal(a.checkpoint["A"], b.checkpoint["A"])

    def test_default_patience_never_stops_early(self):
        # patience 3 with 3 epochs cannot trigger: the first epoch always
        # improves on -inf, leaving at most 2 non-improving epochs
        ds = toy_dataset()
        cfg = fast_cfg(epochs=3, patience=3)
        result = run_fold(ds.features[:40], ds.labels[:40], ds.features[40:],
                          ds.labels[40:], cfg, seed=1)
        assert result.epochs_run == 3
        assert 1 <= result.best_epoch <= 3

    def test_best_auc_is_that_of_checkpoint_predictions(self):
        # the per-epoch validation scores the EMA checkpoint's predict_probs
        ds = toy_dataset()
        cfg = fast_cfg(epochs=3)
        val_x, val_y = ds.features[40:], ds.labels[40:]
        result = run_fold(ds.features[:40], ds.labels[:40], val_x, val_y, cfg, seed=2)
        probs = predict_probs(result.checkpoint, cfg.alpha, val_x)
        assert metrics.macro_auc(probs, val_y).macro_auc == result.best_val_macro_auc

    def test_single_class_validation_names_fold(self):
        ds = toy_dataset()
        val_y = np.zeros((10, 3))
        with pytest.raises(HarnessError) as exc:
            run_fold(ds.features[:40], ds.labels[:40], ds.features[40:50], val_y,
                     fast_cfg(), seed=0, fold_index=5)
        assert "fold 5" in str(exc.value)


def _fold_result(k, rng, d, l, refined):
    """A FoldResult holding a drawn model with a zero-diagonal A if refined."""
    model = init_params(d, l, rng)
    if refined:
        model["A"] = rng.normal(scale=0.1, size=(l, l))
        np.fill_diagonal(model["A"], 0.0)
    return FoldResult(fold=k, best_epoch=1, best_val_macro_auc=0.5, epochs_run=1,
                      skipped_steps=0, checkpoint=model, val_auc=None, train_log=[])


class TestRunExperiment:
    def test_smoke_ten_examples(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(10, 3))
        labels = np.zeros((10, 2))
        labels[:6, 0] = 1.0
        labels[[0, 3, 6, 8], 1] = 1.0
        ds = Dataset(features=x, labels=labels, label_names=["a", "b"])
        report = run_experiment(ds, fast_cfg(K=2, batch_size=4))
        assert len(report.fold_results) == 2
        assert report.ensemble_source == "oof"
        assert 0.0 <= report.ensemble_auc.macro_auc <= 1.0

    def test_run_twice_identical_json(self):
        ds = toy_dataset()
        cfg = fast_cfg()
        a = run_experiment(ds, cfg)
        b = run_experiment(ds, cfg)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )

    def test_fold_isolation(self):
        ds = toy_dataset()
        report = run_experiment(ds, fast_cfg(K=3, batch_size=8))
        assign = report.assignment
        for k in range(3):
            val = set(assign.indices(k).tolist())
            train = set(np.flatnonzero(assign.fold_of != k).tolist())
            assert not val & train
            assert len(val | train) == ds.n_examples

    def test_oof_rows_come_from_holdout_fold(self):
        ds = toy_dataset()
        report = run_experiment(ds, fast_cfg())
        oof = np.full(ds.labels.shape, np.nan)
        for k, probs in enumerate(fold_probs(report, ds.features)):
            idx = report.assignment.indices(k)
            oof[idx] = probs[idx]
        assert report.ensemble_auc == metrics.macro_auc(oof, ds.labels)

    @pytest.mark.parametrize("K", [3, 6])
    def test_report_memory_peak_bounded(self, K):
        """The report holds the (n, L) out-of-fold matrix; the fold std is a
        running (L,) sum, the correlation centres the out-of-fold matrix in
        place and everything else it allocates is block-sized, so its traced
        peak stays within 2.25 (n, L) float64 matrices whatever K is (an
        (n, L) per-cell std and `np.corrcoef`'s private copy peaked at 2.44
        at K = 3; a (K, n, L) prediction stack at 5.65 at K = 3 and 9.11 at
        K = 6)."""
        n, d, l = 30000, 20, 14
        rng = np.random.default_rng(7)
        ds = Dataset(features=rng.normal(size=(n, d)),
                     labels=(rng.random((n, l)) < 0.3).astype(float),
                     label_names=[f"y{i}" for i in range(l)])
        results = [_fold_result(k, rng, d, l, refined=True) for k in range(K)]
        assign = FoldAssignment(fold_of=np.arange(n) % K, K=K)
        peak = _traced_peak(lambda: experiment_report(ds, fast_cfg(K=K), assign, results))
        assert peak <= 2.25 * n * l * 8, peak / (n * l * 8)

    def test_experiment_memory_peak_bounded(self):
        """Training and the report of a one-epoch experiment on 30,000 rows
        stay within 2.4 (n, L) float64 matrices of traced peak (2.65 with the
        report's (n, L) per-cell std and `np.corrcoef`'s private copy)."""
        ds = generate(default_spec(n_examples=30_000))
        n, l = ds.labels.shape
        peak = _traced_peak(lambda: run_experiment(ds, config_from_dict({"epochs": 1})))
        assert peak <= 2.4 * n * l * 8, peak / (n * l * 8)

    @pytest.mark.parametrize("K", [2, 3, 5])
    @pytest.mark.parametrize("refined", [True, False])
    @pytest.mark.parametrize("rows", [None, (1, 1), (3, 6), (4, 3), (4, 5), (4, 12)])
    def test_streamed_report_matches_stack(self, K, refined, rows):
        # rows = (PREDICT_ROWS, rows whose K * L cells make _BLOCK_CELLS);
        # None keeps the defaults, one block here. n = 53 is no multiple of
        # the blocks and leaves a one-row run at PREDICT_ROWS 1 and 4;
        # blocks of 5 rows cut into runs of 4 would add more.
        n, d, l = 53, 4, 3
        rng = np.random.default_rng(40 + K)
        ds = toy_dataset(n=n, d=d, l=l, seed=K)
        results = [_fold_result(k, rng, d, l, refined) for k in range(K)]
        assign = FoldAssignment(fold_of=rng.permutation(np.arange(n) % K), K=K)
        cfg = fast_cfg(K=K, refinement_enabled=refined)
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:
                mp.setattr(harness, "PREDICT_ROWS", rows[0])
                mp.setattr(metrics, "_BLOCK_CELLS", rows[1] * K * l)
            report = experiment_report(ds, cfg, assign, results)
            want = reference_report_parts(
                [fr.checkpoint for fr in results], cfg.alpha, ds.features, ds.labels, assign,
                HISTOGRAM_BINS)
        got = (report.ensemble_auc, report.agreement.to_json_dict(),
               report.agreement.pair_agreement, report.per_label_std, report.correlation,
               report.histograms)
        assert got[:2] == want[:2]
        for g, w in zip(got[2:], want[2:]):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    def test_refinement_disabled_has_no_coupling(self):
        ds = toy_dataset()
        report = run_experiment(ds, fast_cfg(refinement_enabled=False))
        assert report.coupling_mean is None
        assert all("A" not in fr.checkpoint for fr in report.fold_results)


class TestRunExperiments:
    def test_each_config_as_trained_alone(self, monkeypatch):
        # four configs in one engine call: each report and fold model has
        # the bits of its config trained alone, and the two (K, seed) pairs
        # are split once each
        ds = toy_dataset()
        cfgs = [fast_cfg(seed=seed, refinement_enabled=flag)
                for seed in (0, 1) for flag in (True, False)]
        alone = [run_experiment(ds, cfg) for cfg in cfgs]
        splits, split = [], harness.mis_split

        def counting(labels, K, seed):
            splits.append((K, seed))
            return split(labels, K, seed)

        monkeypatch.setattr(harness, "mis_split", counting)
        together = run_experiments(ds, cfgs)
        assert splits == [(2, 0), (2, 1)]
        assert [r.config for r in together] == cfgs
        for got, want in zip(together, alone):
            assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
            assert ([fold_result_bits(fr) for fr in got.fold_results]
                    == [fold_result_bits(fr) for fr in want.fold_results])
        assert [r.coupling_mean is None for r in together] == [False, True, False, True]

    def test_ablation_validates_before_setting_refinement(self):
        with pytest.raises(ConfigError, match="refinement_enabled"):
            run_ablation(toy_dataset(), dataclasses.replace(fast_cfg(), refinement_enabled="yes"))


def _outcome(train):
    """The bits of every FoldResult, or the error a run stopped with."""
    try:
        return [fold_result_bits(fr) for fr in train()]
    except HarnessError as exc:
        return str(exc)


def _reference(x, y, runs):
    return [reference_run_fold(x[tr], y[tr], x[va], y[va], cfg, seed, k)
            for k, seed, tr, va, cfg in runs]


def _with_workers(n, train):
    """`train()` with the engine seeing `n` usable CPUs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datamodel, "_usable_cpus", lambda: n)
        return train()


@st.composite
def lockstep_problems(draw):
    """Shared features and labels split into K = 2..5 folds of unequal sizes,
    with a batch size that gives unequal steps per epoch and ragged tails,
    patience that may stop folds at different epochs, either loss, alpha
    0.3 or 0.7, a config per run with its own refinement flag and lr (2e-4
    or 0.05), and maybe a NaN training row seen by one fold only, whose
    skipped steps put its Adam clock behind the others'. The drawn `cfg` is
    the one `run_experiment` would train under."""
    K = draw(st.integers(2, 5))
    sizes = draw(st.lists(st.integers(4, 13), min_size=K, max_size=K))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d, l = sum(sizes), draw(st.integers(1, 4)), draw(st.integers(2, 3))
    fold_of = rng.permutation(np.repeat(np.arange(K), sizes))
    x = rng.normal(size=(n + 1, d))
    y = (rng.random((n + 1, l)) < 0.4).astype(float)
    for k in range(K):
        first, second = np.flatnonzero(fold_of == k)[:2]
        y[first, 0], y[second, 0] = 1.0, 0.0   # validation AUC is defined
    x[n, 0] = np.nan
    nan_fold = draw(st.none() | st.integers(0, K - 1))
    refine = draw(st.lists(st.booleans(), min_size=K, max_size=K))
    lrs = draw(st.lists(st.sampled_from([2e-4, 0.05]), min_size=K, max_size=K))
    epochs = draw(st.integers(1, 4))
    cfg = config_from_dict({
        "K": K, "epochs": epochs, "patience": draw(st.integers(1, epochs)),
        "batch_size": draw(st.integers(2, 9)), "lr": draw(st.sampled_from([2e-4, 0.05])),
        "seed": draw(st.integers(0, 1000)),
        "loss_kind": draw(st.sampled_from(["ASL", "WeightedBCE"])),
        "alpha": draw(st.sampled_from([0.3, 0.7])),
        "refinement_enabled": draw(st.booleans()),
    })
    runs = []
    for k in range(K):
        train = np.flatnonzero(fold_of != k)
        if k == nan_fold:
            train = np.append(train, n)
        runs.append((k, cfg.seed + k, train, np.flatnonzero(fold_of == k),
                     dataclasses.replace(cfg, refinement_enabled=refine[k], lr=lrs[k])))
    return x, y, runs, cfg


class TestLockstepMatchesReference:
    """Runs trained in lockstep, in one process or sharded across forked
    workers, against each run trained alone under its own config with the
    per-array optimizer of tests/helpers.py: every FoldResult bit for bit,
    or the same HarnessError text."""

    @settings(max_examples=40, deadline=None)
    @given(lockstep_problems())
    def test_train_folds_bit_identical(self, problem):
        x, y, runs, _ = problem
        expected = _outcome(lambda: _reference(x, y, runs))
        for workers in (1, 2):
            assert _with_workers(workers, lambda: _outcome(
                lambda: train_folds(x, y, runs))) == expected

    @settings(max_examples=15, deadline=None)
    @given(lockstep_problems())
    def test_run_experiment_bit_identical(self, problem):
        x, y, _, cfg = problem
        ds = Dataset(features=x[:-1], labels=y[:-1],
                     label_names=[f"y{i}" for i in range(y.shape[1])])
        assign = mis_split(ds.labels, cfg.K, cfg.seed)
        runs = fold_runs(assign, cfg)
        got = _outcome(lambda: run_experiment(ds, cfg).fold_results)
        assert got == _outcome(lambda: _reference(ds.features, ds.labels, runs))

    def test_nan_fold_and_early_stops_exercised(self):
        # one fixed problem where the cases above really occur: a stacked
        # step with one fold skipping, and folds stopping at different epochs
        rng = np.random.default_rng(0)
        n, K = 47, 4
        x = rng.normal(size=(n + 1, 3))
        y = (rng.random((n + 1, 2)) < 0.4).astype(float)
        x[n, 1] = np.nan
        fold_of = rng.permutation(np.arange(n) % K)
        # a short EMA horizon makes the folds stop at different epochs
        cfg = config_from_dict({"K": K, "epochs": 6, "patience": 1, "batch_size": 5,
                                "lr": 0.05, "seed": 2, "ema_decay": 0.9})
        train = [np.flatnonzero(fold_of != k) for k in range(K)]
        train[1] = np.append(train[1], n)
        runs = [(k, cfg.seed + k, train[k], np.flatnonzero(fold_of == k),
                 dataclasses.replace(cfg, refinement_enabled=k != 2)) for k in range(K)]
        results = _with_workers(1, lambda: train_folds(x, y, runs))
        assert [fr.skipped_steps > 0 for fr in results] == [False, True, False, False]
        assert len({fr.epochs_run for fr in results}) > 1
        assert [fold_result_bits(fr) for fr in results] == [
            fold_result_bits(fr) for fr in _reference(x, y, runs)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_refinement_off_run_of_mixed_list_equals_couplings_free_build(self, workers):
        # gate 2 inside one engine call: the same fold trained with and
        # without refinement; the model without it must match the training
        # loop that never touches the coupling module
        ds = toy_dataset(n=72, seed=4)
        cfg = fast_cfg(batch_size=24, epochs=2)
        rows = np.arange(72)
        runs = [(0, 11, rows[:48], rows[48:], dataclasses.replace(cfg, refinement_enabled=flag))
                for flag in (True, False)]
        refined, plain = _with_workers(workers,
                                       lambda: train_folds(ds.features, ds.labels, runs))
        best_auc, best_epoch, best_params = couplings_free_fold(
            ds.features[:48], ds.labels[:48], ds.features[48:], ds.labels[48:], cfg, 11)
        assert "A" in refined.checkpoint and "A" not in plain.checkpoint
        assert repr(plain.best_val_macro_auc) == repr(best_auc)
        assert plain.best_epoch == best_epoch
        for name in ("W2", "b2"):
            assert np.array_equal(plain.checkpoint[name].view(np.uint64),
                                  best_params[name].view(np.uint64))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the engine shards only where it can fork")
class TestShardedEngine:
    """The forked shards: planned even and of one config apart from seed,
    same results and errors as one process, no hang on a lost worker,
    nothing left running."""

    @pytest.mark.parametrize("cpus, refine, plan", [
        (1, [True] * 3, ([[0, 1, 2]], False)),
        (2, [True] * 3, ([[0, 1, 2]], False)),          # 3 runs do not split in 2
        (3, [True] * 3, ([[0], [1], [2]], True)),
        (2, [True] * 3 + [False] * 3, ([[0, 1, 2], [3, 4, 5]], True)),
        (4, [True] * 3 + [False] * 3, ([[0, 1, 2], [3, 4, 5]], True)),
        (1, [True, False, True, False], ([[0, 2], [1, 3]], False)),
        (2, [False, True, True, False], ([[0, 3], [1, 2]], True)),   # first-seen order
        (2, [True, True, False], ([[0, 1], [2]], False)),
    ])
    def test_shard_plan(self, cpus, refine, plan):
        cfgs = [fast_cfg(refinement_enabled=flag) for flag in refine]
        assert _with_workers(cpus, lambda: harness._plan_shards(cfgs)) == plan

    @pytest.mark.parametrize("cpus, overrides, plan", [
        (1, [{"seed": s} for s in (4, 0, 9)], ([[0, 1, 2]], False)),
        (2, [{"seed": 1}, {"lr": 0.05}, {"seed": 2}, {"lr": 0.05, "seed": 2}],
         ([[0, 2], [1, 3]], True)),
    ])
    def test_shard_plan_ignores_seed(self, cpus, overrides, plan):
        # each run carries its own seed: configs that differ only in seed
        # share one group, configs that differ in lr do not
        cfgs = [fast_cfg(**over) for over in overrides]
        assert _with_workers(cpus, lambda: harness._plan_shards(cfgs)) == plan

    def _problem(self, n_runs=4, **over):
        ds = toy_dataset(n=80, seed=5)
        rows = np.arange(80)
        runs = [(k, 20 + k, np.roll(rows, 20 * k)[:60], np.roll(rows, 20 * k)[60:],
                 fast_cfg(refinement_enabled=k % 2 == 0, **over)) for k in range(n_runs)]
        return ds, runs

    def test_worker_counts_give_same_bits(self):
        ds, runs = self._problem(epochs=3, batch_size=7)
        outcomes = [_with_workers(w, lambda: _outcome(
            lambda: train_folds(ds.features, ds.labels, runs))) for w in (1, 2, 3)]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert [r["fold"] for r in outcomes[0]] == [0, 1, 2, 3]

    def test_single_class_fold_named_as_in_process(self):
        # runs 1 and 2 (folds 5 and 7) validate on one class only: each
        # shard fails, one at run 2 and one at run 1, and the engine reports
        # the first failing run, as training them one by one does
        ds, runs = self._problem()
        labels = ds.labels.copy()
        runs = [(fold, seed, tr, va, cfg)
                for fold, (_, seed, tr, va, cfg) in zip((9, 5, 7, 3), runs)]
        for k in (1, 2):
            labels[runs[k][3]] = 0.0
        texts = []
        for workers in (1, 2):
            with pytest.raises(HarnessError) as exc:
                _with_workers(workers, lambda: train_folds(ds.features, labels, runs))
            texts.append(str(exc.value))
        assert texts[0] == texts[1]
        assert texts[0].startswith("fold 5: ")

    def test_worker_exiting_without_results_raises(self, monkeypatch):
        # shard 0 trains in this process; the worker of shard 1 exits
        ds, runs = self._problem()
        parent, train = os.getpid(), harness._train_lockstep
        monkeypatch.setattr(harness, "_train_lockstep",
                            lambda *args: train(*args) if os.getpid() == parent else os._exit(3))
        with time_limit(60), pytest.raises(CoupledLabelsError,
                                           match="code 3 without its result"):
            _with_workers(2, lambda: train_folds(ds.features, ds.labels, runs))
        assert multiprocessing.active_children() == []

    def test_worker_exception_names_its_part(self, monkeypatch):
        ds, runs = self._problem()
        parent, train = os.getpid(), harness._train_lockstep

        def failing(*args):
            if os.getpid() != parent:
                raise RuntimeError("out of luck")
            return train(*args)

        monkeypatch.setattr(harness, "_train_lockstep", failing)
        with time_limit(60), pytest.raises(
                CoupledLabelsError, match="worker for part 1 failed: RuntimeError: out of luck"):
            _with_workers(2, lambda: train_folds(ds.features, ds.labels, runs))
        assert multiprocessing.active_children() == []

    def test_exception_in_this_process_reaps_the_workers(self, monkeypatch):
        # shard 0 fails in this process; the forked workers are stopped
        ds, runs = self._problem(n_runs=3)
        parent, train = os.getpid(), harness._train_lockstep

        def failing(*args):
            if os.getpid() == parent:
                raise RuntimeError("out of luck")
            return train(*args)

        monkeypatch.setattr(harness, "_train_lockstep", failing)
        threads = threading.active_count()
        with time_limit(60), pytest.raises(RuntimeError, match="out of luck"):
            _with_workers(3, lambda: train_folds(ds.features, ds.labels, runs))
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

    def test_trains_in_process_while_another_thread_runs(self, monkeypatch):
        # a child forked now could inherit a lock the other thread holds
        ds, runs = self._problem()
        monkeypatch.setattr(harness, "split_work",
                            lambda *args: pytest.fail("forked while another thread ran"))
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            results = _with_workers(2, lambda: train_folds(ds.features, ds.labels, runs))
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(results) == len(runs)

    def test_ablation_forks_one_worker_for_two_shards(self, monkeypatch):
        # the two arms are two shards at W = 2, and shard 0 trains in this
        # process
        forks, forked = [], datamodel.forked

        def counting(targets):
            forks.append(len(targets))
            return forked(targets)

        monkeypatch.setattr(datamodel, "forked", counting)
        _with_workers(2, lambda: run_ablation(toy_dataset(), fast_cfg()))
        assert forks == [1]

    def test_experiment_forks_one_worker_fewer_than_shards(self, monkeypatch):
        # K = 3 folds are three shards at W = 3
        forks, forked = [], datamodel.forked

        def counting(targets):
            forks.append(len(targets))
            return forked(targets)

        monkeypatch.setattr(datamodel, "forked", counting)
        report = _with_workers(3, lambda: run_experiment(toy_dataset(), fast_cfg(K=3)))
        assert forks == [2]
        assert [fr.fold for fr in report.fold_results] == [0, 1, 2]

    def test_no_process_or_thread_left_behind(self):
        ds, runs = self._problem()
        threads = threading.active_count()
        results = _with_workers(2, lambda: train_folds(ds.features, ds.labels, runs))
        assert len(results) == len(runs)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads


class TestAblationExactness:
    def test_refinement_off_equals_couplings_free_build(self):
        # oracle: an independent training loop that never touches the
        # coupling module, sharing only the primitive optimizer/loss/
        # predictor operations; outputs must match bit for bit
        ds = toy_dataset(n=72, seed=4)
        cfg = fast_cfg(batch_size=24, epochs=2, refinement_enabled=False)
        train_x, train_y = ds.features[:48], ds.labels[:48]
        val_x, val_y = ds.features[48:], ds.labels[48:]
        seed = 11

        result = run_fold(train_x, train_y, val_x, val_y, cfg, seed=seed)
        best_auc, best_epoch, best_params = couplings_free_fold(
            train_x, train_y, val_x, val_y, cfg, seed
        )

        assert result.best_val_macro_auc == best_auc
        assert result.best_epoch == best_epoch
        np.testing.assert_array_equal(result.checkpoint["W2"], best_params["W2"])
        np.testing.assert_array_equal(result.checkpoint["b2"], best_params["b2"])

    def test_zero_coupling_probabilities_identical(self):
        rng = np.random.default_rng(7)
        params = init_params(4, 3, rng)
        from coupled_labels.coupling import new_coupling

        x = rng.normal(size=(9, 4))
        with_zero = predict_probs({**params, "A": new_coupling(3)}, ALPHA, x)
        without = predict_probs(params, ALPHA, x)
        np.testing.assert_array_equal(with_zero, without)


class TestRunAblation:
    def test_comparison_contents(self):
        ds = toy_dataset()
        arms = run_ablation(ds, fast_cfg())
        assert list(arms) == list(harness.ABLATION_ARMS) == ["with_refinement", "no_refinement"]
        assert [r.config.refinement_enabled for r in arms.values()] == [True, False]
        comp = harness.ablation_record(arms)
        assert set(comp) == {"macro_auc_refined", "macro_auc_baseline", "delta",
                             "source", "coupling_sign_summary"}
        assert comp["delta"] == pytest.approx(
            comp["macro_auc_refined"] - comp["macro_auc_baseline"], abs=1e-15
        )
        sign = comp["coupling_sign_summary"]
        total = sign["n_positive"] + sign["n_negative"] + sign["n_near_zero"]
        l = ds.n_labels
        assert total == l * l - l


class TestPlantedRecoveryDemonstration:
    def test_identifiable_construction_recovers_planted_edges(self):
        # With orthogonal feature directions (so shared-feature label
        # correlations vanish) and a step budget that completes the
        # optimization transient, the coupling layer pulls all three
        # planted edges to the top of the learned matrix and the L1
        # penalty clears every column that has no planted parent.
        spec = identifiable_spec()
        l = spec.n_labels
        ds = generate(spec)
        cfg = config_from_dict({**IDENTIFIABLE_TRAINING, "seed": 0})
        report = run_experiment(ds, cfg)
        A = report.coupling_mean
        planted = [(0, 1), (2, 3), (4, 5)]
        off = [(i, j) for i in range(l) for j in range(l) if i != j]
        order = sorted(off, key=lambda ij: A[ij], reverse=True)
        ranks = [order.index(ij) + 1 for ij in planted]
        non_planted = np.array([abs(A[ij]) for ij in off if ij not in planted])
        assert all(A[ij] > 0 for ij in planted)
        assert max(ranks) <= 5, ranks
        assert float((non_planted < 0.05).mean()) >= 0.70


class TestRunDirectory:
    def test_write_and_read_back(self, tmp_path):
        ds = toy_dataset()
        report = run_experiment(ds, fast_cfg())
        outdir = write_run_report(report, tmp_path / "run")
        assert (outdir / "report.json").exists()
        assert (outdir / "config.json").exists()
        assert (outdir / "folds.csv").exists()
        assert (outdir / "coupling_mean.csv").exists()
        for k in range(2):
            assert (outdir / f"fold{k}_train_log.csv").exists()
            model, ckpt_hash = load_checkpoint(outdir / "checkpoints" / f"fold{k}.json")
            np.testing.assert_array_equal(
                model["W2"], report.fold_results[k].checkpoint["W2"]
            )
            np.testing.assert_array_equal(
                model["A"], report.fold_results[k].checkpoint["A"]
            )
            assert ckpt_hash == report.config.hash()
        back = read_report_json(outdir)
        assert back == report.to_json_dict()
        record = report.to_json_dict()
        assert read_report_json(write_run_report(report, tmp_path / "again", record)) == record

    def test_missing_report(self, tmp_path):
        with pytest.raises(HarnessError):
            read_report_json(tmp_path)
