import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from coupled_labels.datamodel import Dataset, config_from_dict
from coupled_labels.harness import (
    HarnessError,
    identity_view,
    predict_probs,
    predict_with_views,
    read_report_json,
    run_ablation,
    run_experiment,
    run_fold,
    train_folds,
    write_run_report,
)
from coupled_labels.predictor import init_params, load_checkpoint
from coupled_labels.stratify import mis_split
from helpers import (
    IDENTIFIABLE_TRAINING,
    couplings_free_fold,
    fold_result_bits,
    identifiable_spec,
    reference_run_fold,
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


def fast_cfg(**over):
    base = dict(K=2, epochs=2, batch_size=16, seed=3)
    base.update(over)
    return config_from_dict(base)


class TestPredictWithViews:
    def test_identity_only_equals_plain(self):
        rng = np.random.default_rng(1)
        params = init_params("linear", 4, 3, rng)
        x = rng.normal(size=(7, 4))
        np.testing.assert_array_equal(
            predict_with_views(params, None, x), predict_probs(params, None, x)
        )

    def test_duplicate_identity_idempotent(self):
        rng = np.random.default_rng(2)
        params = init_params("linear", 4, 3, rng)
        x = rng.normal(size=(5, 4))
        plain = predict_probs(params, None, x)
        averaged = predict_with_views(params, None, x, views=(identity_view, identity_view))
        np.testing.assert_allclose(averaged, plain, atol=1e-16)

    def test_two_views_elementwise_mean(self):
        rng = np.random.default_rng(3)
        params = init_params("linear", 4, 2, rng)
        x = rng.normal(size=(6, 4))
        combined = predict_with_views(params, None, x, views=(identity_view, lambda x: 0.5 * x))
        oracle = 0.5 * (
            predict_probs(params, None, x) + predict_probs(params, None, 0.5 * x)
        )
        np.testing.assert_allclose(combined, oracle, atol=1e-16)

    def test_view_validation(self):
        rng = np.random.default_rng(4)
        params = init_params("linear", 3, 2, rng)
        x = np.zeros((2, 3))
        with pytest.raises(HarnessError):
            predict_with_views(params, None, x, views=())
        with pytest.raises(HarnessError):
            predict_with_views(params, None, x, views=(np.fliplr,))
        with pytest.raises(HarnessError):
            predict_with_views(params, None, x, views=(identity_view, "no_such_view"))

    def test_chunked_prediction_matches_unchunked(self):
        rng = np.random.default_rng(5)
        params = init_params("linear", 4, 3, rng)
        x = rng.normal(size=(23, 4))
        np.testing.assert_allclose(
            predict_probs(params, None, x, batch_size=7),
            predict_probs(params, None, x),
            atol=1e-15,
        )


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
        np.testing.assert_array_equal(a.checkpoint_params.W2, b.checkpoint_params.W2)
        np.testing.assert_array_equal(a.checkpoint_coupling.A, b.checkpoint_coupling.A)

    def test_default_patience_never_stops_early(self):
        # patience 3 with 3 epochs cannot trigger: the first epoch always
        # improves on -inf, leaving at most 2 non-improving epochs
        ds = toy_dataset()
        cfg = fast_cfg(epochs=3, patience=3)
        result = run_fold(ds.features[:40], ds.labels[:40], ds.features[40:],
                          ds.labels[40:], cfg, seed=1)
        assert result.epochs_run == 3
        assert 1 <= result.best_epoch <= 3

    def test_single_class_validation_names_fold(self):
        ds = toy_dataset()
        val_y = np.zeros((10, 3))
        with pytest.raises(HarnessError) as exc:
            run_fold(ds.features[:40], ds.labels[:40], ds.features[40:50], val_y,
                     fast_cfg(), seed=0, fold_index=5)
        assert "fold 5" in str(exc.value)


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

    def test_ensemble_is_arithmetic_mean(self):
        ds = toy_dataset(seed=1)
        test_ds = toy_dataset(n=30, seed=2)
        report = run_experiment(ds, fast_cfg(), test_dataset=test_ds)
        assert report.ensemble_source == "test"
        oracle = sum(report.fold_eval_probs) / len(report.fold_eval_probs)
        assert np.max(np.abs(report.ensemble_probs - oracle)) <= 1e-15

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
        for k in range(report.config.K):
            idx = report.assignment.indices(k)
            np.testing.assert_array_equal(
                report.ensemble_probs[idx], report.fold_eval_probs[k][idx]
            )

    def test_refinement_disabled_has_no_coupling(self):
        ds = toy_dataset()
        report = run_experiment(ds, fast_cfg(refinement_enabled=False))
        assert report.coupling_mean is None
        assert all(fr.checkpoint_coupling is None for fr in report.fold_results)


def _outcome(train):
    """The bits of every FoldResult, or the error a run stopped with."""
    try:
        return [fold_result_bits(fr) for fr in train()]
    except HarnessError as exc:
        return str(exc)


def _reference(x, y, folds, cfg, variant, hidden):
    return [reference_run_fold(x[tr], y[tr], x[va], y[va], cfg, seed, k, variant, hidden)
            for k, seed, tr, va in folds]


@st.composite
def lockstep_problems(draw):
    """Shared features and labels split into K = 2..5 folds of unequal sizes,
    with a batch size that gives unequal steps per epoch and ragged tails,
    patience that may stop folds at different epochs, either predictor,
    either loss, refinement on or off, and maybe a NaN training row seen by
    one fold only, whose skipped steps put its Adam clock behind the others'."""
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
    epochs = draw(st.integers(1, 4))
    cfg = config_from_dict({
        "K": K, "epochs": epochs, "patience": draw(st.integers(1, epochs)),
        "batch_size": draw(st.integers(2, 9)), "lr": draw(st.sampled_from([2e-4, 0.05])),
        "seed": draw(st.integers(0, 1000)),
        "loss_kind": draw(st.sampled_from(["ASL", "WeightedBCE"])),
        "refinement_enabled": draw(st.booleans()),
    })
    folds = []
    for k in range(K):
        train = np.flatnonzero(fold_of != k)
        if k == nan_fold:
            train = np.append(train, n)
        folds.append((k, cfg.seed + k, train, np.flatnonzero(fold_of == k)))
    variant = draw(st.sampled_from(["linear", "mlp1"]))
    return x, y, folds, cfg, variant, draw(st.integers(2, 5))


class TestLockstepMatchesReference:
    """Folds trained in lockstep against each fold trained alone with the
    per-array optimizer of tests/helpers.py: every FoldResult bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(lockstep_problems())
    def test_train_folds_bit_identical(self, problem):
        x, y, folds, cfg, variant, hidden = problem
        assert _outcome(lambda: train_folds(x, y, folds, cfg, variant, hidden)) == _outcome(
            lambda: _reference(x, y, folds, cfg, variant, hidden))

    @settings(max_examples=15, deadline=None)
    @given(lockstep_problems())
    def test_run_experiment_bit_identical(self, problem):
        x, y, folds, cfg, variant, hidden = problem
        ds = Dataset(features=x[:-1], labels=y[:-1],
                     label_names=[f"y{i}" for i in range(y.shape[1])])
        assign = mis_split(ds.labels, cfg.K, cfg.seed)
        split = [(k, cfg.seed + k, np.flatnonzero(assign.fold_of != k), assign.indices(k))
                 for k in range(cfg.K)]
        got = _outcome(lambda: run_experiment(ds, cfg, variant=variant,
                                              hidden=hidden).fold_results)
        assert got == _outcome(lambda: _reference(ds.features, ds.labels, split, cfg,
                                                  variant, hidden))

    def test_nan_fold_and_early_stops_exercised(self):
        # one fixed problem where the cases above really occur: a stacked
        # step with one fold skipping, and folds stopping at different epochs
        rng = np.random.default_rng(0)
        n, K = 47, 4
        x = rng.normal(size=(n + 1, 3))
        y = (rng.random((n + 1, 2)) < 0.4).astype(float)
        x[n, 1] = np.nan
        fold_of = rng.permutation(np.arange(n) % K)
        cfg = config_from_dict({"K": K, "epochs": 6, "patience": 1, "batch_size": 5,
                                "lr": 0.05, "seed": 2})
        train = [np.flatnonzero(fold_of != k) for k in range(K)]
        train[1] = np.append(train[1], n)
        folds = [(k, cfg.seed + k, train[k], np.flatnonzero(fold_of == k)) for k in range(K)]
        results = train_folds(x, y, folds, cfg, variant="mlp1", hidden=4)
        assert [fr.skipped_steps > 0 for fr in results] == [False, True, False, False]
        assert len({fr.epochs_run for fr in results}) > 1
        assert [fold_result_bits(fr) for fr in results] == [
            fold_result_bits(fr) for fr in _reference(x, y, folds, cfg, "mlp1", 4)]


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
        np.testing.assert_array_equal(result.checkpoint_params.W2, best_params.W2)
        np.testing.assert_array_equal(result.checkpoint_params.b2, best_params.b2)

    def test_zero_coupling_probabilities_identical(self):
        rng = np.random.default_rng(7)
        params = init_params("linear", 4, 3, rng)
        from coupled_labels.coupling import new_coupling

        x = rng.normal(size=(9, 4))
        with_zero = predict_probs(params, new_coupling(3), x)
        without = predict_probs(params, None, x)
        np.testing.assert_array_equal(with_zero, without)


class TestRunAblation:
    def test_comparison_contents(self):
        ds = toy_dataset()
        result = run_ablation(ds, fast_cfg())
        comp = result.comparison()
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
        from coupled_labels.synthgen import generate

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
            params, A, ckpt_hash = load_checkpoint(outdir / "checkpoints" / f"fold{k}.json")
            np.testing.assert_array_equal(
                params.W2, report.fold_results[k].checkpoint_params.W2
            )
            np.testing.assert_array_equal(
                A, report.fold_results[k].checkpoint_coupling.A
            )
            assert ckpt_hash == report.config.hash()
        back = read_report_json(outdir)
        assert back == report.to_json_dict()

    def test_missing_report(self, tmp_path):
        with pytest.raises(HarnessError):
            read_report_json(tmp_path)
