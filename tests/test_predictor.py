import copy
import json

import numpy as np
import pytest

from coupled_labels.predictor import (
    PredictorParams,
    PredictorShapeError,
    init_params,
    load_checkpoint,
    predict_backward,
    predict_forward,
    save_checkpoint,
)
from helpers import central_diff, max_rel_err


def make_mlp(rng, d=4, h=6, l=3, dropout_p=0.4):
    return init_params("mlp1", d, l, rng, hidden=h, dropout_p=dropout_p)


class TestForward:
    def test_zero_weights_broadcast_bias(self):
        params = PredictorParams(variant="linear", W2=np.zeros((3, 2)),
                                 b2=np.array([0.5, -1.0]))
        z, _ = predict_forward(np.random.default_rng(0).normal(size=(4, 3)), params)
        np.testing.assert_array_equal(z, np.tile([0.5, -1.0], (4, 1)))

    def test_eval_deterministic(self):
        rng = np.random.default_rng(1)
        params = make_mlp(rng)
        x = rng.normal(size=(5, 4))
        z1, _ = predict_forward(x, params, mode="eval")
        z2, _ = predict_forward(x, params, mode="eval")
        np.testing.assert_array_equal(z1, z2)

    def test_train_mode_requires_rng(self):
        rng = np.random.default_rng(2)
        params = make_mlp(rng)
        with pytest.raises(PredictorShapeError):
            predict_forward(np.zeros((2, 4)), params, mode="train")

    def test_inverted_dropout_unbiased(self):
        # Monte-Carlo oracle: the mean over many dropout draws approaches
        # the eval-mode logits within 3 standard errors
        rng = np.random.default_rng(3)
        params = make_mlp(rng, d=4, h=8, l=3)
        x = rng.normal(size=(3, 4))
        z_eval, _ = predict_forward(x, params, mode="eval")
        draws = 10_000
        samples = np.empty((draws,) + z_eval.shape)
        for i in range(draws):
            samples[i], _ = predict_forward(x, params, mode="train", rng=rng)
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(mean - z_eval) <= 3.0 * se + 1e-12)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(4)
        params = make_mlp(rng, d=4)
        with pytest.raises(PredictorShapeError):
            predict_forward(np.zeros((2, 5)), params)


class TestBackward:
    def test_linear_closed_form(self):
        rng = np.random.default_rng(5)
        params = init_params("linear", 4, 3, rng)
        x = rng.normal(size=(6, 4))
        g = rng.normal(size=(6, 3))
        _, cache = predict_forward(x, params)
        grads, _ = predict_backward(g, cache, params)
        np.testing.assert_array_equal(grads["W2"], x.T @ g)
        np.testing.assert_array_equal(grads["b2"], g.sum(axis=0))

    def test_zero_upstream_gradient(self):
        rng = np.random.default_rng(6)
        params = make_mlp(rng)
        x = rng.normal(size=(3, 4))
        _, cache = predict_forward(x, params)
        grads, grad_x = predict_backward(np.zeros((3, 3)), cache, params)
        assert all(np.all(v == 0.0) for v in grads.values())
        assert np.all(grad_x == 0.0)

    @pytest.mark.parametrize("variant", ["linear", "mlp1"])
    def test_finite_differences_eval(self, variant):
        rng = np.random.default_rng(7)
        d, h, l, n = 5, 6, 3, 4
        params = init_params(variant, d, l, rng, hidden=h)
        x = rng.normal(size=(n, d))
        if variant == "mlp1":
            # keep hidden pre-activations away from the relu kink
            while np.any(np.abs(x @ params.W1 + params.b1) < 1e-4):
                x = rng.normal(size=(n, d))
        g = rng.normal(size=(n, l))
        _, cache = predict_forward(x, params, mode="eval")
        grads, grad_x = predict_backward(g, cache, params)

        def objective(names, arrays):
            trial = copy.deepcopy(params)
            for name, arr in zip(names, arrays):
                setattr(trial, name, arr)
            z, _ = predict_forward(x, trial, mode="eval")
            return float((z * g).sum())

        for name, grad in grads.items():
            fd = central_diff(
                lambda arr, nm=name: objective([nm], [arr]), getattr(params, name)
            )
            assert max_rel_err(grad, fd) < 1e-5, name

        fd_x = central_diff(
            lambda xx: float((predict_forward(xx, params, mode="eval")[0] * g).sum()), x
        )
        assert max_rel_err(grad_x, fd_x) < 1e-5

    def test_finite_differences_train_dropout(self):
        # re-seeding the rng reproduces the same mask, so finite differences
        # see a fixed deterministic function
        rng = np.random.default_rng(8)
        params = make_mlp(rng, d=4, h=5, l=2, dropout_p=0.5)
        x = rng.normal(size=(3, 4))
        while np.any(np.abs(x @ params.W1 + params.b1) < 1e-4):
            x = rng.normal(size=(3, 4))
        g = rng.normal(size=(3, 2))

        def fwd(trial_params):
            z, cache = predict_forward(x, trial_params, mode="train",
                                       rng=np.random.default_rng(99))
            return z, cache

        z, cache = fwd(params)
        grads, _ = predict_backward(g, cache, params)

        def objective(W1):
            trial = copy.deepcopy(params)
            trial.W1 = W1
            return float((fwd(trial)[0] * g).sum())

        fd = central_diff(objective, params.W1)
        assert max_rel_err(grads["W1"], fd) < 1e-5


class TestCheckpoint:
    def test_round_trip_with_coupling(self, tmp_path):
        rng = np.random.default_rng(9)
        params = make_mlp(rng)
        A = rng.normal(size=(3, 3))
        np.fill_diagonal(A, 0.0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, A, "abc123")
        back, back_A, h = load_checkpoint(path)
        assert h == "abc123"
        # the rate lives in the run's config.json only
        assert "alpha" not in json.loads(path.read_text())
        np.testing.assert_array_equal(back.W1, params.W1)
        np.testing.assert_array_equal(back.W2, params.W2)
        np.testing.assert_array_equal(back_A, A)
        assert back.variant == "mlp1" and back.dropout_p == params.dropout_p

    def test_round_trip_without_coupling(self, tmp_path):
        rng = np.random.default_rng(10)
        params = init_params("linear", 4, 2, rng)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, None, "ffff")
        back, back_A, _ = load_checkpoint(path)
        assert back_A is None
        np.testing.assert_array_equal(back.W2, params.W2)


class TestValidation:
    def test_linear_rejects_hidden_arrays(self):
        with pytest.raises(PredictorShapeError):
            PredictorParams(variant="linear", W2=np.zeros((2, 2)), b2=np.zeros(2),
                            W1=np.zeros((2, 2)), b1=np.zeros(2))

    def test_mlp_requires_hidden_arrays(self):
        with pytest.raises(PredictorShapeError):
            PredictorParams(variant="mlp1", W2=np.zeros((2, 2)), b2=np.zeros(2))

    def test_nonfinite_rejected(self):
        with pytest.raises(PredictorShapeError):
            PredictorParams(variant="linear", W2=np.array([[np.nan, 0.0]]),
                            b2=np.zeros(2))
