import copy
import json

import numpy as np
import pytest

from coupled_labels.datamodel import CoupledLabelsError
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


class TestForward:
    def test_zero_weights_broadcast_bias(self):
        params = PredictorParams(W2=np.zeros((3, 2)), b2=np.array([0.5, -1.0]))
        z, _ = predict_forward(np.random.default_rng(0).normal(size=(4, 3)), params)
        np.testing.assert_array_equal(z, np.tile([0.5, -1.0], (4, 1)))

    def test_eval_deterministic(self):
        rng = np.random.default_rng(1)
        params = init_params(4, 3, rng)
        x = rng.normal(size=(5, 4))
        z1, _ = predict_forward(x, params)
        z2, _ = predict_forward(x, params)
        np.testing.assert_array_equal(z1, z2)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(4)
        params = init_params(4, 3, rng)
        with pytest.raises(PredictorShapeError):
            predict_forward(np.zeros((2, 5)), params)


class TestBackward:
    def test_linear_closed_form(self):
        rng = np.random.default_rng(5)
        params = init_params(4, 3, rng)
        x = rng.normal(size=(6, 4))
        g = rng.normal(size=(6, 3))
        _, cache = predict_forward(x, params)
        grads = predict_backward(g, cache, params)
        np.testing.assert_array_equal(grads["W2"], x.T @ g)
        np.testing.assert_array_equal(grads["b2"], g.sum(axis=0))

    def test_zero_upstream_gradient(self):
        rng = np.random.default_rng(6)
        params = init_params(4, 3, rng)
        x = rng.normal(size=(3, 4))
        _, cache = predict_forward(x, params)
        grads = predict_backward(np.zeros((3, 3)), cache, params)
        assert all(np.all(v == 0.0) for v in grads.values())

    @pytest.mark.parametrize("models", [None, 3], ids=["linear", "stacked"])
    def test_finite_differences_eval(self, models):
        rng = np.random.default_rng(7)
        d, l, n = 5, 3, 4
        lead = () if models is None else (models,)
        params = PredictorParams(W2=rng.uniform(-0.5, 0.5, size=lead + (d, l)),
                                 b2=rng.normal(size=lead + (l,)))
        x = rng.normal(size=lead + (n, d))
        g = rng.normal(size=lead + (n, l))
        _, cache = predict_forward(x, params)
        grads = predict_backward(g, cache, params)

        def objective(name, arr):
            trial = copy.deepcopy(params)
            setattr(trial, name, arr)
            z, _ = predict_forward(x, trial)
            return float((z * g).sum())

        for name, grad in grads.items():
            fd = central_diff(lambda arr, nm=name: objective(nm, arr), getattr(params, name))
            assert max_rel_err(grad, fd) < 1e-5, name


class TestCheckpoint:
    def test_round_trip_with_coupling(self, tmp_path):
        rng = np.random.default_rng(9)
        params = init_params(4, 3, rng)
        A = rng.normal(size=(3, 3))
        np.fill_diagonal(A, 0.0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, A, "abc123")
        back, back_A, h = load_checkpoint(path)
        assert h == "abc123"
        # the rate lives in the run's config.json only
        assert json.loads(path.read_text()).keys() == {"arrays", "config_hash"}
        np.testing.assert_array_equal(back.W2, params.W2)
        np.testing.assert_array_equal(back.b2, params.b2)
        np.testing.assert_array_equal(back_A, A)

    def test_round_trip_without_coupling(self, tmp_path):
        rng = np.random.default_rng(10)
        params = init_params(4, 2, rng)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, None, "ffff")
        back, back_A, _ = load_checkpoint(path)
        assert back_A is None
        np.testing.assert_array_equal(back.W2, params.W2)

    def test_loads_record_with_predictor_kind_keys(self, tmp_path):
        # records written before the linear predictor was the only one
        # also name it and its dropout rate
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({
            "arrays": {"W2": [[1.0], [2.0]], "b2": [0.5]}, "config_hash": "ab",
            "dropout_p": 0.4, "variant": "linear",
        }))
        back, back_A, _ = load_checkpoint(path)
        np.testing.assert_array_equal(back.W2, [[1.0], [2.0]])
        assert back_A is None

    def test_rejects_hidden_layer_arrays(self, tmp_path):
        # a one-hidden-layer record: its W2 maps hidden units, not features
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({
            "arrays": {"W1": [[1.0, 0.0], [0.0, 1.0]], "b1": [0.0, 0.0],
                       "W2": [[1.0], [2.0]], "b2": [0.5]},
            "config_hash": "ab", "dropout_p": 0.4, "variant": "mlp1",
        }))
        with pytest.raises(PredictorShapeError, match="W1"):
            load_checkpoint(path)

    def test_undecodable_byte_names_file(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_bytes(b'{"arrays": {}}\xff')
        with pytest.raises(CoupledLabelsError, match="ckpt.json"):
            load_checkpoint(path)


class TestValidation:
    def test_nonfinite_rejected(self):
        with pytest.raises(PredictorShapeError):
            PredictorParams(W2=np.array([[np.nan, 0.0]]), b2=np.zeros(2))
