import json
import warnings

import numpy as np
import pytest
from scipy.special import expit as scipy_expit

from coupled_labels.datamodel import CoupledLabelsError
from coupled_labels.harness import load_checkpoint, save_checkpoint
from coupled_labels.predictor import (
    PredictorShapeError,
    expit,
    init_params,
    predict_backward,
    predict_forward,
)
from helpers import central_diff, max_rel_err


def _expit_grid() -> np.ndarray:
    """Sigmoid inputs where libm's exp, numpy's SIMD exp and the overflow and
    underflow edges part ways: signed zeros, infinities, nan, subnormals,
    the overflow threshold of exp(-z) and its neighbours, the band
    -746..-700 where exp(-z) overflows or 1 / (1 + exp(-z)) is subnormal,
    and N(0, 25) draws, on which SIMD and libm differ most often."""
    rng = np.random.default_rng(23)
    tiny = np.finfo(np.float64).smallest_subnormal
    edge = 709.782712893384   # exp(709.782712893384) is the largest finite exp
    points = [0.0, np.inf, np.nan, tiny, 7 * tiny, np.finfo(np.float64).tiny, 1e-300,
              709.78, edge, np.nextafter(edge, 0), np.nextafter(edge, np.inf), 745.13,
              746.0, 1e300, np.finfo(np.float64).max]
    points = np.array(points)
    return np.concatenate([
        points, -points,
        rng.normal(0.0, 5.0, 200_000),
        rng.uniform(-746.0, -700.0, 100_000),
        rng.uniform(-709.79, -709.0, 20_000),
        rng.uniform(700.0, 746.0, 20_000),
        rng.uniform(-40.0, 40.0, 60_000),
    ])


def _bits(a):
    return np.asarray(a).view(np.uint64)


class TestExpit:
    """`expit` gives `scipy.special.expit`'s bits; a numpy whose float64 exp
    ran SIMD kernels on reversed views would fail here."""

    @pytest.fixture(scope="class")
    def grid(self):
        return _expit_grid()

    def test_bits_match_scipy(self, grid):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = expit(grid)
            want = scipy_expit(grid)
        assert got.shape == grid.shape
        differ = np.flatnonzero(_bits(got) != _bits(want))
        assert differ.size == 0, grid[differ[:10]]

    def test_bits_match_scipy_on_views_and_out_slots(self, grid):
        z = grid[:400_000].reshape(50, 400, 20)
        want = scipy_expit(z)
        slot = np.full((60, 400, 20), np.nan)
        out = slot[5:55]
        strided = np.full((20, 400, 50), np.nan).T   # (50, 400, 20), not C-contiguous
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(_bits(expit(z)), _bits(want))
            got_t = expit(z.transpose(2, 0, 1))
            assert np.array_equal(_bits(got_t), _bits(want.transpose(2, 0, 1)))
            assert expit(z, out=out) is out
            assert expit(z, out=strided) is strided
        assert np.array_equal(_bits(out), _bits(want))
        assert np.isnan(slot[:5]).all() and np.isnan(slot[55:]).all()
        assert np.array_equal(_bits(strided), _bits(want))

    def test_in_place_and_scalar(self, grid):
        z = grid[:5000].copy()
        want = scipy_expit(z)
        assert expit(z, out=z) is z
        assert np.array_equal(_bits(z), _bits(want))
        for v in (0.25, -745.0, np.nan):
            got = expit(v)
            assert isinstance(got, np.float64)
            assert _bits(got) == _bits(scipy_expit(v))


class TestForward:
    def test_zero_weights_broadcast_bias(self):
        params = {"W2": np.zeros((3, 2)), "b2": np.array([0.5, -1.0])}
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
        params = {"W2": rng.uniform(-0.5, 0.5, size=lead + (d, l)),
                  "b2": rng.normal(size=lead + (l,))}
        x = rng.normal(size=lead + (n, d))
        g = rng.normal(size=lead + (n, l))
        _, cache = predict_forward(x, params)
        grads = predict_backward(g, cache, params)

        def objective(name, arr):
            z, _ = predict_forward(x, {**params, name: arr})
            return float((z * g).sum())

        for name, grad in grads.items():
            fd = central_diff(lambda arr, nm=name: objective(nm, arr), params[name])
            assert max_rel_err(grad, fd) < 1e-5, name


class TestCheckpoint:
    def test_round_trip_with_coupling(self, tmp_path):
        rng = np.random.default_rng(9)
        params = init_params(4, 3, rng)
        A = rng.normal(size=(3, 3))
        np.fill_diagonal(A, 0.0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, {**params, "A": A}, "abc123")
        back, h = load_checkpoint(path)
        assert h == "abc123"
        # the rate lives in the run's config.json only
        assert json.loads(path.read_text()).keys() == {"arrays", "config_hash"}
        np.testing.assert_array_equal(back["W2"], params["W2"])
        np.testing.assert_array_equal(back["b2"], params["b2"])
        np.testing.assert_array_equal(back["A"], A)

    def test_round_trip_without_coupling(self, tmp_path):
        rng = np.random.default_rng(10)
        params = init_params(4, 2, rng)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, "ffff")
        back, _ = load_checkpoint(path)
        assert "A" not in back
        np.testing.assert_array_equal(back["W2"], params["W2"])

    def test_loads_record_with_predictor_kind_keys(self, tmp_path):
        # records written before the linear predictor was the only one
        # also name it and its dropout rate
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({
            "arrays": {"W2": [[1.0], [2.0]], "b2": [0.5]}, "config_hash": "ab",
            "dropout_p": 0.4, "variant": "linear",
        }))
        back, _ = load_checkpoint(path)
        np.testing.assert_array_equal(back["W2"], [[1.0], [2.0]])
        assert "A" not in back

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
    """A checkpoint is the one model that arrives from outside: a record
    it cannot use raises PredictorShapeError naming the file and every
    key whose value it cannot load."""

    def _load(self, tmp_path, record, problems):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(record))
        with pytest.raises(PredictorShapeError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path}: " + "; ".join(problems)

    @pytest.mark.parametrize("arrays, problem", [
        # Python's json writes and reads NaN and Infinity
        ({"W2": [[float("nan"), 0.0]], "b2": [0.0, 0.0]},
         "arrays.W2.0.0: must be a finite number, got nan"),
        ({"W2": [[1.0]], "b2": [float("inf")]}, "arrays.b2.0: must be a finite number, got inf"),
        ({"W2": [[1.0]], "b2": [0.0], "A": [[float("nan")]]},
         "arrays.A.0.0: must be a finite number, got nan"),
    ], ids=["W2-nan", "b2-infinity", "A-nan"])
    def test_nonfinite_rejected(self, tmp_path, arrays, problem):
        self._load(tmp_path, {"arrays": arrays, "config_hash": "ab"}, [problem])

    @pytest.mark.parametrize("record, problems", [
        ([1, 2], ["config_hash: missing", "arrays: missing"]),
        ({"config_hash": "ab"}, ["arrays: missing"]),
        ({"arrays": [], "config_hash": "ab"},
         ["arrays: must be an object of W2, b2 and an optional A, got []",
          "arrays.W2: missing", "arrays.b2: missing"]),
        ({"arrays": {"W2": [[1.0]], "b2": [0.0]}}, ["config_hash: missing"]),
        ({"arrays": {"W2": [[1.0]], "b2": [0.0]}, "config_hash": 7},
         ["config_hash: must be a string, got 7"]),
    ], ids=["list", "no-arrays", "arrays-list", "no-hash", "hash-number"])
    def test_record_not_a_checkpoint_object(self, tmp_path, record, problems):
        self._load(tmp_path, record, problems)

    @pytest.mark.parametrize("arrays, problems", [
        ({"W2": [[1.0]], "b2": [0.0], "A": [[0.0, 0.0, 0.0]]},
         ["arrays.A.0: must be a list of 1 entries, got [0.0, 0.0, 0.0]"]),
        ({"W2": [[1.0]], "b2": [0.0], "A": []}, ["arrays.A: must be a list of 1 entries, got []"]),
        ({"W2": [1.0, 2.0], "b2": [0.0]}, ["arrays.W2.0: must be a list of 1 entries, got 1.0",
                                           "arrays.W2.1: must be a list of 1 entries, got 2.0"]),
        ({"W2": [[1.0, 2.0]], "b2": [0.0]},
         ["arrays.W2.0: must be a list of 1 entries, got [1.0, 2.0]"]),
        ({"W2": [], "b2": [0.0]}, ["arrays.W2: must be a non-empty list, got []"]),
        ({"W2": [[1.0]], "b2": [[0.0]]}, ["arrays.b2.0: must be a finite number, got [0.0]"]),
        ({"W2": [[1.0]], "b2": 0.5}, ["arrays.b2: must be a non-empty list, got 0.5"]),
        ({"W2": [[]], "b2": []}, ["arrays.b2: must be a non-empty list, got []"]),
        ({"W2": [[1.0], [2.0, 3.0]], "b2": [0.0]},
         ["arrays.W2.1: must be a list of 1 entries, got [2.0, 3.0]"]),
        ({"W2": [["x"]], "b2": [0.0]}, ["arrays.W2.0.0: must be a finite number, got 'x'"]),
        ({"W2": [["1.5"]], "b2": [0.0]}, ["arrays.W2.0.0: must be a finite number, got '1.5'"]),
        ({"W2": [[True]], "b2": [0.0]}, ["arrays.W2.0.0: must be a finite number, got True"]),
    ], ids=["A-1x3", "A-empty", "W2-1d", "W2-width", "W2-empty", "b2-2d", "b2-number",
            "no-labels", "W2-ragged", "W2-text", "W2-numeric-text", "W2-bool"])
    def test_misshapen_array_named(self, tmp_path, arrays, problems):
        self._load(tmp_path, {"arrays": arrays, "config_hash": "ab"}, problems)
