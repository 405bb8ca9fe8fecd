"""Canary for the floating-point identities that lockstep training relies on.

Training M models in one stacked step gives each model exactly the bits it
would get trained alone only while these NumPy/BLAS operations give the same
bits on a stacked (M, ...) array as on each of its 2-D slices. A library
upgrade that breaks one of them fails here, naming the operation, instead of
silently changing report bytes.
"""

import numpy as np
import pytest

from coupled_labels.optim import Schedule, adamw_step, init_train_state, stack_states
from coupled_labels.predictor import expit

# (M, B, D, L): the default 24-row batches, a ragged tail, a 32-wide input,
# one-column and one-row edge cases
SHAPES = [(3, 24, 20, 14), (1, 7, 20, 14), (3, 24, 32, 14), (2, 1, 5, 3), (4, 6, 1, 2),
          (2, 9, 4, 1), (5, 256, 20, 14)]


def _stack(m, b, d, l, seed=0):
    """Inputs, upstream gradients and a weight matrix viewed from rows of a
    flat (M, P) buffer, as the trainables are held."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, b, d))
    g = rng.normal(size=(m, b, l))
    buf = rng.normal(size=(m, d * l + l + 5))
    w = buf[:, 5:5 + d * l].reshape(m, d, l)
    assert np.shares_memory(w, buf)
    return x, g, w


def _same_bits(stacked, per_slice, what):
    for i, expected in enumerate(per_slice):
        got = stacked[i]
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), np.asarray(expected).view(np.uint64)), (
            f"{what}: model {i} of a stacked array differs from the same 2-D operation")


@pytest.mark.parametrize("shape", SHAPES)
def test_stacked_matmul_matches_2d(shape):
    x, g, w = _stack(*shape)
    m = shape[0]
    _same_bits(x @ w, [x[i] @ w[i].copy() for i in range(m)], "x @ W")
    _same_bits(x.swapaxes(-1, -2) @ g, [x[i].T @ g[i] for i in range(m)], "x.T @ g")
    _same_bits(g @ w.swapaxes(-1, -2), [g[i] @ w[i].copy().T for i in range(m)], "g @ W.T")


@pytest.mark.parametrize("shape", SHAPES)
def test_stacked_sums_match_2d(shape):
    x, g, w = _stack(*shape)
    m = shape[0]
    _same_bits(g.sum(axis=-2), [g[i].sum(axis=0) for i in range(m)], "sum(axis=-2)")
    _same_bits(g.sum(axis=(-2, -1)), [g[i].sum() for i in range(m)], "sum(axis=(-2, -1))")
    # a buffer segment summed per model, as clip_global_norm sums each array
    sq = np.square(w.reshape(m, -1))
    _same_bits(sq.sum(axis=-1), [np.sum(np.square(w[i].copy())) for i in range(m)],
               "segment sum of squares")


@pytest.mark.parametrize("shape", SHAPES)
def test_stacked_elementwise_functions_match_2d(shape):
    x, g, _ = _stack(*shape)
    m = shape[0]
    z = 4.0 * g
    p = expit(z)
    _same_bits(expit(z), [expit(z[i]) for i in range(m)], "expit")
    _same_bits(np.log(p), [np.log(p[i]) for i in range(m)], "log")
    _same_bits(np.log(1.0 - p), [np.log(1.0 - p[i]) for i in range(m)], "log(1 - p)")
    for exponent in (0.0, 3.0, 4.0):
        _same_bits(p ** exponent, [p[i] ** exponent for i in range(m)], f"** {exponent}")
    _same_bits(np.sqrt(p), [np.sqrt(p[i]) for i in range(m)], "sqrt")


def test_bias_correction_uses_python_float_powers():
    # np.power(beta, t) differs from Python's beta ** t for some t; the
    # stacked update must use the latter, as one model's update did
    beta1, beta2 = 0.9, 0.999
    t = np.arange(1, 5000)
    odd1 = int(t[np.power(beta1, t.astype(np.float64)) != np.array([beta1 ** int(k) for k in t])][0])
    odd2 = int(t[np.power(beta2, t.astype(np.float64)) != np.array([beta2 ** int(k) for k in t])][0])
    rng = np.random.default_rng(1)
    p, g, m, v = (rng.normal(size=(2, 6)) for _ in range(4))
    v = np.abs(v)
    state = stack_states([init_train_state({"w": row}, Schedule(1, 2)) for row in p])
    state.t[:] = [odd1 - 1, odd2 - 1]
    state.m[:] = m
    state.v[:] = v
    adamw_step(state, state.params.like(g), np.array([0.1, 0.2]), 0.0)
    for i, (t_i, lr) in enumerate(zip((odd1, odd2), (0.1, 0.2))):
        m_i = m[i] * beta1 + (1.0 - beta1) * g[i]
        v_i = v[i] * beta2 + (1.0 - beta2) * np.square(g[i])
        update = (m_i / (1.0 - beta1 ** t_i)) / (np.sqrt(v_i / (1.0 - beta2 ** t_i)) + 1e-8)
        expected = p[i] - lr * update
        assert np.array_equal(state.params.data[i].view(np.uint64), expected.view(np.uint64)), (
            f"bias correction at t={t_i} does not match Python float powers")
