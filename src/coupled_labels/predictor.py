"""The linear predictor standing in for the CNN backbone: features map to
per-label logits by

    z = x @ W2 + b2

A model is one mapping from a name to a float64 array: `W2` (D, L) and
`b2` (L,), plus the coupling matrix `A` (L, L) when the model is refined.
Every array may carry a leading model axis: parameters (M, ...) with inputs
(M, B, D) evaluate M models at once, each exactly as it would be alone.
The backward pass is hand-derived and checked against finite differences in
the test suite. The forward pass is deterministic.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .datamodel import CoupledLabelsError


class PredictorShapeError(CoupledLabelsError):
    pass


def init_params(n_features: int, n_labels: int, rng) -> dict[str, np.ndarray]:
    """Uniform(+-1/sqrt(n_features)) weights `W2`, zero biases `b2`."""
    bound = 1.0 / np.sqrt(n_features)
    return {"W2": rng.uniform(-bound, bound, size=(n_features, n_labels)),
            "b2": np.zeros(n_labels)}


def predict_forward(x, params: Mapping) -> tuple[np.ndarray, dict]:
    """Features (B, D) or (M, B, D) -> logits, and the cache for
    predict_backward."""
    W2, b2 = params["W2"], params["b2"]
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != W2.shape[-2]:
        raise PredictorShapeError(
            f"inputs of shape {x.shape} do not match {W2.shape[-2]}-feature predictor"
        )
    # non-finite inputs flow through quietly; the loss flags them and the
    # training step skips the update
    with np.errstate(invalid="ignore", over="ignore"):
        z = x @ W2 + b2[..., None, :]
    return z, {"x": x}


def predict_backward(grad_z, cache: dict, params: Mapping) -> dict:
    """Exact gradients of `W2` and `b2` for the cached forward pass."""
    g = np.asarray(grad_z, dtype=np.float64)
    x = cache["x"]
    expected = x.shape[:-1] + params["b2"].shape[-1:]
    if g.shape != expected:
        raise PredictorShapeError(f"grad_z shape {g.shape} does not match {expected}")
    return {"W2": x.swapaxes(-1, -2) @ g, "b2": g.sum(axis=-2)}


@np.errstate(over="ignore", under="ignore")
def expit(z, out=None):
    """The logistic sigmoid 1 / (1 + exp(-z)), elementwise in float64, with
    the bits of `scipy.special.expit`, written into `out` if one is given.

    Those bits need the C library's `exp`. On contiguous operands numpy's
    float64 `exp` runs SIMD kernels, which round differently from libm on
    about 5% of N(0, 25) draws. On a reversed input view with a forward
    output it runs its scalar loop instead, one libm `exp` call per element
    (were both views reversed, the ufunc would flip them both forward). So
    `exp` reads the negated logits back to front into a fresh array, and
    the reciprocal reads that array back to front again. Negation, `+ 1`
    and the reciprocal are exactly rounded in every loop. Below about
    -709.78, `exp` overflows to inf and the result is 0; like scipy's,
    `expit` neither warns nor raises on overflow or underflow.
    `tests/test_predictor.py` pins the bits against scipy, so a numpy that
    vectorised reversed views would fail there rather than change results.
    """
    z = np.asarray(z, dtype=np.float64)
    t = out if out is not None and out.flags.c_contiguous else np.empty(z.shape)
    np.negative(z, out=t)
    flat = t.reshape(-1)
    e = np.exp(flat[::-1])
    e += 1.0
    np.reciprocal(e[::-1], out=flat)
    if out is None:
        return t if t.ndim else t[()]
    if t is not out:
        out[...] = t
    return out
