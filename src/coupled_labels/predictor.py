"""Small differentiable predictors standing in for the CNN backbone.

Two variants map features to per-label logits:

    linear: z = x @ W2 + b2
    mlp1:   z = relu(x @ W1 + b1) @ W2 + b2, inverted dropout on the hidden
            layer in train mode (keep-prob scaling, so eval needs no rescale)

Every array may carry a leading model axis: parameters (M, ...) with inputs
(M, B, D) evaluate M models at once, each exactly as it would be alone.
Backward passes are hand-derived and checked against finite differences in
the test suite. Eval mode is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datamodel import CoupledLabelsError

VARIANTS = ("linear", "mlp1")


class PredictorShapeError(CoupledLabelsError):
    pass


@dataclass
class PredictorParams:
    variant: str
    W2: np.ndarray               # (D or H, L)
    b2: np.ndarray               # (L,)
    W1: np.ndarray | None = None  # (D, H), mlp1 only
    b1: np.ndarray | None = None  # (H,), mlp1 only
    dropout_p: float = 0.4

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise PredictorShapeError(f"unknown predictor variant {self.variant!r}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise PredictorShapeError(f"dropout_p must lie in [0, 1), got {self.dropout_p}")
        if self.variant == "mlp1" and (self.W1 is None or self.b1 is None):
            raise PredictorShapeError("mlp1 requires W1 and b1")
        if self.variant == "linear" and (self.W1 is not None or self.b1 is not None):
            raise PredictorShapeError("linear variant must not carry W1/b1")
        for name in ("W1", "b1", "W2", "b2"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=np.float64)
            if not np.isfinite(arr).all():
                raise PredictorShapeError(f"{name} contains non-finite entries")
            setattr(self, name, arr)
        if self.variant == "mlp1" and self.W1.shape[-1] != self.b1.shape[-1]:
            raise PredictorShapeError("W1/b1 hidden widths disagree")
        if self.W2.shape[-1] != self.b2.shape[-1]:
            raise PredictorShapeError("W2/b2 label widths disagree")
        if self.variant == "mlp1" and self.W1.shape[-1] != self.W2.shape[-2]:
            raise PredictorShapeError("W1 output width does not match W2 input width")

    @property
    def n_labels(self) -> int:
        return self.b2.shape[-1]

    @property
    def n_features(self) -> int:
        return self.W1.shape[-2] if self.variant == "mlp1" else self.W2.shape[-2]

    def trainable(self) -> dict[str, np.ndarray]:
        """Named live parameter arrays, output layer first: the order in
        which predict_backward produces their gradients."""
        out = {"W2": self.W2, "b2": self.b2}
        if self.variant == "mlp1":
            out["W1"] = self.W1
            out["b1"] = self.b1
        return out


def init_params(variant: str, n_features: int, n_labels: int, rng,
                hidden: int = 32, dropout_p: float = 0.4) -> PredictorParams:
    """Uniform(+-1/sqrt(fan_in)) weights, zero biases."""
    if variant == "linear":
        bound = 1.0 / np.sqrt(n_features)
        return PredictorParams(
            variant="linear",
            W2=rng.uniform(-bound, bound, size=(n_features, n_labels)),
            b2=np.zeros(n_labels),
            dropout_p=dropout_p,
        )
    if variant == "mlp1":
        b1_bound = 1.0 / np.sqrt(n_features)
        b2_bound = 1.0 / np.sqrt(hidden)
        return PredictorParams(
            variant="mlp1",
            W1=rng.uniform(-b1_bound, b1_bound, size=(n_features, hidden)),
            b1=np.zeros(hidden),
            W2=rng.uniform(-b2_bound, b2_bound, size=(hidden, n_labels)),
            b2=np.zeros(n_labels),
            dropout_p=dropout_p,
        )
    raise PredictorShapeError(f"unknown predictor variant {variant!r}")


def predict_forward(x, params: PredictorParams, mode: str = "eval",
                    rng=None) -> tuple[np.ndarray, dict]:
    """Features (B, D) or (M, B, D) -> logits. Train mode applies inverted
    dropout (mlp1 only) and therefore needs an rng, one per model for
    stacked input; eval mode is deterministic."""
    if mode not in ("train", "eval"):
        raise PredictorShapeError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != params.n_features:
        raise PredictorShapeError(
            f"inputs of shape {x.shape} do not match {params.n_features}-feature predictor"
        )
    cache: dict = {"x": x, "mode": mode}
    # non-finite inputs flow through quietly; the loss flags them and the
    # training step skips the update
    with np.errstate(invalid="ignore", over="ignore"):
        if params.variant == "linear":
            z = x @ params.W2 + params.b2[..., None, :]
            return z, cache

        h_pre = x @ params.W1 + params.b1[..., None, :]
        h = np.maximum(h_pre, 0.0)
        cache["h_pre"] = h_pre
        if mode == "train" and params.dropout_p > 0.0:
            if rng is None:
                raise PredictorShapeError("train-mode dropout requires an rng")
            keep = 1.0 - params.dropout_p
            draws = (rng.random(h.shape) if h.ndim == 2
                     else np.stack([r.random(h.shape[1:]) for r in rng]))
            mask = (draws < keep).astype(np.float64) / keep
            h = h * mask
            cache["mask"] = mask
        cache["h"] = h
        z = h @ params.W2 + params.b2[..., None, :]
        return z, cache


def predict_backward(grad_z, cache: dict, params: PredictorParams) -> tuple[dict, np.ndarray]:
    """Exact parameter gradients plus grad_x for the cached forward pass."""
    g = np.asarray(grad_z, dtype=np.float64)
    x = cache["x"]
    if g.shape != x.shape[:-1] + (params.n_labels,):
        raise PredictorShapeError(
            f"grad_z shape {g.shape} does not match {x.shape[:-1] + (params.n_labels,)}"
        )
    x_t = x.swapaxes(-1, -2)
    if params.variant == "linear":
        grads = {"W2": x_t @ g, "b2": g.sum(axis=-2)}
        return grads, g @ params.W2.swapaxes(-1, -2)

    h = cache["h"]
    grads = {"W2": h.swapaxes(-1, -2) @ g, "b2": g.sum(axis=-2)}
    grad_h = g @ params.W2.swapaxes(-1, -2)
    if "mask" in cache:
        grad_h = grad_h * cache["mask"]
    grad_h_pre = grad_h * (cache["h_pre"] > 0.0)
    grads["W1"] = x_t @ grad_h_pre
    grads["b1"] = grad_h_pre.sum(axis=-2)
    return grads, grad_h_pre @ params.W1.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# checkpoints: JSON record of all parameter arrays + config hash
# ---------------------------------------------------------------------------


def save_checkpoint(path, params: PredictorParams, coupling_A: np.ndarray | None,
                    config_hash: str) -> None:
    """No alpha: a refined model's rate is its run config's, matched by hash."""
    record = {
        "config_hash": config_hash,
        "variant": params.variant,
        "dropout_p": params.dropout_p,
        "arrays": {name: arr.tolist() for name, arr in params.trainable().items()},
    }
    if coupling_A is not None:
        record["arrays"]["A"] = np.asarray(coupling_A).tolist()
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> tuple[PredictorParams, np.ndarray | None, str]:
    """Returns (params, coupling matrix or None, config hash)."""
    with open(path) as fh:
        record = json.load(fh)
    arrays = {name: np.array(v, dtype=np.float64) for name, v in record["arrays"].items()}
    A = arrays.pop("A", None)
    params = PredictorParams(
        variant=record["variant"],
        W2=arrays["W2"],
        b2=arrays["b2"],
        W1=arrays.get("W1"),
        b1=arrays.get("b1"),
        dropout_p=record["dropout_p"],
    )
    return params, A, record["config_hash"]
