"""The linear predictor standing in for the CNN backbone: features map to
per-label logits by

    z = x @ W2 + b2

Every array may carry a leading model axis: parameters (M, ...) with inputs
(M, B, D) evaluate M models at once, each exactly as it would be alone.
The backward pass is hand-derived and checked against finite differences in
the test suite. The forward pass is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datamodel import CoupledLabelsError


class PredictorShapeError(CoupledLabelsError):
    pass


@dataclass
class PredictorParams:
    W2: np.ndarray   # (D, L)
    b2: np.ndarray   # (L,)

    def __post_init__(self):
        for name in ("W2", "b2"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.isfinite(arr).all():
                raise PredictorShapeError(f"{name} contains non-finite entries")
            setattr(self, name, arr)
        if self.W2.shape[-1] != self.b2.shape[-1]:
            raise PredictorShapeError("W2/b2 label widths disagree")

    @property
    def n_labels(self) -> int:
        return self.b2.shape[-1]

    @property
    def n_features(self) -> int:
        return self.W2.shape[-2]

    def trainable(self) -> dict[str, np.ndarray]:
        """Named live parameter arrays, in the order in which
        predict_backward produces their gradients."""
        return {"W2": self.W2, "b2": self.b2}


def init_params(n_features: int, n_labels: int, rng) -> PredictorParams:
    """Uniform(+-1/sqrt(n_features)) weights, zero biases."""
    bound = 1.0 / np.sqrt(n_features)
    return PredictorParams(W2=rng.uniform(-bound, bound, size=(n_features, n_labels)),
                           b2=np.zeros(n_labels))


def predict_forward(x, params: PredictorParams) -> tuple[np.ndarray, dict]:
    """Features (B, D) or (M, B, D) -> logits, and the cache for
    predict_backward."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != params.n_features:
        raise PredictorShapeError(
            f"inputs of shape {x.shape} do not match {params.n_features}-feature predictor"
        )
    # non-finite inputs flow through quietly; the loss flags them and the
    # training step skips the update
    with np.errstate(invalid="ignore", over="ignore"):
        z = x @ params.W2 + params.b2[..., None, :]
    return z, {"x": x}


def predict_backward(grad_z, cache: dict, params: PredictorParams) -> dict:
    """Exact parameter gradients for the cached forward pass."""
    g = np.asarray(grad_z, dtype=np.float64)
    x = cache["x"]
    if g.shape != x.shape[:-1] + (params.n_labels,):
        raise PredictorShapeError(
            f"grad_z shape {g.shape} does not match {x.shape[:-1] + (params.n_labels,)}"
        )
    return {"W2": x.swapaxes(-1, -2) @ g, "b2": g.sum(axis=-2)}


# ---------------------------------------------------------------------------
# checkpoints: JSON record of all parameter arrays + config hash
# ---------------------------------------------------------------------------


def save_checkpoint(path, params: PredictorParams, coupling_A: np.ndarray | None,
                    config_hash: str) -> None:
    """No alpha: a refined model's rate is its run config's, matched by hash."""
    record = {
        "config_hash": config_hash,
        "arrays": {name: arr.tolist() for name, arr in params.trainable().items()},
    }
    if coupling_A is not None:
        record["arrays"]["A"] = np.asarray(coupling_A).tolist()
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> tuple[PredictorParams, np.ndarray | None, str]:
    """Returns (params, coupling matrix or None, config hash). The record
    must hold the arrays W2 and b2, and A for a refined model, and no other."""
    with open(path) as fh:
        record = json.load(fh)
    arrays = {name: np.array(v, dtype=np.float64) for name, v in record["arrays"].items()}
    if not {"W2", "b2"} <= arrays.keys() <= {"W2", "b2", "A"}:
        raise PredictorShapeError(
            f"{path}: checkpoint arrays {sorted(arrays)} are not W2, b2 and an optional A"
        )
    A = arrays.pop("A", None)
    return PredictorParams(W2=arrays["W2"], b2=arrays["b2"]), A, record["config_hash"]
