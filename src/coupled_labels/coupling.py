"""Sparse label-graph refinement: one message-passing step over a trainable
L x L coupling matrix.

Row-wise, with p = sigmoid(z):

    z' = z + alpha * (p @ A)

A has a zero diagonal at all times and starts at zero, so the untrained
model is exactly the independent per-label predictor. Entry A[i, j] routes
evidence for label i into label j's logit: positive entries boost, negative
entries suppress.

Logits (M, B, L) with a stacked (M, L, L) matrix refine M models at once.
"""

from __future__ import annotations

import numpy as np

from .datamodel import CoupledLabelsError, write_csv
from .predictor import expit


class CouplingShapeError(CoupledLabelsError):
    """Logits and coupling matrix disagree on the number of labels."""


def new_coupling(n_labels: int) -> np.ndarray:
    """Zero-initialized coupling: the model starts fully independent."""
    if n_labels < 2:
        raise CouplingShapeError(f"need at least two labels, got {n_labels}")
    return np.zeros((n_labels, n_labels))


def refine_forward(z, A: np.ndarray, alpha: float) -> tuple[np.ndarray, dict]:
    """z' = z + alpha * (sigmoid(z) @ A). Returns (z', cache for backward)."""
    z = np.asarray(z, dtype=np.float64)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise CouplingShapeError(f"coupling matrix must be square, got {A.shape}")
    if z.ndim not in (2, 3) or z.shape[-1] != A.shape[-1]:
        raise CouplingShapeError(
            f"logits with {z.shape[-1] if z.ndim else 0} columns do not match "
            f"{A.shape[-1]}-label coupling matrix"
        )
    with np.errstate(invalid="ignore", over="ignore"):
        p = expit(z)
        z_prime = z + alpha * (p @ A)
    return z_prime, {"p": p, "z": z}


def refine_backward(grad_zprime, cache: dict, A: np.ndarray,
                    alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact chain rule through the refinement step.

    grad_z = g + alpha * (g @ A^T) * sigmoid'(z)
    grad_A = alpha * p^T @ g, diagonal zeroed (constraint projection)
    """
    g = np.asarray(grad_zprime, dtype=np.float64)
    p = cache["p"]
    if g.shape != p.shape:
        raise CouplingShapeError(f"upstream gradient {g.shape} does not match cache {p.shape}")
    sig_prime = p * (1.0 - p)
    grad_z = g + alpha * (g @ A.swapaxes(-1, -2)) * sig_prime
    grad_A = alpha * (p.swapaxes(-1, -2) @ g)
    zero_diag(grad_A)
    return grad_z, grad_A


def zero_diag(A: np.ndarray) -> np.ndarray:
    """Zero the diagonal of every trailing (L, L) matrix of A, in place."""
    i = np.arange(A.shape[-1])
    A[..., i, i] = 0.0
    return A


def save_coupling_csv(A, label_names: list[str], path) -> None:
    """L x L CSV with a label-name header row/column; diagonal written as 0."""
    A = np.asarray(A)
    if A.shape != (len(label_names), len(label_names)):
        raise CouplingShapeError(
            f"matrix shape {A.shape} does not match {len(label_names)} label names"
        )
    write_csv(path, ["source"] + list(label_names),
              ([name] + [repr(float(v)) for v in row]
               for name, row in zip(label_names, zero_diag(A.copy()))))

