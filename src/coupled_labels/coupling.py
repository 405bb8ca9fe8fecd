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

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .datamodel import CoupledLabelsError


class CouplingShapeError(CoupledLabelsError):
    """Logits and coupling matrix disagree on the number of labels."""


@dataclass
class CouplingMatrix:
    A: np.ndarray          # (L, L) or (M, L, L), zero diagonal
    alpha: float = 0.3

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        if self.A.ndim not in (2, 3) or self.A.shape[-1] != self.A.shape[-2]:
            raise CouplingShapeError(f"coupling matrix must be square, got {self.A.shape}")

    @property
    def n_labels(self) -> int:
        return self.A.shape[-1]

    def copy(self) -> "CouplingMatrix":
        return CouplingMatrix(A=self.A.copy(), alpha=self.alpha)


def new_coupling(n_labels: int, alpha: float = 0.3) -> CouplingMatrix:
    """Zero-initialized coupling: the model starts fully independent."""
    if n_labels < 2:
        raise CouplingShapeError(f"need at least two labels, got {n_labels}")
    return CouplingMatrix(A=np.zeros((n_labels, n_labels)), alpha=alpha)


def refine_forward(z, cm: CouplingMatrix) -> tuple[np.ndarray, dict]:
    """z' = z + alpha * (sigmoid(z) @ A). Returns (z', cache for backward)."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (2, 3) or z.shape[-1] != cm.n_labels:
        raise CouplingShapeError(
            f"logits with {z.shape[-1] if z.ndim else 0} columns do not match "
            f"{cm.n_labels}-label coupling matrix"
        )
    with np.errstate(invalid="ignore", over="ignore"):
        p = expit(z)
        z_prime = z + cm.alpha * (p @ cm.A)
    return z_prime, {"p": p, "z": z}


def refine_backward(grad_zprime, cache: dict, cm: CouplingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Exact chain rule through the refinement step.

    grad_z = g + alpha * (g @ A^T) * sigmoid'(z)
    grad_A = alpha * p^T @ g, diagonal zeroed (constraint projection)
    """
    g = np.asarray(grad_zprime, dtype=np.float64)
    p = cache["p"]
    if g.shape != p.shape:
        raise CouplingShapeError(f"upstream gradient {g.shape} does not match cache {p.shape}")
    sig_prime = p * (1.0 - p)
    grad_z = g + cm.alpha * (g @ cm.A.swapaxes(-1, -2)) * sig_prime
    grad_A = cm.alpha * (p.swapaxes(-1, -2) @ g)
    zero_diag(grad_A)
    return grad_z, grad_A


def zero_diag(A: np.ndarray) -> np.ndarray:
    """Zero the diagonal of every trailing (L, L) matrix of A, in place."""
    i = np.arange(A.shape[-1])
    A[..., i, i] = 0.0
    return A


def enforce_zero_diag(cm: CouplingMatrix) -> CouplingMatrix:
    """Project the stored matrix back onto the zero-diagonal constraint."""
    zero_diag(cm.A)
    return cm


def save_coupling_csv(cm_or_matrix, label_names: list[str], path) -> None:
    """L x L CSV with a label-name header row/column; diagonal written as 0."""
    A = cm_or_matrix.A if isinstance(cm_or_matrix, CouplingMatrix) else np.asarray(cm_or_matrix)
    if A.shape != (len(label_names), len(label_names)):
        raise CouplingShapeError(
            f"matrix shape {A.shape} does not match {len(label_names)} label names"
        )
    out = A.copy()
    np.fill_diagonal(out, 0.0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source"] + list(label_names))
        for i, name in enumerate(label_names):
            writer.writerow([name] + [repr(float(v)) for v in out[i]])


def load_coupling_csv(path) -> tuple[np.ndarray, list[str]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        names = header[1:]
        rows = []
        for row in reader:
            rows.append([float(v) for v in row[1:]])
    A = np.array(rows, dtype=np.float64)
    if A.shape != (len(names), len(names)):
        raise CouplingShapeError(f"{path}: ragged coupling CSV")
    return A, names
