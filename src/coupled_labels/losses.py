"""Supervised losses with exact analytic gradients w.r.t. the logits, plus
the L1 coupling penalty.

Asymmetric loss, per entry with p = sigmoid(z) and the shifted negative
probability p_m = max(p - clip, 0):

    loss = -[ y * (1-p)^gamma_pos * log(p)
              + (1-y) * p_m^gamma_neg * log(1 - p_m) ]

The scalar value is the mean over all N*L entries. Logits and targets of
shape (M, N, L) give one value and one finiteness flag per model. Log
arguments are
floored at 1e-12 and the gradients differentiate exactly what is computed,
clamps included, so finite differences agree away from the kink points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import zero_diag
from .datamodel import CoupledLabelsError
from .predictor import expit

LOG_FLOOR = 1e-12


class LossInputError(CoupledLabelsError):
    """Loss called with inconsistent shapes or out-of-range parameters."""


@dataclass(frozen=True)
class LossOutput:
    value: float | np.ndarray       # (M,) for stacked logits
    grad_logits: np.ndarray
    is_finite: bool | np.ndarray


def _check_pair(logits, targets):
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if z.ndim not in (2, 3) or y.shape != z.shape:
        raise LossInputError(
            f"logits {z.shape} and targets {y.shape} must be equal 2-D or 3-D shapes")
    return z, y


def _output(per_entry: np.ndarray, per_entry_grad: np.ndarray, z: np.ndarray) -> LossOutput:
    """Mean over each model's N*L entries, with its gradient and finiteness."""
    n_entries = z.shape[-2] * z.shape[-1]
    value = per_entry.sum(axis=(-2, -1)) / n_entries
    grad = per_entry_grad / n_entries
    finite = (np.isfinite(value) & np.isfinite(grad).all(axis=(-2, -1))
              & np.isfinite(z).all(axis=(-2, -1)))
    if z.ndim == 2:
        value, finite = float(value), bool(finite)
    return LossOutput(value=value, grad_logits=grad, is_finite=finite)


def _clamped_log(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(max(x, LOG_FLOOR)) and its derivative w.r.t. x."""
    floored = np.maximum(x, LOG_FLOOR)
    return np.log(floored), np.where(x > LOG_FLOOR, 1.0 / floored, 0.0)


def asl_loss(logits, targets, gamma_pos: float = 0.0, gamma_neg: float = 4.0,
             clip: float = 0.05) -> LossOutput:
    """Asymmetric loss, mean-reduced over N*L entries, with exact gradient."""
    if not 0.0 <= clip < 1.0:
        raise LossInputError(f"clip must lie in [0, 1), got {clip}")
    if gamma_pos < 0 or gamma_neg < 0:
        raise LossInputError("focusing exponents must be >= 0")
    z, y = _check_pair(logits, targets)

    with np.errstate(over="ignore", invalid="ignore"):
        p = expit(z)
        dp_dz = p * (1.0 - p)

        # positive branch: -(1-p)^gp * log(p)
        one_m_p = 1.0 - p
        log_p, dlog_p = _clamped_log(p)
        w_pos = one_m_p ** gamma_pos
        pos_loss = -w_pos * log_p
        if gamma_pos == 0.0:
            dpos_dp = -w_pos * dlog_p
        else:
            safe = np.where(one_m_p > 0.0, one_m_p, 1.0)
            focus_term = np.where(
                one_m_p > 0.0, gamma_pos * safe ** (gamma_pos - 1.0) * log_p, 0.0
            )
            dpos_dp = focus_term - w_pos * dlog_p

        # negative branch: -p_m^gn * log(1-p_m), p_m = max(p - clip, 0)
        p_m = np.maximum(p - clip, 0.0)
        one_m_pm = 1.0 - p_m
        log_neg, dlog_neg = _clamped_log(one_m_pm)
        w_neg = p_m ** gamma_neg
        neg_loss = -w_neg * log_neg
        if gamma_neg == 0.0:
            dneg_dpm = w_neg * dlog_neg
        else:
            safe = np.where(p_m > 0.0, p_m, 1.0)
            focus_term = np.where(
                p_m > 0.0, gamma_neg * safe ** (gamma_neg - 1.0) * log_neg, 0.0
            )
            dneg_dpm = -focus_term + w_neg * dlog_neg
        dpm_dp = (p > clip).astype(np.float64)

        per_entry = y * pos_loss + (1.0 - y) * neg_loss
        per_entry_grad = (y * dpos_dp + (1.0 - y) * dneg_dpm * dpm_dp) * dp_dz

    return _output(per_entry, per_entry_grad, z)


def weighted_bce_loss(logits, targets, pos_weight) -> LossOutput:
    """Per-label positively-weighted BCE, mean-reduced, with exact gradient.
    Stacked logits take one (L,) weight row for all models or one per model."""
    z, y = _check_pair(logits, targets)
    w = np.asarray(pos_weight, dtype=np.float64)
    if w.shape not in ((z.shape[-1],), z.shape[:-2] + (z.shape[-1],)):
        raise LossInputError(f"pos_weight must have shape ({z.shape[-1]},), got {w.shape}")
    if (w < 1.0).any() or (w > 10.0).any():
        raise LossInputError("pos_weight entries must lie in [1, 10]")
    w = w[..., None, :]

    with np.errstate(over="ignore", invalid="ignore"):
        p = expit(z)
        dp_dz = p * (1.0 - p)
        log_p, dlog_p = _clamped_log(p)
        log_q, dlog_q = _clamped_log(1.0 - p)
        per_entry = -(w * y * log_p + (1.0 - y) * log_q)
        per_entry_grad = -(w * y * dlog_p - (1.0 - y) * dlog_q) * dp_dz

    return _output(per_entry, per_entry_grad, z)


def compute_pos_weights(labels) -> np.ndarray:
    """Per-label N_neg / N_pos ratio, clamped to [1, 10]; one row per model
    for stacked (M, N, L) labels."""
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim not in (2, 3) or y.shape[-2] < 1:
        raise LossInputError("labels must be a non-empty 2-D matrix")
    n_pos = y.sum(axis=-2)
    n_neg = y.shape[-2] - n_pos
    return np.clip(n_neg / np.maximum(n_pos, 1.0), 1.0, 10.0)


def l1_penalty(A, lambda_l1: float) -> tuple[float, np.ndarray]:
    """lambda * sum of |off-diagonal| entries, and its subgradient; one value
    per model for a stacked (M, L, L) matrix.

    sign(0) = 0, so zero-initialized couplings feel no penalty pressure.
    """
    if lambda_l1 < 0:
        raise LossInputError(f"lambda_l1 must be >= 0, got {lambda_l1}")
    arr = np.asarray(A, dtype=np.float64)
    if arr.ndim not in (2, 3) or arr.shape[-1] != arr.shape[-2]:
        raise LossInputError(f"coupling matrix must be square, got {arr.shape}")
    off = zero_diag(arr.copy())
    value = lambda_l1 * np.abs(off).sum(axis=(-2, -1))
    grad = lambda_l1 * np.sign(off)
    return (float(value) if arr.ndim == 2 else value), grad
