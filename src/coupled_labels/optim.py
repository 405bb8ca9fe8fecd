"""Training mechanics: decoupled-weight-decay Adam, per-step cosine schedule
with a one-epoch linear warm-up, global-norm gradient clipping, an EMA shadow
of every trainable (coupling matrix included), and non-finite-step skipping.

The trainables of M models live in one float64 (M, P) buffer, a row per
model, with named views `W2`, `b2` and, for a refined model, `A`; the Adam
moments and the EMA shadow are buffers of the same layout. Each update is
then a few vector operations whatever M is, and `train_step` advances M
models by one batch each with one pass through the layer functions. Every
model computes exactly what it would compute alone: it keeps its own
schedule, Adam clock and log.

A skipped step still advances the schedule clock so total_steps keeps its
meaning; parameters, moments and EMA are left untouched.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import losses
from .coupling import refine_backward, refine_forward, zero_diag
from .datamodel import CoupledLabelsError, ExperimentConfig
from .predictor import PredictorParams, predict_backward, predict_forward


class ScheduleError(CoupledLabelsError):
    pass


@dataclass(frozen=True)
class Schedule:
    warmup_steps: int
    total_steps: int

    def __post_init__(self):
        if not 0 < self.warmup_steps < self.total_steps:
            raise ScheduleError(
                f"need 0 < warmup_steps < total_steps, got {self.warmup_steps}/{self.total_steps}"
            )


def lr_at(sched: Schedule, t: int, peak_lr: float) -> float:
    """Linear ramp to peak_lr over the warm-up, then cosine decay to zero."""
    if not 0 <= t <= sched.total_steps:
        raise ScheduleError(f"step {t} outside [0, {sched.total_steps}]")
    if t < sched.warmup_steps:
        return peak_lr * (t + 1) / sched.warmup_steps
    progress = (t - sched.warmup_steps) / (sched.total_steps - sched.warmup_steps)
    return peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


class ParamBuffer(Mapping):
    """Named views into a float64 buffer whose last axis holds one model's
    arrays back to back, in insertion order; leading axes index models."""

    def __init__(self, data: np.ndarray, shapes: dict[str, tuple[int, ...]]):
        self.data = data
        self.shapes = shapes
        ends = np.cumsum([math.prod(shape) for shape in shapes.values()], dtype=int).tolist()
        self.bounds = dict(zip(shapes, zip([0] + ends[:-1], ends)))
        # weight matrices decay, biases do not
        self.decayed = np.zeros(data.shape[-1], dtype=bool)
        for name, (lo, hi) in self.bounds.items():
            self.decayed[lo:hi] = len(shapes[name]) == 2

    @classmethod
    def of(cls, arrays: Mapping) -> "ParamBuffer":
        """One model's named arrays copied into a buffer (a buffer as is)."""
        if isinstance(arrays, ParamBuffer):
            return arrays
        parts = [np.asarray(a, dtype=np.float64).ravel() for a in arrays.values()]
        return cls(np.concatenate(parts) if parts else np.zeros(0),
                   {k: np.shape(a) for k, a in arrays.items()})

    def like(self, data: np.ndarray) -> "ParamBuffer":
        """Another buffer with this layout."""
        other = copy.copy(self)
        other.data = data
        return other

    def __getitem__(self, name: str) -> np.ndarray:
        lo, hi = self.bounds[name]
        return self.data[..., lo:hi].reshape(self.data.shape[:-1] + self.shapes[name])

    def __iter__(self):
        return iter(self.shapes)

    def __len__(self) -> int:
        return len(self.shapes)


def clip_global_norm(grads: Mapping, max_norm: float) -> tuple[ParamBuffer, float | np.ndarray]:
    """Scale each model's gradients so their joint L2 norm is at most max_norm.

    Returns the gradients as a buffer and the observed pre-clip norm, one per
    model for a stacked buffer; a non-finite norm leaves that model's
    gradients untouched and signals the caller to skip its step.
    """
    if max_norm <= 0:
        raise ScheduleError(f"max_norm must be > 0, got {max_norm}")
    grads = ParamBuffer.of(grads)
    sq = np.square(grads.data)
    # Sum each array, then add the sums in order: one pairwise sum over the
    # whole row would round differently from the per-array norms.
    total = np.zeros(sq.shape[:-1])
    for lo, hi in grads.bounds.values():
        total += sq[..., lo:hi].sum(axis=-1)
    norm = np.sqrt(total)
    clip = np.isfinite(norm) & (norm > max_norm)
    grads.data *= np.divide(max_norm, norm, out=np.ones_like(norm), where=clip)[..., None]
    return grads, (float(norm) if norm.ndim == 0 else norm)


@dataclass
class OptimState:
    t: np.ndarray              # Adam clock, one per model
    m: ParamBuffer
    v: ParamBuffer
    weight_decay: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_optim(params: Mapping, weight_decay: float) -> OptimState:
    params = ParamBuffer.of(params)
    return OptimState(
        t=np.zeros(params.data.shape[:-1], dtype=np.int64),
        m=params.like(np.zeros_like(params.data)),
        v=params.like(np.zeros_like(params.data)),
        weight_decay=weight_decay,
    )


def adamw_step(params: ParamBuffer, grads: Mapping, state: OptimState, lr) -> None:
    """Standard decoupled update, in place on the live parameter buffer.

    `lr` is one rate or one per model. Weight matrices decay, biases do not.
    """
    g = ParamBuffer.of(grads).data
    p, m, v = params.data, state.m.data, state.v.data
    column = p.shape[:-1] + (1,)   # one value per model, broadcast along its row
    state.t += 1
    # Python float powers: np.power rounds beta ** t differently for some t.
    clock = np.atleast_1d(state.t).tolist()
    bc1 = np.reshape([1.0 - state.beta1 ** t for t in clock], column)
    bc2 = np.reshape([1.0 - state.beta2 ** t for t in clock], column)
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * np.square(g)
    update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    update += (state.weight_decay * params.decayed) * p
    p -= (np.reshape(lr, column) if np.ndim(lr) else lr) * update


@dataclass
class EmaState:
    shadow: ParamBuffer
    decay: float

    def __post_init__(self):
        # decay 0 is the degenerate "shadow tracks params exactly" case
        if not 0.0 <= self.decay < 1.0:
            raise ScheduleError(f"ema decay must lie in [0, 1), got {self.decay}")
        self.shadow = ParamBuffer.of(self.shadow)


def init_ema(params: Mapping, decay: float) -> EmaState:
    params = ParamBuffer.of(params)
    return EmaState(shadow=params.like(params.data.copy()), decay=decay)


def ema_update(ema: EmaState, params: Mapping) -> EmaState:
    s = ema.shadow.data
    s *= ema.decay
    s += (1.0 - ema.decay) * ParamBuffer.of(params).data
    return ema


# ---------------------------------------------------------------------------
# full training step
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class StepLog:
    step: int
    lr: float
    loss: float
    grad_norm: float
    skipped: bool


@dataclass
class TrainState:
    """Everything the training of M models mutates, one buffer row or list
    entry per model: the live trainables (`predictor` and the coupling
    matrix `A`, None without refinement, are views into `params`), Adam
    moments, EMA shadow, schedule, the schedule clock `step`, the skip
    count and the step log."""

    params: ParamBuffer
    predictor: PredictorParams
    A: np.ndarray | None
    opt: OptimState
    ema: EmaState
    schedules: list[Schedule]
    pos_weight: np.ndarray | None       # (M, L)
    step: np.ndarray                    # (M,)
    skips: np.ndarray                   # (M,)
    logs: list[list[StepLog]]

    def select(self, rows: slice) -> "TrainState":
        """The models at `rows`, sharing this state's buffers, clocks and logs."""
        return _assemble(self, *(None if f is None else f[rows] for f in _model_fields(self)))

    def ema_snapshot(self, row: int) -> tuple[PredictorParams, np.ndarray | None]:
        """A copy of model `row`'s EMA weights as a predictor and coupling."""
        shadow = self.ema.shadow
        snapshot = shadow.like(shadow.data[row].copy())
        return _bind(snapshot), snapshot.get("A")


def _model_fields(s: TrainState) -> tuple:
    """The per-model fields of a state, in `_assemble`'s argument order."""
    return (s.params.data, s.opt.t, s.opt.m.data, s.opt.v.data, s.ema.shadow.data,
            s.schedules, s.pos_weight, s.step, s.skips, s.logs)


def _bind(params: ParamBuffer) -> PredictorParams:
    """The predictor viewing `params`."""
    return PredictorParams(W2=params["W2"], b2=params["b2"])


def _assemble(proto: TrainState, params, t, m, v, shadow, schedules, pos_weight, step,
              skips, logs) -> TrainState:
    params = proto.params.like(params)
    return TrainState(
        params=params, predictor=_bind(params), A=params.get("A"),
        opt=dataclasses.replace(proto.opt, t=t, m=params.like(m), v=params.like(v)),
        ema=dataclasses.replace(proto.ema, shadow=params.like(shadow)),
        schedules=schedules, pos_weight=pos_weight, step=step, skips=skips, logs=logs,
    )


def stack_states(states: list[TrainState]) -> TrainState:
    """One state holding the models of `states` in order. Buffers and clocks
    are copied; schedules and logs are shared."""
    def merged(parts):
        if parts[0] is None:
            return None
        if isinstance(parts[0], np.ndarray):
            return np.concatenate(parts)
        return [x for part in parts for x in part]

    return _assemble(states[0], *map(merged, zip(*map(_model_fields, states))))


def init_train_state(predictor: PredictorParams, A: np.ndarray | None,
                     schedule: Schedule, cfg: ExperimentConfig,
                     pos_weight: np.ndarray | None = None) -> TrainState:
    """A one-model state starting from copies of `predictor` and the
    coupling matrix `A` (None: no refinement)."""
    arrays = dict(predictor.trainable())
    if A is not None:
        arrays["A"] = A
    row = ParamBuffer.of(arrays)
    params = row.like(row.data[None])
    return TrainState(
        params=params,
        predictor=_bind(params),
        A=params.get("A"),
        opt=init_optim(params, cfg.weight_decay),
        ema=init_ema(params, cfg.ema_decay),
        schedules=[schedule],
        pos_weight=None if pos_weight is None else np.asarray(pos_weight)[None],
        step=np.zeros(1, dtype=np.int64),
        skips=np.zeros(1, dtype=np.int64),
        logs=[[]],
    )


def _supervised_loss(z, y, cfg: ExperimentConfig, pos_weight) -> losses.LossOutput:
    if cfg.loss_kind == "ASL":
        return losses.asl_loss(z, y, gamma_pos=cfg.asl.gamma_pos,
                               gamma_neg=cfg.asl.gamma_neg, clip=cfg.asl.clip)
    return losses.weighted_bce_loss(z, y, pos_weight)


def train_step(x, y, state: TrainState, cfg: ExperimentConfig):
    """One optimization step for each of the state's M models, each on its
    own batch: x (M, B, D) and y (M, B, L), or x (B, D) and y (B, L) when
    M = 1. A model whose loss or any gradient is non-finite skips its
    update entirely. Returns one StepLog per model, or the StepLog itself
    for 2-D input."""
    single = np.ndim(x) == 2
    if single:
        x, y = np.asarray(x)[None], np.asarray(y)[None]
    lr = np.array([lr_at(sched, t, cfg.lr)
                   for sched, t in zip(state.schedules, state.step.tolist())])
    z, pcache = predict_forward(x, state.predictor)
    if state.A is not None:
        z_ref, ccache = refine_forward(z, state.A, cfg.alpha)
        l1_value, l1_grad = losses.l1_penalty(state.A, cfg.lambda_l1)
    else:
        z_ref, ccache = z, None
        l1_value, l1_grad = 0.0, None

    sup = _supervised_loss(z_ref, y, cfg, state.pos_weight)
    total = sup.value + l1_value

    ok = sup.is_finite & np.isfinite(total)
    grad_norm = np.full(ok.shape, math.nan)
    if ok.any():
        # models already skipping may hold non-finite values from here on
        with np.errstate(invalid="ignore", over="ignore"):
            if state.A is not None:
                grad_z, grad_A = refine_backward(sup.grad_logits, ccache, state.A, cfg.alpha)
                grad_A = grad_A + l1_grad
            else:
                grad_z = sup.grad_logits
            grads = predict_backward(grad_z, pcache, state.predictor)
            if state.A is not None:
                grads["A"] = grad_A
            grads = state.params.like(np.concatenate(
                [grads[k].reshape(ok.shape + (-1,)) for k in state.params], axis=-1))
            grads, norm = clip_global_norm(grads, cfg.grad_clip_norm)
        grad_norm = np.where(ok, norm, math.nan)
        ok &= np.isfinite(norm)
        if ok.all():
            _update(state, grads, lr)
        else:
            # a mix of stepping and skipping models: step them one at a time
            for r in np.flatnonzero(ok):
                rows = slice(r, r + 1)
                _update(state.select(rows), grads.like(grads.data[rows]), lr[rows])

    entries = [
        StepLog(step=t, lr=r, loss=v, grad_norm=g, skipped=not k)
        for t, r, v, g, k in zip(state.step.tolist(), lr.tolist(), total.tolist(),
                                 grad_norm.tolist(), ok.tolist())
    ]
    for log, entry in zip(state.logs, entries):
        log.append(entry)
    state.step += 1
    state.skips += ~ok
    return entries[0] if single else entries


def _update(state: TrainState, grads: ParamBuffer, lr: np.ndarray) -> None:
    adamw_step(state.params, grads, state.opt, lr)
    if state.A is not None:
        zero_diag(state.A)
    ema_update(state.ema, state.params)


def save_train_log(log: list[StepLog], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "lr", "loss", "grad_norm", "skipped"])
        for e in log:
            writer.writerow([e.step, repr(e.lr), repr(e.loss), repr(e.grad_norm), int(e.skipped)])
