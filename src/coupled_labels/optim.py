"""Training mechanics: decoupled-weight-decay Adam, per-step cosine schedule
with a one-epoch linear warm-up, global-norm gradient clipping, an EMA shadow
of every trainable (coupling matrix included), and non-finite-step skipping.

The trainables of M models live in one float64 (M, P) buffer, a row per
model, with named views `W2`, `b2` and, for a refined model, `A`; the Adam
moments and the EMA shadow are plain (M, P) arrays of the same layout. Each
update is then a few vector operations whatever M is, and `train_step`
advances M models by one batch each with one pass through the layer
functions. Every model computes exactly what it would compute alone: it
keeps its own schedule, Adam clock and log. A model's log is a row of
preallocated columns with room for its whole schedule, and the count of
entries filled in that row is its schedule clock; a step writes four
values per model into the columns. The state holds only what
training mutates; every config scalar (`lr`, `weight_decay`, `ema_decay`,
`alpha`, `lambda_l1`, `grad_clip_norm`) is read from the config at each step.

A skipped step still fills its log entry, so it advances the model's
schedule clock, and leaves its parameters, moments and EMA untouched.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import losses
from .coupling import refine_backward, refine_forward
from .datamodel import CoupledLabelsError, ExperimentConfig, write_csv
from .predictor import predict_backward, predict_forward


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
    arrays back to back, in insertion order; leading axes index models.
    The views are made once per buffer and see in-place updates of `data`."""

    def __init__(self, data: np.ndarray, shapes: dict[str, tuple[int, ...]]):
        self.data = data
        self.shapes = shapes
        ends = np.cumsum([math.prod(shape) for shape in shapes.values()], dtype=int).tolist()
        self.bounds = dict(zip(shapes, zip([0] + ends[:-1], ends)))
        # weight matrices decay, biases do not
        self.decayed = np.zeros(data.shape[-1], dtype=bool)
        for name, (lo, hi) in self.bounds.items():
            self.decayed[lo:hi] = len(shapes[name]) == 2
        self._views = {}

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

    def __getstate__(self) -> dict:
        # a copy or an unpickled buffer views its own data, not this one's
        return {**self.__dict__, "_views": {}}

    def __getitem__(self, name: str) -> np.ndarray:
        view = self._views.get(name)
        if view is None:
            lo, hi = self.bounds[name]
            view = self._views[name] = self.data[..., lo:hi].reshape(
                self.data.shape[:-1] + self.shapes[name])
        return view

    def __contains__(self, name) -> bool:
        return name in self.shapes

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


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # Adam's moment decays and denominator offset


def adamw_step(state: TrainState, grads: Mapping, lr, weight_decay: float) -> None:
    """Standard decoupled update, in place on the state's parameters and
    Adam moments.

    `lr` is one rate or one per model. Weight matrices decay, biases do not.
    """
    g = ParamBuffer.of(grads).data
    p, m, v = state.params.data, state.m, state.v
    column = p.shape[:-1] + (1,)   # one value per model, broadcast along its row
    state.t += 1
    # Python float powers: np.power rounds beta ** t differently for some t.
    clock = np.atleast_1d(state.t).tolist()
    bc1 = np.reshape([1.0 - BETA1 ** t for t in clock], column)
    bc2 = np.reshape([1.0 - BETA2 ** t for t in clock], column)
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * np.square(g)
    update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
    update += (weight_decay * state.params.decayed) * p
    p -= (np.reshape(lr, column) if np.ndim(lr) else lr) * update


def ema_update(state: TrainState, decay: float) -> None:
    """Move the EMA shadow toward the live parameters, in place."""
    s = state.shadow
    s *= decay
    s += (1.0 - decay) * state.params.data


# ---------------------------------------------------------------------------
# full training step
# ---------------------------------------------------------------------------


@dataclass
class TrainLog:
    """Training-log columns, an entry per step: the learning rate, the
    total loss, the pre-clip gradient norm (NaN where none was computed)
    and whether the step was skipped. In a `TrainState` each column is
    (M, T), a row per model; a finished model's log is (steps,) columns."""

    lr: np.ndarray          # float64
    loss: np.ndarray        # float64
    grad_norm: np.ndarray   # float64
    skipped: np.ndarray     # bool

    @classmethod
    def empty(cls, shape: tuple[int, ...]) -> "TrainLog":
        return cls(np.zeros(shape), np.zeros(shape), np.zeros(shape), np.zeros(shape, dtype=bool))


@dataclass
class TrainState:
    """Everything the training of M models mutates, one buffer row or list
    entry per model. Only `params` has named views (`W2`, `b2` and, for
    refined models, `A`); the Adam moments `m`, `v` and the EMA `shadow` are
    plain (M, P) arrays in its layout."""

    params: ParamBuffer
    m: np.ndarray
    v: np.ndarray
    shadow: np.ndarray
    t: np.ndarray                       # (M,) Adam clock
    pos_weight: np.ndarray | None       # (M, L)
    schedules: list[Schedule]
    log: TrainLog                       # (M, T) columns
    steps: np.ndarray                   # (M,) entries filled in each log row: the schedule clock

    def select(self, rows: slice) -> "TrainState":
        """The models at `rows`, sharing this state's buffers, clocks and log."""
        return TrainState(**{f.name: _rows(getattr(self, f.name), rows)
                             for f in dataclasses.fields(TrainState)})

    def ema_snapshot(self, row: int) -> ParamBuffer:
        """A copy of model `row`'s EMA weights: one model."""
        return self.params.like(self.shadow[row].copy())

    def log_of(self, row: int) -> TrainLog:
        """A copy of model `row`'s log, cut to the steps it has taken."""
        n = self.steps[row]
        return TrainLog(*(column[row, :n].copy() for column in vars(self.log).values()))


def _rows(value, rows: slice):
    if isinstance(value, ParamBuffer):
        return value.like(value.data[rows])
    if isinstance(value, TrainLog):
        return TrainLog(*(column[rows] for column in vars(value).values()))
    return None if value is None else value[rows]


def _joined(parts: list):
    first = parts[0]
    if first is None:
        return None
    if isinstance(first, ParamBuffer):
        return first.like(np.concatenate([part.data for part in parts]))
    if isinstance(first, TrainLog):
        # rows of different schedule lengths, padded to the longest
        width = max(part.lr.shape[1] for part in parts)
        return TrainLog(*(np.concatenate([np.pad(c, ((0, 0), (0, width - c.shape[1])))
                                          for c in columns])
                          for columns in zip(*(vars(part).values() for part in parts))))
    if isinstance(first, np.ndarray):
        return np.concatenate(parts)
    return [x for part in parts for x in part]


def stack_states(states: list[TrainState]) -> TrainState:
    """One state holding the models of `states` in order. Buffers, clocks
    and logs are copied; schedules are shared."""
    return TrainState(**{f.name: _joined([getattr(s, f.name) for s in states])
                         for f in dataclasses.fields(TrainState)})


def init_train_state(model: Mapping, schedule: Schedule,
                     pos_weight: np.ndarray | None = None) -> TrainState:
    """A one-model state starting from a copy of `model` (`W2`, `b2` and,
    for refinement, `A`), with log room for every step `lr_at` accepts."""
    row = ParamBuffer.of(model)
    params = row.like(row.data[None].copy())
    return TrainState(
        params=params,
        m=np.zeros_like(params.data),
        v=np.zeros_like(params.data),
        shadow=params.data.copy(),
        t=np.zeros(1, dtype=np.int64),
        pos_weight=None if pos_weight is None else np.asarray(pos_weight)[None],
        schedules=[schedule],
        log=TrainLog.empty((1, schedule.total_steps + 1)),
        steps=np.zeros(1, dtype=np.int64),
    )


def _supervised_loss(z, y, cfg: ExperimentConfig, pos_weight) -> losses.LossOutput:
    if cfg.loss_kind == "ASL":
        return losses.asl_loss(z, y, gamma_pos=cfg.asl.gamma_pos,
                               gamma_neg=cfg.asl.gamma_neg, clip=cfg.asl.clip)
    return losses.weighted_bce_loss(z, y, pos_weight)


def train_step(x, y, state: TrainState, cfg: ExperimentConfig) -> None:
    """One optimization step for each of the state's M models, each on its
    own batch: x (M, B, D) and y (M, B, L). A model whose loss or any
    gradient is non-finite skips its update entirely. Each model's step
    fills the next entry of its log row."""
    steps = state.steps
    lr = np.array([lr_at(sched, t, cfg.lr) for sched, t in zip(state.schedules, steps.tolist())])
    A = state.params["A"] if "A" in state.params else None
    z, pcache = predict_forward(x, state.params)
    if A is not None:
        z_ref, ccache = refine_forward(z, A, cfg.alpha)
        l1_value, l1_grad = losses.l1_penalty(A, cfg.lambda_l1)
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
            if A is not None:
                grad_z, grad_A = refine_backward(sup.grad_logits, ccache, A, cfg.alpha)
                grad_A = grad_A + l1_grad
            else:
                grad_z = sup.grad_logits
            grads = predict_backward(grad_z, pcache, state.params)
            if A is not None:
                grads["A"] = grad_A
            grads = state.params.like(np.concatenate(
                [grads[k].reshape(ok.shape + (-1,)) for k in state.params], axis=-1))
            grads, norm = clip_global_norm(grads, cfg.grad_clip_norm)
        grad_norm = np.where(ok, norm, math.nan)
        ok &= np.isfinite(norm)
        if ok.all():
            _update(state, grads, lr, cfg)
        else:
            # a mix of stepping and skipping models: step them one at a time
            for r in np.flatnonzero(ok):
                rows = slice(r, r + 1)
                _update(state.select(rows), grads.like(grads.data[rows]), lr[rows], cfg)

    at = (np.arange(steps.size), steps)
    state.log.lr[at] = lr
    state.log.loss[at] = total
    state.log.grad_norm[at] = grad_norm
    state.log.skipped[at] = ~ok
    steps += 1


def _update(state: TrainState, grads: ParamBuffer, lr: np.ndarray,
            cfg: ExperimentConfig) -> None:
    adamw_step(state, grads, lr, cfg.weight_decay)
    ema_update(state, cfg.ema_decay)


def save_train_log(log: TrainLog, path) -> None:
    """One row per step of a one-model log, its index as `step`."""
    write_csv(path, ["step", "lr", "loss", "grad_norm", "skipped"],
              ([t, repr(r), repr(v), repr(g), int(k)] for t, (r, v, g, k)
               in enumerate(zip(*(column.tolist() for column in vars(log).values())))))
