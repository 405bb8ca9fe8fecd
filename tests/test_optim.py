import math

import numpy as np
import pytest

from coupled_labels.coupling import new_coupling
from coupled_labels.datamodel import ExperimentConfig, config_from_dict
from coupled_labels.losses import LossInputError
from coupled_labels.optim import (
    EmaState,
    ParamBuffer,
    Schedule,
    ScheduleError,
    adamw_step,
    clip_global_norm,
    ema_update,
    init_ema,
    init_optim,
    init_train_state,
    lr_at,
    train_step,
)
from coupled_labels.predictor import init_params


class TestSchedule:
    def test_endpoints(self):
        sched = Schedule(warmup_steps=10, total_steps=110)
        assert lr_at(sched, 110, 1.0) == pytest.approx(0.0, abs=1e-15)
        # progress 0.5 at t = 10 + 50
        assert lr_at(sched, 60, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_warmup_completes_at_full_rate(self):
        sched = Schedule(warmup_steps=10, total_steps=110)
        assert lr_at(sched, 9, 3e-4) == pytest.approx(3e-4, abs=1e-18)

    def test_continuity_at_warmup_boundary(self):
        sched = Schedule(warmup_steps=7, total_steps=50)
        assert lr_at(sched, 6, 1.0) == pytest.approx(1.0)
        assert lr_at(sched, 7, 1.0) == pytest.approx(1.0)

    def test_linear_ramp(self):
        sched = Schedule(warmup_steps=4, total_steps=20)
        np.testing.assert_allclose(
            [lr_at(sched, t, 1.0) for t in range(4)], [0.25, 0.5, 0.75, 1.0]
        )

    def test_out_of_range(self):
        sched = Schedule(warmup_steps=2, total_steps=10)
        with pytest.raises(ScheduleError):
            lr_at(sched, 11, 1.0)
        with pytest.raises(ScheduleError):
            lr_at(sched, -1, 1.0)

    def test_invalid_schedule(self):
        with pytest.raises(ScheduleError):
            Schedule(warmup_steps=5, total_steps=5)
        with pytest.raises(ScheduleError):
            Schedule(warmup_steps=0, total_steps=5)


class TestClip:
    def test_three_four_five(self):
        grads = {"g": np.array([3.0, 4.0])}
        clipped, norm = clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(clipped["g"], [0.6, 0.8], atol=1e-15)

    def test_small_norm_untouched(self):
        grads = {"g": np.array([0.3, 0.4])}
        clipped, norm = clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_array_equal(clipped["g"], [0.3, 0.4])

    def test_partition_invariance(self):
        # the same values split across two tensors scale identically to one
        one = {"a": np.array([1.0, 2.0, 3.0, 4.0])}
        two = {"x": np.array([1.0, 2.0]), "y": np.array([3.0, 4.0])}
        c1, n1 = clip_global_norm(one, 1.5)
        c2, n2 = clip_global_norm(two, 1.5)
        assert n1 == n2
        np.testing.assert_allclose(
            np.concatenate([c2["x"], c2["y"]]), c1["a"], atol=1e-15
        )

    def test_post_clip_norm_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            grads = {
                "a": rng.normal(size=(3, 4)) * rng.uniform(0.1, 10),
                "b": rng.normal(size=5) * rng.uniform(0.1, 10),
            }
            clipped, _ = clip_global_norm(grads, 1.0)
            post = math.sqrt(sum(float(np.sum(g * g)) for g in clipped.values()))
            assert post <= 1.0 + 1e-12

    def test_nonfinite_norm_signals_skip(self):
        grads = {"g": np.array([np.nan, 1.0])}
        _, norm = clip_global_norm(grads, 1.0)
        assert not math.isfinite(norm)


class TestAdamW:
    def test_zero_grad_zero_decay_is_identity(self):
        params = ParamBuffer.of({"w": np.array([1.0, -2.0])})
        state = init_optim(params, weight_decay=0.0)
        adamw_step(params, {"w": np.zeros(2)}, state, lr=1e-3)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_first_step_is_signed_lr(self):
        # from zero state, m_hat = g and v_hat = g^2, so the update is
        # -lr * g/(|g| + eps) ~ -lr * sign(g)
        g = np.array([2.0, -3.0, 0.5])
        params = ParamBuffer.of({"w": np.zeros(3)})
        state = init_optim(params, weight_decay=0.0)
        adamw_step(params, {"w": g.copy()}, state, lr=0.01)
        np.testing.assert_allclose(params["w"], -0.01 * np.sign(g), rtol=1e-6)

    def test_decay_only_closed_form(self):
        # weight matrices (2-D arrays) are decayed
        params = ParamBuffer.of({"w": np.array([[4.0, -8.0]])})
        initial = params["w"].copy()
        state = init_optim(params, weight_decay=0.1)
        for _ in range(5):
            adamw_step(params, {"w": np.zeros((1, 2))}, state, lr=0.05)
        np.testing.assert_allclose(
            params["w"], initial * (1.0 - 0.05 * 0.1) ** 5, rtol=1e-12
        )

    def test_biases_not_decayed(self):
        params = ParamBuffer.of({"w": np.array([[1.0]]), "b2": np.array([1.0])})
        state = init_optim(params, weight_decay=0.5)
        adamw_step(params, {"w": np.zeros((1, 1)), "b2": np.zeros(1)}, state, lr=0.1)
        assert params["w"][0, 0] == pytest.approx(1.0 - 0.1 * 0.5)
        assert params["b2"][0] == 1.0


class TestEma:
    def test_decay_zero_copies_params(self):
        ema = EmaState(shadow={"w": np.zeros(2)}, decay=0.0)
        ema_update(ema, {"w": np.array([3.0, -1.0])})
        np.testing.assert_array_equal(ema.shadow["w"], [3.0, -1.0])

    def test_geometric_closed_form_k10(self):
        rng = np.random.default_rng(1)
        shadow0 = rng.normal(size=4)
        param = rng.normal(size=4)
        d = 0.9
        ema = EmaState(shadow={"w": shadow0.copy()}, decay=d)
        for _ in range(10):
            ema_update(ema, {"w": param})
        expected = d ** 10 * shadow0 + (1.0 - d ** 10) * param
        np.testing.assert_allclose(ema.shadow["w"], expected, atol=1e-12)

    def test_single_step_tiny_decay(self):
        ema = EmaState(shadow={"w": np.zeros(1)}, decay=0.999)
        ema_update(ema, {"w": np.ones(1)})
        assert ema.shadow["w"][0] == pytest.approx(0.001, abs=1e-15)

    def test_decay_range(self):
        with pytest.raises(ScheduleError):
            EmaState(shadow={}, decay=1.0)


def build_state(cfg, n_features=6, n_labels=3, seed=0, refinement=True):
    rng = np.random.default_rng(seed)
    predictor = init_params(n_features, n_labels, rng)
    A = new_coupling(n_labels) if refinement else None
    schedule = Schedule(warmup_steps=5, total_steps=100)
    return init_train_state(predictor, A, schedule, cfg)


class TestTrainStep:
    def test_nan_injection_skips_update_bit_exactly(self):
        cfg = ExperimentConfig()
        state = build_state(cfg)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6))
        x[2, 1] = np.nan  # poisons the logits
        y = (rng.random((4, 3)) < 0.5).astype(float)
        params_before = {k: v.copy() for k, v in state.params.items()}
        ema_before = {k: v.copy() for k, v in state.ema.shadow.items()}
        entry = train_step(x, y, state, cfg)
        assert entry.skipped is True
        assert state.skips == 1
        assert state.step == 1  # schedule clock still advances
        for k, v in state.params.items():
            np.testing.assert_array_equal(v, params_before[k])
        for k, v in state.ema.shadow.items():
            np.testing.assert_array_equal(v, ema_before[k])

    def test_consecutive_skips_advance_clock(self):
        cfg = ExperimentConfig()
        state = build_state(cfg)
        x = np.full((2, 6), np.inf)
        y = np.zeros((2, 3))
        train_step(x, y, state, cfg)
        train_step(x, y, state, cfg)
        assert state.step == 2 and state.skips == 2

    def test_normal_step_updates_and_logs(self):
        cfg = ExperimentConfig()
        state = build_state(cfg)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 6))
        y = (rng.random((8, 3)) < 0.5).astype(float)
        before = state.params["W2"].copy()
        entry = train_step(x, y, state, cfg)
        assert entry.skipped is False
        assert math.isfinite(entry.loss) and math.isfinite(entry.grad_norm)
        assert not np.array_equal(state.params["W2"], before)
        assert np.all(np.diag(state.A[0]) == 0.0)
        assert len(state.logs[0]) == 1

    def test_loss_halves_on_separable_batch(self):
        # 50 steps at a workable lr on a linearly separable batch
        cfg = config_from_dict({"lr": 0.1, "lambda_l1": 0.0})
        state = build_state(cfg, n_features=2, n_labels=2, refinement=False)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(16, 2))
        y = np.stack([(x[:, 0] > 0), (x[:, 1] > 0)], axis=1).astype(float)
        first = train_step(x, y, state, cfg).loss
        last = first
        for _ in range(49):
            last = train_step(x, y, state, cfg).loss
        assert last < 0.5 * first

    def test_weighted_bce_path(self):
        cfg = config_from_dict({"loss_kind": "WeightedBCE"})
        state = build_state(cfg)
        state.pos_weight = np.array([1.0, 2.0, 10.0])
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 6))
        y = (rng.random((4, 3)) < 0.5).astype(float)
        entry = train_step(x, y, state, cfg)
        assert entry.skipped is False

    def test_weighted_bce_without_weights_raises(self):
        # the weights come from the fold's training rows, never from a batch
        cfg = config_from_dict({"loss_kind": "WeightedBCE"})
        state = build_state(cfg)
        assert state.pos_weight is None
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 6))
        y = (rng.random((4, 3)) < 0.5).astype(float)
        with pytest.raises(LossInputError):
            train_step(x, y, state, cfg)


class TestRefinementOffPath:
    def test_no_coupling_in_trainables(self):
        cfg = config_from_dict({"refinement_enabled": False})
        state = build_state(cfg, refinement=False)
        assert "A" not in state.params
        assert state.A is None
        assert "A" not in state.ema.shadow
