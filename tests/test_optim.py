import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from coupled_labels.coupling import new_coupling
from coupled_labels.datamodel import ExperimentConfig, config_from_dict
from coupled_labels.losses import LossInputError
from coupled_labels.optim import (
    ParamBuffer,
    Schedule,
    ScheduleError,
    TrainLog,
    TrainState,
    adamw_step,
    clip_global_norm,
    ema_update,
    init_train_state,
    lr_at,
    save_train_log,
    stack_states,
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


class TestParamBuffer:
    """Named views are made once per buffer and always view its own data."""

    def _buffer(self):
        return ParamBuffer.of({"W2": np.zeros((2, 3)), "b2": np.zeros(3)})

    def test_cached_views_see_in_place_updates(self):
        buf = self._buffer()
        stacked = buf.like(np.zeros((4, 9)))
        w2 = stacked["W2"]
        assert stacked["W2"] is w2 and w2.shape == (4, 2, 3)
        stacked.data += 1.0
        stacked.data[2, :6] = 5.0
        np.testing.assert_array_equal(w2[[0, 1, 3]], np.ones((3, 2, 3)))
        np.testing.assert_array_equal(w2[2], np.full((2, 3), 5.0))
        np.testing.assert_array_equal(stacked["b2"], np.ones((4, 3)))

    def test_like_and_pickle_view_the_new_data(self):
        buf = self._buffer()
        old = buf["W2"]
        fresh = buf.like(np.arange(9.0))
        assert np.shares_memory(fresh["W2"], fresh.data)
        assert not np.shares_memory(fresh["W2"], buf.data)
        np.testing.assert_array_equal(fresh["W2"], np.arange(6.0).reshape(2, 3))
        assert buf["W2"] is old
        back = pickle.loads(pickle.dumps(fresh))
        back.data *= 2.0
        np.testing.assert_array_equal(back["W2"], 2.0 * np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(fresh["W2"], np.arange(6.0).reshape(2, 3))

    def test_membership_tests_names(self):
        buf = self._buffer()
        assert "W2" in buf and "A" not in buf
        assert buf.get("A") is None and buf.get("b2") is buf["b2"]
        assert list(buf) == ["W2", "b2"] and len(buf) == 2


def one_model(arrays):
    return init_train_state(arrays, Schedule(warmup_steps=1, total_steps=2))


class TestAdamW:
    def test_zero_grad_zero_decay_is_identity(self):
        state = one_model({"w": np.array([1.0, -2.0])})
        adamw_step(state, {"w": np.zeros(2)}, lr=1e-3, weight_decay=0.0)
        np.testing.assert_array_equal(state.params["w"][0], [1.0, -2.0])

    def test_first_step_is_signed_lr(self):
        # from zero state, m_hat = g and v_hat = g^2, so the update is
        # -lr * g/(|g| + eps) ~ -lr * sign(g)
        g = np.array([2.0, -3.0, 0.5])
        state = one_model({"w": np.zeros(3)})
        adamw_step(state, {"w": g.copy()}, lr=0.01, weight_decay=0.0)
        np.testing.assert_allclose(state.params["w"][0], -0.01 * np.sign(g), rtol=1e-6)

    def test_decay_only_closed_form(self):
        # weight matrices (2-D arrays) are decayed
        state = one_model({"w": np.array([[4.0, -8.0]])})
        initial = state.params["w"][0].copy()
        for _ in range(5):
            adamw_step(state, {"w": np.zeros((1, 2))}, lr=0.05, weight_decay=0.1)
        np.testing.assert_allclose(
            state.params["w"][0], initial * (1.0 - 0.05 * 0.1) ** 5, rtol=1e-12
        )

    def test_biases_not_decayed(self):
        state = one_model({"w": np.array([[1.0]]), "b2": np.array([1.0])})
        adamw_step(state, {"w": np.zeros((1, 1)), "b2": np.zeros(1)}, lr=0.1,
                   weight_decay=0.5)
        assert state.params["w"][0][0, 0] == pytest.approx(1.0 - 0.1 * 0.5)
        assert state.params["b2"][0][0] == 1.0


class TestEma:
    def test_decay_zero_copies_params(self):
        state = one_model({"w": np.array([3.0, -1.0])})
        state.shadow[:] = 0.0
        ema_update(state, 0.0)
        np.testing.assert_array_equal(state.shadow[0], [3.0, -1.0])

    def test_geometric_closed_form_k10(self):
        rng = np.random.default_rng(1)
        shadow0 = rng.normal(size=4)
        param = rng.normal(size=4)
        d = 0.9
        state = one_model({"w": param})
        state.shadow[0] = shadow0
        for _ in range(10):
            ema_update(state, d)
        expected = d ** 10 * shadow0 + (1.0 - d ** 10) * param
        np.testing.assert_allclose(state.shadow[0], expected, atol=1e-12)

    def test_single_step_tiny_decay(self):
        state = one_model({"w": np.ones(1)})
        state.shadow[:] = 0.0
        ema_update(state, 0.999)
        assert state.shadow[0, 0] == pytest.approx(0.001, abs=1e-15)


def _same(a, b) -> bool:
    if isinstance(a, ParamBuffer):
        return a.shapes == b.shapes and _same(a.data, b.data)
    if isinstance(a, TrainLog):
        return all(_same(x, y) for x, y in zip(vars(a).values(), vars(b).values()))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def _bumped(a: np.ndarray) -> np.ndarray:
    return ~a if a.dtype == bool else a + 1


class TestStateStacking:
    """`select` and `stack_states` act on every field of a TrainState."""

    def _state(self, i):
        model = {"W2": np.full((2, 3), 10.0 * i), "b2": np.full(3, 10.0 * i + 1.0),
                 "A": np.full((3, 3), 10.0 * i + 2.0)}
        state = init_train_state(model, Schedule(warmup_steps=i + 1, total_steps=i + 5),
                                 pos_weight=np.full(3, i + 0.5))
        state.m[:] = i + 0.1
        state.v[:] = i + 0.2
        state.shadow[:] = i + 0.3
        state.t[:] = 100 + i
        state.steps[:] = 1
        state.log.lr[0, 0], state.log.loss[0, 0] = 0.1 * i, float(i)
        state.log.grad_norm[0, 0], state.log.skipped[0, 0] = 1.0, bool(i % 2)
        return state

    def test_select_and_stack_round_trip(self):
        states = [self._state(i) for i in range(3)]
        alone = copy.deepcopy(states)
        stack = stack_states(states)
        parts = [stack.select(slice(i, i + 1)) for i in range(3)]
        back = stack_states(parts)
        for f in dataclasses.fields(TrainState):
            for i, part in enumerate(parts):
                if f.name != "log":
                    assert _same(getattr(part, f.name), getattr(alone[i], f.name)), (f.name, i)
            assert _same(getattr(back, f.name), getattr(stack, f.name)), f.name
        # log rows of schedules 5, 6 and 7 steps long, padded to the longest
        assert stack.log.lr.shape == (3, 8)
        for i, part in enumerate(parts):
            for mine, own in zip(vars(part.log).values(), vars(alone[i].log).values()):
                np.testing.assert_array_equal(mine[:, :own.shape[1]], own)
                assert not mine[:, own.shape[1]:].any()
            assert _same(part.log_of(0), alone[i].log_of(0))

    @staticmethod
    def _arrays(state):
        names = ("m", "v", "shadow", "t", "pos_weight", "steps")
        return {"params": state.params.data, **{n: getattr(state, n) for n in names},
                **{f"log.{n}": column for n, column in vars(state.log).items()}}

    def test_selection_writes_reach_the_stack(self):
        stack = stack_states([self._state(i) for i in range(3)])
        before = self._arrays(copy.deepcopy(stack))
        part = stack.select(slice(1, 2))
        for name in part.params:   # through the named views
            part.params[name][...] += 1.0
        for name, value in self._arrays(part).items():
            if name != "params":
                value[...] = _bumped(value)
        for name, value in self._arrays(stack).items():
            np.testing.assert_array_equal(value[1], _bumped(before[name][1]), err_msg=name)
            np.testing.assert_array_equal(value[[0, 2]], before[name][[0, 2]], err_msg=name)
        assert part.schedules[0] is stack.schedules[1]


def build_state(cfg, n_features=6, n_labels=3, seed=0, refinement=True):
    rng = np.random.default_rng(seed)
    model = init_params(n_features, n_labels, rng)
    if refinement:
        model["A"] = new_coupling(n_labels)
    schedule = Schedule(warmup_steps=5, total_steps=100)
    return init_train_state(model, schedule)


class TestTrainStep:
    def test_nan_injection_skips_update_bit_exactly(self):
        cfg = ExperimentConfig()
        state = build_state(cfg)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6))
        x[2, 1] = np.nan  # poisons the logits
        y = (rng.random((4, 3)) < 0.5).astype(float)
        params_before = {k: v.copy() for k, v in state.params.items()}
        ema_before = state.shadow.copy()
        train_step(x[None], y[None], state, cfg)
        assert state.log_of(0).skipped.tolist() == [True]
        assert state.steps[0] == 1  # schedule clock still advances
        for k, v in state.params.items():
            np.testing.assert_array_equal(v, params_before[k])
        np.testing.assert_array_equal(state.shadow, ema_before)

    def test_consecutive_skips_advance_clock(self):
        cfg = ExperimentConfig()
        state = build_state(cfg)
        x = np.full((2, 6), np.inf)
        y = np.zeros((2, 3))
        train_step(x[None], y[None], state, cfg)
        train_step(x[None], y[None], state, cfg)
        assert state.steps[0] == 2 and state.log_of(0).skipped.tolist() == [True, True]

    def test_normal_step_updates_and_logs(self):
        cfg = ExperimentConfig()
        state = build_state(cfg)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 6))
        y = (rng.random((8, 3)) < 0.5).astype(float)
        before = state.params["W2"].copy()
        train_step(x[None], y[None], state, cfg)
        log = state.log_of(0)
        assert log.skipped.tolist() == [False]
        assert math.isfinite(log.loss[0]) and math.isfinite(log.grad_norm[0])
        assert not np.array_equal(state.params["W2"], before)
        assert np.all(np.diag(state.params["A"][0]) == 0.0)
        assert state.steps[0] == 1

    def test_loss_halves_on_separable_batch(self):
        # 50 steps at a workable lr on a linearly separable batch
        cfg = config_from_dict({"lr": 0.1, "lambda_l1": 0.0})
        state = build_state(cfg, n_features=2, n_labels=2, refinement=False)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(16, 2))
        y = np.stack([(x[:, 0] > 0), (x[:, 1] > 0)], axis=1).astype(float)
        for _ in range(50):
            train_step(x[None], y[None], state, cfg)
        first, last = state.log.loss[0, 0], state.log.loss[0, 49]
        assert last < 0.5 * first

    def test_weighted_bce_path(self):
        cfg = config_from_dict({"loss_kind": "WeightedBCE"})
        state = build_state(cfg)
        state.pos_weight = np.array([1.0, 2.0, 10.0])
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 6))
        y = (rng.random((4, 3)) < 0.5).astype(float)
        train_step(x[None], y[None], state, cfg)
        assert state.log_of(0).skipped.tolist() == [False]

    def test_weighted_bce_without_weights_raises(self):
        # the weights come from the fold's training rows, never from a batch
        cfg = config_from_dict({"loss_kind": "WeightedBCE"})
        state = build_state(cfg)
        assert state.pos_weight is None
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 6))
        y = (rng.random((4, 3)) < 0.5).astype(float)
        with pytest.raises(LossInputError):
            train_step(x[None], y[None], state, cfg)


class TestCouplingDiagonal:
    @pytest.mark.parametrize("lambda_l1", [3e-3, 0.0])
    def test_stays_positive_zero(self, lambda_l1):
        # three stacked models with weight decay, one skipping mid-run: A's
        # diagonal and its EMA shadow stay bit-exactly +0.0, through the
        # all-stepping and the mixed-skip updates alike
        cfg = config_from_dict({"lr": 0.05, "weight_decay": 0.1, "ema_decay": 0.9,
                                "lambda_l1": lambda_l1})
        rng = np.random.default_rng(8)
        states = []
        for seed in range(3):
            model = init_params(4, 3, np.random.default_rng(seed))
            A = rng.normal(size=(3, 3))
            np.fill_diagonal(A, 0.0)
            model["A"] = A
            states.append(init_train_state(model, Schedule(warmup_steps=2, total_steps=20)))
        state = stack_states(states)
        x = rng.normal(size=(3, 6, 4))
        y = (rng.random((3, 6, 3)) < 0.5).astype(float)
        y[:, 0], y[:, 1] = 1.0, 0.0
        for step in range(12):
            xb = x.copy()
            if step == 5:
                xb[1, 2, 0] = np.nan
            train_step(xb, y, state, cfg)
        assert state.log.skipped.sum(axis=1).tolist() == [0, 1, 0]
        i = np.arange(3)
        for A in (state.params["A"], state.params.like(state.shadow)["A"]):
            assert np.any(A != 0.0)
            assert (A[:, i, i].view(np.uint64) == 0).all()


class TestRefinementOffPath:
    def test_no_coupling_in_trainables(self):
        cfg = config_from_dict({"refinement_enabled": False})
        state = build_state(cfg, refinement=False)
        assert "A" not in state.params
        assert state.params.get("A") is None
        # the shadow has the parameters' layout, so it holds no coupling either
        assert state.shadow.shape == state.params.data.shape == (1, 6 * 3 + 3)


class TestTrainLogCsv:
    def test_bytes(self, tmp_path):
        # repr floats, a skipped step's nan grad norm as `nan`, `\r\n` ends
        path = tmp_path / "log.csv"
        save_train_log(TrainLog(lr=np.array([1e-4, 2e-4]), loss=np.array([0.1 + 0.2, 0.7]),
                                grad_norm=np.array([2.5, math.nan]),
                                skipped=np.array([False, True])), path)
        assert path.read_bytes() == (b"step,lr,loss,grad_norm,skipped\r\n"
                                     b"0,0.0001,0.30000000000000004,2.5,0\r\n"
                                     b"1,0.0002,0.7,nan,1\r\n")
