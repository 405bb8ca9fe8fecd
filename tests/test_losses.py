import math

import numpy as np
import pytest

from coupled_labels.losses import (
    LossInputError,
    asl_loss,
    compute_pos_weights,
    l1_penalty,
    weighted_bce_loss,
)
from helpers import central_diff, max_rel_err


def plain_bce(z, y):
    # independent reference: mean of -[y log p + (1-y) log(1-p)]
    p = 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))
    return float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p))))


def random_batch(rng, n=None, l=None, lo=-4.0, hi=4.0):
    n = n or int(rng.integers(1, 9))
    l = l or int(rng.integers(1, 7))
    z = rng.uniform(lo, hi, size=(n, l))
    y = (rng.random((n, l)) < 0.5).astype(np.float64)
    return z, y


class TestAslLoss:
    def test_reduces_to_bce(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            z, y = random_batch(rng)
            out = asl_loss(z, y, gamma_pos=0.0, gamma_neg=0.0, clip=0.0)
            assert abs(out.value - plain_bce(z, y)) < 1e-12

    def test_hand_value_positive_entry(self):
        out = asl_loss(np.array([[0.0]]), np.array([[1.0]]), gamma_pos=0.0)
        assert out.value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_hand_value_negative_entry(self):
        # p = 0.5, p_m = 0.45: loss = -0.45^4 * log(0.55)
        out = asl_loss(np.array([[0.0]]), np.array([[0.0]]),
                       gamma_pos=0.0, gamma_neg=4.0, clip=0.05)
        expected = -(0.45 ** 4) * math.log(0.55)
        assert out.value == pytest.approx(expected, abs=1e-12)
        fd = central_diff(
            lambda z: asl_loss(z, np.array([[0.0]]), 0.0, 4.0, 0.05).value,
            np.array([[0.0]]),
        )
        assert max_rel_err(out.grad_logits, fd) < 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20):
            z, y = random_batch(rng)
            # keep entries off the clip kink at sigma(z) = 0.05
            z = np.where(np.abs(z - np.log(0.05 / 0.95)) < 1e-3, z + 0.01, z)
            out = asl_loss(z, y, gamma_pos=0.0, gamma_neg=4.0, clip=0.05)
            fd = central_diff(lambda zz: asl_loss(zz, y, 0.0, 4.0, 0.05).value, z)
            worst = max(worst, max_rel_err(out.grad_logits, fd))
        assert worst < 1e-5

    def test_gradient_with_positive_focus(self):
        rng = np.random.default_rng(11)
        z, y = random_batch(rng, n=5, l=4)
        out = asl_loss(z, y, gamma_pos=1.5, gamma_neg=2.0, clip=0.02)
        fd = central_diff(lambda zz: asl_loss(zz, y, 1.5, 2.0, 0.02).value, z)
        assert max_rel_err(out.grad_logits, fd) < 1e-5

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            z, y = random_batch(rng, lo=-12.0, hi=12.0)
            gp, gn = rng.uniform(0, 4, size=2)
            clip = float(rng.uniform(0, 0.3))
            assert asl_loss(z, y, gp, gn, clip).value >= 0.0

    def test_gamma_neg_monotonicity(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(-4, 4, size=(6, 4))
        y = np.zeros((6, 4))
        values = [asl_loss(z, y, 0.0, g, 0.05).value for g in (0.0, 1.0, 2.0, 4.0, 8.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_nonfinite_logit_flagged(self):
        z = np.array([[0.0, np.inf], [1.0, 2.0]])
        y = np.zeros((2, 2))
        assert asl_loss(z, y).is_finite is False
        z[0, 1] = np.nan
        assert asl_loss(z, y).is_finite is False

    def test_saturated_logits_do_not_error(self):
        z = np.array([[-800.0, 800.0]])
        y = np.array([[1.0, 0.0]])
        out = asl_loss(z, y)
        assert out.is_finite

    def test_bad_clip(self):
        with pytest.raises(LossInputError):
            asl_loss(np.zeros((1, 2)), np.zeros((1, 2)), clip=1.0)

    @pytest.mark.parametrize("gamma", [
        {"gamma_neg": math.nan}, {"gamma_pos": math.nan},
        {"gamma_neg": math.inf}, {"gamma_pos": math.inf}, {"gamma_neg": -1.0}])
    def test_non_finite_or_negative_gamma_rejected(self, gamma):
        # gamma < 0 is false for NaN, which then gave a NaN loss
        with pytest.raises(LossInputError, match="focusing exponents must be finite and >= 0"):
            asl_loss(np.zeros((1, 2)), np.zeros((1, 2)), **gamma)


class TestWeightedBce:
    def test_unit_weights_equal_bce(self):
        rng = np.random.default_rng(2)
        z, y = random_batch(rng, n=6, l=3)
        out = weighted_bce_loss(z, y, np.ones(3))
        assert abs(out.value - plain_bce(z, y)) < 1e-12

    def test_weight_scaling(self):
        out = weighted_bce_loss(np.array([[0.0]]), np.array([[1.0]]), np.array([10.0]))
        assert out.value == pytest.approx(10.0 * math.log(2.0), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        z, y = random_batch(rng, n=5, l=3)
        w = rng.uniform(1.0, 10.0, size=3)
        out = weighted_bce_loss(z, y, w)
        fd = central_diff(lambda zz: weighted_bce_loss(zz, y, w).value, z)
        assert max_rel_err(out.grad_logits, fd) < 1e-6

    def test_weight_range_enforced(self):
        with pytest.raises(LossInputError):
            weighted_bce_loss(np.zeros((1, 2)), np.zeros((1, 2)), np.array([0.5, 1.0]))
        with pytest.raises(LossInputError):
            weighted_bce_loss(np.zeros((1, 2)), np.zeros((1, 2)), np.array([1.0, 11.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, bad):
        # (w < 1) and (w > 10) are both false for NaN, which then gave a
        # NaN loss and a silently skipped step
        with pytest.raises(LossInputError, match=r"pos_weight entries must lie in \[1, 10\]"):
            weighted_bce_loss(np.zeros((3, 1, 2)), np.zeros((3, 1, 2)),
                              np.array([[1.0, 2.0], [1.0, bad], [3.0, 1.0]]))

    def test_nonfinite_flagged(self):
        z = np.array([[np.inf, 0.0]])
        assert weighted_bce_loss(z, np.zeros((1, 2)), np.ones(2)).is_finite is False


class TestPosWeights:
    def test_balanced_label(self):
        labels = np.array([[1.0], [0.0], [1.0], [0.0]])
        np.testing.assert_allclose(compute_pos_weights(labels), [1.0])

    def test_rare_label_clipped_to_ten(self):
        labels = np.zeros((100, 1))
        labels[0, 0] = 1.0
        np.testing.assert_allclose(compute_pos_weights(labels), [10.0])

    def test_all_positive_clamps_to_one(self):
        labels = np.ones((10, 2))
        np.testing.assert_allclose(compute_pos_weights(labels), [1.0, 1.0])


class TestL1Penalty:
    def test_zero_matrix(self):
        value, grad = l1_penalty(np.zeros((4, 4)), 1e-3)
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros((4, 4)))

    def test_single_entry(self):
        A = np.zeros((3, 3))
        A[0, 1] = 2.0
        value, grad = l1_penalty(A, 1e-3)
        assert value == pytest.approx(0.002, abs=1e-18)
        assert grad[0, 1] == pytest.approx(0.001, abs=1e-18)
        assert grad.sum() == grad[0, 1]

    def test_diagonal_ignored(self):
        A = np.eye(3) * 5.0
        value, grad = l1_penalty(A, 1.0)
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros((3, 3)))

    def test_gradient_away_from_zero(self):
        rng = np.random.default_rng(4)
        A = rng.uniform(0.1, 1.0, size=(4, 4)) * rng.choice([-1.0, 1.0], size=(4, 4))
        np.fill_diagonal(A, 0.0)
        lam = 1e-3
        _, grad = l1_penalty(A, lam)
        fd = central_diff(lambda M: l1_penalty(M, lam)[0], A)
        off = ~np.eye(4, dtype=bool)
        assert max_rel_err(grad[off], fd[off]) < 1e-6
