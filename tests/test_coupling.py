import numpy as np
import pytest

from coupled_labels.coupling import (
    CouplingMatrix,
    CouplingShapeError,
    load_coupling_csv,
    new_coupling,
    refine_backward,
    refine_forward,
    save_coupling_csv,
    zero_diag,
)
from helpers import central_diff, max_rel_err


class TestForward:
    def test_zero_coupling_is_identity(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(5, 4))
        z_prime, _ = refine_forward(z, new_coupling(4))
        np.testing.assert_array_equal(z_prime, z)

    def test_hand_boost(self):
        # sigma(0) = 0.5; message into label 1 is 0.3 * 0.5 * 1 = 0.15
        cm = CouplingMatrix(A=np.array([[0.0, 1.0], [0.0, 0.0]]), alpha=0.3)
        z_prime, cache = refine_forward(np.array([[0.0, 0.0]]), cm)
        np.testing.assert_allclose(z_prime, [[0.0, 0.15]], atol=1e-15)
        np.testing.assert_allclose(cache["p"], [[0.5, 0.5]])

    def test_hand_suppression(self):
        cm = CouplingMatrix(A=np.array([[0.0, -1.0], [0.0, 0.0]]), alpha=0.3)
        z_prime, _ = refine_forward(np.array([[0.0, 0.0]]), cm)
        np.testing.assert_allclose(z_prime, [[0.0, -0.15]], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(CouplingShapeError):
            refine_forward(np.zeros((2, 3)), new_coupling(4))


class TestBackward:
    def test_zero_coupling_passes_gradient_through(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(3, 4))
        g = rng.normal(size=(3, 4))
        cm = new_coupling(4)
        _, cache = refine_forward(z, cm)
        grad_z, grad_A = refine_backward(g, cache, cm)
        np.testing.assert_array_equal(grad_z, g)
        # couplings can still grow from zero
        assert np.abs(grad_A).sum() > 0.0

    def test_finite_difference_exactness(self):
        rng = np.random.default_rng(2)
        n, l = 4, 5
        z = rng.uniform(-3, 3, size=(n, l))
        A = rng.uniform(-1, 1, size=(l, l))
        np.fill_diagonal(A, 0.0)
        g = rng.normal(size=(n, l))
        cm = CouplingMatrix(A=A, alpha=0.3)
        _, cache = refine_forward(z, cm)
        grad_z, grad_A = refine_backward(g, cache, cm)

        def objective_z(zz):
            out, _ = refine_forward(zz, cm)
            return float((out * g).sum())

        def objective_A(AA):
            out, _ = refine_forward(z, CouplingMatrix(A=AA, alpha=0.3))
            return float((out * g).sum())

        assert max_rel_err(grad_z, central_diff(objective_z, z)) < 1e-6
        fd_A = central_diff(objective_A, A)
        off = ~np.eye(l, dtype=bool)
        assert max_rel_err(grad_A[off], fd_A[off]) < 1e-6

    def test_grad_A_diagonal_always_zero(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(6, 4))
        g = rng.normal(size=(6, 4))
        cm = CouplingMatrix(A=rng.normal(size=(4, 4)), alpha=0.3)
        _, cache = refine_forward(z, cm)
        _, grad_A = refine_backward(g, cache, cm)
        np.testing.assert_array_equal(np.diag(grad_A), np.zeros(4))

    def test_shape_mismatch(self):
        cm = new_coupling(3)
        _, cache = refine_forward(np.zeros((2, 3)), cm)
        with pytest.raises(CouplingShapeError):
            refine_backward(np.zeros((2, 4)), cache, cm)


class TestZeroDiag:
    def test_diagonal_only_matrix_becomes_zero(self):
        A = np.eye(3) * 7.0
        zero_diag(A)
        np.testing.assert_array_equal(A, np.zeros((3, 3)))

    def test_off_diagonal_untouched(self):
        A = np.arange(9.0).reshape(3, 3)
        zeroed = zero_diag(A.copy())
        off = ~np.eye(3, dtype=bool)
        np.testing.assert_array_equal(zeroed[off], A[off])

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(5, 5))
        once = zero_diag(A).copy()
        twice = zero_diag(A)
        np.testing.assert_array_equal(once, twice)


class TestPermutationEquivariance:
    def test_label_permutation_commutes(self):
        rng = np.random.default_rng(5)
        l = 6
        z = rng.normal(size=(4, l))
        A = rng.normal(size=(l, l))
        np.fill_diagonal(A, 0.0)
        perm = rng.permutation(l)
        cm = CouplingMatrix(A=A, alpha=0.3)
        cm_perm = CouplingMatrix(A=A[np.ix_(perm, perm)], alpha=0.3)
        direct, _ = refine_forward(z[:, perm], cm_perm)
        permuted, _ = refine_forward(z, cm)
        np.testing.assert_allclose(direct, permuted[:, perm], atol=1e-14)


class TestCsv:
    def test_round_trip_with_names(self, tmp_path):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(3, 3))
        np.fill_diagonal(A, 0.0)
        names = ["edema", "cardiomegaly", "effusion"]
        path = tmp_path / "coupling.csv"
        save_coupling_csv(CouplingMatrix(A=A, alpha=0.3), names, path)
        back, back_names = load_coupling_csv(path)
        np.testing.assert_array_equal(back, A)
        assert back_names == names

    def test_diagonal_written_as_zero(self, tmp_path):
        A = np.full((2, 2), 3.0)
        path = tmp_path / "coupling.csv"
        save_coupling_csv(A, ["a", "b"], path)
        back, _ = load_coupling_csv(path)
        np.testing.assert_array_equal(np.diag(back), [0.0, 0.0])
        assert back[0, 1] == 3.0
