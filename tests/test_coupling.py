import numpy as np
import pytest

from coupled_labels.coupling import (
    CouplingShapeError,
    new_coupling,
    refine_backward,
    refine_forward,
    save_coupling_csv,
    zero_diag,
)
from helpers import central_diff, load_coupling_csv, max_rel_err

ALPHA = 0.3


class TestForward:
    def test_zero_coupling_is_identity(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(5, 4))
        z_prime, _ = refine_forward(z, new_coupling(4), ALPHA)
        np.testing.assert_array_equal(z_prime, z)

    def test_hand_boost(self):
        # sigma(0) = 0.5; message into label 1 is 0.3 * 0.5 * 1 = 0.15
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        z_prime, cache = refine_forward(np.array([[0.0, 0.0]]), A, ALPHA)
        np.testing.assert_allclose(z_prime, [[0.0, 0.15]], atol=1e-15)
        np.testing.assert_allclose(cache["p"], [[0.5, 0.5]])

    def test_hand_suppression(self):
        A = np.array([[0.0, -1.0], [0.0, 0.0]])
        z_prime, _ = refine_forward(np.array([[0.0, 0.0]]), A, ALPHA)
        np.testing.assert_allclose(z_prime, [[0.0, -0.15]], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(CouplingShapeError):
            refine_forward(np.zeros((2, 3)), new_coupling(4), ALPHA)

    def test_non_square_matrix_rejected(self):
        with pytest.raises(CouplingShapeError, match="square"):
            refine_forward(np.zeros((2, 3)), np.zeros((3, 2)), ALPHA)

    def test_new_coupling_needs_two_labels(self):
        with pytest.raises(CouplingShapeError):
            new_coupling(1)


class TestBackward:
    def test_zero_coupling_passes_gradient_through(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(3, 4))
        g = rng.normal(size=(3, 4))
        A = new_coupling(4)
        _, cache = refine_forward(z, A, ALPHA)
        grad_z, grad_A = refine_backward(g, cache, A, ALPHA)
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
        _, cache = refine_forward(z, A, ALPHA)
        grad_z, grad_A = refine_backward(g, cache, A, ALPHA)

        def objective_z(zz):
            out, _ = refine_forward(zz, A, ALPHA)
            return float((out * g).sum())

        def objective_A(AA):
            out, _ = refine_forward(z, AA, ALPHA)
            return float((out * g).sum())

        assert max_rel_err(grad_z, central_diff(objective_z, z)) < 1e-6
        fd_A = central_diff(objective_A, A)
        off = ~np.eye(l, dtype=bool)
        assert max_rel_err(grad_A[off], fd_A[off]) < 1e-6

    def test_grad_A_diagonal_always_zero(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(6, 4))
        g = rng.normal(size=(6, 4))
        A = rng.normal(size=(4, 4))
        _, cache = refine_forward(z, A, ALPHA)
        _, grad_A = refine_backward(g, cache, A, ALPHA)
        np.testing.assert_array_equal(np.diag(grad_A), np.zeros(4))

    def test_shape_mismatch(self):
        A = new_coupling(3)
        _, cache = refine_forward(np.zeros((2, 3)), A, ALPHA)
        with pytest.raises(CouplingShapeError):
            refine_backward(np.zeros((2, 4)), cache, A, ALPHA)


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
        direct, _ = refine_forward(z[:, perm], A[np.ix_(perm, perm)], ALPHA)
        permuted, _ = refine_forward(z, A, ALPHA)
        np.testing.assert_allclose(direct, permuted[:, perm], atol=1e-14)


class TestCsv:
    def test_round_trip_with_names(self, tmp_path):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(3, 3))
        np.fill_diagonal(A, 0.0)
        names = ["edema", "cardiomegaly", "effusion"]
        path = tmp_path / "coupling.csv"
        save_coupling_csv(A, names, path)
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

    def test_bytes_quote_a_name_with_a_comma(self, tmp_path):
        path = tmp_path / "coupling.csv"
        save_coupling_csv(np.array([[5.0, 0.1 + 0.2], [-0.25, 5.0]]), ["a,b", "c"], path)
        assert path.read_bytes() == (b'source,"a,b",c\r\n'
                                     b'"a,b",0.0,0.30000000000000004\r\n'
                                     b'c,-0.25,0.0\r\n')
