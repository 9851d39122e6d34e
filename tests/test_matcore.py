import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from rmtldp.matcore import (
    HermMatrix,
    eigh_diagnostic,
    eigvals,
    normalized_trace_power,
    opnorm,
    schatten_norm,
    trace_power,
)
from rmtldp.rng import stream


def _goe(n, rng):
    g = rng.standard_normal((n, n))
    return HermMatrix(1, (g + g.T) / 2.0)


def _gue(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + np.conj(g).T) / 2.0
    np.fill_diagonal(h, np.real(np.diagonal(h)))
    return HermMatrix(2, h)


def charpoly_roots(A):
    """Independent eigenvalue oracle: exact-rational characteristic
    polynomial, then companion-matrix roots."""
    m = sympy.Matrix([[Fraction(float(v)) for v in row] for row in np.asarray(A.matrix)])
    coeffs = [float(c) for c in m.charpoly().all_coeffs()]
    return np.sort(np.real(np.roots(coeffs)))


class TestEigvals:
    def test_identity(self):
        assert np.array_equal(eigvals(HermMatrix.identity(5)), np.ones(5))

    def test_two_by_two_flip(self):
        assert np.allclose(eigvals(HermMatrix(1, [[0, 1], [1, 0]])), [-1.0, 1.0])

    def test_matches_charpoly_oracle(self):
        A = _goe(8, stream(101, 0))
        assert np.max(np.abs(eigvals(A) - charpoly_roots(A))) < 1e-8

    def test_sorted_and_cached(self):
        A = _goe(12, stream(101, 1))
        lam = eigvals(A)
        assert np.all(np.diff(lam) >= 0)
        assert eigvals(A) is lam

    def test_complex_hermitian(self):
        A = _gue(10, stream(101, 2))
        lam = eigvals(A)
        assert np.all(np.isreal(lam))
        assert abs(lam.sum() - np.real(np.trace(A.matrix))) < 1e-10

    def test_reconstruction_residual(self):
        A = _goe(16, stream(101, 3))
        _, _, resid = eigh_diagnostic(A)
        assert resid <= 1e-10 * (1.0 + opnorm(A))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            HermMatrix(1, [[np.nan, 0], [0, 1]])
        with pytest.raises(ValueError):
            HermMatrix(1, [[np.inf, 0], [0, 1]])


class TestConstruction:
    def test_upper_triangle_wins(self):
        A = HermMatrix(1, [[1.0, 2.0], [99.0, 3.0]])
        assert A.matrix[1, 0] == 2.0

    def test_hermitian_exact(self):
        A = _gue(9, stream(102, 0))
        assert np.array_equal(A.matrix, np.conj(A.matrix).T)

    def test_diag_must_be_real(self):
        with pytest.raises(ValueError):
            HermMatrix(2, np.array([[1j, 0], [0, 1]], dtype=complex))

    def test_beta1_rejects_complex(self):
        with pytest.raises(ValueError):
            HermMatrix(1, np.array([[0, 1j], [0, 0]]))

    def test_matrix_read_only(self):
        A = HermMatrix.identity(3)
        with pytest.raises(ValueError):
            A.matrix[0, 0] = 5.0

    def test_with_entry_keeps_symmetry(self):
        A = HermMatrix.zeros(4, beta=2).with_entry(0, 2, 1 + 2j)
        assert A.matrix[0, 2] == 1 + 2j
        assert A.matrix[2, 0] == 1 - 2j
        with pytest.raises(ValueError):
            A.with_entry(1, 1, 1j)
        with pytest.raises(ValueError, match="diagonal"):
            A.with_entry(-1, 3, 1j)


def _constructor_with_entry(A, i, j, value):
    mat = A.matrix.copy()
    mat[i, j] = value
    mat[j, i] = np.conj(value)
    return HermMatrix(A.beta, mat)


class TestDerivedMatrices:
    """scaled, with_entry and + skip the constructor, not its checks or bits."""

    TEN = HermMatrix.identity(3).with_entry(0, 1, 10.0)

    @pytest.mark.parametrize("factor", [np.nan, np.inf, 1e308])
    def test_scaled_rejects_non_finite(self, factor):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            self.TEN.scaled(factor)

    @pytest.mark.parametrize("i, j, value", [(0, 0, np.nan), (0, 1, np.inf), (2, 1, -np.inf)])
    def test_with_entry_rejects_non_finite(self, i, j, value):
        with pytest.raises(ValueError, match="non-finite"):
            self.TEN.with_entry(i, j, value)

    def test_overflowing_sum_rejected(self):
        big = self.TEN.scaled(1e307)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            big + big

    def test_derived_arrays_read_only(self):
        for A in (self.TEN, self.TEN.scaled(0.5), self.TEN + self.TEN, self.TEN.with_entry(2, 2, 1.0)):
            with pytest.raises(ValueError):
                A.matrix[0, 0] = 5.0

    def test_spectrum_cache_not_inherited(self):
        A = _goe(6, stream(106, 0))
        lam = eigvals(A)
        assert np.allclose(eigvals(A.scaled(2.0)), 2.0 * lam)
        assert np.allclose(eigvals(A + A), 2.0 * lam)
        assert not np.allclose(eigvals(A.with_entry(0, 0, 100.0)), lam)

    @pytest.mark.parametrize("order", [(1, 2), (2, 1)])
    def test_mixed_sum_is_complex_hermitian(self, order):
        a, b = (_goe(4, stream(106, 1)) if beta == 1 else _gue(4, stream(106, 2)) for beta in order)
        total = a + b
        assert total.beta == 2 and total.matrix.dtype == np.complex128
        assert np.array_equal(total.matrix, a.matrix + b.matrix)

    @pytest.mark.parametrize("beta", [1, 2])
    def test_same_bits_as_constructor(self, beta):
        A = _goe(5, stream(106, 3)) if beta == 1 else _gue(5, stream(106, 4))
        values = [0.0, -0.0, 2.5] + ([complex(0.0, -0.0), complex(-1.0, -0.0), 1 - 2j] if beta == 2 else [])
        for i, j in ((0, 0), (0, 3), (3, 0), (-1, 1), (2, -5), (-2, -2)):
            for v in values:
                if (i - j) % 5 == 0 and np.imag(v) != 0:
                    continue
                assert A.with_entry(i, j, v).matrix.tobytes() == _constructor_with_entry(A, i, j, v).matrix.tobytes()
        for f in (0.37, 2.0, 1.0, 0.0, -0.0, -2.5):
            assert A.scaled(f).matrix.tobytes() == HermMatrix(beta, A.matrix * f).matrix.tobytes()
        for B in (A, _goe(5, stream(106, 5)), _gue(5, stream(106, 6)).scaled(-1.0)):
            expected = HermMatrix(max(A.beta, B.beta), A.matrix + B.matrix)
            assert (A + B).matrix.tobytes() == expected.matrix.tobytes()


class TestTracePower:
    def test_identity(self):
        assert trace_power(HermMatrix.identity(7), 3) == 7.0

    def test_flip_p4(self):
        assert trace_power(HermMatrix(1, [[0, 1], [1, 0]]), 4) == pytest.approx(2.0)

    def test_matches_matrix_product(self):
        A = _goe(6, stream(103, 0))
        m = A.matrix
        direct = np.trace(m @ m @ m @ m @ m)
        assert trace_power(A, 5) == pytest.approx(direct, rel=1e-8)

    def test_matrix_product_many_sizes(self):
        rng = stream(103, 1)
        for n in (2, 5, 17, 33, 64):
            for p in (2, 3, 8):
                A = _goe(n, rng) if n % 2 else _gue(n, rng)
                prod = np.eye(n, dtype=A.matrix.dtype)
                for _ in range(p):
                    prod = prod @ A.matrix
                assert trace_power(A, p) == pytest.approx(float(np.real(np.trace(prod))), rel=1e-8)

    def test_p_validation(self):
        with pytest.raises(ValueError):
            trace_power(HermMatrix.identity(2), 0)

    def test_normalized(self):
        assert normalized_trace_power(HermMatrix.identity(4), 2) == 1.0
        assert normalized_trace_power(HermMatrix.zeros(5), 3) == 0.0
        assert normalized_trace_power(HermMatrix(1, [[0, 1], [1, 0]]), 2) == pytest.approx(1.0)


class TestNorms:
    def test_identity_frobenius(self):
        assert schatten_norm(HermMatrix.identity(3), 2) == pytest.approx(math.sqrt(3))

    def test_diag_nuclear_and_op(self):
        A = HermMatrix(1, np.diag([3.0, -4.0]))
        assert schatten_norm(A, 1) == pytest.approx(7.0)
        assert opnorm(A) == pytest.approx(4.0)

    def test_triangle_inequality(self):
        rng = stream(104, 0)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            q = float(rng.uniform(1.0, 6.0))
            A, B = _goe(n, rng), _goe(n, rng)
            left = schatten_norm(A + B, q)
            assert left <= schatten_norm(A, q) + schatten_norm(B, q) + 1e-10

    def test_q_below_one_rejected(self):
        with pytest.raises(ValueError):
            schatten_norm(HermMatrix.identity(2), 0.5)


class TestSpectralInvariants:
    def test_eig_sum_equals_trace(self):
        rng = stream(105, 0)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            A = _goe(n, rng)
            tol = 1e-9 * n * (1.0 + np.max(np.abs(A.matrix)))
            assert abs(eigvals(A).sum() - np.trace(A.matrix)) <= tol

    def test_mixed_word_trace_inequality(self):
        # |tr (Y+H)^p - tr Y^p - tr H^p| <= 2^p max_k (tr|Y|^{p+1})^{k/(p+1)} (tr H^2)^{(p-k)/2}
        rng = stream(105, 1)
        for _ in range(60):
            n = int(rng.integers(2, 17))
            p = int(rng.integers(3, 9))
            Y, H = _goe(n, rng), _goe(n, rng)
            lhs = abs(trace_power(Y + H, p) - trace_power(Y, p) - trace_power(H, p))
            ay = float(np.sum(np.abs(eigvals(Y)) ** (p + 1)))
            h2 = trace_power(H, 2)
            rhs = 2.0 ** p * max(ay ** (k / (p + 1)) * h2 ** ((p - k) / 2.0) for k in range(1, p))
            assert lhs <= rhs * (1.0 + 1e-9) + 1e-8
