import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from rmtldp import matcore
from rmtldp.matcore import (
    HermMatrix,
    eigh_diagnostic,
    eigvals,
    normalized_trace_power,
    opnorm,
    schatten_norm,
    trace_power,
    trace_power_corner_updates,
    trace_powers,
    tridiagonal_eigvals,
)
from rmtldp.randsrc import GaussianProfile
from rmtldp.rng import stream
from rmtldp.wigner import PlantSpec, assemble_wigner, plant_deformation


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
        with pytest.raises(ValueError, match="non-finite"):
            self.TEN.scaled(factor)

    @pytest.mark.parametrize("i, j, value", [(0, 0, np.nan), (0, 1, np.inf), (2, 1, -np.inf)])
    def test_with_entry_rejects_non_finite(self, i, j, value):
        with pytest.raises(ValueError, match="non-finite"):
            self.TEN.with_entry(i, j, value)

    def test_overflowing_sum_rejected(self):
        big = self.TEN.scaled(1e307)
        with pytest.raises(ValueError, match="non-finite"):
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


class TestTracePowers:
    """The one trace-power path: stacks and single matrices, every p."""

    @pytest.mark.parametrize("n", [1, 2, 17])
    @pytest.mark.parametrize("beta", [1, 2])
    def test_matches_eigenvalue_power_sums(self, beta, n):
        rng = stream(107, beta, n)
        mats = np.stack([(_goe if beta == 1 else _gue)(n, rng).matrix for _ in range(4)])
        for p in range(1, 9):
            ref = [float(np.sum(np.linalg.eigvalsh(m) ** p)) for m in mats]
            stacked = trace_powers(mats, p)
            assert stacked.shape == (4,)
            for k, m in enumerate(mats):
                scale = float(np.sum(np.abs(np.linalg.eigvalsh(m)) ** p))  # odd p may cancel
                assert abs(stacked[k] - ref[k]) <= 1e-12 * scale
                assert abs(trace_powers(m, p) - ref[k]) <= 1e-12 * scale

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 8])
    @pytest.mark.parametrize("draw", [_goe, _gue])
    def test_input_never_written(self, draw, p):
        frozen = np.stack([draw(5, stream(107, 3, k)).matrix for k in range(3)])
        frozen.flags.writeable = False
        writable = frozen.copy()  # a write here would go through and show
        before = frozen.tobytes()
        for mats in (frozen, frozen[0], writable, writable[1]):
            trace_powers(mats, p)
        assert frozen.tobytes() == before and writable.tobytes() == before

    def test_planted_spike_matches_frobenius(self):
        n = 1024
        _, xn = assemble_wigner(n, GaussianProfile(1.0, 1), stream(801))
        mat = plant_deformation(xn, PlantSpec("diag_spike", 1.0, 4)).matrix
        sq = mat @ mat
        assert float(trace_powers(mat, 4)) == pytest.approx(float(np.sum(sq * sq)), rel=1e-12)

    def test_p_validation(self):
        for p in (0, -2, 2.0):
            with pytest.raises(ValueError, match="positive integer"):
                trace_powers(np.eye(3), p)


def _planted_copies(beta, n, mech, rng, count=3):
    """count Hermitian matrices and their corners with one entry (diag) or
    one Hermitian pair (offdiag) replaced, as the devlab plants do."""
    mats = np.stack([(_goe if beta == 1 else _gue)(n, rng).matrix for _ in range(count)])
    corners = mats[:, :2, :2].copy()
    entry = 2.5 + rng.standard_normal(count)
    if mech == "diag":
        corners[:, 0, 0] = entry
    else:
        if beta == 2:
            entry = entry + 1j * rng.standard_normal(count)
        corners[:, 0, 1], corners[:, 1, 0] = entry, np.conj(entry)
    planted = mats.copy()
    planted[:, :2, :2] = corners
    return mats, corners, planted


class TestCornerUpdates:
    """trace_power_corner_updates against dense trace powers of planted copies."""

    @pytest.mark.parametrize("mech", ["diag", "offdiag"])
    @pytest.mark.parametrize("n", [2, 3, 17, 64])
    @pytest.mark.parametrize("beta", [1, 2])
    def test_matches_dense_planted_copies(self, beta, n, mech):
        mats, corners, planted = _planted_copies(beta, n, mech, stream(112, beta, n))
        for p in (2, 4, 6, 8):
            base, dense = trace_powers(mats, p), trace_powers(planted, p)
            got = base + trace_power_corner_updates(mats, corners, p)
            # the update is exact up to rounding on the larger of the two
            # trace powers; at n = 2 the corner is the whole matrix, and the
            # sum may cancel below it
            scale = np.maximum(np.abs(base), np.abs(dense))
            assert np.all(np.abs(got - dense) <= 1e-12 * scale)

    def test_low_power_closed_form(self):
        # tr M'**2 - tr M**2 = 2 tr(M[:2, :2] D) + tr D**2 with D = corner - M[:2, :2]
        mats, corners, _ = _planted_copies(2, 5, "offdiag", stream(113))
        d = corners - mats[:, :2, :2]
        ref = (2 * np.einsum("kij,kji->k", mats[:, :2, :2], d) + np.einsum("kij,kji->k", d, d)).real
        assert np.allclose(trace_power_corner_updates(mats, corners, 2), ref, rtol=1e-14, atol=0)

    def test_unchanged_corner_gives_zero(self):
        mats = np.stack([_gue(6, stream(114, k)).matrix for k in range(2)])
        assert np.all(trace_power_corner_updates(mats, mats[:, :2, :2].copy(), 4) == 0.0)

    def test_odd_or_non_integral_p_rejected(self):
        mats, corners, _ = _planted_copies(1, 4, "diag", stream(116))
        for p in (0, 3, 4.0):
            with pytest.raises(ValueError, match="positive even integer"):
                trace_power_corner_updates(mats, corners, p)

    def test_inputs_never_written(self):
        mats, corners, _ = _planted_copies(2, 7, "offdiag", stream(115))
        before = mats.tobytes() + corners.tobytes()
        trace_power_corner_updates(mats, corners, 6)
        assert mats.tobytes() + corners.tobytes() == before


def _random_tridiagonal(n, count, rng):
    """Diagonals (count, n) and off-diagonals (count, n - 1), both N(0, 1)."""
    return rng.standard_normal((count, n)), rng.standard_normal((count, n - 1))


def _dense_tridiagonal(a, b):
    n = a.shape[-1]
    mats = np.zeros(a.shape + (n,))
    i = np.arange(n)
    mats[..., i, i] = a
    mats[..., i[1:], i[:-1]] = mats[..., i[:-1], i[1:]] = b
    return mats


class TestTridiagonalTracePowers:
    """trace_powers on an (a, b) stack equals trace_powers on the dense matrices."""

    @pytest.mark.parametrize("n", [2, 3, 9, 70])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 8])
    def test_matches_dense(self, p, n):
        a, b = _random_tridiagonal(n, 6, stream(108, n, p))
        a, b = a.reshape(2, 3, n), b.reshape(2, 3, n - 1)  # any leading shape
        dense = trace_powers(_dense_tridiagonal(a, b), p)
        got = trace_powers((a, b), p)
        assert got.shape == (2, 3)
        scale = np.sum(np.abs(np.linalg.eigvalsh(_dense_tridiagonal(a, b))) ** p, axis=-1)  # odd p may cancel
        assert np.all(np.abs(got - dense) <= 1e-12 * scale)

    def test_low_powers_are_the_closed_forms(self):
        a, b = _random_tridiagonal(11, 5, stream(109))
        b2 = b * b
        assert np.allclose(trace_powers((a, b), 2), np.sum(a * a, -1) + 2 * np.sum(b2, -1), rtol=1e-14, atol=0)
        four = (np.sum(a ** 4, -1) + 4 * np.sum(b2 * (a[:, :-1] ** 2 + a[:, :-1] * a[:, 1:] + a[:, 1:] ** 2), -1)
                + 2 * np.sum(b2 * b2, -1) + 4 * np.sum(b2[:, :-1] * b2[:, 1:], -1))
        assert np.allclose(trace_powers((a, b), 4), four, rtol=1e-14, atol=0)

    def test_power_far_past_the_size(self):
        # the band outgrows the matrix at p = 40, n = 3
        a, b = np.array([[0.5, -1.0, 0.25]]), np.array([[0.75, -0.5]])
        lam = np.linalg.eigvalsh(_dense_tridiagonal(a, b))
        assert trace_powers((a, b), 40) == pytest.approx(np.sum(lam ** 40, -1), rel=1e-12)

    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_eigvals_in_blocks(self, monkeypatch, block):
        a, b = _random_tridiagonal(6, 13, stream(110))
        ref = np.linalg.eigvalsh(_dense_tridiagonal(a, b))
        monkeypatch.setattr(matcore, "_TRIDIAGONAL_BLOCK", block)
        assert tridiagonal_eigvals(a, b).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_input_never_written(self, p):
        a, b = _random_tridiagonal(5, 4, stream(111))
        before = a.tobytes() + b.tobytes()
        trace_powers((a, b), p)
        assert a.tobytes() + b.tobytes() == before


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
