"""Dense Hermitian/symmetric matrix container and spectral statistics.

A HermMatrix is immutable: the public constructor validates, reads only the
upper triangle, mirrors it with conjugates and freezes the dense array, so
symmetry is exact and the spectrum can be cached.  Derived matrices (scaled,
with_entry, +, ``wigner``) skip the mirror: same bits, finiteness checked.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HermMatrix",
    "eigvals",
    "eigh_diagnostic",
    "trace_powers",
    "trace_power",
    "normalized_trace_power",
    "schatten_norm",
    "opnorm",
]


class HermMatrix:
    """Real-symmetric (beta=1) or complex-Hermitian (beta=2) matrix.

    Parameters
    ----------
    beta : int
        Symmetry class: 1 stores real float64, 2 complex128.
    entries : array_like
        Square grid; only the upper triangle (including the diagonal) is
        used, the rest is filled in by conjugation.
    """

    __slots__ = ("_beta", "_mat", "_spectrum")

    def __init__(self, beta: int, entries):
        if beta not in (1, 2):
            raise ValueError(f"beta must be 1 or 2, got {beta!r}")
        arr = np.asarray(entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"entries must be a square grid, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError("empty matrix")
        if not np.all(np.isfinite(arr.real)) or (np.iscomplexobj(arr) and not np.all(np.isfinite(arr.imag))):
            raise ValueError("non-finite entries")
        if beta == 1:
            if np.iscomplexobj(arr):
                if np.any(arr.imag != 0):
                    raise ValueError("beta=1 requires real entries")
                arr = arr.real
            upper = np.triu(arr.astype(np.float64, copy=True))
            full = upper + np.triu(upper, 1).T
        else:
            arr = arr.astype(np.complex128, copy=True)
            if np.any(arr.diagonal().imag != 0):
                raise ValueError("diagonal entries must be real")
            upper = np.triu(arr)
            full = upper + np.conj(np.triu(upper, 1)).T
        full.flags.writeable = False
        self._beta, self._mat, self._spectrum = beta, full, None

    @classmethod
    def _trusted(cls, beta: int, full: np.ndarray) -> "HermMatrix":
        """Wrap an owned array as the constructor would leave it: no copy, no check."""
        full.flags.writeable = False
        obj = cls.__new__(cls)
        obj._beta, obj._mat, obj._spectrum = beta, full, None
        return obj

    @property
    def beta(self) -> int:
        return self._beta

    @property
    def n(self) -> int:
        return self._mat.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Dense read-only array."""
        return self._mat

    @classmethod
    def zeros(cls, n: int, beta: int = 1) -> "HermMatrix":
        dtype = np.float64 if beta == 1 else np.complex128
        return cls(beta, np.zeros((n, n), dtype=dtype))

    @classmethod
    def identity(cls, n: int, beta: int = 1) -> "HermMatrix":
        dtype = np.float64 if beta == 1 else np.complex128
        return cls(beta, np.eye(n, dtype=dtype))

    def with_entry(self, i: int, j: int, value) -> "HermMatrix":
        """New matrix with entry (i, j) replaced; (j, i) is set to the
        conjugate so symmetry cannot be broken."""
        lo, hi = sorted((i % self.n, j % self.n))
        if np.imag(value) != 0 and (lo == hi or self._beta == 1):
            raise ValueError("diagonal entries must be real" if lo == hi else "beta=1 entries must be real")
        mat = self._mat.copy()
        mat[i, j] = value
        mat[j, i] = np.conj(value)
        # as the mirror writes them: 0 + conj(upper) below, then upper + conj(0)
        u, zero = mat[lo, hi], mat.dtype.type(0)
        if not np.isfinite(u):
            raise ValueError("non-finite entries")
        mat[hi, lo] = zero + np.conj(u)
        mat[lo, hi] = u + np.conj(zero)
        return HermMatrix._trusted(self._beta, mat)

    def scaled(self, factor: float) -> "HermMatrix":
        """Trusted for factor > 0 (an entry that underflows to zero may keep a
        sign the constructor clears); a factor <= 0 goes through the mirror."""
        with np.errstate(over="ignore", invalid="ignore"):  # the checks below raise
            mat = self._mat * float(factor)
        if factor > 0 and np.isfinite(mat).all():
            return HermMatrix._trusted(self._beta, mat)
        return HermMatrix(self._beta, mat)  # raises on non-finite entries

    def __add__(self, other: "HermMatrix") -> "HermMatrix":
        if not isinstance(other, HermMatrix):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        with np.errstate(over="ignore", invalid="ignore"):  # the check below raises
            total = self._mat + other._mat  # complex128 if either is
        if not np.isfinite(total).all():
            raise ValueError("non-finite entries")
        return HermMatrix._trusted(max(self._beta, other._beta), total)

    def __repr__(self) -> str:
        return f"HermMatrix(beta={self._beta}, n={self.n})"


def eigvals(A: HermMatrix) -> np.ndarray:
    """All eigenvalues of A, sorted ascending (cached on the matrix)."""
    if A._spectrum is None:
        vals = np.linalg.eigvalsh(A.matrix)
        vals.flags.writeable = False
        A._spectrum = vals
    return A._spectrum


def eigh_diagnostic(A: HermMatrix) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalues, eigenvectors, and the reconstruction residual
    max|A - Q diag(w) Q*| (for diagnostics only)."""
    w, q = np.linalg.eigh(A.matrix)
    resid = float(np.max(np.abs(A.matrix - (q * w) @ np.conj(q).T)))
    return w, q, resid


def trace_powers(mats: np.ndarray, p: int) -> np.ndarray:
    """tr M**p of every Hermitian matrix in a (..., n, n) stack.

    Even p: ||M**(p/2)||_F**2 by repeated squaring (a batched matmul beats
    eigh); odd p: the sum of eigenvalue powers.  The input is never written.
    """
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise ValueError(f"p must be a positive integer, got {p!r}")
    if p % 2:
        return np.sum(np.linalg.eigvalsh(mats) ** p, axis=-1)
    half, base, acc = p // 2, mats, None
    while half:
        if half & 1:
            acc = base if acc is None else acc @ base
        half >>= 1
        if half:
            base = base @ base
    if acc is mats or np.iscomplexobj(acc):
        acc = np.abs(acc)  # a real product is squared in place, never the input
    return np.sum(np.square(acc, out=acc), axis=(-2, -1))


def trace_power(A: HermMatrix, p: int) -> float:
    """Trace of A**p."""
    return float(trace_powers(A.matrix, p))


def normalized_trace_power(A: HermMatrix, p: int) -> float:
    """trace_power(A, p) / n."""
    return trace_power(A, p) / A.n


def schatten_norm(A: HermMatrix, q: float) -> float:
    """(sum_i |lambda_i|**q) ** (1/q) for q >= 1."""
    if q < 1:
        raise ValueError(f"Schatten exponent must be >= 1, got {q}")
    lam = np.abs(eigvals(A))
    if np.isinf(q):
        return float(lam.max())
    m = lam.max()
    if m == 0.0:
        return 0.0
    # factor out the max to avoid overflow for large q
    return float(m * np.sum((lam / m) ** q) ** (1.0 / q))


def opnorm(A: HermMatrix) -> float:
    """Operator norm max |lambda_i|."""
    return float(np.max(np.abs(eigvals(A))))
