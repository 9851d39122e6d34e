"""Dense Hermitian/symmetric matrix container and spectral statistics.

A HermMatrix is immutable: the public constructor validates, reads only the
upper triangle, mirrors it with conjugates and freezes the dense array, so
symmetry is exact and the spectrum can be cached.  Derived matrices (scaled,
with_entry, +, ``wigner``) skip the mirror: same bits, finiteness checked.
``trace_powers`` is one path for every p, dense or tridiagonal, with no
eigenvalues: one repeated-squaring routine and a Frobenius pairing.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HermMatrix",
    "eigvals",
    "eigh_diagnostic",
    "tridiagonal_eigvals",
    "hermite_dofs",
    "trace_powers",
    "trace_power_corner_updates",
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


# dense tridiagonal matrices per eigvalsh call: a bounded stack, never one
# (count, n, n) array
_TRIDIAGONAL_BLOCK = 64


def tridiagonal_eigvals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of every real symmetric tridiagonal matrix in a
    stack with diagonals a (..., n) and off-diagonals b (..., n - 1), by
    dense eigvalsh on a bounded block of matrices at a time."""
    n = a.shape[-1]
    flat_a = a.reshape(-1, n)
    flat_b = b.reshape(len(flat_a), n - 1)
    lam = np.empty(flat_a.shape)
    mats = np.zeros((min(_TRIDIAGONAL_BLOCK, len(flat_a)), n, n))
    idx = np.arange(n)
    for start in range(0, len(flat_a), _TRIDIAGONAL_BLOCK):
        stop = min(start + _TRIDIAGONAL_BLOCK, len(flat_a))
        t = mats[: stop - start]
        t[:, idx, idx] = flat_a[start:stop]
        t[:, idx[1:], idx[:-1]] = flat_b[start:stop]  # eigvalsh reads the lower triangle
        lam[start:stop] = np.linalg.eigvalsh(t)
    return lam.reshape(a.shape)


def hermite_dofs(beta: float, n: int) -> np.ndarray:
    """chi2 degrees of freedom beta (n-1), ..., beta of the n x n Dumitriu-Edelman tridiagonal's b_i**2."""
    return beta * np.arange(n - 1, 0, -1.0)


def _band_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """X @ Y for stacks in band storage, x[..., k + d, i] = X[i, i + d] for
    |d| <= k (zero where i + d falls outside the matrix); rows run along
    the last axis, so every operation is over whole diagonals."""
    n, kx, ky = x.shape[-1], x.shape[-2] // 2, y.shape[-2] // 2
    k = kx + ky
    out = np.zeros(x.shape[:-2] + (2 * k + 1, n))
    for e in range(-min(kx, n - 1), min(kx, n - 1) + 1):  # |e| >= n leaves no row
        lo, hi = max(0, -e), min(n, n - e)
        out[..., k + e - ky : k + e + ky + 1, lo:hi] += x[..., kx + e, None, lo:hi] * y[..., :, lo + e : hi + e]
    return out


def _power(base: np.ndarray, h: int, product) -> np.ndarray:
    """base**h for h >= 1 by repeated squaring: product runs over the set bits
    of h, lowest first, multiplying the running power by base**(2**j)."""
    acc = None
    while h:
        if h & 1:
            acc = base if acc is None else product(acc, base)
        h >>= 1
        if h:
            base = product(base, base)
    return acc


def _tridiagonal_trace_powers(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    if p == 1:
        return np.sum(a, axis=-1)
    band = np.zeros(a.shape[:-1] + (3, a.shape[-1]))
    band[..., 0, 1:] = b
    band[..., 1, :] = a
    band[..., 2, :-1] = b
    half = _power(band, p // 2, _band_product)
    # odd p: M**(h+1)'s two outer diagonals meet zeros of M**h's band
    other = _band_product(half, band)[..., 1:-1, :] if p % 2 else half
    return np.einsum("...ij,...ij->...", half, other)


def trace_powers(mats, p: int) -> np.ndarray:
    """tr M**p of every Hermitian matrix in a (..., n, n) stack, or of every
    real symmetric tridiagonal matrix in a stack given as a pair (a, b) of
    diagonals (..., n) and off-diagonals (..., n - 1).

    One algorithm for every p, with no eigenvalues: M**h, h = p // 2, by
    repeated squaring, a batched matmul for a dense stack (which beats eigh)
    and band storage for a tridiagonal one (O(n p**2) per matrix).  Even p
    is ||M**h||_F**2, odd p the Frobenius pairing <M**h, M**(h+1)>, one more
    product, and p = 1 the trace.  The input is never written.
    """
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p < 1:
        raise ValueError(f"p must be a positive integer, got {p!r}")
    if isinstance(mats, tuple):
        return _tridiagonal_trace_powers(*mats, p)
    if p == 1:
        return np.trace(mats, axis1=-2, axis2=-1).real
    half = _power(mats, p // 2, np.matmul)
    if p % 2:
        return np.einsum("...ij,...ij->...", half, np.conj(half @ mats)).real
    if half is mats or np.iscomplexobj(half):
        half = np.abs(half)  # a real product is squared in place, never the input
    return np.sum(np.square(half, out=half), axis=(-2, -1))


def trace_power_corner_updates(mats: np.ndarray, corners: np.ndarray, p: int) -> np.ndarray:
    """tr M'**p - tr M**p for every Hermitian M of a (..., n, n) stack and
    even p, where M' is M with its leading 2x2 block replaced by the
    matching Hermitian block of corners (..., 2, 2).  Neither input is written.

    M' = M + U D U^H with U = [e0 e1] and D = corner - M[:2, :2], so
    det(I - zM') = det(I - zM) det(I - z D G(z)) with G(z) = sum_a z**a
    (M**a)[:2, :2]; since log det(I - zA) = -sum_k z**k tr A**k / k,
    tr M'**p - tr M**p = -p [z**p] log det(I - z D G(z)).  For 2x2 blocks
    det(I - zK) = 1 - z tr K + z**2 det K, and det(D G) = det D det G.  The
    blocks (M**(i+j))[:2, :2] = R_i R_j^H come from the rows R_a = (M**a)[:2, :]:
    p/2 - 1 products (2, n) @ (n, n), O(p n**2) per matrix.
    """
    if not isinstance(p, (int, np.integer)) or p < 2 or p % 2:
        raise ValueError(f"p must be a positive even integer, got {p!r}")
    half = p // 2
    rows = [mats[..., :2, :]]
    for _ in range(half - 1):
        rows.append(rows[-1] @ mats)
    # blocks[a] = (M**a)[:2, :2] for a = 0 .. p-1
    blocks = [np.broadcast_to(np.eye(2), corners.shape)] + [r[..., :2] for r in rows]
    blocks += [rows[-1] @ np.conj(np.swapaxes(r, -1, -2)) for r in rows[: half - 1]]
    d = corners - mats[..., :2, :2]
    det_d = (d[..., 0, 0] * d[..., 1, 1] - d[..., 0, 1] * d[..., 1, 0]).real
    f = [np.ones(det_d.shape)] + [np.zeros(det_d.shape) for _ in range(p)]  # det(I - z D G(z))
    for a, g in enumerate(blocks):
        f[a + 1] -= np.einsum("...ij,...ji->...", d, g).real
        if a + 2 <= p:
            det_g = sum(blocks[i][..., 0, 0] * blocks[a - i][..., 1, 1]
                        - blocks[i][..., 0, 1] * blocks[a - i][..., 1, 0] for i in range(a + 1))
            f[a + 2] += det_d * det_g.real
    q = [None]  # q[k] = k [z**k] log f
    for k in range(1, p + 1):
        q.append(k * f[k] - sum(q[j] * f[k - j] for j in range(1, k)))
    return -q[p]


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
