"""Wigner matrix assembly, magnitude-band truncation, and spike planting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matcore import HermMatrix, eigvals, opnorm, trace_power
from .randsrc import draw_wigner_entries

__all__ = [
    "assemble_hermitian",
    "assemble_wigner_batch",
    "assemble_wigner",
    "TruncationSplit",
    "truncation_split",
    "spike_size",
    "PlantSpec",
    "plant_deformation",
    "LowRankTraceCheck",
    "low_rank_trace_check",
]


@lru_cache(maxsize=32)
def triangle_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the diagonal within the row-major order of
    np.triu_indices(n), and the flat n*n positions of the rest of that
    order, the strict upper triangle (the order of np.triu_indices(n, k=1)).
    np.delete(v, on_diag) is then the strict upper part of v."""
    rows, cols = np.triu_indices(n)
    on_diag = np.flatnonzero(rows == cols)
    layout = on_diag, np.delete(rows * n + cols, on_diag)
    for a in layout:
        a.flags.writeable = False  # one cached pair serves every caller
    return layout


def assemble_hermitian(mats: np.ndarray, diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Fill a zero (count, n, n) stack, both triangles, from diagonals
    (count, n) and strict upper triangles (count, n(n-1)/2) in row-major
    order; returns it.  Callers allocate the stack before they draw the
    entries: at n = 1024 the reverse order raised the peak memory by 4 MB
    and slowed each matrix by about 10%, through the allocator's reuse."""
    count, n = diag.shape
    flat = mats.reshape(count, n * n)
    flat[:, triangle_layout(n)[1]] = off
    # the lower triangle is zero, so each upper slot adds an exact zero
    mats += np.conj(mats.transpose(0, 2, 1))
    flat[:, :: n + 1] = diag
    return mats


def assemble_wigner_batch(source, n: int, rngs) -> np.ndarray:
    """Raw dense draws, one matrix per generator, as a (len(rngs), n, n)
    array with both triangles filled."""
    mats = np.zeros((len(rngs), n, n), dtype=np.complex128 if source.beta == 2 else np.float64)
    return assemble_hermitian(mats, *draw_wigner_entries(source, n, rngs))


def assemble_wigner(n: int, source, rng: np.random.Generator) -> tuple[HermMatrix, HermMatrix]:
    """Draw one Wigner matrix; returns (raw, raw / sqrt(n))."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    # assembly adds the mirror's zeros; scaled rejects non-finite draws
    raw = HermMatrix._trusted(source.beta, assemble_wigner_batch(source, n, [rng])[0])
    return raw, raw.scaled(1.0 / math.sqrt(n))


@dataclass(frozen=True)
class TruncationSplit:
    """Four-way decomposition of the normalized matrix by raw-entry
    magnitude: small / intermediate / deviation-carrying / huge bands.

    The supports are pairwise disjoint and the parts sum back to the
    normalized matrix entry-exactly.
    """

    small: HermMatrix
    intermediate: HermMatrix
    deviation: HermMatrix
    huge: HermMatrix
    eps: float
    d: float
    p: int

    def total(self) -> HermMatrix:
        summed = self.small.matrix + self.intermediate.matrix + self.deviation.matrix + self.huge.matrix
        return HermMatrix._trusted(self.small.beta, summed)


def truncation_split(
    raw: HermMatrix,
    p: int,
    eps: float = 0.1,
    d: float | None = None,
    alpha: float | None = None,
) -> TruncationSplit:
    """Band the raw entries by magnitude and rescale each part by 1/sqrt(n).

    Thresholds: (log n)**d closes the small band; eps * n**(1/2+1/p) and
    n**(1/2+1/p) / eps bound the deviation-carrying band (both ends
    closed); the intermediate band is open on both sides.  d defaults to
    2/alpha + 0.5 so that alpha*d > 1 holds with margin.
    """
    n = raw.n
    if n < 3:
        raise ValueError("truncation bands are degenerate for n < 3 (log n <= 1)")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if d is None:
        if alpha is None:
            raise ValueError("either d or alpha must be given")
        d = 2.0 / alpha + 0.5
    if alpha is not None and alpha * d <= 1.0:
        raise ValueError(f"need alpha*d > 1, got alpha*d = {alpha * d}")

    t1 = math.log(n) ** d
    t2 = eps * n ** (0.5 + 1.0 / p)
    t3 = n ** (0.5 + 1.0 / p) / eps
    mag = np.abs(raw.matrix)
    m_small = mag <= t1
    m_mid = ~m_small & (mag < t2)
    m_dev = ~m_small & ~m_mid & (mag <= t3)
    m_huge = ~(m_small | m_mid | m_dev)

    # times the reciprocal, as in assemble_wigner, so the parts sum to the
    # normalized matrix bit-exactly; symmetric masks keep each part Hermitian
    scaled = raw.matrix * (1.0 / math.sqrt(n))
    parts = [HermMatrix._trusted(raw.beta, np.where(m, scaled, 0.0)) for m in (m_small, m_mid, m_dev, m_huge)]
    return TruncationSplit(*parts, eps=float(eps), d=float(d), p=int(p))


def spike_size(n: int, delta: float, p: int, diagonal: bool) -> float:
    """Normalized size theta of a planted diagonal spike, (n*delta)**(1/p),
    or of each entry of an off-diagonal pair, (n*delta/2)**(1/p)."""
    return (n * delta if diagonal else n * delta / 2.0) ** (1.0 / p)


@dataclass(frozen=True)
class PlantSpec:
    """Deformation shape, a diagonal spike or an off-diagonal Hermitian
    pair, and trace excess delta; theta(n) is its spike_size."""

    shape: str
    delta: float
    p: int

    def __post_init__(self):
        if self.shape not in ("diag_spike", "offdiag_pair"):
            raise ValueError(f"unknown plant shape {self.shape!r}")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.p < 3:
            raise ValueError(f"p must be >= 3, got {self.p}")

    def theta(self, n: int) -> float:
        return spike_size(n, self.delta, self.p, self.shape == "diag_spike")


def plant_deformation(X_N: HermMatrix, spec: PlantSpec) -> HermMatrix:
    """Replace the designated entries of the normalized matrix with the
    deformation magnitude (the original entry is removed, not added to)."""
    n = X_N.n
    theta = spec.theta(n)
    if spec.shape == "diag_spike":
        return X_N.with_entry(0, 0, theta)
    if n < 2:
        raise ValueError("offdiag_pair needs n >= 2")
    return X_N.with_entry(0, 1, theta)


@dataclass(frozen=True)
class LowRankTraceCheck:
    lhs: float
    rhs: float
    rank: int
    ok: bool


def low_rank_trace_check(H: HermMatrix, C: HermMatrix, p: int) -> LowRankTraceCheck:
    """Check |tr (H+C)^p - tr H^p - tr C^p| <= 2^p r max_k ||H||^k ||C||^(p-k)
    with r the numerical rank of C (tolerance 1e-10 * opnorm)."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    lam_c = eigvals(C)
    top = float(np.max(np.abs(lam_c)))
    rank = int(np.count_nonzero(np.abs(lam_c) > 1e-10 * top)) if top > 0 else 0
    lhs = abs(trace_power(H + C, p) - trace_power(H, p) - trace_power(C, p))
    nh, nc = opnorm(H), opnorm(C)
    rhs = 0.0
    if rank > 0:
        rhs = (2.0 ** p) * rank * max(nh ** k * nc ** (p - k) for k in range(1, p))
    return LowRankTraceCheck(lhs=lhs, rhs=rhs, rank=rank, ok=lhs <= rhs * (1.0 + 1e-9))
