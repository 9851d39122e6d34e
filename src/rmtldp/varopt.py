"""Sparse variational problem behind the heavy-tail rate constant.

Minimizes the entrywise cost

    I(A) = b sum_i |A_ii|**alpha + a sum_{i<j} |A_ij|**alpha

over Hermitian A with tr A**p = 1.  Candidates are real symmetric with
signs: with full-support phase laws the cost depends only on the entry
moduli and optimal phases align to make the trace-power constraint real,
so restricting to signed real matrices loses nothing (validated against
complex restarts in the test suite).  The objective is alpha-homogeneous,
so the constraint is enforced exactly by rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import HermMatrix, eigvals, trace_powers
from .rng import stream

__all__ = [
    "cost_I",
    "SparseHermCandidate",
    "CertificateError",
    "CpResult",
    "solve_rate_constant",
    "entrywise_eigenvalue_gap",
    "inner_phi_inf",
]

_ENTRY_FLOOR = 1e-8  # |entries| are kept above this; |x|**alpha has no gradient at 0


class CertificateError(RuntimeError):
    """Solver output escaped the proven bracket - solver bug or bad inputs."""


def cost_I(A: HermMatrix, a: float, b: float, alpha: float) -> float:
    """Entrywise alpha-cost of a Hermitian matrix."""
    if not (0 < alpha < 2):
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    mat = A.matrix
    diag = np.abs(np.real(np.diagonal(mat)))
    off = np.abs(mat[np.triu_indices(A.n, k=1)])
    return float(b * np.sum(diag ** alpha) + a * np.sum(off ** alpha))


@dataclass(frozen=True)
class SparseHermCandidate:
    """Feasible point: support entries (upper triangle), its cost and
    constraint value."""

    n: int
    support: tuple
    cost: float
    constraint: float

    def matrix(self) -> HermMatrix:
        support, values = [(i, j) for i, j, _ in self.support], [v for *_, v in self.support]
        return HermMatrix(1, _assemble(support, values, self.n))


def _support_cost(support, values, a, b, alpha) -> float:
    c = 0.0
    for (i, j), v in zip(support, values):
        c += (b if i == j else a) * abs(v) ** alpha
    return float(c)


def _assemble(support, values, n) -> np.ndarray:
    mat = np.zeros((n, n))
    for (i, j), v in zip(support, values):
        mat[i, j] = v
        mat[j, i] = v
    return mat


def _descend(support, values, n, p, a, b, alpha, iters=240):
    """Gradient descent on the scale-invariant objective
    I(A) / (tr A^p)^(alpha/p) with backtracking, then rescale to the
    constraint.  Returns (cost at tr A^p = 1, scaled values) or None for
    candidates that cannot be rescaled (odd p, nonpositive trace power)."""
    values = np.asarray(values, dtype=float)
    coef = np.array([b if i == j else a for (i, j) in support])
    pair = np.array([1.0 if i == j else 2.0 for (i, j) in support])

    def constraint_and_grad(v):
        mat = _assemble(support, v, n)
        lam, q = np.linalg.eigh(mat)
        t = float(np.sum(lam ** p))
        apm1 = (q * lam ** (p - 1)) @ q.T
        g = np.array([p * pair[k] * apm1[i, j] for k, (i, j) in enumerate(support)])
        return t, g

    def objective(v):
        t, gt = constraint_and_grad(v)
        if t <= 1e-300:
            return math.inf, None
        cost = float(np.sum(coef * np.abs(v) ** alpha))
        f = cost / t ** (alpha / p)
        gc = coef * alpha * np.abs(v) ** (alpha - 1.0) * np.sign(v)
        gf = gc / t ** (alpha / p) - (alpha / p) * cost * t ** (-alpha / p - 1.0) * gt
        return f, gf

    f, g = objective(values)
    if not math.isfinite(f):
        return None
    eta = 0.1
    for _ in range(iters):
        step = values - eta * g
        step = np.sign(step) * np.maximum(np.abs(step), _ENTRY_FLOOR)
        f_new, g_new = objective(step)
        if f_new < f - 1e-15:
            values, f, g = step, f_new, g_new
            eta = min(eta * 1.3, 1.0)
        else:
            eta *= 0.5
            if eta < 1e-12:
                break
    t, _ = constraint_and_grad(values)
    if t <= 0:
        return None
    scaled = values / t ** (1.0 / p)
    return f, scaled


@dataclass
class CpResult:
    alpha: float
    a: float
    b: float
    p: int
    value: float
    argmin: SparseHermCandidate
    bracket: tuple | None
    certificate_ok: bool
    restarts: int

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha, "a": self.a, "b": self.b, "p": self.p,
            "value": self.value,
            "bracket": list(self.bracket) if self.bracket else None,
            "argmin_support": [[i, j, v] for (i, j, v) in self.argmin.support],
            "certificate_ok": self.certificate_ok,
        }


def solve_rate_constant(
    alpha: float,
    a: float,
    b: float,
    p: int,
    n_max: int = 6,
    budget: int = 64,
    seed: int = 0,
) -> CpResult:
    """Minimize I(A) subject to tr A**p = 1 over sparse Hermitian A.

    Combines the two structured candidates (single diagonal entry, cost b;
    2x2 off-diagonal pair with modulus 2**(-1/p), cost a 2**(-alpha/p))
    with projected-gradient descent from random sparse supports of size
    <= 6 in dimension <= n_max.  For even p the result must land inside
    the proven bracket [min(b, a/2), min(b, 2**(-alpha/p) a)]; a violation
    raises CertificateError.
    """
    if p < 3:
        raise ValueError(f"p must be >= 3, got {p}")
    if not (0 < alpha < 2):
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")

    even = p % 2 == 0
    best_cost = math.inf
    best_support: tuple = ()
    best_n = 1

    def consider(support, values, n):
        nonlocal best_cost, best_support, best_n
        cost = _support_cost(support, values, a, b, alpha)
        t = trace_powers(_assemble(support, values, n), p)
        if abs(t - 1.0) > 1e-9:
            return
        if cost < best_cost:
            best_cost = cost
            best_support = tuple((i, j, float(v)) for (i, j), v in zip(support, values))
            best_n = n

    def consider_with_cleanup(support, values, n):
        consider(support, values, n)
        # floor-level entries are descent dead weight; dropping them and
        # rescaling often yields a strictly cheaper feasible point
        keep = [k for k, v in enumerate(values) if abs(v) > 10.0 * _ENTRY_FLOOR]
        if 0 < len(keep) < len(values):
            sub_support = [support[k] for k in keep]
            sub_values = np.asarray([values[k] for k in keep])
            t = trace_powers(_assemble(sub_support, sub_values, n), p)
            if t > 0:
                consider(sub_support, sub_values / t ** (1.0 / p), n)

    # structured candidates
    consider([(0, 0)], np.array([1.0]), 1)
    if even:
        consider([(0, 1)], np.array([2.0 ** (-1.0 / p)]), 2)

    # randomized descent
    rng_master = stream(seed, 23)
    sub_seeds = rng_master.integers(0, 2**62, size=int(budget))
    for k in range(int(budget)):
        rng = stream(int(sub_seeds[k]), k)
        n = int(rng.integers(1, n_max + 1))
        max_sz = min(6, n * (n + 1) // 2)
        size = int(rng.integers(1, max_sz + 1))
        pool = [(i, j) for i in range(n) for j in range(i, n)]
        pick = rng.choice(len(pool), size=size, replace=False)
        support = [pool[idx] for idx in pick]
        values = rng.standard_normal(size)
        if not even and trace_powers(_assemble(support, values, n), p) <= 0:
            continue  # odd p: nonpositive trace power cannot be rescaled
        res = _descend(support, values, n, p, a, b, alpha)
        if res is None:
            continue
        _, scaled = res
        consider_with_cleanup(support, scaled, n)

    bracket = None
    cert_ok = True
    if even:
        lo = min(b, a / 2.0)
        hi = min(b, 2.0 ** (-alpha / p) * a)
        bracket = (lo, hi)
        cert_ok = (lo - 1e-6) <= best_cost <= (hi + 1e-6)
        if not cert_ok:
            raise CertificateError(
                f"value {best_cost} outside proven bracket [{lo}, {hi}] "
                f"for alpha={alpha}, a={a}, b={b}, p={p}"
            )

    argmin = SparseHermCandidate(n=best_n, support=best_support, cost=best_cost, constraint=1.0)
    return CpResult(alpha, a, b, p, best_cost, argmin, bracket, cert_ok, int(budget))


def entrywise_eigenvalue_gap(A: HermMatrix, alpha: float) -> float:
    """sum_{i,j} |A_ij|**alpha - sum_i |lambda_i|**alpha; nonnegative for
    Hermitian A and alpha in (0, 2)."""
    if not (0 < alpha < 2):
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    entry_sum = float(np.sum(np.abs(A.matrix) ** alpha))
    eig_sum = float(np.sum(np.abs(eigvals(A)) ** alpha))
    return entry_sum - eig_sum


def inner_phi_inf(p: int, m_max: int = 4) -> float:
    """Minimum of (1 - 2**(1/p-1)) |sum l_i| + 2**(1/p-1) sum |l_i| over the
    l^p unit sphere.

    At a minimizer the coordinates take at most two values (one positive,
    one negative level), so the problem reduces to enumerating sign
    patterns (k positives, l negatives) with k + l <= m_max and solving
    the scalar stationarity equations.  The result is always 1.
    """
    if p < 4 or p % 2:
        raise ValueError(f"p must be even and >= 4, got {p}")
    if not (1 <= m_max <= 6):
        raise ValueError("m_max must be in 1..6")
    B = 2.0 ** (1.0 / p - 1.0)
    C = 1.0 - B
    u = 2.0 ** (1.0 / p) - 1.0
    best = math.inf

    # positive-sum branch: levels  +g, -g*u**(1/(p-1)), objective value
    # (k + l u**(p/(p-1)))**((p-1)/p)
    for k in range(1, m_max + 1):
        for l in range(0, m_max + 1 - k):
            s_plus = k - l * u ** (1.0 / (p - 1.0))
            if s_plus <= 0:
                continue
            best = min(best, (k + l * u ** (p / (p - 1.0))) ** ((p - 1.0) / p))

    # zero-sum branch: multiplier t in [0, 1] solves k lam_+ = l |lam_-|
    for k in range(1, m_max):
        for l in range(1, m_max + 1 - k):
            ratio = (l / k) ** (p - 1.0)
            t = B * (ratio - 1.0) / (C * (ratio + 1.0))
            if not (0.0 <= t <= 1.0):
                continue
            gamma = (k * (B + C * t) ** (p / (p - 1.0)) + l * (B - C * t) ** (p / (p - 1.0))) ** (
                (p - 1.0) / p
            )
            best = min(best, gamma)
    return best
