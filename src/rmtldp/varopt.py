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
_MAX_SUPPORT = 6  # support entries of a random restart
_DESCENT_ITERS = 240  # gradient steps of each descent


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
    """Feasible point at tr A**p = 1: support entries (upper triangle) and
    its cost."""

    n: int
    support: tuple
    cost: float

    def matrix(self) -> HermMatrix:
        support, values = [(i, j) for i, j, _ in self.support], [v for *_, v in self.support]
        return HermMatrix(1, _assemble(support, values, self.n))


def _assemble(support, values, n) -> np.ndarray:
    mat = np.zeros((n, n))
    for (i, j), v in zip(support, values):
        mat[i, j] = v
        mat[j, i] = v
    return mat


def _descend(supports, values, p, a, b, alpha, n_max):
    """Gradient descent on the scale-invariant objective
    I(A) / (tr A^p)^(alpha/p) with backtracking, then rescale to the
    constraint, for all restarts in lockstep.  Each restart is padded to an
    (n_max + 1) x (n_max + 1) matrix with _MAX_SUPPORT slots; padded slots
    hold 0 at the dummy corner (n_max, n_max), so the fixed shape keeps each
    restart's result independent of the batch.  Returns per restart (cost
    at tr A^p = 1, scaled values) or None for candidates that cannot be
    rescaled (odd p, nonpositive trace power)."""
    count = len(supports)
    rows = np.full((count, _MAX_SUPPORT), n_max)
    cols = rows.copy()
    vals = np.zeros((count, _MAX_SUPPORT))
    for r, (support, v) in enumerate(zip(supports, values)):
        rows[r, : len(v)], cols[r, : len(v)] = np.transpose(support)
        vals[r, : len(v)] = v
    real = rows != n_max
    pair = np.where(real, np.where(rows == cols, 1.0, 2.0), 0.0)
    coef = np.where(pair == 1.0, b, a) * real

    def objective(live, v):
        """(f, grad f, tr A^p) of the restarts live at slot values v."""
        mats = np.zeros((live.size, n_max + 1, n_max + 1))
        k, i, j = np.arange(live.size)[:, None], rows[live], cols[live]
        mats[k, i, j] = v
        mats[k, j, i] = v
        apm1 = mats
        for _ in range(p - 2):
            apm1 = apm1 @ mats
        gt = p * pair[live] * apm1[k, i, j]
        t = (v * gt).sum(axis=1) / p
        ok = t > 1e-300
        safe = np.where(ok, t, 1.0)[:, None]
        mod = np.where(real[live], np.abs(v), 1.0)  # no powers of padded zeros
        cost = (coef[live] * mod ** alpha).sum(axis=1)[:, None]
        gc = coef[live] * alpha * mod ** (alpha - 1.0) * np.sign(v)
        gf = gc / safe ** (alpha / p) - (alpha / p) * cost * safe ** (-alpha / p - 1.0) * gt
        return np.where(ok, cost[:, 0] / safe[:, 0] ** (alpha / p), math.inf), gf, t

    f, g, _ = objective(np.arange(count), vals)
    active, eta = np.isfinite(f), np.full(count, 0.1)  # f stays inf where the start is infeasible
    for _ in range(_DESCENT_ITERS):
        live = np.flatnonzero(active)
        if live.size == 0:
            break
        step = vals[live] - eta[live, None] * g[live]
        step = np.sign(step) * np.maximum(np.abs(step), _ENTRY_FLOOR)
        f_new, g_new, _ = objective(live, step)
        accept = f_new < f[live] - 1e-15
        took, missed = live[accept], live[~accept]
        vals[took], f[took], g[took] = step[accept], f_new[accept], g_new[accept]
        eta[took] = np.minimum(eta[took] * 1.3, 1.0)
        eta[missed] *= 0.5
        active[missed[eta[missed] < 1e-12]] = False
    t = objective(np.arange(count), vals)[2]
    return [
        (f[r], vals[r, : len(supports[r])] / t[r] ** (1.0 / p)) if math.isfinite(f[r]) and t[r] > 0 else None
        for r in range(count)
    ]


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
    restarts: int  # random restarts descended (odd p skips some before descent)
    kept: int  # descents that returned a feasible candidate

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
    <= 6 in dimension <= n_max <= 12 (six entries span at most 12
    indices, so a larger dimension only relabels the same candidates).
    For even p the result must land inside the proven bracket
    [min(b, a/2), min(b, 2**(-alpha/p) a)]; a violation raises
    CertificateError.
    """
    if p < 3:
        raise ValueError(f"p must be >= 3, got {p}")
    if not (0 < alpha < 2):
        raise ValueError(f"alpha must be in (0, 2), got {alpha}")
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValueError(f"a and b must be finite and > 0, got a={a}, b={b}")
    if not 2 <= n_max <= 2 * _MAX_SUPPORT:
        raise ValueError(f"n_max must be in [2, {2 * _MAX_SUPPORT}], got {n_max}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")

    even = p % 2 == 0
    best_cost = math.inf
    best_support: tuple = ()
    best_n = 1

    def consider(support, values, n):
        nonlocal best_cost, best_support, best_n
        cost = float(sum((b if i == j else a) * abs(v) ** alpha for (i, j), v in zip(support, values)))
        t = trace_powers(_assemble(support, values, n), p)
        if abs(t - 1.0) <= 1e-9 and cost < best_cost:
            best_cost = cost
            best_support = tuple((i, j, float(v)) for (i, j), v in zip(support, values))
            best_n = n

    def consider_with_cleanup(support, values, n):
        consider(support, values, n)
        # floor-level entries are descent dead weight; dropping them and
        # rescaling often yields a strictly cheaper feasible point
        keep = [k for k, v in enumerate(values) if abs(v) > 10.0 * _ENTRY_FLOOR]
        if 0 < len(keep) < len(values):
            sub_support, sub_values = [support[k] for k in keep], values[keep]
            t = trace_powers(_assemble(sub_support, sub_values, n), p)
            if t > 0:
                consider(sub_support, sub_values / t ** (1.0 / p), n)

    # structured candidates
    consider([(0, 0)], np.array([1.0]), 1)
    if even:
        consider([(0, 1)], np.array([2.0 ** (-1.0 / p)]), 2)

    # randomized descent: draw every restart, descend them together, then
    # consider the results in restart order so that ties resolve the same
    sub_seeds = stream(seed, 23).integers(0, 2**62, size=int(budget))
    supports, starts, dims = [], [], []
    for k in range(int(budget)):
        rng = stream(int(sub_seeds[k]), k)
        n = int(rng.integers(1, n_max + 1))
        pool = [(i, j) for i in range(n) for j in range(i, n)]
        size = int(rng.integers(1, min(_MAX_SUPPORT, len(pool)) + 1))
        pick = rng.choice(len(pool), size=size, replace=False)
        support = [pool[idx] for idx in pick]
        values = rng.standard_normal(size)
        if not even and trace_powers(_assemble(support, values, n), p) <= 0:
            continue  # odd p: nonpositive trace power cannot be rescaled
        supports.append(support)
        starts.append(values)
        dims.append(n)
    results = _descend(supports, starts, p, a, b, alpha, n_max)
    for support, n, res in zip(supports, dims, results):
        if res is not None:
            consider_with_cleanup(support, res[1], n)

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

    argmin = SparseHermCandidate(n=best_n, support=best_support, cost=best_cost)
    kept = sum(res is not None for res in results)
    return CpResult(alpha, a, b, p, best_cost, argmin, bracket, cert_ok, len(supports), kept)


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
