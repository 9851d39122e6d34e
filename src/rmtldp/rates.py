"""Closed-form rate functions, speeds, and the Gaussian variational form.

Four model families are covered, keyed by RateSpec.theorem:

* ``beta_ensemble``      - J(x) = b (x - m)**(alpha/p) above the
  equilibrium moment m (even p), b|x - m|**(alpha/p) for odd p;
  speed exponent 1 + alpha/p.
* ``gaussian``           - J(x) = 0.5 min(1/sigma2, beta/2) (x - C)**(2/p)
  above the Catalan center C (even p), same power of |x| centered at 0
  for odd p; speed exponent 1 + 2/p.
* ``wigner_no_gaussian_tail`` - J(x) = c (x - C)**(alpha/p) / c|x|**(alpha/p)
  with the rate constant c from the sparse variational problem (its cost
  is alpha-homogeneous and tr A**p is p-homogeneous); speed exponent
  alpha (1/2 + 1/p).
* ``truncated_moment``   - J(x) = b x**(alpha/p) on x >= 0 (even p),
  b|x|**(alpha/p) for odd p; speed exponent 1 + alpha/p.

Rate values live in [0, +inf]; math.inf is the honest representation of
the infinite branch.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .matcore import HermMatrix, trace_power, trace_powers, normalized_trace_power

__all__ = [
    "catalan",
    "semicircle_moment",
    "semicircle_cdf",
    "RateSpec",
    "speed_exponent",
    "rate_value",
    "require_finite",
    "require_positive",
    "gaussian_entry_cost",
    "deformed_trace_limit",
    "hollow_witness",
    "linearization_gap",
    "trace_linearization_discrepancy",
]

# theorem -> (params, p) -> (rate coefficient, rate exponent, speed exponent)
_THEOREMS = {
    "beta_ensemble": lambda q, p: (q["b"], q["alpha"] / p, 1.0 + q["alpha"] / p),
    "gaussian": lambda q, p: (0.5 * min(1.0 / q["sigma2"], q["beta"] / 2.0), 2.0 / p, 1.0 + 2.0 / p),
    "wigner_no_gaussian_tail": lambda q, p: (q["c_p"], q["alpha"] / p, q["alpha"] * (0.5 + 1.0 / p)),
    "truncated_moment": lambda q, p: (q["b"], q["alpha"] / p, 1.0 + q["alpha"] / p),
}


def _is_real(value) -> bool:
    """A finite real number; a bool is not one."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)


def require_finite(**fields) -> None:
    """Raise, naming the field, unless each value is a finite real number."""
    for name, value in fields.items():
        if not _is_real(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


def require_positive(**fields) -> None:
    """Raise, naming the field, unless each value is a finite positive real number."""
    for name, value in fields.items():
        if not (_is_real(value) and value > 0):
            raise ValueError(f"{name} must be a finite positive number, got {value!r}")


@lru_cache(maxsize=None)
def catalan(k: int) -> int:
    """k-th Catalan number via the recurrence C_{k+1} = sum C_i C_{k-i}."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if k == 0:
        return 1
    return sum(catalan(i) * catalan(k - 1 - i) for i in range(k))


def semicircle_moment(p: int) -> float:
    """p-th moment of the semicircle law: 0 for odd p, C_{p/2} for even p."""
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    if p % 2:
        return 0.0
    return float(catalan(p // 2))


def semicircle_cdf(x):
    """CDF of the semicircle law on [-2, 2] (vectorized)."""
    x = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
    return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * np.pi) + np.arcsin(x / 2.0) / np.pi


@dataclass(frozen=True)
class RateSpec:
    """Which model's rate function, with its parameters and center."""

    theorem: str
    p: int
    params: dict = field(default_factory=dict)
    center: float = 0.0

    def __post_init__(self):
        if self.theorem not in _THEOREMS:
            raise ValueError(f"unknown theorem key {self.theorem!r}")
        if isinstance(self.p, bool) or not isinstance(self.p, (int, np.integer)) or self.p < 1:
            raise ValueError(f"p must be an integer >= 1, got {self.p!r}")
        if self.theorem in ("gaussian", "wigner_no_gaussian_tail") and self.p < 3:
            raise ValueError(f"{self.theorem} requires p >= 3, got p={self.p}")
        # sigma2, beta, c_p, b and alpha are all positive
        require_positive(**self.params)
        require_finite(center=self.center)
        q = self.params
        if self.theorem == "gaussian" and q["beta"] not in (1, 2):
            raise ValueError(f"beta must be 1 or 2, got {q['beta']!r}")
        if self.theorem == "wigner_no_gaussian_tail" and not q["alpha"] < 2:
            raise ValueError(f"wigner_no_gaussian_tail requires alpha < 2, got alpha={q['alpha']}")
        if self.theorem == "beta_ensemble" and not self.p > q["alpha"]:
            raise ValueError(f"beta_ensemble requires p > alpha, got p={self.p}, alpha={q['alpha']}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def for_gaussian(cls, p: int, sigma2: float, beta: int) -> "RateSpec":
        return cls("gaussian", p, {"sigma2": float(sigma2), "beta": int(beta)}, semicircle_moment(p))

    @classmethod
    def for_wg(cls, p: int, c_p: float, alpha: float) -> "RateSpec":
        return cls("wigner_no_gaussian_tail", p, {"c_p": float(c_p), "alpha": float(alpha)}, semicircle_moment(p))

    @classmethod
    def for_beta_ensemble(cls, p: int, b: float, alpha: float, center: float) -> "RateSpec":
        return cls("beta_ensemble", p, {"b": float(b), "alpha": float(alpha)}, float(center))

    @classmethod
    def for_truncated_moment(cls, p: int, b: float, alpha: float) -> "RateSpec":
        return cls("truncated_moment", p, {"b": float(b), "alpha": float(alpha)}, 0.0)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "RateSpec":
        p = obj["p"]
        if isinstance(p, float) and p.is_integer():
            p = int(p)  # JSON may write a count as 4.0; 4.5 stays and is rejected
        return cls(obj["theorem"], p, dict(obj["params"]), obj["center"])


def speed_exponent(spec: RateSpec) -> float:
    """Exponent s with LDP speed n**s."""
    return _THEOREMS[spec.theorem](spec.params, spec.p)[2]


def rate_value(spec: RateSpec, x: float) -> float:
    """Rate function at x; math.inf on the forbidden branch."""
    coef, expo, _ = _THEOREMS[spec.theorem](spec.params, spec.p)
    u = x - spec.center
    if spec.p % 2 == 0:
        return math.inf if u < 0 else coef * u ** expo
    # odd p: symmetric power law about the center (0 for the Wigner models)
    return coef * abs(u) ** expo


def gaussian_entry_cost(H: HermMatrix, sigma2: float) -> float:
    """Quadratic entry cost (1/sigma2) sum H_ii^2 + beta sum_{i<j} |H_ij|^2."""
    mat = H.matrix
    diag = np.real(np.diagonal(mat))
    iu = np.triu_indices(H.n, k=1)
    off = mat[iu]
    return float(np.sum(diag ** 2) / sigma2 + H.beta * np.sum(np.abs(off) ** 2))


def deformed_trace_limit(H: HermMatrix, p: int) -> float:
    """Limiting normalized trace of the deformed model: semicircle moment
    plus tr H**p."""
    return semicircle_moment(p) + trace_power(H, p)


def hollow_witness(n: int, s: float, p: int) -> HermMatrix:
    """Hollow matrix (zero diagonal, constant off-diagonal) whose deformed
    trace limit equals s exactly.

    For even p the target must satisfy s >= semicircle_moment(p); for odd p
    the witness needs n >= 3 (the two-point spectrum cancels odd powers).
    """
    if n < 2:
        raise ValueError("witness needs n >= 2")
    center = semicircle_moment(p)
    if p % 2 == 0:
        if s < center:
            raise ValueError(f"even p witness needs s >= center ({s} < {center})")
        denom = float(n - 1) ** p + (n - 1)
        lam = ((s - center) / denom) ** (1.0 / p)
    else:
        denom = float(n - 1) ** p - (n - 1)
        if denom <= 0:
            raise ValueError("odd p witness needs n >= 3")
        lam = math.copysign(abs(s) ** (1.0 / p), s) / denom ** (1.0 / p)
    mat = np.full((n, n), lam)
    np.fill_diagonal(mat, 0.0)
    H = HermMatrix(1, mat)
    achieved = deformed_trace_limit(H, p)
    if abs(achieved - s) > 1e-10 * (1.0 + abs(s)):
        raise AssertionError(f"witness construction off: {achieved} vs {s}")
    return H


def _hs_ball_sample(dim: int, beta: int, r: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the Hilbert-Schmidt ball of radius r."""
    if beta == 1:
        g = rng.standard_normal((dim, dim))
        H = (g + g.T) / 2.0
        dof = dim * (dim + 1) // 2
    else:
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        H = (g + np.conj(g).T) / 2.0
        np.fill_diagonal(H, np.real(np.diagonal(H)))
        dof = dim * dim
    hs = math.sqrt(float(np.sum(np.abs(H) ** 2)))
    if hs == 0.0:
        return H
    radius = r * rng.random() ** (1.0 / dof)
    return H * (radius / hs)


def linearization_gap(X_N: HermMatrix, H: np.ndarray, p: int) -> float:
    """|tr_n (X_N + n^(1/p) H)^p - semicircle_moment(p) - tr H^p| for one
    deformation H (given as a dense Hermitian block embedded top-left)."""
    n = X_N.n
    d = H.shape[0]
    if d > n:
        raise ValueError("deformation larger than the matrix")
    beta = 2 if (X_N.beta == 2 or np.iscomplexobj(H)) else 1
    big = np.array(X_N.matrix, dtype=complex if beta == 2 else float)
    big[:d, :d] += float(n) ** (1.0 / p) * H
    shifted = HermMatrix(beta, big)
    tr_h_p = float(trace_powers(H, p)) if d else 0.0
    return abs(normalized_trace_power(shifted, p) - semicircle_moment(p) - tr_h_p)


def trace_linearization_discrepancy(
    n: int,
    p: int,
    r: float,
    n_H: int,
    source,
    rng: np.random.Generator,
) -> float:
    """Worst-case gap between the shifted normalized trace and its limit.

    Draws one n x n matrix X from the entry source, then for a family of
    Hermitian H with ||H||_HS <= r (ball points of random dimension up to
    d = min(8, n) embedded top-left, the d x d hollow witness, H = 0) evaluates

        | tr_n (X/sqrt(n) + n^(1/p) H)^p - semicircle_moment(p) - tr H^p |

    and returns the maximum.
    """
    from .wigner import assemble_wigner

    _, xn = assemble_wigner(n, source, rng)
    beta = xn.beta

    candidates: list[np.ndarray] = [np.zeros((1, 1))]
    wit_dim = min(8, n)
    wit = np.full((wit_dim, wit_dim), 1.0)
    np.fill_diagonal(wit, 0.0)
    hs = math.sqrt(float(np.sum(wit ** 2)))
    if hs > 0:
        candidates.append(wit * (r / hs))
    for _ in range(int(n_H)):
        dim = int(rng.integers(1, wit_dim + 1))
        candidates.append(_hs_ball_sample(dim, beta, r, rng))

    return max(linearization_gap(xn, h, p) for h in candidates)
