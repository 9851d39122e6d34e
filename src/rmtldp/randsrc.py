"""Entry-level random sources for Wigner-type matrices.

A profile owns every fact about its entry law that the estimators use:
``beta``, ``speed(p)``, ``mechanism(p)``, ``rate_spec(p)``,
``draw_entries(n, rng)`` and ``proposal(mech, shift)``.  Two families:

* GaussianProfile - centered Gaussian entries, diagonal variance sigma2,
  off-diagonal second absolute moment 1 (real for beta=1, complex for
  beta=2).
* TailProfile - entries whose modulus has the exact stretched-exponential
  tail P(|X| > t) = exp(-c t**alpha) for all t >= t0 (c = b on the
  diagonal, a off it), a truncated-Gaussian core below t0, and a phase
  drawn independently of the modulus.  The phase/modulus factorization
  therefore holds at every threshold, not just asymptotically.

A pure stretched-exponential law cannot in general combine an arbitrary
tail rate with unit variance, hence the two-piece construction: the core
scale is calibrated by bisection when ``normalize_variance`` is set.  Not
every (alpha, a, t0) is feasible - if the tail alone already carries more
than unit second moment the constructor raises CalibrationError naming
the minimal feasible t0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy import integrate, special

from .rates import RateSpec

__all__ = [
    "CalibrationError",
    "GaussianProfile",
    "TailProfile",
    "TwoPieceModulus",
    "tail_calibration_report",
    "draw_wigner_entries",
    "CalibrationRow",
]

_PHASE_LAWS = ("rademacher", "uniform_s1")


class CalibrationError(ValueError):
    """Requested entry law cannot meet the variance constraint."""


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


class TwoPieceModulus:
    """Modulus law: truncated half-Gaussian core on [0, t0], exact
    stretched-exponential tail beyond.

    P(T > t) = exp(-c t**alpha) for every t >= t0; the core carries the
    remaining mass 1 - exp(-c t0**alpha).
    """

    def __init__(self, c: float, alpha: float, t0: float, core_scale: float):
        if not (0 < alpha < 2):
            raise ValueError(f"alpha must be in (0, 2), got {alpha}")
        if c <= 0 or t0 <= 0 or core_scale <= 0:
            raise ValueError("c, t0 and core_scale must be positive")
        self.c = float(c)
        self.alpha = float(alpha)
        self.t0 = float(t0)
        self.s = float(core_scale)
        self._t0_alpha = self.t0 ** self.alpha
        self._core_z = _norm_cdf(self.t0 / self.s) - 0.5  # core normalizer
        self.tail_mass = math.exp(-self.c * self._t0_alpha)
        self.core_mass = 1.0 - self.tail_mass
        self._tilts = {}  # eta -> (Z(eta), tilted tail mass), filled on first use

    # ---- moments ------------------------------------------------------

    @staticmethod
    def tail_second_moment(c: float, alpha: float, t0: float) -> float:
        """integral of t^2 over the tail piece (closed form via the upper
        incomplete gamma function)."""
        shape = 1.0 + 2.0 / alpha
        x0 = c * t0 ** alpha
        return c ** (-2.0 / alpha) * special.gamma(shape) * special.gammaincc(shape, x0)

    def _core_second_moment(self, s: float) -> float:
        rho = self.t0 / s
        if rho < 0.05:
            u = rho * rho
            return self.t0 ** 2 * (1.0 / 3.0 - 2.0 * u / 45.0)
        z = _norm_cdf(rho) - 0.5
        if z <= 0.0 or rho > 38.0:
            return s * s
        return s * s * (1.0 - rho * _norm_pdf(rho) / z)

    def second_moment(self) -> float:
        return self.core_mass * self._core_second_moment(self.s) + self.tail_second_moment(
            self.c, self.alpha, self.t0
        )

    # ---- densities ----------------------------------------------------

    def pdf(self, t):
        """Density of the modulus (vectorized)."""
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        core = (t >= 0) & (t <= self.t0)
        out[core] = (
            self.core_mass
            * np.exp(-0.5 * (t[core] / self.s) ** 2)
            / (self.s * math.sqrt(2 * math.pi))
            / self._core_z
        )
        tail = t > self.t0
        tt = t[tail]
        out[tail] = self.c * self.alpha * tt ** (self.alpha - 1.0) * np.exp(-self.c * tt ** self.alpha)
        return out

    def survival(self, t):
        """P(T > t); exactly exp(-c t**alpha) for t >= t0."""
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        tail = t >= self.t0
        out[tail] = np.exp(-self.c * t[tail] ** self.alpha)
        core = ~tail
        tc = np.clip(t[core], 0.0, None)
        out[core] = 1.0 - self.core_mass * (special.ndtr(tc / self.s) - 0.5) / self._core_z
        return out

    # ---- sampling -----------------------------------------------------

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        is_tail = u < self.tail_mass
        out = np.empty(size)
        k = int(is_tail.sum())
        if k:
            e = rng.standard_exponential(k)
            out[is_tail] = (self._t0_alpha + e / self.c) ** (1.0 / self.alpha)
        j = size - k
        if j:
            v = rng.random(j)
            out[~is_tail] = np.minimum(self.s * special.ndtri(0.5 + v * self._core_z), self.t0)
        return out

    # ---- exponential-type tilt (importance-sampling support) ----------

    def _tilt(self, eta: float) -> tuple[float, float]:
        """(Z(eta), tilted tail mass), integrated once per eta and kept."""
        if eta not in self._tilts:
            if eta >= self.c:
                raise ValueError("tilt must be below the tail rate")
            tail_part = self.c / (self.c - eta) * math.exp(-(self.c - eta) * self._t0_alpha)
            core_part, _ = integrate.quad(
                lambda t: math.exp(eta * t ** self.alpha) * float(self.pdf(t)), 0.0, self.t0, limit=200
            )
            Z = core_part + tail_part
            self._tilts[eta] = (Z, tail_part / Z)
        return self._tilts[eta]

    def tilt_normalizer(self, eta: float) -> float:
        """E[exp(eta * T**alpha)], finite for eta < c."""
        return 1.0 if eta == 0.0 else self._tilt(eta)[0]

    def sample_tilted(self, eta: float, rng: np.random.Generator, size: int):
        """Draw from the tilted law q(t) = pdf(t) exp(eta t**alpha) / Z."""
        if eta == 0.0:
            return self.sample(rng, size)
        tail_mass_t = self._tilt(eta)[1]
        u = rng.random(size)
        out = np.empty(size)
        is_tail = u < tail_mass_t
        k = int(is_tail.sum())
        if k:
            e = rng.standard_exponential(k)
            out[is_tail] = (self._t0_alpha + e / (self.c - eta)) ** (1.0 / self.alpha)
        j = size - k
        if j:
            # rejection from the untilted core; acceptance exp(eta(t^a - t0^a)) <= 1
            got = np.empty(0)
            while got.size < j:
                cand = self.sample(rng, max(j, 64))
                cand = cand[cand <= self.t0]
                acc = rng.random(cand.size) < np.exp(eta * (cand ** self.alpha - self._t0_alpha))
                got = np.concatenate([got, cand[acc]])
            out[~is_tail] = got[:j]
        return out


def _solve_core_scale(c: float, alpha: float, t0: float) -> float:
    """Core scale meeting unit second moment, by bisection."""
    m2_tail = TwoPieceModulus.tail_second_moment(c, alpha, t0)
    tail_mass = math.exp(-c * t0 ** alpha)
    core_mass = 1.0 - tail_mass
    if m2_tail >= 1.0 - 1e-12:
        t_min = _minimal_feasible_t0(c, alpha)
        raise CalibrationError(
            f"tail second moment {m2_tail:.6f} >= 1 at t0={t0:g}; "
            f"minimal feasible t0 is {t_min:.4f}"
        )
    target = (1.0 - m2_tail) / core_mass
    if target >= t0 * t0 / 3.0:
        t_min = _minimal_feasible_t0(c, alpha)
        raise CalibrationError(
            f"core cannot reach second moment {target:.6f} below t0={t0:g} "
            f"(cap {t0 * t0 / 3.0:.6f}); minimal feasible t0 is {t_min:.4f}"
        )

    def f(s):
        return TwoPieceModulus(c, alpha, t0, s)._core_second_moment(s) - target

    lo, hi = 1e-9 * t0, 1e6 * t0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-14:
            break
    return math.sqrt(lo * hi)


def _minimal_feasible_t0(c: float, alpha: float) -> float:
    """Smallest t0 for which unit variance is achievable."""

    def feasible(t0):
        m2 = TwoPieceModulus.tail_second_moment(c, alpha, t0)
        if m2 >= 1.0 - 1e-12:
            return False
        core_mass = 1.0 - math.exp(-c * t0 ** alpha)
        return m2 + core_mass * t0 * t0 / 3.0 > 1.0 + 1e-12

    hi = 1.0
    while not feasible(hi):
        hi *= 2.0
        if hi > 1e9:
            raise CalibrationError("no feasible tail-onset threshold found")
    lo = hi / 2.0 if hi > 1.0 else 1e-9
    while feasible(lo):
        lo /= 2.0
        if lo < 1e-9:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class GaussianProfile:
    """Gaussian Wigner entry law: real N(0, sigma2) on the diagonal;
    off-diagonal N(0,1) for beta=1, complex with independent N(0, 1/2)
    parts for beta=2."""

    sigma2: float = 1.0
    beta: int = 1

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if self.beta not in (1, 2):
            raise ValueError(f"beta must be 1 or 2, got {self.beta}")

    def speed(self, p: int) -> float:
        """Exponent s of the deviation speed n**s of tr_n X_n**p."""
        return 1.0 + 2.0 / p

    def mechanism(self, p: int) -> str:
        """Deviation channel with the smaller rate coefficient (diagonal
        wins ties)."""
        return "diag" if 1.0 / self.sigma2 <= self.beta / 2.0 else "offdiag"

    def rate_spec(self, p: int) -> RateSpec:
        return RateSpec.for_gaussian(p, self.sigma2, self.beta)

    def draw_entries(self, n: int, rng: np.random.Generator):
        """Diagonal (n,) and strict upper triangle (n(n-1)/2,) of one raw
        matrix, from one block of standard normals."""
        m = n * (n - 1) // 2
        if self.beta == 1:
            z = rng.standard_normal(n + m)
            return z[:n] * math.sqrt(self.sigma2), z[n:]
        z = rng.standard_normal(n + 2 * m)
        return z[:n] * math.sqrt(self.sigma2), (z[n : n + m] + 1j * z[n + m :]) / math.sqrt(2.0)

    def proposal(self, mech: str, shift: float):
        """(plant, weight_var): plant(mat, rng) shifts the planted real part
        to shift + sd*z and returns the log density ratio; weight_var is the
        exact weight variance expm1(shift**2 / sd**2).  plant writes only
        inside mat[:2, :2]."""
        sd = math.sqrt(self.sigma2 if mech == "diag" else 1.0 / self.beta)
        beta = self.beta

        def plant(mat: np.ndarray, rng: np.random.Generator) -> float:
            z = float(rng.standard_normal())
            entry = shift + sd * z
            if mech == "diag":
                mat[0, 0] = entry
            else:
                new = entry + 1j * mat[0, 1].imag if beta == 2 else entry
                mat[0, 1] = new
                mat[1, 0] = np.conj(new)
            return -shift * shift / (2.0 * sd * sd) - shift * z / sd

        with np.errstate(over="ignore"):  # inf is the honest variance past the float range
            weight_var = float(np.expm1(shift * shift / (sd * sd)))
        return plant, weight_var

    def to_json(self) -> dict:
        return {"kind": "gaussian", "sigma2": self.sigma2, "beta": self.beta}

    @classmethod
    def from_json(cls, obj: dict) -> "GaussianProfile":
        return cls(sigma2=float(obj["sigma2"]), beta=int(obj["beta"]))


@dataclass(frozen=True)
class TailProfile:
    """Parameters of the stretched-exponential-tail entry law.

    alpha is the tail exponent, b the diagonal tail rate, a the
    off-diagonal one, t0 the onset of the exact tail.  phase_diag must be
    a real phase law (matrix diagonals are real); phase_offdiag decides
    the symmetry class (rademacher -> beta=1, uniform_s1 -> beta=2).
    """

    alpha: float
    a: float
    b: float
    t0: float = 2.0
    phase_diag: str = "rademacher"
    phase_offdiag: str = "rademacher"
    normalize_variance: bool = True

    def __post_init__(self):
        if not (0 < self.alpha < 2):
            raise ValueError(f"alpha must be in (0, 2), got {self.alpha}")
        if self.a <= 0 or self.b <= 0 or self.t0 <= 0:
            raise ValueError("a, b, t0 must be positive")
        if self.phase_diag != "rademacher":
            raise ValueError("diagonal phase law must be rademacher (real entries)")
        if self.phase_offdiag not in _PHASE_LAWS:
            raise ValueError(f"unknown phase law {self.phase_offdiag!r}")
        # build the modulus laws once; may raise CalibrationError
        if self.normalize_variance:
            s_off = _solve_core_scale(self.a, self.alpha, self.t0)
            law = TwoPieceModulus(self.a, self.alpha, self.t0, s_off)
            m2, _ = integrate.quad(lambda t: t * t * float(law.pdf(t)), 0.0, self.t0, limit=200)
            m2 += TwoPieceModulus.tail_second_moment(self.a, self.alpha, self.t0)
            if abs(m2 - 1.0) > 1e-6:
                raise CalibrationError(f"variance calibration off by {m2 - 1.0:.2e}")
        else:
            s_off = self.t0 / 2.0
        object.__setattr__(self, "_offdiag_law", TwoPieceModulus(self.a, self.alpha, self.t0, s_off))
        object.__setattr__(self, "_diag_law", TwoPieceModulus(self.b, self.alpha, self.t0, self.t0 / 2.0))

    @property
    def beta(self) -> int:
        """Symmetry class of the matrix, set by the off-diagonal phase law."""
        return 2 if self.phase_offdiag == "uniform_s1" else 1

    def speed(self, p: int) -> float:
        """Exponent s of the deviation speed n**s of tr_n X_n**p."""
        return self.alpha * (0.5 + 1.0 / p)

    def _pair_cost(self, p: int) -> float:
        """Cost a 2**(-alpha/p) of the off-diagonal pair with tr A**p = 1."""
        return 2.0 ** (-self.alpha / p) * self.a

    def mechanism(self, p: int) -> str:
        """Deviation channel with the smaller rate coefficient (diagonal
        wins ties)."""
        return "diag" if self.b <= self._pair_cost(p) else "offdiag"

    def rate_spec(self, p: int) -> RateSpec | None:
        """Closed-form rate for alpha <= 1 and even p >= 4, where the rate
        constant is min(b, 2**(-alpha/p) a); None otherwise (only the
        varopt bracket is known)."""
        if self.alpha <= 1.0 and p % 2 == 0 and p >= 4:
            return RateSpec.for_wg(p, min(self.b, self._pair_cost(p)), self.alpha)
        return None

    def modulus_law(self, role: str) -> TwoPieceModulus:
        if role == "diagonal":
            return self._diag_law
        if role == "offdiagonal":
            return self._offdiag_law
        raise ValueError(f"role must be diagonal or offdiagonal, got {role!r}")

    def sample_entries(self, role: str, rng: np.random.Generator, size: int) -> np.ndarray:
        """size entries of one role; moduli and phases are drawn apart, so
        P(X/|X| in U, |X| >= t) = nu(U) P(|X| >= t) holds at every t."""
        mod = self.modulus_law(role).sample(rng, size)
        phase_law = self.phase_diag if role == "diagonal" else self.phase_offdiag
        return mod * _sample_phase(phase_law, rng, size)

    def draw_entries(self, n: int, rng: np.random.Generator):
        """Diagonal (n,) and strict upper triangle (n(n-1)/2,) of one raw
        matrix, diagonal first."""
        return self.sample_entries("diagonal", rng, n), self.sample_entries("offdiagonal", rng, n * (n - 1) // 2)

    def proposal(self, mech: str, shift: float):
        """(plant, None): plant(mat, rng) writes a modulus tilted by
        exp(eta t**alpha) toward the shift, with a fresh phase, and returns
        the log density ratio; no closed-form weight variance exists.
        plant writes only inside mat[:2, :2]."""
        law = self.modulus_law("diagonal" if mech == "diag" else "offdiagonal")
        alpha, beta = self.alpha, self.beta
        eta = 0.0
        if shift > 0:
            eta = max(0.0, min(law.c - math.log(2.0) / shift ** alpha, 0.95 * law.c))
        log_Z = math.log(law.tilt_normalizer(eta))

        def plant(mat: np.ndarray, rng: np.random.Generator) -> float:
            t = float(law.sample_tilted(eta, rng, 1)[0])
            if mech == "diag":
                mat[0, 0] = (1.0 if rng.random() < 0.5 else -1.0) * t
            else:
                phase = 1.0 if beta == 1 else np.exp(2j * np.pi * rng.random())
                if beta == 1 and rng.random() < 0.5:
                    phase = -1.0
                mat[0, 1] = phase * t
                mat[1, 0] = np.conj(phase * t)
            return log_Z - eta * t ** alpha

        return plant, None

    def to_json(self) -> dict:
        d = asdict(self)
        d["kind"] = "tail"
        return d

    @classmethod
    def from_json(cls, obj: dict) -> "TailProfile":
        obj = {k: v for k, v in obj.items() if k != "kind"}
        return cls(**obj)

    @classmethod
    def with_feasible_t0(cls, alpha: float, a: float, b: float, **kw) -> "TailProfile":
        """Profile whose t0 is bumped 10% above the calibration limit."""
        t_min = _minimal_feasible_t0(a, alpha)
        return cls(alpha=alpha, a=a, b=b, t0=1.1 * t_min, **kw)


def _sample_phase(law: str, rng: np.random.Generator, size: int):
    if law == "rademacher":
        return rng.integers(0, 2, size=size) * 2.0 - 1.0
    theta = rng.random(size) * 2.0 * np.pi
    return np.exp(1j * theta)


def draw_wigner_entries(source, n: int, rng: np.random.Generator):
    """Diagonal (n,) and off-diagonal (n(n-1)/2,) entry draws for one matrix."""
    return source.draw_entries(n, rng)


@dataclass
class CalibrationRow:
    t: float
    ratio: float
    ci_low: float
    ci_high: float
    n_exceed: int
    below_onset: bool


def tail_calibration_report(
    profile: TailProfile,
    n_samples: int,
    t_grid,
    rng: np.random.Generator,
    role: str = "offdiagonal",
) -> list[CalibrationRow]:
    """Empirical -log P(|X| > t) / t**alpha per grid point, with Wilson CI.

    For t >= t0 the ratio should match the tail rate (a or b); rows below
    the onset are flagged rather than judged.
    """
    from .stats import wilson_interval

    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.size == 0:
        raise ValueError("empty threshold grid")
    law = profile.modulus_law(role)
    mods = law.sample(rng, int(n_samples))
    rows = []
    for t in t_grid:
        hits = int(np.count_nonzero(mods > t))
        p_lo, p_hi = wilson_interval(hits, int(n_samples))
        ta = t ** profile.alpha
        ratio = -math.log(hits / n_samples) / ta if hits else math.inf
        lo = -math.log(p_hi) / ta if p_hi > 0 else math.inf
        hi = -math.log(p_lo) / ta if p_lo > 0 else math.inf
        rows.append(CalibrationRow(float(t), ratio, lo, hi, hits, bool(t < profile.t0)))
    return rows


def profile_from_json(obj: dict):
    """Inverse of the profiles' to_json (accepts a dict or JSON string)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    kind = obj.get("kind", "gaussian")
    if kind == "gaussian":
        return GaussianProfile.from_json(obj)
    if kind == "tail":
        return TailProfile.from_json(obj)
    raise ValueError(f"unknown profile kind {kind!r}")
