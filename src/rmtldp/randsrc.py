"""Entry-level random sources for Wigner-type matrices.

A profile owns every fact about its entry law that the estimators use:
``beta``, ``is_invariant``, ``speed(p)``, ``mechanism(p)``,
``rate_spec(p)``, ``draw_entries(n, rngs)`` and ``proposal(mech, shift)``.
Both work on a batch, one generator per matrix: ``draw_entries`` returns
diagonals (count, n) and strict upper triangles (count, n(n-1)/2), and
the proposal's ``plant(entries, rngs)`` maps the current raw entries to
(planted entries, log density ratios), each of shape (count,); the
estimators place them.  An invariant profile also has
``draw_tridiagonals(n, rngs)``, a batch of Dumitriu-Edelman tridiagonals
(2n - 1 draws each, not n**2) whose spectrum has the matrix's law.

A batch consumes each generator exactly as a one-generator draw would,
in the same per-stream order: the generator calls come first, in loops
over the generators, and the arithmetic on the draws then runs once over
the batch; a one-generator draw is row 0 of the batch draw of ``[rng]``.
Rademacher signs come from one float32 ``random`` call per generator, bit
for bit the draws (and the generator state) of ``integers(0, 2, size)``
(see ``draw_role``).  Two families:

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
import numbers
from dataclasses import dataclass, asdict

import numpy as np
from scipy import integrate, special

from .matcore import hermite_dofs
from .rates import RateSpec, require_positive

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

    @staticmethod
    def _core_second_moment(t0: float, s: float) -> float:
        """Second moment of a half-Gaussian of scale s truncated to [0, t0]."""
        rho = t0 / s
        if rho < 0.05:
            u = rho * rho
            return t0 ** 2 * (1.0 / 3.0 - 2.0 * u / 45.0)
        z = _norm_cdf(rho) - 0.5
        if z <= 0.0 or rho > 38.0:
            return s * s
        return s * s * (1.0 - rho * _norm_pdf(rho) / z)

    def second_moment(self) -> float:
        return self.core_mass * self._core_second_moment(self.t0, self.s) + self.tail_second_moment(
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

    def draw(self, rngs, size: int, eta: float = 0.0) -> np.ndarray:
        """(len(rngs), size) draws, one row per generator, from the law
        tilted by exp(eta t**alpha) (eta = 0: the law itself).  Each
        generator makes the calls of a one-generator draw: random(size),
        then standard_exponential(k) for its k tail draws, then the core's
        random(size - k) (eta = 0) or rejection loop (eta > 0).  One loop
        draws every row's uniforms, one count gives every row's k, a second
        loop draws the exponentials and cores; the tail power and the
        core's inverse CDF then run once over the batch."""
        tail_mass = self._tilt(eta)[1] if eta else self.tail_mass
        u = np.empty((len(rngs), size))
        for rng, ur in zip(rngs, u):
            rng.random(out=ur)
        is_tail = u < tail_mass
        counts = np.count_nonzero(is_tail, axis=1)
        w = np.empty_like(u)  # per row: its k exponentials, then its core's uniforms (or moduli)
        for rng, wr, k in zip(rngs, w, counts.tolist()):
            if k:
                rng.standard_exponential(out=wr[:k])
            if k < size and eta:
                wr[k:] = self._tilted_core(eta, rng, size - k)
            elif k < size:
                rng.random(out=wr[k:])
        # boolean indexing walks rows in order, so a row's tail draws land on its
        # positions with u < tail_mass, in order, and its core draws on the rest
        packed_tail = np.arange(size) < counts[:, None]
        out = np.empty_like(w)
        out[is_tail] = (self._t0_alpha + w[packed_tail] / (self.c - eta)) ** (1.0 / self.alpha)
        core = w[~packed_tail]
        out[~is_tail] = core if eta else np.minimum(self.s * special.ndtri(0.5 + core * self._core_z), self.t0)
        return out

    def _tilted_core(self, eta: float, rng: np.random.Generator, j: int) -> np.ndarray:
        """j core draws of the tilted law, by rejection from the untilted
        core; acceptance exp(eta(t^a - t0^a)) <= 1."""
        got = np.empty(0)
        while got.size < j:
            cand = self.draw([rng], max(j, 64))[0]
            cand = cand[cand <= self.t0]
            acc = rng.random(cand.size) < np.exp(eta * (cand ** self.alpha - self._t0_alpha))
            got = np.concatenate([got, cand[acc]])
        return got[:j]

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

    def sample_tilted(self, eta: float, rngs, size: int) -> np.ndarray:
        """(len(rngs), size) draws from the tilted law q(t) = pdf(t)
        exp(eta t**alpha) / Z, one row per generator (see draw)."""
        return self.draw(rngs, size, eta)


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
        return TwoPieceModulus._core_second_moment(t0, s) - target

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
        require_positive(sigma2=self.sigma2)
        if isinstance(self.beta, bool) or not isinstance(self.beta, numbers.Integral) or self.beta not in (1, 2):
            raise ValueError(f"beta must be the integer 1 or 2, got {self.beta!r}")

    def speed(self, p: int) -> float:
        """Exponent s of the deviation speed n**s of tr_n X_n**p."""
        return 1.0 + 2.0 / p

    def mechanism(self, p: int) -> str:
        """Deviation channel with the smaller rate coefficient (diagonal
        wins ties)."""
        return "diag" if 1.0 / self.sigma2 <= self.beta / 2.0 else "offdiag"

    def rate_spec(self, p: int) -> RateSpec | None:
        """Closed-form rate for p >= 3; None below, where none is known."""
        return RateSpec.for_gaussian(p, self.sigma2, self.beta) if p >= 3 else None

    @property
    def is_invariant(self) -> bool:
        """sigma2 * beta == 2: the GOE (2, 1) and the GUE (1, 2), whose law
        is orthogonally (unitarily) invariant."""
        return self.sigma2 * self.beta == 2

    def draw_entries(self, n: int, rngs):
        """Diagonals (count, n) and strict upper triangles (count,
        n(n-1)/2) of raw matrices, one per generator, each from one
        standard_normal call of n + beta * n(n-1)/2 normals."""
        m = n * (n - 1) // 2
        z = np.empty((len(rngs), n + self.beta * m))
        for row, rng in zip(z, rngs):
            rng.standard_normal(out=row)
        if self.beta == 1:
            return z[:, :n] * math.sqrt(self.sigma2), z[:, n:]
        return z[:, :n] * math.sqrt(self.sigma2), (z[:, n : n + m] + 1j * z[:, n + m :]) / math.sqrt(2.0)

    def draw_tridiagonals(self, n: int, rngs):
        """Dumitriu-Edelman tridiagonals (a, b), one per generator, of 2n - 1
        draws: a_i ~ N(0, sigma2) (count, n) by one standard_normal call, then
        b_i = sqrt(chi2_{beta(n-i)} / beta) (count, n - 1) by one chisquare
        call.  For an invariant profile the spectrum of (a, b) has the raw
        matrix's law (Dumitriu & Edelman, J. Math. Phys. 2002)."""
        dofs = hermite_dofs(self.beta, n)
        a, b = np.empty((len(rngs), n)), np.empty((len(rngs), n - 1))
        for ar, br, rng in zip(a, b, rngs):
            rng.standard_normal(out=ar)
            br[:] = rng.chisquare(dofs)
        return a * math.sqrt(self.sigma2), np.sqrt(b / self.beta)

    def proposal(self, mech: str, shift: float):
        """(plant, weight_var): plant(entries, rngs) draws one normal z per
        generator and returns the raw entries with their real parts redrawn
        as shift + sd*z (complex off-diagonal entries keep their imaginary
        parts) and the log density ratios; weight_var is the exact weight
        variance expm1(shift**2 / sd**2)."""
        sd = math.sqrt(self.sigma2 if mech == "diag" else 1.0 / self.beta)
        keep_imag = mech != "diag" and self.beta == 2

        def plant(entries, rngs):
            z = np.array([rng.standard_normal() for rng in rngs])
            new = shift + sd * z
            if keep_imag:
                new = new + 1j * entries.imag
            return new, -shift * shift / (2.0 * sd * sd) - shift * z / sd

        with np.errstate(over="ignore"):  # inf is the honest variance past the float range
            weight_var = float(np.expm1(shift * shift / (sd * sd)))
        return plant, weight_var

    def to_json(self) -> dict:
        return {"kind": "gaussian", "sigma2": self.sigma2, "beta": self.beta}

    @classmethod
    def from_json(cls, obj: dict) -> "GaussianProfile":
        beta = obj["beta"]
        if isinstance(beta, float) and beta.is_integer():
            beta = int(beta)
        return cls(sigma2=obj["sigma2"], beta=beta)


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
        require_positive(alpha=self.alpha, a=self.a, b=self.b, t0=self.t0)
        if not self.alpha < 2:
            raise ValueError(f"alpha must be in (0, 2), got {self.alpha}")
        if not isinstance(self.normalize_variance, bool):
            raise ValueError(f"normalize_variance must be true or false, got {self.normalize_variance!r}")
        if self.phase_diag != "rademacher":
            raise ValueError("diagonal phase law must be rademacher (real entries)")
        if self.phase_offdiag not in _PHASE_LAWS:
            raise ValueError(f"unknown phase law {self.phase_offdiag!r}")
        # build the modulus laws once; may raise CalibrationError
        s_off = _solve_core_scale(self.a, self.alpha, self.t0) if self.normalize_variance else self.t0 / 2.0
        law = TwoPieceModulus(self.a, self.alpha, self.t0, s_off)
        if self.normalize_variance:
            m2, _ = integrate.quad(lambda t: t * t * float(law.pdf(t)), 0.0, self.t0, limit=200)
            m2 += TwoPieceModulus.tail_second_moment(self.a, self.alpha, self.t0)
            if abs(m2 - 1.0) > 1e-6:
                raise CalibrationError(f"variance calibration off by {m2 - 1.0:.2e}")
        object.__setattr__(self, "_offdiag_law", law)
        object.__setattr__(self, "_diag_law", TwoPieceModulus(self.b, self.alpha, self.t0, self.t0 / 2.0))

    # a heavy-tailed law is never orthogonally invariant
    is_invariant = False

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

    def draw_role(self, role: str, rngs, size: int) -> np.ndarray:
        """(len(rngs), size) entries of one role, one row per generator;
        each draws its moduli and then its phases apart, so
        P(X/|X| in U, |X| >= t) = nu(U) P(|X| >= t) holds at every t.

        A Rademacher sign is +1 where a float32 uniform is >= 0.5.  That
        uniform is (u32 >> 8) 2**-24 of one 32-bit word, and integers(0, 2)
        takes the bit u32 >> 31 of the same word (Lemire's method never
        rejects on a range of 2), so the signs, and the generator's state
        after them, are those of integers(0, 2, size): one cheaper call."""
        mod = self.modulus_law(role).draw(rngs, size)
        rademacher = (self.phase_diag if role == "diagonal" else self.phase_offdiag) == "rademacher"
        u = np.empty((len(rngs), size), dtype=np.float32 if rademacher else np.float64)
        for row, rng in zip(u, rngs):
            rng.random(dtype=u.dtype, out=row)
        if rademacher:
            return mod * np.where(u >= 0.5, 1.0, -1.0)
        return mod * np.exp(1j * (u * 2.0 * np.pi))

    def draw_entries(self, n: int, rngs):
        """Diagonals (count, n) and strict upper triangles (count,
        n(n-1)/2) of raw matrices, one per generator, diagonal first."""
        return self.draw_role("diagonal", rngs, n), self.draw_role("offdiagonal", rngs, n * (n - 1) // 2)

    def proposal(self, mech: str, shift: float):
        """(plant, None): plant(entries, rngs) ignores the current entries
        and returns, per generator, a modulus tilted by exp(eta t**alpha)
        toward the shift, with a fresh sign or phase, and the log density
        ratio; no closed-form weight variance exists."""
        law = self.modulus_law("diagonal" if mech == "diag" else "offdiagonal")
        alpha, beta = self.alpha, self.beta
        eta = 0.0
        if shift > 0:
            eta = max(0.0, min(law.c - math.log(2.0) / shift ** alpha, 0.95 * law.c))
        log_Z = math.log(law.tilt_normalizer(eta))

        def plant(entries, rngs):
            t = law.sample_tilted(eta, rngs, 1)[:, 0]
            u = np.array([rng.random() for rng in rngs])
            if mech == "diag":
                phase = np.where(u < 0.5, 1.0, -1.0)
            elif beta == 1:
                phase = np.where(u < 0.5, -1.0, 1.0)
            else:
                phase = np.exp(2j * np.pi * u)
            # Python-float powers: numpy's array power differs from them in the last bit
            return phase * t, np.array([log_Z - eta * v ** alpha for v in t.tolist()])

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


def draw_wigner_entries(source, n: int, rngs):
    """Diagonals (count, n) and strict upper triangles (count, n(n-1)/2)
    of raw matrices, one per generator."""
    return source.draw_entries(n, rngs)


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
    the onset are flagged rather than judged.  A threshold that is not
    finite and positive raises ValueError naming it.
    """
    from .stats import wilson_interval

    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.size == 0:
        raise ValueError("empty threshold grid")
    for t in t_grid:
        if not (math.isfinite(t) and t > 0):
            raise ValueError(f"thresholds must be finite and positive, got t={t}")
    law = profile.modulus_law(role)
    mods = law.draw([rng], int(n_samples))[0]
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
