"""Coulomb log-gas sampling for convex power-law potentials.

The target is the density proportional to

    prod_{i<j} |l_i - l_j|**beta * exp(-N sum_i V(l_i)).

For V = b x**2 (alpha = 2, no remainder) this is the beta-Hermite ensemble,
which sample_beta_hermite draws exactly and iid from the Dumitriu-Edelman
tridiagonal model.  Every other potential is sampled by single-coordinate
Metropolis.  Each sweep forms every proposal and its potential change at
once (coordinate i is untouched until its own update); per coordinate, one
stacked (2, N) log-difference gives the interaction change (O(N) per
coordinate, O(N^2) per sweep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import hermite_dofs, trace_powers, tridiagonal_eigvals
from .rates import require_finite, require_positive
from .rng import stream
from .stats import DeviationEstimate, batch_mean_stderr, binomial_estimate, geweke_z

__all__ = [
    "Potential",
    "GasState",
    "loggas_logdensity",
    "log_accept_probability",
    "mcmc_sweep",
    "run_chain",
    "draw_tridiagonal",
    "sample_beta_hermite",
    "moment",
    "truncated_moment",
    "MomentEstimate",
    "estimate_equilibrium_moment",
    "iid_truncated_tail",
    "lipschitz_concentration_probe",
    "LIPSCHITZ_REGISTRY",
    "concentration_bound",
]

_W_KINDS = ("zero", "abs", "quadratic")
_TARGET_ACCEPTANCE = 0.4
_TUNE_INTERVAL = 100


@dataclass(frozen=True)
class Potential:
    """V(x) = b |x|**alpha + w(x) with a convex remainder from a small
    registry: zero, c|x|, or c x**2 (the quadratic remainder is only
    admissible when alpha > 2, otherwise it would not be lower order)."""

    b: float
    alpha: float
    beta: float
    w_kind: str = "zero"
    w_coef: float = 0.0

    def __post_init__(self):
        require_positive(b=self.b, alpha=self.alpha, beta=self.beta)
        require_finite(w_coef=self.w_coef)
        if self.alpha < 2:
            raise ValueError(f"alpha must be >= 2, got {self.alpha}")
        if self.w_kind not in _W_KINDS:
            raise ValueError(f"remainder must be one of {_W_KINDS}, got {self.w_kind!r}")
        if self.w_coef < 0:
            raise ValueError(f"w_coef must be nonnegative, got {self.w_coef}")
        if self.w_kind == "zero" and self.w_coef != 0:
            raise ValueError(f"w_coef must be 0 for the zero remainder, got {self.w_coef}")
        if self.w_kind == "quadratic" and self.w_coef > 0 and not self.alpha > 2:
            raise ValueError("quadratic remainder requires alpha > 2")

    def value(self, x):
        """V(x), scalar or vectorized."""
        ax = np.abs(x)
        v = self.b * ax ** self.alpha
        if self.w_coef:
            if self.w_kind == "abs":
                v = v + self.w_coef * ax
            elif self.w_kind == "quadratic":
                v = v + self.w_coef * ax ** 2
        return v

    @property
    def is_beta_hermite(self) -> bool:
        """True when the gas is the beta-Hermite ensemble V = b x**2, which
        sample_beta_hermite draws exactly (a quadratic remainder is not
        admissible at alpha = 2, so no remainder coefficient means none)."""
        return self.alpha == 2 and self.w_coef == 0

    def to_json(self) -> dict:
        return {"b": self.b, "alpha": self.alpha, "beta": self.beta,
                "w_kind": self.w_kind, "w_coef": self.w_coef}

    @classmethod
    def from_json(cls, obj: dict) -> "Potential":
        return cls(**obj)


def loggas_logdensity(lambdas, potential: Potential) -> float:
    """Log-density up to an additive constant; -inf on exact collisions."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise ValueError("need a 1-D configuration with N >= 2")
    if not np.all(np.isfinite(lam)):
        raise ValueError("non-finite configuration")
    n = lam.size
    diffs = np.abs(lam[:, None] - lam[None, :])[np.triu_indices(n, k=1)]
    if np.any(diffs == 0.0):
        return -math.inf
    return float(potential.beta * np.sum(np.log(diffs)) - n * np.sum(potential.value(lam)))


def log_accept_probability(delta: float) -> float:
    """log min(1, exp(delta)): the Metropolis rule mcmc_sweep applies to log u."""
    return min(0.0, delta)


@dataclass
class GasState:
    """Mutable chain state: configuration, proposal scale, counters.

    window_accept and window_proposals count the sweeps since the last
    tuning-window boundary (a multiple of _TUNE_INTERVAL in sweep_count),
    so a tuned chain resumes mid-window."""

    lambdas: np.ndarray
    step: float
    rng: np.random.Generator
    accept_count: int = 0
    proposal_count: int = 0
    sweep_count: int = 0
    window_accept: int = 0
    window_proposals: int = 0

    @classmethod
    def initial(cls, potential: Potential, N: int, seed: int) -> "GasState":
        if N < 2:
            raise ValueError("N must be >= 2")
        # start spread across the scale where N*V ~ 1 particle-wise
        radius = max(1.0, (2.0 / potential.b) ** (1.0 / potential.alpha))
        lam = np.linspace(-radius, radius, N)
        return cls(lambdas=lam, step=0.5 / math.sqrt(N), rng=stream(seed, 7, 0))

    @property
    def acceptance_rate(self) -> float:
        return self.accept_count / self.proposal_count if self.proposal_count else 0.0

    def checkpoint(self, potential: Potential) -> dict:
        st = self.rng.bit_generator.state
        rng_state = {
            "bit_generator": st["bit_generator"],
            "counter": [int(v) for v in st["state"]["counter"]],
            "key": [int(v) for v in st["state"]["key"]],
            "buffer": [int(v) for v in st["buffer"]],
            "buffer_pos": int(st["buffer_pos"]),
            "has_uint32": int(st["has_uint32"]),
            "uinteger": int(st["uinteger"]),
        }
        return {
            "potential": potential.to_json(),
            "N": int(self.lambdas.size),
            "lambdas": [float(v) for v in self.lambdas],
            "step": self.step,
            "sweep_count": self.sweep_count,
            "accept_count": self.accept_count,
            "proposal_count": self.proposal_count,
            "window_accept": self.window_accept,
            "window_proposals": self.window_proposals,
            "rng_state": rng_state,
        }

    @classmethod
    def from_checkpoint(cls, obj: dict) -> tuple["GasState", Potential]:
        """Inverse of checkpoint.  Raises ValueError naming a field that is
        not a JSON number of its kind: lambdas must be a list of at least 2
        finite numbers, N long; step finite and positive; the counters
        non-negative integers (absent counters other than sweep_count are 0)."""
        potential = Potential.from_json(obj["potential"])
        lambdas = obj["lambdas"]
        if not isinstance(lambdas, list) or len(lambdas) < 2:
            raise ValueError(f"lambdas must be a list of at least 2 numbers, got {lambdas!r}")
        for value in lambdas:
            require_finite(lambdas=value)
        if _count(obj, "N") != len(lambdas):
            raise ValueError(f"N={obj['N']} disagrees with the {len(lambdas)} lambdas")
        require_positive(step=obj["step"])
        rs = obj["rng_state"]
        bg = np.random.Philox()
        bg.state = {
            "bit_generator": rs["bit_generator"],
            "state": {
                "counter": np.array(rs["counter"], dtype=np.uint64),
                "key": np.array(rs["key"], dtype=np.uint64),
            },
            "buffer": np.array(rs["buffer"], dtype=np.uint64),
            "buffer_pos": rs["buffer_pos"],
            "has_uint32": rs["has_uint32"],
            "uinteger": rs["uinteger"],
        }
        state = cls(
            lambdas=np.asarray(lambdas, dtype=float),
            step=float(obj["step"]),
            rng=np.random.Generator(bg),
            sweep_count=_count(obj, "sweep_count"),
            accept_count=_count(obj, "accept_count", 0),
            proposal_count=_count(obj, "proposal_count", 0),
            window_accept=_count(obj, "window_accept", 0),
            window_proposals=_count(obj, "window_proposals", 0),
        )
        return state, potential


def _count(obj: dict, key: str, default=None) -> int:
    """obj[key] (or default) as an int; only a non-negative integral JSON number is one."""
    value = obj[key] if default is None else obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not float(value).is_integer() or value < 0:
        raise ValueError(f"{key} must be a non-negative integer, got {value!r}")
    return int(value)


def mcmc_sweep(state: GasState, potential: Potential) -> GasState:
    """One Metropolis pass over all coordinates (in place).

    The proposal draws and uniforms are consumed in a fixed order, so a
    sweep is reproducible from the state's stream position alone.
    Coordinate i is untouched until its own update, so all proposals and
    their potential changes are formed up front; per coordinate, one (2, N)
    array of distances gives both log-interaction sums in one reduction.
    """
    lam = state.lambdas
    n = lam.size
    beta = potential.beta
    xi = state.rng.standard_normal(n)
    logu = np.log(state.rng.random(n)).tolist()
    ends = np.stack((lam + state.step * xi, lam))  # rows: proposal, current value
    props = ends[0].tolist()
    # V on numpy scalars (libm pow): the array power rounds some values
    # differently in the last bit, which would change the deltas
    dv = [n * float(potential.value(new) - potential.value(old)) for new, old in zip(*ends)]
    dist = np.empty((2, n))
    accepted = 0
    with np.errstate(divide="ignore"):
        for i in range(n):
            np.subtract(lam, ends[:, i:i + 1], out=dist)
            dist[0, i] = dist[1, i] = 1.0
            np.abs(dist, out=dist)
            np.log(dist, out=dist)
            s_new, s_old = dist.sum(axis=1).tolist()
            if logu[i] <= log_accept_probability(beta * (s_new - s_old) - dv[i]):
                lam[i] = props[i]
                accepted += 1
    state.proposal_count += n
    state.accept_count += accepted
    state.sweep_count += 1
    return state


def run_chain(
    state: GasState,
    potential: Potential,
    n_sweeps: int,
    tune: bool = False,
) -> GasState:
    """Run n_sweeps sweeps; optionally adapt the step toward the target
    acceptance rate _TARGET_ACCEPTANCE (only do this during burn-in, the
    adapted step must be frozen before samples are collected).

    Tuning windows end where state.sweep_count is a multiple of
    _TUNE_INTERVAL, and the open window's counts live in the state, so
    tuned runs of a and b sweeps equal one tuned run of a + b."""
    if n_sweeps < 0:
        raise ValueError(f"sweeps must be >= 0, got {n_sweeps}")
    for _ in range(n_sweeps):
        a0, p0 = state.accept_count, state.proposal_count
        mcmc_sweep(state, potential)
        state.window_accept += state.accept_count - a0
        state.window_proposals += state.proposal_count - p0
        if state.sweep_count % _TUNE_INTERVAL == 0:
            if tune and state.window_proposals:
                rate = state.window_accept / state.window_proposals
                if rate > _TARGET_ACCEPTANCE + 0.1:
                    state.step *= 1.2
                elif rate < _TARGET_ACCEPTANCE - 0.1:
                    state.step /= 1.2
            state.window_accept = state.window_proposals = 0
    return state


def draw_tridiagonal(beta: float, N: int, count: int, rng: np.random.Generator):
    """Diagonals a (count, N) and off-diagonals b (count, N - 1) of count
    Dumitriu-Edelman matrices T: a_i = sqrt(2) N(0, 1) and
    b_i = sqrt(chi2_{beta (N - i)}), i = 1..N-1, every normal drawn before
    any chi2.  The eigenvalues of T have joint density proportional to
    prod |m_i - m_j|**beta exp(-sum m_i**2 / 4) for any real beta > 0
    (Dumitriu & Edelman, J. Math. Phys. 2002)."""
    if N < 2:
        raise ValueError("N must be >= 2")
    a = math.sqrt(2.0) * rng.standard_normal((count, N))
    b = np.sqrt(rng.chisquare(hermite_dofs(beta, N), size=(count, N - 1)))
    return a, b


def sample_beta_hermite(potential: Potential, N: int, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """n_samples iid configurations of the gas V = b x**2, shape (n_samples, N),
    each row ascending.

    The eigenvalues of the tridiagonal T of draw_tridiagonal, scaled:
    lambda = eig(T) / sqrt(4 N b).  All entries are drawn before any
    eigenvalue is taken, so the draws do not depend on the block size.
    """
    if not potential.is_beta_hermite:
        raise ValueError("the beta-Hermite draw needs alpha == 2 and no remainder")
    a, b = draw_tridiagonal(potential.beta, N, n_samples, rng)
    return tridiagonal_eigvals(a, b) / math.sqrt(4.0 * N * potential.b)


def moment(lambdas, p: int) -> float:
    """(1/N) sum lambda_i**p."""
    lam = np.asarray(lambdas, dtype=float)
    return float(np.mean(lam ** p))


def truncated_moment(lambdas, p: int) -> float:
    """Contribution of the floor(ln N) largest-|.| coordinates to the
    p-th moment: (1/N) * sum of their p-th powers."""
    lam = np.asarray(lambdas, dtype=float)
    n = lam.size
    k = int(math.floor(math.log(n)))
    if k < 1:
        raise ValueError(f"need N >= 3 so that floor(ln N) >= 1, got N={n}")
    idx = np.argsort(-np.abs(lam))[:k]
    return float(np.sum(lam[idx] ** p) / n)


def _chain_samples(potential: Potential, N: int, seed: int, burn_in: int, thin: int, n_samples: int, statistic) -> np.ndarray:
    """statistic(lambdas) every `thin` sweeps of one chain, after a tuned burn-in."""
    state = GasState.initial(potential, N, seed)
    run_chain(state, potential, burn_in, tune=True)
    samples = np.empty(n_samples)
    for k in range(n_samples):
        run_chain(state, potential, thin, tune=False)
        samples[k] = statistic(state.lambdas)
    return samples


@dataclass
class MomentEstimate:
    estimate: float
    stderr: float
    geweke: float
    flagged: bool
    n_samples: int
    method: str  # "beta_hermite" or "chain"


def estimate_equilibrium_moment(
    potential: Potential,
    p: int,
    N: int,
    n_samples: int,
    seed: int = 0,
    burn_in: int = 10_000,
    thin: int | None = None,
) -> MomentEstimate:
    """Monte Carlo estimate of the equilibrium measure's p-th moment from
    n_samples values of the empirical moment (1/N) sum lambda_i**p.

    When potential.is_beta_hermite the values come from iid exact
    Dumitriu-Edelman draws T on stream (seed, 13), the same draws
    sample_beta_hermite makes there, as tr T**p / (N (4 N b)**(p/2)), with
    no eigenvalues for any p (matcore.trace_powers).  burn_in and thin are
    ignored, and the standard error is the iid one, sample sd /
    sqrt(n_samples).
    Otherwise they are thinned samples of one tuned Metropolis chain
    (burn_in sweeps, then one sample every thin sweeps, thin defaulting to
    N) with batch-mean standard error.  On both paths a Geweke score beyond
    3 flags (never hides) a non-stationary sample series; `method` says
    which path ran.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    method = "beta_hermite" if potential.is_beta_hermite else "chain"
    if p == 0:
        return MomentEstimate(1.0, 0.0, 0.0, False, 0, method)
    if method == "beta_hermite":
        tridiagonal = draw_tridiagonal(potential.beta, N, n_samples, stream(seed, 13))
        samples = trace_powers(tridiagonal, p) / (N * (4.0 * N * potential.b) ** (p / 2))
        stderr = float(np.std(samples, ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else math.inf
    else:
        if thin is None:
            thin = N
        samples = _chain_samples(potential, N, seed, burn_in, thin, n_samples, lambda lam: moment(lam, p))
        stderr = batch_mean_stderr(samples)
    z = geweke_z(samples)
    return MomentEstimate(
        estimate=float(samples.mean()),
        stderr=stderr,
        geweke=z,
        flagged=bool(abs(z) > 3.0),
        n_samples=n_samples,
        method=method,
    )


# ---------------------------------------------------------------------------
# iid comparison oracle: k = floor(ln N) independent draws from the single
# particle law with density proportional to exp(-N V(x))
# ---------------------------------------------------------------------------


def _rejection_envelope(potential: Potential, N: int):
    """Gaussian envelope matched at the mode (numerically bounded ratio)."""
    if potential.alpha == 2.0:  # no quadratic remainder is admissible here
        sigma = math.sqrt(1.0 / (2.0 * N * potential.b))
    else:
        sigma = 1.5 * (1.0 / (N * potential.b)) ** (1.0 / potential.alpha)
    x_hi = max(8.0 * sigma, (80.0 / (N * potential.b)) ** (1.0 / potential.alpha))
    grid = np.linspace(-x_hi, x_hi, 4001)
    logf = -N * potential.value(grid)
    logphi = -0.5 * (grid / sigma) ** 2 - math.log(sigma * math.sqrt(2 * math.pi))
    log_m = float(np.max(logf - logphi)) + 0.02
    return sigma, log_m


def sample_single_particle(potential: Potential, N: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Rejection sampling from exp(-N V(x)) dx / Z."""
    sigma, log_m = _rejection_envelope(potential, N)
    out = np.empty(0)
    while out.size < size:
        m = max(size - out.size, 256)
        z = rng.standard_normal(m) * sigma
        log_ratio = (-N * potential.value(z)) - (-0.5 * (z / sigma) ** 2 - math.log(sigma * math.sqrt(2 * math.pi))) - log_m
        keep = np.log(rng.random(m)) < log_ratio
        out = np.concatenate([out, z[keep]])
    return out[:size]


def iid_truncated_tail(
    potential: Potential,
    p: int,
    N: int,
    x: float,
    n_trials: int,
    seed: int = 0,
) -> DeviationEstimate:
    """P( (1/N) sum_{i<=floor(ln N)} X_i**p >= x ) for iid single-particle
    draws - the interaction-free benchmark for the truncated moment."""
    if x <= 0:
        raise ValueError("threshold x must be positive")
    k = int(math.floor(math.log(N)))
    if k < 1:
        raise ValueError("need N >= 3")
    rng = stream(seed, 11)
    draws = sample_single_particle(potential, N, k * n_trials, rng).reshape(n_trials, k)
    stat = draws ** p
    vals = stat.sum(axis=1) / N
    hits = int(np.count_nonzero(vals >= x))
    return binomial_estimate(N, x, hits, n_trials, 1.0 + potential.alpha / p, "iid_oracle")


# ---------------------------------------------------------------------------
# concentration probe for 1-Lipschitz linear statistics
# ---------------------------------------------------------------------------

LIPSCHITZ_REGISTRY = {
    "identity_clip": lambda x: np.clip(x, -10.0, 10.0),
    "abs_clip": lambda x: np.clip(np.abs(x), 0.0, 10.0),
    "sin": np.sin,
}


def concentration_bound(potential: Potential, N: int, t: float) -> float:
    """Analytic tail bound exp(-b N^2 t^alpha / (2^(alpha-1) alpha (alpha-1)^(alpha-1)))
    for the centered linear statistic of a 1-Lipschitz function."""
    a = potential.alpha
    denom = 2.0 ** (a - 1.0) * a * (a - 1.0) ** (a - 1.0)
    return math.exp(-potential.b * N * N * t ** a / denom)


@dataclass
class ConcentrationRow:
    t: float
    frequency: float
    stderr: float
    bound: float
    violated: bool


def lipschitz_concentration_probe(
    potential: Potential,
    f_name: str,
    N: int,
    t_grid,
    n_trials: int,
    seed: int = 0,
    burn_in: int = 10_000,
    thin: int = 8,
) -> list[ConcentrationRow]:
    """Empirical exceedance frequencies of the centered linear statistic
    against the analytic alpha-convex concentration bound.

    When potential.is_beta_hermite the statistic is taken on n_trials iid
    exact draws of sample_beta_hermite on stream (seed, 14), and burn_in
    and thin are ignored; otherwise on thinned samples of one tuned
    Metropolis chain (burn_in sweeps, then one sample every thin sweeps).
    The same samples are reused across the threshold grid, so the
    reported frequencies are weakly decreasing in t by construction.
    """
    f = LIPSCHITZ_REGISTRY[f_name]
    if potential.is_beta_hermite:
        g = np.mean(f(sample_beta_hermite(potential, N, int(n_trials), stream(seed, 14))), axis=1)
    else:
        g = _chain_samples(potential, N, seed, burn_in, thin, int(n_trials), lambda lam: np.mean(f(lam)))
    g_mean = g.mean()
    rows = []
    for t in np.atleast_1d(np.asarray(t_grid, dtype=float)):
        freq = float(np.mean(g - g_mean > t))
        se = math.sqrt(max(freq * (1 - freq), 1.0 / n_trials) / n_trials)
        bound = concentration_bound(potential, N, float(t))
        rows.append(ConcentrationRow(float(t), freq, se, bound, bool(freq > bound + 3.0 * se)))
    return rows
