"""Rare-event probability estimation for normalized trace powers.

Two estimators over one trial pass: trial k draws from its own Philox
stream rng.stream(seed, 1, k), and rng.streams keys each batch of 256
trials at once on the calling thread's pool of generators, so the batching
never changes results and calls on different threads never share a
generator.  The pass branches only on the profile's ``is_invariant``:

* an invariant profile (the GOE and the GUE) builds no matrix.  Its
  ``draw_tridiagonals`` draws each trial's Dumitriu-Edelman tridiagonal,
  2n - 1 draws (the dense pass takes n**2) with the law of the matrix's
  spectrum, and trace powers come from that (O(n p**2) per matrix).  Its
  mechanism is "diag", so a plant replaces a_1, a N(0, sigma2) value.
  That changes only the closed walks that step on vertex 1's loop, which
  stay within its first p/2 vertices: the planted trace power is the
  unplanted one plus the change of the leading min(n, p/2) block
  (O(p**3) per matrix, whatever n);
* any other profile assembles the raw dense matrix and takes its trace
  power without a rescaled copy.  A plant writes its entry into a copy of
  the matrix's 2x2 corner: the planted trace power is a rank-2 update of
  the unplanted one (O(p n**2) per matrix, no second product).

The estimators:

* naive       - plain exceedance frequency with a Wilson interval;
* planted_is  - self-normalized importance sampling whose proposal plants
  the single-entry deformation carrying the deviation: the raw (1,1)
  entry (or the (1,2) pair, whichever mechanism has the smaller rate
  coefficient) is shifted so the normalized matrix receives a spike of
  size (n*delta)**(1/p) with delta = x - center.  Weights are exact
  one-dimensional density ratios.

The estimators never look at the entry law itself.  They take any profile
with ``beta``, ``is_invariant``, ``speed(p)``, ``mechanism(p)``,
``rate_spec(p)``, ``draw_entries(n, rngs)`` and ``proposal(mech, shift)``
(see ``randsrc``), plus ``draw_tridiagonals(n, rngs)`` when invariant.
Each works on a whole batch: the plant ``plant(entries, rngs)`` maps the
batch's current raw entries to (planted entries, log density ratios), and
a batch consumes each trial's generator in the same order as a trial
drawn alone.  The position is this module's: (1,1) for the "diag"
mechanism, (1,2) and its conjugate (2,1) for "offdiag"; an invariant
profile whose mechanism is not "diag" raises ValueError.  A threshold
whose planting size or trace powers leave the float range raises
ValueError.

Estimates are asymptotic-regime probes: slopes -log p / n**speed are
reported against the closed-form rate for comparison, with no convergence
claim at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy import special

from .matcore import trace_power_corner_updates, trace_powers
from .rates import rate_value, semicircle_moment
from .rng import streams
from .stats import DeviationEstimate, binomial_estimate
from .wigner import assemble_hermitian, assemble_wigner_batch as _dense_trial_matrix, spike_size, triangle_layout

__all__ = [
    "estimate_tail_naive",
    "estimate_tail_planted_is",
    "ScanResult",
    "rate_slope_scan",
    "bounded_entry_concentration_probe",
]

_CHUNK = 256
_ESS_FLOOR = 50.0
_M_CAP = 16.0


def _normalized_trace_powers(mats, p: int) -> np.ndarray:
    """tr_n (M / sqrt(n))**p of every raw matrix M of a dense stack or of a
    tridiagonal (a, b) stack, without a rescaled copy: tr M**p / n**(p/2 + 1)."""
    n = (mats[0] if isinstance(mats, tuple) else mats).shape[-1]
    return trace_powers(mats, p) / n ** (p / 2 + 1)


def _batches(n_trials: int, *path: int):
    """(first trial index, one stream per trial) for each batch of up to _CHUNK trials; trial k
    draws from stream(*path, k), on the thread's pool re-keyed per batch: each is valid until the next."""
    for start in range(0, n_trials, _CHUNK):
        yield start, streams(*path, start=start, stop=min(start + _CHUNK, n_trials))


def _trial_values(model, n: int, p: int, n_trials: int, seed: int, plant=None):
    """Trace powers tr_n X**p of every trial, each trial drawn once.

    Returns (values, planted, logw).  Without a plant the last two are
    None.  With one, each batch's plant draws, from each trial's stream
    after its entries, an entry and its log density ratio (``logw``),
    placed at the position of model.mechanism(p).  An invariant profile's
    trials are Dumitriu-Edelman tridiagonals (a, b) of 2n - 1 draws,
    planted at a_1.  tr T**p sums the weights of closed p-walks on the path
    graph; a_1 weighs only the walks that step on the loop at vertex 1, and
    with p - 1 other steps those stay within vertices 1..p/2.  So
    ``planted`` is the unplanted value plus tr T'_B**p - tr T_B**p over the
    leading k x k blocks B, k = min(n, p/2): two trace powers of k-vertex
    tridiagonals, whatever n.
    Otherwise _plant_corners writes the entries into a copy of the
    matrices' [:2, :2] corners; a planted matrix differs from the
    unplanted one only there, so ``planted`` is the unplanted value plus
    the rank-2 update of matcore.trace_power_corner_updates (even p): no
    planted copy of the matrix is made and no second product is taken.  A
    trace power past the float range comes back non-finite, without a
    warning.  Each batch's generators are used within that batch only (see
    _batches).
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    values = np.empty(n_trials)
    planted = logw = None
    if plant is not None:
        planted, logw = np.empty(n_trials), np.empty(n_trials)
        mech = model.mechanism(p)
        if model.is_invariant and mech != "diag":
            raise ValueError(f"an invariant profile plants at (1,1), got mechanism {mech!r}")
        k = min(n, p // 2)  # a closed p-walk that steps on a_1 stays within vertices 1..p/2
    for start, rngs in _batches(n_trials, seed, 1):
        stop = start + len(rngs)
        with np.errstate(over="ignore", invalid="ignore"):  # the estimators raise on non-finite values
            if model.is_invariant:
                a, b = model.draw_tridiagonals(n, rngs)
                values[start:stop] = _normalized_trace_powers((a, b), p)
                if plant is not None:
                    head = a[:, :k], b[:, : k - 1]  # views: the plant writes a_1 through them
                    before = trace_powers(head, p)
                    a[:, 0], logw[start:stop] = plant(a[:, 0], rngs)
                    update = trace_powers(head, p) - before
                    planted[start:stop] = values[start:stop] + update / n ** (p / 2 + 1)
            else:
                mats = _dense_trial_matrix(model, n, rngs)
                values[start:stop] = _normalized_trace_powers(mats, p)
                if plant is not None:
                    corners = mats[:, :2, :2].copy()
                    logw[start:stop] = _plant_corners(corners, mech, plant, rngs)
                    update = trace_power_corner_updates(mats, corners, p)
                    planted[start:stop] = values[start:stop] + update / n ** (p / 2 + 1)
                del mats  # one batch of matrices alive at a time
    return values, planted, logw


def _plant_corners(mats: np.ndarray, mech: str, plant, rngs) -> np.ndarray:
    """Write plant's draws into a stack of raw matrices or of their 2x2
    corners, one generator each: at (1,1) for "diag", at (1,2) and
    conjugated at (2,1) for "offdiag"; returns the logw."""
    if mech == "diag":
        mats[:, 0, 0], logw = plant(mats[:, 0, 0], rngs)
    else:
        mats[:, 0, 1], logw = plant(mats[:, 0, 1], rngs)
        mats[:, 1, 0] = np.conj(mats[:, 0, 1])
    return logw


def _require_finite(x: float, n: int, *values) -> None:
    """Raise, naming x and n, if a planting size or trace power left the float range."""
    if not all(np.isfinite(v).all() for v in values):
        raise ValueError(f"x={x} at n={n} takes the trace powers beyond the float range")


def estimate_tail_naive(
    model,
    n: int,
    p: int,
    x: float,
    n_trials: int,
    seed: int = 0,
) -> DeviationEstimate:
    """Frequency of {tr_n X_n**p >= x} over independent draws."""
    values, _, _ = _trial_values(model, n, p, n_trials, seed)
    _require_finite(x, n, values)
    hits = int(np.count_nonzero(values >= x))
    return binomial_estimate(n, x, hits, n_trials, model.speed(p), "naive")


def estimate_tail_planted_is(
    model,
    n: int,
    p: int,
    x: float,
    n_trials: int,
    seed: int = 0,
) -> DeviationEstimate:
    """Self-normalized importance sampling with a planted single-entry
    proposal; supports even p and thresholds at or above the center, and
    raises otherwise.  An ESS below _ESS_FLOOR flags the estimate.
    notes["naive_hits"] counts the unplanted matrices of the same draws
    that reach x, the hits estimate_tail_naive reports at this seed."""
    if p % 2:
        raise ValueError("planted importance sampling supports even p only")
    center = semicircle_moment(p)
    delta = x - center
    if delta < 0:
        raise ValueError(f"threshold must not be below the center {center}, got x={x}")
    mech = model.mechanism(p)
    theta = spike_size(n, delta, p, mech == "diag")
    _require_finite(x, n, theta)
    shift = math.sqrt(n) * theta  # raw-entry scale
    plant, weight_var = model.proposal(mech, shift)
    values, planted, logw = _trial_values(model, n, p, n_trials, seed, plant)
    _require_finite(x, n, values, planted)

    hit = planted >= x
    L = float(np.max(logw))
    wn = np.exp(logw - L)
    sw = float(np.sum(wn))
    p_hat = float(np.sum(wn * hit) / sw)
    se = float(np.sqrt(np.sum((wn * (hit - p_hat)) ** 2)) / sw)
    ess = sw * sw / float(np.sum(wn * wn))
    with np.errstate(over="ignore"):
        w_mean = float(np.exp(L) * wn.mean())
        if weight_var is not None:
            w_mean_se = float(np.sqrt(weight_var / n_trials))
        elif n_trials == 1:  # one weight gives no error estimate
            w_mean_se = math.inf
        else:  # no closed form: the empirical standard error
            w_mean_se = float(np.exp(L) * wn.std(ddof=1) / math.sqrt(n_trials))
    slope = -math.log(p_hat) / n ** model.speed(p) if p_hat > 0 else None
    lo = max(0.0, p_hat - 3.0 * se)
    hi = min(1.0, p_hat + 3.0 * se)
    return DeviationEstimate(
        n=n, x=float(x), p_hat=p_hat, stderr=se, n_trials=n_trials, method="planted_is",
        slope=slope, ci_low=lo, ci_high=hi, hits=int(hit.sum()), ess=float(ess),
        flagged=bool(ess < _ESS_FLOOR), weight_mean=w_mean, weight_mean_se=w_mean_se,
        notes={"mechanism": mech, "theta": theta, "delta": delta,
               "naive_hits": int(np.count_nonzero(values >= x))},
    )


@dataclass
class ScanResult:
    rows: list[DeviationEstimate]
    p: int
    x: float
    rate_reference: float | None
    last_slope: float | None
    monotone_decreasing: bool | None

    def summary(self) -> dict:
        """Every field but the rows."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "rows"}


def rate_slope_scan(
    model,
    p: int,
    x: float,
    n_grid,
    trials_per_n: int,
    seed: int = 0,
    method: str = "auto",
) -> ScanResult:
    """Speed-normalized slope -log p_hat / n**speed across a dimension grid.

    method='auto' keeps the naive estimate when it sees >= 10 hits and
    switches to planted importance sampling otherwise (even p above the
    center).  Where the switch is possible, auto draws each trial once:
    one planted IS pass, whose unplanted hits (notes["naive_hits"]) give
    the naive estimate it keeps.  The rows are those estimates; one with
    p_hat = 0 comes back flagged and without an ESS.  Bad method, x, p or
    grid (empty or not ascending) raises ValueError, as does planted_is
    where it is impossible (odd p, or x at or below the center).
    """
    if method not in ("auto", "naive", "planted_is"):
        raise ValueError(f"method must be auto, naive or planted_is, got {method!r}")
    if not math.isfinite(x) or isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p < 1:
        raise ValueError(f"x must be finite and p an integer >= 1, got x={x}, p={p!r}")
    n_grid = list(n_grid)
    if any(isinstance(v, bool) or not isinstance(v, (int, float, np.integer)) or not float(v).is_integer()
           for v in n_grid):
        raise ValueError(f"n_grid entries must be integers, got {n_grid!r}")
    n_grid = [int(v) for v in n_grid]
    if not n_grid or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError(f"n_grid must be non-empty and ascending, got {n_grid!r}")
    speed = model.speed(p)
    center = semicircle_moment(p)
    plantable = p % 2 == 0 and x > center
    if method == "planted_is" and not plantable:
        why = f"p={p} is odd" if p % 2 else f"x={x} is not above the center {center}"
        raise ValueError(f"planted_is is impossible here: {why}")
    rows = []
    for idx, n in enumerate(n_grid):
        if method == "naive" or not plantable:
            est = estimate_tail_naive(model, n, p, x, trials_per_n, seed=seed + idx)
        else:
            est = estimate_tail_planted_is(model, n, p, x, trials_per_n, seed=seed + idx)
            hits = est.notes["naive_hits"]
            if method == "auto" and hits >= 10:
                est = binomial_estimate(n, x, hits, trials_per_n, speed, "naive")
        rows.append(est if est.p_hat > 0.0 else replace(est, flagged=True, ess=None))

    rate_spec = model.rate_spec(p)
    ref = rate_value(rate_spec, x) if rate_spec is not None else None
    usable = [r.slope for r in rows if r.slope is not None]
    last = usable[-1] if usable else None
    mono = None
    if len(usable) >= 2:
        mono = all(b <= a for a, b in zip(usable, usable[1:]))
    return ScanResult(rows=rows, p=p, x=float(x), rate_reference=ref, last_slope=last, monotone_decreasing=mono)


@dataclass
class BoundedProbeRow:
    spike: float
    t: float
    frequency: float
    stderr: float


def _truncated_normals(rngs, size: int) -> np.ndarray:
    """(len(rngs), size) standard normals truncated to [-1, 1], one row of
    uniforms per generator."""
    lo = 0.5 * math.erfc(1.0 / math.sqrt(2.0))  # Phi(-1)
    u = np.empty((len(rngs), size))
    for row, rng in zip(u, rngs):
        rng.random(out=row)
    return special.ndtri(lo + u * (1.0 - 2.0 * lo))


def bounded_entry_concentration_probe(
    n: int,
    p: int,
    spike_magnitudes,
    t_grid,
    n_trials: int,
    seed: int = 0,
) -> list[BoundedProbeRow]:
    """Shape probe of trace-power concentration for bounded-entry matrices
    deformed by a sparse spike.

    H has iid truncated-Gaussian entries bounded by 1; the spike C puts
    s * n**(1/2+1/p) at (1,1).  The normalized-spike moment condition
    tr (C/sqrt(n))**(2(p-1)) <= m n**(2-2/p) is checked; m above _M_CAP
    raises naming m.  Reported frequencies share one sample per spike,
    so they are weakly decreasing along the threshold grid.  Each
    batch's generators are used within that batch only (see _batches).
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    on_diag = triangle_layout(n)[0]
    rows = []
    for s_idx, s in enumerate(np.atleast_1d(np.asarray(spike_magnitudes, dtype=float))):
        c0 = s * n ** (0.5 + 1.0 / p)
        m = (c0 / math.sqrt(n)) ** (2 * (p - 1)) / n ** (2.0 - 2.0 / p)
        if m > _M_CAP:
            raise ValueError(f"spike hypothesis violated: m = {m:.4g} exceeds cap {_M_CAP}")
        vals = np.empty(n_trials)
        for start, rngs in _batches(n_trials, seed, 3, s_idx):
            h = np.zeros((len(rngs), n, n))
            v = _truncated_normals(rngs, n * (n + 1) // 2)
            assemble_hermitian(h, v[:, on_diag], np.delete(v, on_diag, axis=1))
            h[:, 0, 0] += c0
            vals[start : start + len(rngs)] = _normalized_trace_powers(h, p)
        dev = np.abs(vals - vals.mean())
        for t in t_grid:
            freq = float(np.mean(dev > t))
            se = math.sqrt(max(freq * (1 - freq), 1.0 / n_trials) / n_trials)
            rows.append(BoundedProbeRow(float(s), float(t), freq, se))
    return rows
