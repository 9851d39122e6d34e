"""Rare-event probability estimation for normalized trace powers.

Two estimators over one trial pass: trial k draws from its own Philox
stream stream(seed, 1, k), and trials are assembled and evaluated in
batches of 256, so the batching never changes results.  The pass takes the
unplanted trace power of each matrix and, when given a plant, plants the
same matrix and takes its planted trace power and weight as well:

* naive       - plain exceedance frequency with a Wilson interval;
* planted_is  - self-normalized importance sampling whose proposal plants
  the single-entry deformation carrying the deviation: the raw (1,1)
  entry (or the (1,2) pair, whichever mechanism has the smaller rate
  coefficient) is shifted so the normalized matrix receives a spike of
  size (n*delta)**(1/p) with delta = x - center.  Weights are exact
  one-dimensional density ratios.

The estimators never look at the entry law itself.  They take any profile
with ``beta``, ``speed(p)``, ``mechanism(p)``, ``rate_spec(p)``,
``draw_entries(n, rng)`` and ``proposal(mech, shift)`` (see ``randsrc``),
whose plant writes only inside the [:2, :2] block of a raw matrix.

Estimates are asymptotic-regime probes: slopes -log p / n**speed are
reported against the closed-form rate for comparison, with no convergence
claim at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .rates import rate_value, semicircle_moment
from .rng import stream
from .stats import DeviationEstimate, wilson_interval
from .wigner import assemble_hermitian, assemble_wigner_batch as _dense_trial_matrix, triangle_layout

__all__ = [
    "estimate_tail_naive",
    "estimate_tail_planted_is",
    "ScanRow",
    "ScanResult",
    "rate_slope_scan",
    "bounded_entry_concentration_probe",
]

_CHUNK = 256


def _normalized_trace_powers(mats: np.ndarray, p: int) -> np.ndarray:
    n = mats.shape[-1]
    if p % 2 == 0:
        # tr M^p = ||M^(p/2)||_F^2 for Hermitian M; batched matmul beats eigh
        half, base, acc = p // 2, mats, None
        while half:
            if half & 1:
                acc = base if acc is None else acc @ base
            half >>= 1
            if half:
                base = base @ base
        return np.sum(np.abs(acc) ** 2, axis=(-2, -1)) / n
    lam = np.linalg.eigvalsh(mats)
    return np.sum(lam ** p, axis=-1) / n


def _batches(n_trials: int, *path: int):
    """(first trial index, one stream per trial) for each batch of up to
    _CHUNK trials; trial k draws from stream(*path, k)."""
    for start in range(0, n_trials, _CHUNK):
        yield start, [stream(*path, k) for k in range(start, min(start + _CHUNK, n_trials))]


def _trial_values(model, n: int, p: int, n_trials: int, seed: int, plant=None):
    """Trace powers tr_n X**p of every trial, each matrix drawn once.

    Returns (values, planted, logw).  Without a plant the last two are
    None.  With one, each trial's matrix is planted after its unplanted
    value is taken, from the same stream: ``planted`` holds the planted
    trace powers and ``logw`` the log density ratios.  A plant writes only
    inside the [:2, :2] block, so only that block is rescaled again.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    root = math.sqrt(n)
    values = np.empty(n_trials)
    planted = logw = None
    if plant is not None:
        planted, logw = np.empty(n_trials), np.empty(n_trials)
    for start, rngs in _batches(n_trials, seed, 1):
        stop = start + len(rngs)
        mats = _dense_trial_matrix(model, n, rngs)
        scaled = mats / root
        values[start:stop] = _normalized_trace_powers(scaled, p)
        if plant is not None:
            for k, rng in enumerate(rngs):
                logw[start + k] = plant(mats[k], rng)
            scaled[:, :2, :2] = mats[:, :2, :2] / root
            planted[start:stop] = _normalized_trace_powers(scaled, p)
        del mats, scaled  # one batch of matrices alive at a time
    return values, planted, logw


def _naive_estimate(model, n: int, p: int, x: float, hits: int, n_trials: int) -> DeviationEstimate:
    p_hat = hits / n_trials
    lo, hi = wilson_interval(hits, n_trials)
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_trials)
    slope = -math.log(p_hat) / n ** model.speed(p) if 0.0 < p_hat else None
    return DeviationEstimate(
        n=n, x=float(x), p_hat=p_hat, stderr=se, n_trials=n_trials, method="naive",
        slope=slope, ci_low=lo, ci_high=hi, hits=hits, flagged=hits == 0,
    )


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
    return _naive_estimate(model, n, p, x, int(np.count_nonzero(values >= x)), n_trials)


def estimate_tail_planted_is(
    model,
    n: int,
    p: int,
    x: float,
    n_trials: int,
    seed: int = 0,
    ess_floor: float = 50.0,
) -> DeviationEstimate:
    """Self-normalized importance sampling with a planted single-entry
    proposal; supports even p and thresholds at or above the center, and
    raises otherwise.  notes["naive_hits"] counts the unplanted matrices of
    the same draws that reach x, the hits estimate_tail_naive reports at
    this seed."""
    if p % 2:
        raise ValueError("planted importance sampling supports even p only")
    center = semicircle_moment(p)
    delta = x - center
    if delta < 0:
        raise ValueError(f"threshold must not be below the center {center}, got x={x}")
    mech = model.mechanism(p)
    theta = (n * delta) ** (1.0 / p) if mech == "diag" else (n * delta / 2.0) ** (1.0 / p)
    shift = math.sqrt(n) * theta  # raw-entry scale
    plant, weight_var = model.proposal(mech, shift)
    values, planted, logw = _trial_values(model, n, p, n_trials, seed, plant)

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
        flagged=bool(ess < ess_floor), weight_mean=w_mean, weight_mean_se=w_mean_se,
        notes={"mechanism": mech, "theta": theta, "delta": delta,
               "naive_hits": int(np.count_nonzero(values >= x))},
    )


@dataclass
class ScanRow:
    n: int
    slope: float | None
    ci_low: float
    ci_high: float
    p_hat: float
    method: str
    flagged: bool
    ess: float | None = None
    stderr: float = 0.0


@dataclass
class ScanResult:
    rows: list[ScanRow]
    p: int
    x: float
    rate_reference: float | None
    last_slope: float | None
    monotone_decreasing: bool | None

    def summary(self) -> dict:
        return {
            "p": self.p,
            "x": self.x,
            "rate_reference": self.rate_reference,
            "last_slope": self.last_slope,
            "monotone_decreasing": self.monotone_decreasing,
        }


def rate_slope_scan(
    model,
    p: int,
    x: float,
    n_grid,
    trials_per_n: int,
    seed: int = 0,
    method: str = "auto",
    min_points: int = 3,
) -> ScanResult:
    """Speed-normalized slope -log p_hat / n**speed across a dimension grid.

    method='auto' keeps the naive estimate when it sees >= 10 hits and
    switches to planted importance sampling otherwise (even p above the
    center).  Where the switch is possible, auto draws each trial once:
    one planted IS pass, whose unplanted hits (notes["naive_hits"]) give
    the naive estimate it keeps.  Rows where neither estimator is usable
    come back flagged.  Bad method, x or p raises ValueError.
    A trend summary needs at least 3 grid points; callers that only want
    per-n rows may pass min_points=1.
    """
    if method not in ("auto", "naive", "planted_is"):
        raise ValueError(f"method must be auto, naive or planted_is, got {method!r}")
    if not math.isfinite(x) or not isinstance(p, (int, np.integer)) or p < 1:
        raise ValueError(f"x must be finite and p an integer >= 1, got x={x}, p={p!r}")
    n_grid = [int(v) for v in n_grid]
    if len(n_grid) < min_points or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError(f"n_grid must be ascending with at least {min_points} points")
    speed = model.speed(p)
    center = semicircle_moment(p)
    plantable = p % 2 == 0 and x > center
    rows = []
    for idx, n in enumerate(n_grid):
        est = None
        if method == "naive" or (method == "auto" and not plantable):
            est = estimate_tail_naive(model, n, p, x, trials_per_n, seed=seed + idx)
        elif plantable:
            est = estimate_tail_planted_is(model, n, p, x, trials_per_n, seed=seed + idx)
            hits = est.notes["naive_hits"]
            if method == "auto" and hits >= 10:
                est = _naive_estimate(model, n, p, x, hits, trials_per_n)
        if est is None or est.p_hat <= 0.0:
            rows.append(ScanRow(n, None, math.inf, math.inf, 0.0, est.method if est else "none", True))
            continue
        lo, hi = est.slope_interval(speed)
        rows.append(ScanRow(n, est.slope, lo, hi, est.p_hat, est.method, est.flagged, est.ess, est.stderr))

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


def _truncated_normal(rng: np.random.Generator, kappa: float, size) -> np.ndarray:
    lo = 0.5 * math.erfc(kappa / math.sqrt(2.0))  # Phi(-kappa)
    u = rng.random(size)
    return special.ndtri(lo + u * (1.0 - 2.0 * lo))


def bounded_entry_concentration_probe(
    n: int,
    p: int,
    spike_magnitudes,
    t_grid,
    n_trials: int,
    seed: int = 0,
    kappa: float = 1.0,
    m_cap: float = 16.0,
) -> list[BoundedProbeRow]:
    """Shape probe of trace-power concentration for bounded-entry matrices
    deformed by a sparse spike.

    H has iid truncated-Gaussian entries bounded by kappa; the spike C puts
    s * n**(1/2+1/p) at (1,1).  The normalized-spike moment condition
    tr (C/sqrt(n))**(2(p-1)) <= m n**(2-2/p) is checked; violation of the
    cap raises naming m.  Reported frequencies share one sample per spike,
    so they are weakly decreasing along the threshold grid.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    on_diag = triangle_layout(n)[0]
    rows = []
    for s_idx, s in enumerate(np.atleast_1d(np.asarray(spike_magnitudes, dtype=float))):
        c0 = s * n ** (0.5 + 1.0 / p)
        m = (c0 / math.sqrt(n)) ** (2 * (p - 1)) / n ** (2.0 - 2.0 / p)
        if m > m_cap:
            raise ValueError(f"spike hypothesis violated: m = {m:.4g} exceeds cap {m_cap}")
        vals = np.empty(n_trials)
        for start, rngs in _batches(n_trials, seed, 3, s_idx):
            draws = (_truncated_normal(rng, kappa, n * (n + 1) // 2) for rng in rngs)
            h = assemble_hermitian(((v[on_diag], np.delete(v, on_diag)) for v in draws), len(rngs), n, 1)
            h[:, 0, 0] += c0
            vals[start : start + len(rngs)] = _normalized_trace_powers(h / math.sqrt(n), p)
        dev = np.abs(vals - vals.mean())
        for t in t_grid:
            freq = float(np.mean(dev > t))
            se = math.sqrt(max(freq * (1 - freq), 1.0 / n_trials) / n_trials)
            rows.append(BoundedProbeRow(float(s), float(t), freq, se))
    return rows
