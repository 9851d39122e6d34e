"""Small statistics helpers shared across estimators."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "wilson_interval",
    "batch_mean_stderr",
    "geweke_z",
    "DeviationEstimate",
    "binomial_estimate",
]


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at z = 3."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = 3.0
    ph = hits / trials
    denom = 1.0 + z * z / trials
    center = (ph + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(ph * (1 - ph) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def batch_mean_stderr(samples: np.ndarray) -> float:
    """Standard error of the mean via batch means (robust to autocorrelation)."""
    x = np.asarray(samples, dtype=float)
    m = x.size
    if m < 4:
        return float(np.std(x, ddof=1) / math.sqrt(m)) if m > 1 else math.inf
    n_batches = min(max(10, int(math.sqrt(m))), m // 2)
    L = m // n_batches
    means = x[: n_batches * L].reshape(n_batches, L).mean(axis=1)
    return float(np.std(means, ddof=1) / math.sqrt(n_batches))


def geweke_z(samples: np.ndarray) -> float:
    """Geweke convergence score: z-difference of first 10% vs last 50% means."""
    x = np.asarray(samples, dtype=float)
    m = x.size
    a = x[: max(2, int(0.1 * m))]
    b = x[-max(2, int(0.5 * m)):]
    se = math.hypot(batch_mean_stderr(a), batch_mean_stderr(b))
    if se == 0.0:
        return 0.0
    return float((a.mean() - b.mean()) / se)


@dataclass
class DeviationEstimate:
    """One rare-event probability estimate with its speed-normalized slope.

    slope is -log(p_hat) / n**speed; it is None when p_hat is zero (the
    Wilson upper bound is still reported through ci_high).
    """

    n: int
    x: float
    p_hat: float
    stderr: float
    n_trials: int
    method: str
    slope: float | None
    ci_low: float = 0.0
    ci_high: float = 1.0
    hits: int | None = None
    ess: float | None = None
    flagged: bool = False
    weight_mean: float | None = None
    weight_mean_se: float | None = None
    notes: dict = field(default_factory=dict)

    def slope_interval(self, speed: float) -> tuple[float, float]:
        """Slope CI propagated from the probability CI (monotone map)."""
        scale = self.n ** speed
        lo = -math.log(self.ci_high) / scale if self.ci_high > 0 else math.inf
        hi = -math.log(self.ci_low) / scale if self.ci_low > 0 else math.inf
        return lo, hi


def binomial_estimate(n: int, x: float, hits: int, n_trials: int, speed: float, method: str) -> DeviationEstimate:
    """Exceedance frequency hits / n_trials with its Wilson interval, binomial
    standard error and slope -log p_hat / n**speed; flagged without hits."""
    p_hat = hits / n_trials
    lo, hi = wilson_interval(hits, n_trials)
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_trials)
    slope = -math.log(p_hat) / n ** speed if p_hat > 0 else None
    return DeviationEstimate(
        n=n, x=float(x), p_hat=p_hat, stderr=se, n_trials=n_trials, method=method,
        slope=slope, ci_low=lo, ci_high=hi, hits=hits, flagged=hits == 0,
    )
