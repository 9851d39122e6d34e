import math

import numpy as np
import pytest

from rmtldp.stats import DeviationEstimate, batch_mean_stderr, geweke_z, wilson_interval
from rmtldp.rng import stream


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(40, 1000)
        assert lo < 0.04 < hi

    def test_zero_hits_upper_bound_positive(self):
        lo, hi = wilson_interval(0, 500)
        assert lo == 0.0 and 0.0 < hi < 0.1

    def test_coverage_on_simulated_binomials(self):
        rng = stream(601, 0)
        p_true, n, misses = 0.07, 400, 0
        for _ in range(300):
            hits = int(rng.binomial(n, p_true))
            lo, hi = wilson_interval(hits, n)
            misses += not (lo <= p_true <= hi)
        assert misses <= 5  # z=3 band: misses should be rare

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)


class TestBatchMeans:
    def test_iid_matches_plain_stderr(self):
        x = stream(602, 0).standard_normal(4000)
        plain = float(np.std(x, ddof=1) / math.sqrt(x.size))
        assert batch_mean_stderr(x) == pytest.approx(plain, rel=0.5)

    def test_autocorrelated_is_larger(self):
        rng = stream(602, 1)
        eps = rng.standard_normal(4000)
        x = np.empty(4000)
        x[0] = eps[0]
        for i in range(1, 4000):
            x[i] = 0.95 * x[i - 1] + eps[i]
        plain = float(np.std(x, ddof=1) / math.sqrt(x.size))
        assert batch_mean_stderr(x) > 2.0 * plain


class TestGeweke:
    def test_stationary_iid_near_zero(self):
        x = stream(603, 0).standard_normal(3000)
        assert abs(geweke_z(x)) < 3.0

    def test_drifting_chain_flagged(self):
        x = np.linspace(0.0, 5.0, 2000) + 0.1 * stream(603, 1).standard_normal(2000)
        assert abs(geweke_z(x)) > 3.0


class TestDeviationEstimate:
    def test_slope_interval_monotone_map(self):
        est = DeviationEstimate(n=16, x=2.5, p_hat=0.01, stderr=0.001, n_trials=10_000,
                                method="naive", slope=None, ci_low=0.005, ci_high=0.02)
        lo, hi = est.slope_interval(1.5)
        assert lo == pytest.approx(-math.log(0.02) / 16 ** 1.5)
        assert hi == pytest.approx(-math.log(0.005) / 16 ** 1.5)
        assert lo < hi

    def test_zero_lower_bound_gives_infinite_upper_slope(self):
        est = DeviationEstimate(n=16, x=2.5, p_hat=0.0, stderr=0.0, n_trials=100,
                                method="naive", slope=None, ci_low=0.0, ci_high=0.05)
        lo, hi = est.slope_interval(1.5)
        assert math.isfinite(lo) and math.isinf(hi)
