import dataclasses
import math

import numpy as np
import pytest

from rmtldp.devlab import (
    bounded_entry_concentration_probe,
    estimate_tail_naive,
    estimate_tail_planted_is,
    rate_slope_scan,
)
from rmtldp import randsrc
from rmtldp.matcore import normalized_trace_power
from rmtldp.randsrc import GaussianProfile, TailProfile
from rmtldp.rng import stream
from rmtldp.wigner import assemble_wigner


GAUSS2 = GaussianProfile(sigma2=1.0, beta=2)


class TestNaive:
    def test_minus_infinity_threshold(self):
        est = estimate_tail_naive(GAUSS2, 8, 4, -math.inf, 50, seed=0)
        assert est.p_hat == 1.0 and est.slope == 0.0

    def test_even_power_nonnegative(self):
        est = estimate_tail_naive(GAUSS2, 8, 4, 0.0, 200, seed=1)
        assert est.p_hat == 1.0

    def test_seed_self_consistency(self):
        a = estimate_tail_naive(GAUSS2, 16, 4, 2.2, 20_000, seed=2)
        b = estimate_tail_naive(GAUSS2, 16, 4, 2.2, 20_000, seed=3)
        assert abs(a.p_hat - b.p_hat) <= 3.0 * math.hypot(a.stderr, b.stderr)

    def test_deterministic_on_rerun(self):
        a = estimate_tail_naive(GAUSS2, 12, 4, 2.2, 2000, seed=4)
        b = estimate_tail_naive(GAUSS2, 12, 4, 2.2, 2000, seed=4)
        assert a == b

    def test_batches_match_per_trial_assembly(self):
        # 300 trials cross the 256-trial batch boundary; trial k uses stream(seed, 1, k)
        est = estimate_tail_naive(GAUSS2, 8, 4, 2.3, 300, seed=9)
        hits = sum(
            normalized_trace_power(assemble_wigner(8, GAUSS2, stream(9, 1, k))[1], 4) >= 2.3
            for k in range(300)
        )
        assert 0 < est.hits < 300
        assert est.hits == hits

    def test_zero_hits_reports_upper_bound(self):
        est = estimate_tail_naive(GAUSS2, 8, 4, 50.0, 500, seed=5)
        assert est.p_hat == 0.0 and est.flagged and est.slope is None
        assert est.ci_high > 0.0


class TestPlantedIS:
    def test_identity_tilt_matches_naive(self):
        x = 2.0  # exactly at the center: delta = 0, proposal = nominal law
        a = estimate_tail_planted_is(GAUSS2, 8, 4, x, 30_000, seed=6)
        b = estimate_tail_naive(GAUSS2, 8, 4, x, 30_000, seed=7)
        assert a.weight_mean == 1.0
        assert abs(a.p_hat - b.p_hat) <= 3.0 * math.hypot(a.stderr, b.stderr)

    def test_weight_mean_unbiased_at_small_tilt(self):
        # log-weight sd ~ 2.7 here, so the +-3 se band is narrow enough to
        # catch a broken density ratio
        est = estimate_tail_planted_is(GAUSS2, 8, 4, 2.1, 40_000, seed=8)
        assert abs(est.weight_mean - 1.0) <= 3.0 * est.weight_mean_se
        assert est.weight_mean_se < 0.5
        assert est.ess >= 50 and not est.flagged

    def test_agrees_with_naive_where_both_work(self):
        x = 2.1
        a = estimate_tail_planted_is(GAUSS2, 8, 4, x, 40_000, seed=9)
        b = estimate_tail_naive(GAUSS2, 8, 4, x, 40_000, seed=10)
        assert b.hits >= 10
        assert abs(a.p_hat - b.p_hat) <= 3.0 * math.hypot(a.stderr, b.stderr)

    def test_large_tilt_flags_low_ess(self):
        est = estimate_tail_planted_is(GAUSS2, 16, 4, 3.0, 2000, seed=11)
        assert est.flagged and est.ess < 50
        assert est.p_hat > 0.0 and est.slope is not None and est.slope > 0

    def test_odd_p_rejected(self):
        with pytest.raises(ValueError):
            estimate_tail_planted_is(GAUSS2, 8, 5, 1.0, 10, seed=12)

    def test_below_center_rejected(self):
        with pytest.raises(ValueError):
            estimate_tail_planted_is(GAUSS2, 8, 4, 1.5, 10, seed=13)

    def test_offdiag_mechanism_selected(self):
        prof = GaussianProfile(sigma2=0.25, beta=1)  # 1/sigma2 = 4 > beta/2
        est = estimate_tail_planted_is(prof, 8, 4, 2.05, 2000, seed=14)
        assert est.notes["mechanism"] == "offdiag"

    def test_heavy_tail_model_weights(self):
        prof = TailProfile(alpha=1.0, a=1.0, b=1.0, t0=3.0, normalize_variance=True)
        est = estimate_tail_planted_is(prof, 8, 4, 2.05, 20_000, seed=15)
        # proposal tilt is mild at delta=0.05; unbiasedness check has power
        assert abs(est.weight_mean - 1.0) <= 4.0 * est.weight_mean_se
        assert est.p_hat >= 0.0

    def test_tilt_normalizer_integrated_once_per_law_and_eta(self, monkeypatch):
        prof = TailProfile(alpha=1.0, a=1.0, b=1.0, t0=3.0, normalize_variance=True)
        calls = []
        quad = randsrc.integrate.quad

        def counting_quad(*args, **kwargs):
            calls.append(args[1:3])
            return quad(*args, **kwargs)

        monkeypatch.setattr(randsrc.integrate, "quad", counting_quad)
        cold = estimate_tail_planted_is(prof, 8, 4, 3.0, 300, seed=19)
        assert len(calls) == 1  # one law, one eta > 0
        warm = estimate_tail_planted_is(prof, 8, 4, 3.0, 300, seed=19)
        assert len(calls) == 1
        assert dataclasses.asdict(warm) == dataclasses.asdict(cold)


class TestSlopeScan:
    def test_threshold_below_center_gives_zero_slopes(self):
        scan = rate_slope_scan(GAUSS2, 4, 0.0, [8, 12, 16], 300, seed=16)
        assert all(r.slope == 0.0 for r in scan.rows)
        assert scan.rate_reference == math.inf  # below the center the rate is infinite

    def test_ci_width_shrinks_with_trials(self):
        a = estimate_tail_naive(GAUSS2, 8, 4, 2.3, 2000, seed=17)
        b = estimate_tail_naive(GAUSS2, 8, 4, 2.3, 8000, seed=17)
        wa = a.ci_high - a.ci_low
        wb = b.ci_high - b.ci_low
        assert 1.6 <= wa / wb <= 2.6  # 4x trials halves the Wilson width

    def test_scan_reports_reference_rate(self):
        scan = rate_slope_scan(GAUSS2, 4, 2.4, [8, 12, 16], 4000, seed=18)
        assert scan.rate_reference == pytest.approx(0.5 * (2.4 - 2.0) ** 0.5)
        assert all(r.slope is not None and r.slope > 0 for r in scan.rows)
        assert scan.last_slope == scan.rows[-1].slope

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            rate_slope_scan(GAUSS2, 4, 2.4, [8, 8, 16], 100, seed=19)
        with pytest.raises(ValueError):
            rate_slope_scan(GAUSS2, 4, 2.4, [8, 16], 100, seed=19)
        rate_slope_scan(GAUSS2, 4, 2.4, [8, 16], 100, seed=19, min_points=1)


class TestBoundedEntryProbe:
    def test_frequencies_decrease_in_threshold(self):
        rows = bounded_entry_concentration_probe(32, 4, [0.0], [0.0, 0.01, 0.05, 0.2], 200, seed=20)
        freqs = [r.frequency for r in rows]
        assert all(b <= a for a, b in zip(freqs, freqs[1:]))

    def test_impossible_threshold_never_hit(self):
        # |S - mean| is bounded by 2 max|S|; opnorm((H+C)/sqrt(n)) <= sqrt(n)(1+s)
        rows = bounded_entry_concentration_probe(16, 4, [0.1], [1e6], 100, seed=21)
        assert rows[-1].frequency == 0.0

    def test_faster_decay_at_larger_n(self):
        t = 0.01
        r64 = bounded_entry_concentration_probe(64, 4, [0.0], [t], 400, seed=22)[0]
        r128 = bounded_entry_concentration_probe(128, 4, [0.0], [t], 400, seed=23)[0]
        assert r128.frequency <= r64.frequency + 3.0 * math.hypot(r64.stderr, r128.stderr)

    def test_hypothesis_cap_enforced(self):
        with pytest.raises(ValueError, match="m ="):
            bounded_entry_concentration_probe(16, 4, [3.0], [0.1], 10, seed=24, m_cap=16.0)


class TestSpeedExponent:
    def test_models(self):
        assert GAUSS2.speed(4) == 1.5
        prof = TailProfile(alpha=1.0, a=1.0, b=1.0, normalize_variance=False)
        assert prof.speed(4) == 0.75
