import dataclasses
import hashlib
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from rmtldp.devlab import (
    bounded_entry_concentration_probe,
    estimate_tail_naive,
    estimate_tail_planted_is,
    rate_slope_scan,
)
from rmtldp import devlab, randsrc
from rmtldp.matcore import HermMatrix, normalized_trace_power, trace_powers
from rmtldp.randsrc import GaussianProfile, TailProfile
from rmtldp.rates import semicircle_moment
from rmtldp.rng import stream, streams
from rmtldp.wigner import PlantSpec, assemble_wigner, assemble_wigner_batch, plant_deformation, truncation_split


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
        # 300 trials cross the 256-trial batch boundary; trial k uses stream(seed, 1, k).
        # The GUE is invariant, so each trial is a Dumitriu-Edelman tridiagonal drawn alone
        est = estimate_tail_naive(GAUSS2, 8, 4, 2.3, 300, seed=9)
        hits = sum(_tridiagonal_trial(GAUSS2, 8, 4, stream(9, 1, k))[0] >= 2.3 for k in range(300))
        assert 0 < est.hits < 300
        assert est.hits == hits

    def test_dense_batches_match_per_trial_assembly(self):
        prof = GaussianProfile(sigma2=1.0, beta=1)  # not invariant: dense matrices
        est = estimate_tail_naive(prof, 8, 4, 2.5, 300, seed=9)
        hits = sum(
            normalized_trace_power(assemble_wigner(8, prof, stream(9, 1, k))[1], 4) >= 2.5
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

    def test_weight_variance_past_float_range_is_inf(self):
        # shift**2 / sd**2 is about 3.9e3 here, so expm1 overflows to inf
        # quietly (RuntimeWarnings fail the suite)
        est = estimate_tail_planted_is(GAUSS2, 64, 4, 60.0, 10, seed=12)
        assert est.weight_mean_se == math.inf

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


class TestInputEdges:
    @pytest.mark.parametrize("estimator", [estimate_tail_naive, estimate_tail_planted_is])
    def test_zero_trials_rejected(self, estimator):
        with pytest.raises(ValueError, match="n_trials must be >= 1"):
            estimator(GAUSS2, 8, 4, 3.0, 0)

    @pytest.mark.parametrize("estimator", [estimate_tail_naive, estimate_tail_planted_is])
    @pytest.mark.parametrize("prof", [GaussianProfile(sigma2=1.0, beta=1), GAUSS2], ids=["offdiag", "diag"])
    def test_one_by_one_rejected(self, estimator, prof):
        with pytest.raises(ValueError, match="n must be >= 2"):
            estimator(prof, 1, 4, 3.0, 10)
        with pytest.raises(ValueError, match="n must be >= 2"):
            rate_slope_scan(prof, 4, 3.0, [1], 10)

    @pytest.mark.parametrize("bad, message", [
        ({"method": "bogus"}, "method must be auto, naive or planted_is"),
        ({"x": math.nan}, "x must be finite and p an integer >= 1"),
        ({"x": math.inf}, "x must be finite and p an integer >= 1"),
        ({"p": 0}, "x must be finite and p an integer >= 1"),
        ({"p": 4.0}, "x must be finite and p an integer >= 1"),
        ({"p": 3, "method": "planted_is"}, "planted_is is impossible here: p=3 is odd"),
        ({"x": 2.0, "method": "planted_is"}, "planted_is is impossible here: x=2.0 is not above the center"),
    ])
    def test_scan_rejects_bad_input(self, bad, message):
        args = dict(dict(p=4, x=3.0, n_grid=[8], trials_per_n=10), **bad)
        with pytest.raises(ValueError, match=message):
            rate_slope_scan(GAUSS2, **args)

    def test_one_trial_has_no_weight_error_estimate(self):
        prof = TailProfile.with_feasible_t0(1.0, 1.5, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_tail_planted_is(prof, 8, 4, 3.0, 1, seed=45)
        assert est.n_trials == 1 and est.weight_mean_se == math.inf
        assert math.isfinite(est.weight_mean) and est.ess == 1.0


def _single_pass_case(key):
    """(profile, x kept by naive at n=8, x switched to planted IS at n=8)."""
    if key == "gauss_diag":
        return GaussianProfile(sigma2=1.0, beta=2), 3.0, 5.0
    if key == "gauss_offdiag":
        return GaussianProfile(sigma2=1.0, beta=1), 3.0, 5.0
    return TailProfile.with_feasible_t0(1.0, 1.5, 1.0), 3.0, 10.0


class TestSinglePass:
    """method='auto' draws each trial once, and its rows equal the separate
    estimators' at the same seed."""

    def test_auto_scan_draws_each_trial_once(self, monkeypatch):
        paths = []

        def counting_streams(*prefix, start, stop):
            paths.extend((*prefix, k) for k in range(start, stop))
            return streams(*prefix, start=start, stop=stop)

        monkeypatch.setattr(devlab, "streams", counting_streams)
        scan = rate_slope_scan(GAUSS2, 4, 3.0, [8, 16], 300, seed=41)
        assert [r.method for r in scan.rows] == ["naive", "planted_is"]
        assert len(paths) == 600
        assert sorted(paths) == [(41 + i, 1, k) for i in range(2) for k in range(300)]

    @pytest.mark.parametrize("key", ["gauss_diag", "gauss_offdiag", "tail"])
    def test_auto_rows_equal_separate_estimators(self, key):
        prof, x_keep, x_switch = _single_pass_case(key)
        for x, estimator in ((x_keep, estimate_tail_naive), (x_switch, estimate_tail_planted_is)):
            est = estimator(prof, 8, 4, x, 300, seed=42)
            naive_hits = estimate_tail_naive(prof, 8, 4, x, 300, seed=42).hits
            assert (naive_hits >= 10) == (estimator is estimate_tail_naive)
            assert rate_slope_scan(prof, 4, x, [8], 300, seed=42).rows == [est]

    @pytest.mark.parametrize("key", ["gauss_diag", "gauss_offdiag", "tail"])
    @pytest.mark.parametrize("mech", ["diag", "offdiag"])
    def test_plant_writes_only_the_leading_block(self, key, mech):
        prof = _single_pass_case(key)[0]
        mats = assemble_wigner_batch(prof, 5, [stream(43, 1, k) for k in range(4)])
        before = mats.copy()
        plant, _ = prof.proposal(mech, 2.5)
        devlab._plant_corners(mats, mech, plant, [stream(44, k) for k in range(len(mats))])
        outside = np.ones((5, 5), dtype=bool)
        outside[:2, :2] = False
        assert np.array_equal(mats[:, outside], before[:, outside])
        assert not np.array_equal(mats[:, :2, :2], before[:, :2, :2])


class TestCornerUpdatePass:
    """Planted values come from a rank-2 update of the unplanted ones; they
    equal dense trace powers of the same draws planted in place."""

    @pytest.mark.parametrize("key", ["gauss_diag", "gauss_offdiag", "tail", "tail_complex"])
    @pytest.mark.parametrize("mech", ["diag", "offdiag"])
    def test_planted_values_match_dense_path(self, key, mech, monkeypatch):
        if key == "tail_complex":
            prof = TailProfile.with_feasible_t0(1.0, 1.5, 1.0, phase_offdiag="uniform_s1")
        else:
            prof = _single_pass_case(key)[0]
        monkeypatch.setattr(type(prof), "mechanism", lambda self, p: mech)  # plant at both positions
        monkeypatch.setattr(type(prof), "is_invariant", False)  # the dense pass, for the GUE too
        n, n_trials, seed = 6, 20, 46
        for p in (4, 6):
            plant, _ = prof.proposal(mech, 3.0)
            values, planted, logw = devlab._trial_values(prof, n, p, n_trials, seed, plant)
            rngs = [stream(seed, 1, k) for k in range(n_trials)]
            mats = assemble_wigner_batch(prof, n, rngs)
            base = trace_powers(mats, p) / n ** (p / 2 + 1)
            ref_logw = devlab._plant_corners(mats, mech, plant, rngs)
            dense = trace_powers(mats, p) / n ** (p / 2 + 1)
            assert np.array_equal(values, base) and np.array_equal(logw, ref_logw)
            assert np.all(np.abs(planted - dense) <= 1e-12 * np.maximum(base, dense))
            assert not np.array_equal(planted, values)


def _tridiagonal_trial(prof, n, p, rng, plant=None):
    """(value, planted value, logw) of one trial drawn alone: n normals
    a_i ~ N(0, sigma2), then b_i = sqrt(chi2_{beta(n-i)} / beta), then the
    plant at a_1."""
    a = math.sqrt(prof.sigma2) * rng.standard_normal(n)
    b = np.sqrt(rng.chisquare(prof.beta * np.arange(n - 1, 0, -1.0)) / prof.beta)

    def value():
        return float(trace_powers((a, b), p)) / n ** (p / 2 + 1)

    base = value()
    if plant is None:
        return base, None, None
    (a[0],), (logw,) = plant(a[:1], [rng])
    return base, value(), logw


GOE = GaussianProfile(sigma2=2.0, beta=1)


class TestInvariantPass:
    """Invariant profiles take trace powers of a Dumitriu-Edelman
    tridiagonal drawn for each trial (2n - 1 draws, not n**2); every
    trace-power statistic keeps the dense pass's law, and the plant
    replaces a_1, a N(0, sigma2) value, as it replaces M[0, 0] there."""

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("prof", [GOE, GAUSS2], ids=["goe", "gue"])
    def test_mean_is_exact(self, prof, n):
        # E tr_n X**4: 2 + 5/n + 5/n**2 (GOE), 2 + 1/n**2 (GUE); recorded mutation: chi2 degrees of
        # freedom off by one, beta (n - i) + 1, fails this test at every n
        exact = 2 + 5 / n + 5 / n ** 2 if prof.beta == 1 else 2 + 1 / n ** 2
        values, _, _ = devlab._trial_values(prof, n, 4, 4000, 60 + n)
        assert abs(values.mean() - exact) <= 4.0 * values.std(ddof=1) / math.sqrt(values.size)

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_sixth_moment_is_exact(self, n):
        # GUE E tr_n X**6 = 5 + 10/n**2 (Harer-Zagier: 5 planar pairings of a hexagon, 10 of genus 1);
        # p = 6 takes the band path's second product
        values, _, _ = devlab._trial_values(GAUSS2, n, 6, 4000, 70 + n)
        assert abs(values.mean() - (5 + 10 / n ** 2)) <= 4.0 * values.std(ddof=1) / math.sqrt(values.size)

    @pytest.mark.parametrize("p", [4, 6, 8])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 9])
    @pytest.mark.parametrize("prof", [GOE, GAUSS2], ids=["goe", "gue"])
    def test_block_update_equals_full_recomputation(self, prof, n, p):
        # the planted value adds the change of the leading min(n, p/2) block; n <= p/2 covers the
        # whole matrix.  Recorded mutation: a block of p/2 - 1 rows fails every case with n >= p/2
        plant, _ = prof.proposal("diag", 2.5)
        values, planted, logw = devlab._trial_values(prof, n, p, 40, 80, plant)
        rngs = [stream(80, 1, k) for k in range(40)]
        a, b = prof.draw_tridiagonals(n, rngs)
        a[:, 0], ref_logw = plant(a[:, 0], rngs)
        assert np.array_equal(logw, ref_logw)
        np.testing.assert_allclose(planted, trace_powers((a, b), p) / n ** (p / 2 + 1), rtol=1e-12)
        assert not np.array_equal(planted, values)

    @pytest.mark.parametrize("mech", ["diag", None])
    @pytest.mark.parametrize("prof", [GOE, GAUSS2], ids=["goe", "gue"])
    def test_values_match_per_trial_tridiagonals(self, prof, mech):
        # 300 trials cross the 256-trial batch boundary
        n, p, seed = 7, 4, 61
        assert prof.mechanism(p) == "diag"
        plant = None if mech is None else prof.proposal(mech, 2.5)[0]
        values, planted, logw = devlab._trial_values(prof, n, p, 300, seed, plant)
        ref = [_tridiagonal_trial(prof, n, p, stream(seed, 1, k), plant) for k in range(300)]
        ref_values, ref_planted, ref_logw = (np.array(col, dtype=float) for col in zip(*ref))
        np.testing.assert_allclose(values, ref_values, rtol=1e-12)
        if plant is None:
            assert planted is None and logw is None
        else:
            assert np.array_equal(logw, ref_logw)
            np.testing.assert_allclose(planted, ref_planted, rtol=1e-12)
            assert not np.array_equal(planted, values)

    def test_offdiag_mechanism_rejected(self, monkeypatch):
        # an invariant trial keeps only (a, b), so it has no (1,2) entry to plant
        monkeypatch.setattr(GaussianProfile, "mechanism", lambda self, p: "offdiag")
        with pytest.raises(ValueError, match=re.escape("an invariant profile plants at (1,1), got mechanism 'offdiag'")):
            estimate_tail_planted_is(GAUSS2, 8, 4, 3.0, 10, seed=49)

    @pytest.mark.parametrize("prof, x", [(GOE, 3.0), (GAUSS2, 2.2)], ids=["goe", "gue"])
    def test_exceedance_agrees_with_dense(self, prof, x, monkeypatch):
        tridiagonal = estimate_tail_naive(prof, 8, 4, x, 3000, seed=62)
        monkeypatch.setattr(GaussianProfile, "is_invariant", False)
        dense = estimate_tail_naive(prof, 8, 4, x, 3000, seed=63)
        assert min(tridiagonal.hits, dense.hits) >= 1000
        assert abs(tridiagonal.p_hat - dense.p_hat) <= 3.0 * math.hypot(tridiagonal.stderr, dense.stderr)

    def test_weights_match_recorded(self):
        # re-recorded when invariant trials moved to the Dumitriu-Edelman draw, whose plant normal
        # follows 2n - 1 draws instead of n**2
        plant, _ = GAUSS2.proposal("diag", 1.5)
        _, _, logw = devlab._trial_values(GAUSS2, 8, 4, 300, 51, plant)
        assert hashlib.sha256(logw.tobytes()).hexdigest()[:16] == "fcfbdd3b364522f6"
        est = estimate_tail_planted_is(GAUSS2, 8, 4, 2.1, 2000, seed=53)
        assert (est.ess, est.weight_mean, est.weight_mean_se) == (
            57.32833911747215, 0.7200458230090659, 0.8000084971192508)

    def test_tail_profiles_are_not_invariant(self):
        assert GOE.is_invariant and GAUSS2.is_invariant
        assert not GaussianProfile(sigma2=1.0, beta=1).is_invariant
        assert not TailProfile.with_feasible_t0(1.0, 1.5, 1.0).is_invariant


class TestBatchStreams:
    """Each batch's streams are keyed in one pass by rng.streams, which
    re-keys the thread's pool of generators: the draws equal per-trial
    rng.stream's, and a generator is valid only until the next batch."""

    @staticmethod
    def _per_trial_streams(seed, *prefix, start, stop):
        return [stream(seed, *prefix, k) for k in range(start, stop)]

    @pytest.mark.parametrize("prof", [GAUSS2, TailProfile.with_feasible_t0(1.0, 1.5, 1.0)], ids=["gue", "tail"])
    def test_trial_values_equal_per_trial_streams(self, prof, monkeypatch):
        # 300 trials cross the 256-trial batch boundary; the GUE is invariant, the tail profile dense
        plant, _ = prof.proposal(prof.mechanism(4), 2.5)
        batched = devlab._trial_values(prof, 6, 4, 300, 64, plant)
        monkeypatch.setattr(devlab, "streams", self._per_trial_streams)
        for got, ref in zip(batched, devlab._trial_values(prof, 6, 4, 300, 64, plant)):
            assert np.array_equal(got, ref)

    def test_probe_rows_equal_per_trial_streams(self, monkeypatch):
        args = (6, 4, [0.0, 0.5], [0.05, 0.5], 300)
        batched = bounded_entry_concentration_probe(*args, seed=65)
        monkeypatch.setattr(devlab, "streams", self._per_trial_streams)
        assert batched == bounded_entry_concentration_probe(*args, seed=65)

    def test_second_call_builds_no_generator(self, monkeypatch):
        estimate_tail_naive(GAUSS2, 8, 4, 2.3, 300, seed=81)  # fills this thread's pool
        built = []

        def counting_philox(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", counting_philox)
        estimate_tail_naive(GAUSS2, 8, 4, 2.3, 300, seed=82)
        assert built == []

    def test_threads_give_the_sequential_estimates(self):
        # more threads than cores, switching often; recorded mutation: one pool shared by all threads fails it
        prof = TailProfile.with_feasible_t0(1.0, 1.5, 1.0)
        seeds = (83, 84, 85, 86)
        sequential = [estimate_tail_planted_is(prof, 6, 4, 4.0, 600, seed=s) for s in seeds]
        start = threading.Barrier(len(seeds))
        got = {}

        def run(s):
            start.wait()
            got[s] = estimate_tail_planted_is(prof, 6, 4, 4.0, 600, seed=s)

        threads = [threading.Thread(target=run, args=(s,)) for s in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert [got.get(s) for s in seeds] == sequential

    def test_generator_is_valid_only_within_its_batch(self):
        batches = devlab._batches(300, 66, 1)
        _, first = next(batches)
        kept = first[0]
        assert np.array_equal(kept.bit_generator.state["state"]["key"], stream(66, 1, 0).bit_generator.state["state"]["key"])
        next(batches)
        # the pool was re-keyed for batch 1: the generator kept from batch 0 now draws trial 256's stream
        draws = kept.random(2)
        assert draws[0] != stream(66, 1, 0).random()
        assert np.array_equal(draws, stream(66, 1, 256).random(2))


class TestFloatRange:
    """A threshold whose planting or trace powers leave the float range is
    rejected by name, never written as NaN rows."""

    @pytest.mark.parametrize("n, x", [(4, 1e308), (64, 7e302)], ids=["theta_inf", "trace_power_inf"])
    def test_planted_is_rejects(self, n, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"x={x} at n={n} takes the trace powers")):
                estimate_tail_planted_is(GAUSS2, n, 4, x, 10, seed=47)

    def test_largest_finite_threshold_still_runs(self):
        est = estimate_tail_planted_is(GAUSS2, 64, 4, 6e302, 10, seed=47)
        assert est.p_hat == 1.0 and math.isfinite(est.ess)

    def test_naive_rejects_overflowed_trace_power(self, monkeypatch):
        monkeypatch.setattr(devlab, "_dense_trial_matrix", lambda model, n, rngs: np.full((len(rngs), n, n), 1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape("x=3.0 at n=4 takes the trace powers")):
                estimate_tail_naive(GaussianProfile(sigma2=1.0, beta=1), 4, 4, 3.0, 10, seed=48)

    def test_naive_rejects_overflowed_tridiagonal_trace_power(self, monkeypatch):
        def huge(self, n, rngs):
            return np.full((len(rngs), n), 1e200), np.full((len(rngs), n - 1), 1e200)

        monkeypatch.setattr(GaussianProfile, "draw_tridiagonals", huge)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape("x=3.0 at n=4 takes the trace powers")):
                estimate_tail_naive(GAUSS2, 4, 4, 3.0, 10, seed=48)


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
        for grid in ([8, 8, 16], [16, 8], []):
            with pytest.raises(ValueError, match="n_grid must be non-empty and ascending"):
                rate_slope_scan(GAUSS2, 4, 2.4, grid, 100, seed=19)
        assert len(rate_slope_scan(GAUSS2, 4, 2.4, [8, 16], 100, seed=19).rows) == 2


class StubProfile:
    """Real Gaussian entries with diagonal variance 2, written against the
    profile interface alone: the estimators must treat it exactly like
    GaussianProfile(sigma2=2, beta=1), whose cheaper channel is also the
    diagonal one."""

    beta = 1
    is_invariant = False
    sd = math.sqrt(2.0)

    def speed(self, p):
        return 1.0 + 2.0 / p

    def mechanism(self, p):
        return "diag"

    def rate_spec(self, p):
        return None

    def draw_entries(self, n, rngs):
        z = np.array([rng.standard_normal(n + n * (n - 1) // 2) for rng in rngs])
        return z[:, :n] * self.sd, z[:, n:]

    def proposal(self, mech, shift):
        sd = self.sd

        def plant(entries, rngs):
            z = np.array([rng.standard_normal() for rng in rngs])
            return shift + sd * z, -shift * shift / (2.0 * sd * sd) - shift * z / sd

        return plant, None  # no closed form: empirical weight-mean error


class TestProfileInterface:
    GAUSS = GaussianProfile(sigma2=2.0, beta=1)

    @pytest.fixture(autouse=True)
    def _dense_goe(self, monkeypatch):
        # the stub has no tridiagonal draw, so the GOE is compared on the dense pass
        monkeypatch.setattr(GaussianProfile, "is_invariant", False)

    def test_stub_profile_runs_naive_and_planted_is(self):
        stub = StubProfile()
        assert estimate_tail_naive(stub, 8, 4, 2.6, 300, seed=30) == estimate_tail_naive(
            self.GAUSS, 8, 4, 2.6, 300, seed=30)
        got = dataclasses.asdict(estimate_tail_planted_is(stub, 8, 4, 2.6, 300, seed=31))
        ref = dataclasses.asdict(estimate_tail_planted_is(self.GAUSS, 8, 4, 2.6, 300, seed=31))
        assert got.pop("weight_mean_se") > 0.0  # empirical, where the Gaussian profile is exact
        ref.pop("weight_mean_se")
        assert got == ref and got["notes"]["mechanism"] == "diag"

    def test_stub_profile_runs_scan(self):
        stub = rate_slope_scan(StubProfile(), 4, 2.6, [6, 8], 300, seed=32)
        ref = rate_slope_scan(self.GAUSS, 4, 2.6, [6, 8], 300, seed=32)
        assert len(stub.rows) == len(ref.rows) == 2
        for a, b in zip(stub.rows, ref.rows):  # the stub's weight-mean error is empirical
            assert dataclasses.replace(a, weight_mean_se=None) == dataclasses.replace(b, weight_mean_se=None)
        assert stub.rate_reference is None and ref.rate_reference > 0.0

    @pytest.mark.parametrize("alpha, p, x", [(0.5, 4, 3.0), (1.0, 4, 3.0), (1.0, 6, 6.0)])
    def test_tail_scan_reports_closed_form_reference(self, alpha, p, x):
        prof = TailProfile(alpha=alpha, a=1.0, b=1.5, normalize_variance=False)
        scan = rate_slope_scan(prof, p, x, [6], 50, seed=33, method="naive")
        c = min(1.5, 2.0 ** (-alpha / p))
        assert scan.rate_reference == pytest.approx(c * (x - semicircle_moment(p)) ** (alpha / p), rel=1e-12)

    @pytest.mark.parametrize("alpha, p", [(1.5, 4), (1.0, 5)])
    def test_tail_scan_without_closed_form_reports_none(self, alpha, p):
        prof = TailProfile(alpha=alpha, a=1.0, b=1.5, normalize_variance=False)
        scan = rate_slope_scan(prof, p, 3.0, [6], 50, seed=34, method="naive")
        assert scan.rate_reference is None


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
            bounded_entry_concentration_probe(16, 4, [3.0], [0.1], 10, seed=24)


class TestSpeedExponent:
    def test_models(self):
        assert GAUSS2.speed(4) == 1.5
        prof = TailProfile(alpha=1.0, a=1.0, b=1.0, normalize_variance=False)
        assert prof.speed(4) == 0.75


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _golden_profile(key: str):
    """gauss_<sigma2>_<beta> or tail_<phase>_b<b>_alpha<alpha> (a = 1.5)."""
    kind, rest = key.split("_", 1)
    if kind == "gauss":
        sigma2, beta = rest.split("_")
        return GaussianProfile(sigma2=float(sigma2), beta=int(beta))
    phase, b, alpha = rest.rsplit("_", 2)
    return TailProfile.with_feasible_t0(float(alpha[5:]), 1.5, float(b[1:]), phase_offdiag=phase)


def _golden_digests(key: str) -> tuple[str, str, str]:
    """Digests of naive estimates (x = 3 and 100), planted IS estimates (at
    the center and at x = 3) and raw assemble_wigner matrices, all n = 8,
    p = 4, 300 trials (one batch boundary crossed)."""
    prof = _golden_profile(key)
    naive = [dataclasses.asdict(estimate_tail_naive(prof, 8, 4, x, 300, seed=11)) for x in (3.0, 100.0)]
    planted = [dataclasses.asdict(estimate_tail_planted_is(prof, 8, 4, x, 300, seed=12)) for x in (2.0, 3.0)]
    for est, x in zip(planted, (2.0, 3.0)):
        # added after the digests were recorded; held to the naive estimator instead
        assert est["notes"].pop("naive_hits") == estimate_tail_naive(prof, 8, 4, x, 300, seed=12).hits
    mats = [assemble_wigner(n, prof, stream(13, n))[0].matrix.tobytes() for n in (2, 3, 17)]
    return _digest(naive), _digest(planted), _digest(mats)



def _matrix_digest(mats) -> str:
    return _digest([(m.beta, m.matrix.dtype.str, m.matrix.tobytes()) for m in mats])


def _derived_matrix_digests(key: str) -> tuple[str, ...]:
    """Per n in (2, 3, 17, 64): digest of one assemble_wigner draw and every
    matrix derived from it (sum, scaling, both plants, the truncation parts
    and their total)."""
    prof = _golden_profile(key)
    out = []
    for n in (2, 3, 17, 64):
        raw, xn = assemble_wigner(n, prof, stream(16, n))
        mats = [raw, xn, xn + raw, xn.scaled(0.37)]
        mats += [plant_deformation(xn, PlantSpec(shape, 1.0, 4)) for shape in ("diag_spike", "offdiag_pair")]
        if n >= 3:
            split = truncation_split(raw, 4, eps=0.1, d=0.5)
            mats += [split.small, split.intermediate, split.deviation, split.huge, split.total()]
        out.append(_matrix_digest(mats))
    return tuple(out)


def _exact_zero_digest() -> str:
    """zeros/identity of both classes, written with signed zeros, summed and
    scaled by positive, zero and negative factors."""
    mats = []
    for beta in (1, 2):
        values = [0.0, -0.0] + ([complex(0.0, -0.0), complex(-0.0, -0.0), complex(1.0, -0.0)] if beta == 2 else [])
        for base in (HermMatrix.zeros(3, beta), HermMatrix.identity(3, beta)):
            mats.append(base)
            for i, j in ((0, 0), (0, 1), (1, 0), (2, 2)):
                mats += [base.with_entry(i, j, v) for v in values if i != j or v.imag == 0]
            mats += [base + base, base + HermMatrix.identity(3, 1)]
            mats += [base.scaled(f) for f in (0.37, 1.0, 0.0, -0.0, -1.0, -2.5)]
    raw, xn = assemble_wigner(17, GaussianProfile(sigma2=1.0, beta=2), stream(16, 17))
    mats += [(xn + raw).scaled(f) for f in (-2.5, -1.0, 0.0)]
    return _matrix_digest(mats)


class TestGoldenBytes:
    """Estimates, scan rows, assembled matrices and probe rows recorded from
    the code before the entry laws moved behind the profile interface; any
    change to a stream layout or to the arithmetic shows up here."""

    DIGESTS = {
        "gauss_1_1": ("9d4c77adafff3612", "428f69117801d740", "7010fceb92832c68"),
        # the GUE's estimates re-recorded when invariant profiles moved to the tridiagonal pass,
        # and again when it drew the Dumitriu-Edelman law directly; DENSE_GUE keeps the dense
        # pass's digests
        "gauss_1_2": ("76dd7b5ca7eda0af", "d1fc6100dc8de2bc", "c28dc2dc22041514"),
        "gauss_0.25_1": ("79bebfba4b05a1ac", "adfbf57b0527b389", "606790c7e61cf0ac"),
        "gauss_0.25_2": ("c24546640cad75d6", "32805eb8d0d70a32", "54674b3b293f7783"),
        "tail_rademacher_b1_alpha0.5": ("e60543197276fb1d", "3a5537fe6df9fbcf", "a995d9c21db4593b"),
        "tail_rademacher_b1_alpha1": ("ea76c74c73403fe3", "3c241b3c3d35af4b", "5aab1b12be6fae2c"),
        "tail_rademacher_b1_alpha1.5": ("c1d08d69bcc01349", "3365787fabb8893e", "a18b08ccf55867c1"),
        "tail_rademacher_b2_alpha0.5": ("f2623004aabb5a10", "6050e1c868a86e92", "a995d9c21db4593b"),
        "tail_rademacher_b2_alpha1": ("db2a36dd7a4a6205", "37d0882865a4bd75", "b1e4ef5ac7ee547a"),
        "tail_rademacher_b2_alpha1.5": ("a81be593e6cd301b", "5b99a504e8a17b09", "47647dd23fe8d5ac"),
        "tail_uniform_s1_b1_alpha0.5": ("e60543197276fb1d", "b790bad6b80f1fbf", "7b16fe16e4603976"),
        "tail_uniform_s1_b1_alpha1": ("680912fa50e34395", "cb3939206e371800", "4ca07d202bb107b4"),
        "tail_uniform_s1_b1_alpha1.5": ("8088b0142ff935f1", "07dc3956ba1df235", "8d01d638a2655bd2"),
        "tail_uniform_s1_b2_alpha0.5": ("f2623004aabb5a10", "b0ebbf43b81a16ce", "7b16fe16e4603976"),
        "tail_uniform_s1_b2_alpha1": ("db2a36dd7a4a6205", "96bf9370f3d69790", "7abd613eda3709b5"),
        "tail_uniform_s1_b2_alpha1.5": ("ece0d956bd1f516f", "529cdb0815879771", "a701f84184fcee14"),
    }

    # recorded before derived matrices skipped the constructor's re-mirror
    DERIVED = {
        "gauss_0.25_1": ("556de88475c0f733", "10a7170d654e639e", "1883e156a90d00ee", "be3e57618baea721"),
        "gauss_0.25_2": ("0c2065680d389e0b", "0b1fd0d76b1d9eb8", "5ae225f39745df6e", "a9fe672037b7a511"),
        "gauss_1_1": ("f4d0369c8965d74e", "763c001cc3a260ce", "7ac81fc0ef9cb826", "dbda2612fba6ff9c"),
        "gauss_1_2": ("bf7ef3e5f3f60e18", "1e9b83ed2073153b", "1431f36c41c28a1b", "26bd179003cf0e70"),
        "tail_rademacher_b1_alpha0.5": ("f7b9e35366d27a34", "d792a5ab37a714f6", "0c20daea3b64f121", "d60ce74e3c49c5bc"),
        "tail_rademacher_b1_alpha1": ("e954e67370f7e686", "edfc8dcd457ecec5", "f12ba67e18d0d037", "0d952cb02d5941df"),
        "tail_rademacher_b1_alpha1.5": ("c6a1d9828c8b21cd", "034b10274a49d6e3", "0d274cddeab888d3", "4a66cbf12ea98a78"),
        "tail_rademacher_b2_alpha0.5": ("f7b9e35366d27a34", "d792a5ab37a714f6", "0c20daea3b64f121", "d60ce74e3c49c5bc"),
        "tail_rademacher_b2_alpha1": ("e954e67370f7e686", "edfc8dcd457ecec5", "09dbb82b35d5d3cb", "ae3b454f81d4d741"),
        "tail_rademacher_b2_alpha1.5": ("c6a1d9828c8b21cd", "034b10274a49d6e3", "37a4da62f8becff5", "4d7c0ffa1073f74d"),
        "tail_uniform_s1_b1_alpha0.5": ("487df040b17a4779", "c8305d68f2980287", "2e405dcd2d8f3b9a", "66de38fd276e6fb2"),
        "tail_uniform_s1_b1_alpha1": ("e60138a27c0f9583", "f8c6d3079111bafa", "816ad38901ef6b8f", "6cbe2f8e43b5000d"),
        "tail_uniform_s1_b1_alpha1.5": ("fe493ee944785177", "e2608471265052d5", "cc7c2fe23028e87d", "9abe84a1cb6a8016"),
        "tail_uniform_s1_b2_alpha0.5": ("487df040b17a4779", "c8305d68f2980287", "2e405dcd2d8f3b9a", "66de38fd276e6fb2"),
        "tail_uniform_s1_b2_alpha1": ("e60138a27c0f9583", "f8c6d3079111bafa", "239140fa26ecec46", "2464ab5a018c1731"),
        "tail_uniform_s1_b2_alpha1.5": ("fe493ee944785177", "e2608471265052d5", "f81ca7da19e24602", "439518e6880419a3"),
    }

    DENSE_GUE = ("6b92adfb656d9d7c", "64c9020bfdea96e7", "c28dc2dc22041514")

    @pytest.mark.parametrize("key", sorted(DIGESTS))
    def test_estimates_and_matrices(self, key):
        assert _golden_digests(key) == self.DIGESTS[key]

    def test_dense_pass_keeps_gue_digests(self, monkeypatch):
        monkeypatch.setattr(GaussianProfile, "is_invariant", False)
        assert _golden_digests("gauss_1_2") == self.DENSE_GUE

    @pytest.mark.parametrize("key", sorted(DERIVED))
    def test_derived_matrices(self, key):
        assert _derived_matrix_digests(key) == self.DERIVED[key]

    def test_exact_zero_matrices(self):
        assert _exact_zero_digest() == "608d14aec99a7c3c"

    def test_scan_rows(self):
        gauss = rate_slope_scan(_golden_profile("gauss_1_2"), 4, 3.0, [6, 8], 300, seed=14)
        tail = rate_slope_scan(_golden_profile("tail_rademacher_b1_alpha1"), 4, 3.0, [6, 8], 300, seed=14)
        rows = gauss.rows + tail.rows
        # the fields the old scan-row record carried; all three digests re-recorded when the
        # GUE moved to the tridiagonal pass, and again when it drew the Dumitriu-Edelman law
        # directly (the tail rows are unchanged)
        projected = [(r.n, r.slope, r.p_hat, r.method, r.flagged, r.ess, r.stderr) for r in rows]
        assert _digest(projected) == "7b7ed3aec1293e3f"
        assert _digest([dataclasses.asdict(r) for r in rows]) == "a37d5a56703bfdeb"
        assert _digest(gauss.summary()) == "5f3503f0ffe878c6"

    def test_bounded_probe_rows(self):
        rows = bounded_entry_concentration_probe(9, 4, [0.5, 1.0], [0.1, 0.5], 300, seed=3)
        assert _digest([dataclasses.asdict(r) for r in rows]) == "ae8e6bccb148d752"
