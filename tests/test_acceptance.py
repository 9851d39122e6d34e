"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is
pinned here.  Criterion 9 centres its window on the exact finite-n mean
of the planted trace, not on its n -> infinity limit C_2 + delta = 3: the
planted spike interacts with the bulk (the top eigenvalue sits near
theta + 1/theta), which adds 4*sqrt(delta/n)*(n-1)/n plus an O(1/n) moment
bias, so at n=256 the mean is 3.25287.  The closed form is checked
against a brute-force Wick enumeration; the pilot distribution in
calibration/ and a companion test validate the same mechanism against
the low-rank trace decomposition.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from rmtldp.devlab import estimate_tail_naive, estimate_tail_planted_is, rate_slope_scan
from rmtldp.loggas import (
    LIPSCHITZ_REGISTRY,
    GasState,
    Potential,
    _chain_samples,
    concentration_bound,
    lipschitz_concentration_probe,
    moment,
    run_chain,
    sample_beta_hermite,
)
from rmtldp.matcore import HermMatrix, eigvals, normalized_trace_power, trace_power
from rmtldp.randsrc import GaussianProfile
from rmtldp.rates import (
    RateSpec,
    deformed_trace_limit,
    gaussian_entry_cost,
    hollow_witness,
    rate_value,
    semicircle_cdf,
    semicircle_moment,
    trace_linearization_discrepancy,
)
from rmtldp.rng import stream
from rmtldp.varopt import inner_phi_inf, solve_rate_constant, entrywise_eigenvalue_gap
from rmtldp.wigner import PlantSpec, assemble_wigner, low_rank_trace_check, plant_deformation


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_closed_form_rate_constant():
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75, 1.0):
        for ratio in (0.25, 0.5, 1.0, 2.0, 4.0):
            for p in (4, 6):
                a, b = ratio, 1.0
                res = solve_rate_constant(alpha, a, b, p, budget=24, seed=1001)
                target = min(b, 2.0 ** (-alpha / p) * a)
                worst = max(worst, abs(res.value - target))
    ok = worst <= 1e-3
    assert report(1, ok, f"closed-form match on 40 configs, worst |error| = {worst:.2e} (tol 1e-3)")


def test_criterion_02_bracket_alpha_above_one():
    ok = True
    details = []
    for alpha in (1.25, 1.5, 1.75):
        for p in (4, 6):
            res = solve_rate_constant(alpha, 1.0, 1.0, p, budget=48, seed=1002)
            lo, hi = min(1.0, 0.5), min(1.0, 2.0 ** (-alpha / p))
            inside = lo - 1e-6 <= res.value <= hi + 1e-6
            ok = ok and inside
            details.append(f"a{alpha}p{p}:{res.value:.4f}in[{lo:.3f},{hi:.4f}]")
    assert report(2, ok, "; ".join(details))


def test_criterion_03_inner_multiplier_minimum():
    vals = {p: inner_phi_inf(p, 4) for p in (4, 6, 8)}
    ok = all(abs(v - 1.0) <= 1e-9 for v in vals.values())
    assert report(3, ok, f"inner minimum = {vals} (tol 1e-9)")


def test_criterion_04_deterministic_inequalities():
    rng = stream(1004, 0)
    lr_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 33))
        p = int(rng.integers(3, 7))
        g = rng.standard_normal((n, n))
        H = HermMatrix(1, (g + g.T) / 2)
        c = np.zeros((n, n))
        for _ in range(int(rng.integers(1, 4))):
            i, j = sorted(rng.integers(0, n, size=2))
            c[i, j] = 4.0 * rng.standard_normal()
        lr_ok = lr_ok and low_rank_trace_check(H, HermMatrix(1, c), p).ok

    gap_worst = 0.0
    alphas = np.linspace(0.1, 1.9, 10)
    for k in range(2000):
        n = int(rng.integers(2, 17))
        alpha = float(alphas[k % 10])
        g = rng.standard_normal((n, n))
        gap_worst = min(gap_worst, entrywise_eigenvalue_gap(HermMatrix(1, (g + g.T) / 2), alpha))
    gap_ok = gap_worst >= -1e-9

    q_ok = True
    for _ in range(500):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(3, 7))
        sigma2 = float(rng.choice([0.5, 1.0, 2.0]))
        beta = int(rng.choice([1, 2]))
        if beta == 1:
            g = rng.standard_normal((n, n))
            H = HermMatrix(1, (g + g.T) / 2)
        else:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = (g + np.conj(g).T) / 2
            np.fill_diagonal(m, np.real(np.diagonal(m)))
            H = HermMatrix(2, m)
        bound = min(1.0 / sigma2, beta / 2.0) * abs(trace_power(H, p)) ** (2.0 / p)
        q_ok = q_ok and gaussian_entry_cost(H, sigma2) >= bound * (1 - 1e-12)

    ok = lr_ok and gap_ok and q_ok
    assert report(
        4, ok,
        f"low-rank trace: {'ok' if lr_ok else 'VIOLATED'} (1000 pairs); "
        f"entrywise-eigenvalue gap min = {gap_worst:.2e} (2000 matrices); "
        f"quadratic-cost bound: {'ok' if q_ok else 'VIOLATED'} (500 matrices)",
    )


def test_criterion_05_gaussian_variational_witness():
    p = 4
    m = semicircle_moment(p)
    H = hollow_witness(200, m + 1.0, p)
    q = gaussian_entry_cost(H, 1.0)  # beta = 1 witness
    limit = 0.5 * 1.0  # (beta/2)(s - m)^(2/p)
    rel = abs(q - limit) / limit
    phi_err = abs(deformed_trace_limit(H, p) - (m + 1.0))
    ok = rel <= 0.02 and phi_err <= 1e-10
    assert report(5, ok, f"entry cost {q:.5f} vs limit 0.5 (rel {rel:.4f}, tol 2%); trace target error {phi_err:.1e}")


def test_criterion_06_wigner_centering():
    prof = GaussianProfile(sigma2=1.0, beta=1)
    m4s = []
    for k in range(50):
        _, xn = assemble_wigner(512, prof, stream(1006, 1, k))
        m4s.append(normalized_trace_power(xn, 4))
    mean4 = float(np.mean(m4s))

    _, big = assemble_wigner(1024, prof, stream(1006, 2, 0))
    lam = eigvals(big)
    n = lam.size
    ref = semicircle_cdf(lam)
    ks = max(
        float(np.max(np.abs(np.arange(1, n + 1) / n - ref))),
        float(np.max(np.abs(np.arange(0, n) / n - ref))),
    )
    ok = abs(mean4 - 2.0) <= 0.1 and ks <= 0.05
    assert report(6, ok, f"mean tr_n^4 = {mean4:.4f} (target 2 +- 0.1); KS distance = {ks:.4f} (tol 0.05)")


def test_criterion_07_loggas_matches_direct_goe():
    # the quadratic-potential gas at beta=1, V = x^2/4 is the eigenvalue law
    # of a sqrt(N)-normalized real symmetric Gaussian matrix (diag var 2)
    pot = Potential(b=0.25, alpha=2.0, beta=1.0)
    N, n_samples, thin = 32, 1200, 32
    state = GasState.initial(pot, N, seed=1007)
    run_chain(state, pot, 50_000, tune=True)
    chain = np.empty((n_samples, 4))
    for k in range(n_samples):
        run_chain(state, pot, thin, tune=False)
        chain[k] = [moment(state.lambdas, p) for p in (1, 2, 3, 4)]

    prof = GaussianProfile(sigma2=2.0, beta=1)
    goe = np.empty((n_samples, 4))
    for k in range(n_samples):
        _, xn = assemble_wigner(N, prof, stream(1007, 5, k))
        lam = eigvals(xn)
        goe[k] = [float(np.mean(lam ** p)) for p in (1, 2, 3, 4)]

    from rmtldp.stats import batch_mean_stderr

    ok = True
    details = []
    for idx, p in enumerate((1, 2, 3, 4)):
        mc, se_mc = float(chain[:, idx].mean()), batch_mean_stderr(chain[:, idx])
        gd, se_gd = float(goe[:, idx].mean()), float(goe[:, idx].std(ddof=1) / math.sqrt(n_samples))
        z = abs(mc - gd) / math.hypot(se_mc, se_gd)
        ok = ok and z <= 3.0
        details.append(f"p{p}: {mc:.4f} vs {gd:.4f} (z={z:.2f})")
    assert report(7, ok, "; ".join(details))


def test_criterion_08_concentration_bound():
    pot = Potential(b=1.0, alpha=2.0, beta=1.0)  # V = x^2
    rows = lipschitz_concentration_probe(
        pot, "identity_clip", 32, [0.1, 0.2, 0.5], 10_000, seed=1008, burn_in=10_000, thin=8
    )
    ok = True
    details = []
    for r in rows:
        within = r.frequency <= r.bound + 3.0 * r.stderr
        ok = ok and within
        details.append(f"t={r.t}: freq={r.frequency:.2e} bound={r.bound:.2e}")
    assert concentration_bound(pot, 32, 0.5) == pytest.approx(math.exp(-64.0))
    assert report(8, ok, "; ".join(details))


def test_criterion_08_companion_chain_matches_exact_sampler():
    # criterion 08 probes t far beyond the fluctuation scale, where every
    # frequency is 0; here t = 1/N and 2/N, where they are 0.12 and 0.01,
    # and the chain's centred exceedance frequencies of the sin linear
    # statistic must match iid beta-Hermite draws of the same gas
    from rmtldp.stats import batch_mean_stderr

    pot = Potential(b=0.25, alpha=2.0, beta=1.0)
    N, f = 12, LIPSCHITZ_REGISTRY["sin"]
    chain = _chain_samples(pot, N, 1108, 1000, 2, 6000, lambda lam: np.mean(f(lam)))
    exact = np.mean(f(sample_beta_hermite(pot, N, 20_000, stream(1108, 1))), axis=1)
    ok = True
    details = []
    for t in (1.0 / N, 2.0 / N):
        hits_mc = (chain - chain.mean() > t).astype(float)
        hits_ex = exact - exact.mean() > t
        mc, se_mc = float(hits_mc.mean()), batch_mean_stderr(hits_mc)
        ex = float(hits_ex.mean())
        se_ex = math.sqrt(ex * (1.0 - ex) / exact.size)
        z = abs(mc - ex) / math.hypot(se_mc, se_ex)
        ok = ok and z <= 4.0
        details.append(f"t={t:.4f}: chain {mc:.4f} vs exact {ex:.4f} (z={z:.2f})")
    assert report(8, ok, "(companion) " + "; ".join(details))


def _planted_traces(n_trials=200, n=256, delta=1.0, p=4, seed=1009):
    prof = GaussianProfile(sigma2=1.0, beta=1)
    spec = PlantSpec("diag_spike", delta, p)
    vals = np.empty(n_trials)
    for k in range(n_trials):
        _, xn = assemble_wigner(n, prof, stream(seed, 1, k))
        vals[k] = normalized_trace_power(plant_deformation(xn, spec), p)
    return vals


def _planted_mean4_coeffs(n):
    """Exact E[tr_n X^4] for the planted real Gaussian matrix (sigma2=1,
    beta=1), as Fractions c_0..c_4 of the polynomial sum_k c_k theta^k.

    Derivation: X = A + theta e_0 e_0^T with A = X_n whose (0,0) entry is
    removed, so every other entry of A is N(0, 1/n) and A_00 = 0.  Expanding
    the trace over the cyclic positions of the spike,
      tr X^4 = tr A^4 + 4 theta (A^3)_00 + 4 theta^2 (A^2)_00
               + 2 theta^2 A_00^2 + 4 theta^3 A_00 + theta^4.
    The A_00 terms vanish, (A^3)_00 has mean 0 (odd), E (A^2)_00 =
    (n-1)/n.  Wick's theorem on the walk i->j->k->l->i gives n^2 E tr A^4 =
    2n^3 + n^2 - 4n + 1: n^3 walks for each of the two non-crossing
    pairings (i=k or j=l), n^2 for the crossing one (i=k and j=l), less
    the 4n - 1 walk-pairings that pair the removed (0,0) entry.  Dividing
    by n:
      E tr_n X^4 = 2 + 1/n - 4/n^2 + 1/n^3 + 4 (n-1)/n^2 theta^2 + theta^4/n.
    """
    bulk = Fraction(2 * n**3 + n**2 - 4 * n + 1, n**3)
    return (bulk, Fraction(0), Fraction(4 * (n - 1), n**2), Fraction(0), Fraction(1, n))


def _planted_mean4(n, delta):
    """Exact finite-n mean of the planted trace at theta = (n*delta)^(1/4):
    3 + 1/n - 4/n^2 + 1/n^3 + 4*sqrt(n)*(n-1)/n^2 at delta=1."""
    theta = (n * delta) ** 0.25
    return sum(float(c) * theta**k for k, c in enumerate(_planted_mean4_coeffs(n)))


def _pairings(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for i in range(len(rest)):
        for tail in _pairings(rest[:i] + rest[i + 1:]):
            yield [(first, rest[i])] + tail


def _wick_planted_mean4_coeffs(n):
    """Brute-force E[tr_n X^4] as theta-polynomial coefficients: sum over
    all index walks, over which (0,0) steps carry theta, and over Wick
    pairings of the remaining A factors (cov 1/n on equal entries, 0 on
    the removed (0,0) entry)."""
    coeffs = [Fraction(0)] * 5
    for walk in itertools.product(range(n), repeat=4):
        edges = [tuple(sorted((walk[t], walk[(t + 1) % 4]))) for t in range(4)]
        spots = [t for t in range(4) if edges[t] == (0, 0)]
        for k in range(len(spots) + 1):
            for spike in itertools.combinations(spots, k):
                rest = [edges[t] for t in range(4) if t not in spike]
                for pairing in _pairings(rest):
                    if all(e == f and e != (0, 0) for e, f in pairing):
                        coeffs[k] += Fraction(1, n ** (len(rest) // 2))
    return tuple(c / n for c in coeffs)


def test_criterion_09_exact_centre_matches_wick_enumeration():
    # the closed-form centre of criterion 09 equals an exact enumeration,
    # and differs from the n -> infinity limit 3 at every finite n
    for n in range(2, 7):
        assert _planted_mean4_coeffs(n) == _wick_planted_mean4_coeffs(n), n
        assert _planted_mean4(n, 1.0) > 3.0
    assert _planted_mean4(256, 1.0) == pytest.approx(3.25287, abs=5e-6)


def test_criterion_09_planted_spike_window():
    # criterion: trace in centre +- 0.15 for >= 90% of 200 trials at n=256,
    # p=4, delta=1.  The centre is the exact finite-n mean (see
    # _planted_mean4_coeffs), not the limit C_2 + delta = 3: the spike-bulk
    # interaction 4*sqrt(delta/n)*(n-1)/n = 0.249 alone exceeds the
    # half-width at this size and vanishes as n grows.  The window spans
    # about +-3.7 sd, so the mean is also held to 4 standard errors.
    n, delta, trials = 256, 1.0, 200
    vals = _planted_traces(n_trials=trials, n=n, delta=delta)
    centre = _planted_mean4(n, delta)
    frac = float(np.mean(np.abs(vals - centre) <= 0.15))
    mean, sd = float(vals.mean()), float(vals.std(ddof=1))
    mean_tol = 4.0 * sd / math.sqrt(trials)
    interaction = 4.0 * math.sqrt(delta / n) * (n - 1) / n
    ok = frac >= 0.9 and abs(mean - centre) <= mean_tol
    assert report(
        9, ok,
        f"fraction in [{centre - 0.15:.4f}, {centre + 0.15:.4f}] = {frac:.3f} (need >= 0.9); "
        f"mean {mean:.4f} +- sd {sd:.4f} vs exact {centre:.5f} (|diff| {abs(mean - centre):.4f}, tol {mean_tol:.4f}); "
        f"distance to limit 3.0 = {mean - 3.0:.4f}, interaction term {interaction:.4f}",
    )


def test_criterion_09_companion_mechanism_oracle():
    # same mechanism validated two ways: (i) per-trial low-rank trace
    # decomposition inequality, (ii) >= 90% inside the pilot-recorded window
    vals = _planted_traces(seed=1010)
    prof = GaussianProfile(sigma2=1.0, beta=1)
    spec = PlantSpec("diag_spike", 1.0, 4)
    decomp_ok = True
    for k in range(20):
        _, xn = assemble_wigner(256, prof, stream(1010, 1, k))
        base = xn.with_entry(0, 0, 0.0)
        spike = HermMatrix.zeros(256).with_entry(0, 0, spec.theta(256))
        decomp_ok = decomp_ok and low_rank_trace_check(base, spike, 4).ok
    frac = float(np.mean((vals >= 3.08) & (vals <= 3.42)))  # pilot window
    ok = decomp_ok and frac >= 0.9
    assert report(
        9, ok,
        f"(companion) decomposition inequality ok; fraction in pilot window [3.08, 3.42] = {frac:.3f}",
    )


def test_criterion_10_estimator_consistency():
    prof = GaussianProfile(sigma2=1.0, beta=2)
    p, x, n = 4, 3.0, 32

    naive = estimate_tail_naive(prof, n, p, x, 200_000, seed=1011)
    is_big = estimate_tail_planted_is(prof, n, p, x, 20_000, seed=1012)
    if naive.hits >= 10:
        agree_stated = abs(naive.p_hat - is_big.p_hat) <= 3.0 * math.hypot(naive.stderr, is_big.stderr)
    else:
        agree_stated = True  # guard: comparison applies only with >= 10 naive hits

    # unnormalized-weight mean: exact identity E[w] = 1; at the stated tilt
    # the analytic weight deviation is astronomically wide, so also check a
    # small tilt where the test has power
    w_stated = abs(is_big.weight_mean - 1.0) <= 3.0 * is_big.weight_mean_se
    is_small = estimate_tail_planted_is(prof, 8, p, 2.1, 40_000, seed=1013)
    naive_small = estimate_tail_naive(prof, 8, p, 2.1, 40_000, seed=1014)
    w_powered = abs(is_small.weight_mean - 1.0) <= 3.0 * is_small.weight_mean_se
    agree_powered = (
        naive_small.hits >= 10
        and is_small.ess >= 50
        and abs(is_small.p_hat - naive_small.p_hat) <= 3.0 * math.hypot(is_small.stderr, naive_small.stderr)
    )

    scan = rate_slope_scan(prof, p, x, [16, 32, 64], 20_000, seed=1015)
    slopes_ok = all(r.slope is not None and 0.0 < r.slope < math.inf for r in scan.rows)
    ref = rate_value(RateSpec.for_gaussian(p, 1.0, 2), x)

    ok = agree_stated and w_stated and w_powered and agree_powered and slopes_ok
    assert report(
        10, ok,
        f"naive hits at x=3: {naive.hits} (guard {'active' if naive.hits < 10 else 'off'}); "
        f"weight mean {is_big.weight_mean:.2e} within analytic band: {w_stated}; "
        f"powered weight check: {w_powered} ({is_small.weight_mean:.3f} +- {is_small.weight_mean_se:.3f}); "
        f"cross-estimator agreement: {agree_powered}; "
        f"slopes {[None if r.slope is None else round(r.slope, 4) for r in scan.rows]} vs closed-form rate {ref} "
        f"(no convergence asserted)",
    )


def test_criterion_11_linearization_trend():
    prof = GaussianProfile(sigma2=1.0, beta=1)
    rng = stream(1016, 0)
    medians = {}
    for n in (64, 256):
        reps = [trace_linearization_discrepancy(n, 4, 1.0, 6, prof, rng) for _ in range(20)]
        medians[n] = float(np.median(reps))
    ok = medians[256] < medians[64]
    assert report(11, ok, f"median discrepancy {medians[64]:.4f} (n=64) -> {medians[256]:.4f} (n=256), strictly decreasing: {ok}")
