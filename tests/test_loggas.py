import copy
import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy import stats as sps

from rmtldp.loggas import (
    GasState,
    MomentEstimate,
    Potential,
    concentration_bound,
    estimate_equilibrium_moment,
    iid_truncated_tail,
    lipschitz_concentration_probe,
    log_accept_probability,
    loggas_logdensity,
    mcmc_sweep,
    moment,
    run_chain,
    sample_single_particle,
    truncated_moment,
)
from rmtldp.matcore import eigvals
from rmtldp.randsrc import GaussianProfile
from rmtldp.rng import stream
from rmtldp.wigner import assemble_wigner


# sha256 of lambdas.tobytes(), accept_count, proposal_count and step after
# 200 sweeps of run_chain from GasState.initial(pot, N, seed=40 + N).  Any
# change to the sweep's arithmetic or stream use that flips one acceptance
# changes them.
_GOLDEN_POTENTIALS = {
    "int_alpha2": Potential(b=1.0, alpha=2, beta=1.0),
    "alpha4_abs": Potential(b=0.5, alpha=4.0, beta=2.0, w_kind="abs", w_coef=0.3),
    "alpha3.5_quadratic": Potential(b=1.0, alpha=3.5, beta=1.0, w_kind="quadratic", w_coef=0.5),
    "beta0.7": Potential(b=0.25, alpha=2.0, beta=0.7),
}
_GOLDEN_CHAINS = {
    ("int_alpha2", 2, False): ("55ceb1e1a662cc8574efc58fa4aca0a4bd78361ce7f87e8bdb9b1aed1ca97adc", 311, 400, 0.35355339059327373),
    ("int_alpha2", 3, False): ("fe822d11c0e2bfe7f91f7af2d6fd48b5759673b8d874ac7be78fada89fa544e6", 438, 600, 0.2886751345948129),
    ("int_alpha2", 33, False): ("ed0cc6e273ef798429291cdaf5af91c9f14ed8f2e1274576e29534bf7d8a22f4", 3433, 6600, 0.08703882797784893),
    ("alpha4_abs", 2, False): ("d41706028c6dc2dc9152dca9cb54b66836f3d9155bbdb148d4c210af52ec1692", 303, 400, 0.35355339059327373),
    ("alpha4_abs", 3, False): ("ff83fac371372d73c3f22875d5fd0833e75969cd7227434689da6b3d12bf2863", 423, 600, 0.2886751345948129),
    ("alpha4_abs", 33, False): ("fb01c240866c8cd427f1e8576a301a3855c1f00fe5105090092732522c5526f0", 2739, 6600, 0.08703882797784893),
    ("alpha3.5_quadratic", 2, False): ("96e3e4772ee24cae03b66b61d639b8273c1d2f09807aab64fafb7905894ffa72", 289, 400, 0.35355339059327373),
    ("alpha3.5_quadratic", 3, False): ("25d317151161553a19e2df5b3aa49865621f4b1b3b6e36fed44ca6c531a76e94", 405, 600, 0.2886751345948129),
    ("alpha3.5_quadratic", 33, False): ("c681428be0e95000ea7008fec30b41f2163539758fa4de8f5941bdf85ae7f0e8", 3189, 6600, 0.08703882797784893),
    ("beta0.7", 2, False): ("3e6d8603d4f3de0284377faa3fdec12d60725e07fc8e5a44376eb4fa87db4072", 346, 400, 0.35355339059327373),
    ("beta0.7", 3, False): ("bd6cb4f69eeb9c1230f7a4a0a175b21be4dbd2752b6d1d42d062268b44fca5a7", 513, 600, 0.2886751345948129),
    ("beta0.7", 33, False): ("ad502d0d67dc93cab6780818dcc041ba627259f4dd141a86c021983375e33b69", 4570, 6600, 0.08703882797784893),
    ("beta0.7", 33, True): ("f05b21eba7faa0ef11684fd2a571c3b7d53c91825b7dcaa691ce4f8a104f7640", 4463, 6600, 0.12533591228810245),
}


def _reference_delta(lam, i, new, potential):
    """Log-density change of moving particle i of lam to new, by the plain
    per-coordinate formula (scalar potential, one log-sum per side)."""
    old = lam[i]
    d_new = lam - new
    d_old = lam - old
    d_new[i] = d_old[i] = 1.0
    with np.errstate(divide="ignore"):
        delta = potential.beta * float(np.sum(np.log(np.abs(d_new))) - np.sum(np.log(np.abs(d_old))))
    return delta - lam.size * float(potential.value(new) - potential.value(old))


def _reference_sweep(state, potential):
    """mcmc_sweep written as the plain per-coordinate loop: same draws, same
    arithmetic, one proposal formed and judged at a time."""
    lam = state.lambdas
    xi = state.rng.standard_normal(lam.size)
    logu = np.log(state.rng.random(lam.size))
    for i in range(lam.size):
        new = lam[i] + state.step * xi[i]
        state.proposal_count += 1
        if logu[i] <= min(0.0, _reference_delta(lam, i, new, potential)):
            lam[i] = new
            state.accept_count += 1
    state.sweep_count += 1
    return state


class FixedDraws:
    """Stands in for a chain's generator: fixed increments and uniforms."""

    def __init__(self, xi, u):
        self.xi = np.asarray(xi, dtype=float)
        self.u = np.asarray(u, dtype=float)

    def standard_normal(self, n):
        return self.xi[:n].copy()

    def random(self, n):
        return self.u[:n].copy()


def _uniform_with_log(target):
    """A double u with np.log(u) == target exactly, or None."""
    u = math.exp(target)
    for _ in range(64):
        lu = float(np.log(u))
        if lu == target:
            return u
        u = float(np.nextafter(u, 1.0 if lu < target else 0.0))
    return None


class TestPotential:
    def test_quadratic_remainder_needs_higher_growth(self):
        with pytest.raises(ValueError):
            Potential(b=1.0, alpha=2.0, beta=1.0, w_kind="quadratic", w_coef=0.5)
        Potential(b=1.0, alpha=3.0, beta=1.0, w_kind="quadratic", w_coef=0.5)

    def test_abs_remainder(self):
        pot = Potential(b=1.0, alpha=2.0, beta=2.0, w_kind="abs", w_coef=2.0)
        assert pot.value(-1.5) == pytest.approx(1.5 ** 2 + 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Potential(b=0.0, alpha=2.0, beta=1.0)
        with pytest.raises(ValueError):
            Potential(b=1.0, alpha=1.5, beta=1.0)
        with pytest.raises(ValueError):
            Potential(b=1.0, alpha=2.0, beta=1.0, w_kind="log")

    def test_json_roundtrip(self):
        pot = Potential(b=0.25, alpha=2.0, beta=1.0, w_kind="abs", w_coef=0.5)
        assert Potential.from_json(pot.to_json()) == pot


class TestLogDensity:
    def test_two_particle_value(self):
        pot = Potential(b=1.0, alpha=2.0, beta=2.0)
        # beta log|0-1| - 2 (V(0)+V(1)) = 0 - 2
        assert loggas_logdensity([0.0, 1.0], pot) == pytest.approx(-2.0)

    def test_collision_minus_inf(self):
        pot = Potential(b=1.0, alpha=2.0, beta=2.0)
        assert loggas_logdensity([0.7, 0.7, 1.0], pot) == -math.inf

    def test_permutation_invariance(self):
        pot = Potential(b=1.0, alpha=2.0, beta=1.5)
        rng = stream(301, 0)
        lam = rng.standard_normal(9)
        base = loggas_logdensity(lam, pot)
        for _ in range(5):
            perm = rng.permutation(9)
            assert loggas_logdensity(lam[perm], pot) == pytest.approx(base, rel=1e-12)

    def test_nonfinite_rejected(self):
        pot = Potential(b=1.0, alpha=2.0, beta=1.0)
        with pytest.raises(ValueError):
            loggas_logdensity([0.0, np.nan], pot)


class TestMetropolisKernel:
    def test_detailed_balance_on_three_state_toy(self):
        # explicit kernel enumeration on three N=2 configurations with a
        # uniform proposal over the other two states
        pot = Potential(b=1.0, alpha=2.0, beta=2.0)
        states = [np.array([0.0, 1.0]), np.array([0.3, 1.4]), np.array([-0.8, 0.5])]
        logpi = [loggas_logdensity(s, pot) for s in states]
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                k_ij = 0.5 * math.exp(log_accept_probability(logpi[j] - logpi[i]))
                k_ji = 0.5 * math.exp(log_accept_probability(logpi[i] - logpi[j]))
                lhs = math.exp(logpi[i]) * k_ij
                rhs = math.exp(logpi[j]) * k_ji
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_step_accepts_everything(self):
        pot = Potential(b=1.0, alpha=2.0, beta=1.0)
        state = GasState.initial(pot, 8, seed=1, step=0.0)
        before = state.lambdas.copy()
        mcmc_sweep(state, pot)
        assert np.array_equal(state.lambdas, before)
        assert state.acceptance_rate == 1.0

    def test_checkpoint_roundtrip_resumes_identically(self):
        pot = Potential(b=0.5, alpha=2.0, beta=1.0)
        state = GasState.initial(pot, 6, seed=5)
        run_chain(state, pot, 5)
        blob = state.checkpoint(pot)
        restored, pot2 = GasState.from_checkpoint(copy.deepcopy(blob))
        assert pot2 == pot
        assert (restored.accept_count, restored.proposal_count) == (state.accept_count, state.proposal_count)
        run_chain(state, pot, 3)
        run_chain(restored, pot2, 3)
        assert np.array_equal(state.lambdas, restored.lambdas)
        assert (restored.accept_count, restored.proposal_count) == (state.accept_count, state.proposal_count)
        assert restored.acceptance_rate == state.acceptance_rate

    def test_checkpoint_without_counters_restores_zero(self):
        pot = Potential(b=0.5, alpha=2.0, beta=1.0)
        state = GasState.initial(pot, 6, seed=5)
        run_chain(state, pot, 5)
        blob = state.checkpoint(pot)
        del blob["accept_count"], blob["proposal_count"]
        restored, _ = GasState.from_checkpoint(blob)
        assert (restored.accept_count, restored.proposal_count, restored.acceptance_rate) == (0, 0, 0.0)
        assert restored.sweep_count == 5 and np.array_equal(restored.lambdas, state.lambdas)

    @pytest.mark.parametrize("case", sorted(_GOLDEN_CHAINS), ids=lambda c: f"{c[0]}-N{c[1]}-tune{c[2]}")
    def test_chain_matches_recorded_bytes(self, case):
        name, N, tune = case
        pot = _GOLDEN_POTENTIALS[name]
        state = GasState.initial(pot, N, seed=40 + N)
        run_chain(state, pot, 200, tune=tune)
        digest = hashlib.sha256(state.lambdas.tobytes()).hexdigest()
        assert (digest, state.accept_count, state.proposal_count, state.step) == _GOLDEN_CHAINS[case]

    @pytest.mark.parametrize("name", sorted(_GOLDEN_POTENTIALS))
    @pytest.mark.parametrize("N", [2, 5, 17, 64])
    def test_sweep_equals_reference_loop(self, name, N):
        pot = _GOLDEN_POTENTIALS[name]
        rng = stream(305, N)
        for rep in range(3):
            lam = np.sort(rng.standard_normal(N)) * 2.0 ** (rep - 1)
            step = 0.5 * 2.0 ** rep / math.sqrt(N)
            fast = GasState(lambdas=lam.copy(), step=step, rng=stream(306, N, rep))
            ref = GasState(lambdas=lam.copy(), step=step, rng=stream(306, N, rep))
            for _ in range(10):
                mcmc_sweep(fast, pot)
                _reference_sweep(ref, pot)
                assert fast.lambdas.tobytes() == ref.lambdas.tobytes()
                assert (fast.accept_count, fast.proposal_count, fast.sweep_count) == (
                    ref.accept_count, ref.proposal_count, ref.sweep_count)

    @pytest.mark.parametrize("name", sorted(_GOLDEN_POTENTIALS))
    def test_accepts_exactly_up_to_the_reference_delta(self, name):
        # log u placed on the reference delta must accept and one ulp above
        # it must reject, so the sweep's delta equals the reference's exactly
        pot = _GOLDEN_POTENTIALS[name]
        rng = stream(307, 0)
        checked = 0
        for _ in range(300):
            lam = np.sort(rng.standard_normal(5))
            xi = np.concatenate([rng.standard_normal(1), np.zeros(4)])
            new = lam[0] + 0.5 * xi[0]
            delta = _reference_delta(lam, 0, new, pot)
            if not -40.0 < delta < -0.5:
                continue
            edges = (_uniform_with_log(delta), _uniform_with_log(float(np.nextafter(delta, 0.0))))
            if None in edges:
                continue
            for u0, accept in zip(edges, (True, False)):
                state = GasState(lambdas=lam.copy(), step=0.5, rng=FixedDraws(xi, [u0, 0.5, 0.5, 0.5, 0.5]))
                mcmc_sweep(state, pot)
                assert bool(state.lambdas[0] == new) == accept
                assert state.accept_count == 4 + accept
            checked += 1
        assert checked >= 50

    def test_exact_collision_is_rejected(self):
        pot = Potential(b=1.0, alpha=2.0, beta=2.0)
        for xi0, moved in ((2.0, False), (1.999, True)):
            # coordinate 0 proposes 0 + 0.5 * xi0: exactly onto particle 1 for
            # xi0 = 2; log u = -690.8, so every finite delta accepts
            state = GasState(lambdas=np.array([0.0, 1.0, 2.0]), step=0.5,
                             rng=FixedDraws([xi0, 0.0, 0.0], np.full(3, 1e-300)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                mcmc_sweep(state, pot)
            assert state.lambdas[0] == (0.5 * xi0 if moved else 0.0)
            assert state.lambdas.tolist()[1:] == [1.0, 2.0]
            assert (state.accept_count, state.proposal_count, state.sweep_count) == (2 + moved, 3, 1)


class TestMoments:
    def test_constant_configuration(self):
        assert moment([1.0, 1.0, 1.0, 1.0], 3) == 1.0

    def test_truncated_moment_example(self):
        lam = np.concatenate([[5.0, -4.0], 0.1 * np.ones(18)])
        assert math.floor(math.log(20)) == 2
        assert truncated_moment(lam, 3) == pytest.approx((125.0 - 64.0) / 20.0)

    def test_partition_identity(self):
        rng = stream(302, 0)
        lam = rng.standard_normal(50) * 3
        p = 3
        k = math.floor(math.log(50))
        idx = np.argsort(-np.abs(lam))
        bottom = float(np.sum(lam[idx[k:]] ** p) / 50)
        assert moment(lam, p) - truncated_moment(lam, p) == pytest.approx(bottom, rel=1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            truncated_moment([1.0, 2.0], 3)


class TestEquilibriumMoment:
    def test_p_zero_is_exactly_one(self):
        pot = Potential(b=1.0, alpha=2.0, beta=1.0)
        res = estimate_equilibrium_moment(pot, 0, 16, 10, seed=0)
        assert res.estimate == 1.0 and res.stderr == 0.0

    def test_odd_moment_vanishes_for_even_potential(self):
        pot = Potential(b=1.0, alpha=2.0, beta=1.0)
        res = estimate_equilibrium_moment(pot, 3, 16, 150, seed=1, burn_in=1500, thin=8)
        assert abs(res.estimate) <= 3.0 * res.stderr + 0.05

    def test_goe_oracle_second_moment(self):
        # quadratic potential x^2/4 at beta=1 is the eigenvalue law of a
        # sqrt(N)-normalized symmetric Gaussian matrix with diag variance 2
        pot = Potential(b=0.25, alpha=2.0, beta=1.0)
        res = estimate_equilibrium_moment(pot, 2, 64, 250, seed=2, burn_in=3000, thin=16)
        prof = GaussianProfile(sigma2=2.0, beta=1)
        draws = []
        for k in range(400):
            _, xn = assemble_wigner(64, prof, stream(303, 1, k))
            draws.append(float(np.mean(eigvals(xn) ** 2)))
        oracle = float(np.mean(draws))
        oracle_se = float(np.std(draws, ddof=1) / math.sqrt(len(draws)))
        assert abs(res.estimate - oracle) <= 3.0 * math.hypot(res.stderr, oracle_se)
        assert not res.flagged

    def test_recorded_estimate_and_probe_rows(self):
        # tuned burn-in, thinning and statistic of the shared chain loop, pinned
        est = estimate_equilibrium_moment(Potential(b=0.25, alpha=2.0, beta=1.0), 4, 12, 60,
                                          seed=3, burn_in=300, thin=2)
        assert est == MomentEstimate(2.467206804274297, 0.1404644117817143, -2.450352311785067, False, 60)
        rows = lipschitz_concentration_probe(Potential(b=1.0, alpha=2.0, beta=1.0), "sin", 10, [0.0, 0.02], 80,
                                             seed=6, burn_in=300, thin=2)
        assert [(r.t, r.frequency, r.stderr, r.bound, r.violated) for r in rows] == [
            (0.0, 0.5, 0.05590169943749474, 1.0, False),
            (0.02, 0.325, 0.05236590016413353, 0.9900498337491681, False),
        ]

    def test_returns_moment_estimate(self):
        pot = Potential(b=1.0, alpha=2.0, beta=1.0)
        res = estimate_equilibrium_moment(pot, 2, 8, 40, seed=3, burn_in=300, thin=2)
        assert isinstance(res, MomentEstimate)


class TestIidOracle:
    def test_rejection_sampler_matches_gaussian(self):
        pot = Potential(b=1.0, alpha=2.0, beta=1.0)  # V = x^2: density N(0, 1/(2N))
        N = 32
        x = sample_single_particle(pot, N, 100_000, stream(304, 0))
        ks = sps.kstest(x, sps.norm(scale=math.sqrt(1.0 / (2 * N))).cdf)
        assert ks.pvalue > 1e-4

    def test_unreachable_threshold(self):
        pot = Potential(b=1.0, alpha=2.0, beta=1.0)
        est = iid_truncated_tail(pot, 3, 32, 100.0, 2000, seed=1)
        assert est.p_hat == 0.0 and est.hits == 0 and est.flagged
        assert est.ci_high > 0.0

    def test_monotone_in_threshold(self):
        pot = Potential(b=1.0, alpha=2.0, beta=1.0)
        grid = [1e-4, 2e-4, 4e-4, 8e-4]
        vals = [iid_truncated_tail(pot, 3, 32, x, 4000, seed=7).p_hat for x in grid]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_against_convolution_oracle(self):
        # V = x^2, N = 32: single-particle law N(0, 1/64), k = 3 summands
        pot = Potential(b=1.0, alpha=2.0, beta=1.0)
        N, k, x = 32, 3, 4e-4
        sigma = math.sqrt(1.0 / (2 * N))
        edges = np.linspace(-0.6, 0.6, 2 ** 15 + 1)
        cell_mass = np.diff(sps.norm(scale=sigma).cdf(np.cbrt(edges)))
        conv = np.convolve(np.convolve(cell_mass, cell_mass), cell_mass)
        centers = 0.5 * (edges[:-1] + edges[1:])
        grid3 = np.arange(conv.size) * (centers[1] - centers[0]) + 3 * centers[0]
        oracle = float(conv[grid3 >= N * x / 1.0].sum())
        est = iid_truncated_tail(pot, 3, N, x, 40_000, seed=9)
        assert abs(est.p_hat - oracle) <= 3.0 * est.stderr + 0.01


class TestConcentrationProbe:
    def test_bound_arithmetic(self):
        pot = Potential(b=1.0, alpha=2.0, beta=1.0)
        assert concentration_bound(pot, 32, 0.5) == pytest.approx(math.exp(-64.0))

    def test_zero_threshold_never_violated(self):
        pot = Potential(b=1.0, alpha=2.0, beta=1.0)
        rows = lipschitz_concentration_probe(pot, "identity_clip", 12, [0.0], 150,
                                             seed=4, burn_in=600, thin=3)
        assert rows[0].bound == 1.0 and not rows[0].violated

    def test_frequencies_weakly_decreasing(self):
        pot = Potential(b=1.0, alpha=2.0, beta=1.0)
        rows = lipschitz_concentration_probe(pot, "abs_clip", 12, [0.0, 0.01, 0.03, 0.1], 200,
                                             seed=5, burn_in=600, thin=3)
        freqs = [r.frequency for r in rows]
        assert all(b <= a for a, b in zip(freqs, freqs[1:]))
