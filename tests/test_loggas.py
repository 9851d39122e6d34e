import copy
import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy import stats as sps

from rmtldp import loggas, matcore
from rmtldp.loggas import (
    GasState,
    MomentEstimate,
    Potential,
    concentration_bound,
    draw_tridiagonal,
    estimate_equilibrium_moment,
    iid_truncated_tail,
    lipschitz_concentration_probe,
    log_accept_probability,
    loggas_logdensity,
    mcmc_sweep,
    moment,
    _chain_samples,
    run_chain,
    sample_beta_hermite,
    sample_single_particle,
    truncated_moment,
)
from rmtldp.matcore import eigvals, trace_powers
from rmtldp.randsrc import GaussianProfile
from rmtldp.rng import stream
from rmtldp.stats import batch_mean_stderr, geweke_z
from rmtldp.wigner import assemble_wigner, assemble_wigner_batch


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

    def test_to_json_fields(self):
        # recorded before to_json was built from the dataclass fields
        assert Potential(b=0.5, alpha=4.0, beta=2.0, w_kind="abs", w_coef=0.5).to_json() == {
            "b": 0.5, "alpha": 4.0, "beta": 2.0, "w_kind": "abs", "w_coef": 0.5}
        assert Potential(b=1, alpha=2, beta=1).to_json() == {"b": 1, "alpha": 2, "beta": 1, "w_kind": "zero",
                                                              "w_coef": 0.0}


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
        state = GasState.initial(pot, 8, seed=1)
        state.step = 0.0
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
        assert (blob["window_accept"], blob["window_proposals"]) == (state.accept_count, 30)
        del blob["accept_count"], blob["proposal_count"], blob["window_accept"], blob["window_proposals"]
        restored, _ = GasState.from_checkpoint(blob)
        assert (restored.accept_count, restored.proposal_count, restored.acceptance_rate) == (0, 0, 0.0)
        assert (restored.window_accept, restored.window_proposals) == (0, 0)
        assert restored.sweep_count == 5 and np.array_equal(restored.lambdas, state.lambdas)

    @pytest.mark.parametrize("split", [50, 150, 199])
    def test_tuned_runs_split_anywhere_equal_one_run(self, split):
        pot = Potential(b=0.25, alpha=2.0, beta=1.0)
        whole = GasState.initial(pot, 16, seed=3)
        run_chain(whole, pot, 300, tune=True)
        parts = GasState.initial(pot, 16, seed=3)
        run_chain(parts, pot, split, tune=True)
        parts, _ = GasState.from_checkpoint(parts.checkpoint(pot))
        run_chain(parts, pot, 300 - split, tune=True)
        assert parts.checkpoint(pot) == whole.checkpoint(pot)

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
        samples = _chain_samples(Potential(b=0.25, alpha=2.0, beta=1.0), 12, 3, 300, 2, 60, lambda lam: moment(lam, 4))
        assert (float(samples.mean()), batch_mean_stderr(samples), geweke_z(samples)) == (
            2.467206804274297, 0.1404644117817143, -2.450352311785067)
        # the probe takes exact draws at alpha = 2 (stream (seed, 14)); re-recorded when it left the chain
        rows = lipschitz_concentration_probe(Potential(b=1.0, alpha=2.0, beta=1.0), "sin", 10, [0.0, 0.02], 80,
                                             seed=6, burn_in=300, thin=2)
        assert [(r.t, r.frequency, r.stderr, r.bound, r.violated) for r in rows] == [
            (0.0, 0.5125, 0.055884227425992035, 1.0, False),
            (0.02, 0.45, 0.05562148865321748, 0.9900498337491681, False),
        ]

    def test_returns_moment_estimate(self):
        pot = Potential(b=1.0, alpha=2.0, beta=1.0)
        res = estimate_equilibrium_moment(pot, 2, 8, 40, seed=3, burn_in=300, thin=2)
        assert isinstance(res, MomentEstimate)

    def test_recorded_exact_estimate(self):
        # beta-Hermite draws on stream (seed, 13); burn_in and thin are ignored.
        # The moments are tridiagonal trace powers, equal to the eigenvalue
        # moments of the same draws up to rounding.
        pot = Potential(b=0.25, alpha=2.0, beta=1.0)
        est = estimate_equilibrium_moment(pot, 4, 12, 60, seed=3, burn_in=300, thin=2)
        assert est == MomentEstimate(2.3864837075951906, 0.100787690931182, 0.27384773125906897, False, 60,
                                     "beta_hermite")
        assert estimate_equilibrium_moment(pot, 4, 12, 60, seed=3, burn_in=0, thin=7) == est
        samples = np.mean(sample_beta_hermite(pot, 12, 60, stream(3, 13)) ** 4, axis=1)
        assert est.estimate == pytest.approx(float(samples.mean()), rel=1e-12)
        assert est.stderr == pytest.approx(float(np.std(samples, ddof=1) / math.sqrt(60)), rel=1e-12)

    @pytest.mark.parametrize("pot", [Potential(b=0.25, alpha=2.0, beta=1.0), Potential(b=0.5, alpha=4.0, beta=1.0)],
                             ids=["beta_hermite", "chain"])
    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_no_samples_rejected(self, pot, n_samples):
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            estimate_equilibrium_moment(pot, 2, 8, n_samples, seed=3, burn_in=10, thin=1)

    def test_method_follows_the_potential(self):
        assert not Potential(b=0.5, alpha=4.0, beta=1.0).is_beta_hermite
        assert not Potential(b=1.0, alpha=2.0, beta=1.0, w_kind="abs", w_coef=0.5).is_beta_hermite
        assert Potential(b=1.0, alpha=2.0, beta=1.0, w_kind="abs", w_coef=0.0).is_beta_hermite
        res = estimate_equilibrium_moment(Potential(b=0.5, alpha=4.0, beta=1.0), 2, 8, 40, seed=3, burn_in=300, thin=2)
        assert res.method == "chain" and res.n_samples == 40
        assert estimate_equilibrium_moment(Potential(b=1.0, alpha=2.0, beta=1.0), 0, 8, 40).method == "beta_hermite"

    def test_exact_path_uses_one_stream_and_no_matrix_type(self, monkeypatch):
        streams = []
        monkeypatch.setattr(loggas, "stream", lambda *key: streams.append(key) or stream(*key))

        def no_herm(*args, **kwargs):
            raise AssertionError("HermMatrix built")

        monkeypatch.setattr(matcore.HermMatrix, "__init__", no_herm)
        estimate_equilibrium_moment(Potential(b=0.25, alpha=2.0, beta=1.0), 2, 32, 100, seed=9)
        assert streams == [(9, 13)]


def _hermite_moment4(N, b, beta):
    """E[(1/N) sum lambda**4] from the walk expansion of tr T**4 over the
    tridiagonal T (diagonal a ~ N(0, 2), off-diagonal squares b_i**2 ~
    chi2_{k_i}, k_i = beta (N - i)):
    tr T**4 = sum a**4 + 4 sum b_i**2 (a_i**2 + a_i a_{i+1} + a_{i+1}**2)
              + 2 sum b_i**4 + 4 sum b_i**2 b_{i+1}**2."""
    k = beta * np.arange(N - 1, 0, -1.0)
    tr4 = 12 * N + 16 * k.sum() + 2 * np.sum(k * (k + 2)) + 4 * np.sum(k[:-1] * k[1:])
    return float(tr4 / (4 * N * (2 * N * b) ** 2))


class TestBetaHermite:
    def test_moment4_formula_is_goe_at_beta_one(self):
        for N in (4, 12, 32):
            assert _hermite_moment4(N, 0.25, 1.0) == pytest.approx(2 + 5 / N + 5 / N ** 2, rel=1e-14)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("N, b", [(6, 1.0), (16, 0.25)])
    def test_exact_moments(self, beta, N, b):
        pot = Potential(b=b, alpha=2.0, beta=beta)
        lam = sample_beta_hermite(pot, N, 20_000, stream(310, N, int(4 * beta)))
        exact = {2: (1 + beta * (N - 1) / 2) / (2 * N * b), 4: _hermite_moment4(N, b, beta)}
        for p, value in exact.items():
            m = np.mean(lam ** p, axis=1)
            assert abs(m.mean() - value) <= 4.0 * m.std(ddof=1) / math.sqrt(m.size)

    def test_same_seed_same_bytes(self):
        pot = Potential(b=0.5, alpha=2.0, beta=2.5)
        a = sample_beta_hermite(pot, 9, 150, stream(311))
        assert a.shape == (150, 9) and np.all(np.diff(a, axis=1) >= 0)
        assert a.tobytes() == sample_beta_hermite(pot, 9, 150, stream(311)).tobytes()

    def test_recorded_bytes(self):
        # recorded before the draw moved to draw_tridiagonal
        blobs = [sample_beta_hermite(Potential(b=b, alpha=2.0, beta=beta), N, m, stream(314, N)).tobytes()
                 for b, beta, N, m in ((0.5, 2.5, 9, 150), (0.25, 1.0, 32, 130), (1.0, 2.0, 2, 3))]
        assert hashlib.sha256(b"".join(blobs)).hexdigest()[:16] == "36944f1f4ef8c587"

    @pytest.mark.parametrize("block", [1, 7, 500])
    def test_block_size_does_not_change_draws(self, monkeypatch, block):
        pot = Potential(b=0.25, alpha=2.0, beta=1.0)
        ref = sample_beta_hermite(pot, 10, 200, stream(312))
        monkeypatch.setattr(matcore, "_TRIDIAGONAL_BLOCK", block)
        assert sample_beta_hermite(pot, 10, 200, stream(312)).tobytes() == ref.tobytes()

    def test_rejects_potentials_it_cannot_draw(self):
        for pot in (Potential(b=1.0, alpha=4.0, beta=1.0), Potential(b=1.0, alpha=2.0, beta=1.0, w_kind="abs", w_coef=0.1)):
            with pytest.raises(ValueError):
                sample_beta_hermite(pot, 8, 10, stream(313))


GOE, GUE = GaussianProfile(sigma2=2.0, beta=1), GaussianProfile(sigma2=1.0, beta=2)


def _off_by_one_degree(beta, N, count, rng):
    """draw_tridiagonal with the chi2 degrees beta (N - i + 1): a mutation
    the law tests must catch."""
    a = math.sqrt(2.0) * rng.standard_normal((count, N))
    return a, np.sqrt(rng.chisquare(beta * np.arange(N, 1, -1.0), size=(count, N - 1)))


def _tridiagonal_moment4(beta, n, count, rng, draw=draw_tridiagonal):
    """tr_n X**4 of count tridiagonal draws with X = T / sqrt(beta n), the
    GOE (beta 1) or GUE (beta 2) law: the moments of the gas b = beta / 4."""
    return trace_powers(draw(beta, n, count, rng), 4) / (n * (beta * n) ** 2)


def _law_pvalue(prof, n, draw=draw_tridiagonal):
    """Two-sample KS p-value of dense against tridiagonal tr_n X**4, 6000 draws each."""
    mats = assemble_wigner_batch(prof, n, [stream(50, n, k) for k in range(6000)]) / math.sqrt(n)
    dense = trace_powers(mats, 4) / n
    return sps.ks_2samp(dense, _tridiagonal_moment4(prof.beta, n, 6000, stream(51, n), draw)).pvalue


class TestTridiagonalLaw:
    """The tridiagonal trace powers have the law of the dense GOE and GUE."""

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("prof", [GOE, GUE], ids=["goe", "gue"])
    def test_matches_dense(self, prof, n):
        assert _law_pvalue(prof, n) > 1e-3

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("prof", [GOE, GUE], ids=["goe", "gue"])
    def test_mean_is_exact(self, prof, n):
        exact = 2 + 5 / n + 5 / n ** 2 if prof.beta == 1 else 2 + 1 / n ** 2
        vals = _tridiagonal_moment4(prof.beta, n, 20_000, stream(52, n, prof.beta))
        assert abs(vals.mean() - exact) <= 4.0 * vals.std(ddof=1) / math.sqrt(vals.size)

    @pytest.mark.parametrize("prof", [GOE, GUE], ids=["goe", "gue"])
    def test_catches_wrong_degrees(self, prof):
        # recorded mutation: chi2 degrees beta (n - i + 1) in place of beta (n - i)
        assert _law_pvalue(prof, 8, _off_by_one_degree) < 1e-6
        vals = _tridiagonal_moment4(prof.beta, 8, 20_000, stream(52, 8, prof.beta), _off_by_one_degree)
        exact = 2 + 5 / 8 + 5 / 64 if prof.beta == 1 else 2 + 1 / 64
        assert abs(vals.mean() - exact) > 4.0 * vals.std(ddof=1) / math.sqrt(vals.size)


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

    @pytest.mark.parametrize("w_kind, w_coef, digest", [
        ("zero", 0.0, "85f10ce77a9d294a"),
        ("abs", 0.5, "57d36cad6cd94a76"),
    ])
    def test_matches_recorded_estimate(self, w_kind, w_coef, digest):
        # alpha = 2 takes the envelope matched to b; recorded before the
        # single-valued options became constants
        pot = Potential(b=1.0, alpha=2.0, beta=1.0, w_kind=w_kind, w_coef=w_coef)
        est = iid_truncated_tail(pot, 3, 32, 4e-4, 500, seed=9)
        assert hashlib.sha256(repr(dataclasses.asdict(est)).encode()).hexdigest()[:16] == digest


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

    @pytest.mark.parametrize("f_name, digest", [
        ("identity_clip", "43b82bcb184c58b1"),
        ("abs_clip", "d292debf6522fec0"),
    ])
    def test_matches_recorded_rows(self, f_name, digest, monkeypatch):
        # the chain spreads past the clip at 10, so the clip shapes the rows;
        # alpha = 2 now takes exact draws, so the chain is forced to keep the
        # rows recorded from it
        monkeypatch.setattr(Potential, "is_beta_hermite", property(lambda self: False))
        pot = Potential(b=0.002, alpha=2.0, beta=1.0)
        rows = lipschitz_concentration_probe(pot, f_name, 6, [0.0, 0.1, 0.3], 40, seed=6, burn_in=100, thin=2)
        assert hashlib.sha256(repr([dataclasses.asdict(r) for r in rows]).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("f_name, digest", [
        ("identity_clip", "f81c8b2e2d75c58a"),
        ("abs_clip", "d41e3792eed32b59"),
    ])
    def test_exact_rows_match_recorded(self, f_name, digest):
        # the exact draws spread past the clip at 10 too; recorded when the
        # probe left the chain at alpha = 2
        pot = Potential(b=0.002, alpha=2.0, beta=1.0)
        rows = lipschitz_concentration_probe(pot, f_name, 6, [0.0, 0.1, 0.3], 40, seed=6, burn_in=100, thin=2)
        assert hashlib.sha256(repr([dataclasses.asdict(r) for r in rows]).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("f_name, digest", [
        ("identity_clip", "17f7c9c5a2871018"),
        ("sin", "94a9eec52142e16c"),
    ])
    def test_chain_rows_match_recorded(self, f_name, digest):
        # alpha = 4 has no exact sampler, so the chain runs; recorded before
        # the alpha = 2 probe moved onto exact draws
        pot = Potential(b=0.5, alpha=4.0, beta=1.0)
        rows = lipschitz_concentration_probe(pot, f_name, 6, [0.0, 0.05, 0.2], 40, seed=6, burn_in=100, thin=2)
        assert hashlib.sha256(repr([dataclasses.asdict(r) for r in rows]).encode()).hexdigest()[:16] == digest

    def test_exact_path_ignores_chain_settings(self, monkeypatch):
        streams = []
        monkeypatch.setattr(loggas, "stream", lambda *key: streams.append(key) or stream(*key))
        pot = Potential(b=1.0, alpha=2.0, beta=1.0)
        a = lipschitz_concentration_probe(pot, "sin", 8, [0.0, 0.05], 50, seed=7, burn_in=300, thin=2)
        b = lipschitz_concentration_probe(pot, "sin", 8, [0.0, 0.05], 50, seed=7, burn_in=0, thin=9)
        assert a == b and streams == [(7, 14), (7, 14)]
