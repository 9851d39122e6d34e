import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from scipy import integrate, special

from rmtldp.randsrc import (
    CalibrationError,
    GaussianProfile,
    TailProfile,
    TwoPieceModulus,
    profile_from_json,
    tail_calibration_report,
)
from rmtldp.rates import rate_value, semicircle_moment, speed_exponent
from rmtldp.rng import stream


def se_of_proportion(p, n):
    return math.sqrt(p * (1 - p) / n)


def pooled_entries(prof, part, rng, size, n=32):
    """size draws of one part of draw_entries (0 diagonal, 1 strict upper
    triangle), pooled over successive n x n draws from one stream."""
    chunks, got = [], 0
    while got < size:
        chunks.append(prof.draw_entries(n, [rng])[part][0])
        got += chunks[-1].size
    return np.concatenate(chunks)[:size]


def tilt_oracle(law, eta):
    """Closed-form Z(eta) = E[exp(eta T)] of an alpha = 1 law, and its tail piece."""
    s, t0, c = law.s, law.t0, law.c
    z = special.ndtr(t0 / s) - 0.5
    core = (law.core_mass / z * math.exp(0.5 * (eta * s) ** 2)
            * (special.ndtr(t0 / s - eta * s) - special.ndtr(-eta * s)))
    tail = c / (c - eta) * math.exp(-(c - eta) * t0)
    return core + tail, tail


class TestTailLaw:
    def test_exact_tail_survival(self):
        # alpha=1, c=1, t0=2 (diagonal role carries rate b, never normalized)
        prof = TailProfile(alpha=1.0, a=1.0, b=1.0, t0=2.0, normalize_variance=False)
        law = prof.modulus_law("diagonal")
        for t in (2.0, 2.5, 3.0, 4.0, 7.0):
            assert float(law.survival(np.array([t]))[0]) == pytest.approx(math.exp(-t), rel=1e-12)

    @pytest.mark.parametrize("prof", [TailProfile(alpha=1.0, a=1.0, b=1.0, t0=3.0),
                                      TailProfile.with_feasible_t0(alpha=0.5, a=1.0, b=1.0)])
    def test_survival_complements_integrated_pdf(self, prof):
        for role in ("diagonal", "offdiagonal"):
            law = prof.modulus_law(role)
            t0 = law.t0
            grid = np.array([0.0, 0.1, 0.3, 0.6, 0.9, 1.0]) * t0
            grid = np.concatenate([grid, t0 + np.array([0.5, 2.0, 6.0])])
            f = lambda u: float(law.pdf(u))
            for t, s in zip(grid, law.survival(grid)):
                # the pdf jumps at t0, so the core and the tail are integrated apart
                mass, _ = integrate.quad(f, 0.0, min(t, t0), epsabs=1e-14, epsrel=1e-13)
                if t > t0:
                    mass += integrate.quad(f, t0, t, epsabs=1e-14, epsrel=1e-13)[0]
                assert s + mass == pytest.approx(1.0, abs=1e-10)

    def test_empirical_tail_frequency(self):
        prof = TailProfile(alpha=1.0, a=1.0, b=1.0, t0=2.0, normalize_variance=False)
        x = prof.draw_role("diagonal", [stream(11, 0)], 10 ** 6)[0]
        p = math.exp(-3.0)
        freq = float(np.mean(np.abs(x) > 3.0))
        assert abs(freq - p) <= 3.0 * se_of_proportion(p, 10 ** 6)

    def test_phase_symmetry_centers_entries(self):
        prof = TailProfile(alpha=1.0, a=1.0, b=1.0, t0=2.0, normalize_variance=False)
        x = prof.draw_role("offdiagonal", [stream(11, 1)], 10 ** 6)[0]
        sd = float(np.std(x))
        assert abs(float(np.mean(x))) <= 3.0 * sd / 1000.0

    def test_variance_normalization_against_quadrature(self):
        prof = TailProfile(alpha=1.0, a=1.0, b=1.0, t0=3.0, normalize_variance=True)
        law = prof.modulus_law("offdiagonal")
        m2_quad, _ = integrate.quad(lambda t: t * t * float(law.pdf(np.array([t]))[0]), 0, law.t0)
        m2_quad += TwoPieceModulus.tail_second_moment(1.0, 1.0, 3.0)
        assert m2_quad == pytest.approx(1.0, abs=1e-6)
        x = prof.draw_role("offdiagonal", [stream(11, 2)], 10 ** 6)[0]
        assert float(np.mean(np.abs(x) ** 2)) == pytest.approx(1.0, abs=0.01)

    def test_infeasible_normalization_names_minimal_t0(self):
        # tail second moment at t0=2 is 10/e^2 > 1, so calibration must fail
        with pytest.raises(CalibrationError) as err:
            TailProfile(alpha=1.0, a=1.0, b=1.0, t0=2.0, normalize_variance=True)
        msg = str(err.value)
        assert "minimal feasible t0" in msg
        named = float(msg.rsplit(" ", 1)[-1])
        assert named == pytest.approx(2.674, abs=0.01)

    @pytest.mark.parametrize("alpha, t0, t0_hex, scale_hex", [
        (1.0, 3.0, "0x1.8000000000000p+1", "0x1.9bbb083ebd0b9p-2"),
        (1.0, None, "0x1.7881f81d3d97cp+1", "0x1.772853325729dp-2"),
        (1.5, None, "0x1.0b194f8fa12a6p+0", "0x1.21192375e11a8p-2"),
    ])
    def test_calibration_matches_recorded_bits(self, alpha, t0, t0_hex, scale_hex):
        # recorded before the core moment became a static function of (t0, s)
        prof = TailProfile(alpha, 1.0, 1.0, t0=t0) if t0 else TailProfile.with_feasible_t0(alpha, 1.0, 1.0)
        assert (prof.t0.hex(), prof.modulus_law("offdiagonal").s.hex()) == (t0_hex, scale_hex)

    def test_with_feasible_t0(self):
        prof = TailProfile.with_feasible_t0(alpha=0.5, a=1.0, b=1.0)
        law = prof.modulus_law("offdiagonal")
        assert law.second_moment() == pytest.approx(1.0, abs=1e-9)

    def test_modulus_phase_independence(self):
        prof = TailProfile(alpha=1.0, a=1.0, b=1.0, t0=2.0, normalize_variance=False)
        x = prof.draw_role("offdiagonal", [stream(11, 3)], 10 ** 6)[0]
        mod = np.abs(x)
        pos = (np.sign(x) > 0).astype(float)
        corr = np.corrcoef(mod, pos)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(10 ** 6) * 10  # |rho| ~ O(1/sqrt(n)) under independence

    def test_reproducible_from_seed_and_stream(self):
        prof = TailProfile(alpha=1.0, a=1.0, b=1.0, t0=2.0, normalize_variance=False)
        a = prof.draw_role("offdiagonal", [stream(42, 9)], 1000)[0]
        b = prof.draw_role("offdiagonal", [stream(42, 9)], 1000)[0]
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("phase, role, digest", [
        ("rademacher", "offdiagonal", "06bed39c15a140dc"),
        ("uniform_s1", "diagonal", "06bed39c15a140dc"),
        ("uniform_s1", "offdiagonal", "80af4d8a3c8cc729"),
    ])
    def test_sample_entries_matches_recorded_draws(self, phase, role, digest):
        # recorded from the per-entry sampler that the batch draw replaced
        prof = TailProfile(alpha=1.0, a=1.0, b=1.0, t0=2.0, phase_offdiag=phase, normalize_variance=False)
        x = prof.draw_role(role, [stream(11, 5)], 1000)[0]
        assert hashlib.sha256(x.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("role, digest", [("offdiagonal", "af805e803955c6be"), ("diagonal", "f1fb836c11bd34d2")])
    def test_modulus_sample_matches_recorded_draws(self, role, digest):
        prof = TailProfile(alpha=0.5, a=1.0, b=2.0, t0=2.0, normalize_variance=False)
        x = prof.modulus_law(role).draw([stream(11, 6)], 1000)[0]
        assert hashlib.sha256(x.tobytes()).hexdigest()[:16] == digest

    def test_complex_phase_law(self):
        prof = TailProfile(alpha=1.0, a=1.0, b=1.0, t0=2.0,
                           phase_offdiag="uniform_s1", normalize_variance=False)
        x = prof.draw_role("offdiagonal", [stream(11, 4)], 20000)[0]
        assert np.iscomplexobj(x)
        assert prof.beta == 2
        # phase uniform on the circle: mean near 0 in both components
        assert abs(np.mean(x.real)) < 0.1 and abs(np.mean(x.imag)) < 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            TailProfile(alpha=2.5, a=1, b=1)
        with pytest.raises(ValueError):
            TailProfile(alpha=1, a=-1, b=1)
        with pytest.raises(ValueError):
            TailProfile(alpha=1, a=1, b=1, phase_diag="uniform_s1")


class TestTilt:
    @pytest.mark.parametrize("role", ["diagonal", "offdiagonal"])
    @pytest.mark.parametrize("eta", [0.3, 0.69, 0.95])
    def test_normalizer_matches_closed_form(self, role, eta):
        law = TailProfile(alpha=1.0, a=1.0, b=1.0, t0=3.0).modulus_law(role)
        Z, _ = tilt_oracle(law, eta)
        assert law.tilt_normalizer(eta) == pytest.approx(Z, rel=1e-10)

    def test_sample_tilted_follows_tilted_law(self):
        law = TailProfile(alpha=1.0, a=1.0, b=1.0, t0=3.0).modulus_law("offdiagonal")
        eta, m = 0.69, 200_000
        Z, tail = tilt_oracle(law, eta)
        t = law.sample_tilted(eta, [stream(23, 0)], m)[0]
        q = tail / Z
        assert abs(float(np.mean(t > law.t0)) - q) <= 4.0 * se_of_proportion(q, m)
        # E_q[exp(-eta T)] = 1/Z: the identity behind the IS weight
        g = np.exp(-eta * t)
        assert abs(float(g.mean()) - 1.0 / Z) <= 4.0 * float(g.std()) / math.sqrt(m)


PROFILES = [
    GaussianProfile(sigma2=1.0, beta=1),
    GaussianProfile(sigma2=0.25, beta=2),
    TailProfile(alpha=0.5, a=1.0, b=1.0, normalize_variance=False),
    TailProfile(alpha=1.0, a=1.0, b=2.0, normalize_variance=False, phase_offdiag="uniform_s1"),
    TailProfile(alpha=1.5, a=1.0, b=1.0, normalize_variance=False),
]


class TestProfileInterface:
    @pytest.mark.parametrize("prof", PROFILES)
    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_rate_spec_speed_matches_profile_speed(self, prof, p):
        spec = prof.rate_spec(p)
        if spec is not None:
            assert speed_exponent(spec) == prof.speed(p)

    def test_tail_rate_spec_closed_form_only_where_known(self):
        for alpha in (0.5, 1.0):
            prof = TailProfile(alpha=alpha, a=1.0, b=1.0, normalize_variance=False)
            for p in (4, 6):
                spec = prof.rate_spec(p)
                assert spec.theorem == "wigner_no_gaussian_tail"
                assert spec.params["c_p"] == min(1.0, 2.0 ** (-alpha / p))
            assert prof.rate_spec(5) is None
        assert TailProfile(alpha=1.5, a=1.0, b=1.0, normalize_variance=False).rate_spec(4) is None

    def test_gaussian_rate_spec_none_below_p3(self):
        assert GaussianProfile(sigma2=1.0, beta=1).rate_spec(2) is None
        assert GaussianProfile(sigma2=1.0, beta=1).rate_spec(3).p == 3

    @pytest.mark.parametrize("prof", PROFILES)
    def test_mechanism_is_the_cheaper_channel(self, prof):
        spec = prof.rate_spec(4)
        if isinstance(prof, GaussianProfile):
            diag, pair = 0.5 / prof.sigma2, 0.5 * prof.beta / 2.0
        else:
            diag, pair = prof.b, 2.0 ** (-prof.alpha / 4) * prof.a
        assert prof.mechanism(4) == ("diag" if diag <= pair else "offdiag")
        if spec is not None:
            assert rate_value(spec, semicircle_moment(4) + 1.0) == pytest.approx(min(diag, pair))


class TestGaussianProfile:
    def test_diag_variance(self):
        prof = GaussianProfile(sigma2=2.0, beta=1)
        x = pooled_entries(prof, 0, stream(12, 0), 10 ** 6)
        assert float(np.var(x)) == pytest.approx(2.0, abs=0.02)

    def test_beta2_offdiag_unit_modulus(self):
        prof = GaussianProfile(sigma2=1.0, beta=2)
        x = pooled_entries(prof, 1, stream(12, 1), 10 ** 6)
        assert float(np.mean(np.abs(x) ** 2)) == pytest.approx(1.0, abs=0.01)

    def test_beta1_offdiag_skewness(self):
        prof = GaussianProfile(sigma2=1.0, beta=1)
        x = pooled_entries(prof, 1, stream(12, 2), 10 ** 6)
        skew = float(np.mean(x ** 3) / np.mean(x ** 2) ** 1.5)
        assert abs(skew) <= 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianProfile(sigma2=0.0)
        with pytest.raises(ValueError):
            GaussianProfile(beta=3)


class TestCalibrationReport:
    def test_ratio_matches_rate(self):
        prof = TailProfile(alpha=1.0, a=1.0, b=1.0, t0=2.0, normalize_variance=False)
        rows = tail_calibration_report(prof, 400_000, [4.0], stream(13, 0))
        (row,) = rows
        assert not row.below_onset
        assert row.ci_low <= 1.0 <= row.ci_high
        assert row.ratio == pytest.approx(1.0, abs=0.2)

    def test_below_onset_flagged(self):
        prof = TailProfile(alpha=1.0, a=1.0, b=1.0, t0=2.0, normalize_variance=False)
        rows = tail_calibration_report(prof, 1000, [1.0, 2.5], stream(13, 1))
        assert rows[0].below_onset and not rows[1].below_onset

    def test_diagonal_rate(self):
        prof = TailProfile(alpha=0.5, a=1.0, b=2.0, t0=2.0, normalize_variance=False)
        rows = tail_calibration_report(prof, 2_000_000, [9.0], stream(13, 2), role="diagonal")
        (row,) = rows
        assert row.ci_low <= 2.0 <= row.ci_high
        assert row.ratio == pytest.approx(2.0, abs=0.3)

    @pytest.mark.parametrize("role, digest", [("offdiagonal", "c857cc6db251d220"), ("diagonal", "7e0d5202c1e59437")])
    def test_matches_recorded_rows(self, role, digest):
        prof = TailProfile(alpha=0.5, a=1.0, b=2.0, t0=2.0, normalize_variance=False)
        rows = tail_calibration_report(prof, 2000, [1.0, 2.5, 9.0], stream(13, 4), role=role)
        assert hashlib.sha256(repr([dataclasses.asdict(r) for r in rows]).encode()).hexdigest()[:16] == digest

    def test_empty_grid(self):
        prof = TailProfile(alpha=1.0, a=1.0, b=1.0, normalize_variance=False)
        with pytest.raises(ValueError):
            tail_calibration_report(prof, 100, [], stream(13, 3))

    @pytest.mark.parametrize("t", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_thresholds_that_are_not_finite_and_positive(self, t):
        prof = TailProfile(alpha=1.0, a=1.0, b=1.0, normalize_variance=False)
        with pytest.raises(ValueError, match=f"thresholds must be finite and positive, got t={t}"):
            tail_calibration_report(prof, 100, [2.0, t], stream(13, 3))


class TestSerialization:
    def test_tail_profile_roundtrip(self):
        prof = TailProfile(alpha=1.0, a=2.0, b=0.5, t0=3.0,
                           phase_offdiag="uniform_s1", normalize_variance=True)
        blob = json.dumps(prof.to_json())
        back = profile_from_json(blob)
        assert back == prof

    def test_gaussian_roundtrip(self):
        prof = GaussianProfile(sigma2=2.0, beta=2)
        assert profile_from_json(prof.to_json()) == prof

    def test_to_json_fields(self):
        # recorded before to_json was built from the dataclass fields
        assert GaussianProfile(sigma2=0.25, beta=2).to_json() == {"kind": "gaussian", "sigma2": 0.25, "beta": 2}
        assert TailProfile(alpha=1.0, a=1.0, b=2.0, t0=3.0).to_json() == {
            "alpha": 1.0, "a": 1.0, "b": 2.0, "t0": 3.0, "phase_diag": "rademacher", "phase_offdiag": "rademacher",
            "normalize_variance": True, "kind": "tail"}


def reference_modulus(law, rng, size, eta=0.0):
    """The per-generator modulus sampler that TwoPieceModulus.draw batches:
    random(size), standard_exponential(k) for the k tail draws, then the
    core's random(size - k) (eta = 0) or rejection loop (eta > 0)."""
    tail_mass, rate = (law._tilt(eta)[1], law.c - eta) if eta else (law.tail_mass, law.c)
    u = rng.random(size)
    is_tail = u < tail_mass
    out = np.empty(size)
    k = int(is_tail.sum())
    if k:
        out[is_tail] = (law._t0_alpha + rng.standard_exponential(k) / rate) ** (1.0 / law.alpha)
    j = size - k
    if j and not eta:
        out[~is_tail] = np.minimum(law.s * special.ndtri(0.5 + rng.random(j) * law._core_z), law.t0)
    elif j:
        got = np.empty(0)
        while got.size < j:
            cand = reference_modulus(law, rng, max(j, 64))
            cand = cand[cand <= law.t0]
            acc = rng.random(cand.size) < np.exp(eta * (cand ** law.alpha - law._t0_alpha))
            got = np.concatenate([got, cand[acc]])
        out[~is_tail] = got[:j]
    return out


def reference_entries(prof, role, rng, size):
    """Moduli, then phases, of size entries of one role from one generator."""
    mod = reference_modulus(prof.modulus_law(role), rng, size)
    if (prof.phase_diag if role == "diagonal" else prof.phase_offdiag) == "rademacher":
        return mod * (rng.integers(0, 2, size=size) * 2.0 - 1.0)
    return mod * np.exp(1j * (rng.random(size) * 2.0 * np.pi))


def reference_plant(prof, mech, shift, rng):
    """(planted entry, logw) of one generator: a tilted modulus, then a sign or phase."""
    law = prof.modulus_law("diagonal" if mech == "diag" else "offdiagonal")
    eta = max(0.0, min(law.c - math.log(2.0) / shift ** prof.alpha, 0.95 * law.c)) if shift > 0 else 0.0
    t = float(reference_modulus(law, rng, 1, eta)[0])
    if mech == "diag":
        phase = 1.0 if rng.random() < 0.5 else -1.0
    elif prof.beta == 1:
        phase = -1.0 if rng.random() < 0.5 else 1.0
    else:
        phase = np.exp(2j * np.pi * rng.random())
    return phase * t, math.log(law.tilt_normalizer(eta)) - eta * t ** prof.alpha


class TestBatchDraws:
    """Batch draws and plants equal the per-generator reference bit for bit:
    each generator makes the same calls in the same order.  Odd sizes (n = 5
    and 7, m = 10 and 21) leave Philox's buffered half-word to the next call.
    Recorded mutation: drawing the core's uniforms before the exponentials
    in TwoPieceModulus.draw fails every case."""

    @pytest.mark.parametrize("mech", ["diag", "offdiag"])
    @pytest.mark.parametrize("shift", [0.0, 2.0], ids=["eta0", "tilted"])
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    @pytest.mark.parametrize("phase", ["rademacher", "uniform_s1"])
    def test_entries_and_plant_equal_reference(self, phase, alpha, shift, mech):
        prof = TailProfile(alpha=alpha, a=1.0, b=1.0, t0=2.0, phase_offdiag=phase, normalize_variance=False)
        plant, _ = prof.proposal(mech, shift)
        for n in (5, 7):
            rngs = [stream(70, n, k) for k in range(40)]
            diag, off = prof.draw_entries(n, rngs)
            planted, logw = plant(off[:, 0], rngs)
            for k in range(40):
                rng = stream(70, n, k)
                assert diag[k].tobytes() == reference_entries(prof, "diagonal", rng, n).tobytes()
                assert off[k].tobytes() == reference_entries(prof, "offdiagonal", rng, n * (n - 1) // 2).tobytes()
                assert (planted[k], logw[k]) == reference_plant(prof, mech, shift, rng)
            if shift:  # both branches of the tilted plant: tail moduli above t0, core ones below
                assert 0 < np.count_nonzero(np.abs(planted) > 2.0) < 40

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_tilted_rows_equal_reference(self, alpha):
        # seven draws per generator: the rejection loop fills several core draws at once
        law = TailProfile(alpha=alpha, a=1.0, b=1.0, t0=2.0, normalize_variance=False).modulus_law("offdiagonal")
        rows = law.sample_tilted(0.6, [stream(71, k) for k in range(20)], 7)
        ref = np.array([reference_modulus(law, stream(71, k), 7, 0.6) for k in range(20)])
        assert rows.tobytes() == ref.tobytes()


def _state(rng):
    return repr(rng.bit_generator.state)  # the arrays inside make == ambiguous


class TestPhaseBits:
    """A Rademacher sign is a float32 uniform >= 0.5: the top bit of the same
    32-bit word integers(0, 2) takes, so the signs, and the state after
    them, equal integers(0, 2, size)'s, odd sizes (Philox's buffered
    half-word) included, between other draws.  Recorded mutation: a float64
    uniform in TailProfile.draw_role fails every draw_role case."""

    @pytest.mark.parametrize("size", [1, 5, 7, 16, 21, 120])
    def test_float32_half_is_the_integer_bit(self, size):
        ours, ref = stream(72, size), stream(72, size)
        for _ in range(3):
            u = np.empty(size, dtype=np.float32)
            ours.random(dtype=np.float32, out=u)
            assert np.array_equal(u >= 0.5, ref.integers(0, 2, size=size) == 1)
            assert ours.random(3).tobytes() == ref.random(3).tobytes()
            assert ours.standard_exponential(size).tobytes() == ref.standard_exponential(size).tobytes()
        assert _state(ours) == _state(ref)

    @pytest.mark.parametrize("size", [1, 5, 7, 16, 21, 120])
    def test_draw_role_signs_equal_integers(self, size):
        prof = TailProfile(alpha=1.0, a=1.0, b=1.0, t0=2.0, normalize_variance=False)
        ours, ref = stream(73, size), stream(73, size)
        for _ in range(3):
            got = prof.draw_role("diagonal", [ours], size)[0]
            assert got.tobytes() == reference_entries(prof, "diagonal", ref, size).tobytes()
            assert ours.standard_exponential(size).tobytes() == ref.standard_exponential(size).tobytes()
        assert _state(ours) == _state(ref)
