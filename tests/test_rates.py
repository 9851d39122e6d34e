import hashlib
import math

import numpy as np
import pytest
from scipy import integrate

from rmtldp.matcore import HermMatrix, normalized_trace_power, trace_power
from rmtldp.randsrc import GaussianProfile
from rmtldp.rates import (
    RateSpec,
    catalan,
    deformed_trace_limit,
    gaussian_entry_cost,
    hollow_witness,
    linearization_gap,
    rate_value,
    semicircle_cdf,
    semicircle_moment,
    speed_exponent,
    trace_linearization_discrepancy,
)
from rmtldp.rng import stream
from rmtldp.varopt import cost_I, solve_rate_constant


class TestCatalanAndSemicircle:
    def test_first_values(self):
        assert [catalan(k) for k in (1, 2, 3)] == [1, 2, 5]
        assert catalan(0) == 1

    def test_exact_up_to_30(self):
        assert catalan(30) == 3814986502092304

    def test_odd_moment_zero(self):
        assert semicircle_moment(3) == 0.0

    def test_fourth_moment_against_quadrature(self):
        val, _ = integrate.quad(lambda x: x ** 4 * math.sqrt(4 - x * x) / (2 * math.pi), -2, 2)
        assert semicircle_moment(4) == pytest.approx(val, abs=1e-10)

    def test_cdf_endpoints(self):
        assert semicircle_cdf(-2.0) == pytest.approx(0.0, abs=1e-12)
        assert semicircle_cdf(0.0) == pytest.approx(0.5)
        assert semicircle_cdf(2.0) == pytest.approx(1.0)


class TestSpeeds:
    def test_gaussian(self):
        assert speed_exponent(RateSpec.for_gaussian(4, 1.0, 2)) == 1.5

    def test_heavy_tail(self):
        assert speed_exponent(RateSpec.for_wg(4, 1.0, 1.0)) == 0.75

    def test_beta_ensemble(self):
        assert speed_exponent(RateSpec.for_beta_ensemble(4, 1.0, 2.0, 1.0)) == 1.5

    def test_truncated(self):
        assert speed_exponent(RateSpec.for_truncated_moment(5, 1.0, 2.0)) == 1.4


class TestRateSpecJson:
    def test_to_json_fields(self):
        # recorded before to_json was built from the dataclass fields
        assert RateSpec.for_gaussian(4, 1.0, 2).to_json() == {
            "theorem": "gaussian", "p": 4, "params": {"sigma2": 1.0, "beta": 2}, "center": 2.0}
        spec = RateSpec.for_beta_ensemble(6, 0.5, 4.0, 1.25)
        assert spec.to_json() == {"theorem": "beta_ensemble", "p": 6, "params": {"b": 0.5, "alpha": 4.0},
                                  "center": 1.25}
        assert spec.to_json()["params"] is not spec.params
        assert RateSpec.from_json(spec.to_json()) == spec


class TestRateValues:
    def test_gaussian_even(self):
        spec = RateSpec.for_gaussian(4, 1.0, 2)
        assert rate_value(spec, 3.0) == pytest.approx(0.5)
        assert rate_value(spec, 1.0) == math.inf
        assert rate_value(spec, 2.0) == 0.0

    def test_heavy_tail_even(self):
        c4 = 2.0 ** (-0.25)
        spec = RateSpec.for_wg(4, c4, 1.0)
        assert rate_value(spec, 3.0) == pytest.approx(c4)

    def test_beta_ensemble_unit_step(self):
        m = 1.7
        spec = RateSpec.for_beta_ensemble(4, 1.0, 2.0, m)
        assert rate_value(spec, m + 1.0) == pytest.approx(1.0)
        assert rate_value(spec, m - 0.5) == math.inf

    def test_odd_p_centering(self):
        g = RateSpec.for_gaussian(5, 1.0, 1)
        assert g.center == 0.0
        assert rate_value(g, -2.0) == rate_value(g, 2.0) > 0
        be = RateSpec.for_beta_ensemble(5, 1.0, 2.0, 0.9)
        assert rate_value(be, 0.9) == 0.0
        assert rate_value(be, 0.4) == rate_value(be, 1.4)

    def test_loglog_slope_recovers_exponent(self):
        for spec, expo in [
            (RateSpec.for_gaussian(4, 2.0, 1), 2.0 / 4),
            (RateSpec.for_wg(6, 0.7, 1.3), 1.3 / 6),
            (RateSpec.for_beta_ensemble(5, 2.0, 2.0, 0.0), 2.0 / 5),
        ]:
            u1, u2 = 0.7, 1.9
            s = (math.log(rate_value(spec, spec.center + u2)) - math.log(rate_value(spec, spec.center + u1))) / (
                math.log(u2) - math.log(u1)
            )
            assert s == pytest.approx(expo, abs=1e-9)

    @pytest.mark.parametrize("alpha, p", [(1.0, 4), (0.5, 6), (1.5, 4)])
    @pytest.mark.parametrize("delta", [0.25, 4.0])
    def test_heavy_tail_rate_is_cost_of_scaled_argmin(self, alpha, p, delta):
        # J(C + delta) = inf{I(A) : tr A**p = delta}; I is alpha-homogeneous
        # and tr A**p is p-homogeneous, so scaling the unit-trace argmin by
        # delta**(1/p) attains it
        res = solve_rate_constant(alpha, 1.0, 1.0, p, budget=8, seed=0)
        B = res.argmin.matrix().scaled(delta ** (1.0 / p))
        assert trace_power(B, p) == pytest.approx(delta, rel=1e-9)
        rate = rate_value(RateSpec.for_wg(p, res.value, alpha), semicircle_moment(p) + delta)
        assert cost_I(B, 1.0, 1.0, alpha) == pytest.approx(rate, rel=1e-9)

    def test_linear_in_leading_coefficient(self):
        m = 0.3
        s1 = RateSpec.for_beta_ensemble(4, 1.0, 2.0, m)
        s2 = RateSpec.for_beta_ensemble(4, 2.0, 2.0, m)
        for x in (m + 0.2, m + 1.0, m + 4.0):
            assert rate_value(s2, x) == pytest.approx(2.0 * rate_value(s1, x), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            RateSpec.for_gaussian(2, 1.0, 1)
        with pytest.raises(ValueError):
            RateSpec.for_beta_ensemble(2, 1.0, 2.0, 0.0)


class TestGaussianVariationalForm:
    def test_zero_matrix(self):
        H = HermMatrix.zeros(5)
        assert gaussian_entry_cost(H, 1.0) == 0.0
        assert deformed_trace_limit(H, 4) == semicircle_moment(4)

    def test_single_offdiagonal(self):
        h = 0.37
        H = HermMatrix.zeros(2).with_entry(0, 1, h)
        assert gaussian_entry_cost(H, 1.0) == pytest.approx(h * h)

    def test_cost_dominates_trace_power(self):
        rng = stream(401, 0)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            beta = int(rng.choice([1, 2]))
            sigma2 = float(rng.choice([0.5, 1.0, 2.0]))
            p = int(rng.integers(3, 7))
            if beta == 1:
                g = rng.standard_normal((n, n))
                H = HermMatrix(1, (g + g.T) / 2)
            else:
                g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                m = (g + np.conj(g).T) / 2
                np.fill_diagonal(m, np.real(np.diagonal(m)))
                H = HermMatrix(2, m)
            bound = min(1.0 / sigma2, beta / 2.0) * abs(trace_power(H, p)) ** (2.0 / p)
            assert gaussian_entry_cost(H, sigma2) >= bound * (1.0 - 1e-12)


class TestHollowWitness:
    def test_two_by_two_even(self):
        H = hollow_witness(2, semicircle_moment(4) + 2.0, 4)
        lam = H.matrix[0, 1]
        assert H.matrix[0, 0] == 0.0
        assert trace_power(H, 4) == pytest.approx(2.0 * lam ** 4)
        # denominator (n-1)^p + (n-1) = 2 at n = 2
        assert 2.0 * lam ** 4 == pytest.approx(2.0)

    def test_cost_approaches_limit(self):
        p, s = 4, semicircle_moment(4) + 1.0
        H = hollow_witness(200, s, p)
        # beta=1 entry cost tends to (beta/2)(s - center)^(2/p) = 0.5
        assert gaussian_entry_cost(H, 1.0) == pytest.approx(0.5, rel=0.02)

    def test_exactness_on_random_targets(self):
        rng = stream(402, 0)
        for _ in range(100):
            n = int(rng.integers(2, 41))
            p = int(rng.choice([4, 6]))
            s = semicircle_moment(p) + float(rng.uniform(0, 8))
            H = hollow_witness(n, s, p)
            assert abs(deformed_trace_limit(H, p) - s) <= 1e-10 * (1 + abs(s))

    def test_odd_p(self):
        rng = stream(402, 1)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            s = float(rng.uniform(-5, 5))
            H = hollow_witness(n, s, 5)
            assert abs(deformed_trace_limit(H, 5) - s) <= 1e-10 * (1 + abs(s))

    def test_infeasible(self):
        with pytest.raises(ValueError):
            hollow_witness(4, semicircle_moment(4) - 1.0, 4)
        with pytest.raises(ValueError):
            hollow_witness(2, 1.0, 5)  # odd p needs n >= 3


class TestLinearization:
    def test_zero_deformation_gap_is_centering_error(self):
        from rmtldp.wigner import assemble_wigner

        prof = GaussianProfile(1.0, 1)
        _, xn = assemble_wigner(64, prof, stream(403, 0))
        gap = linearization_gap(xn, np.zeros((1, 1)), 4)
        assert gap == pytest.approx(abs(normalized_trace_power(xn, 4) - 2.0), rel=1e-12)

    def test_zero_matrix_odd_p_exact(self):
        # scaling identity: tr (n^(1/p) H)^p / n = tr H^p; odd p has center 0
        xn = HermMatrix.zeros(32)
        rng = stream(403, 1)
        g = rng.standard_normal((5, 5))
        H = (g + g.T) / 2
        assert linearization_gap(xn, H, 5) < 1e-10

    def test_discrepancy_positive_and_finite(self):
        val = trace_linearization_discrepancy(48, 4, 1.0, 4, GaussianProfile(1.0, 1), stream(403, 2))
        assert 0 < val < 10

    def test_discrepancy_matches_recorded_values(self):
        # n = 4 embeds the witness at full size, n = 12 at its 8 x 8 cap
        vals = [trace_linearization_discrepancy(n, 4, 1.0, 3, GaussianProfile(1.0, 1), stream(403, 4)) for n in (4, 12)]
        assert hashlib.sha256(repr(vals).encode()).hexdigest()[:16] == "23436be93cf54270"

    def test_median_decreases_with_dimension(self):
        prof = GaussianProfile(1.0, 1)
        rng = stream(403, 3)
        med = {}
        for n in (64, 256):
            med[n] = float(np.median([
                trace_linearization_discrepancy(n, 4, 1.0, 6, prof, rng) for _ in range(8)
            ]))
        assert med[256] < med[64]
