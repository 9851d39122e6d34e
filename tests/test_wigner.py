import math

import numpy as np
import pytest

from rmtldp.matcore import HermMatrix, eigvals, normalized_trace_power, trace_power
from rmtldp.randsrc import GaussianProfile, TailProfile, draw_wigner_entries
from rmtldp.rates import semicircle_cdf
from rmtldp.rng import stream
from rmtldp.wigner import (
    PlantSpec,
    assemble_wigner,
    assemble_wigner_batch,
    low_rank_trace_check,
    plant_deformation,
    truncation_split,
)


@pytest.fixture(scope="module")
def goe512_draws():
    prof = GaussianProfile(sigma2=1.0, beta=1)
    return [assemble_wigner(512, prof, stream(201, 1, k))[1] for k in range(50)]


class TestAssemble:
    def test_second_moment_oracle(self, goe512_draws):
        # E tr_n X_n^2 = (sum of entry variances)/n^2 = 1 exactly for sigma2=1
        m2 = np.mean([normalized_trace_power(x, 2) for x in goe512_draws])
        assert m2 == pytest.approx(1.0, abs=0.05)

    def test_fourth_moment_catalan(self, goe512_draws):
        m4 = np.mean([normalized_trace_power(x, 4) for x in goe512_draws])
        assert m4 == pytest.approx(2.0, abs=0.1)

    def test_deterministic_given_seed(self):
        prof = GaussianProfile(sigma2=1.0, beta=1)
        a, _ = assemble_wigner(32, prof, stream(7, 0, 0))
        b, _ = assemble_wigner(32, prof, stream(7, 0, 0))
        assert np.array_equal(a.matrix, b.matrix)

    def test_normalization_exact(self):
        prof = GaussianProfile(sigma2=1.0, beta=1)
        raw, xn = assemble_wigner(16, prof, stream(7, 0, 1))
        assert np.array_equal(xn.matrix, raw.matrix / math.sqrt(16))

    def test_tail_source_builds_beta2(self):
        prof = TailProfile(alpha=1.0, a=1.0, b=1.0, t0=2.0,
                           phase_offdiag="uniform_s1", normalize_variance=False)
        raw, _ = assemble_wigner(8, prof, stream(7, 0, 2))
        assert raw.beta == 2
        assert np.all(np.imag(np.diagonal(raw.matrix)) == 0)

    @pytest.mark.parametrize("prof", [
        GaussianProfile(sigma2=1.0, beta=1),
        GaussianProfile(sigma2=0.5, beta=2),
        TailProfile(alpha=1.0, a=1.0, b=1.0, t0=2.0, normalize_variance=False),
        TailProfile(alpha=1.0, a=1.0, b=1.0, t0=2.0, phase_offdiag="uniform_s1", normalize_variance=False),
    ], ids=["gauss_beta1", "gauss_beta2", "tail_rademacher", "tail_uniform_s1"])
    @pytest.mark.parametrize("n", [1, 2, 17])
    def test_batch_matches_per_trial_hermmatrix(self, prof, n):
        batch = assemble_wigner_batch(prof, n, [stream(3, n, k) for k in range(5)])
        assert batch.shape == (5, n, n)
        for k in range(5):
            diag, off = (part[0] for part in draw_wigner_entries(prof, n, [stream(3, n, k)]))
            upper = np.zeros((n, n), dtype=complex if prof.beta == 2 else float)
            upper[np.triu_indices(n, k=1)] = off
            upper[np.diag_indices(n)] = diag
            ref = HermMatrix(prof.beta, upper).matrix
            assert batch[k].dtype == ref.dtype
            assert batch[k].tobytes() == ref.tobytes()

    def test_semicircle_kolmogorov(self):
        prof = GaussianProfile(sigma2=1.0, beta=1)
        _, xn = assemble_wigner(1024, prof, stream(201, 2, 0))
        lam = eigvals(xn)
        n = lam.size
        ref = semicircle_cdf(lam)
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(emp_hi - ref)), np.max(np.abs(emp_lo - ref)))
        assert ks <= 0.05


def test_assembly_and_plant_skip_the_public_constructor(monkeypatch):
    calls = []
    init = HermMatrix.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(HermMatrix, "__init__", counting_init)
    _, xn = assemble_wigner(64, GaussianProfile(sigma2=1.0, beta=1), stream(17, 0))
    for shape in ("diag_spike", "offdiag_pair"):
        plant_deformation(xn, PlantSpec(shape, 1.0, 4))
    assert calls == []
    HermMatrix.identity(2)
    assert calls == [1]  # the counter does see the public constructor


class TestTruncationSplit:
    def test_single_band_when_all_small(self):
        rng = stream(202, 0)
        n = 12
        raw = HermMatrix(1, rng.uniform(-0.5, 0.5, size=(n, n)))
        split = truncation_split(raw, p=4, eps=0.1, d=2.5)
        assert np.array_equal(split.small.matrix, raw.scaled(1.0 / math.sqrt(n)).matrix)
        for part in (split.intermediate, split.deviation, split.huge):
            assert np.count_nonzero(part.matrix) == 0

    def test_boundary_entry_lands_in_deviation_band(self):
        # parameters chosen so the thresholds are properly ordered at this n
        n, p, eps, d = 10, 4, 0.8, 1.1
        assert math.log(n) ** d < eps * n ** (0.5 + 1.0 / p)
        boundary = eps * n ** (0.5 + 1.0 / p)
        raw = HermMatrix.zeros(n).with_entry(0, 1, boundary)
        split = truncation_split(raw, p=p, eps=eps, d=d)
        assert np.count_nonzero(split.deviation.matrix) == 2
        assert np.count_nonzero(split.intermediate.matrix) == 0
        # just below the closed lower edge falls in the open intermediate band
        raw2 = HermMatrix.zeros(n).with_entry(0, 1, boundary * (1 - 1e-9))
        split2 = truncation_split(raw2, p=p, eps=eps, d=d)
        assert np.count_nonzero(split2.intermediate.matrix) == 2
        assert np.count_nonzero(split2.deviation.matrix) == 0

    def test_reassembly_exact(self):
        prof = TailProfile(alpha=0.8, a=1.0, b=1.0, t0=2.0, normalize_variance=False)
        for k in range(100):
            raw, xn = assemble_wigner(10, prof, stream(202, 1, k))
            split = truncation_split(raw, p=4, alpha=prof.alpha)
            assert np.array_equal(split.total().matrix, xn.matrix)

    def test_supports_disjoint(self):
        prof = TailProfile(alpha=0.6, a=0.5, b=0.5, t0=1.0, normalize_variance=False)
        raw, _ = assemble_wigner(24, prof, stream(202, 2, 0))
        split = truncation_split(raw, p=4, alpha=prof.alpha)
        masks = [part.matrix != 0 for part in (split.small, split.intermediate, split.deviation, split.huge)]
        overlap = sum(m.astype(int) for m in masks)
        assert overlap.max() <= 1

    def test_small_n_rejected(self):
        raw = HermMatrix.zeros(2)
        with pytest.raises(ValueError):
            truncation_split(raw, p=4, d=2.0)

    def test_exponent_condition(self):
        raw = HermMatrix.zeros(8)
        with pytest.raises(ValueError):
            truncation_split(raw, p=4, d=1.0, alpha=0.5)


class TestCountNonzero:
    def test_zero(self):
        assert np.count_nonzero(HermMatrix.zeros(5).matrix) == 0

    def test_hermitian_pair(self):
        assert np.count_nonzero(HermMatrix.zeros(5).with_entry(1, 3, 2.0).matrix) == 2

    def test_diag_spike(self):
        assert np.count_nonzero(HermMatrix.zeros(5).with_entry(2, 2, 1.0).matrix) == 1


class TestPlantDeformation:
    def test_diag_spike_on_zero_matrix(self):
        planted = plant_deformation(HermMatrix.zeros(16), PlantSpec("diag_spike", 1.0, 4))
        assert normalized_trace_power(planted, 4) == pytest.approx(1.0, rel=1e-12)

    def test_offdiag_pair_on_zero_matrix(self):
        planted = plant_deformation(HermMatrix.zeros(16), PlantSpec("offdiag_pair", 1.0, 4))
        assert normalized_trace_power(planted, 4) == pytest.approx(1.0, rel=1e-12)

    def test_replaces_entry(self):
        prof = GaussianProfile(sigma2=1.0, beta=1)
        _, xn = assemble_wigner(8, prof, stream(203, 0, 0))
        spec = PlantSpec("diag_spike", 0.5, 4)
        planted = plant_deformation(xn, spec)
        diff = planted.matrix != xn.matrix
        assert diff.sum() == 1 and diff[0, 0]
        assert planted.matrix[0, 0] == spec.theta(8)

    def test_offdiag_changes_one_stored_entry(self):
        prof = GaussianProfile(sigma2=1.0, beta=1)
        _, xn = assemble_wigner(8, prof, stream(203, 0, 1))
        planted = plant_deformation(xn, PlantSpec("offdiag_pair", 0.5, 4))
        diff = planted.matrix != xn.matrix
        assert diff.sum() == 2 and diff[0, 1] and diff[1, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            PlantSpec("diag_spike", 0.0, 4)
        with pytest.raises(ValueError):
            PlantSpec("diag_spike", 1.0, 2)
        with pytest.raises(ValueError):
            PlantSpec("column", 1.0, 4)


class TestLowRankTraceCheck:
    def test_zero_perturbation(self):
        H = HermMatrix(1, stream(204, 0).standard_normal((6, 6)))
        res = low_rank_trace_check(H, HermMatrix.zeros(6), 4)
        assert res.lhs == 0.0 and res.rhs == 0.0 and res.ok and res.rank == 0

    def test_zero_base(self):
        C = HermMatrix.zeros(6).with_entry(0, 0, 3.0)
        res = low_rank_trace_check(HermMatrix.zeros(6), C, 5)
        assert res.lhs == 0.0 and res.ok

    def test_random_pairs(self):
        rng = stream(204, 1)
        for _ in range(200):
            n = int(rng.integers(2, 33))
            p = int(rng.integers(3, 7))
            g = rng.standard_normal((n, n))
            H = HermMatrix(1, (g + g.T) / 2.0)
            r = int(rng.integers(1, 4))
            c = np.zeros((n, n))
            for _ in range(r):
                i, j = sorted(rng.integers(0, n, size=2))
                c[i, j] = 5.0 * rng.standard_normal()
            res = low_rank_trace_check(H, HermMatrix(1, c), p)
            assert res.ok

    def test_rank_detection(self):
        C = HermMatrix.zeros(8).with_entry(0, 1, 1.0).with_entry(2, 2, 3.0)
        res = low_rank_trace_check(HermMatrix.zeros(8), C, 3)
        assert res.rank == 3  # offdiag pair contributes rank 2, spike rank 1
