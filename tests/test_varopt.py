import math

import numpy as np
import pytest

from rmtldp.matcore import HermMatrix
from rmtldp.rng import stream
from rmtldp.varopt import (
    SparseHermCandidate,
    cost_I,
    inner_phi_inf,
    solve_rate_constant,
    entrywise_eigenvalue_gap,
)


class TestCost:
    def test_single_diagonal(self):
        assert cost_I(HermMatrix(1, [[1.0]]), a=1.0, b=1.0, alpha=1.0) == 1.0

    def test_offdiagonal_pair(self):
        v = 2.0 ** (-0.25)
        A = HermMatrix.zeros(2).with_entry(0, 1, v)
        assert cost_I(A, a=1.0, b=1.0, alpha=1.0) == pytest.approx(v)

    def test_homogeneity(self):
        rng = stream(501, 0)
        g = rng.standard_normal((5, 5))
        A = HermMatrix(1, (g + g.T) / 2)
        alpha = 0.7
        base = cost_I(A, 2.0, 3.0, alpha)
        for t in (0.3, 1.7, 4.0):
            assert cost_I(A.scaled(t), 2.0, 3.0, alpha) == pytest.approx(t ** alpha * base, rel=1e-12)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            cost_I(HermMatrix.identity(2), 1.0, 1.0, 2.0)


class TestSolve:
    def test_closed_form_offdiag_wins(self):
        res = solve_rate_constant(alpha=1.0, a=1.0, b=1.0, p=4, budget=24, seed=1)
        assert res.value == pytest.approx(2.0 ** (-0.25), abs=1e-3)
        ((i, j, v),) = res.argmin.support
        assert (i, j) == (0, 1)
        assert abs(v) == pytest.approx(2.0 ** (-0.25), abs=1e-6)

    def test_closed_form_diag_wins(self):
        res = solve_rate_constant(alpha=0.5, a=5.0, b=0.3, p=4, budget=24, seed=2)
        assert res.value == pytest.approx(0.3, abs=1e-3)
        ((i, j, v),) = res.argmin.support
        assert i == j

    def test_bracket_alpha_above_one(self):
        res = solve_rate_constant(alpha=1.5, a=1.0, b=1.0, p=4, budget=48, seed=3)
        lo, hi = res.bracket
        assert lo == pytest.approx(0.5) and hi == pytest.approx(2.0 ** (-1.5 / 4))
        assert lo - 1e-6 <= res.value <= hi + 1e-6
        assert res.certificate_ok

    def test_candidate_is_feasible(self):
        res = solve_rate_constant(alpha=1.2, a=2.0, b=1.0, p=6, budget=32, seed=4)
        A = res.argmin.matrix()
        t = float(np.sum(np.linalg.eigvalsh(A.matrix) ** 6))
        assert t == pytest.approx(1.0, abs=1e-8)
        assert cost_I(A, 2.0, 1.0, 1.2) == pytest.approx(res.value, rel=1e-9)

    def test_odd_p_supported_without_bracket(self):
        res = solve_rate_constant(alpha=1.0, a=1.0, b=1.0, p=5, budget=24, seed=5)
        assert res.bracket is None
        assert 0 < res.value <= 1.0 + 1e-9  # diagonal candidate costs b = 1

    def test_complex_candidates_never_beat_real_restriction(self):
        # full-support phases: moduli carry all cost, so random complex
        # Hermitian candidates rescaled to the constraint cannot go below
        # the solver value
        alpha, a, b, p = 1.3, 1.0, 1.0, 4
        res = solve_rate_constant(alpha, a, b, p, budget=48, seed=6)
        rng = stream(502, 0)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = (g + np.conj(g).T) / 2
            np.fill_diagonal(m, np.real(np.diagonal(m)))
            t = float(np.sum(np.linalg.eigvalsh(m) ** p))
            if t <= 1e-12:
                continue
            A = HermMatrix(2, m / t ** (1.0 / p))
            assert cost_I(A, a, b, alpha) >= res.value - 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_rate_constant(1.0, 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            solve_rate_constant(2.0, 1.0, 1.0, 4)


class TestZhanGap:
    def test_diagonal_matrix_zero_gap(self):
        A = HermMatrix(1, np.diag([1.5, -2.0, 0.3]))
        assert entrywise_eigenvalue_gap(A, 0.8) == pytest.approx(0.0, abs=1e-12)

    def test_flip_zero_gap(self):
        A = HermMatrix(1, [[0.0, 1.0], [1.0, 0.0]])
        assert entrywise_eigenvalue_gap(A, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_random_nonnegative(self):
        rng = stream(503, 0)
        for _ in range(300):
            n = int(rng.integers(2, 17))
            alpha = float(rng.choice([0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]))
            g = rng.standard_normal((n, n))
            assert entrywise_eigenvalue_gap(HermMatrix(1, (g + g.T) / 2), alpha) >= -1e-9


class TestInnerMinimum:
    def test_single_coordinate_value(self):
        # the pattern (1, 0, ..., 0) gives objective exactly 1
        assert inner_phi_inf(4, 1) == pytest.approx(1.0, abs=1e-12)

    def test_minimum_is_one(self):
        for p in (4, 6, 8):
            assert inner_phi_inf(p, 4) == pytest.approx(1.0, abs=1e-9)

    def test_balanced_mixed_pattern_attains_one(self):
        # k = l = 1 with zero sum: objective 2^(1/p) * 2^(-1/p) = 1
        B = 2.0 ** (1.0 / 4 - 1.0)
        gamma = (2.0 * B ** (4.0 / 3.0)) ** (3.0 / 4.0)
        assert gamma == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            inner_phi_inf(5, 4)
        with pytest.raises(ValueError):
            inner_phi_inf(4, 9)


class TestCandidateType:
    def test_matrix_roundtrip(self):
        cand = SparseHermCandidate(n=3, support=((0, 1, 0.5), (2, 2, -0.25)), cost=1.0, constraint=1.0)
        m = cand.matrix().matrix
        assert m[0, 1] == 0.5 and m[1, 0] == 0.5 and m[2, 2] == -0.25
