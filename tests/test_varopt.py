import math

import numpy as np
import pytest

from rmtldp.matcore import HermMatrix, trace_powers
from rmtldp import varopt
from rmtldp.rng import stream
from rmtldp.varopt import (
    SparseHermCandidate,
    _assemble,
    _descend,
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
        for a, b in ((-1.0, 1.0), (1.0, 0.0), (math.inf, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="a and b must be finite and > 0"):
                solve_rate_constant(1.0, a, b, 4)
        with pytest.raises(ValueError, match="budget must be >= 0"):
            solve_rate_constant(1.0, 1.0, 1.0, 4, budget=-1)

    def test_zero_budget_keeps_structured_candidates(self):
        res = solve_rate_constant(1.0, 1.0, 1.0, 4, budget=0)
        assert res.value == pytest.approx(2.0 ** (-0.25), abs=1e-12)
        assert (res.restarts, res.kept) == (0, 0)

    def test_restart_counts(self):
        even = solve_rate_constant(1.0, 1.0, 1.0, 4, budget=32, seed=7)
        assert even.restarts == 32 and 0 < even.kept <= 32
        # odd p skips restarts whose start has a nonpositive trace power
        odd = solve_rate_constant(1.0, 1.0, 1.0, 5, budget=32, seed=7)
        assert 0 < odd.kept <= odd.restarts < 32


# solve_rate_constant values recorded before the restarts were descended in
# lockstep: (alpha, a, b, p, n_max, budget, seed, value)
PINNED_VALUES = [
    (1.0, 1.0, 1.0, 4, 6, 64, 0, 0.8408964152537145),
    (1.0, 1.0, 1.0, 4, 6, 64, 7, 0.8408964152537145),
    (0.5, 5.0, 0.3, 4, 6, 24, 2, 0.3),
    (1.5, 1.0, 1.0, 4, 6, 48, 3, 0.7711054127039702),
    (1.2, 2.0, 1.0, 6, 6, 32, 4, 1.0),
    (1.0, 1.0, 1.0, 5, 6, 24, 5, 1.0),
    (0.75, 1.0, 2.0, 3, 6, 32, 11, 1.805395919351361),
    (1.3, 1.0, 1.0, 4, 6, 48, 6, 0.7982983863566498),
    (0.25, 1.0, 1.0, 6, 4, 32, 13, 0.9715319411536059),
    (1.75, 0.8, 1.5, 7, 5, 32, 17, 0.6711851150811292),
    (1.0, 2.0, 1.0, 8, 6, 32, 19, 1.0),
    (0.5, 1.0, 0.7, 3, 3, 40, 23, 0.6999999999999998),
]


def _random_restarts(count, n_max, seed):
    rng = stream(seed, 0)
    supports, starts = [], []
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        pool = [(i, j) for i in range(n) for j in range(i, n)]
        size = int(rng.integers(1, min(6, len(pool)) + 1))
        supports.append([pool[k] for k in rng.choice(len(pool), size=size, replace=False)])
        starts.append(rng.standard_normal(size))
    return supports, starts


class TestLockstepDescent:
    @pytest.mark.parametrize("case", PINNED_VALUES, ids=lambda c: f"p{c[3]}-a{c[0]}-s{c[6]}")
    def test_values_match_pins(self, case):
        *args, n_max, budget, seed, value = case
        res = solve_rate_constant(*args, n_max=n_max, budget=budget, seed=seed)
        assert res.value == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("p", [3, 4, 6, 7])
    @pytest.mark.parametrize("alpha", [0.25, 1.0, 1.75])
    def test_batch_invariance(self, p, alpha):
        supports, starts = _random_restarts(24, 6, 510 + p)
        batch = _descend(supports, starts, p, 1.0, 1.3, alpha, 6)
        assert any(res is not None for res in batch)
        for support, start, res in zip(supports, starts, batch):
            (alone,) = _descend([support], [start], p, 1.0, 1.3, alpha, 6)
            if alone is None:
                assert res is None
            else:
                assert alone[0] == res[0] and alone[1].tobytes() == res[1].tobytes()

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_kept_candidates_are_feasible(self, p):
        supports, starts = _random_restarts(32, 6, 520 + p)
        kept = 0
        for support, res in zip(supports, _descend(supports, starts, p, 1.0, 1.0, 0.75, 6)):
            if res is not None:
                kept += 1
                n = 1 + max(max(ij) for ij in support)
                assert abs(trace_powers(_assemble(support, res[1], n), p) - 1.0) <= 1e-9
        assert kept > 0

    # f after 8 iterations of the one-matrix descent (eigh per step), per
    # restart of _random_restarts(6, 6, 530 + p) at a=1, b=1.3; a short
    # run pins the step rule (floor, acceptance, eta schedule), which the
    # converged values above do not see
    @pytest.mark.parametrize("p, alpha, expected", [
        (3, 0.5, [2.946339416764985, 1.3, None, None, None, 1.3500774318344564]),
        (4, 1.0, [1.7599178343357191, 1.331960025963151, 1.3347159452334607, 1.3, 0.8408964152537146,
                  1.3173656123517816]),
        (6, 1.5, [1.3, 0.9882227668454693, 0.9787020126838966, 1.2494319430127232, 1.3, 1.3053807265219528]),
    ])
    def test_short_descent_matches_one_matrix_steps(self, p, alpha, expected, monkeypatch):
        monkeypatch.setattr(varopt, "_DESCENT_ITERS", 8)
        supports, starts = _random_restarts(6, 6, 530 + p)
        got = [None if res is None else res[0] for res in _descend(supports, starts, p, 1.0, 1.3, alpha, 6)]
        assert [g is None for g in got] == [e is None for e in expected]
        for g, e in zip(got, expected):
            if e is not None:
                assert g == pytest.approx(e, abs=1e-12)

    def test_nonfinite_start_is_dropped(self):
        (res,) = _descend([[(0, 1)]], [np.array([0.0])], 4, 1.0, 1.0, 1.0, 6)
        assert res is None


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
        cand = SparseHermCandidate(n=3, support=((0, 1, 0.5), (2, 2, -0.25)), cost=1.0)
        m = cand.matrix().matrix
        assert m[0, 1] == 0.5 and m[1, 0] == 0.5 and m[2, 2] == -0.25
