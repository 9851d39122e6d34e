"""Summary statistics, effective-sample formulas and host-speed probes
used by the benchmark.

Kept free of rmtldp imports so the self-tests can check them on hand-built
inputs.
"""

from __future__ import annotations

import functools
import statistics
import time

# Percentiles tried for the tail figure, highest first, in per mille so the
# nearest rank is computed in exact integer arithmetic.
TAIL_LADDER_PERMILLE = (999, 990, 950, 900, 750)
TAIL_MIN_BEYOND = 10

# Default ess_floor of rmtldp.devlab.estimate_tail_planted_is: an IS row of
# the deviations artifact below it is one the program flagged.
IS_ESS_FLOOR = 50.0


def tail_percentile(samples) -> dict:
    """Value at the highest ladder percentile with at least ten samples
    strictly beyond it (nearest-rank percentiles).

    Below 40 samples no ladder percentile qualifies and the median (the
    same figure as call_s_p50) is reported; it meets the rule from 20
    samples on, and ``rule_met`` records whether it did.
    """
    xs = sorted(float(v) for v in samples)
    m = len(xs)
    if m == 0:
        raise ValueError("no samples")
    for pm in TAIL_LADDER_PERMILLE:
        rank = max(1, -(-pm * m // 1000))
        if m - rank >= TAIL_MIN_BEYOND:
            return {"value": xs[rank - 1], "percentile": pm / 10, "beyond": m - rank, "samples": m, "rule_met": True}
    beyond = m // 2
    return {"value": median(xs), "percentile": 50.0, "beyond": beyond, "samples": m,
            "rule_met": beyond >= TAIL_MIN_BEYOND}


# Host-speed probes.  On a shared host the CPU speed seen by one process
# moves between levels about 1.5x apart for seconds at a time, so raw call
# times of identical work spread by tens of percent between runs.  Each call
# is bracketed by fixed probes and its time is scaled to the speed at which
# each probe takes its reference time (measured on an uncontended 2-core
# x86-64 host).  Work dominated by interpreter and small-array numpy calls,
# batched small-matrix kernels and BLAS-bound work slow down under different
# contention, so there are three probes and each workload names the ones
# that track it.  None touches rmtldp, so a change to the program moves
# scaled and raw times alike.
PROBE_N = 200
PROBE_BATCH = (256, 32, 32)


@functools.cache
def _probe_arrays():
    import numpy as np

    idx = np.arange(PROBE_N)
    batch = (np.arange(np.prod(PROBE_BATCH)) % 13 / 13.0).reshape(PROBE_BATCH)
    return np.linspace(0.1, 3.0, 32), np.add.outer(idx, 3 * idx) % 17 / 17.0, batch


def _numpy_pass() -> None:
    import numpy as np

    v, _, _ = _probe_arrays()
    acc = 0.0
    for i in range(400):
        acc += float(np.sum(np.log1p(np.abs(v - 0.05 * i))))


def _blas_pass() -> None:
    _, a, _ = _probe_arrays()
    for _ in range(5):
        a @ a


def _batch_pass() -> None:
    _, _, m = _probe_arrays()
    m @ m


# probe kind -> (one pass, reference seconds of the faster of two passes)
PROBES = {
    "numpy": (_numpy_pass, 0.003),
    "blas": (_blas_pass, 0.0015),
    "batch": (_batch_pass, 0.0004),
}


def host_probe(kinds) -> tuple[float, ...]:
    """Seconds for each probe kind: the faster of two passes."""
    out = []
    for kind in kinds:
        run = PROBES[kind][0]
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - t0)
        out.append(best)
    return tuple(out)


def host_scale(kinds, before, after) -> float:
    """Factor taking a time measured between two probe readings to reference
    speed: the geometric mean over the probe kinds."""
    prod = 1.0
    for kind, b, a in zip(kinds, before, after):
        prod *= PROBES[kind][1] / (0.5 * (b + a))
    return prod ** (1.0 / len(kinds))


def median(samples) -> float:
    return float(statistics.median(samples))


def scan_row_ess(method: str, p_hat: float, ess, trials: int) -> tuple[float, bool]:
    """Effective samples of one row of the deviations artifact, and whether
    the program flagged it.

    A naive row counts its trials; an importance-sampling row its Kish ESS.
    A row with no hits, or an IS row below the ESS floor, is flagged and
    counts zero.
    """
    if p_hat <= 0.0:
        return 0.0, True
    if method == "naive":
        return float(trials), False
    if ess is None or ess == "" or float(ess) < IS_ESS_FLOOR:
        return 0.0, True
    return float(ess), False


def kish_ess(ess: float, flagged: bool) -> float:
    """Kish ESS of one importance-sampling estimate; zero when flagged."""
    return 0.0 if flagged else float(ess)


def goe_moment2_variance(N: int) -> float:
    """Exact variance of (1/N) tr X^2 for the log-gas V = x^2/4, beta = 1
    (the GOE scaled to the semicircle on [-2, 2])."""
    return 4.0 * (N + 1) / N ** 3


def loggas_ess(stderr: float, N: int, flagged: bool) -> float:
    """Effective samples behind a second-moment estimate: exact variance
    over the reported stderr squared; zero when flagged."""
    if flagged or not stderr > 0.0:
        return 0.0
    return goe_moment2_variance(N) / (stderr * stderr)
