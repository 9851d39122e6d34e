"""The five benchmark workloads.

Each workload drives one public entry point of rmtldp, one call at a time,
and checks every output with its own oracle.  Calls look rmtldp functions
up on their modules at call time, so the span recorder's wrappers are seen.

A workload exposes:

* ``prepare()``    - set-up: imports, model construction, config files;
* ``call(seed)``   - the timed call, returning the raw output;
* ``check(out, seed) -> Outcome`` - oracle and accounting, outside timing;
* ``probe`` - the host-speed probes that track its dominant resources
  (``measure.PROBES``);
* optionally ``side(seed) -> dict``, an untimed call made once per run
  whose result goes to the report, and ``side_layers``, the per-layer
  metrics taken from its recording.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import measure


@dataclass
class Outcome:
    """What one call produced, as the oracle and the metrics see it."""

    ok: bool
    reason: str | None = None
    statistical: bool = False  # a failure of a Monte Carlo check, not of an exact one
    units: float = 0.0
    ess: float = 0.0
    estimates: int = 0
    flagged: int = 0
    extra: dict = field(default_factory=dict)


def fail(reason: str, statistical: bool = False) -> Outcome:
    return Outcome(ok=False, reason=reason, statistical=statistical)


def config_hash(config: dict) -> str:
    """The artifact's documented config hash, recomputed independently."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_cli(argv) -> tuple[int, str]:
    """rmtldp.cli.main with stdout captured; returns (exit code, text)."""
    from rmtldp import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def parse_artifact(text: str, seed: int, config: dict | None):
    """Parse a JSON artifact and check its embedded seed and config hash.

    Returns (document, None) or (None, reason).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, f"artifact is not JSON: {exc}"
    meta = doc.get("meta", {})
    if meta.get("seed") != seed:
        return None, f"meta.seed {meta.get('seed')!r} != {seed}"
    if config is not None and meta.get("config_hash") != config_hash(config):
        return None, f"config_hash {meta.get('config_hash')!r} != {config_hash(config)}"
    return doc, None


def write_config(workdir: str, name: str, config: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


class DeviationScan:
    """The headline command: Gaussian beta=2 deviations over n_grid
    [16, 32, 64] at p=4, x=3 with the naive/IS auto-switch."""

    name = "deviation_scan"
    unit = "matrix"
    probe = ("numpy", "batch")

    def __init__(self, workdir: str, trials: int = 2000, config_name: str = "deviations.json"):
        self.workdir = workdir
        self.config_name = config_name
        self.config = {
            "model": {"kind": "gaussian", "sigma2": 1.0, "beta": 2},
            "n_grid": [16, 32, 64],
            "p": 4,
            "x": 3.0,
            "trials": int(trials),
            "method": "auto",
        }
        self.sizes = {"trials": int(trials), "n_grid": [16, 32, 64]}

    def prepare(self) -> None:
        import rmtldp.cli  # noqa: F401  (set-up includes the import)

        self.path = write_config(self.workdir, self.config_name, self.config)

    def argv(self, seed: int):
        return ["--command", "deviations", "--config", self.path, "--seed", str(seed), "--format", "json"]

    def call(self, seed: int):
        return run_cli(self.argv(seed))

    def check(self, out, seed: int) -> Outcome:
        rc, text = out
        if rc not in (0, 4):
            return fail(f"exit code {rc}")
        doc, why = parse_artifact(text, seed, self.config)
        if why:
            return fail(why)
        if doc["meta"].get("rate_reference") != 0.5:
            return fail(f"rate_reference {doc['meta'].get('rate_reference')!r} != 0.5")
        trials = self.config["trials"]
        ess = 0.0
        flagged = 0
        rows = doc.get("rows", [])
        if len(rows) != len(self.config["n_grid"]):
            return fail(f"{len(rows)} rows for {len(self.config['n_grid'])} grid points")
        for row in rows:
            # row: model, n, p, x, method, p_hat, stderr, slope, ess, seed
            method, p_hat, row_ess = row[4], float(row[5]), row[8]
            if not 0.0 <= p_hat <= 1.0:
                return fail(f"p_hat {p_hat} outside [0, 1]")
            e, f = measure.scan_row_ess(method, p_hat, row_ess, trials)
            ess += e
            flagged += f
        return Outcome(ok=True, units=float(trials * len(rows)), ess=ess, estimates=len(rows), flagged=flagged)


class TailIS:
    """Heavy-tail planted importance sampling at n=16, p=4, x=3."""

    name = "tail_is"
    unit = "matrix"
    probe = ("numpy",)

    def __init__(self, workdir: str, trials: int = 1000):
        self.trials = int(trials)
        self.sizes = {"n": 16, "p": 4, "x": 3.0, "trials": self.trials}

    def prepare(self) -> None:
        from rmtldp.randsrc import TailProfile

        self.profile = TailProfile(alpha=1, a=1, b=1, t0=3)

    def call(self, seed: int):
        from rmtldp import devlab

        return devlab.estimate_tail_planted_is(self.profile, n=16, p=4, x=3.0, n_trials=self.trials, seed=seed)

    def check(self, est, seed: int) -> Outcome:
        if est.weight_mean is None or est.weight_mean_se is None:
            return fail("no weight-mean diagnostics")
        z = (est.weight_mean - 1.0) / est.weight_mean_se if est.weight_mean_se > 0 else math.inf
        if not abs(z) <= 4.0:
            return fail(f"weight-mean identity off: z = {z:.3f}", statistical=True)
        return Outcome(
            ok=True, units=float(est.n_trials), ess=measure.kish_ess(est.ess, est.flagged),
            estimates=1, flagged=int(est.flagged),
        )


class LoggasMoment:
    """Second moment of the beta=1 quadratic log-gas (the GOE) at N=32,
    burn-in included in every call."""

    name = "loggas_moment"
    unit = "sweep"
    probe = ("numpy", "batch")
    N = 32

    def __init__(self, workdir: str, n_samples: int = 800, thin: int = 2, burn_in: int = 400):
        self.n_samples, self.thin, self.burn_in = int(n_samples), int(thin), int(burn_in)
        self.sizes = {"N": self.N, "p": 2, "n_samples": self.n_samples, "thin": self.thin, "burn_in": self.burn_in}

    def prepare(self) -> None:
        from rmtldp.loggas import Potential

        self.potential = Potential(b=0.25, alpha=2, beta=1)

    def call(self, seed: int):
        from rmtldp import loggas

        return loggas.estimate_equilibrium_moment(
            self.potential, p=2, N=self.N, n_samples=self.n_samples, seed=seed,
            burn_in=self.burn_in, thin=self.thin,
        )

    def check(self, est, seed: int) -> Outcome:
        exact = 1.0 + 1.0 / self.N
        if not est.stderr > 0.0:
            return fail(f"stderr {est.stderr}")
        z = (est.estimate - exact) / est.stderr
        if not abs(z) <= 4.0:
            return fail(f"moment {est.estimate:.6f} vs exact {exact:.6f}: z = {z:.3f}", statistical=True)
        return Outcome(
            ok=True, units=float(self.burn_in + self.n_samples * self.thin),
            ess=measure.loggas_ess(est.stderr, self.N, est.flagged),
            estimates=1, flagged=int(est.flagged), extra={"z": z},
        )


class SpikeSpectrum:
    """One n=1024 Gaussian beta=1 matrix, a planted diagonal spike, and
    its normalized fourth trace power."""

    name = "spike_spectrum"
    unit = "matrix"
    probe = ("blas",)

    def __init__(self, workdir: str, n: int = 1024):
        self.n = int(n)
        self.sizes = {"n": self.n, "p": 4, "delta": 1.0}

    def prepare(self) -> None:
        from rmtldp.randsrc import GaussianProfile
        from rmtldp.wigner import PlantSpec

        self.profile = GaussianProfile(1.0, 1)
        self.spec = PlantSpec("diag_spike", 1.0, 4)

    def call(self, seed: int):
        from rmtldp import matcore, rng, wigner

        _, xn = wigner.assemble_wigner(self.n, self.profile, rng.stream(seed))
        planted = wigner.plant_deformation(xn, self.spec)
        return planted, matcore.normalized_trace_power(planted, 4)

    def check(self, out, seed: int) -> Outcome:
        planted, tp = out
        mat = planted.matrix
        theta = (self.n * 1.0) ** (1.0 / 4)
        if mat[0, 0] != theta:
            return fail(f"planted entry {mat[0, 0]!r} != {theta!r}")
        sq = mat @ mat
        ref = float(np.sum(sq * sq)) / self.n
        if not abs(tp - ref) <= 1e-9 * abs(ref):
            return fail(f"trace power {tp!r} vs Frobenius {ref!r}")
        # each call is one exact, unweighted, independent sample
        return Outcome(ok=True, units=1.0, ess=1.0)


# verify checks that rest on a Monte Carlo comparison rather than an exact
# identity: trace_linearization_trend compares medians of 7 draws at n=48
# and n=96, and fails at 11 of the seeds 0-299.
STATISTICAL_CHECKS = {"trace_linearization_trend"}


class Certify:
    """One round per call: ``varopt`` on the README config at budget 64.

    ``verify`` runs once per run, untimed (``side``).  Its Monte Carlo trend
    check fails at some seeds, so it cannot be part of an operation that
    must not fail; its result goes to the report instead, and an exact
    check failing there makes the run incorrect.
    """

    name = "certify"
    unit = "round"
    probe = ("numpy",)
    # per-layer metrics that only the side call reaches: varopt builds no
    # HermMatrix and calls no eigvals, verify's checks do
    side_layers = (
        "matcore.HermMatrix.us_per_call",
        *(f"matcore.HermMatrix.{label}.us_per_call" for label in ("init", "scaled", "with_entry", "add")),
        "matcore.eigvals.ms_per_call",
        "matcore.eigvals.cache_hit_ratio",
        "wigner.assemble_wigner.ms_per_call",
        "wigner.low_rank_trace_check.ms_per_call",
        "rates.trace_linearization_discrepancy.ms_per_call",
    )

    def __init__(self, workdir: str, budget: int = 64):
        self.workdir = workdir
        self.config = {"alpha": 1.0, "a": 1.0, "b": 1.0, "p": 4, "budget": int(budget)}
        self.sizes = {"budget": int(budget)}

    def prepare(self) -> None:
        import rmtldp.cli  # noqa: F401

        self.path = write_config(self.workdir, "varopt.json", self.config)

    def call(self, seed: int):
        return run_cli(["--command", "varopt", "--config", self.path, "--format", "json", "--seed", str(seed)])

    def check(self, out, seed: int) -> Outcome:
        rc, text = out
        if rc != 0:
            return fail(f"varopt exit {rc}")
        opt, why = parse_artifact(text, seed, self.config)
        if why:
            return fail(f"varopt: {why}")
        if opt.get("certificate_ok") is not True:
            return fail("varopt: certificate_ok is not true")
        c = self.config
        closed = min(c["b"], 2.0 ** (-c["alpha"] / c["p"]) * c["a"])
        if not abs(opt["value"] - closed) <= 1e-3:
            return fail(f"varopt value {opt['value']!r} vs closed form {closed!r}")
        # a round is deterministic given its seed: one certified result
        return Outcome(ok=True, units=1.0, ess=1.0)

    def side(self, seed: int) -> dict:
        """One ``verify`` call.  ``exact_ok`` is false when the artifact is
        malformed, disagrees with itself, or an exact check failed."""
        rc, text = run_cli(["--command", "verify", "--format", "json", "--seed", str(seed)])
        ver, why = parse_artifact(text, seed, {})
        if why:
            return {"command": "verify", "seed": seed, "exit": rc, "exact_ok": False, "reason": why}
        failed = sorted(c["check"] for c in ver.get("checks", []) if not c["pass"])
        all_pass = ver.get("all_pass")
        consistent = all_pass is (not failed) and (rc == 0) is (not failed)
        return {
            "command": "verify", "seed": seed, "exit": rc, "all_pass": all_pass, "failed_checks": failed,
            "exact_ok": consistent and set(failed) <= STATISTICAL_CHECKS,
        }


WORKLOADS = {w.name: w for w in (DeviationScan, TailIS, LoggasMoment, SpikeSpectrum, Certify)}

# Minimal sizes for the smoke mode; every oracle still runs.
SMOKE_SIZES = {
    "deviation_scan": {"trials": 64},
    "tail_is": {"trials": 100},
    "loggas_moment": {"n_samples": 40, "thin": 2, "burn_in": 100},
    "spike_spectrum": {"n": 64},
    "certify": {"budget": 4},
}


def make(name: str, workdir: str, smoke: bool = False):
    cls = WORKLOADS[name]
    return cls(workdir, **(SMOKE_SIZES[name] if smoke else {}))
