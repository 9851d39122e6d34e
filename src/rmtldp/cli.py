"""Command-line front end: seeded, reproducible runs emitting CSV/JSON.

Exit codes: 0 ok, 1 a verify check failed, 2 invalid input, 3 certificate
violation, 4 flagged statistical result.  Every output artifact embeds the tool version, a
hash of the configuration, and the master seed; identical (config, seed)
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import sys
import time
import traceback

import numpy as np

from . import __version__
from .loggas import GasState, Potential, run_chain
from .matcore import HermMatrix, eigvals
from .randsrc import TailProfile, profile_from_json, tail_calibration_report
from .rates import (
    RateSpec,
    catalan,
    deformed_trace_limit,
    hollow_witness,
    rate_value,
    semicircle_moment,
    speed_exponent,
    trace_linearization_discrepancy,
)
from .rng import stream
from .varopt import CertificateError, inner_phi_inf, solve_rate_constant, entrywise_eigenvalue_gap
from .wigner import assemble_wigner, low_rank_trace_check
from .devlab import rate_slope_scan

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_CERTIFICATE = 3
EXIT_FLAGGED = 4

SCHEMA_VERSION = 1


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _meta(config: dict, seed: int) -> dict:
    return {
        "tool_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "config_hash": _config_hash(config),
        "seed": int(seed),
    }


def _integral(config: dict, key: str, default=None) -> int:
    """config[key] (or default) as an int; a non-integral value is invalid, not truncated."""
    value = config[key] if default is None else config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not float(value).is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _is_number(value) -> bool:
    """Only a JSON number is one, not a bool or a string."""
    return not isinstance(value, bool) and isinstance(value, (int, float))


def _number(config: dict, key: str, default=None) -> float:
    """config[key] (or default) as a float (see _is_number)."""
    value = config[key] if default is None else config.get(key, default)
    if not _is_number(value):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _list(config: dict, key: str) -> list:
    """config[key], which must be a JSON list."""
    value = config[key]
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a JSON list, got {value!r}")
    return value


def _boolean(config: dict, key: str) -> bool:
    """config[key] (default false) as a JSON boolean; any other value is invalid, not truthy."""
    value = config.get(key, False)
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def _write(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _emit_csv(out, meta: dict, columns, rows) -> None:
    buf = io.StringIO()
    for k, v in meta.items():
        buf.write(f"# {k}={v}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    _write(out, buf.getvalue())


def _fmt(v) -> str:
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        v = v.item()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit_json(out, meta: dict, payload: dict) -> None:
    doc = _plain_json({"meta": meta, **payload})
    _write(out, json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _plain_json(v):
    """v with numpy scalars made Python values and each non-finite float
    spelled "inf", "-inf" or "nan", since JSON (RFC 8259) has no token for
    them."""
    if isinstance(v, dict):
        return {k: _plain_json(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain_json(x) for x in v]
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
    return v


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_rate(config: dict, seed: int, out, fmt: str) -> int:
    spec = RateSpec.from_json(config["spec"])
    grid = config.get("grid", {})
    lo = _number(grid, "lo", spec.center)
    hi = _number(grid, "hi", spec.center + 2.0)
    num = _integral(grid, "num", 41)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid lo and hi must be finite, got lo={lo}, hi={hi}")
    if num < 1:
        raise ValueError(f"grid num must be >= 1, got {num}")
    xs = np.linspace(lo, hi, num)
    meta = _meta(config, seed)
    meta["speed"] = speed_exponent(spec)
    rows = [(float(x), rate_value(spec, float(x))) for x in xs]
    if fmt == "json":
        _emit_json(out, meta, {"rows": [{"x": x, "rate": r} for x, r in rows]})
    else:
        _emit_csv(out, meta, ("x", "rate"), rows)
    return EXIT_OK


def cmd_varopt(config: dict, seed: int, out, fmt: str) -> int:
    try:
        res = solve_rate_constant(
            alpha=_number(config, "alpha"),
            a=_number(config, "a"),
            b=_number(config, "b"),
            p=_integral(config, "p"),
            n_max=_integral(config, "n_max", 6),
            budget=_integral(config, "budget", 64),
            seed=seed,
        )
    except CertificateError as exc:
        sys.stderr.write(f"certificate violation: {exc}\n")
        return EXIT_CERTIFICATE
    _emit_json(out, _meta(config, seed), res.to_json())
    return EXIT_OK


def cmd_deviations(config: dict, seed: int, out, fmt: str) -> int:
    model = profile_from_json(config["model"])
    scan = rate_slope_scan(
        model,
        p=_integral(config, "p"),
        x=_number(config, "x"),
        n_grid=_list(config, "n_grid"),
        trials_per_n=_integral(config, "trials", 2000),
        seed=seed,
        method=config.get("method", "auto"),
    )
    meta = _meta(config, seed)
    meta["rate_reference"] = scan.rate_reference
    if model.is_invariant:  # trials drawn as tridiagonals, not dense matrices: a different stream layout
        meta["stream_layout"] = "dumitriu_edelman"
    columns = ("model", "n", "p", "x", "method", "p_hat", "stderr", "slope", "ess", "seed")
    kind = config["model"].get("kind", "gaussian")
    rows = [
        (
            kind, r.n, scan.p, scan.x, r.method, r.p_hat, r.stderr,
            "" if r.slope is None else r.slope,
            "" if r.ess is None else r.ess, seed,
        )
        for r in scan.rows
    ]
    if fmt == "json":
        _emit_json(out, meta, {"rows": [list(row) for row in rows], "summary": scan.summary()})
    else:
        _emit_csv(out, meta, columns, rows)
    return EXIT_FLAGGED if any(r.flagged for r in scan.rows) else EXIT_OK


def cmd_sample(config: dict, seed: int, out, fmt: str) -> int:
    what = config.get("what", "loggas")
    if what == "loggas":
        sweeps = _integral(config, "sweeps", 0)
        if "checkpoint" in config:
            # continue a previous artifact's chain; its stream state replaces the seed
            state, potential = GasState.from_checkpoint(config["checkpoint"])
            if "potential" in config and Potential.from_json(config["potential"]) != potential:
                raise ValueError("config potential disagrees with the checkpoint's")
            if "N" in config and _integral(config, "N") != state.lambdas.size:
                raise ValueError(f"config N={config['N']} disagrees with the checkpoint's N={state.lambdas.size}")
        else:
            potential = Potential.from_json(config["potential"])
            state = GasState.initial(potential, _integral(config, "N"), seed)
        run_chain(state, potential, sweeps, tune=_boolean(config, "tune"))
        _emit_json(out, _meta(config, seed), {"checkpoint": state.checkpoint(potential)})
        return EXIT_OK
    if what == "wigner":
        model = profile_from_json(config["model"])
        n = _integral(config, "n")
        _, xn = assemble_wigner(n, model, stream(seed, 1, 0))
        lam = eigvals(xn)
        _emit_csv(out, _meta(config, seed), ("index", "eigenvalue"), list(enumerate(map(float, lam))))
        return EXIT_OK
    raise ValueError(f"unknown sample target {what!r}")


def cmd_calibrate(config: dict, seed: int, out, fmt: str) -> int:
    profile = TailProfile(
        alpha=config["alpha"],
        a=config["a"],
        b=config.get("b", config["a"]),
        t0=config.get("t0", 2.0),
        normalize_variance=_boolean(config, "normalize_variance"),
    )
    t_grid = _list(config, "t_grid")
    if not all(map(_is_number, t_grid)):
        raise ValueError(f"t_grid entries must be numbers, got {t_grid!r}")
    rows = tail_calibration_report(
        profile,
        n_samples=_integral(config, "n_samples", 200_000),
        t_grid=t_grid,
        rng=stream(seed, 5),
        role=config.get("role", "offdiagonal"),
    )
    table = [(r.t, r.ratio, r.ci_low, r.ci_high, r.n_exceed, int(r.below_onset)) for r in rows]
    _emit_csv(out, _meta(config, seed), ("t", "ratio", "ci_low", "ci_high", "n_exceed", "below_onset"), table)
    return EXIT_OK


def _verify_checks(seed: int):
    """Deterministic self-checks; each returns (ok, detail)."""

    def check_low_rank_trace():
        rng = stream(seed, 31)
        for _ in range(200):
            n = int(rng.integers(2, 17))
            p = int(rng.integers(3, 7))
            g = rng.standard_normal((n, n))
            H = HermMatrix(1, (g + g.T) / 2.0)
            r = int(rng.integers(1, 3))
            c = np.zeros((n, n))
            for _ in range(r):
                i, j = rng.integers(0, n, size=2)
                c[min(i, j), max(i, j)] = rng.standard_normal() * 3.0
            C = HermMatrix(1, c)
            res = low_rank_trace_check(H, C, p)
            if not res.ok:
                return False, f"violation at n={n}, p={p}"
        return True, "200 random pairs"

    def check_entrywise_gap():
        rng = stream(seed, 32)
        worst = 0.0
        for _ in range(400):
            n = int(rng.integers(2, 13))
            alpha = float(rng.uniform(0.1, 1.9))
            g = rng.standard_normal((n, n))
            gap = entrywise_eigenvalue_gap(HermMatrix(1, (g + g.T) / 2.0), alpha)
            worst = min(worst, gap)
            if gap < -1e-9:
                return False, f"gap {gap} at alpha={alpha}"
        return True, f"min gap {worst:.3e}"

    def check_witness():
        rng = stream(seed, 33)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            p = int(rng.choice([4, 6, 8]))
            s = semicircle_moment(p) + float(rng.uniform(0.0, 5.0))
            H = hollow_witness(n, s, p)
            if abs(deformed_trace_limit(H, p) - s) > 1e-10 * (1 + abs(s)):
                return False, f"witness off at n={n}, p={p}"
        return True, "50 witnesses exact"

    def check_inner_min():
        for p in (4, 6, 8):
            v = inner_phi_inf(p, 4)
            if abs(v - 1.0) > 1e-9:
                return False, f"inner minimum {v} at p={p}"
        return True, "p in {4,6,8}"

    def check_linearization_trend():
        rng = stream(seed, 34)
        from .randsrc import GaussianProfile

        meds = []
        for n in (48, 96):
            reps = [
                trace_linearization_discrepancy(n, 4, 1.0, 4, GaussianProfile(1.0, 1), rng)
                for _ in range(7)
            ]
            meds.append(float(np.median(reps)))
        ok = meds[1] < meds[0]
        return ok, f"median gap {meds[0]:.4f} -> {meds[1]:.4f}"

    def check_rate_spots():
        spec = RateSpec.for_gaussian(4, 1.0, 2)
        got = rate_value(spec, 3.0)
        if abs(got - 0.5) > 1e-12:
            return False, f"rate spot {got} != 0.5"
        if not math.isinf(rate_value(spec, 1.0)):
            return False, "finite below center"
        if speed_exponent(spec) != 1.5:
            return False, "speed exponent"
        return True, "gaussian p=4 spot values"

    def check_catalan():
        if [catalan(k) for k in range(6)] != [1, 1, 2, 5, 14, 42]:
            return False, "catalan sequence"
        from scipy import integrate

        val, _ = integrate.quad(lambda x: x ** 4 * np.sqrt(4 - x * x) / (2 * np.pi), -2, 2)
        if abs(val - semicircle_moment(4)) > 1e-8:
            return False, "semicircle quadrature"
        return True, "catalan + quadrature"

    return [
        ("low_rank_trace_inequality", check_low_rank_trace),
        ("entrywise_eigenvalue_inequality", check_entrywise_gap),
        ("hollow_witness_exactness", check_witness),
        ("inner_multiplier_minimum", check_inner_min),
        ("trace_linearization_trend", check_linearization_trend),
        ("rate_formula_spot_values", check_rate_spots),
        ("catalan_semicircle", check_catalan),
    ]


def cmd_verify(config: dict, seed: int, out, fmt: str) -> int:
    results = []
    all_ok = True
    for name, fn in _verify_checks(seed):
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a check that raises has failed; the other checks still run
            traceback.print_exc()
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        # wall time varies run to run, so it stays out of the artifact
        sys.stderr.write(f"{name} {time.perf_counter() - t0:.4f} s\n")
        results.append({"check": name, "pass": bool(ok), "detail": detail})
        all_ok = all_ok and ok
    _emit_json(out, _meta(config, seed), {"checks": results, "all_pass": all_ok})
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------

COMMANDS = {"sample": cmd_sample, "rate": cmd_rate, "varopt": cmd_varopt,
            "deviations": cmd_deviations, "verify": cmd_verify, "calibrate": cmd_calibrate}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rmtldp",
        description="simulation lab for large deviations of random-matrix trace moments",
    )
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--config", help="path to a JSON configuration file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", default="csv", choices=["csv", "json"])
    args = parser.parse_args(argv)
    if args.seed < 0:
        sys.stderr.write(f"invalid input: --seed must be a non-negative integer, got {args.seed}\n")
        return EXIT_INVALID

    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            sys.stderr.write(f"cannot read config: {exc}\n")
            return EXIT_INVALID

    try:
        return COMMANDS[args.command](config, args.seed, args.out, args.format)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:  # overflow: a JSON integer past the float range
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
