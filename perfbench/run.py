"""rmtldp benchmark: closed-loop workloads, end-to-end metrics untraced,
per-layer metrics from a separate traced run.

Run from the repository root:

    python3 perfbench/run.py --workload deviation_scan --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --smoke

One client, one call at a time; call k of a run uses seed ``seed + k``
(call 0 is the untimed warm-up).  The next-to-last stdout line is a JSON
report (environment, sizes, call counts, failure and flag fractions,
determinism check, the workload's side call if it has one, absent
layers); the last line is the result object.
"""

from __future__ import annotations

import time

# Set-up is timed from here: everything after interpreter start-up.
T_START = time.perf_counter()

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
# Set-ups per run: this process plus two fresh children.
SETUP_CHILDREN = 2
# Two 256-trial chunks per estimator, so RMTLDP_THREADS=2 runs two workers.
DETERMINISM_TRIALS = 512
CHILD_TIMEOUT_S = 150


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def git_sha(root: str) -> str | None:
    """HEAD of the checkout read from .git, or None outside a git tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: str, rmtldp_threads: str | None) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": openblas_threads(),
        },
        "RMTLDP_THREADS": rmtldp_threads,
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# calls
# ---------------------------------------------------------------------------


def one_call(wl, seed: int):
    """Time one call between two host probes, then run its oracle; a raise
    counts as a failure.  Returns (raw seconds, host scale, outcome)."""
    from measure import host_probe, host_scale
    from workloads import fail

    before = host_probe(wl.probe)
    t0 = time.perf_counter()
    try:
        out = wl.call(seed)
    except Exception as exc:  # the loop keeps going; the failure is counted
        dt = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return dt, host_scale(wl.probe, before, host_probe(wl.probe)), fail(f"call raised {type(exc).__name__}: {exc}")
    dt = time.perf_counter() - t0
    scale = host_scale(wl.probe, before, host_probe(wl.probe))
    try:
        return dt, scale, wl.check(out, seed)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return dt, scale, fail(f"oracle raised {type(exc).__name__}: {exc}")


class Calls:
    """Raw call times, host scales and oracle outcomes of a series of calls."""

    def __init__(self):
        self.raw, self.scale, self.outcomes = [], [], []

    def add(self, dt, scale, outcome):
        self.raw.append(dt)
        self.scale.append(scale)
        self.outcomes.append(outcome)

    @property
    def scaled(self):
        return [t * s for t, s in zip(self.raw, self.scale)]


def run_for(wl, seed: int, seconds: float) -> Calls:
    """Calls 1, 2, ... until their summed raw time reaches ``seconds``."""
    calls = Calls()
    while sum(calls.raw) < seconds:
        calls.add(*one_call(wl, seed + len(calls.raw) + 1))
    return calls


def run_ids(wl, seed: int, count: int, rec) -> Calls:
    """Calls 1..count again, each inside a root span of the recorder."""
    calls = Calls()
    for k in range(1, count + 1):
        with rec.root("call", k):
            result = one_call(wl, seed + k)
        calls.add(*result)
    return calls


def determinism_check(workdir: str, seed: int) -> dict:
    """One deviation_scan call at RMTLDP_THREADS=1 and =2; the artifacts
    must be byte-identical."""
    from workloads import DeviationScan

    wl = DeviationScan(workdir, trials=DETERMINISM_TRIALS, config_name="determinism.json")
    wl.prepare()
    outs, secs = {}, {}
    for threads in ("1", "2"):
        os.environ["RMTLDP_THREADS"] = threads
        try:
            t0 = time.perf_counter()
            outs[threads] = wl.call(seed)
            secs[threads] = time.perf_counter() - t0
        finally:
            del os.environ["RMTLDP_THREADS"]
    oracle = wl.check(outs["1"], seed)
    return {
        "identical": outs["1"] == outs["2"],
        "oracle_ok": oracle.ok,
        "trials": DETERMINISM_TRIALS,
        "seconds_threads1": secs["1"],
        "seconds_threads2": secs["2"],
    }


def side_run(wl, seed: int, trace: bool):
    """The workload's untimed once-per-run call, if it has one.  Traced, it
    gets a recorder of its own, so the per-call counts of the timed calls
    stay per timed call.  Returns (report entry or None, per-layer metrics,
    notes)."""
    side = getattr(wl, "side", None)
    if side is None:
        return None, {}, {"not_reached": []}
    if not trace:
        return side(seed), {}, {"not_reached": []}
    import layers

    rec = layers.new_recorder()
    try:
        out = side(seed)
    finally:
        rec.uninstall()
    metrics, notes = layers.per_layer(rec, 1, [], None, None)
    return out, metrics, notes


def merge_side_layers(wl, metrics: dict, notes: dict, side_metrics: dict, side_notes: dict) -> None:
    """Take the metrics only the side call reaches from its recording."""
    for name in getattr(wl, "side_layers", ()):
        metrics[name] = side_metrics[name]
        if name not in side_notes["not_reached"] and name in notes["not_reached"]:
            notes["not_reached"].remove(name)


def ready_seconds(wl, seed: int):
    """Set-up of this process: prepare and the untimed warm-up call (call
    0), timed from T_START.  Returns (raw seconds, probe readings taken once
    ready, warm-up outcome)."""
    from measure import host_probe

    wl.prepare()
    _, _, warm = one_call(wl, seed)
    raw = time.perf_counter() - T_START
    return raw, host_probe(wl.probe), warm


def setup_children(wl, seed: int, count: int) -> list[tuple[float, float]]:
    """(raw seconds, host scale) of fresh interpreters' set-ups.  Each child
    reports its set-up time and a probe taken once ready; this process
    probes just before starting it."""
    from measure import host_probe, host_scale

    samples = []
    for _ in range(count):
        before = host_probe(wl.probe)
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-child", "--workload", wl.name, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child for {wl.name} failed (exit {proc.returncode})")
        raw, *after = (float(v) for v in out.split())
        samples.append((raw, host_scale(wl.probe, before, after)))
    return samples


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def fractions(outcomes) -> dict:
    failed = sum(not o.ok for o in outcomes)
    statistical = sum(not o.ok and o.statistical for o in outcomes)
    estimates = sum(o.estimates for o in outcomes)
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "failed_exact": failed - statistical,
        "failed_statistical": statistical,
        "error_frac": failed / len(outcomes),
        "estimates": estimates,
        "flag_frac": sum(o.flagged for o in outcomes) / estimates if estimates else None,
        "failures": [o.reason for o in outcomes if not o.ok][:5],
    }


def end_to_end(calls: Calls, setup) -> tuple[dict, dict]:
    """The end-to-end metrics from host-scaled times.  The raw figures go to
    the report."""
    from measure import median, tail_percentile

    times = calls.scaled
    busy = sum(times)
    tail = tail_percentile(times)
    metrics = {
        "setup_s": {"value": median([raw * scale for raw, scale in setup]), "unit": "s"},
        "call_s_p50": {"value": median(times), "unit": "s"},
        "call_s_tail": {"value": tail["value"], "unit": "s"},
        "units_per_s": {"value": sum(o.units for o in calls.outcomes) / busy, "unit": "1/s"},
        "ess_per_s": {"value": sum(o.ess for o in calls.outcomes) / busy, "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    detail = {
        "timed_calls": len(times),
        "tail": tail,
        "raw": {
            "setup_s": [raw for raw, _ in setup],
            "call_s": calls.raw,
            "call_s_p50": median(calls.raw),
        },
        "host_scale": {"setup": [scale for _, scale in setup], "calls": calls.scale},
        "call_units": [o.units for o in calls.outcomes],
        "call_ess": [o.ess for o in calls.outcomes],
    }
    return metrics, detail


def untraced_run(wl, seed: int, seconds: float):
    from measure import host_scale

    raw, probe, warm = ready_seconds(wl, seed)
    setup = [(raw, host_scale(wl.probe, probe, probe))] + setup_children(wl, seed, SETUP_CHILDREN)
    calls = run_for(wl, seed, seconds)
    metrics, detail = end_to_end(calls, setup)
    detail["side"], _, _ = side_run(wl, seed, trace=False)
    return metrics, detail, [warm] + calls.outcomes


def traced(wl, seed: int, count: int):
    """Calls 1..count under the span recorder; returns (recorder, calls)."""
    import layers

    rec = layers.new_recorder()
    try:
        calls = run_ids(wl, seed, count, rec)
    finally:
        rec.uninstall()
    return rec, calls


def traced_run(wl, seed: int, seconds: float, speedup):
    import layers
    from measure import median

    wl.prepare()
    _, _, warm = one_call(wl, seed)
    # half the time untraced, then the same calls traced, so a traced run
    # takes about as long as an untraced one
    plain = run_for(wl, seed, seconds / 2)
    rec, calls = traced(wl, seed, len(plain.raw))
    overhead = median(calls.scaled) / median(plain.scaled) - 1.0
    metrics, notes = layers.per_layer(rec, len(calls.raw), calls.outcomes, speedup, overhead)
    side, side_metrics, side_notes = side_run(wl, seed, trace=True)
    merge_side_layers(wl, metrics, notes, side_metrics, side_notes)
    detail = {
        "side": side,
        "timed_calls": len(plain.raw),
        "traced_calls": len(calls.raw),
        "call_s_p50_untraced": median(plain.scaled),
        "call_s_p50_traced": median(calls.scaled),
        "spans": rec.summary(),
        **notes,
    }
    return metrics, detail, [warm] + plain.outcomes + calls.outcomes


def smoke(workdir: str, seed: int) -> int:
    """Every workload at minimal size: warm-up, one call, the same call
    traced, and the determinism check.  Exit 0 iff all pass."""
    import layers
    import workloads

    report = {}
    ok = True
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, workdir, smoke=True)
        t0 = time.perf_counter()
        wl.prepare()
        _, _, warm = one_call(wl, seed)
        setup = [(time.perf_counter() - t0, 1.0)]
        plain = Calls()
        plain.add(*one_call(wl, seed + 1))
        e2e, _ = end_to_end(plain, setup)
        rec, calls = traced(wl, seed, 1)
        per, notes = layers.per_layer(rec, 1, calls.outcomes, None, calls.scaled[0] / plain.scaled[0] - 1.0)
        side, side_metrics, side_notes = side_run(wl, seed, trace=True)
        merge_side_layers(wl, per, notes, side_metrics, side_notes)
        fr = fractions([warm] + plain.outcomes + calls.outcomes)
        ok = ok and fr["failed"] == 0 and (side is None or side["exact_ok"])
        report[name] = {"sizes": wl.sizes, **fr, "side": side, "end_to_end": e2e, "per_layer": per, **notes}
    det = determinism_check(workdir, seed)
    ok = ok and det["identical"] and det["oracle_ok"]
    print(json.dumps({"smoke_ok": ok, "determinism": det, "workloads": report}))
    return 0 if ok else 1


def setup_child(name: str, seed: int, workdir: str) -> int:
    import workloads

    raw, probe, _ = ready_seconds(workloads.make(name, workdir), seed)
    print(" ".join(repr(v) for v in (raw, *probe)))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="all workloads at minimal size, oracles on")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rmtldp", "__init__.py")):
        sys.stderr.write("perfbench: run from the repository root; src/rmtldp not found\n")
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    if not args.smoke and args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: --workload must be one of {sorted(workloads.WORKLOADS)}\n")
        return 2
    rmtldp_threads = os.environ.pop("RMTLDP_THREADS", None)

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        if args.setup_child:
            return setup_child(args.workload, args.seed, workdir)
        if args.smoke:
            return smoke(workdir, args.seed)
        wl = workloads.make(args.workload, workdir)
        if args.trace:
            det = determinism_check(workdir, args.seed)
            speedup = det["seconds_threads1"] / det["seconds_threads2"]
            metrics, detail, checked = traced_run(wl, args.seed, args.seconds, speedup)
        else:
            metrics, detail, checked = untraced_run(wl, args.seed, args.seconds)
            det = determinism_check(workdir, args.seed)
        fr = fractions(checked)
        report = {
            "workload": wl.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "unit": wl.unit,
            "sizes": wl.sizes,
            "environment": environment(root, rmtldp_threads),
            "determinism": det,
            **fr,
            **detail,
        }
        # every failed call is counted in "failed"; a Monte Carlo check missing
        # its tolerance does not by itself make the outputs incorrect
        side = detail.get("side")
        correct = (fr["failed_exact"] == 0 and det["identical"] and det["oracle_ok"]
                   and (side is None or side["exact_ok"]))
        print(json.dumps({"report": report}))
        print(json.dumps({"correct": correct, "attempted": fr["attempted"], "failed": fr["failed"], "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
