"""Span targets inside rmtldp and the per-layer metrics computed from them.

The layer names are the rmtldp module names.  Every per-layer metric is
reported on every workload: a metric whose spans were never opened is 0
and listed under ``not_reached``; one whose target no longer exists is 0
and listed under ``absent`` with the reason.
"""

from __future__ import annotations

import math
from collections import defaultdict

from spans import Recorder, Target

HERM_ENTRIES = {
    "__init__": "init",
    "scaled": "scaled",
    "with_entry": "with_entry",
    "__add__": "add",
}
HERM_SPANS = tuple(f"matcore.HermMatrix.{v}" for v in HERM_ENTRIES.values())
ESTIMATOR_SPANS = ("devlab.naive", "devlab.planted_is")


def _estimate_attrs(result, args, kwargs, pre):
    return {"n_trials": result.n_trials, "ess": result.ess}


def _sweep_before(args, kwargs):
    state = args[0]
    return state.accept_count, state.proposal_count


def _sweep_after(result, args, kwargs, pre):
    return {"accepted": result.accept_count - pre[0], "proposed": result.proposal_count - pre[1]}


def _eigvals_before(args, kwargs):
    # the spectrum cache lives on the matrix; a rename reads as all misses
    return {"hit": getattr(args[0], "_spectrum", None) is not None}


TARGETS = [
    Target("rmtldp.rng", "stream", "rng.stream"),
    Target("rmtldp.randsrc", "draw_wigner_entries", "randsrc.draw_wigner_entries"),
    Target("rmtldp.randsrc", "TwoPieceModulus.tilt_normalizer", "randsrc.tilt_normalizer"),
    Target("rmtldp.randsrc", "TwoPieceModulus.sample_tilted", "randsrc.sample_tilted"),
    Target("rmtldp.devlab", "_dense_trial_matrix", "devlab.assembly"),
    Target("rmtldp.devlab", "_normalized_trace_powers", "devlab.trace_power"),
    Target("rmtldp.devlab", "estimate_tail_naive", "devlab.naive", after=_estimate_attrs),
    Target("rmtldp.devlab", "estimate_tail_planted_is", "devlab.planted_is", after=_estimate_attrs),
    Target("rmtldp.devlab", "rate_slope_scan", "devlab.scan",
           after=lambda result, args, kwargs, pre: {"rows": len(result.rows)}),
    Target("rmtldp.loggas", "mcmc_sweep", "loggas.mcmc_sweep", before=_sweep_before, after=_sweep_after),
    *(Target("rmtldp.matcore", f"HermMatrix.{attr}", f"matcore.HermMatrix.{label}")
      for attr, label in HERM_ENTRIES.items()),
    Target("rmtldp.matcore", "eigvals", "matcore.eigvals", before=_eigvals_before,
           after=lambda result, args, kwargs, pre: pre),
    Target("rmtldp.wigner", "assemble_wigner", "wigner.assemble_wigner"),
    Target("rmtldp.wigner", "plant_deformation", "wigner.plant_deformation"),
    Target("rmtldp.wigner", "low_rank_trace_check", "wigner.low_rank_trace_check"),
    Target("rmtldp.rates", "trace_linearization_discrepancy", "rates.trace_linearization_discrepancy"),
    Target("rmtldp.varopt", "_descend", "varopt.descend",
           after=lambda result, args, kwargs, pre: {"kept": result is not None}),
    Target("rmtldp.stats", "batch_mean_stderr", "stats.batch_mean_stderr"),
    Target("rmtldp.cli", "main", "cli.main"),
]


def new_recorder() -> Recorder:
    rec = Recorder("rmtldp")
    rec.install(TARGETS)
    return rec


class _View:
    """Index of a finished recording by span name."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.dur = rec.durations()
        self.own = rec.self_times()
        self.by_name = defaultdict(list)
        for i, name in enumerate(rec.name):
            self.by_name[name].append(i)

    def count(self, *names) -> int:
        return sum(len(self.by_name[n]) for n in names)

    def total(self, *names) -> float:
        return sum(self.dur[i] for n in names for i in self.by_name[n])

    def self_total(self, *names) -> float:
        return sum(self.own[i] for n in names for i in self.by_name[n])

    def attr_sum(self, key: str, *names) -> float:
        s = 0.0
        for n in names:
            for i in self.by_name[n]:
                a = self.rec.attrs[i]
                if a and a.get(key) is not None:
                    s += float(a[key])
        return s

    def outermost(self, names) -> list[int]:
        """Spans of these names whose parent is not one of them."""
        names = set(names)
        return [i for n in names for i in self.by_name[n]
                if self.rec.parent[i] < 0 or self.rec.name[self.rec.parent[i]] not in names]


def _ratio(num: float, den: float):
    return num / den if den else None


def per_layer(rec: Recorder, n_calls: int, outcomes, threads2_speedup, overhead_frac) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run.

    ``outcomes`` are the traced calls' Outcome records.  Returns
    (metrics: name -> {"value", "unit"}, notes: {"absent": {...},
    "not_reached": [...]}).
    """
    v = _View(rec)
    trials = v.attr_sum("n_trials", *ESTIMATOR_SPANS)
    root_time = v.total("call")
    outer_herm = v.outermost(HERM_SPANS)
    zs = [o.extra["z"] for o in outcomes if "z" in o.extra]

    def us(x):
        return None if x is None else 1e6 * x

    def ms(x):
        return None if x is None else 1e3 * x

    def mean_time(name):
        return _ratio(v.total(name), v.count(name))

    herm = {}
    for label in HERM_ENTRIES.values():
        name = f"matcore.HermMatrix.{label}"
        herm[f"{name}.calls"] = ("count/call", (name,), _ratio(v.count(name), n_calls))
        herm[f"{name}.us_per_call"] = ("us", (name,), us(mean_time(name)))

    table = {
        "rng.stream.calls": ("count/call", ("rng.stream",), _ratio(v.count("rng.stream"), n_calls)),
        "rng.stream.us_per_call": ("us", ("rng.stream",), us(mean_time("rng.stream"))),
        "randsrc.draw_wigner_entries.us_per_call":
            ("us", ("randsrc.draw_wigner_entries",), us(mean_time("randsrc.draw_wigner_entries"))),
        "randsrc.tilt_normalizer.calls_per_trial":
            ("count/trial", ("randsrc.tilt_normalizer", *ESTIMATOR_SPANS),
             _ratio(v.count("randsrc.tilt_normalizer"), trials)),
        "randsrc.tilt_normalizer.self_share":
            ("ratio", ("randsrc.tilt_normalizer",), _ratio(v.self_total("randsrc.tilt_normalizer"), root_time)),
        "randsrc.sample_tilted.us_per_call":
            ("us", ("randsrc.sample_tilted",), us(mean_time("randsrc.sample_tilted"))),
        "devlab.assembly.us_per_trial":
            ("us", ("devlab.assembly", *ESTIMATOR_SPANS), us(_ratio(v.total("devlab.assembly"), trials))),
        "devlab.trace_power.us_per_trial":
            ("us", ("devlab.trace_power", *ESTIMATOR_SPANS), us(_ratio(v.total("devlab.trace_power"), trials))),
        "devlab.estimator.self_us_per_trial":
            ("us", ESTIMATOR_SPANS, us(_ratio(v.self_total(*ESTIMATOR_SPANS), trials))),
        "devlab.scan.kept_ratio":
            ("ratio", ("devlab.scan", *ESTIMATOR_SPANS),
             _ratio(v.attr_sum("rows", "devlab.scan"), v.count(*ESTIMATOR_SPANS)) if v.count("devlab.scan") else None),
        "devlab.is.ess_per_trial":
            ("ratio", ("devlab.planted_is",),
             _ratio(v.attr_sum("ess", "devlab.planted_is"), v.attr_sum("n_trials", "devlab.planted_is"))),
        "devlab.threads2_speedup": ("x", (), threads2_speedup),
        "loggas.mcmc_sweep.us_per_update":
            ("us", ("loggas.mcmc_sweep",),
             us(_ratio(v.total("loggas.mcmc_sweep"), v.attr_sum("proposed", "loggas.mcmc_sweep")))),
        "loggas.accept_ratio":
            ("ratio", ("loggas.mcmc_sweep",),
             _ratio(v.attr_sum("accepted", "loggas.mcmc_sweep"), v.attr_sum("proposed", "loggas.mcmc_sweep"))),
        "loggas.ess_per_sweep":
            ("count/sweep", ("loggas.mcmc_sweep",),
             _ratio(sum(o.ess for o in outcomes), v.count("loggas.mcmc_sweep"))),
        "loggas.se_calibration":
            ("ratio", (), math.sqrt(sum(z * z for z in zs) / len(zs)) if zs else None),
        "matcore.HermMatrix.calls": ("count/call", HERM_SPANS, _ratio(len(outer_herm), n_calls)),
        "matcore.HermMatrix.us_per_call":
            ("us", HERM_SPANS, us(_ratio(sum(v.dur[i] for i in outer_herm), len(outer_herm)))),
        **herm,
        "matcore.eigvals.ms_per_call": ("ms", ("matcore.eigvals",), ms(mean_time("matcore.eigvals"))),
        "matcore.eigvals.cache_hit_ratio":
            ("ratio", ("matcore.eigvals",), _ratio(v.attr_sum("hit", "matcore.eigvals"), v.count("matcore.eigvals"))),
        "wigner.assemble_wigner.ms_per_call":
            ("ms", ("wigner.assemble_wigner",), ms(mean_time("wigner.assemble_wigner"))),
        "wigner.plant_deformation.ms_per_call":
            ("ms", ("wigner.plant_deformation",), ms(mean_time("wigner.plant_deformation"))),
        "wigner.low_rank_trace_check.ms_per_call":
            ("ms", ("wigner.low_rank_trace_check",), ms(mean_time("wigner.low_rank_trace_check"))),
        "rates.trace_linearization_discrepancy.ms_per_call":
            ("ms", ("rates.trace_linearization_discrepancy",), ms(mean_time("rates.trace_linearization_discrepancy"))),
        "varopt.descend.calls": ("count/call", ("varopt.descend",), _ratio(v.count("varopt.descend"), n_calls)),
        "varopt.descend.ms_per_call": ("ms", ("varopt.descend",), ms(mean_time("varopt.descend"))),
        "varopt.descend.kept_ratio":
            ("ratio", ("varopt.descend",), _ratio(v.attr_sum("kept", "varopt.descend"), v.count("varopt.descend"))),
        "stats.batch_mean_stderr.us_per_call":
            ("us", ("stats.batch_mean_stderr",), us(mean_time("stats.batch_mean_stderr"))),
        "cli.main.self_ms": ("ms", ("cli.main",), ms(_ratio(v.self_total("cli.main"), v.count("cli.main")))),
        "trace.overhead_frac": ("ratio", (), overhead_frac),
    }

    metrics, absent, not_reached = {}, {}, []
    for name, (unit, needs, value) in table.items():
        missing = [s for s in needs if s in rec.absent]
        if missing:
            absent[name] = "; ".join(rec.absent[s] for s in missing)
        elif value is None:
            not_reached.append(name)
        metrics[name] = {"value": 0.0 if missing or value is None else float(value), "unit": unit}
    return metrics, {"absent": absent, "not_reached": not_reached}


def metric_units() -> dict:
    """Per-layer metric names and units, without a recording (for
    BENCHMARK.json and the docs)."""
    metrics, _ = per_layer(Recorder("rmtldp"), 1, [], None, None)
    return {name: m["unit"] for name, m in metrics.items()}
