"""Self-tests of the benchmark: summary rules, ESS formulas, span
recorder, smoke mode and BENCHMARK.json consistency.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import measure
from conftest import BENCH, ROOT


# ---- call_s_tail percentile rule ------------------------------------------


def test_tail_picks_highest_percentile_with_ten_beyond():
    t = measure.tail_percentile(range(1, 101))
    assert (t["value"], t["percentile"], t["beyond"], t["samples"], t["rule_met"]) == (90, 90.0, 10, 100, True)


def test_tail_at_larger_counts_moves_up_the_ladder():
    assert measure.tail_percentile(range(1, 1001))["percentile"] == 99.0
    assert measure.tail_percentile(range(1, 1001))["value"] == 990
    t = measure.tail_percentile(range(1, 10001))
    assert (t["value"], t["percentile"], t["beyond"]) == (9990, 99.9, 10)


def test_tail_with_forty_samples_is_p75():
    t = measure.tail_percentile(list(reversed(range(1, 41))))
    assert (t["value"], t["percentile"], t["beyond"], t["rule_met"]) == (30, 75.0, 10, True)


def test_tail_below_forty_samples_is_the_median():
    t = measure.tail_percentile(range(1, 40))
    assert (t["value"], t["percentile"], t["beyond"], t["rule_met"]) == (20, 50.0, 19, True)
    t = measure.tail_percentile(range(1, 21))
    assert (t["value"], t["beyond"], t["rule_met"]) == (10.5, 10, True)


def test_tail_below_twenty_samples_says_the_rule_is_not_met():
    t = measure.tail_percentile([5.0, 1.0, 3.0, 2.0])
    assert (t["value"], t["percentile"], t["beyond"], t["rule_met"]) == (2.5, 50.0, 2, False)
    with pytest.raises(ValueError):
        measure.tail_percentile([])


# ---- ess_per_s formulas ------------------------------------------------------


def test_scan_row_ess():
    assert measure.scan_row_ess("naive", 0.01, "", 2000) == (2000.0, False)
    assert measure.scan_row_ess("naive", 0.0, "", 2000) == (0.0, True)
    assert measure.scan_row_ess("planted_is", 1e-4, 1.004, 2000) == (0.0, True)
    assert measure.scan_row_ess("planted_is", 1e-3, 75.5, 2000) == (75.5, False)
    assert measure.scan_row_ess("planted_is", 1e-3, 50.0, 2000) == (50.0, False)
    assert measure.scan_row_ess("planted_is", 0.0, 80.0, 2000) == (0.0, True)


def test_kish_ess():
    assert measure.kish_ess(160.25, False) == 160.25
    assert measure.kish_ess(160.25, True) == 0.0


def test_loggas_ess():
    # 4 (N+1) / N^3 at N = 32 is 132 / 32768 = 0.0040283203125
    assert measure.goe_moment2_variance(32) == 0.0040283203125
    assert measure.loggas_ess(0.005, 32, False) == pytest.approx(0.0040283203125 / 2.5e-5, rel=1e-15)
    assert measure.loggas_ess(0.005, 32, True) == 0.0


# ---- host-speed scaling ----------------------------------------------------------


def test_host_scale_is_the_geometric_mean_of_probe_factors():
    ref_n, ref_b = measure.PROBES["numpy"][1], measure.PROBES["blas"][1]
    assert measure.host_scale(("numpy",), (2 * ref_n,), (2 * ref_n,)) == pytest.approx(0.5)
    assert measure.host_scale(("blas",), (ref_b,), (3 * ref_b,)) == pytest.approx(0.5)
    both = measure.host_scale(("numpy", "blas"), (2 * ref_n, ref_b / 2), (2 * ref_n, ref_b / 2))
    assert both == pytest.approx(1.0)
    assert all(t > 0 for t in measure.host_probe(tuple(measure.PROBES)))


# ---- span recorder -------------------------------------------------------------


def test_recorder_patches_aliases_and_restores():
    import layers
    import rmtldp.cli
    import rmtldp.devlab
    from spans import Recorder, Target

    orig = rmtldp.devlab.rate_slope_scan
    rec = Recorder("rmtldp")
    rec.install([
        Target("rmtldp.devlab", "rate_slope_scan", "devlab.scan"),
        Target("rmtldp.devlab", "_renamed_away", "devlab.gone"),
        Target("rmtldp.no_such_module", "f", "missing.module"),
    ])
    try:
        assert rmtldp.cli.rate_slope_scan is rmtldp.devlab.rate_slope_scan is not orig
        assert set(rec.absent) == {"devlab.gone", "missing.module"}
    finally:
        rec.uninstall()
    assert rmtldp.cli.rate_slope_scan is orig and rmtldp.devlab.rate_slope_scan is orig

    metrics, notes = layers.per_layer(rec, 1, [], None, None)
    assert all(m["value"] == 0.0 for m in metrics.values())
    assert "devlab.threads2_speedup" in notes["not_reached"]


def test_self_time_subtracts_children():
    from spans import Recorder

    rec = Recorder("none")
    rec.name, rec.parent = ["call", "a", "b"], [-1, 0, 1]
    rec.start, rec.end = [0.0, 1.0, 2.0], [10.0, 5.0, 3.0]
    assert rec.self_times() == [6.0, 3.0, 1.0]


# ---- smoke mode and the benchmark contract -------------------------------------


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_smoke_runs_every_workload_with_oracles(smoke):
    import workloads

    assert smoke["smoke_ok"] is True
    assert smoke["determinism"]["identical"] is True
    assert set(smoke["workloads"]) == set(workloads.WORKLOADS)
    for rep in smoke["workloads"].values():
        assert rep["failed"] == 0 and rep["attempted"] == 3
        assert rep["absent"] == {}


def test_smoke_layer_split_matches_the_workloads(smoke):
    def value(workload, metric):
        return smoke["workloads"][workload]["per_layer"][metric]["value"]

    assert value("deviation_scan", "randsrc.tilt_normalizer.calls_per_trial") == 0.0
    assert value("tail_is", "randsrc.tilt_normalizer.calls_per_trial") > 0.0
    for w in ("deviation_scan", "tail_is", "loggas_moment", "certify"):
        assert value(w, "matcore.HermMatrix.calls") == 0.0
    assert value("spike_spectrum", "matcore.HermMatrix.calls") > 0.0
    for w in ("deviation_scan", "tail_is", "loggas_moment", "spike_spectrum"):
        assert value(w, "varopt.descend.calls") == 0.0
    assert value("certify", "varopt.descend.calls") > 0.0
    # reached only by certify's untimed verify call, recorded on its own
    for metric in ("matcore.HermMatrix.us_per_call", "matcore.eigvals.ms_per_call",
                   "rates.trace_linearization_discrepancy.ms_per_call", "wigner.low_rank_trace_check.ms_per_call"):
        assert value("certify", metric) > 0.0
        assert metric not in smoke["workloads"]["certify"]["not_reached"]
    assert smoke["workloads"]["certify"]["side"]["exact_ok"] is True
    assert value("loggas_moment", "rng.stream.calls") == 1.0
    assert value("deviation_scan", "devlab.scan.kept_ratio") > 0.0


def test_benchmark_json_matches_the_code(smoke):
    import layers
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = smoke["workloads"]["deviation_scan"]["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
