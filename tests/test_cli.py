import hashlib
import json
import math

import numpy as np
import pytest

from rmtldp import cli, rates
from rmtldp.varopt import CertificateError


def run_cli(tmp_path, command, config, seed=0, fmt="csv", name="out"):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"{name}.{fmt}"
    code = cli.main([
        "--command", command, "--config", str(cfg), "--seed", str(seed),
        "--out", str(out), "--format", fmt,
    ])
    return code, out


def _reject_constant(token):
    raise ValueError(f"{token} is not valid JSON (RFC 8259)")


RATE_CFG = {
    "spec": {"theorem": "gaussian", "p": 4, "params": {"sigma2": 1.0, "beta": 2}, "center": 2.0},
    "grid": {"lo": 2.0, "hi": 4.0, "num": 5},
}


class TestRateCommand:
    def test_rate_curve_values(self, tmp_path):
        code, out = run_cli(tmp_path, "rate", RATE_CFG)
        assert code == 0
        text = out.read_text()
        assert "# speed=1.5" in text
        rows = dict(line.split(",") for line in text.splitlines() if line and not line.startswith("#") and not line.startswith("x,"))
        assert float(rows["3.0"]) == pytest.approx(0.5)

    def test_inf_below_center(self, tmp_path):
        cfg = dict(RATE_CFG, grid={"lo": 1.0, "hi": 3.0, "num": 3})
        code, out = run_cli(tmp_path, "rate", cfg)
        assert code == 0
        first_row = [l for l in out.read_text().splitlines() if l.startswith("1.0,")][0]
        assert first_row == "1.0,inf"

    def test_metadata_header(self, tmp_path):
        code, out = run_cli(tmp_path, "rate", RATE_CFG, seed=99)
        text = out.read_text()
        assert "# tool_version=" in text and "# config_hash=" in text and "# seed=99" in text

    def test_invalid_spec_exit_2(self, tmp_path):
        cfg = {"spec": {"theorem": "nope", "p": 4, "params": {}, "center": 0.0}}
        code, _ = run_cli(tmp_path, "rate", cfg)
        assert code == 2

    def test_empty_grid_exit_2(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "rate", dict(RATE_CFG, grid={"num": 0}))
        assert code == 2 and not out.exists()
        assert "grid num must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ({"p": 4.5}, "p must be an integer >= 1, got 4.5"),
        ({"p": "4"}, "p must be an integer >= 1, got '4'"),
        ({"theorem": "truncated_moment", "p": 0, "params": {"b": 1.0, "alpha": 1.0}, "center": 0.0},
         "p must be an integer >= 1, got 0"),
        ({"theorem": "beta_ensemble", "p": 0, "params": {"b": 1.0, "alpha": -1.0}, "center": 0.0},
         "p must be an integer >= 1, got 0"),
    ], ids=["p_fractional", "p_string", "truncated_p0", "beta_ensemble_p0"])
    def test_bad_p_exit_2(self, tmp_path, capsys, spec, message):
        code, _ = run_cli(tmp_path, "rate", dict(RATE_CFG, spec=dict(RATE_CFG["spec"], **spec)))
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("spec, grid, message", [
        ({"params": {"sigma2": -1.0, "beta": 2}}, {}, "sigma2 must be a finite positive number, got -1.0"),
        ({"params": {"sigma2": 1.0, "beta": 3}}, {}, "beta must be 1 or 2, got 3"),
        ({"params": {"sigma2": 1.0, "beta": True}}, {}, "beta must be a finite positive number, got True"),
        ({"theorem": "wigner_no_gaussian_tail", "params": {"c_p": 1.0, "alpha": 5.0}}, {},
         "wigner_no_gaussian_tail requires alpha < 2, got alpha=5.0"),
        ({"theorem": "wigner_no_gaussian_tail", "params": {"c_p": 0.0, "alpha": 1.0}}, {},
         "c_p must be a finite positive number, got 0.0"),
        ({"theorem": "truncated_moment", "params": {"b": math.inf, "alpha": 1.0}}, {},
         "b must be a finite positive number, got inf"),
        ({"theorem": "beta_ensemble", "params": {"b": 1.0, "alpha": math.nan}}, {},
         "alpha must be a finite positive number, got nan"),
        ({"center": math.nan}, {}, "center must be a finite number, got nan"),
        ({"center": "2.0"}, {}, "center must be a finite number, got '2.0'"),
        ({}, {"lo": math.nan}, "grid lo and hi must be finite, got lo=nan, hi=4.0"),
        ({}, {"hi": math.inf}, "grid lo and hi must be finite, got lo=2.0, hi=inf"),
        ({}, {"lo": "2"}, "lo must be a number, got '2'"),
        ({}, {"hi": True}, "hi must be a number, got True"),
    ], ids=["sigma2_negative", "beta_3", "beta_bool", "wg_alpha_5", "c_p_zero", "b_inf", "alpha_nan", "center_nan",
            "center_string", "lo_nan", "hi_inf", "lo_string", "hi_bool"])
    def test_bad_domain_exit_2(self, tmp_path, capsys, spec, grid, message):
        cfg = {"spec": dict(RATE_CFG["spec"], **spec), "grid": dict(RATE_CFG["grid"], **grid)}
        code, out = run_cli(tmp_path, "rate", cfg)
        assert code == 2 and not out.exists()
        assert message in capsys.readouterr().err

    def test_integral_float_p_accepted(self, tmp_path):
        _, out = run_cli(tmp_path, "rate", RATE_CFG, name="int")
        code, out_f = run_cli(tmp_path, "rate", dict(RATE_CFG, spec=dict(RATE_CFG["spec"], p=4.0)), name="float")
        assert code == 0
        rows = [[l for l in o.read_text().splitlines() if not l.startswith("# config_hash")] for o in (out, out_f)]
        assert rows[0] == rows[1]

    def test_json_below_center_is_valid_json(self, tmp_path):
        cfg = dict(RATE_CFG, grid={"lo": 1.0, "hi": 3.0, "num": 3})
        code, out = run_cli(tmp_path, "rate", cfg, fmt="json")
        assert code == 0
        doc = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert [r["rate"] for r in doc["rows"]] == ["inf", 0.0, 0.5]


class TestVaroptCommand:
    def test_offdiag_closed_form(self, tmp_path):
        cfg = {"alpha": 1.0, "a": 1.0, "b": 1.0, "p": 4, "budget": 16}
        code, out = run_cli(tmp_path, "varopt", cfg, fmt="json")
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["value"] == pytest.approx(2 ** -0.25, abs=1e-3)
        ((i, j, _),) = doc["argmin_support"]
        assert (i, j) == (0, 1)

    def test_diag_closed_form(self, tmp_path):
        cfg = {"alpha": 0.5, "a": 5.0, "b": 0.3, "p": 4, "budget": 16}
        code, out = run_cli(tmp_path, "varopt", cfg, fmt="json")
        doc = json.loads(out.read_text())
        assert doc["value"] == pytest.approx(0.3, abs=1e-3)
        ((i, j, _),) = doc["argmin_support"]
        assert i == j

    def test_bracket_reported(self, tmp_path):
        cfg = {"alpha": 1.5, "a": 1.0, "b": 1.0, "p": 4, "budget": 24}
        code, out = run_cli(tmp_path, "varopt", cfg, fmt="json")
        doc = json.loads(out.read_text())
        lo, hi = doc["bracket"]
        assert lo == pytest.approx(0.5) and hi == pytest.approx(2 ** (-1.5 / 4), abs=1e-9)
        assert lo <= doc["value"] <= hi + 1e-6

    @pytest.mark.parametrize("bad, message", [
        ({"a": -1}, "a and b must be finite and > 0"),
        ({"b": 0}, "a and b must be finite and > 0"),
        ({"a": math.inf}, "a and b must be finite and > 0"),
        ({"budget": -1}, "budget must be >= 0"),
        ({"p": 4.5}, "p must be an integer, got 4.5"),
        ({"budget": 16.5}, "budget must be an integer, got 16.5"),
        ({"n_max": 6.5}, "n_max must be an integer, got 6.5"),
        ({"p": True}, "p must be an integer, got True"),
        ({"a": "1.0"}, "a must be a number, got '1.0'"),
        ({"alpha": True}, "alpha must be a number, got True"),
        ({"b": None}, "b must be a number, got None"),
        ({"n_max": 13}, "n_max must be in [2, 12], got 13"),
    ], ids=["a_negative", "b_zero", "a_inf", "budget_negative", "p_fractional", "budget_fractional",
            "n_max_fractional", "p_bool", "a_string", "alpha_bool", "b_null", "n_max_13"])
    def test_bad_input_exit_2(self, tmp_path, capsys, bad, message):
        cfg = dict({"alpha": 1.0, "a": 1.0, "b": 1.0, "p": 4, "budget": 4}, **bad)
        code, _ = run_cli(tmp_path, "varopt", cfg, fmt="json")
        assert code == 2
        assert message in capsys.readouterr().err

    def test_integral_float_fields_accepted(self, tmp_path):
        cfg = {"alpha": 1.0, "a": 1.0, "b": 1.0, "p": 4, "budget": 8}
        code, out = run_cli(tmp_path, "varopt", cfg, fmt="json", name="int")
        code_f, out_f = run_cli(tmp_path, "varopt", dict(cfg, p=4.0, budget=8.0, n_max=6.0), fmt="json", name="float")
        assert code == code_f == 0
        doc, doc_f = json.loads(out.read_text()), json.loads(out_f.read_text())
        assert doc["value"] == doc_f["value"] and doc["argmin_support"] == doc_f["argmin_support"]

    def test_certificate_violation_exit_3(self, tmp_path, monkeypatch):
        def boom(**kw):
            raise CertificateError("forced")

        monkeypatch.setattr(cli, "solve_rate_constant", boom)
        cfg = {"alpha": 1.0, "a": 1.0, "b": 1.0, "p": 4}
        code, _ = run_cli(tmp_path, "varopt", cfg, fmt="json")
        assert code == 3


class TestVerifyCommand:
    def test_default_seed_all_pass(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "verify", {}, fmt="json")
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["all_pass"] is True
        # each check's wall time goes to stderr, so a rerun gives the same bytes
        timings = capsys.readouterr().err.splitlines()
        assert [line.split()[0] for line in timings] == [c["check"] for c in doc["checks"]]
        _, again = run_cli(tmp_path, "verify", {}, fmt="json", name="again")
        assert again.read_bytes() == out.read_bytes()

    def test_tampered_rate_formula_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "rate_value", lambda spec, x: 0.75)
        code, out = run_cli(tmp_path, "verify", {}, fmt="json")
        assert code == 1
        doc = json.loads(out.read_text())
        failed = [c for c in doc["checks"] if not c["pass"]]
        assert any(c["check"] == "rate_formula_spot_values" for c in failed)

    def test_raising_check_fails(self, tmp_path, monkeypatch):
        # hollow_witness asserts its own exactness, so a shifted limit raises inside the check
        shifted = rates.deformed_trace_limit
        monkeypatch.setattr(rates, "deformed_trace_limit", lambda H, p: shifted(H, p) + 1e-6)
        code, out = run_cli(tmp_path, "verify", {}, fmt="json")
        assert code == 1
        doc = json.loads(out.read_text())
        failed = {c["check"]: c["detail"] for c in doc["checks"] if not c["pass"]}
        assert list(failed) == ["hollow_witness_exactness"]
        assert failed["hollow_witness_exactness"].startswith("AssertionError: witness construction off")
        assert doc["all_pass"] is False


TAIL_MODEL = {"kind": "tail", "alpha": 1.0, "a": 1.0, "b": 1.0, "t0": 3.0, "normalize_variance": False}


class TestDeviationsCommand:
    CFG = {
        "model": {"kind": "gaussian", "sigma2": 1.0, "beta": 2},
        "n_grid": [16, 32],
        "p": 4,
        "x": 2.2,
        "trials": 400,
        "method": "naive",
    }

    def test_two_rows(self, tmp_path):
        code, out = run_cli(tmp_path, "deviations", self.CFG)
        assert code in (0, 4)
        lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert len(lines) == 3  # header + 2 slope rows
        assert lines[0].startswith("model,n,p,x,method,p_hat,stderr,slope,ess,seed")

    def test_byte_identical_reruns(self, tmp_path):
        _, out1 = run_cli(tmp_path, "deviations", self.CFG, seed=5, name="a")
        _, out2 = run_cli(tmp_path, "deviations", self.CFG, seed=5, name="b")
        assert out1.read_bytes() == out2.read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        code1, out1 = run_cli(tmp_path, "deviations", self.CFG, seed=5, name="t1")
        monkeypatch.setenv("RMTLDP_THREADS", "abc")  # no longer read, so never fatal
        code2, out2 = run_cli(tmp_path, "deviations", self.CFG, seed=5, name="t4")
        assert code1 == code2 and code2 in (0, 4)
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_trials_exit_2(self, tmp_path, capsys):
        cfg = dict(self.CFG, x=3.0, trials=0, method="auto")
        code, _ = run_cli(tmp_path, "deviations", cfg)
        assert code == 2
        assert "n_trials must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, message", [
        ({"method": "bogus"}, "method must be auto, naive or planted_is"),
        ({"n_grid": [1], "x": 3.0, "method": "auto", "model": {"kind": "gaussian", "sigma2": 1.0, "beta": 1}},
         "n must be >= 2"),
        ({"n_grid": [1], "x": 3.0, "method": "auto"}, "n must be >= 2"),
        ({"p": 0}, "x must be finite and p an integer >= 1"),
        ({"x": math.nan}, "x must be finite and p an integer >= 1"),
        ({"p": 3, "x": 3.0, "method": "planted_is"}, "planted_is is impossible here: p=3 is odd"),
        ({"x": 2.0, "method": "planted_is"}, "planted_is is impossible here: x=2.0 is not above the center"),
        ({"p": 4.5}, "p must be an integer, got 4.5"),
        ({"trials": 50.7}, "trials must be an integer, got 50.7"),
        ({"n_grid": [8.5, 12]}, "n_grid entries must be integers, got [8.5, 12]"),
        ({"model": {"kind": "gaussian", "sigma2": 1.0, "beta": 2.5}}, "beta must be the integer 1 or 2, got 2.5"),
        ({"model": {"kind": "gaussian", "sigma2": 1.0, "beta": True}}, "beta must be the integer 1 or 2, got True"),
        ({"model": {"kind": "gaussian", "sigma2": math.nan, "beta": 2}}, "sigma2 must be a finite positive number, got nan"),
        ({"model": dict(TAIL_MODEL, normalize_variance="no")}, "normalize_variance must be true or false, got 'no'"),
        ({"model": dict(TAIL_MODEL, a=math.nan)}, "a must be a finite positive number, got nan"),
        ({"model": dict(TAIL_MODEL, b=math.inf)}, "b must be a finite positive number, got inf"),
        ({"model": dict(TAIL_MODEL, t0=math.inf)}, "t0 must be a finite positive number, got inf"),
        ({"x": True}, "x must be a number, got True"),
        ({"x": "3"}, "x must be a number, got '3'"),
        ({"x": 10 ** 400}, "int too large to convert to float"),
        ({"n_grid": "16"}, "n_grid must be a JSON list, got '16'"),
    ], ids=["method", "offdiag_n1", "diag_n1", "p0", "x_nan", "is_odd_p", "is_x_at_center", "p_fractional",
            "trials_fractional", "n_grid_fractional", "beta_fractional", "beta_bool", "sigma2_nan",
            "normalize_variance_string", "a_nan", "b_inf", "t0_inf", "x_bool", "x_string", "x_huge_integer",
            "n_grid_string"])
    def test_bad_input_exit_2(self, tmp_path, capsys, bad, message):
        code, _ = run_cli(tmp_path, "deviations", dict(self.CFG, **bad))
        assert code == 2
        assert message in capsys.readouterr().err

    def test_integral_float_beta_accepted(self, tmp_path):
        rows = []
        for beta, name in ((2, "int"), (2.0, "float")):
            model = {"kind": "gaussian", "sigma2": 1.0, "beta": beta}
            code, out = run_cli(tmp_path, "deviations", dict(self.CFG, model=model, n_grid=[8], trials=50), name=name)
            assert code in (0, 4)
            rows.append([l for l in out.read_text().splitlines() if not l.startswith("#")])
        assert rows[0] == rows[1]

    def test_threshold_beyond_float_range_exit_2(self, tmp_path, capsys):
        # the planting size n * (x - center) overflows: no NaN rows, no exit 0
        cfg = dict(self.CFG, n_grid=[4, 5, 6], x=1e308, trials=10, method="planted_is")
        code, out = run_cli(tmp_path, "deviations", cfg)
        assert code == 2 and not out.exists()
        assert "x=1e+308 at n=4 takes the trace powers beyond the float range" in capsys.readouterr().err

    def test_json_below_center_is_valid_json(self, tmp_path):
        code, out = run_cli(tmp_path, "deviations", dict(self.CFG, x=1.5), fmt="json")
        assert code in (0, 4)
        doc = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert doc["meta"]["rate_reference"] == doc["summary"]["rate_reference"] == "inf"

    def test_auto_artifact_bytes(self, tmp_path):
        # rows: a kept naive estimate (n=2), planted IS (n=4) and a zero-hit IS row (n=16), whose
        # bounded entries cannot reach x; recorded before scan rows became the estimates
        cfg = {"model": {"kind": "tail", "alpha": 1.0, "a": 20.0, "b": 20.0, "t0": 2.0, "normalize_variance": False},
               "n_grid": [2, 4, 16], "p": 4, "x": 4.0, "trials": 200, "method": "auto"}
        code, out = run_cli(tmp_path, "deviations", cfg, fmt="json")
        assert code == 4
        rows = json.loads(out.read_text())["rows"]
        assert [(r[4], r[5] > 0) for r in rows] == [("naive", True), ("planted_is", True), ("planted_is", False)]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "27fc60168a2633ed81ad59d56dc8c0ebb10a1cb8b20fcc82fe489e933d11622d")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_invariant_artifact_declares_stream_layout(self, tmp_path, fmt):
        code, out = run_cli(tmp_path, "deviations", dict(self.CFG, n_grid=[4], trials=50), fmt=fmt)
        assert code in (0, 4)
        text = out.read_text()
        if fmt == "json":
            assert json.loads(text)["meta"]["stream_layout"] == "dumitriu_edelman"
        else:
            assert "# stream_layout=dumitriu_edelman\n" in text

    # recorded before invariant trials drew the Dumitriu-Edelman law directly: the layout change
    # leaves these artifacts' bytes, and their meta has no stream_layout
    @pytest.mark.parametrize("model, seed, sha256", [
        (TAIL_MODEL, 0, "1a00ec3805085b8bef100c3271f9e7056016bdf9b35c44903b33aebbef7157ce"),
        (TAIL_MODEL, 7, "732a1c46efb608a63ddfec7d416972acd521e3fa4329fc2715e5729583b14175"),
        ({"kind": "gaussian", "sigma2": 0.25, "beta": 2}, 0,
         "4dbf4353414548bb146681ef786f10351ca152574329e67f5cd53f42de65d4fa"),
        ({"kind": "gaussian", "sigma2": 0.25, "beta": 2}, 7,
         "1eb79e13e671906c0d2f799681f01bc4f95cee9a05f6785621ff954da3c1ac20"),
    ], ids=["tail-0", "tail-7", "gauss_0.25_2-0", "gauss_0.25_2-7"])
    def test_dense_artifacts_keep_their_bytes(self, tmp_path, model, seed, sha256):
        cfg = {"model": model, "n_grid": [4, 6], "p": 4, "x": 3.0, "trials": 300, "method": "auto"}
        code, out = run_cli(tmp_path, "deviations", cfg, seed=seed, fmt="json")
        assert code == 0
        assert "stream_layout" not in json.loads(out.read_text())["meta"]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_gue_json_artifact_bytes(self, tmp_path):
        # recorded before ScanResult.summary was built from the dataclass fields
        code, out = run_cli(tmp_path, "deviations", dict(self.CFG, method="auto"), fmt="json")
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "587c7645d3f4be34e8e2298a5262256a653a4c39325d110b48c180195196c8da")

    def test_gaussian_below_p3_has_no_reference(self, tmp_path):
        cfg = dict(self.CFG, model={"kind": "gaussian", "sigma2": 1.0, "beta": 1}, n_grid=[4, 6], p=2, x=1.5,
                   trials=200, method="auto")
        code, out = run_cli(tmp_path, "deviations", cfg, fmt="json")
        assert code in (0, 4)
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 2
        assert doc["meta"]["rate_reference"] is None and doc["summary"]["rate_reference"] is None

    def test_flagged_rows_exit_4(self, tmp_path):
        cfg = dict(self.CFG, x=50.0, trials=50)  # unreachable: zero hits everywhere
        code, out = run_cli(tmp_path, "deviations", cfg)
        assert code == 4
        assert "naive" in out.read_text() or "none" in out.read_text()


UNTUNED_A2 = {"what": "loggas", "potential": {"b": 0.25, "alpha": 2.0, "beta": 1.0}, "N": 8, "sweeps": 30}
TUNED_A4_ABS = {"what": "loggas", "potential": {"b": 0.5, "alpha": 4.0, "beta": 2.0, "w_kind": "abs", "w_coef": 0.5},
                "N": 12, "sweeps": 150, "tune": True}


class TestSampleCommand:
    def test_zero_sweeps_echoes_initial_state(self, tmp_path):
        cfg = {"what": "loggas", "potential": {"b": 0.25, "alpha": 2.0, "beta": 1.0}, "N": 32, "sweeps": 0}
        code, out = run_cli(tmp_path, "sample", cfg, seed=3, fmt="json")
        assert code == 0
        doc = json.loads(out.read_text())
        ck = doc["checkpoint"]
        assert ck["sweep_count"] == 0 and ck["N"] == 32
        from rmtldp.loggas import GasState, Potential

        init = GasState.initial(Potential(b=0.25, alpha=2.0, beta=1.0), 32, seed=3)
        assert np.allclose(ck["lambdas"], init.lambdas)
        assert ck["accept_count"] == 0 and ck["proposal_count"] == 0

    def test_checkpoint_resumes_like_one_chain(self, tmp_path):
        from rmtldp.loggas import GasState, Potential, run_chain

        pot = Potential(b=0.25, alpha=2.0, beta=1.0)
        cfg = {"what": "loggas", "potential": pot.to_json(), "N": 8, "sweeps": 30}
        code, out = run_cli(tmp_path, "sample", cfg, seed=3, fmt="json")
        assert code == 0
        resumed, pot2 = GasState.from_checkpoint(json.loads(out.read_text())["checkpoint"])
        run_chain(resumed, pot2, 10)
        whole = GasState.initial(pot, 8, seed=3)
        run_chain(whole, pot, 40)
        assert np.array_equal(resumed.lambdas, whole.lambdas)
        assert (resumed.accept_count, resumed.proposal_count, resumed.sweep_count) == (
            whole.accept_count, whole.proposal_count, whole.sweep_count)

    def test_resume_from_artifact_equals_one_run(self, tmp_path):
        cfg = {"what": "loggas", "potential": {"b": 0.25, "alpha": 2.0, "beta": 1.0}, "N": 8}
        _, first = run_cli(tmp_path, "sample", dict(cfg, sweeps=30), seed=3, fmt="json", name="first")
        ck30 = json.loads(first.read_text())["checkpoint"]
        code, resumed = run_cli(tmp_path, "sample", dict(cfg, sweeps=10, checkpoint=ck30), seed=3, fmt="json",
                                name="resumed")
        assert code == 0
        _, whole = run_cli(tmp_path, "sample", dict(cfg, sweeps=40), seed=3, fmt="json", name="whole")
        ck_resumed = json.loads(resumed.read_text())["checkpoint"]
        ck_whole = json.loads(whole.read_text())["checkpoint"]
        assert ck_whole["sweep_count"] == 40
        assert json.dumps(ck_resumed, sort_keys=True) == json.dumps(ck_whole, sort_keys=True)

    def test_tuned_resume_mid_window_equals_one_run(self, tmp_path):
        cfg = {"what": "loggas", "potential": {"b": 0.25, "alpha": 2.0, "beta": 1.0}, "N": 16, "tune": True}
        _, first = run_cli(tmp_path, "sample", dict(cfg, sweeps=150), seed=3, fmt="json", name="first")
        ck150 = json.loads(first.read_text())["checkpoint"]
        assert ck150["window_proposals"] == 50 * 16
        _, resumed = run_cli(tmp_path, "sample", dict(cfg, sweeps=150, checkpoint=ck150), seed=3, fmt="json",
                             name="resumed")
        _, whole = run_cli(tmp_path, "sample", dict(cfg, sweeps=300), seed=3, fmt="json", name="whole")
        ck_resumed = json.loads(resumed.read_text())["checkpoint"]
        ck_whole = json.loads(whole.read_text())["checkpoint"]
        assert ck_whole["sweep_count"] == 300
        assert json.dumps(ck_resumed, sort_keys=True) == json.dumps(ck_whole, sort_keys=True)

    @pytest.mark.parametrize("override", [{"N": 9}, {"potential": {"b": 0.5, "alpha": 2.0, "beta": 1.0}}])
    def test_resume_with_disagreeing_config_exit_2(self, tmp_path, capsys, override):
        cfg = {"what": "loggas", "potential": {"b": 0.25, "alpha": 2.0, "beta": 1.0}, "N": 8, "sweeps": 5}
        _, first = run_cli(tmp_path, "sample", cfg, fmt="json", name="first")
        ck = json.loads(first.read_text())["checkpoint"]
        capsys.readouterr()
        code, _ = run_cli(tmp_path, "sample", dict(cfg, checkpoint=ck, **override), fmt="json", name="bad")
        assert code == 2
        assert "disagrees with the checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, message", [
        ({"N": 8.5}, "N must be an integer, got 8.5"),
        ({"sweeps": 2.5}, "sweeps must be an integer, got 2.5"),
        ({"sweeps": -5}, "sweeps must be >= 0, got -5"),
        ({"what": "wigner", "model": {"kind": "gaussian", "sigma2": 1.0, "beta": 1}, "n": "16"},
         "n must be an integer, got '16'"),
    ], ids=["N_fractional", "sweeps_fractional", "sweeps_negative", "n_string"])
    def test_non_integral_count_exit_2(self, tmp_path, capsys, bad, message):
        cfg = dict({"what": "loggas", "potential": {"b": 0.25, "alpha": 2.0, "beta": 1.0}, "N": 8, "sweeps": 5}, **bad)
        code, _ = run_cli(tmp_path, "sample", cfg, fmt="json")
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("potential, message", [
        ({"b": math.nan}, "b must be a finite positive number, got nan"),
        ({"b": True}, "b must be a finite positive number, got True"),
        ({"alpha": math.inf}, "alpha must be a finite positive number, got inf"),
        ({"beta": math.nan}, "beta must be a finite positive number, got nan"),
        ({"w_kind": "abs", "w_coef": math.nan}, "w_coef must be a finite number, got nan"),
        ({"w_kind": "abs", "w_coef": -0.5}, "w_coef must be nonnegative, got -0.5"),
        ({"w_coef": 3.0}, "w_coef must be 0 for the zero remainder, got 3.0"),
    ], ids=["b_nan", "b_bool", "alpha_inf", "beta_nan", "w_coef_nan", "w_coef_negative", "w_coef_zero_kind"])
    def test_bad_potential_exit_2(self, tmp_path, capsys, potential, message):
        cfg = {"what": "loggas", "potential": dict({"b": 0.25, "alpha": 2.0, "beta": 1.0}, **potential), "N": 4,
               "sweeps": 3}
        code, _ = run_cli(tmp_path, "sample", cfg, fmt="json")
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("bad, message", [
        ({"lambdas": ["0.1", "0.2", "0.3"], "N": 3}, "lambdas must be a finite number, got '0.1'"),
        ({"lambdas": [0.1, math.nan], "N": 2}, "lambdas must be a finite number, got nan"),
        ({"lambdas": [0.5], "N": 1}, "lambdas must be a list of at least 2 numbers, got [0.5]"),
        ({"N": 9}, "N=9 disagrees with the 8 lambdas"),
        ({"step": math.nan}, "step must be a finite positive number, got nan"),
        ({"step": "0.3"}, "step must be a finite positive number, got '0.3'"),
        ({"step": True}, "step must be a finite positive number, got True"),
        ({"step": 0.0}, "step must be a finite positive number, got 0.0"),
        ({"sweep_count": 1.5}, "sweep_count must be a non-negative integer, got 1.5"),
        ({"accept_count": -1}, "accept_count must be a non-negative integer, got -1"),
        ({"proposal_count": "40"}, "proposal_count must be a non-negative integer, got '40'"),
        ({"window_accept": True}, "window_accept must be a non-negative integer, got True"),
        ({"window_proposals": math.inf}, "window_proposals must be a non-negative integer, got inf"),
        # rng_state entries replace single fields of the saved state
        ({"rng_state": {"bit_generator": "PCG64"}}, "rng_state bit_generator must be 'Philox', got 'PCG64'"),
        ({"rng_state": {"counter": [1, 2]}},
         "rng_state counter must be a list of 4 integers in [0, 2**64), got [1, 2]"),
        ({"rng_state": {"counter": [-1, 0, 0, 0]}},
         "rng_state counter must be a list of 4 integers in [0, 2**64), got [-1, 0, 0, 0]"),
        ({"rng_state": {"key": ["1", "2"]}},
         "rng_state key must be a list of 2 integers in [0, 2**64), got ['1', '2']"),
        ({"rng_state": {"buffer": [1.0, 2, 3, 4]}},
         "rng_state buffer must be a list of 4 integers in [0, 2**64), got [1.0, 2, 3, 4]"),
        ({"rng_state": {"buffer_pos": 99}}, "rng_state buffer_pos must be an integer in [0, 5), got 99"),
        ({"rng_state": {"buffer_pos": 1.5}}, "rng_state buffer_pos must be an integer in [0, 5), got 1.5"),
        ({"rng_state": {"has_uint32": 7}}, "rng_state has_uint32 must be an integer in [0, 2), got 7"),
        ({"rng_state": {"has_uint32": True}}, "rng_state has_uint32 must be an integer in [0, 2), got True"),
        ({"rng_state": {"uinteger": 2**40}}, f"rng_state uinteger must be an integer in [0, 2**32), got {2**40}"),
    ], ids=["lambdas_strings", "lambdas_nan", "lambdas_one_particle", "N_disagrees", "step_nan", "step_string",
            "step_bool", "step_zero", "sweep_count_fractional", "accept_count_negative", "proposal_count_string",
            "window_accept_bool", "window_proposals_inf", "bit_generator_pcg64", "counter_short", "counter_negative",
            "key_strings", "buffer_float", "buffer_pos_99", "buffer_pos_fractional", "has_uint32_7",
            "has_uint32_bool", "uinteger_wide"])
    def test_bad_checkpoint_field_exit_2(self, tmp_path, capsys, bad, message):
        cfg = {"what": "loggas", "potential": {"b": 0.25, "alpha": 2.0, "beta": 1.0}, "N": 8, "sweeps": 5}
        _, first = run_cli(tmp_path, "sample", cfg, fmt="json", name="first")
        ck = json.loads(first.read_text())["checkpoint"]
        ck = {**ck, **bad, "rng_state": {**ck["rng_state"], **bad.get("rng_state", {})}}
        capsys.readouterr()
        code, _ = run_cli(tmp_path, "sample", {"what": "loggas", "sweeps": 5, "checkpoint": ck}, fmt="json",
                          name="bad")
        assert code == 2
        assert message in capsys.readouterr().err

    # recorded before the checkpoint's rng_state and counters were written from one field list each
    @pytest.mark.parametrize("config, seed, sha256", [
        (UNTUNED_A2, 0, "49eabe85bd3eb1f837f35730dc4394db7aa9a53f0ff7a7da9f1c9a92de7d3092"),
        (UNTUNED_A2, 1, "0d5728c8907b60a7c3a22c7733b0a0769310c0c10051e6a1283abffac648f3bf"),
        (UNTUNED_A2, 2, "8a2312e63fbc27a3e65b6a116ebb48b3fad7a0a8ce1a94b045795311ee74eaca"),
        (UNTUNED_A2, 3, "01dabaac3eef36872a495230d71b79e925ac815094645b3657d23367601223c9"),
        (TUNED_A4_ABS, 0, "542fa5eb7d6aa9ff52cbc3f9911ac18ca4f640b4879cfa9c85d6197ff081b45f"),
        (TUNED_A4_ABS, 1, "c2b8762d9af37c26052402cf8a152b1cdeb99e99871c40ce1dcf2545a173189d"),
        (TUNED_A4_ABS, 2, "e83ab95ff3a4bb83c4f78d73b67fd5d8e0dab55aee2096cfd1accc29a1df35d1"),
        (TUNED_A4_ABS, 3, "ac9ddac63148d8c67eccd7ae2555ee2d8cdbcd78d2addbb6075ef13e5ed4fd5f"),
    ], ids=[f"{gas}-{seed}" for gas in ("a2_untuned", "a4_abs_tuned") for seed in range(4)])
    def test_loggas_artifact_bytes(self, tmp_path, config, seed, sha256):
        code, out = run_cli(tmp_path, "sample", config, seed=seed, fmt="json")
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_resumed_artifact_bytes(self, tmp_path):
        # recorded with the same pin as test_loggas_artifact_bytes
        cfg = dict(UNTUNED_A2, N=16, sweeps=150, tune=True)
        _, first = run_cli(tmp_path, "sample", cfg, seed=3, fmt="json", name="first")
        ck150 = json.loads(first.read_text())["checkpoint"]
        code, resumed = run_cli(tmp_path, "sample", dict(cfg, checkpoint=ck150), seed=3, fmt="json", name="resumed")
        assert code == 0
        assert hashlib.sha256(resumed.read_bytes()).hexdigest() == (
            "cb06c8af933551ef97d702ccb7140b97f96aee85f14f02aee0f25370be5c590b")

    @pytest.mark.parametrize("tune", ["no", 1, None])
    def test_non_boolean_tune_exit_2(self, tmp_path, capsys, tune):
        cfg = {"what": "loggas", "potential": {"b": 0.25, "alpha": 2.0, "beta": 1.0}, "N": 8, "sweeps": 5,
               "tune": tune}
        code, _ = run_cli(tmp_path, "sample", cfg, fmt="json")
        assert code == 2
        assert f"tune must be true or false, got {tune!r}" in capsys.readouterr().err

    def test_wigner_eigenvalues_csv(self, tmp_path):
        cfg = {"what": "wigner", "model": {"kind": "gaussian", "sigma2": 1.0, "beta": 1}, "n": 16}
        code, out = run_cli(tmp_path, "sample", cfg)
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert len(lines) == 17

    @pytest.mark.parametrize("beta, sha256", [
        (1, "206a0cbdb93cdd87cef7703bbf5ad1c6f10d4acd413b5a105cfe3244e15a18c2"),
        (2, "6577d11a8980a99705f3922ca20f9eea4e53bc059302dc6aeebb72501be67833"),
    ])
    def test_wigner_artifact_bytes(self, tmp_path, beta, sha256):
        # recorded before derived matrices skipped the constructor's re-mirror
        cfg = {"what": "wigner", "model": {"kind": "gaussian", "sigma2": 1.0, "beta": beta}, "n": 64}
        code, out = run_cli(tmp_path, "sample", cfg, seed=5)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


class TestCalibrateCommand:
    def test_unit_rate_recovered(self, tmp_path):
        cfg = {"alpha": 1.0, "a": 1.0, "t_grid": [4.0], "n_samples": 300000}
        code, out = run_cli(tmp_path, "calibrate", cfg, seed=2)
        assert code == 0
        row = [l for l in out.read_text().splitlines() if l and not l.startswith("#")][1]
        t, ratio, lo, hi, n_exc, below = row.split(",")
        assert float(lo) <= 1.0 <= float(hi)
        assert int(below) == 0

    def test_missing_config_key_exit_2(self, tmp_path):
        code, _ = run_cli(tmp_path, "calibrate", {"alpha": 1.0})
        assert code == 2

    @pytest.mark.parametrize("bad, message", [
        ({"normalize_variance": "no"}, "normalize_variance must be true or false, got 'no'"),
        ({"t_grid": [4.0, -1.0]}, "got t=-1.0"),
        ({"t_grid": [0.0]}, "got t=0.0"),
        ({"t_grid": [math.nan]}, "got t=nan"),
        ({"t_grid": [math.inf]}, "got t=inf"),
        ({"a": True}, "a must be a finite positive number, got True"),
        ({"alpha": "1.0"}, "alpha must be a finite positive number, got '1.0'"),
        ({"t0": math.nan}, "t0 must be a finite positive number, got nan"),
        ({"t_grid": ["4"]}, "t_grid entries must be numbers, got ['4']"),
        ({"t_grid": [True]}, "t_grid entries must be numbers, got [True]"),
        ({"t_grid": 4.0}, "t_grid must be a JSON list, got 4.0"),
        ({"n_samples": -5}, "n_samples must be >= 1, got -5"),
        ({"n_samples": 0}, "n_samples must be >= 1, got 0"),
    ], ids=["normalize_variance_string", "t_negative", "t_zero", "t_nan", "t_inf", "a_bool", "alpha_string", "t0_nan",
            "t_string", "t_bool", "t_grid_scalar", "n_samples_negative", "n_samples_zero"])
    def test_bad_input_exit_2(self, tmp_path, capsys, bad, message):
        cfg = dict({"alpha": 1.0, "a": 1.0, "t_grid": [4.0], "n_samples": 1000}, **bad)
        code, out = run_cli(tmp_path, "calibrate", cfg)
        assert code == 2 and not out.exists()
        assert message in capsys.readouterr().err


class TestConfigHandling:
    def test_unreadable_config(self, tmp_path):
        out = tmp_path / "o.csv"
        code = cli.main(["--command", "rate", "--config", str(tmp_path / "nope.json"), "--out", str(out)])
        assert code == 2

    @pytest.mark.parametrize("command", ["sample", "rate", "varopt", "deviations", "verify", "calibrate"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, command):
        code, out = run_cli(tmp_path, command, RATE_CFG, seed=-1)
        assert code == 2 and not out.exists()
        assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
