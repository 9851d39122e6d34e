import hashlib
import json
import math

import numpy as np
import pytest

from rmtldp import cli
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
        ({"a": "inf"}, "a and b must be finite and > 0"),
        ({"budget": -1}, "budget must be >= 0"),
        ({"p": 4.5}, "p must be an integer, got 4.5"),
        ({"budget": 16.5}, "budget must be an integer, got 16.5"),
        ({"n_max": 6.5}, "n_max must be an integer, got 6.5"),
        ({"p": True}, "p must be an integer, got True"),
    ], ids=["a_negative", "b_zero", "a_inf", "budget_negative", "p_fractional", "budget_fractional",
            "n_max_fractional", "p_bool"])
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
        ({"x": "nan"}, "x must be finite and p an integer >= 1"),
        ({"p": 3, "x": 3.0, "method": "planted_is"}, "planted_is is impossible here: p=3 is odd"),
        ({"x": 2.0, "method": "planted_is"}, "planted_is is impossible here: x=2.0 is not above the center"),
        ({"p": 4.5}, "p must be an integer, got 4.5"),
        ({"trials": 50.7}, "trials must be an integer, got 50.7"),
        ({"n_grid": [8.5, 12]}, "n_grid entries must be integers, got [8.5, 12]"),
    ], ids=["method", "offdiag_n1", "diag_n1", "p0", "x_nan", "is_odd_p", "is_x_at_center", "p_fractional",
            "trials_fractional", "n_grid_fractional"])
    def test_bad_input_exit_2(self, tmp_path, capsys, bad, message):
        code, _ = run_cli(tmp_path, "deviations", dict(self.CFG, **bad))
        assert code == 2
        assert message in capsys.readouterr().err

    def test_json_below_center_is_valid_json(self, tmp_path):
        code, out = run_cli(tmp_path, "deviations", dict(self.CFG, x=1.5), fmt="json")
        assert code in (0, 4)
        doc = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert doc["meta"]["rate_reference"] == doc["summary"]["rate_reference"] == "inf"

    def test_flagged_rows_exit_4(self, tmp_path):
        cfg = dict(self.CFG, x=50.0, trials=50)  # unreachable: zero hits everywhere
        code, out = run_cli(tmp_path, "deviations", cfg)
        assert code == 4
        assert "naive" in out.read_text() or "none" in out.read_text()


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
        ({"what": "wigner", "model": {"kind": "gaussian", "sigma2": 1.0, "beta": 1}, "n": "16"},
         "n must be an integer, got '16'"),
    ], ids=["N_fractional", "sweeps_fractional", "n_string"])
    def test_non_integral_count_exit_2(self, tmp_path, capsys, bad, message):
        cfg = dict({"what": "loggas", "potential": {"b": 0.25, "alpha": 2.0, "beta": 1.0}, "N": 8, "sweeps": 5}, **bad)
        code, _ = run_cli(tmp_path, "sample", cfg, fmt="json")
        assert code == 2
        assert message in capsys.readouterr().err

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


class TestConfigHandling:
    def test_unreadable_config(self, tmp_path):
        out = tmp_path / "o.csv"
        code = cli.main(["--command", "rate", "--config", str(tmp_path / "nope.json"), "--out", str(out)])
        assert code == 2
