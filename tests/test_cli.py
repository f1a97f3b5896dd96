"""CLI surface: dispatch, validation, exit codes, report schema, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from suspension_lab import cli
from suspension_lab.cli import (
    EXIT_ANOMALY,
    EXIT_CONFIG,
    EXIT_COVERAGE,
    EXIT_OK,
    EXIT_PRECONDITION,
    body_bytes,
)
from suspension_lab.intensity import CONDITION_IDS, check_condition
from suspension_lab.simulate import ExperimentSummary

SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "docs" / "report-schema.json").read_text())

POWER_PROFILE = {"base": 1.0, "epsilon": {"kind": "power", "gamma": 0.5, "sign": -1}}
STEP_PROFILE = {"base": 1.0, "epsilon": {"kind": "step", "left": 0.0, "right": 0.693}}


def write_config(tmp_path: Path, doc: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_to_file(tmp_path: Path, command: str, doc: dict, *extra: str, name: str = "out.json"):
    cfg = write_config(tmp_path, doc, f"{command}-{name}.cfg")
    out = tmp_path / f"{command}-{name}"
    code = cli.main([command, "--config", cfg, "--out", str(out), *extra])
    return code, out


class TestCommands:
    def test_check(self, tmp_path):
        code, out = run_to_file(tmp_path, "check", {"profile": POWER_PROFILE})
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        jsonschema.validate(report, SCHEMA)
        body = report["body"]
        assert body["conditions"]["nonsingularity"]["holds"] == "yes"
        assert body["conditions"]["clt_regime"]["holds"] == "yes"
        assert body["limit_gap"] == 0.0

    def test_default_epsilon_is_sqrt_decay(self, tmp_path):
        code, out = run_to_file(tmp_path, "check", {"profile": {"base": 1.0}})
        assert code == EXIT_OK
        body = json.loads(out.read_text())["body"]
        assert body["profile"]["epsilon"] == {"kind": "power", "gamma": 0.5, "sign": -1}

    def test_classify_regimes(self, tmp_path):
        for base, verdict in ((0.05, "conservative"), (8.0, "totally_dissipative")):
            doc = {"profile": {**POWER_PROFILE, "base": base}}
            code, out = run_to_file(tmp_path, "classify", doc, name=f"{base}.json")
            assert code == EXIT_OK
            report = json.loads(out.read_text())
            jsonschema.validate(report, SCHEMA)
            assert report["body"]["verdict"] == verdict

    def test_tails(self, tmp_path):
        doc = {"skellam": {"a": 0.5, "b": 0.5}, "L": 10}
        code, out = run_to_file(tmp_path, "tails", doc)
        assert code == EXIT_OK
        body = json.loads(out.read_text())["body"]
        assert body["exact"] < 1e-8
        assert body["exact"] <= body["bound"]

    def test_tails_bound_above_one(self, tmp_path):
        doc = {"skellam": {"a": 27, "b": 27}, "L": 20}
        code, out = run_to_file(tmp_path, "tails", doc)
        assert code == EXIT_OK

        def refuse(name):
            raise ValueError(f"non-strict JSON constant {name}")

        body = json.loads(out.read_text(), parse_constant=refuse)["body"]
        assert body["exact_le_bound"] is True
        assert body["bound"] == 1.0

    def test_check_reports_evidence(self, tmp_path):
        code, out = run_to_file(tmp_path, "check", {"profile": POWER_PROFILE})
        assert code == EXIT_OK
        conditions = json.loads(out.read_text())["body"]["conditions"]
        assert sorted(conditions) == sorted(CONDITION_IDS)
        profile = cli.parse_profile(POWER_PROFILE)
        for cid in CONDITION_IDS:
            expected = check_condition(profile, cid).partial_sums
            assert conditions[cid]["partial_sums"] == [[n, v] for n, v in expected]

    def test_asymptotics_json_and_csv(self, tmp_path):
        doc = {"profile": POWER_PROFILE, "n_min": 16, "n_max": 1024}
        code, out = run_to_file(tmp_path, "asymptotics", doc)
        assert code == EXIT_OK
        body = json.loads(out.read_text())["body"]
        assert [row["n"] for row in body["series"]] == [2**e for e in range(4, 11)]
        assert body["rn_fit"]["slope"] == pytest.approx(5.777, abs=0.01)

        code, out = run_to_file(tmp_path, "asymptotics", doc, "--format", "csv", name="out.csv")
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[2] == "n,rn_square_integral,hellinger_growth"
        assert lines[3].split(",")[0] == "16"

    def test_bracket(self, tmp_path):
        doc = {"profile": POWER_PROFILE, "rtol": 0.01}
        code, out = run_to_file(tmp_path, "bracket", doc)
        assert code == EXIT_OK
        body = json.loads(out.read_text())["body"]
        assert 0.15 <= body["t_lower"] <= body["t_upper"] <= 4.2

    def test_clt(self, tmp_path):
        doc = {"profile": POWER_PROFILE, "n": 300, "samples": 400, "rng": {"seed": 5}}
        code, out = run_to_file(tmp_path, "clt", doc)
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        jsonschema.validate(report, SCHEMA)
        snaps = report["body"]["statistics"]["snapshots"]
        assert snaps[-1]["n"] == 300

    def test_decay(self, tmp_path):
        doc = {"profile": POWER_PROFILE, "samples": 2_000, "ns": [10, 100]}
        code, out = run_to_file(tmp_path, "decay", doc)
        assert code == EXIT_OK
        rows = json.loads(out.read_text())["body"]["statistics"]["rows"]
        assert [r["n"] for r in rows] == [10, 100]

    def test_stopping(self, tmp_path):
        doc = {"profile": POWER_PROFILE, "r": -1.5, "eps": 0.5,
               "M": 50, "N": 5_000, "samples": 100}
        code, out = run_to_file(tmp_path, "stopping", doc)
        assert code == EXIT_OK
        stats = json.loads(out.read_text())["body"]["statistics"]
        assert 0.0 <= stats["success_freq"] <= 1.0

    def test_hopf(self, tmp_path):
        doc = {"profile": POWER_PROFILE, "N": 16, "samples": 100}
        code, out = run_to_file(tmp_path, "hopf", doc)
        assert code == EXIT_OK
        stats = json.loads(out.read_text())["body"]["statistics"]
        assert stats["heuristic"] is True

    def test_hopf_wide_window_override_used(self, tmp_path):
        doc = {"profile": POWER_PROFILE, "N": 16, "samples": 100, "window": [0, 5000]}
        code, out = run_to_file(tmp_path, "hopf", doc)
        assert code == EXIT_OK
        body = json.loads(out.read_text())["body"]
        assert body["statistics"]["window"] == [0, 5000]

    def test_output_path_from_config(self, tmp_path):
        target = tmp_path / "from-config.json"
        doc = {"skellam": {"a": 1.0, "b": 2.0}, "L": 4,
               "output": {"path": str(target), "format": "json"}}
        cfg = write_config(tmp_path, doc, "outcfg.json")
        assert cli.main(["tails", "--config", cfg]) == EXIT_OK
        assert json.loads(target.read_text())["body"]["L"] == 4

    def test_scan_json_and_csv(self, tmp_path):
        doc = {"profile": POWER_PROFILE, "t_grid": [0.5, 2.0], "N": 16, "samples": 100}
        code, out = run_to_file(tmp_path, "scan", doc)
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        jsonschema.validate(report, SCHEMA)
        assert report["body"]["statistics"]["anomaly"] is False

        code, out = run_to_file(tmp_path, "scan", doc, "--format", "csv", name="out.csv")
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[2] == "t,growth_exponent"
        assert len(lines) == 5


class TestValidationAndExitCodes:
    def test_unknown_top_level_field(self, tmp_path):
        code, _ = run_to_file(tmp_path, "check", {"profile": POWER_PROFILE, "bogus": 1})
        assert code == EXIT_CONFIG

    def test_unknown_epsilon_field(self, tmp_path):
        doc = {"profile": {"base": 1.0, "epsilon": {"kind": "power", "gamma": 0.5, "extra": 1}}}
        code, _ = run_to_file(tmp_path, "check", doc)
        assert code == EXIT_CONFIG

    def test_cross_command_knob_rejected(self, tmp_path):
        # a knob belonging to another command is an unknown field here
        doc = {"profile": POWER_PROFILE, "t_grid": [0.5, 1.0]}
        code, _ = run_to_file(tmp_path, "classify", doc)
        assert code == EXIT_CONFIG

    def test_command_mismatch(self, tmp_path):
        code, _ = run_to_file(tmp_path, "check", {"command": "classify", "profile": POWER_PROFILE})
        assert code == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["check", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["check", "--config", str(path)]) == EXIT_CONFIG

    def test_bad_domain_parameter(self, tmp_path):
        doc = {"profile": POWER_PROFILE, "r": -0.5, "eps": 0.1, "M": 10, "N": 100, "samples": 5}
        code, _ = run_to_file(tmp_path, "stopping", doc)
        assert code == EXIT_CONFIG

    def test_negative_seed(self, tmp_path):
        code, _ = run_to_file(tmp_path, "check", {"profile": POWER_PROFILE, "rng": {"seed": -1}})
        assert code == EXIT_CONFIG

    def test_decay_ns_below_one(self, tmp_path):
        doc = {"profile": POWER_PROFILE, "samples": 2_000, "ns": [0, -5]}
        code, _ = run_to_file(tmp_path, "decay", doc)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("thresholds", ["ab", [1.0, "x"], [True], [float("nan")]])
    def test_clt_thresholds_not_numbers(self, tmp_path, thresholds):
        doc = {"profile": POWER_PROFILE, "n": 100, "samples": 10, "thresholds": thresholds}
        code, _ = run_to_file(tmp_path, "clt", doc)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("window", [["a", 1], [0, 40.0], [0, 40, 80]])
    def test_hopf_window_not_integers(self, tmp_path, window):
        doc = {"profile": POWER_PROFILE, "N": 4, "samples": 10, "window": window}
        code, _ = run_to_file(tmp_path, "hopf", doc)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("t_grid", [["a", 1], "ab", [0.5, float("inf")]])
    def test_scan_t_grid_not_numbers(self, tmp_path, t_grid):
        doc = {"profile": POWER_PROFILE, "t_grid": t_grid, "N": 4, "samples": 10}
        code, _ = run_to_file(tmp_path, "scan", doc)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("command, extra", [
        ("scan", {"t_grid": [2.0, 1.0], "N": 4, "samples": 10}),
        ("hopf", {"N": 0, "samples": 10}),
        ("hopf", {"N": 4, "samples": 10, "window_tol": 0.0}),
        ("clt", {"n": 1, "samples": 10}),
        ("decay", {"samples": 1}),
        ("stopping", {"r": -2.0, "eps": 0.1, "M": 5, "N": 5, "samples": 10}),
        ("asymptotics", {"n_min": 0}),
    ])
    def test_domain_error_exits_config(self, tmp_path, capsys, command, extra):
        code, _ = run_to_file(tmp_path, command, {"profile": POWER_PROFILE, **extra})
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("rtol", [0.0, -0.1, float("nan")])
    def test_bracket_rtol_out_of_domain(self, tmp_path, rtol):
        # rtol <= 0 used to bisect forever, so run it with a timeout
        cfg = write_config(tmp_path, {"profile": POWER_PROFILE, "rtol": rtol})
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "suspension_lab.cli", "bracket", "--config", cfg],
                capture_output=True, text=True, timeout=30,
            )
        except subprocess.TimeoutExpired:
            pytest.fail(f"bracket with rtol={rtol} did not finish")
        assert proc.returncode == EXIT_CONFIG
        assert "Traceback" not in proc.stderr

    def test_precondition_violation(self, tmp_path):
        code, _ = run_to_file(tmp_path, "asymptotics", {"profile": STEP_PROFILE})
        assert code == EXIT_PRECONDITION

    def test_clt_refusal_is_precondition(self, tmp_path):
        doc = {"profile": {"base": 1.0, "epsilon": {"kind": "power", "gamma": 1.0, "sign": -1}},
               "n": 100, "samples": 10}
        code, _ = run_to_file(tmp_path, "clt", doc)
        assert code == EXIT_PRECONDITION

    def test_coverage_error(self, tmp_path):
        doc = {"profile": POWER_PROFILE, "N": 16, "samples": 10, "window": [2, 10]}
        code, _ = run_to_file(tmp_path, "hopf", doc)
        assert code == EXIT_COVERAGE

    def test_anomaly_exit_code(self, tmp_path, monkeypatch):
        def fake_scan(profile, t_grid, N, samples, rng, window_tol=1e-4, anomaly_slack=2e-3):
            return ExperimentSummary(
                name="scan_intensity", parameters={}, rng=rng, runtime_s=0.0,
                statistics={"anomaly": True, "t_grid": list(t_grid),
                            "growth_exponents": [0.1, 0.5], "max_rise": 0.4,
                            "per_scale": [], "heuristic": True},
            )

        monkeypatch.setattr("suspension_lab.simulate.scan_intensity", fake_scan)
        doc = {"profile": POWER_PROFILE, "t_grid": [0.5, 2.0], "N": 8, "samples": 10}
        code, out = run_to_file(tmp_path, "scan", doc)
        assert code == EXIT_ANOMALY
        assert json.loads(out.read_text())["body"]["statistics"]["anomaly"] is True

    def test_csv_not_offered_for_classify(self, tmp_path):
        doc = {"profile": POWER_PROFILE}
        code, _ = run_to_file(tmp_path, "classify", doc, "--format", "csv")
        assert code == EXIT_CONFIG


class TestDeterminism:
    def test_bodies_byte_identical(self, tmp_path):
        doc = {"profile": POWER_PROFILE, "n": 300, "samples": 300, "rng": {"seed": 9}}
        _, out1 = run_to_file(tmp_path, "clt", doc, name="one.json")
        _, out2 = run_to_file(tmp_path, "clt", doc, name="two.json")
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        assert body_bytes(r1) == body_bytes(r2)
        assert r1["header"]["created_utc"] != "" and r2["header"]["created_utc"] != ""

    def test_seed_override_changes_body(self, tmp_path):
        doc = {"profile": POWER_PROFILE, "n": 300, "samples": 300, "rng": {"seed": 9}}
        _, out1 = run_to_file(tmp_path, "clt", doc, name="one.json")
        cfg = write_config(tmp_path, doc, "seeded.cfg")
        out3 = tmp_path / "three.json"
        assert cli.main(["clt", "--config", cfg, "--seed", "10", "--out", str(out3)]) == EXIT_OK
        r1 = json.loads(out1.read_text())
        r3 = json.loads(out3.read_text())
        assert body_bytes(r1) != body_bytes(r3)
        assert r3["header"]["rng"]["seed"] == 10

    def test_csv_bodies_identical(self, tmp_path):
        doc = {"profile": POWER_PROFILE, "n_min": 16, "n_max": 256}
        _, out1 = run_to_file(tmp_path, "asymptotics", doc, "--format", "csv", name="a.csv")
        _, out2 = run_to_file(tmp_path, "asymptotics", doc, "--format", "csv", name="b.csv")
        strip = lambda text: "\n".join(l for l in text.splitlines() if not l.startswith("#"))
        assert strip(out1.read_text()) == strip(out2.read_text())


class TestEntryPoint:
    def test_installed_script(self, tmp_path):
        cfg = write_config(tmp_path, {"skellam": {"a": 1.0, "b": 1.0}, "L": 3})
        proc = subprocess.run(
            [sys.executable, "-m", "suspension_lab.cli", "tails", "--config", cfg],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK
        report = json.loads(proc.stdout)
        assert report["body"]["L"] == 3
