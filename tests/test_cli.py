"""CLI surface: dispatch, validation, exit codes, report schema, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from suspension_lab import cli
from suspension_lab.cli import (
    EXIT_ANOMALY,
    EXIT_CONFIG,
    EXIT_COVERAGE,
    EXIT_OK,
    EXIT_PRECONDITION,
    body_bytes,
)
from suspension_lab.criteria import continuous_base_bound, nonsingularity_deficit
from suspension_lab.intensity import (
    CONDITION_IDS,
    ExplicitFamily,
    IntensityProfile,
    PowerFamily,
    check_condition,
    limit_gap,
)
from suspension_lab.simulate import ExperimentSummary

SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "docs" / "report-schema.json").read_text())

POWER_PROFILE = {"base": 1.0, "epsilon": {"kind": "power", "gamma": 0.5, "sign": -1}}
STEP_PROFILE = {"base": 1.0, "epsilon": {"kind": "step", "left": 0.0, "right": 0.693}}
#: an explicit eps table with no tail; tests add the tails they need
TWO_ENTRY_TABLE = {"kind": "explicit", "table": {"0": 0.3, "3": -0.2}}


def write_config(tmp_path: Path, doc: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def far_table(index: int) -> dict:
    """A profile whose explicit table holds one entry, at ``index``."""
    return {"base": 1.0, "epsilon": {"kind": "explicit", "table": {str(index): 0.1},
                                     "tail": {"kind": "power", "gamma": 0.5}}}


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

    @pytest.mark.parametrize("a, b, L", [pytest.param(1.0, 0.6, 10**400, id="L_1e400"),
                                         pytest.param(1e-300, 0.0, 10**30, id="a_1e-300_L_1e30")])
    def test_tails_far_L(self, tmp_path, a, b, L):
        # an L past what a float holds, or one that a tiny rate divided by
        # would round to 0, answers a tail and a bound of 0
        code, out = run_to_file(tmp_path, "tails", {"skellam": {"a": a, "b": b}, "L": L})
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        jsonschema.validate(report, SCHEMA)
        body = report["body"]
        assert (body["L"], body["exact"], body["bound"], body["exact_le_bound"]) == (L, 0.0, 0.0, True)

    @pytest.mark.parametrize("gamma", [0.01, 0.05])
    @pytest.mark.parametrize("command, fields", [pytest.param("asymptotics", {}, id="asymptotics"),
                                                 pytest.param("hopf", {"N": 8, "samples": 40}, id="hopf")])
    def test_slowest_power_tails_are_finite(self, tmp_path, command, fields, gamma):
        # the square-integral closure maps its tail by t = a / w^m, m = 1 / gamma
        # here before its cap; past the cap the weights would overflow to NaN
        doc = {"profile": {"base": 1.0, "epsilon": {"kind": "power", "gamma": gamma, "sign": -1}}, **fields}
        code, out = run_to_file(tmp_path, command, doc)
        assert code == EXIT_OK

        def refuse(name):
            raise ValueError(f"non-strict JSON constant {name}")

        jsonschema.validate(json.loads(out.read_text(), parse_constant=refuse), SCHEMA)

    @pytest.mark.parametrize("gamma", [64.0, 100.0, 1000.0])
    @pytest.mark.parametrize("command", ["classify", "asymptotics"])
    def test_steepest_power_tails_are_finite(self, tmp_path, command, gamma):
        # at the prefix start t = n + 2, gamma log(t / (t - n)) passes expm1's
        # range; those cells of the stable power difference take the plain one
        doc = {"profile": {"base": 1.0, "epsilon": {"kind": "power", "gamma": gamma, "sign": -1}}}
        code, out = run_to_file(tmp_path, command, doc)
        assert code == EXIT_OK
        jsonschema.validate(json.loads(out.read_text(), parse_constant=_strict), SCHEMA)

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

    def test_decay_skips_indices_without_a_deviation(self, tmp_path):
        # eps_1 = 0 for a power tail, so n = 1 has no row
        doc = {"profile": POWER_PROFILE, "samples": 200, "ns": [1, 10]}
        code, out = run_to_file(tmp_path, "decay", doc)
        assert code == EXIT_OK
        rows = json.loads(out.read_text())["body"]["statistics"]["rows"]
        assert [r["n"] for r in rows] == [10]

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

    def test_hopf_explicit_table_with_step_tail(self, tmp_path):
        # the shift support of a table with a step tail runs from the table's
        # first index, 0, to its last plus the shift, 3 + 8
        tail = {"kind": "step", "left": 0.0, "right": 0.4}
        doc = {"profile": {"base": 1.0, "epsilon": {**TWO_ENTRY_TABLE, "tail": tail}}, "N": 8, "samples": 40}
        code, out = run_to_file(tmp_path, "hopf", doc)
        assert code == EXIT_OK
        body = json.loads(out.read_text())["body"]
        assert body["parameters"]["window"] == body["statistics"]["window"] == [0, 12]

    def test_hopf_wide_window_override_used(self, tmp_path):
        doc = {"profile": POWER_PROFILE, "N": 16, "samples": 100, "window": [0, 5000]}
        code, out = run_to_file(tmp_path, "hopf", doc)
        assert code == EXIT_OK
        body = json.loads(out.read_text())["body"]
        assert body["statistics"]["window"] == [0, 5000]

    @pytest.mark.parametrize("a, b, lo, hi", [
        # mean 149: the terms at k = 3.. lie far below it and must not stop the walk
        (150.0, 1.0, 1.0 - 1e-12, 1.0),
        # at z = 800 the unscaled Bessel series factor of I_3 overflows
        (400.0, 400.0, 0.92, 0.94),
    ])
    def test_tails_near_one(self, tmp_path, a, b, lo, hi):
        code, out = run_to_file(tmp_path, "tails", {"skellam": {"a": a, "b": b}, "L": 3})
        assert code == EXIT_OK
        body = json.loads(out.read_text())["body"]
        assert lo < body["exact"] <= hi and body["exact_le_bound"] is True

    @pytest.mark.parametrize("table", [{"0": 0.4, "1": -0.2}, [[0, 0.4], [1, -0.2]], [[1, -0.2], [0, 0.4]]])
    def test_explicit_epsilon_matches_api(self, tmp_path, table):
        tail = {"kind": "power", "gamma": 0.4, "sign": -1}
        doc = {"profile": {"base": 1.5, "epsilon": {"kind": "explicit", "table": table, "tail": tail}}}
        code, out = run_to_file(tmp_path, "check", doc)
        assert code == EXIT_OK
        body = json.loads(out.read_text())["body"]
        profile = IntensityProfile(1.5, ExplicitFamily(((0, 0.4), (1, -0.2)), PowerFamily(0.4, -1)))
        assert body["profile"] == json.loads(json.dumps(cli._sanitize(profile)))
        assert body["conditions"] == {cid: json.loads(json.dumps(cli._sanitize(check_condition(profile, cid))))
                                      for cid in CONDITION_IDS}
        assert body["limit_gap"] == limit_gap(profile)
        assert body["nonsingularity_deficit"][0] == [100, nonsingularity_deficit(profile, 100)]

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
        ("stopping", {"r": -2.0, "eps": 0.1, "M": 10, "N": 100, "samples": 0}),
        ("classify", {"series_N": 0}),
        ("classify", {"series_N": -5}),
        # moment bounds and partial sums are linear-space floats
        ("hopf", {"profile": {"base": 500.0}, "N": 8, "samples": 20}),
        ("scan", {"profile": {"base": 500.0}, "t_grid": [0.5, 1.0], "N": 8, "samples": 20}),
        # sampler rate cap
        ("clt", {"profile": {"base": 200000.0}, "n": 10, "samples": 10}),
        # peak intensity beyond the float range
        ("check", {"profile": {"base": 1e308, "scale": 1e308}}),
        ("check", {"profile": {**STEP_PROFILE, "epsilon": {"kind": "step", "left": 0.0, "right": 1e308}}}),
        ("bracket", {"profile": {**STEP_PROFILE, "epsilon": {"kind": "step", "left": 0.0, "right": 1e308}}}),
        ("check", {"profile": {"base": 1e-300, "epsilon": {"kind": "step", "left": 0.0, "right": 1000.0}}}),
        # found by the config fuzz below
        ("hopf", {"profile": {"base": 0.01}, "N": 1, "samples": 1}),
        ("hopf", {"profile": {"base": 1e308}, "N": 6, "samples": 2, "window_tol": 0.002}),
        ("decay", {"profile": {"base": 1e308, "scale": 0.3}, "samples": 30}),
        ("asymptotics", {"profile": {"base": 1e307}}),
        ("classify", {"profile": {"base": 1.3e5, "epsilon": {
            "kind": "explicit", "table": [[0, -1.05]], "tail": {"kind": "zero"}}}, "series_N": 20}),
    ])
    def test_domain_error_exits_config(self, tmp_path, capsys, command, extra):
        code, _ = run_to_file(tmp_path, command, {"profile": POWER_PROFILE, **extra})
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("command, series", [("classify", "hellinger"), ("asymptotics", "square-integral")])
    def test_explicit_table_with_step_tail_has_no_series(self, tmp_path, capsys, command, series):
        tail = {"kind": "step", "left": 0.4, "right": 0.4}
        doc = {"profile": {"base": 1.0, "epsilon": {**TWO_ENTRY_TABLE, "tail": tail}}}
        code, out = run_to_file(tmp_path, command, doc)
        assert code == EXIT_CONFIG and not out.exists()
        assert capsys.readouterr().err == f"config error: {series} series for explicit profiles requires a zero or power tail\n"

    def test_bracket_refuses_a_singular_scale(self, tmp_path, capsys):
        # a finite table with no tail classifies not_nonsingular at every scale
        code, out = run_to_file(tmp_path, "bracket", {"profile": {"base": 1.0, "epsilon": TWO_ENTRY_TABLE}})
        assert code == EXIT_CONFIG and not out.exists()
        assert capsys.readouterr().err == "config error: bracket requires a nonsingular profile at every scale\n"

    def test_scan_refuses_a_later_scale(self, tmp_path, capsys):
        # the first scale fits its Hopf moment bounds, the second does not
        doc = {"profile": {"base": 1.0}, "t_grid": [1, 600], "N": 8, "samples": 20}
        code, out = run_to_file(tmp_path, "scan", doc)
        assert code == EXIT_CONFIG and not out.exists()
        assert capsys.readouterr().err == "config error: Hopf moment bounds overflow at level 600.0\n"

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

    @pytest.mark.parametrize("text", [
        '{"profile": {"base": 1.0}, "N": 4, "samples": 10, "window_tol": NaN}',
        '{"profile": {"base": Infinity}, "N": 4, "samples": 10}',
        '{"profile": {"base": 1.0}, "N": 4, "samples": 10, "beta": -Infinity}',
        '{"profile": {"base": 1e400}, "N": 4, "samples": 10}',
    ])
    def test_non_finite_numbers(self, tmp_path, capsys, text):
        path = tmp_path / "nonfinite.json"
        path.write_text(text)
        assert cli.main(["hopf", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("table", [{"x": 1}, [[1]], [["a", 1]], {"1": "z"}, {}, [[1.5, 0.1]],
                                       {"1": 0.1, "01": 0.2}, {"1": True}])
    def test_malformed_explicit_table(self, tmp_path, capsys, table):
        doc = {"profile": {"base": 1.0, "epsilon": {"kind": "explicit", "table": table}}}
        code, _ = run_to_file(tmp_path, "check", doc)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    def test_nested_explicit_tail(self, tmp_path):
        inner = {"kind": "explicit", "table": {"2": 0.1}}
        doc = {"profile": {"base": 1.0, "epsilon": {"kind": "explicit", "table": {"1": 0.1}, "tail": inner}}}
        code, _ = run_to_file(tmp_path, "check", doc)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("text", ["[1, 2]", '"abc"', "3", "null", "[" * 100_000],
                             ids=["list", "string", "number", "null", "deep"])
    def test_config_not_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "notobject.json"
        path.write_text(text)
        assert cli.main(["check", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    def test_config_not_utf8(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{")
        assert cli.main(["check", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("output", [{"path": 12345}, {"format": 7}, [], {"path": "x", "mode": "w"}])
    def test_malformed_output(self, tmp_path, output):
        doc = {"skellam": {"a": 1.0, "b": 1.0}, "L": 3, "output": output}
        cfg = write_config(tmp_path, doc)
        assert cli.main(["tails", "--config", cfg]) == EXIT_CONFIG

    def test_unwritable_output_path(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        doc = {"skellam": {"a": 1.0, "b": 1.0}, "L": 3, "output": {"path": str(missing / "a.json")}}
        cfg = write_config(tmp_path, doc)
        assert cli.main(["tails", "--config", cfg]) == EXIT_CONFIG
        assert cli.main(["tails", "--config", cfg, "--out", str(missing / "b.json")]) == EXIT_CONFIG
        assert cli.main(["tails", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err

    def test_tails_rates_beyond_the_walk(self, tmp_path):
        # the walk to the mean used to run forever at a = 1e300
        cfg = write_config(tmp_path, {"skellam": {"a": 1e300, "b": 1.0}, "L": 3})
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "suspension_lab.cli", "tails", "--config", cfg],
                capture_output=True, text=True, timeout=30,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("tails with a = 1e300 did not finish")
        assert proc.returncode == EXIT_CONFIG
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command, config", [
        pytest.param("classify", {"profile": far_table(1_000_000_000)}, id="classify-1000000000"),
        pytest.param("asymptotics", {"profile": far_table(-300_000_000)}, id="asymptotics--300000000"),
        pytest.param("hopf", {"profile": {"base": 1.0, "epsilon": {"kind": "step", "left": 0.0, "right": 0.5}},
                              "N": 100_000, "samples": 2}, id="hopf-theta"),
        pytest.param("hopf", {"profile": {"base": 1.0, "epsilon": {"kind": "zero"}}, "N": 300_000_000},
                     id="hopf-N"),
        pytest.param("stopping", {"profile": {"base": 1.0}, "r": -2.0, "eps": 0.1, "M": 10, "N": 20_000,
                                  "samples": 100_000}, id="stopping-block"),
        pytest.param("clt", {"profile": {"base": 1.0}, "n": 300, "samples": 20_000_000}, id="clt-block"),
        pytest.param("stopping", {"profile": {"base": 50_000.0}, "r": -2.0, "eps": 0.1, "M": 10, "N": 9_000,
                                  "samples": 1}, id="stopping-cdf-table"),
        pytest.param("hopf", {"profile": {"base": 100_000.0, "epsilon": {"kind": "zero"}}, "N": 8, "samples": 2,
                              "window": [0, 2_000]}, id="hopf-cdf-table"),
        pytest.param("asymptotics", {"profile": {"base": 1.0}, "n_max": 2**25}, id="asymptotics-n_max"),
        pytest.param("classify", {"profile": {"base": 1.0}, "series_N": 1_000_000_000}, id="classify-series_N"),
    ])
    def test_far_explicit_table_is_refused(self, tmp_path, command, config):
        # each would allocate beyond a 3 GiB address-space limit: series grids
        # of 7.45 and 2.24 GiB, a 74.5 GiB Hopf theta table, 2.24 GiB per array
        # over N, draw blocks of 6.10 and 14.8 GiB, CDF tables of 3.13 and
        # 1.53 GiB; series indices of 2^25 and 1e9, whose grids grow like 2n to 4n
        cfg = write_config(tmp_path, config)
        limit = 3 * 2**30
        proc = subprocess.run(
            [sys.executable, "-m", "suspension_lab.cli", command, "--config", cfg],
            capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.startswith("config error:")

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

    @pytest.mark.parametrize("fmt", ["xml", "csv"])
    def test_unusable_format_refused_before_the_run(self, tmp_path, capsys, monkeypatch, fmt):
        def never(**fields):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr("suspension_lab.simulate.stopping_time_experiment", never)
        doc = {"profile": POWER_PROFILE, "r": -2.0, "eps": 0.1, "output": {"format": fmt}}
        code, out = run_to_file(tmp_path, "stopping", doc)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()


#: Any JSON value, with small numbers only (sizes stay tiny) and the
#: non-finite floats json.dumps writes as NaN and Infinity tokens.
NOISE = st.recursive(
    st.booleans() | st.integers(-3, 12) | st.text(max_size=3)
    | st.sampled_from([-1.5, 0.0, 0.25, 3.0, 64.0, math.nan, math.inf, -math.inf]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def noisy(valid):
    """A valid value nine times in ten; otherwise any JSON value (wrong
    type, non-finite token, nesting)."""
    return st.integers(0, 9).flatmap(lambda i: NOISE if i == 0 else valid)


def document(required: dict, optional: Optional[dict] = None):
    """An object of the given fields, one in ten times with an unknown
    field, or one of another command."""
    fields = st.fixed_dictionaries({k: noisy(v) for k, v in required.items()},
                                   optional={k: noisy(v) for k, v in (optional or {}).items()})
    unknown = st.dictionaries(st.sampled_from(["bogus", "t_grid", "kind"]), NOISE, min_size=1, max_size=1)
    return st.integers(0, 9).flatmap(
        lambda i: st.builds(lambda d, u: {**d, **u}, fields, unknown) if i == 0 else fields)


TABLE = (st.dictionaries(st.integers(-4, 4).map(str), st.floats(-2, 2), max_size=3)
         | st.lists(st.tuples(st.integers(-4, 4), st.floats(-2, 2)).map(list), max_size=3))
EPSILON = st.deferred(lambda: st.one_of(
    document({"kind": st.just("zero")}),
    document({"kind": st.just("power"), "gamma": st.floats(0.05, 2)}, {"sign": st.sampled_from([-1, 1])}),
    document({"kind": st.just("step"), "left": st.floats(-3, 3), "right": st.floats(-3, 3) | st.just(1e308)}),
    document({"kind": st.just("explicit"), "table": TABLE}, {"tail": EPSILON}),
))
#: Bases up to the sampler's rate cap (1e5) and beyond.
BASES = st.floats(0.01, 10) | st.sampled_from([0.05, 8.0, 1e5, 2e5, 1e308])
PROFILE = document({"base": BASES}, {"scale": st.floats(0.25, 2), "epsilon": EPSILON})
FLOATS = st.floats(0.25, 4)
SIZES = st.integers(-1, 8)

#: command -> config document at tiny sizes; every size field is given,
#: since an absent one takes a full-size default.
CONFIGS = {
    "check": document({"profile": PROFILE}),
    "asymptotics": document({"profile": PROFILE}, {"n_min": st.integers(-1, 64),
                                                   "n_max": st.integers(0, 512)}),
    "classify": document({"profile": PROFILE}, {"series_N": st.integers(-2, 30)}),
    "bracket": document({"profile": PROFILE}, {"rtol": st.sampled_from([0.0, 1e-3, 0.5])}),
    "clt": document({"profile": PROFILE, "n": st.integers(1, 40), "samples": st.integers(1, 20)},
                    {"thresholds": st.lists(st.floats(-2, 12), max_size=3)}),
    "decay": document({"profile": PROFILE, "samples": st.integers(1, 30)},
                      {"ns": st.lists(st.integers(-1, 200), max_size=3), "mc_max": st.integers(0, 50)}),
    "stopping": document({"profile": PROFILE, "r": st.floats(-4, -0.5), "eps": st.floats(0.05, 2),
                          "M": st.integers(-1, 20), "N": st.integers(1, 60), "samples": st.integers(0, 20)}),
    "hopf": document({"profile": PROFILE, "N": SIZES, "samples": st.integers(0, 20)},
                     {"window_tol": st.floats(1e-4, 0.1), "beta": FLOATS,
                      "window": st.lists(st.integers(-30, 50), min_size=2, max_size=2)}),
    "scan": document({"profile": PROFILE, "t_grid": st.lists(FLOATS, max_size=3).map(sorted), "N": SIZES,
                      "samples": st.integers(0, 10)},
                     {"window_tol": st.floats(1e-4, 0.1), "anomaly_slack": st.floats(0, 0.1)}),
    "tails": document({"skellam": document({"a": st.floats(0, 50) | st.sampled_from([150.0, 400.0, 2e4, 1e300]),
                                            "b": st.floats(0, 50) | st.sampled_from([0.0, 400.0, 1e300])}),
                       "L": st.integers(-1, 40)}),
}


#: Bases log-uniform up to the sampler's rate cap (1e5), and window
#: tolerances down to 1e-12: windows, tables and draw blocks reach the
#: package's size caps, so these run in a child process under a memory limit.
HEAVY_PROFILE = document({"base": st.floats(-2, 5).map(lambda e: 10.0 ** e) | BASES},
                         {"scale": st.floats(0.25, 2), "epsilon": EPSILON})
WINDOW_TOLS = st.floats(-12, -1).map(lambda e: 10.0 ** e)
HEAVY_CONFIGS = {
    "clt": document({"profile": HEAVY_PROFILE, "n": st.integers(1, 40), "samples": st.integers(1, 20)}),
    "stopping": document({"profile": HEAVY_PROFILE, "r": st.floats(-4, -0.5), "eps": st.floats(0.05, 2),
                          "M": st.integers(-1, 20), "N": st.integers(1, 60), "samples": st.integers(0, 20)}),
    "hopf": document({"profile": HEAVY_PROFILE, "N": SIZES, "samples": st.integers(0, 20),
                      "window_tol": WINDOW_TOLS}, {"beta": FLOATS}),
    "scan": document({"profile": HEAVY_PROFILE, "t_grid": st.lists(FLOATS, max_size=3).map(sorted),
                      "N": SIZES, "samples": st.integers(0, 10), "window_tol": WINDOW_TOLS}),
}

#: Runs each [command, config] read from stdin through ``cli.main`` and
#: writes [exit code, stderr, report text or None] for each; an exception
#: out of ``main`` is exit 1 with its traceback.
FUZZ_CHILD = """
import contextlib, io, json, sys, tempfile, traceback
from pathlib import Path
from suspension_lab import cli
results = []
with tempfile.TemporaryDirectory() as work:
    cfg, out = Path(work) / "cfg.json", Path(work) / "out.json"
    for command, doc in json.load(sys.stdin):
        cfg.write_text(json.dumps(doc))
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main([command, "--config", str(cfg), "--out", str(out)])
            except BaseException:
                traceback.print_exc()
                code = 1
        results.append([code, err.getvalue(), out.read_text() if out.exists() else None])
json.dump(results, sys.stdout)
"""


def _strict(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _check_exit(code: int, err: str, text: Optional[str], case: str = "") -> None:
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_PRECONDITION, EXIT_COVERAGE, EXIT_ANOMALY), f"{case}: {err}"
    assert "Traceback" not in err, f"{case}: {err}"
    if code in (EXIT_OK, EXIT_ANOMALY):
        jsonschema.validate(json.loads(text, parse_constant=_strict), SCHEMA)
    else:
        assert err.split(":")[0] in ("config error", "precondition violation", "coverage error", "anomaly")


class TestConfigFuzz:
    @given(st.sampled_from(sorted(CONFIGS)).flatmap(lambda c: st.tuples(st.just(c), CONFIGS[c])))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_config_exits_with_a_documented_code(self, case):
        command, doc = case
        with tempfile.TemporaryDirectory() as work:
            cfg, out = Path(work) / "cfg.json", Path(work) / "out.json"
            cfg.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main([command, "--config", str(cfg), "--out", str(out)])
            _check_exit(code, err.getvalue(), out.read_text() if out.exists() else None)

    @given(st.lists(st.sampled_from(sorted(HEAVY_CONFIGS)).flatmap(
        lambda c: st.tuples(st.just(c), HEAVY_CONFIGS[c])), min_size=10, max_size=40))
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_heavy_configs_under_a_memory_limit(self, cases):
        limit = 3 * 2**30
        proc = subprocess.run(
            [sys.executable, "-c", FUZZ_CHILD], input=json.dumps(cases),
            capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 0, proc.stderr
        for (command, doc), (code, err, text) in zip(cases, json.loads(proc.stdout)):
            _check_exit(code, err, text, f"{command} {json.dumps(doc)}")


#: Small runs at seed 1 as (test id, command, config) and the sha256 of
#: their report bodies.  A drift in the draw protocol, the inversion or a
#: reduction fails here; only a deliberate body change, recorded in
#: CHANGES.md, may update a hash.
DEAD_COLUMNS = {"kind": "explicit", "table": {"3": 0.0, "4": -0.3, "6": 0.0, "300": 0.0, "301": 0.0},
                "tail": {"kind": "power", "gamma": 0.5, "sign": -1}}
TWO_ENTRIES = {"kind": "explicit", "table": {"0": 0.4, "1": -0.2}, "tail": {"kind": "power", "gamma": 0.4, "sign": -1}}
GOLDEN_BODIES = [
    ("hopf_power", "hopf", {"profile": {"base": 1.0}, "N": 8, "samples": 40},
     "fd7bac3c4b19ca950d48d939393a8aaf409cbbe3fe1bc1c7cae76286b9c381af"),
    ("hopf_step", "hopf",
     {"profile": {"base": 1.0, "epsilon": {"kind": "step", "left": 0.0, "right": 0.5}}, "N": 8, "samples": 40},
     "2bea45dd04590b150eb2eee592f0cb71d9d60e6fe43ef520b6fc4c69de083ede"),
    ("hopf_explicit_window", "hopf",
     {"profile": {"base": 1.0, "epsilon": TWO_ENTRIES}, "N": 8, "samples": 40, "window": [-50, 3000]},
     "4541b77b23159f7b1a58d33f75c049bb67d7fc95d3e139eeceda4903450408d7"),
    ("scan", "scan", {"profile": {"base": 1.0}, "t_grid": [0.5, 1.0, 2.0], "N": 8, "samples": 40},
     "559be79918046ea06ddbdd1941751182bca2de4b09612e9515fd9acc7933e4c7"),
    ("clt_power", "clt", {"profile": {"base": 1.0}, "n": 300, "samples": 40},
     "01a624e2b273f92b006647068da0058ed610c2b1183769fd9c29cca65947abf3"),
    ("clt_dead_columns", "clt", {"profile": {"base": 1.0, "epsilon": DEAD_COLUMNS}, "n": 600, "samples": 40},
     "64d343bfe843bf102af7a773ca56c2c8b80acce6d2dcf6f7275bf9ac5ebacad6"),
    ("decay", "decay", {"profile": {"base": 1.0}, "samples": 500, "ns": [10, 50, 100, 1000]},
     "1c78c2e27ce1f6ba571cb48c4cd6368f6e05201e9a23d287461fabbe9704f1a6"),
    ("stopping", "stopping",
     {"profile": {"base": 1.0}, "r": -2.0, "eps": 0.1, "M": 100, "N": 20_000, "samples": 40},
     "357fe8bff366fc39607919b125ccf01b5e2ba743dc01eb97c1dc6f2414d7a887"),
    # wide tables, past the comparison passes: x over three blocks and y at rate 200
    ("clt_base_200", "clt", {"profile": {"base": 200.0}, "n": 600, "samples": 40},
     "bb669a1bed9eb011295090437c93d6b5d6e14b7a3796fb0b822bf27d74f32b49"),
    # decay refuses bases above about 5 (no certified tail threshold), so a
    # stopping run draws the 8192-column blocks and the y row at base 200
    ("stopping_base_200", "stopping",
     {"profile": {"base": 200.0}, "r": -2.0, "eps": 0.1, "M": 100, "N": 20_000, "samples": 40},
     "61a4a293bb599550c4843f781d4b7fa822a07f2f42fc872b40bf328371ecbe0d"),
    # fewer sample rows (a chunk of 40) than table columns
    ("hopf_base_50", "hopf", {"profile": {"base": 50.0}, "N": 8, "samples": 40},
     "6fcf1927677045ab6e73812f131463956aecb885441683659839b22fcb91bf39"),
    # the analytic layer: condition verdicts, series units, fits, certificates and the bracket
    ("bracket", "bracket", {"profile": {"base": 1.0}},
     "701c74856e54cac82c0f15d87133944caa1e9e2a8d68df3b3a56c4f66904ebed"),
    ("classify_power_0.3", "classify",
     {"profile": {"base": 1.0, "epsilon": {"kind": "power", "gamma": 0.3, "sign": -1}}},
     "36fe6de9f873332d808b052cd792933587e81d9a2841ef8c5529e5480a834e74"),
    ("classify_power_0.75", "classify",
     {"profile": {"base": 1.0, "epsilon": {"kind": "power", "gamma": 0.75, "sign": -1}}},
     "441f140934dbaaff0591dd28649953dd57c89e6f070fcf9ea739328e31e54717"),
    ("classify_explicit", "classify", {"profile": {"base": 1.0, "epsilon": TWO_ENTRIES}},
     "a4653b300aa4a72f9c09ee75b41cf3b05e788acf260834ae89283c1684790f3b"),
    ("classify_step", "classify",
     {"profile": {"base": 1.0, "epsilon": {"kind": "step", "left": 0.0, "right": 0.5}}},
     "b53ff87ef00f70cb42098a7ac412cd3cdc45cb2b713c2588804ebc797f860ec7"),
    ("check", "check", {"profile": {"base": 1.0}},
     "032bd234c32109a4b23b2ae777118760472499765049860962ba6289ac85e94e"),
    ("asymptotics", "asymptotics", {"profile": {"base": 1.0}},
     "200795d8cdbdf26c960fa80778dc60109c6243554d22a3386b453440536eec8f"),
    ("tails", "tails", {"skellam": {"a": 1.0, "b": 0.6}, "L": 4},
     "23afa1f524f30a8bda0e37cbb98eb9d02c545166da1e771d1c95fff31c02056a"),
    # written forms no digest above reaches: disjoint limit sets, a body rng
    # on stream 2 and an explicit table without a tail
    ("check_step", "check",
     {"profile": {"base": 1.0, "epsilon": {"kind": "step", "left": 0.0, "right": 0.5}}},
     "ad7b6a36ab1297b27ed4730f9999ec54cbd32c1bad68fef0d510479b4b01e009"),
    ("clt_stream_2", "clt", {"profile": {"base": 1.0}, "n": 300, "samples": 40, "rng": {"stream": 2}},
     "39cf4d04967c97673fd9eeb6e3fcd2a43229427e2565217e5d3b7e7e750ade98"),
    ("classify_explicit_no_tail", "classify",
     {"profile": {"base": 1.0, "epsilon": {"kind": "explicit", "table": {"0": 0.4, "1": -0.2}}}},
     "cccff393ee769f50330b59de4c336e0a36fe8f11d13644faf4ceb5b00970e69e"),
    # blocks of 300 samples x 8192 columns span several row chunks of a draw block
    ("stopping_300", "stopping",
     {"profile": {"base": 1.0}, "r": -2.0, "eps": 0.1, "M": 100, "N": 20_000, "samples": 300},
     "dc22e96331d4f86a929e8ced8f06d1d2c2cb0aa1e85c9e2d9ddb3c74d2d42016"),
    ("stopping_300_base_200", "stopping",
     {"profile": {"base": 200.0}, "r": -2.0, "eps": 0.1, "M": 100, "N": 20_000, "samples": 300},
     "ff726f8b5940ba84c38b029fc48ebccf9148fe10e225a26be18f801873865b38"),
    # blocks of 600 samples x 256 columns at rate 200 span two row chunks
    ("clt_600_base_200", "clt", {"profile": {"base": 200.0}, "n": 600, "samples": 600},
     "7f65c20ca67c6e8fded6b14e2d40e8a868a6cc8897c624f087a6995db7801a1a"),
    # Hopf gemm chunks of 2^20 // (W + N) sample rows: two full chunks and
    # a partial one per scale (W = 2340, N = 64: 436 rows; 972 = 2 * 436 +
    # 100), each drawn in draw chunks of at most 2^17 cells (7 of 55 rows and
    # one of 51; 55 and 45 in the partial chunk), three scales of a zero-gap
    # family, so every scale reports its Markov event frequencies
    ("scan_chunks", "scan", {"profile": {"base": 1.0}, "t_grid": [0.25, 0.5, 1.0], "N": 64, "samples": 972},
     "03377b2cf85bd638805b755f66d70dbf282197ae6699fd6a295a6ceae5b2e7d1"),
    # the guide search over two full gemm chunks and a partial one (W = 2022,
    # N = 8: 516 rows; 1132 = 2 * 516 + 100), in draw chunks of 58 rows (the
    # last of a full chunk 52, those of the partial one 58 and 42)
    ("hopf_base_50_chunks", "hopf", {"profile": {"base": 50.0}, "N": 8, "samples": 1132},
     "0236f7618b9593cfeaabae316d56604290e93f5c5ffc95e3c7cf9cb0e02a828e"),
]

#: Runs (name, command, config) documents from stdin at seed 1 in one
#: interpreter and prints the sha256 of each body by name.
GOLDEN_CHILD = """
import hashlib, json, sys, tempfile
from pathlib import Path
from suspension_lab import cli
digests = {}
with tempfile.TemporaryDirectory() as work:
    cfg, out = Path(work) / "cfg.json", Path(work) / "out.json"
    for name, command, doc in json.load(sys.stdin):
        cfg.write_text(json.dumps(doc))
        cli.main([command, "--config", str(cfg), "--out", str(out), "--seed", "1"])
        digests[name] = hashlib.sha256(cli.body_bytes(json.loads(out.read_text()))).hexdigest()
print(json.dumps(digests))
"""

#: ``continuous_base_bound`` inputs, which no command reaches, and the sha256
#: of their written form.
CONTINUOUS_BASE_FORMS = [
    ([[1.0, 1.0], [1.5, 0.5], [2.0, 2.0]], 50,
     "5ce76ff236eaa206151a979c6ab4832999729bec724cc017b7d89f36a290fc05"),
    ([[1.0, 2.0], [3.0, 0.5], [2.0, 1.0]], 10,
     "a3c3fffd8bda6a801d9bb729dcc0f244df0e19bd1e85e2f4a84ea6b28ef02dd7"),
]


class TestDeterminism:
    @pytest.mark.parametrize("command, doc, digest",
                             [pytest.param(*case, id=name) for name, *case in GOLDEN_BODIES])
    def test_golden_body_hashes(self, tmp_path, command, doc, digest):
        code, out = run_to_file(tmp_path, command, doc, "--seed", "1")
        assert code in (EXIT_OK, EXIT_ANOMALY)
        assert hashlib.sha256(body_bytes(json.loads(out.read_text()))).hexdigest() == digest

    # Only the bodies of the Hopf ``counts @ theta`` gemm may hang on the BLAS
    # kernel and thread count; hopf_step's theta entries are 0 and -0.5, so
    # its products are exact in any order.  How long idle workers spin
    # (OpenBLAS's default is 2^28 cycles) keeps the threads and moves nothing.
    HOPF_GEMM = {"hopf_power", "hopf_explicit_window", "hopf_base_50", "hopf_base_50_chunks", "scan", "scan_chunks"}

    @pytest.mark.parametrize("setting, exempt", [
        pytest.param({"OPENBLAS_NUM_THREADS": "1"}, HOPF_GEMM, id="one_blas_thread"),
        pytest.param({"OPENBLAS_CORETYPE": "Sandybridge"}, HOPF_GEMM, id="sandybridge_kernel"),
        pytest.param({"OPENBLAS_THREAD_TIMEOUT": "28"}, set(), id="spinning_blas_workers"),
    ])
    def test_golden_bodies_across_blas_settings(self, setting, exempt):
        cases = [(name, command, doc) for name, command, doc, _ in GOLDEN_BODIES]
        assert exempt <= {name for name, *_ in cases}
        proc = subprocess.run([sys.executable, "-c", GOLDEN_CHILD], input=json.dumps(cases),
                              env={**os.environ, **setting}, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert [name for name, *_, digest in GOLDEN_BODIES if name not in exempt and got[name] != digest] == []

    def test_header_rng_stream(self, tmp_path):
        doc = {"profile": {"base": 1.0}, "n": 300, "samples": 40, "rng": {"stream": 2}}
        _, out = run_to_file(tmp_path, "clt", doc, "--seed", "1")
        report = json.loads(out.read_text())
        assert report["header"]["rng"] == report["body"]["rng"] == {"seed": 1, "stream": 2}

    @pytest.mark.parametrize("densities, N, digest", CONTINUOUS_BASE_FORMS, ids=["gap_1", "gap_0"])
    def test_continuous_base_written_form(self, densities, N, digest):
        written = json.dumps(cli._sanitize(continuous_base_bound(densities, N)),
                             sort_keys=True, separators=(",", ":"), allow_nan=False)
        assert hashlib.sha256(written.encode()).hexdigest() == digest

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


#: Imports the package before numpy, runs one 512 x 512 gemm, and prints the
#: CPU seconds the process burns across a 0.25 s sleep and the OpenBLAS
#: worker timeout it runs with.
IDLE_CHILD = """
import json, os, time
import suspension_lab
import numpy as np
a = np.random.default_rng(0).random((512, 512))
a @ a
start = time.process_time()
time.sleep(0.25)
print(json.dumps([time.process_time() - start, os.environ.get("OPENBLAS_THREAD_TIMEOUT")]))
"""


def _numpy_blas() -> str:
    import numpy as np
    return np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]


@pytest.mark.skipif((os.cpu_count() or 1) < 2 or "openblas" not in _numpy_blas().lower(),
                    reason="idle workers spin only in a multi-threaded OpenBLAS")
class TestIdleBlasWorkers:
    def _child(self, **preset):
        # this process imported the package, which set the timeout for its children too
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
        proc = subprocess.run([sys.executable, "-c", IDLE_CHILD], env={**env, **preset},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_workers_sleep_after_a_gemm(self):
        burnt, timeout = self._child()
        assert burnt < 0.025
        assert timeout == "4"

    def test_preset_timeout_is_kept(self):
        _, timeout = self._child(OPENBLAS_THREAD_TIMEOUT="28")
        assert timeout == "28"


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

    def test_numpy_is_the_only_runtime_dependency(self):
        # tails and decay, whose oracles are mpmath and scipy here, run
        # without importing any test-only package
        child = """
import json, sys, tempfile
from pathlib import Path
from suspension_lab import cli
runs = [("tails", {"skellam": {"a": 1e3, "b": 900.0}, "L": 180}),
        ("decay", {"profile": {"base": 1.0}, "samples": 50, "ns": [10, 100, 1000]})]
with tempfile.TemporaryDirectory() as work:
    cfg = Path(work) / "cfg.json"
    codes = []
    for command, doc in runs:
        cfg.write_text(json.dumps(doc))
        codes.append(cli.main([command, "--config", str(cfg), "--out", str(Path(work) / "out.json")]))
test_only = {"scipy", "mpmath", "jsonschema", "hypothesis"}
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] in test_only)]))
"""
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[EXIT_OK, EXIT_OK], []]
