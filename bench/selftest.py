"""Self-test of the benchmark.  Run from the repository root:

    python3 bench/selftest.py

Checks that every workload runs at a tiny size with and without tracing and
prints each metric of ``BENCHMARK.json`` with its unit, that the traced
count invariants hold, that the gate refuses corrupted reports, and that
the benchmark refuses to run in a directory that holds only itself.
Exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

from gate import Gate
from run import BENCH, OUT, ROOT, WORKLOADS, Op, child_env

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
                           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_workloads() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label} exits 0 ({proc.stderr.strip()[-300:]})")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            detail = json.loads("\n".join(lines[:-1]))
            expect(set(result) == RESULT_KEYS, f"{label} result has exactly {sorted(RESULT_KEYS)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label} correct with no failed ops ({detail['failures']})")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted[trace], f"{label} prints every metric with its unit")
            expect(not detail.get("invariant_problems"), f"{label} count invariants hold")
            if trace and workload != "analytic":
                layers = detail["per_round_layers"][0]
                expect(layers["sampling.uniforms"] == layers["sampling.invert.draws"] > 0,
                       f"{label} uniforms equal invert draws")
            if workload == "analytic":
                statuses = [k["status"] for k in detail["known_defects"]]
                expect(statuses and all(s in ("reproduced", "fixed") for s in statuses),
                       f"{label} known defects reported ({statuses})")


def cli_report(op: Op, work: Path) -> dict:
    cfg, out = work / f"{op.name}.json", work / f"{op.name}.out.json"
    cfg.write_text(json.dumps(op.config))
    subprocess.run([sys.executable, "-m", "suspension_lab.cli", op.command, "--config", str(cfg),
                    "--seed", "3", "--out", str(out)], env=child_env(), check=True, timeout=120)
    return json.loads(out.read_text())


def check_gate() -> None:
    work = OUT / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    gate = Gate(ROOT / "docs" / "report-schema.json", BENCH / "reference.json")
    profile = {"base": 1.0}
    scan = Op("scan", "scan", {"profile": profile, "t_grid": [0.5, 1.0, 2.0], "N": 8,
                               "samples": 50}, exits=(0, 5))
    stopping = Op("stopping", "stopping", {"profile": profile, "r": -2.0, "eps": 0.1,
                                           "M": 100, "N": 2_000, "samples": 50})
    clt = Op("clt", "clt", {"profile": {"base": 200.0}, "n": 200, "samples": 100})
    classify = Op("classify_step", "classify",
                  {"profile": {"base": 1.0, "epsilon": {"kind": "step", "left": 0.0, "right": 0.5}}})
    reports = {op.name: cli_report(op, work) for op in (scan, stopping, clt, classify)}
    ops = {op.name: op for op in (scan, stopping, clt, classify)}

    def problems(name: str, report: dict, code: int = 0, op: Op | None = None) -> list[str]:
        return gate.check(op or ops[name], code, json.dumps(report))[0]

    for name, report in reports.items():
        expect(problems(name, report) == [], f"gate passes a valid {name} report")

    def corrupt(name: str, edit) -> dict:
        report = copy.deepcopy(reports[name])
        edit(report)
        return report

    stats = lambda r: r["body"]["statistics"]  # noqa: E731
    cases = [
        ("scan", lambda r: stats(r).update(heuristic=False), "scan heuristic flag flipped"),
        ("scan", lambda r: stats(r)["per_scale"][1].pop("heuristic"), "scan per_scale heuristic dropped"),
        ("stopping", lambda r: stats(r).update(overshoot_le_last_step=False), "stopping overshoot flag false"),
        ("clt", lambda r: stats(r)["snapshots"][-1].update(exact_variance=1e6), "clt variance off by far more than 5 se"),
        ("classify_step", lambda r: r["body"].update(verdict="conservative"), "classify verdict changed"),
        ("classify_step", lambda r: r["header"].update(extra=1), "header with a field the schema forbids"),
        ("classify_step", lambda r: r["header"].update(schema_version="1"), "header with a wrong schema_version"),
    ]
    for name, edit, what in cases:
        expect(problems(name, corrupt(name, edit)) != [], f"gate catches: {what}")

    text = json.dumps(reports["scan"]).replace('"growth_exponent": ', '"growth_exponent": NaN, "x": ', 1)
    expect(gate.check(scan, 0, text)[0] != [], "gate catches: NaN in a scan report")
    expect(gate.check(scan, 0, text.replace("NaN", "1e999"))[0] != [], "gate catches: overflowing number")
    expect(gate.check(scan, 0, None)[0] != [], "gate catches: missing report")
    expect(problems("scan", reports["scan"], code=5) == [], "gate allows exit 5 for scan")
    expect(problems("stopping", reports["stopping"], code=5) != [], "gate refuses exit 5 for stopping")
    expect(problems("classify_step", reports["classify_step"], code=1) != [], "gate refuses exit 1")

    reference = json.loads((BENCH / "reference.json").read_text())["bracket"]
    bracket = Op("bracket", "bracket", {"profile": profile})
    report = copy.deepcopy(reports["classify_step"])
    report["header"]["command"] = "bracket"
    report["body"] = {"t_lower": reference["t_lower"], "t_upper": reference["t_upper"],
                      "lower_report": {"verdict": reference["lower_verdict"]},
                      "upper_report": {"verdict": reference["upper_verdict"]}}
    expect(problems("", report, op=bracket) == [], "gate passes the reference bracket")
    report["body"]["t_upper"] *= 1.0 + 1e-12
    expect(problems("", report, op=bracket) == [], "gate passes a bracket endpoint 1e-12 off")
    report["body"]["t_upper"] *= 1.0 + 1e-8
    expect(problems("", report, op=bracket) != [], "gate catches: bracket endpoint 1e-8 off")
    shutil.rmtree(work)


def check_bare_directory() -> None:
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("stopping", 0, cwd=bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "benchmark refuses to run without the program")
    shutil.rmtree(bare)


if __name__ == "__main__":
    check_gate()
    check_bare_directory()
    check_workloads()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)
