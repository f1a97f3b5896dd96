"""Benchmark of the suspension-lab command line, one workload per run.

Run from the repository root:

    python3 bench/run.py --workload stopping --seed 1 --seconds 20 --trace 0

A workload is a fixed list of CLI commands; one pass over the list is a
round.  Rounds run as a single-client closed loop, one command at a time,
until ``--seconds`` have passed (at least one round).

``--trace 0`` runs every command in a fresh interpreter, as a user pays it,
and reports the end-to-end metrics: ``wall_s`` and ``cpu_s`` (median round,
interpreter start included; CPU is user plus system time from ``wait4``),
``peak_rss_mb`` (largest ``ru_maxrss`` of any command) and ``setup_s``
(median wall time of fresh-interpreter ``import suspension_lab.cli``).

``--trace 1`` runs the same rounds in this process.  Each command runs once
plain and once with the layer bindings wrapped (``tracing.py``); the
per-layer metrics are medians over rounds of the traced runs, and
``trace.overhead_s`` is the traced minus the plain wall time of a round.

Every report passes the correctness gate (``gate.py``); ``failed`` counts
the commands that do not.  Known defects are reproduced once per run, apart
from the rounds, and reported in the detail object, which is printed before
the result line and written with the spans to ``.bench_out/``.  The last
line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from gate import Gate

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKERS_ENV = "SUSPENSION_LAB_WORKERS"
SETUP_IMPORTS_PER_ROUND = 3


@dataclass(frozen=True)
class Op:
    name: str
    command: str
    config: dict
    exits: tuple = (0,)


PROFILE = {"base": 1.0}  # the default family: eps_n = -n^(-1/2)
# The sampler's CDF tables underflow at rates of about 745 and above; a
# base of 200 keeps every clt rate below that limit.
CLT_BASE = 200.0
SCAN_T_GRID = [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0]
MC_COMMANDS = ("stopping", "clt", "scan")


def _classify(name: str, epsilon: dict) -> Op:
    return Op(name, "classify", {"profile": {"base": 1.0, "epsilon": epsilon}})


WORKLOADS = {
    "stopping": [Op("stopping", "stopping", {"profile": PROFILE, "r": -2.0, "eps": 0.1,
                                             "M": 10_000, "N": 100_000, "samples": 1_000})],
    "clt_hirate": [Op("clt", "clt", {"profile": {"base": CLT_BASE}, "n": 10_000, "samples": 2_000})],
    "scan": [Op("scan", "scan", {"profile": PROFILE, "t_grid": SCAN_T_GRID, "N": 64,
                                 "samples": 1_000}, exits=(0, 5))],
    "analytic": [
        Op("bracket", "bracket", {"profile": PROFILE}),
        _classify("classify_power_0.3", {"kind": "power", "gamma": 0.3, "sign": -1}),
        _classify("classify_power_0.75", {"kind": "power", "gamma": 0.75, "sign": -1}),
        _classify("classify_explicit", {"kind": "explicit", "table": {"0": 0.4, "1": -0.2},
                                        "tail": {"kind": "power", "gamma": 0.4, "sign": -1}}),
        _classify("classify_step", {"kind": "step", "left": 0.0, "right": 0.5}),
        Op("check", "check", {"profile": PROFILE}),
        Op("asymptotics", "asymptotics", {"profile": PROFILE}),
        Op("tails", "tails", {"skellam": {"a": 1.0, "b": 0.6}, "L": 4}),
    ],
}

#: Reproducers of known defects: (op, text its failure prints on stderr).
#: They run once per run, apart from the rounds, and never count as failed.
KNOWN_DEFECTS = {
    "analytic": [(Op("tails_overflow", "tails", {"skellam": {"a": 27.0, "b": 27.0}, "L": 20}),
                  "OverflowError")],
}

#: Config overrides for ``--size tiny``; None drops the op.
TINY = {
    "stopping": {"M": 100, "N": 2_000, "samples": 50},
    "clt": {"n": 200, "samples": 100},
    "scan": {"t_grid": [0.5, 1.0, 2.0], "N": 8, "samples": 50},
    "bracket": None,
    "classify_power_0.75": None,
}


def workload_ops(workload: str, tiny: bool) -> list[Op]:
    ops = WORKLOADS[workload]
    if not tiny:
        return ops
    return [replace(op, config={**op.config, **TINY[op.name]}) if TINY.get(op.name) else op
            for op in ops if op.name not in TINY or TINY[op.name] is not None]


def count_invariants(ops: list[Op], layers: dict) -> list[str]:
    """Broken draw-protocol invariants of one traced round.  Every uniform
    feeds one inversion; a clt op draws 2 * samples * #{live j <= n}, and
    the default family is nonzero at every j >= 2, so all n - 1 live."""
    uniforms, draws = layers["sampling.uniforms"], layers["sampling.invert.draws"]
    problems = []
    if any(op.command in MC_COMMANDS for op in ops) and uniforms != draws:
        problems.append(f"uniforms {uniforms} != invert draws {draws}")
    if all(op.command == "clt" for op in ops):
        expected = sum(2 * op.config["samples"] * (op.config["n"] - 1) for op in ops)
        if uniforms != expected:
            problems.append(f"uniforms {uniforms} != 2 * samples * (n - 1) = {expected}")
    return problems


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def write_config(op: Op, work: Path) -> Path:
    path = work / f"{op.name}.config.json"
    path.write_text(json.dumps({"command": op.command, **op.config}))
    return path


def run_child(argv: list[str], err_path: Path):
    """Run a fresh interpreter; returns (exit code, wall s, cpu s, max rss MB)."""
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL,
                                stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def op_argv(op: Op, seed: int, work: Path) -> tuple[list[str], Path]:
    out = work / f"{op.name}.report.json"
    out.unlink(missing_ok=True)
    return [op.command, "--config", str(write_config(op, work)), "--seed", str(seed),
            "--out", str(out)], out


def read_report(path: Path) -> str | None:
    return path.read_text() if path.exists() else None


def time_import(work: Path) -> float:
    """Wall time of a fresh interpreter that imports the CLI module."""
    code, wall, _, _ = run_child(["-c", "import suspension_lab.cli"], work / "setup.err")
    if code != 0:
        raise SystemExit(f"import suspension_lab.cli failed: {(work / 'setup.err').read_text()}")
    return wall


def op_record(op: Op, seed: int, code: int, text: str | None, gate: Gate, **measured) -> dict:
    problems, digest = gate.check(op, code, text)
    return {"op": op.name, "seed": seed, "exit": code, **measured,
            "problems": problems, "body_sha256": digest}


def run_rounds(ops: list[Op], seconds: float, seed: int, run_round) -> list:
    """Rounds until the next one, at the median round time so far, would
    end after ``seconds``; at least one.  Op seeds derive from ``seed``."""
    rng = random.Random(f"suspension-lab bench {seed}")
    rounds, durations = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + statistics.median(durations) <= seconds:
        seeds = [rng.randrange(2**32) for _ in ops]
        round_start = time.perf_counter()
        rounds.append(run_round(list(zip(ops, seeds))))
        durations.append(time.perf_counter() - round_start)
    return rounds


def reproduce_known_defects(workload: str, work: Path) -> list[dict]:
    out = []
    for op, signature in KNOWN_DEFECTS.get(workload, []):
        argv, _ = op_argv(op, 0, work)
        err = work / f"{op.name}.err"
        code, _, _, _ = run_child(["-m", "suspension_lab.cli", *argv], err)
        stderr = err.read_text()
        if code == 0:
            status = "fixed"
        elif signature in stderr:
            status = "reproduced"
        else:
            status = "changed"
        out.append({"op": op.name, "command": op.command, "config": op.config, "exit": code,
                    "status": status, "stderr_tail": stderr.strip().splitlines()[-1:]})
    return out


def untraced(ops: list[Op], args, gate: Gate, work: Path) -> tuple[dict, list[dict], dict]:
    time_import(work)  # writes the bytecode caches; not timed
    setup: list[float] = []

    def run_round(pairs):
        # imports are spread over the rounds, so setup_s sees the whole run
        setup.extend(time_import(work) for _ in range(SETUP_IMPORTS_PER_ROUND))
        records = []
        for op, seed in pairs:
            argv, report = op_argv(op, seed, work)
            code, wall, cpu, rss = run_child(["-m", "suspension_lab.cli", *argv],
                                             work / f"{op.name}.err")
            records.append(op_record(op, seed, code, read_report(report), gate,
                                     wall_s=wall, cpu_s=cpu, rss_mb=rss))
        return records

    rounds = run_rounds(ops, args.seconds, args.seed, run_round)
    walls = [sum(r["wall_s"] for r in rnd) for rnd in rounds]
    cpus = [sum(r["cpu_s"] for r in rnd) for rnd in rounds]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for rnd in rounds for r in rnd), "MB"),
    }
    detail = {"round_wall_s": walls, "round_cpu_s": cpus, "setup_imports_s": setup}
    return metrics, rounds, detail


def traced(ops: list[Op], args, gate: Gate, work: Path) -> tuple[dict, list[dict], dict]:
    sys.path.insert(0, str(ROOT / "src"))
    import suspension_lab
    import suspension_lab.cli as cli
    from tracing import Tracer

    tracer = Tracer(suspension_lab)
    per_round: list[dict] = []
    invariant_problems: list[str] = []

    def run_in_process(op: Op, seed: int):
        argv, report = op_argv(op, seed, work)
        tracer.clear_caches()
        start = time.perf_counter()
        try:
            code, error = cli.main(argv), None
        except Exception as exc:  # exit 1 in a fresh interpreter
            code, error = 1, repr(exc)
        return code, time.perf_counter() - start, read_report(report), error

    def run_round(pairs):
        records = []
        plain_wall = traced_wall = 0.0
        first_span = len(tracer.spans)
        tracer.reset_counts()
        for i, (op, seed) in enumerate(pairs):
            order = (False, True) if (len(per_round) + i) % 2 == 0 else (True, False)
            for trace_on in order:
                if trace_on:
                    with tracer.recording():
                        code, wall, text, error = run_in_process(op, seed)
                    traced_wall += wall
                else:
                    code, wall, text, error = run_in_process(op, seed)
                    plain_wall += wall
                records.append(op_record(op, seed, code, text, gate, wall_s=wall,
                                         traced=trace_on, error=error))
        layers = tracer.layer_metrics(first_span)
        layers["trace.overhead_s"] = traced_wall - plain_wall
        layers["cdf_table_max_bytes"] = 8 * tracer.count_max["sampling.cdf_tables.cells"]
        per_round.append(layers)
        invariant_problems.extend(f"round {len(per_round)}: {problem}"
                                  for problem in count_invariants([op for op, _ in pairs], layers))
        return records

    rounds = run_rounds(ops, args.seconds, args.seed, run_round)
    metrics = {name: (statistics.median(r[name] for r in per_round), unit)
               for name, unit in per_layer_units().items()}
    (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(tracer.dump()))
    detail = {"per_round_layers": per_round, "invariant_problems": invariant_problems,
              "wrapped_bindings": [f"{mod}.{attr}" for _, mod, attr in tracer.bindings],
              "cdf_table_max_bytes": max(r["cdf_table_max_bytes"] for r in per_round)}
    return metrics, rounds, detail


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def environment() -> dict:
    import numpy

    def getconf(name: str) -> int | None:
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, check=True).stdout
            return int(out.strip())
        except (OSError, subprocess.CalledProcessError, ValueError):
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(numpy),
        WORKERS_ENV: os.environ[WORKERS_ENV],
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
    }


def blas_threads(numpy) -> int | str:
    """OpenBLAS's thread count, asked of the library numpy loaded; falls
    back to the environment variables that set it."""
    import ctypes
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        # numpy 2 wheels prefix OpenBLAS symbols with scipy_, numpy 1 wheels do not
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every op, for the self-test")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/suspension_lab/cli.py", "docs/report-schema.json", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"run from the repository root; missing {missing}", file=sys.stderr)
        return 2
    os.environ[WORKERS_ENV] = "1"
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    gate = Gate(ROOT / "docs" / "report-schema.json", BENCH / "reference.json")
    ops = workload_ops(args.workload, args.size == "tiny")

    measure = traced if args.trace else untraced
    metrics, rounds, detail = measure(ops, args, gate, work)
    records = [r for rnd in rounds for r in rnd]
    failed = [r for r in records if r["problems"]]
    known = reproduce_known_defects(args.workload, work)
    for path in work.iterdir():
        path.unlink()
    work.rmdir()

    correct = not failed and not detail.get("invariant_problems")
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size,
        "rounds": len(rounds), "ops_attempted": len(records),
        "ops_failed": {"gate": len(failed), "known_defects": sum(k["status"] != "fixed" for k in known)},
        "failures": failed, "known_defects": known, "ops": records, "environment": environment(),
    })
    detail_text = json.dumps(detail, indent=1)
    (OUT / f"detail-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(detail_text)
    print(detail_text)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
