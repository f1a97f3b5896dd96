"""Command-line surface: configuration parsing, dispatch, report writing.

Usage: suspension-lab <command> --config FILE [--seed S] [--out PATH]
                       [--format json|csv]

Reports are a header plus a body.  The header carries the tool version,
schema version, UTC timestamp, runtime, the full config echo, and the rng
spec; the body holds only deterministic content, so two runs of the same
config and seed produce byte-identical bodies.  CSV output is offered for
the per-n / per-t series commands (asymptotics, scan); everything else is
JSON.

Exit codes are fixed: 0 success, 2 configuration or parameter-domain
error, 3 precondition violation, 4 window-coverage error, 5 anomaly
(non-monotone scan), 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from datetime import datetime, timezone
from typing import Any, Optional

import numpy as np

from . import __version__, criteria, simulate
from .criteria import GapNotZeroError, MonotonicityError, PreconditionError
from .dist import ParameterDomainError, SkellamLaw, skellam_tail
from .intensity import (
    DEFAULT_EPSILON,
    ExplicitFamily,
    IntensityProfile,
    PowerFamily,
    ProfileError,
    StepFamily,
    ZeroFamily,
    CONDITION_IDS,
    check_condition,
    limit_gap,
    limit_sets,
)
from .numerics import geometric_grid
from .sampling import RNGSpec
from .simulate import WindowCoverageError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_COVERAGE = 4
EXIT_ANOMALY = 5

COMMANDS = ("check", "asymptotics", "classify", "bracket", "clt",
            "decay", "stopping", "hopf", "scan", "tails")

#: Commands whose body is a flat series suitable for CSV.
CSV_COMMANDS = ("asymptotics", "scan")


class ConfigError(ValueError):
    """Malformed run configuration (unknown key, bad type, bad value)."""


def _expect_mapping(doc: Any, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {type(doc).__name__}")
    return doc


def _check_keys(doc: dict, allowed: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) in {where}: {sorted(unknown)}")


def _get(doc: dict, key: str, kind, where: str, default=None, required: bool = False):
    if key not in doc or doc[key] is None:
        if required:
            raise ConfigError(f"missing required field '{key}' in {where}")
        return default
    val = doc[key]
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, kind) or isinstance(val, bool) and kind is not bool:
        raise ConfigError(f"field '{key}' in {where} must be {kind}, got {type(val).__name__}")
    return val


def _finite_numbers(val: Any, what: str) -> list:
    """``val`` itself, once it is checked to be a list of finite numbers."""
    if not (isinstance(val, list) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
            for v in val)):
        raise ConfigError(f"{what} must be a list of finite numbers")
    return val


def parse_epsilon(doc: Any) -> ZeroFamily | PowerFamily | StepFamily | ExplicitFamily:
    doc = _expect_mapping(doc, "epsilon")
    kind = _get(doc, "kind", str, "epsilon", required=True)
    if kind == "zero":
        _check_keys(doc, {"kind"}, "epsilon")
        return ZeroFamily()
    if kind == "power":
        _check_keys(doc, {"kind", "gamma", "sign"}, "epsilon")
        return PowerFamily(gamma=_get(doc, "gamma", float, "epsilon", required=True),
                           sign=int(_get(doc, "sign", int, "epsilon", default=-1)))
    if kind == "step":
        _check_keys(doc, {"kind", "left", "right"}, "epsilon")
        return StepFamily(left=_get(doc, "left", float, "epsilon", required=True),
                          right=_get(doc, "right", float, "epsilon", required=True))
    if kind == "explicit":
        _check_keys(doc, {"kind", "table", "tail"}, "epsilon")
        table_doc = doc.get("table")
        if isinstance(table_doc, dict):
            pairs = [(int(k), float(v)) for k, v in table_doc.items()]
        elif isinstance(table_doc, list):
            pairs = [(int(n), float(e)) for n, e in table_doc]
        else:
            raise ConfigError("explicit epsilon needs a 'table' mapping or pair list")
        tail = parse_epsilon(doc["tail"]) if doc.get("tail") is not None else None
        if isinstance(tail, ExplicitFamily):
            raise ConfigError("explicit tail families cannot nest")
        return ExplicitFamily(tuple(sorted(pairs)), tail)
    raise ConfigError(f"unknown epsilon kind {kind!r}")


def parse_profile(doc: Any) -> IntensityProfile:
    """Profile from its config document; omitting "epsilon" selects the
    default square-root-decay family."""
    doc = _expect_mapping(doc, "profile")
    _check_keys(doc, {"base", "scale", "epsilon"}, "profile")
    base = _get(doc, "base", float, "profile", required=True)
    scale = _get(doc, "scale", float, "profile", default=1.0)
    eps = parse_epsilon(doc["epsilon"]) if "epsilon" in doc else DEFAULT_EPSILON
    return IntensityProfile(base=base, epsilon=eps, scale=scale)


def parse_rng(doc: Any, seed_override: Optional[int]) -> RNGSpec:
    if doc is None:
        doc = {}
    doc = _expect_mapping(doc, "rng")
    _check_keys(doc, {"seed", "stream"}, "rng")
    seed = _get(doc, "seed", int, "rng", default=0)
    stream = _get(doc, "stream", int, "rng", default=0)
    if seed_override is not None:
        seed = seed_override
    try:
        return RNGSpec(seed=seed, stream=stream)
    except ValueError as exc:
        raise ConfigError(f"rng: {exc}") from exc


_COMMON_KEYS = {"command", "profile", "rng", "output"}


def _command_keys(command: str) -> set[str]:
    per_command = {
        "check": set(),
        "asymptotics": {"n_min", "n_max"},
        "classify": {"series_N"},
        "bracket": {"rtol"},
        "clt": {"n", "samples", "thresholds"},
        "decay": {"samples", "ns", "mc_max"},
        "stopping": {"r", "eps", "M", "N", "samples"},
        "hopf": {"N", "samples", "window_tol", "beta", "window"},
        "scan": {"t_grid", "N", "samples", "window_tol", "anomaly_slack"},
        "tails": {"skellam", "L"},
    }
    return _COMMON_KEYS | per_command[command]


def run_command(command: str, cfg: dict, seed_override: Optional[int]) -> tuple[dict, RNGSpec, bool]:
    """Dispatch one command; returns (body, rng, anomaly_flag)."""
    cfg = _expect_mapping(cfg, "config")
    _check_keys(cfg, _command_keys(command), "config")
    declared = cfg.get("command")
    if declared is not None and declared != command:
        raise ConfigError(f"config declares command {declared!r} but {command!r} was invoked")
    rng = parse_rng(cfg.get("rng"), seed_override)
    anomaly = False

    if command == "tails":
        sk = _expect_mapping(cfg.get("skellam"), "skellam")
        _check_keys(sk, {"a", "b"}, "skellam")
        law = SkellamLaw(_get(sk, "a", float, "skellam", required=True),
                         _get(sk, "b", float, "skellam", required=True))
        L = _get(cfg, "L", int, "config", required=True)
        est = skellam_tail(law, L)
        body = {"skellam": {"a": law.a, "b": law.b}, "L": L,
                "exact": est.exact, "bound": est.bound,
                "exact_le_bound": bool(est.exact <= est.bound)}
        return body, rng, anomaly

    profile = parse_profile(cfg.get("profile"))

    if command == "check":
        conditions = {cid: check_condition(profile, cid).as_dict() for cid in CONDITION_IDS}
        gap = limit_gap(profile)
        sets = limit_sets(profile)
        body = {
            "profile": criteria.profile_as_dict(profile),
            "conditions": conditions,
            "nonsingularity_deficit": [
                [N, criteria.nonsingularity_deficit(profile, N)] for N in (100, 1_000, 10_000)
            ],
            "limit_gap": gap,
            "limit_sets": sets.as_dict() if sets is not None else None,
        }
        return body, rng, anomaly

    if command == "asymptotics":
        n_min = _get(cfg, "n_min", int, "config", default=criteria.RN_FIT_RANGE[0])
        n_max = _get(cfg, "n_max", int, "config", default=criteria.RN_FIT_RANGE[1])
        ns = geometric_grid(n_min, n_max)
        series = [{"n": n,
                   "rn_square_integral": criteria.rn_square_integral(profile, n),
                   "hellinger_growth": criteria.hellinger_growth(profile, n)}
                  for n in ns]
        body = {
            "profile": criteria.profile_as_dict(profile),
            "series": series,
            "rn_fit": criteria.rn_slope_fit(profile).as_dict(),
            "hellinger_fit": criteria.hellinger_slope_fit(profile).as_dict(),
        }
        return body, rng, anomaly

    if command == "classify":
        series_N = _get(cfg, "series_N", int, "config", default=200)
        report = criteria.classify(profile, series_N=series_N)
        return report.as_dict(), rng, anomaly

    if command == "bracket":
        rtol = _get(cfg, "rtol", float, "config", default=1e-3)
        bracket = criteria.bifurcation_bracket(profile, rtol=rtol)
        return bracket.as_dict(), rng, anomaly

    if command == "clt":
        summary = simulate.clt_experiment(
            profile,
            n=_get(cfg, "n", int, "config", default=10_000),
            samples=_get(cfg, "samples", int, "config", default=10_000),
            rng=rng,
            thresholds=_finite_numbers(cfg.get("thresholds", [1.0, 5.0, 10.0]),
                                       "clt 'thresholds'"),
        )
        return summary.body_dict(), rng, anomaly

    if command == "decay":
        ns = cfg.get("ns", [10, 100, 1_000, 10_000, 100_000])
        if not (isinstance(ns, list) and all(type(n) is int and n >= 1 for n in ns)):
            raise ConfigError("decay 'ns' must be a list of integers >= 1")
        summary = simulate.increment_tail_decay(
            profile,
            rng=rng,
            samples=_get(cfg, "samples", int, "config", default=100_000),
            ns=ns,
            mc_max=_get(cfg, "mc_max", int, "config", default=100),
        )
        return summary.body_dict(), rng, anomaly

    if command == "stopping":
        summary = simulate.stopping_time_experiment(
            profile,
            r=_get(cfg, "r", float, "config", required=True),
            eps=_get(cfg, "eps", float, "config", required=True),
            M=_get(cfg, "M", int, "config", default=10_000),
            N=_get(cfg, "N", int, "config", default=1_000_000),
            samples=_get(cfg, "samples", int, "config", default=1_000),
            rng=rng,
        )
        return summary.body_dict(), rng, anomaly

    if command == "hopf":
        window = cfg.get("window")
        if window is not None:
            if not (isinstance(window, list) and len(window) == 2
                    and all(type(v) is int for v in window)):
                raise ConfigError("hopf 'window' must be a [lo, hi) pair of integers")
            window = tuple(window)
        summary = simulate.hopf_diagnostic(
            profile,
            N=_get(cfg, "N", int, "config", default=64),
            samples=_get(cfg, "samples", int, "config", default=2_000),
            rng=rng,
            window_tol=_get(cfg, "window_tol", float, "config", default=simulate.DEFAULT_WINDOW_TOL),
            beta=_get(cfg, "beta", float, "config", default=None),
            window=window,
        )
        return summary.body_dict(), rng, anomaly

    if command == "scan":
        t_grid = _finite_numbers(cfg.get("t_grid"), "scan 't_grid'")
        if not t_grid:
            raise ConfigError("scan requires a nonempty 't_grid' list")
        summary = simulate.scan_intensity(
            profile,
            t_grid=[float(t) for t in t_grid],
            N=_get(cfg, "N", int, "config", default=64),
            samples=_get(cfg, "samples", int, "config", default=2_000),
            rng=rng,
            window_tol=_get(cfg, "window_tol", float, "config", default=simulate.DEFAULT_WINDOW_TOL),
            anomaly_slack=_get(cfg, "anomaly_slack", float, "config", default=2e-3),
        )
        anomaly = bool(summary.statistics["anomaly"])
        return summary.body_dict(), rng, anomaly

    raise ConfigError(f"unknown command {command!r}")


def build_report(command: str, cfg: dict, rng: RNGSpec, body: dict, runtime_s: float) -> dict:
    return {
        "header": {
            "tool": "suspension-lab",
            "version": __version__,
            "schema_version": SCHEMA_VERSION,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "command": command,
            "config": cfg,
            "rng": rng.as_dict(),
            "runtime_s": runtime_s,
        },
        "body": body,
    }


def body_bytes(report: dict) -> bytes:
    """Canonical serialization of the deterministic part of a report."""
    return json.dumps(report["body"], sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode()


def _csv_rows(command: str, body: dict) -> tuple[list[str], list[list]]:
    if command == "asymptotics":
        header = ["n", "rn_square_integral", "hellinger_growth"]
        rows = [[r["n"], repr(r["rn_square_integral"]), repr(r["hellinger_growth"])]
                for r in body["series"]]
        return header, rows
    if command == "scan":
        header = ["t", "growth_exponent"]
        rows = [[t, repr(g)] for t, g in
                zip(body["statistics"]["t_grid"], body["statistics"]["growth_exponents"])]
        return header, rows
    raise ConfigError(f"csv format is only offered for {CSV_COMMANDS}, not {command!r}")


def render_report(command: str, report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        header, rows = _csv_rows(command, report["body"])
        buf = io.StringIO()
        hdr = report["header"]
        buf.write(f"# tool: {hdr['tool']} {hdr['version']} schema {hdr['schema_version']}\n")
        buf.write(f"# created_utc: {hdr['created_utc']}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    raise ConfigError(f"unknown format {fmt!r}")


def _sanitize(obj):
    """Make numpy scalars and tuples JSON-clean."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="suspension-lab",
        description="Numerical laboratory for Poisson suspensions over atomic bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the rng seed")
        p.add_argument("--out", default=None, help="output path (default: config, else stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=None)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        output = _expect_mapping(cfg.get("output", {}) or {}, "output")
        _check_keys(output, {"path", "format"}, "output")
        fmt = args.format or output.get("format") or "json"
        out_path = args.out or output.get("path")
        body, rng, anomaly = run_command(args.command, cfg, args.seed)
        body = _sanitize(body)
        report = build_report(args.command, cfg, rng, body, time.perf_counter() - t0)
        text = render_report(args.command, report, fmt)
    except (ConfigError, ParameterDomainError, ProfileError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PreconditionError, GapNotZeroError) as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except WindowCoverageError as exc:
        print(f"coverage error: {exc}", file=sys.stderr)
        return EXIT_COVERAGE
    except MonotonicityError as exc:
        print(f"anomaly: {exc}", file=sys.stderr)
        return EXIT_ANOMALY

    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_ANOMALY if anomaly else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
