"""Command-line surface: configuration parsing, dispatch, report writing.

Usage: suspension-lab <command> --config FILE [--seed S] [--out PATH]
                       [--format json|csv]

A config is one JSON object.  ``_COMMAND_TABLE`` maps each command to its
runner and field specs; a spec is a kind, which checks shape only, and a
default or REQUIRED; a field with neither is left out when absent, so the
API's default applies.  Value domains are the API's.  Every command also
takes ``command``, ``rng`` and ``output`` ({"path", "format"}, overridden
by ``--out`` and ``--format``).  Null fields count as absent; unknown
fields, ``NaN`` and ``Infinity`` are refused.

Reports are a header plus a body.  The header carries the tool version,
schema version, UTC timestamp, runtime, the full config echo, and the rng
spec; the body holds only deterministic content, so two runs of the same
config and seed produce byte-identical bodies.  One writer, ``_sanitize``,
gives every result its report form: a dataclass is the object of its
fields, an epsilon family also carries its ``_EPSILON_KINDS`` kind, so the
profile document is parsed and written here only.  CSV output is offered
for the per-n / per-t series commands (asymptotics, scan); everything else
is JSON.  A format the command cannot be written in is refused before the
run.

Exit codes are fixed: 0 success, 2 unreadable, malformed or out-of-domain
config or an unwritable output path, 3 precondition violation, 4
window-coverage error, 5 anomaly (non-monotone scan), 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
import time
from datetime import datetime, timezone
from enum import Enum
from typing import Any, Optional

import numpy as np

from . import __version__, criteria, simulate
from .criteria import MonotonicityError, PreconditionError
from .dist import ParameterDomainError, SkellamLaw, skellam_tail
from .intensity import (
    DEFAULT_EPSILON,
    EpsilonFamily,
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

#: Commands whose body is a flat series suitable for CSV.
CSV_COMMANDS = ("asymptotics", "scan")

#: Default of a field that must be given.
REQUIRED = object()


class ConfigError(ValueError):
    """Malformed run configuration (unknown key, bad type, bad value)."""


def _kind(what: str, test, convert=None):
    """A field kind: checks a value's shape with ``test``, then converts it."""
    def check(value: Any, where: str):
        if not test(value):
            raise ConfigError(f"{where} must be {what}, got {value!r:.60}")
        return convert(value) if convert else value
    return check


def _is_number(value: Any) -> bool:
    """A finite JSON number; an integer beyond the float range is not one."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


_INT = _kind("an integer", lambda v: type(v) is int)
_FLOAT = _kind("a finite number", _is_number, float)
_STR = _kind("a string", lambda v: type(v) is str)
_DOC = _kind("an object", lambda v: type(v) is dict)
_NUMBERS = _kind("a list of finite numbers", lambda v: type(v) is list and all(map(_is_number, v)))
_COUNTS = _kind("a list of integers >= 1",
                lambda v: type(v) is list and all(type(n) is int and n >= 1 for n in v))
_WINDOW = _kind("a [lo, hi) pair of integers",
                lambda v: type(v) is list and len(v) == 2 and all(type(n) is int for n in v), tuple)
_PAIRS = _kind("integer indices with finite numbers, as an object or [n, eps] pairs",
               lambda v: type(v) is list and all(type(p) is list and len(p) == 2 and type(p[0]) is int
                                                 and _is_number(p[1]) for p in v),
               lambda v: tuple((n, float(e)) for n, e in v))


def _index(key: str):
    try:
        return int(key)
    except ValueError:
        return key  # refused by _PAIRS


def _table(value: Any, where: str) -> tuple[tuple[int, float], ...]:
    """An explicit epsilon table, {"n": eps, ...} or [[n, eps], ...]."""
    if type(value) is dict:
        value = [[_index(k), e] for k, e in value.items()]
    return _PAIRS(value, where)


def _doc(spec: dict):
    """Kind of a nested document with its own field specs."""
    return lambda value, where: _fields(value, spec, where)


def _fields(doc: Any, spec: dict, where: str) -> dict:
    """The fields of ``doc``, each checked by its kind in ``spec``, which maps
    a name to ``(kind,)`` or ``(kind, default)``.  An absent or null field
    takes its default, is refused when that is REQUIRED, or is left out."""
    _DOC(doc, where)
    unknown = sorted(set(doc) - set(spec))
    if unknown:
        raise ConfigError(f"unknown field(s) in {where}: {unknown}")
    out = {}
    for key, (kind, *default) in spec.items():
        if doc.get(key) is not None:
            out[key] = kind(doc[key], f"'{key}' in {where}")
        elif default and default[0] is REQUIRED:
            raise ConfigError(f"missing required field '{key}' in {where}")
        elif default:
            out[key] = default[0]
    return out


#: Epsilon kind -> (family, field specs).
_EPSILON_KINDS = {
    "zero": (ZeroFamily, {}),
    "power": (PowerFamily, {"gamma": (_FLOAT, REQUIRED), "sign": (_INT,)}),
    "step": (StepFamily, {"left": (_FLOAT, REQUIRED), "right": (_FLOAT, REQUIRED)}),
    "explicit": (ExplicitFamily, {"table": (_table, REQUIRED),
                                  "tail": (lambda v, where: parse_epsilon(v),)}),
}


def parse_epsilon(doc: Any) -> EpsilonFamily:
    kind = _DOC(doc, "epsilon").get("kind")
    if type(kind) is not str or kind not in _EPSILON_KINDS:
        raise ConfigError(f"epsilon 'kind' must be one of {sorted(_EPSILON_KINDS)}, got {kind!r:.60}")
    family, spec = _EPSILON_KINDS[kind]
    return family(**_fields({k: v for k, v in doc.items() if k != "kind"}, spec, f"{kind} epsilon"))


def parse_profile(doc: Any) -> IntensityProfile:
    """Profile from its config document; omitting "epsilon" selects the
    default square-root-decay family."""
    return IntensityProfile(**_fields(doc, {
        "base": (_FLOAT, REQUIRED), "scale": (_FLOAT,),
        "epsilon": (lambda v, where: parse_epsilon(v), DEFAULT_EPSILON)}, "profile"))


def parse_rng(doc: dict, seed_override: Optional[int]) -> RNGSpec:
    fields = _fields(doc, {"seed": (_INT, 0), "stream": (_INT,)}, "rng")
    if seed_override is not None:
        fields["seed"] = seed_override
    return RNGSpec(**fields)


# Runners take the rng and the parsed fields and return (body, anomaly flag);
# the API they call is looked up when they run.


def _check(rng: RNGSpec, profile: IntensityProfile) -> tuple[dict, bool]:
    return {
        "profile": profile,
        "conditions": {cid: check_condition(profile, cid) for cid in CONDITION_IDS},
        "nonsingularity_deficit": [[N, criteria.nonsingularity_deficit(profile, N)]
                                   for N in (100, 1_000, 10_000)],
        "limit_gap": limit_gap(profile),
        "limit_sets": limit_sets(profile),
    }, False


def _asymptotics(rng: RNGSpec, profile: IntensityProfile, n_min: int, n_max: int) -> tuple[dict, bool]:
    criteria.require_series_index(n_max, "n_max")
    series = [{"n": n,
               "rn_square_integral": criteria.rn_square_integral(profile, n),
               "hellinger_growth": criteria.hellinger_growth(profile, n)}
              for n in geometric_grid(n_min, n_max)]
    return {
        "profile": profile,
        "series": series,
        "rn_fit": criteria.rn_slope_fit(profile),
        "hellinger_fit": criteria.hellinger_slope_fit(profile),
    }, False


def _tails(rng: RNGSpec, skellam: dict, L: int) -> tuple[dict, bool]:
    law = SkellamLaw(**skellam)
    est = skellam_tail(law, L)
    return {"skellam": {"a": law.a, "b": law.b}, "L": L,
            "exact": est.exact, "bound": est.bound,
            "exact_le_bound": bool(est.exact <= est.bound)}, False


def _criterion(name: str):
    """Runner for ``criteria.<name>``."""
    def run(rng: RNGSpec, **fields) -> tuple[dict, bool]:
        return getattr(criteria, name)(**fields), False
    return run


def _experiment(name: str):
    """Runner for ``simulate.<name>``; the body leaves out the runtime, and a
    summary's anomaly statistic (scan) sets the anomaly flag."""
    def run(rng: RNGSpec, **fields) -> tuple[dict, bool]:
        summary = getattr(simulate, name)(rng=rng, **fields)
        body = {key: getattr(summary, key) for key in ("name", "parameters", "statistics", "rng")}
        return body, bool(summary.statistics.get("anomaly", False))
    return run


_PROFILE = {"profile": (lambda v, where: parse_profile(v), REQUIRED)}
_COMMON = {"command": (_STR,), "rng": (_DOC, {}),
           "output": (_doc({"path": (_STR,), "format": (_STR,)}), {})}

#: Command -> (runner, field specs beyond the common ones).  CLI defaults
#: appear only where the API has none or a different one.
_COMMAND_TABLE = {
    "check": (_check, _PROFILE),
    "asymptotics": (_asymptotics, {**_PROFILE, "n_min": (_INT, criteria.RN_FIT_RANGE[0]),
                                   "n_max": (_INT, criteria.RN_FIT_RANGE[1])}),
    "classify": (_criterion("classify"), {**_PROFILE, "series_N": (_INT,)}),
    "bracket": (_criterion("bifurcation_bracket"), {**_PROFILE, "rtol": (_FLOAT,)}),
    "clt": (_experiment("clt_experiment"), {**_PROFILE, "n": (_INT, 10_000),
                                            "samples": (_INT, 10_000), "thresholds": (_NUMBERS,)}),
    "decay": (_experiment("increment_tail_decay"), {**_PROFILE, "samples": (_INT, 100_000),
                                                    "ns": (_COUNTS,), "mc_max": (_INT,)}),
    "stopping": (_experiment("stopping_time_experiment"), {
        **_PROFILE, "r": (_FLOAT, REQUIRED), "eps": (_FLOAT, REQUIRED),
        "M": (_INT, 10_000), "N": (_INT, 1_000_000), "samples": (_INT, 1_000)}),
    "hopf": (_experiment("hopf_diagnostic"), {
        **_PROFILE, "N": (_INT, 64), "samples": (_INT, 2_000), "window_tol": (_FLOAT,),
        "beta": (_FLOAT,), "window": (_WINDOW,)}),
    "scan": (_experiment("scan_intensity"), {
        **_PROFILE, "t_grid": (_NUMBERS, REQUIRED), "N": (_INT, 64), "samples": (_INT, 2_000),
        "window_tol": (_FLOAT,), "anomaly_slack": (_FLOAT,)}),
    "tails": (_tails, {"skellam": (_doc({"a": (_FLOAT, REQUIRED), "b": (_FLOAT, REQUIRED)}), REQUIRED),
                       "L": (_INT, REQUIRED)}),
}

COMMANDS = tuple(_COMMAND_TABLE)


def _refuse_constant(name: str):
    raise ConfigError(f"non-finite number {name} is not allowed")


def read_config(path: str) -> Any:
    """The JSON document at ``path``; NaN and +-Infinity are refused."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_refuse_constant)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, deep nesting
        raise ConfigError(f"{path}: {exc}") from exc


def build_report(command: str, cfg: dict, rng: RNGSpec, body: dict, runtime_s: float) -> dict:
    return {
        "header": {
            "tool": "suspension-lab",
            "version": __version__,
            "schema_version": SCHEMA_VERSION,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "command": command,
            "config": cfg,
            "rng": _sanitize(rng),
            "runtime_s": runtime_s,
        },
        "body": body,
    }


def body_bytes(report: dict) -> bytes:
    """Canonical serialization of the deterministic part of a report."""
    return json.dumps(report["body"], sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode()


def _csv_rows(command: str, body: dict) -> tuple[list[str], list[list]]:
    """Header and rows of an asymptotics or a scan body."""
    if command == "asymptotics":
        header = ["n", "rn_square_integral", "hellinger_growth"]
        rows = [[r["n"], repr(r["rn_square_integral"]), repr(r["hellinger_growth"])]
                for r in body["series"]]
        return header, rows
    header = ["t", "growth_exponent"]
    rows = [[t, repr(g)] for t, g in
            zip(body["statistics"]["t_grid"], body["statistics"]["growth_exponents"])]
    return header, rows


def _output_format(command: str, fmt: str) -> str:
    """``fmt`` if ``command`` can be written in it; checked before the run."""
    if fmt not in ("json", "csv"):
        raise ConfigError(f"unknown format {fmt!r}")
    if fmt == "csv" and command not in CSV_COMMANDS:
        raise ConfigError(f"csv format is only offered for {CSV_COMMANDS}, not {command!r}")
    return fmt


def render_report(command: str, report: dict, fmt: str) -> str:
    """The report as JSON, or as CSV for a ``fmt`` that ``_output_format``
    has accepted."""
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    header, rows = _csv_rows(command, report["body"])
    buf = io.StringIO()
    hdr = report["header"]
    buf.write(f"# tool: {hdr['tool']} {hdr['version']} schema {hdr['schema_version']}\n")
    buf.write(f"# created_utc: {hdr['created_utc']}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


#: Epsilon family -> its kind in the profile document.
_KIND_OF = {family: kind for kind, (family, _) in _EPSILON_KINDS.items()}


def _sanitize(obj):
    """The report form of a result: a dataclass is the object of its fields,
    plus its "kind" for an epsilon family; an enum is its value; tuples and
    arrays are lists and numpy scalars Python numbers."""
    if type(obj) in (float, int, str, bool) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        out = {f.name: _sanitize(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        if type(obj) in _KIND_OF:
            out["kind"] = _KIND_OF[type(obj)]
        return out
    return obj


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="suspension-lab",
        description="Numerical laboratory for Poisson suspensions over atomic bases.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the rng seed")
    parser.add_argument("--out", default=None, help="output path (default: config, else stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        cfg = read_config(args.config)
        runner, spec = _COMMAND_TABLE[args.command]
        fields = _fields(cfg, {**_COMMON, **spec}, "config")
        declared = fields.pop("command", args.command)
        if declared != args.command:
            raise ConfigError(f"config declares command {declared!r} but {args.command!r} was invoked")
        output = fields.pop("output")
        fmt = _output_format(args.command, args.format or output.get("format") or "json")
        rng = parse_rng(fields.pop("rng"), args.seed)
        body, anomaly = runner(rng, **fields)
        report = build_report(args.command, cfg, rng, _sanitize(body), time.perf_counter() - t0)
        text = render_report(args.command, report, fmt)
        out_path = args.out or output.get("path")
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (OSError, ConfigError, ParameterDomainError, ProfileError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except WindowCoverageError as exc:
        print(f"coverage error: {exc}", file=sys.stderr)
        return EXIT_COVERAGE
    except MonotonicityError as exc:
        print(f"anomaly: {exc}", file=sys.stderr)
        return EXIT_ANOMALY
    return EXIT_ANOMALY if anomaly else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
