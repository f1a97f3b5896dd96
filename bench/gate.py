"""Correctness gate for the reports the benchmark collects.

An op fails the gate when its exit code is not one the op allows, when its
report is not strict JSON (NaN and infinities are refused), when the report
does not validate against ``docs/report-schema.json`` (read at run time),
or when a per-command check fails:

* ``scan``: ``heuristic`` is true in the statistics and in every
  ``per_scale`` entry;
* ``stopping``: ``overshoot_le_last_step`` is true;
* ``clt``: at the last snapshot the empirical variance is within five
  standard errors of the exact finite-n variance;
* analytic commands: verdicts equal those of ``reference.json`` and bracket
  endpoints are within ``ENDPOINT_RTOL`` of it.

A body's sha256 is recorded but never gated: fixes to the sampler or the
Hopf sums legitimately change bodies.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import jsonschema

ENDPOINT_RTOL = 1e-9
CLT_SE_LIMIT = 5.0


def _refuse_constant(token: str):
    raise ValueError(f"non-finite number {token} in report")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token} in report")
    return value


def parse_report(text: str) -> dict:
    """Strict JSON: NaN, Infinity and overflowing literals are errors."""
    return json.loads(text, parse_constant=_refuse_constant, parse_float=_finite_float)


def body_sha256(report: dict) -> str:
    body = json.dumps(report["body"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def analytic_verdicts(command: str, body: dict) -> dict:
    """The seed-independent outcomes of an analytic command's body."""
    if command == "classify":
        return {"verdict": body["verdict"]}
    if command == "bracket":
        return {"t_lower": body["t_lower"], "t_upper": body["t_upper"],
                "lower_verdict": body["lower_report"]["verdict"],
                "upper_verdict": body["upper_report"]["verdict"]}
    if command == "check":
        return {cid: cond["holds"] for cid, cond in body["conditions"].items()}
    if command == "tails":
        return {"exact_le_bound": body["exact_le_bound"]}
    return {}


def _command_problems(command: str, body: dict) -> list[str]:
    if command == "scan":
        stats = body["statistics"]
        flags = [stats.get("heuristic")] + [s.get("heuristic") for s in stats["per_scale"]]
        return [] if all(f is True for f in flags) else ["scan: heuristic flag missing or false"]
    if command == "stopping":
        ok = body["statistics"]["overshoot_le_last_step"] is True
        return [] if ok else ["stopping: overshoot_le_last_step is not true"]
    if command == "clt":
        last = body["statistics"]["snapshots"][-1]
        gap = abs(last["empirical_variance"] - last["exact_variance"])
        if gap > CLT_SE_LIMIT * last["variance_se"]:
            return [f"clt: |empirical - exact variance| = {gap:.4g} exceeds "
                    f"{CLT_SE_LIMIT:g} se = {CLT_SE_LIMIT * last['variance_se']:.4g}"]
    return []


def _reference_problems(expected: dict, got: dict) -> list[str]:
    problems = []
    for key, want in expected.items():
        have = got.get(key)
        if key.startswith("t_"):
            if not isinstance(have, float) or abs(have - want) > ENDPOINT_RTOL * abs(want):
                problems.append(f"{key} = {have!r}, reference {want!r}")
        elif have != want:
            problems.append(f"{key} = {have!r}, reference {want!r}")
    return problems


class Gate:
    def __init__(self, schema_path: Path, reference_path: Path):
        schema = json.loads(schema_path.read_text())
        self._validator = jsonschema.validators.validator_for(schema)(schema)
        self._reference = json.loads(reference_path.read_text())

    def check(self, op, exit_code: int, text: str | None) -> tuple[list[str], str | None]:
        """Problems found in one op's outcome (empty when it passes), and
        the sha256 of its body when a report was parsed."""
        if exit_code not in op.exits:
            return [f"exit code {exit_code}, allowed {list(op.exits)}"], None
        if text is None:
            return ["no report written"], None
        try:
            report = parse_report(text)
        except ValueError as exc:
            return [f"report is not strict JSON: {exc}"], None
        errors = sorted(self._validator.iter_errors(report), key=lambda e: list(e.path))
        if errors:
            return [f"schema: {e.message}" for e in errors[:3]], None
        body = report["body"]
        try:
            problems = _command_problems(op.command, body)
            if op.name in self._reference:
                problems += _reference_problems(self._reference[op.name],
                                                analytic_verdicts(op.command, body))
        except (KeyError, IndexError, TypeError) as exc:
            problems = [f"body lacks an expected field: {exc!r}"]
        return problems, body_sha256(report)
