"""The benchmark's traced bindings still name callables in the package.

``bench/tracing.py`` wraps module-level bindings by name and skips a name
that no longer resolves, so a renamed binding would silently read 0 in its
per-layer metric.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

#: Traced names with no binding left to wrap, not yet removed from the
#: bench: the scalar inversion entry point is gone, and criteria and
#: simulate take verdicts from ``condition_verdict``, so only the cli and
#: intensity bindings of ``check_condition`` feed its metric.
STALE = {("simulate", "invert_uniform"), ("criteria", "check_condition"), ("simulate", "check_condition")}


def test_traced_bindings_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = {(mod, attr) for _, mod, attr in tracing.BINDINGS
                  if not callable(getattr(importlib.import_module(f"suspension_lab.{mod}"), attr, None))}
    assert unresolved <= STALE
