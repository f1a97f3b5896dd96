"""The benchmark's self-test passes.

``bench/selftest.py`` runs every workload at a tiny size, with and without
tracing, and checks the traced count invariants: among them, that every
uniform drawn through the generator is inverted once
(``sampling.uniforms == sampling.invert.draws``).  A draw that bypassed the
generator's ``random`` would break them.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "all checks passed" in proc.stdout
