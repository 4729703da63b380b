"""The benchmark harness's self-test, run against the current source.

``benchmarks/selftest.py`` runs every workload at a tiny size and checks
that each op passes its exact-reference check, that a traced run repeats
its deterministic figures for one seed, and that the particle workloads
give the same outputs at one and two workers. Running it here makes a
change to ``src/`` that breaks those checks fail the unit suite instead
of only the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
