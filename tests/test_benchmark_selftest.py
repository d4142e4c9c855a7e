"""The benchmark's own self-test runs with the unit tests.

``perfbench/selftest.py`` checks that every correctness check of the
benchmark rejects a corrupted fixture and that ``BENCHMARK.json`` names
the metrics and workloads ``perfbench/run.py`` emits.  It uses only the
standard library and finishes in well under a second.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
