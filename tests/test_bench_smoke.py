"""The benchmark's smoke run as a test.

``bench/run.py --smoke`` runs every workload once, untraced and traced, and
exits 0 only if each run passes its own output gate (the fig3 row check
among them).  Running it here keeps those gates green with every change,
not only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    verdicts = [line for line in result.stdout.splitlines() if line.startswith("smoke ")]
    assert len(verdicts) == 6 and all(": ok (" in line for line in verdicts), verdicts
