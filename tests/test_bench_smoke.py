"""The benchmark's own smoke check, run as part of the test suite.

``bench/run.py --smoke`` plays the golden games of every workload, traced
and untraced: the golden outcomes, serial == parallel, the CLI batch files
and every per-layer metric (which needs each traced function to stay where
the benchmark looks it up) must all check out.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
