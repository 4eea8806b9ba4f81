"""The benchmark's own test: every workload at a tiny size, traced and untraced.

    python3 -m pytest bench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path


def test_every_workload_emits_its_metrics_without_failures():
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--smoke"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("smoke ok")
