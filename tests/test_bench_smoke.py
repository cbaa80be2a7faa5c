"""The benchmark harness still runs against the current library.

``bench/run.py --quick`` runs one small round of every workload and checks
every oracle; it exits non-zero on any disagreement or failed job.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_benchmark_agrees_with_every_oracle():
    done = subprocess.run([sys.executable, "bench/run.py", "--quick"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["correct"] is True
    # A failed probe does not change the exit code, only its own stdout line.
    assert [line for line in done.stdout.splitlines() if line.startswith("probe ")] == []
