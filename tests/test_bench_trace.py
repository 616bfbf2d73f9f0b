"""The traced benchmark (``bench/run.py --trace 1``) runs to the end and
checks its outputs on every workload: its per-layer report divides by the
time and counts the tracer books, so a run must end with exit 0, correct
output and no failed operation. ``orders-n4`` exports and scores orders
only in its set-up sweep, through the names ``cli`` imports, so it fails
when ``cli sweep`` stops calling ``sweep_all`` or ``export`` by those
names."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.mark.parametrize("workload", ["beta-sweep-n4", "small-cells", "orders-n4"])
def test_one_second_traced_run(workload):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, str(RUN), *argv], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
