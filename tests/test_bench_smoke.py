"""The benchmark runs end to end, untraced and traced, on every workload.

Each run is `perfbench/run.py` for 0.1 s of wall time, which still sends
the workload's counted pass; its last output line is the JSON result.
The traced run rebinds the package's layer functions, so a renamed or
removed function, or a batch value passed through a traced name, fails
here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_benchmark_run_completes(workload, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0.1",
         "--trace", str(trace), "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert result["attempted"] >= WORKLOADS[workload].counted
