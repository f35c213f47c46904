"""The benchmark runs end to end and its checks pass.

One traced pass of each workload with no time budget: it fails when
a function the trace wraps is renamed, when a traced pass never reaches a
layer the metrics read, or when the corpus no longer builds or checks out.
It writes only under the git-ignored ``perfbench/out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["tri-scan", "wide-gfp", "rational"])
def test_benchmark_traced_smoke_run(workload):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0", "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.splitlines()[-1])
    assert result["correct"] is True, result
