"""The benchmark's command line, end to end, on its shortest setting.

`benchmark/run.py` must end its stdout with one JSON result line. With
`--seconds 0` it still generates the seeded dataset, starts the facility
and runs the workload once, then checks it against the numpy reference
and the data server's byte count. `legacy-post` also covers explicit-task
runs, result files and the local merge; `post-30var` and `skim` cover the
single-loop runs over all 31 universes and the snapshot part files. With
`--trace 1` the traced replay must attribute all but 2% of its wall time
to named layers, a bound that tightens as compute gets faster.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "benchmark", "run.py")


def run_workload(workload: str, trace: int = 0) -> None:
    proc = subprocess.run(
        [sys.executable, BENCHMARK, "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0


def test_legacy_post_ends_in_a_correct_result_line():
    run_workload("legacy-post")


@pytest.mark.parametrize("workload, trace", [("post-30var", 0), ("skim", 0), ("post-30var", 1)])
def test_new_mode_workload_ends_in_a_correct_result_line(workload, trace):
    run_workload(workload, trace)
