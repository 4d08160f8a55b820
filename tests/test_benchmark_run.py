"""The benchmark's command line, end to end, on its shortest setting.

`benchmark/run.py` must end its stdout with one JSON result line. With
`--seconds 0` it still generates the seeded dataset, starts the facility
and runs the `legacy-post` workload once: explicit-task and planned runs,
result files, the local merge, the numpy reference and the byte closure
against the data server.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "benchmark", "run.py")


def test_legacy_post_ends_in_a_correct_result_line():
    proc = subprocess.run(
        [sys.executable, BENCHMARK, "--workload", "legacy-post", "--seed", "1", "--seconds", "0", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0
