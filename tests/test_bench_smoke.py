"""The benchmark's two workloads that parse set files, run once at
`--seconds 0`: each recounts what the CLI wrote and read with its own
flat checks, so a fault in the readers or writers shows as
`correct: false` or a failed operation."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["io_files", "windowed"])
def test_file_workloads_run_correctly(workload):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    last = json.loads(run.stdout.splitlines()[-1])
    assert last["correct"] is True, run.stdout
    assert last["failed"] == 0, run.stdout
