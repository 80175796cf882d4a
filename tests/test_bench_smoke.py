"""Benchmark workloads run once at `--seconds 0`.  The two that parse
set files recount what the CLI wrote and read with their own flat
checks, so a fault in the readers or writers shows as `correct: false`
or a failed operation; `random_trees` runs the reports, the prune and
the ladder on seeded random trees in memory, and `lower_balls` the lower
construction and its verifier."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(workload):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    last = json.loads(run.stdout.splitlines()[-1])
    assert last["correct"] is True, run.stdout
    return last


@pytest.mark.parametrize("workload", ["io_files", "windowed"])
def test_file_workloads_run_correctly(workload):
    assert _run(workload)["failed"] == 0


def test_lower_balls_workload_runs_correctly():
    # the one workload that builds `LowerParams` and runs the verifier
    assert _run("lower_balls")["failed"] == 0


def test_random_trees_workload_runs_correctly():
    # its `ladder_fault` operation, once a known `sandwich_assemble`
    # fault, now builds and passes the workload's ladder check
    assert _run("random_trees")["failed"] == 0
