"""Smoke tests of the benchmark command: one short run of each workload passes
its output checks. No timing is asserted."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["metro-drl", "city-mcts", "city-train"])
def test_run_passes_its_checks(workload):
    # city-train also checks the training write path: update counts, finite
    # losses and parameters, and equal fingerprints across rounds
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    assert last["attempted"] > 0
