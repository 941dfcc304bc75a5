"""Smoke tests of the benchmark command: one short run of each workload passes
its output checks. No timing is asserted."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload, trace", [
    pytest.param(w, "0", id=w) for w in ("metro-drl", "city-mcts", "city-train")
] + [
    # the tracer wraps every program name it lists, so a traced run fails
    # when one of them is renamed away
    pytest.param("city-train", "1", id="city-train-traced"),
])
def test_run_passes_its_checks(workload, trace):
    # city-train also checks the training write path: update counts, finite
    # losses and parameters, and equal fingerprints across rounds
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    assert last["attempted"] > 0
