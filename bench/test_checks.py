"""Each output check accepts a correct output and rejects a corrupted one.

Run with: python3 -m pytest bench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

INCIDENTS = ((10.0, 3), (20.0, 5), (30.0, 3))
LOG = [(0, 10.0, 120.0), (1, 20.0, 0.0), (2, 30.0, 95.5)]


def test_response_log_accepts_a_full_log_in_any_order():
    assert checks.response_log_failures(INCIDENTS, LOG[::-1]) == []


@pytest.mark.parametrize("log", [
    LOG[:2],                                   # an incident never served
    LOG + [LOG[0]],                            # an incident served twice
    [LOG[0], (1, 20.0, -1.0), LOG[2]],         # negative response time
    [LOG[0], (1, 20.0, float("nan")), LOG[2]],
    [LOG[0], (1, 25.0, 3.0), LOG[2]],          # wrong report time
])
def test_response_log_rejects(log):
    assert checks.response_log_failures(INCIDENTS, log)


def test_region_plan_accepts_an_injective_plan():
    assert checks.region_plan_failures([4, 7], [10, 11, 12], {4: 12, 7: 10}) == []


@pytest.mark.parametrize("plan", [
    {4: 12},                 # a responder left out
    {4: 12, 7: 12},          # two responders on one depot
    {4: 12, 7: 99},          # a depot of another region
    {4: 12, 7: 10, 8: 11},   # a responder of another region
])
def test_region_plan_rejects(plan):
    assert checks.region_plan_failures([4, 7], [10, 11, 12], plan)


def test_count_plan_accepts_a_full_capped_split():
    assert checks.count_plan_failures({0: 3, 1: 2}, 5, {0: 4, 1: 3}) == []


@pytest.mark.parametrize("counts", [
    {0: 3, 1: 1},      # loses a responder
    {0: 1, 1: 4},      # over region 1's cap
    {0: 6, 1: -1},     # negative count
    {0: 5},            # a region missing
])
def test_count_plan_rejects(counts):
    assert checks.count_plan_failures(counts, 5, {0: 4, 1: 3})


PROBS = np.array([[0.6, 0.3, 0.1],
                  [0.5, 0.1, 0.4]])


def test_matching_accepts_an_optimal_assignment():
    # the optimum is 0.6 + 0.4 = 1.0
    assert checks.matching_failures(PROBS, [7, 9], [20, 21, 22], {7: 20, 9: 22}) == []


@pytest.mark.parametrize("assignment", [
    {7: 21, 9: 20},    # feasible but 0.8 < 1.0
    {7: 20, 9: 20},    # not injective
    {7: 20},           # a row left out
    {7: 20, 9: 23},    # a column that does not exist
])
def test_matching_rejects(assignment):
    assert checks.matching_failures(PROBS, [7, 9], [20, 21, 22], assignment)


def test_update_count_follows_the_batch_rule():
    assert checks.update_count_failures(0, 63, 64) == []
    assert checks.update_count_failures(1, 64, 64) == []
    assert checks.update_count_failures(37, 100, 64) == []
    assert checks.update_count_failures(36, 100, 64)
    assert checks.update_count_failures(1, 10, 64)


def test_finite_rejects_nan_and_inf():
    assert checks.finite_failures("x", [np.ones(3), (1.0, 2.0)]) == []
    assert checks.finite_failures("x", [np.array([1.0, np.nan])])
    assert checks.finite_failures("x", [(0.5, float("inf"))])


def test_digest_sees_the_last_bit_of_a_response():
    other = [LOG[0], (1, 20.0, np.nextafter(0.0, 1.0)), LOG[2]]
    assert checks.response_digest([LOG]) == checks.response_digest([list(LOG)])
    assert checks.response_digest([LOG]) != checks.response_digest([other])
    assert checks.response_digest([LOG, []]) != checks.response_digest([[], LOG])
