"""Output checks for the benchmark.

Each check takes what one operation produced and returns a list of failure
messages; an empty list means the output is correct. None of them compares
against recorded output: they test properties every correct run must have.
"""

from __future__ import annotations

import hashlib

import numpy as np


def response_log_failures(incidents, response_log) -> list[str]:
    """Every chain incident is served exactly once, at its report time, with a
    nonnegative response time."""
    fails = []
    ids = sorted(iid for iid, _, _ in response_log)
    if ids != list(range(len(incidents))):
        fails.append(f"response log holds {len(ids)} entries for {len(incidents)} "
                     "incidents, not each incident once")
    for iid, report_t, response in response_log:
        if 0 <= iid < len(incidents) and report_t != incidents[iid][0]:
            fails.append(f"incident {iid} logged at {report_t}, reported at "
                         f"{incidents[iid][0]}")
        if not response >= 0.0:
            fails.append(f"incident {iid} has response time {response}")
    return fails


def region_plan_failures(members, region_depots, plan) -> list[str]:
    """A region plan maps the region's responders injectively onto its depots."""
    fails = []
    if sorted(plan) != sorted(members):
        fails.append(f"plan covers responders {sorted(plan)}, region has {sorted(members)}")
    depots = list(plan.values())
    if len(set(depots)) != len(depots):
        fails.append(f"plan puts two responders on one depot: {plan}")
    outside = set(depots) - set(region_depots)
    if outside:
        fails.append(f"plan uses depots {sorted(outside)} outside the region")
    return fails


def count_plan_failures(counts, fleet: int, caps: dict) -> list[str]:
    """A city plan places the whole fleet and respects every region cap."""
    fails = []
    if sorted(counts) != sorted(caps):
        fails.append(f"counts cover regions {sorted(counts)}, city has {sorted(caps)}")
    if sum(counts.values()) != fleet:
        fails.append(f"counts sum to {sum(counts.values())}, fleet is {fleet}")
    for g, c in counts.items():
        if not 0 <= c <= caps.get(g, -1):
            fails.append(f"region {g} gets {c} responders, cap {caps.get(g)}")
    return fails


def matching_failures(probs, responder_ids, depot_ids, assignment,
                      tol: float = 1e-9) -> list[str]:
    """A discretized action is injective over all rows and reaches the optimum
    total likelihood of an independent assignment solver."""
    from scipy.optimize import linear_sum_assignment

    probs = np.asarray(probs, dtype=float)
    row = {rid: i for i, rid in enumerate(responder_ids)}
    col = {d: j for j, d in enumerate(depot_ids)}
    if sorted(assignment) != sorted(responder_ids):
        return [f"matching covers {sorted(assignment)}, rows are {sorted(responder_ids)}"]
    cols = [col.get(d) for d in assignment.values()]
    if None in cols or len(set(cols)) != len(cols):
        return [f"matching is not injective onto the depots: {assignment}"]
    total = float(sum(probs[row[rid], col[d]] for rid, d in assignment.items()))
    r, c = linear_sum_assignment(probs, maximize=True)
    best = float(probs[r, c].sum())
    if not total >= best - tol:
        return [f"matching total {total!r} is below the optimum {best!r}"]
    return []


def update_count_failures(updates: int, transitions: int, batch_size: int) -> list[str]:
    """An agent makes one update per stored transition once the buffer holds a
    full batch."""
    expected = max(0, transitions - batch_size + 1)
    if updates != expected:
        return [f"{updates} updates for {transitions} transitions at batch "
                f"{batch_size}, expected {expected}"]
    return []


def finite_failures(name: str, values) -> list[str]:
    """Losses and parameters stay finite."""
    for v in values:
        if not np.all(np.isfinite(v)):
            return [f"{name} is not finite"]
    return []


def response_digest(response_logs) -> str:
    """SHA-256 over the exact float64 response logs of a sequence of chains."""
    h = hashlib.sha256()
    for log in response_logs:
        for iid, report_t, response in log:
            h.update(f"{iid},{report_t!r},{response!r}\n".encode())
        h.update(b"--\n")
    return h.hexdigest()
