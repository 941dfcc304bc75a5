"""Combinatorial discretization of continuous actions.

Maps actor outputs to feasible allocations: max-weight matching for
within-region depot assignment, capped Sainte-Laguë (Webster) apportionment
for region counts, and one assignment solve for moving responders between
regions. Both assignments are one solve of one deterministic Hungarian solver;
only apportionment breaks ties, by lowest region index. All solvers are pure
functions.
"""

from __future__ import annotations

import math

import numpy as np


class InfeasibleError(ValueError):
    """The requested allocation cannot be satisfied."""


def _hungarian_min(cost: np.ndarray) -> list[int]:
    """Min-sum assignment on a rectangular matrix (rows <= cols).

    Augmenting-path algorithm with dual potentials (Kuhn 1955), O(n^2 m), over
    Python lists: on matrices of a few dozen entries, per-phase numpy calls
    cost more than the arithmetic. Returns the assigned column per row; which
    equal-cost optimum it returns is unspecified but fixed for a given input.
    """
    n, m = cost.shape
    if n > m:
        raise InfeasibleError("more rows than columns in assignment")
    c = cost.tolist()
    INF = float("inf")
    u = [0.0] * n
    v = [0.0] * m
    col_row = [-1] * (m + 1)  # row matched to column; m is virtual
    for i in range(n):
        col_row[m] = i
        j0 = m
        minv = [INF] * m
        way = [m] * m
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = col_row[j0]
            row, u0 = c[i0], u[i0]
            delta, j1 = INF, m
            for j in range(m):
                if not used[j]:
                    reduced = row[j] - u0 - v[j]
                    if reduced < minv[j]:
                        minv[j] = reduced
                        way[j] = j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(m):
                if used[j]:
                    u[col_row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            u[i] += delta
            j0 = j1
            if col_row[j0] == -1:
                break
        while j0 != m:
            j1 = way[j0]
            col_row[j0] = col_row[j1]
            j0 = j1
    col_of = {r: j for j, r in enumerate(col_row[:m]) if r >= 0}
    return [col_of[i] for i in range(n)]


def max_weight_match(L: np.ndarray) -> dict[int, int]:
    """Assignment maximizing the summed likelihood, one depot per responder.

    Each row gets exactly one column, each column at most one row. One
    Hungarian solve on -L; among equal-value maximizers the result is the one
    that deterministic solver returns.
    """
    L = np.asarray(L, dtype=float)
    n, m = L.shape
    if n > m:
        raise InfeasibleError(f"{n} responders but only {m} depots")
    return dict(enumerate(_hungarian_min(-L)))


def normalize_hlp(a_h: np.ndarray) -> np.ndarray:
    """Append a constant 1 to the raw action and L1-normalize to proportions."""
    a_h = np.asarray(a_h, dtype=float)
    if not (np.isfinite(a_h).all() and (a_h >= 0).all()):
        raise ValueError("raw high-level action must be finite and nonnegative")
    full = np.append(a_h, 1.0)
    return full / full.sum()


def greedy_redistribute(proportions: np.ndarray, n_responders: int, caps: list[int]) -> np.ndarray:
    """Integer region counts from target proportions within depot counts:
    capped Sainte-Laguë (Webster), house-monotone.

    Responders are handed out one at a time, each to the region below its cap
    with the largest p[g] / (counts[g] + 0.5); ties go to the lowest region
    index, so zero-proportion regions fill, lowest first, only once every
    region of positive proportion is at its cap. One more responder never
    takes one from a region (Balinski & Young, Fair Representation, 1982).
    The loop runs over Python floats and ints, which is cheaper than numpy
    element access on a few regions.
    """
    p = np.asarray(proportions, dtype=float)
    pl = p.tolist()
    if not all(math.isfinite(x) and x >= 0.0 for x in pl) or abs(p.sum() - 1.0) > 1e-6:
        raise ValueError("proportions must be finite, nonnegative and sum to 1")
    caps = [int(c) for c in caps]
    if n_responders < 0:
        raise ValueError(f"responder count {n_responders} is negative")
    if n_responders > sum(caps):
        raise InfeasibleError(f"{n_responders} responders exceed total capacity {sum(caps)}")
    counts = [0] * len(pl)
    for _ in range(n_responders):
        # max keeps the first of equal priorities: ties to the lowest index
        best = max((g for g in range(len(pl)) if counts[g] < caps[g]),
                   key=lambda g: pl[g] / (counts[g] + 0.5))
        counts[best] += 1
    return np.array(counts, dtype=int)


def min_cost_flow_assign(
    counts_prev: dict[int, int],
    counts_new: dict[int, int],
    responder_regions: dict[int, int],
    responder_depots: dict[int, int],
    region_depots: dict[int, list[int]],
    phi,
) -> dict[int, int]:
    """Pick which responders change region and their target depots.

    A transportation problem with per-region quotas, solved as one square
    assignment (Kuhn 1955). Rows are the responders of shrinking regions in id
    order, then one "left empty" token per open depot that a growing region
    does not fill. Columns are the open depots of growing regions in id order,
    then one "stays" token per responder that a shrinking region keeps. A
    responder takes a depot at cost phi(responder, depot) or a stay token of
    its own region at 0; an empty token takes a depot of its own region at 0.
    Every other pair is forbidden. Returns only the moved responders, as
    {responder id: depot id}; the total phi of the moves is minimal.
    """
    if set(counts_prev) != set(counts_new):
        raise ValueError("count vectors must cover the same regions")
    leaving = sorted(g for g in counts_prev if counts_prev[g] > counts_new[g])
    arriving = sorted(g for g in counts_prev if counts_prev[g] < counts_new[g])
    n_moves = sum(counts_prev[g] - counts_new[g] for g in leaving)
    if n_moves != sum(counts_new[g] - counts_prev[g] for g in arriving):
        raise InfeasibleError("departures and arrivals do not balance")
    if n_moves == 0:
        return {}

    movers = sorted(v for v, g in responder_regions.items() if g in leaving)
    stays: list[int] = []
    for g in leaving:
        keep = sum(responder_regions[v] == g for v in movers) - (counts_prev[g] - counts_new[g])
        if keep < 0:
            raise InfeasibleError(f"region {g} has too few responders to give up")
        stays += [g] * keep
    occupied = set(responder_depots.values())
    depot_region: dict[int, int] = {}
    empties: list[int] = []
    for g in arriving:
        open_g = [d for d in region_depots[g] if d not in occupied]
        spare = len(open_g) - (counts_new[g] - counts_prev[g])
        if spare < 0:
            raise InfeasibleError(f"region {g} has too few open depots for its quota")
        depot_region.update((d, g) for d in open_g)
        empties += [g] * spare
    open_depots = sorted(depot_region)

    # Leaving and arriving regions are disjoint, so equal regions mark exactly
    # the zero-cost responder/stay and empty/depot pairs.
    row_region = [responder_regions[v] for v in movers] + empties
    col_region = [depot_region[d] for d in open_depots] + stays
    allowed = np.equal.outer(row_region, col_region)
    allowed[:len(movers), :len(open_depots)] = True
    move_cost = np.array([[float(phi(v, d)) for d in open_depots] for v in movers])
    # finite; any assignment with a forbidden pair costs more than one without
    forbidden = 1.0 + 2.0 * float(np.abs(move_cost).sum())
    cost = np.where(allowed, 0.0, forbidden)
    cost[:len(movers), :len(open_depots)] = move_cost
    assign = _hungarian_min(cost)
    if not allowed[np.arange(len(row_region)), assign].all():
        raise InfeasibleError("no move set meets the region counts")
    return {v: open_depots[c] for v, c in zip(movers, assign) if c < len(open_depots)}
