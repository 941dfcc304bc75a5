"""Comparison planners for region-level repositioning.

The search-based planner runs UCT over single-responder moves, scoring leaf
allocations with greedy-dispatch rollouts against incident futures that the
simulator's sampler (sim.sample_incidents) draws on the region's cells;
each incident's hospital leg reads the world's nearest-hospital table, the
rule the simulator's dispatch uses.
The published description leaves the action model and rollout policy open, so
this module uses the simplest faithful reconstruction: one move per responder
per plan, a stop action, and no reallocation inside rollouts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .features import arrival_times
from .geo import ScenarioWorld
from .optim import _hungarian_min
from .sim import Simulator, sample_incidents


ROLLOUT_DISCOUNT = 0.99995  # per second of simulated time
UCT_C = 1.44


@dataclass(frozen=True)
class MctsConfig:
    iteration_limit: int = 1000
    n_samples: int = 50
    rollout_horizon_s: float = 24 * 3600.0  # one full daily demand cycle

    def __post_init__(self):
        if min(self.iteration_limit, self.n_samples, self.rollout_horizon_s) <= 0:
            raise ValueError("all search parameters must be positive")


def _rollout_value(ready: dict[int, tuple[float, int]], future: list[tuple[float, int]],
                   world: ScenarioWorld, t0: float, t_serve_s: float) -> float:
    """Negative discounted response-time sum under greedy dispatch, no replanning."""
    ready = dict(ready)
    total = 0.0
    for t_i, cell in future:
        best_rid, best_resp = None, None
        for rid in sorted(ready):
            ready_t, depot = ready[rid]
            start = max(ready_t, t_i)
            depot_cell = world.depots[depot].cell
            resp = (start - t_i) + world.travel.travel_time(depot_cell, cell, start)
            if best_resp is None or resp < best_resp:
                best_rid, best_resp = rid, resp
        if best_rid is None:
            break
        scene_t = t_i + best_resp
        depart = scene_t + t_serve_s
        _, h_cells, h_times = world.hospital_table(world.travel.bucket_index(depart))
        h_cell = h_cells[cell]
        avail = depart + h_times[cell]
        depot = ready[best_rid][1]
        back = avail + world.travel.travel_time(h_cell, world.depots[depot].cell, avail)
        ready[best_rid] = (back, depot)
        total += (ROLLOUT_DISCOUNT ** (t_i - t0)) * best_resp
    return -total


class _Node:
    __slots__ = ("assignment", "moved", "untried", "children", "visits", "value")

    def __init__(self, assignment: dict[int, int], moved: frozenset[int],
                 depot_ids: list[int]):
        self.assignment = assignment
        self.moved = moved
        occupied = set(assignment.values())
        moves = [(rid, d) for rid in sorted(assignment) if rid not in moved
                 for d in depot_ids if d not in occupied]
        self.untried: list = ["stop"] + moves
        self.children: list[tuple[object, "_Node"]] = []
        self.visits = 0
        self.value = 0.0


def mcts_plan(sim: Simulator, region: int, cfg: MctsConfig,
              rng: np.random.Generator) -> dict[int, int]:
    """UCT over within-region reassignments of the region's responders."""
    world = sim.world
    member_ids = sim.region_responders(region)
    if not member_ids:
        raise ValueError("search requires at least one responder in the region")
    depot_ids = world.region_depots(region)
    region_cells = np.array(sorted(world.seg.region_cells[region]))
    t0 = sim.now
    t_serve = sim.cfg.t_serve_s

    futures = [sample_incidents(world.rates, region_cells, t0, t0 + cfg.rollout_horizon_s, rng)
               for _ in range(cfg.n_samples)]

    etas = arrival_times([sim.responders[rid] for rid in member_ids], depot_ids, t0, world)
    eta = {rid: dict(zip(depot_ids, row)) for rid, row in zip(member_ids, etas.tolist())}

    def evaluate(assignment: dict[int, int]) -> float:
        ready = {rid: (t0 + eta[rid][d], d) for rid, d in assignment.items()}
        future = futures[int(rng.integers(len(futures)))]
        return _rollout_value(ready, future, world, t0, t_serve)

    root_assignment = {rid: sim.responders[rid].depot for rid in member_ids}
    root = _Node(root_assignment, frozenset(), depot_ids)
    scale = 1.0  # running |value| normalizer keeps the UCT constant meaningful

    for _ in range(cfg.iteration_limit):
        node = root
        path = [root]
        while not node.untried and node.children:
            log_n = math.log(max(node.visits, 1))
            best, best_score = None, None
            for action, child in node.children:
                score = (child.value / child.visits / scale
                         + UCT_C * math.sqrt(log_n / child.visits))
                if best_score is None or score > best_score:
                    best, best_score = child, score
            node = best
            path.append(node)
        if node.untried:
            action = node.untried.pop(0)
            if action == "stop":
                child = _Node(node.assignment, frozenset(node.assignment), depot_ids)
                child.untried = []
            else:
                rid, depot = action
                assignment = dict(node.assignment)
                assignment[rid] = depot
                child = _Node(assignment, node.moved | {rid}, depot_ids)
            node.children.append((action, child))
            node = child
            path.append(node)
        value = evaluate(node.assignment)
        scale = max(scale, abs(value))
        for n in path:
            n.visits += 1
            n.value += value

    node = root
    while node.children:
        node = max(node.children, key=lambda pair: pair[1].visits)[1]
    return dict(node.assignment)


def pmedian_plan(sim: Simulator, region: int, alpha: float = 1.0,
                 max_enumeration: int = 100_000) -> dict[int, int]:
    """Station responders at the depot set minimizing demand-weighted distance
    plus alpha times the variance of per-depot covered demand.

    Solved exactly by enumeration when the choose-count is small, otherwise by
    greedy swap (interchange) local search. Responders map to the chosen
    depots by minimum-total-travel-time matching.
    """
    world = sim.world
    member_ids = sim.region_responders(region)
    depot_ids = world.region_depots(region)
    k = len(member_ids)
    if k == 0:
        return {}
    cells = sorted(world.seg.region_cells[region])
    t = sim.now
    lam = world.rates.rates_at(t)
    travel = world.travel

    def cost(chosen: tuple[int, ...]) -> float:
        demand = {d: 0.0 for d in chosen}
        dist_term = 0.0
        for c in cells:
            best_d, best_t = None, None
            for d in chosen:
                tt = travel.travel_time(c, world.depots[d].cell, t)
                if best_t is None or tt < best_t:
                    best_d, best_t = d, tt
            dist_term += lam[c] * best_t
            demand[best_d] += lam[c]
        loads = np.array([demand[d] for d in chosen])
        return dist_term + alpha * float(loads.var())

    if math.comb(len(depot_ids), k) <= max_enumeration:
        best, best_cost = None, None
        for chosen in itertools.combinations(depot_ids, k):
            c = cost(chosen)
            if best_cost is None or c < best_cost - 1e-12:
                best, best_cost = chosen, c
    else:
        def greedy_build(seed_depot: int) -> tuple[int, ...]:
            chosen: tuple[int, ...] = (seed_depot,)
            while len(chosen) < k:
                cand, cand_cost = None, None
                for d in depot_ids:
                    if d in chosen:
                        continue
                    c = cost(tuple(sorted(chosen + (d,))))
                    if cand_cost is None or c < cand_cost - 1e-12:
                        cand, cand_cost = d, c
                chosen = tuple(sorted(chosen + (cand,)))
            return chosen

        def swap_descent(chosen: tuple[int, ...]) -> tuple[tuple[int, ...], float]:
            current_cost = cost(chosen)
            while True:
                step, step_cost = None, current_cost
                for out_d, in_d in itertools.product(chosen, depot_ids):
                    if in_d in chosen:
                        continue
                    cand = tuple(sorted([d for d in chosen if d != out_d] + [in_d]))
                    c = cost(cand)
                    if c < step_cost - 1e-12:
                        step, step_cost = cand, c
                if step is None:
                    return chosen, current_cost
                chosen, current_cost = step, step_cost

        # deterministic multi-start: one greedy build per seed depot
        best, best_cost = None, None
        for seed_depot in depot_ids:
            chosen, c = swap_descent(greedy_build(seed_depot))
            if best_cost is None or c < best_cost - 1e-12:
                best, best_cost = chosen, c
    return _match_to_depots(sim, member_ids, list(best))


def greedy_plan(sim: Simulator, region: int) -> dict[int, int]:
    """Take the depots with the highest nearby incident rates, then match
    responders to them at minimum total expected travel time."""
    world = sim.world
    member_ids = sim.region_responders(region)
    if not member_ids:
        return {}
    depot_ids = world.region_depots(region)
    lam = world.nearby_rates_at(sim.now)
    ranked = sorted(depot_ids, key=lambda d: (-lam[d], d))
    chosen = ranked[: len(member_ids)]
    return _match_to_depots(sim, member_ids, sorted(chosen))


def random_plan(sim: Simulator, region: int, rng: np.random.Generator) -> dict[int, int]:
    """Uniform-random injective allocation; the no-skill reference policy."""
    member_ids = sim.region_responders(region)
    depot_ids = sim.world.region_depots(region)
    picks = rng.choice(len(depot_ids), size=len(member_ids), replace=False)
    return {rid: depot_ids[int(j)] for rid, j in zip(member_ids, picks)}


def _match_to_depots(sim: Simulator, member_ids: list[int],
                     chosen: list[int]) -> dict[int, int]:
    costs = arrival_times([sim.responders[rid] for rid in member_ids], chosen,
                          sim.now, sim.world)
    assign = _hungarian_min(costs)
    return {rid: chosen[int(j)] for rid, j in zip(member_ids, assign)}


class BaselineRegionPlanner:
    """plan_region adapter so baselines run under the shared controller."""

    def __init__(self, kind: str, mcts_cfg: MctsConfig | None = None,
                 alpha: float = 1.0):
        if kind not in ("mcts", "pmedian", "greedy", "random"):
            raise ValueError(f"unknown baseline {kind}")
        self.kind = kind
        self.mcts_cfg = mcts_cfg or MctsConfig()
        self.alpha = alpha

    def plan_region(self, sim: Simulator, region: int, rng) -> dict[int, int]:
        if self.kind == "mcts":
            return mcts_plan(sim, region, self.mcts_cfg, rng)
        if self.kind == "pmedian":
            return pmedian_plan(sim, region, self.alpha)
        if self.kind == "greedy":
            return greedy_plan(sim, region)
        return random_plan(sim, region, rng)
