import itertools
import math

import numpy as np
import pytest
from conftest import bench_city, chain_of, make_world, uniform_table

from ermrl import baselines, sim
from ermrl.features import arrival_times


def line_world(rates, depot_cells, hospital_cells=(1,), spacing_s=100.0):
    n = len(rates)
    table = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) * spacing_s
    return make_world(table, list(depot_cells), list(hospital_cells),
                      rates_vec=[list(rates)])


def fresh_sim(world, assignment):
    return sim.Simulator(world, chain_of([], 3600), sim.SimConfig(),
                         initial_assignment=assignment)


class TestMcts:
    def test_single_responder_single_depot_identity(self):
        world = line_world([0.5, 0.5, 0.5], depot_cells=[0])
        s = fresh_sim(world, {0: 0})
        cfg = baselines.MctsConfig(iteration_limit=50, n_samples=5,
                                   rollout_horizon_s=3600)
        out = baselines.mcts_plan(s, 0, cfg, np.random.default_rng(0))
        assert out == {0: 0}

    def test_moves_toward_incident_mass(self):
        # all incident mass at the far end near depot B (cell 4)
        world = line_world([0.0, 0.0, 0.0, 0.0, 3.0], depot_cells=[0, 4],
                           hospital_cells=[2], spacing_s=300.0)
        cfg = baselines.MctsConfig(iteration_limit=200, n_samples=10,
                                   rollout_horizon_s=2 * 3600)
        wins = 0
        for seed in range(10):
            s = fresh_sim(world, {0: 0})
            out = baselines.mcts_plan(s, 0, cfg, np.random.default_rng(seed))
            wins += out[0] == 1
        assert wins >= 9

    def test_iteration_limit_one_still_legal(self):
        world = line_world([0.5, 0.5, 0.5], depot_cells=[0, 2])
        s = fresh_sim(world, {0: 0})
        cfg = baselines.MctsConfig(iteration_limit=1, n_samples=2,
                                   rollout_horizon_s=3600)
        out = baselines.mcts_plan(s, 0, cfg, np.random.default_rng(1))
        assert set(out) == {0}
        assert out[0] in (0, 1)

    def test_deterministic_given_rng(self):
        world = line_world([0.2, 0.8, 0.1, 0.9, 0.3], depot_cells=[0, 2, 4])
        cfg = baselines.MctsConfig(iteration_limit=100, n_samples=5,
                                   rollout_horizon_s=3600)
        outs = []
        for _ in range(2):
            s = fresh_sim(world, {0: 0, 1: 1})
            outs.append(baselines.mcts_plan(s, 0, cfg, np.random.default_rng(7)))
        assert outs[0] == outs[1]


# --- search oracle: the plain search, every lookup through travel_time ---------------
#
# Frozen copies of mcts_plan, its rollout and its tree node as they were before
# rollouts read the world's nearest-hospital table: every iteration rolls out
# through TravelModel.travel_time and a scan over the hospitals.

def scan_nearest_hospital(world, from_cell, t):
    best, best_t = None, None
    for h in sorted(world.hospitals):
        tt = world.travel.travel_time(from_cell, world.hospitals[h].cell, t)
        if best_t is None or tt < best_t:
            best, best_t = h, tt
    return best


def oracle_rollout_value(ready, future, world, t0, t_serve_s):
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
        hosp = scan_nearest_hospital(world, cell, depart)
        h_cell = world.hospitals[hosp].cell
        avail = depart + world.travel.travel_time(cell, h_cell, depart)
        depot = ready[best_rid][1]
        back = avail + world.travel.travel_time(h_cell, world.depots[depot].cell, avail)
        ready[best_rid] = (back, depot)
        total += (baselines.ROLLOUT_DISCOUNT ** (t_i - t0)) * best_resp
    return -total


class OracleNode:
    __slots__ = ("assignment", "moved", "untried", "children", "visits", "value")

    def __init__(self, assignment, moved, depot_ids):
        self.assignment = assignment
        self.moved = moved
        occupied = set(assignment.values())
        moves = [(rid, d) for rid in sorted(assignment) if rid not in moved
                 for d in depot_ids if d not in occupied]
        self.untried = ["stop"] + moves
        self.children = []
        self.visits = 0
        self.value = 0.0


def oracle_mcts_plan(s, region, cfg, rng):
    world = s.world
    member_ids = s.region_responders(region)
    depot_ids = world.region_depots(region)
    region_cells = np.array(sorted(world.seg.region_cells[region]))
    t0 = s.now
    t_serve = s.cfg.t_serve_s
    futures = [sim.sample_incidents(world.rates, region_cells, t0, t0 + cfg.rollout_horizon_s, rng)
               for _ in range(cfg.n_samples)]
    etas = arrival_times([s.responders[rid] for rid in member_ids], depot_ids, t0, world)
    eta = {rid: dict(zip(depot_ids, row)) for rid, row in zip(member_ids, etas.tolist())}

    def evaluate(assignment):
        ready = {rid: (t0 + eta[rid][d], d) for rid, d in assignment.items()}
        future = futures[int(rng.integers(len(futures)))]
        return oracle_rollout_value(ready, future, world, t0, t_serve)

    root = OracleNode({rid: s.responders[rid].depot for rid in member_ids}, frozenset(),
                      depot_ids)
    scale = 1.0
    for _ in range(cfg.iteration_limit):
        node = root
        path = [root]
        while not node.untried and node.children:
            log_n = math.log(max(node.visits, 1))
            best, best_score = None, None
            for action, child in node.children:
                score = (child.value / child.visits / scale
                         + baselines.UCT_C * math.sqrt(log_n / child.visits))
                if best_score is None or score > best_score:
                    best, best_score = child, score
            node = best
            path.append(node)
        if node.untried:
            action = node.untried.pop(0)
            if action == "stop":
                child = OracleNode(node.assignment, frozenset(node.assignment), depot_ids)
                child.untried = []
            else:
                rid, depot = action
                assignment = dict(node.assignment)
                assignment[rid] = depot
                child = OracleNode(assignment, node.moved | {rid}, depot_ids)
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


def city_state(name, now, busy=()):
    """A bench city at time now, its default fleet on the default depots;
    each (responder, cell) in busy has just been sent to an incident at cell."""
    world = bench_city(name)
    s = sim.Simulator(world, chain_of([], now + 86400.0), sim.SimConfig(),
                      n_responders=round(0.7 * len(world.depots)))
    s.now = now
    for k, (rid, cell) in enumerate(busy):
        s._assign_to_incident(rid, sim.Incident(k, cell, now))
    return s


SEARCH_STATES = {
    # (city, sim.now, busy responders, searched regions)
    "default-midnight": ("default", 0.0, (), (0, 1)),
    "default-rush": ("default", 8 * 3600.0 + 1234.5, (), (0, 1)),
    "default-before-boundary": ("default", 17 * 3600.0 - 0.25, (), (0, 1)),
    # two of region 0's three responders are at a scene: each is ready only
    # after the scene, the hospital and the ride on, in a later travel bucket
    "default-busy": ("default", 3 * 3600.0 - 200.0, ((0, 0), (1, 35)), (0,)),
    "metro": ("metro", 7 * 3600.0 + 900.0, (), (1,)),
}


class TestSearchOracle:
    @pytest.mark.parametrize("state", sorted(SEARCH_STATES))
    def test_plans_and_rng_match_the_plain_search(self, state):
        name, now, busy, regions = SEARCH_STATES[state]
        cfg = baselines.MctsConfig(iteration_limit=200, n_samples=10)
        s = city_state(name, now, busy)
        for region in regions:
            rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
            for _ in range(2):  # the second plan continues the first one's stream
                plan = baselines.mcts_plan(s, region, cfg, rng)
                assert plan == oracle_mcts_plan(s, region, cfg, oracle_rng)
                assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_busy_responders_are_ready_in_a_later_travel_bucket(self):
        name, now, busy, (region,) = SEARCH_STATES["default-busy"]
        s = city_state(name, now, busy)
        world = s.world
        etas = arrival_times([s.responders[rid] for rid, _ in busy],
                             world.region_depots(region), now, world)
        bucket = world.travel.bucket_index
        assert all(bucket(now + e) > bucket(now) for e in etas.ravel())


def pmedian_objective(world, chosen, alpha, t=0.0):
    lam = world.rates.rates_at(t)
    cells = sorted(world.seg.region_cells[0])
    demand = {d: 0.0 for d in chosen}
    dist = 0.0
    for c in cells:
        best_d = min(chosen, key=lambda d: (world.travel.travel_time(
            c, world.depots[d].cell, t), d))
        dist += lam[c] * world.travel.travel_time(c, world.depots[best_d].cell, t)
        demand[best_d] += lam[c]
    loads = np.array([demand[d] for d in chosen])
    return dist + alpha * loads.var()


class TestPmedian:
    def test_single_responder_alpha_zero_bruteforce(self):
        world = line_world([1.0, 0.2, 0.0, 2.0, 0.1], depot_cells=[0, 2, 4])
        s = fresh_sim(world, {0: 0})
        out = baselines.pmedian_plan(s, 0, alpha=0.0)
        best = min(range(3), key=lambda j: pmedian_objective(world, (j,), 0.0))
        assert out == {0: best}

    def test_large_alpha_prefers_balanced_cover(self):
        world = line_world([2.0, 0.0, 1.0, 1.0, 0.0, 2.0], depot_cells=[0, 2, 5])
        s = fresh_sim(world, {0: 0, 1: 1})
        for alpha in (0.0, 1e9):
            out = baselines.pmedian_plan(s, 0, alpha=alpha)
            chosen = tuple(sorted(out.values()))
            oracle = min(itertools.combinations([0, 1, 2], 2),
                         key=lambda S: (pmedian_objective(world, S, alpha), S))
            assert chosen == oracle

    def test_zero_rates_lowest_id_tie(self):
        world = line_world([0.0] * 4, depot_cells=[0, 1, 3])
        s = fresh_sim(world, {0: 0})
        out = baselines.pmedian_plan(s, 0, alpha=0.0)
        assert out == {0: 0}

    def test_exact_matches_interchange_small(self):
        rng = np.random.default_rng(5)
        for trial in range(15):
            n = int(rng.integers(5, 9))
            rates = rng.uniform(0, 2, n)
            depot_cells = sorted(int(c) for c in rng.choice(n, size=4, replace=False))
            world = line_world(rates, depot_cells=depot_cells)
            s = fresh_sim(world, {0: 0, 1: 1})
            exact = baselines.pmedian_plan(s, 0, alpha=1.0)
            local = baselines.pmedian_plan(s, 0, alpha=1.0, max_enumeration=0)
            obj_exact = pmedian_objective(world, tuple(sorted(set(exact.values()))), 1.0)
            obj_local = pmedian_objective(world, tuple(sorted(set(local.values()))), 1.0)
            assert obj_local == pytest.approx(obj_exact, rel=1e-9)


class TestGreedy:
    def test_single_responder_max_rate_depot(self):
        world = line_world([0.1, 0.0, 2.0, 0.0], depot_cells=[0, 2])
        s = fresh_sim(world, {0: 0})
        out = baselines.greedy_plan(s, 0)
        assert out == {0: 1}  # depot 1 sits at cell 2 with the heavy rate

    def test_two_responders_min_cost_matching(self):
        # hand-built travel: r0->A 10, r0->B 90, r1->A 80, r1->B 20
        table = np.zeros((4, 4))
        pairs = {(0, 2): 10.0, (0, 3): 90.0, (1, 2): 80.0, (1, 3): 20.0,
                 (0, 1): 50.0, (2, 3): 50.0}
        for (a, b), v in pairs.items():
            table[a, b] = table[b, a] = v
        world = make_world(table, depot_cells=[0, 1, 2, 3], hospital_cells=[0],
                           rates_vec=[[0.0, 0.0, 1.0, 1.0]])
        s = fresh_sim(world, {0: 0, 1: 1})
        out = baselines.greedy_plan(s, 0)
        # depots 2 and 3 carry the rates; matching should cost 10 + 20
        assert out == {0: 2, 1: 3}

    def test_rate_tie_lowest_depot_id(self):
        world = line_world([0.0] * 4, depot_cells=[0, 1, 3])
        s = fresh_sim(world, {0: 0})
        out = baselines.greedy_plan(s, 0)
        assert out == {0: 0}


class TestStaticAndRandom:
    def test_random_assignment_valid(self):
        world = line_world([1.0] * 5, depot_cells=[0, 2, 4])
        s = fresh_sim(world, {0: 0, 1: 1})
        rng = np.random.default_rng(3)
        for _ in range(20):
            out = baselines.random_plan(s, 0, rng)
            assert set(out) == {0, 1}
            assert len(set(out.values())) == 2
            assert set(out.values()) <= {0, 1, 2}

    def test_all_planners_return_valid_assignments(self):
        world = line_world([0.3, 0.9, 0.1, 0.7, 0.5], depot_cells=[0, 2, 4])
        cfg = baselines.MctsConfig(iteration_limit=30, n_samples=3,
                                   rollout_horizon_s=1800)
        rng = np.random.default_rng(11)
        for kind in ("mcts", "pmedian", "greedy", "random"):
            planner = baselines.BaselineRegionPlanner(kind, mcts_cfg=cfg)
            s = fresh_sim(world, {0: 0, 1: 1})
            out = planner.plan_region(s, 0, rng)
            assert set(out) == {0, 1}
            assert len(set(out.values())) == 2
