import itertools

import numpy as np
import pytest
from conftest import chain_of, make_world, uniform_table

from ermrl import baselines, sim


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
