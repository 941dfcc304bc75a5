"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The learning criteria train
small agents from scratch and take several minutes combined.
"""

import itertools
import time

import numpy as np
import pytest
from conftest import chain_of, toy_hierarchy_world, toy_llp_world, two_region_world

from ermrl import baselines, features, geo, harness, hierarchy, nn, optim, sim
from ermrl.agents import DdpgConfig
from ermrl.geo import region_rate
from ermrl.harness import TrainConfig


def report(tag: str, ok: bool, detail: str = ""):
    print(f"\n[acceptance] criterion {tag}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {tag} failed: {detail}"


# --- criterion 1: combinatorial oracles -----------------------------------------

def brute_match_value(L):
    n, m = L.shape
    return max(sum(L[i, c] for i, c in enumerate(cols))
               for cols in itertools.permutations(range(m), n))


def brute_flow_value(counts_prev, counts_new, resp_regions, resp_depots,
                     region_depots, cost):
    leaving = [g for g in counts_prev if counts_prev[g] > counts_new[g]]
    arriving = [g for g in counts_prev if counts_prev[g] < counts_new[g]]
    occupied = set(resp_depots.values())
    open_by_region = {g: [d for d in region_depots[g] if d not in occupied]
                      for g in arriving}
    quota = {g: counts_new[g] - counts_prev[g] for g in arriving}
    depot_region = {d: g for g in arriving for d in open_by_region[g]}
    open_depots = [d for g in arriving for d in open_by_region[g]]
    per_region = [list(itertools.combinations(
        sorted(v for v, rg in resp_regions.items() if rg == g),
        counts_prev[g] - counts_new[g])) for g in leaving]
    best = np.inf
    for chosen in itertools.product(*per_region):
        movers = [v for grp in chosen for v in grp]
        for depots in itertools.permutations(open_depots, len(movers)):
            used = dict.fromkeys(arriving, 0)
            for d in depots:
                used[depot_region[d]] += 1
            if any(used[g] != quota[g] for g in arriving):
                continue
            best = min(best, sum(cost[(v, d)] for v, d in zip(movers, depots)))
    return best


def test_criterion_1_combinatorial_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(n, 8))
        L = rng.uniform(0, 1, size=(n, m))
        assign = optim.max_weight_match(L)
        got = sum(L[v, d] for v, d in assign.items())
        assert abs(got - brute_match_value(L)) <= 1e-9

    done = 0
    while done < 200:
        n_regions = int(rng.integers(2, 5))
        caps = [int(c) for c in rng.integers(1, 4, size=n_regions)]
        region_depots, nid = {}, 0
        for g in range(n_regions):
            region_depots[g] = list(range(nid, nid + caps[g]))
            nid += caps[g]
        total_v = int(rng.integers(1, min(sum(caps), 6) + 1))
        prev = optim.greedy_redistribute(np.ones(n_regions) / n_regions, total_v, caps)
        raw = rng.uniform(0.05, 1, size=n_regions)
        new = optim.greedy_redistribute(raw / raw.sum(), total_v, caps)
        n_movers = int(np.abs(prev - new).sum()) // 2
        if n_movers == 0 or n_movers > 4:
            continue
        done += 1
        resp_regions, resp_depots, vid = {}, {}, 0
        for g in range(n_regions):
            for slot in range(int(prev[g])):
                resp_regions[vid] = g
                resp_depots[vid] = region_depots[g][slot]
                vid += 1
        cost = {(v, d): float(rng.uniform(1, 100))
                for v in resp_regions for d in range(nid)}
        moves = optim.min_cost_flow_assign(
            {g: int(prev[g]) for g in range(n_regions)},
            {g: int(new[g]) for g in range(n_regions)},
            resp_regions, resp_depots, region_depots,
            lambda v, d: cost[(v, d)])
        got = sum(cost[(v, d)] for v, d in moves.items())
        best = brute_flow_value({g: int(prev[g]) for g in range(n_regions)},
                                {g: int(new[g]) for g in range(n_regions)},
                                resp_regions, resp_depots, region_depots, cost)
        assert abs(got - best) <= 1e-9

    assert list(optim.greedy_redistribute(np.array([0.5, 0.5]), 4, [10, 10])) == [2, 2]
    assert list(optim.greedy_redistribute(np.array([0.55, 0.45]), 5, [10, 10])) == [3, 2]
    assert list(optim.greedy_redistribute(np.array([0.8, 0.2]), 6, [2, 10])) == [2, 4]
    for _ in range(10_000):
        r = int(rng.integers(1, 9))
        raw = rng.uniform(0, 1, size=r) + 1e-12
        p = raw / raw.sum()
        caps = [int(c) for c in rng.integers(1, 9, size=r)]
        v = int(rng.integers(0, sum(caps) + 1))
        out = optim.greedy_redistribute(p, v, caps)
        assert out.sum() == v and np.all(out <= caps) and np.all(out >= 0)

    elapsed = time.perf_counter() - t0
    report("1 (combinatorial oracles)", elapsed < 60.0,
           f"matching 300/300, flow 200/200, redistribution 10k fuzz, {elapsed:.1f}s")


# --- criterion 2: gradient correctness -------------------------------------------

def _check_grads(params, loss_fn, grads, eps=1e-4, rtol=1e-4):
    for a, g in zip(params.arrays(), grads):
        flat, gflat = a.ravel(), g.ravel()
        for idx in range(flat.size):
            old = flat[idx]
            flat[idx] = old + eps
            lp = loss_fn()
            flat[idx] = old - eps
            lm = loss_fn()
            flat[idx] = old
            num = (lp - lm) / (2 * eps)
            scale = max(1.0, abs(num), abs(gflat[idx]))
            if abs(num - gflat[idx]) > rtol * scale:
                return False, f"analytic {gflat[idx]:.3e} vs numeric {num:.3e}"
    return True, ""


def _mlp_margin(p, x):
    _, cache = nn.mlp_forward(p, x)
    vals = [np.abs(pre).min() for layer, (_, pre, _) in zip(p.layers, cache)
            if layer.activation == "relu" and pre.size]
    return min(vals) if vals else np.inf


def _trxl_margin(p, x):
    _, cache = nn.trxl_forward(p, x)
    margin = np.inf
    for layer, (_, _, mlp_cache, _) in zip(p.layers, cache["layers"]):
        for dense, (_, pre, _) in zip(layer.mlp.layers, mlp_cache):
            if dense.activation == "relu" and pre.size:
                margin = min(margin, float(np.abs(pre).min()))
    return margin


def test_criterion_2_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    done = 0
    while done < 50:
        sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 5)))]
        p = nn.mlp_init(sizes, rng)
        x = rng.normal(size=(int(rng.integers(1, 4)), sizes[0]))
        if _mlp_margin(p, x) < 0.02:
            continue  # finite differences are invalid against a relu kink
        done += 1
        direction = rng.normal(size=(x.shape[0], sizes[-1]))

        def loss():
            y, _ = nn.mlp_forward(p, x)
            return float((y * direction).sum())

        _, cache = nn.mlp_forward(p, x)
        _, grads = nn.mlp_backward(p, cache, direction)
        ok, msg = _check_grads(p, loss, grads)
        assert ok, f"mlp config {done}: {msg}"

    done = 0
    while done < 50:
        n_out = int(rng.integers(2, 4))
        feat = 2 * n_out
        p = nn.trxl_init(feat, n_out, rng, width=feat,
                         n_heads=int(rng.integers(1, 3)),
                         n_layers=int(rng.integers(1, 3)), inner_sizes=(3,))
        x = rng.normal(size=(int(rng.integers(1, 4)), feat))
        if _trxl_margin(p, x) < 0.02:
            continue
        done += 1
        direction = rng.normal(size=(x.shape[0], n_out))

        def loss():
            probs, _ = nn.trxl_forward(p, x)
            return float((probs * direction).sum())

        _, cache = nn.trxl_forward(p, x)
        _, grads = nn.trxl_backward(p, cache, direction)
        ok, msg = _check_grads(p, loss, grads)
        assert ok, f"trxl config {done}: {msg}"

    elapsed = time.perf_counter() - t0
    report("2 (gradient correctness)", elapsed < 60.0,
           f"50 mlp + 50 trxl configs at rel tol 1e-4, {elapsed:.1f}s")


# --- criterion 3: structural network properties -----------------------------------

def test_criterion_3_structural_properties():
    rng = np.random.default_rng(303)
    worst_sum, worst_equi = 0.0, 0.0
    p = nn.trxl_init(8, 4, rng, n_heads=2, n_layers=2, inner_sizes=(16,))
    x = rng.normal(size=(6, 8))
    base, _ = nn.trxl_forward(p, x)
    worst_sum = max(worst_sum, float(np.abs(base.sum(axis=1) - 1.0).max()))
    for _ in range(100):
        perm = rng.permutation(6)
        permuted, _ = nn.trxl_forward(p, x[perm])
        worst_equi = max(worst_equi, float(np.abs(permuted - base[perm]).max()))
        worst_sum = max(worst_sum, float(np.abs(permuted.sum(axis=1) - 1.0).max()))
    report("3 (structural properties)",
           worst_sum <= 1e-9 and worst_equi <= 1e-12,
           f"row-sum err {worst_sum:.1e}, equivariance err {worst_equi:.1e}")


# --- criterion 4: simulator invariants ---------------------------------------------

class _RandomHlp:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def plan_counts(self, simulator, rng):
        caps = simulator.world.region_caps()
        ids = sorted(caps)
        raw = self.rng.uniform(0.1, 1.0, size=len(ids))
        counts = optim.greedy_redistribute(raw / raw.sum(), len(simulator.responders),
                                           [caps[g] for g in ids])
        return {g: int(c) for g, c in zip(ids, counts)}


def _fuzz_world(rng):
    if rng.random() < 0.5:
        n = int(rng.integers(3, 8))
        table = rng.uniform(30, 600, (n, n))
        np.fill_diagonal(table, 0)
        cells = tuple(geo.Cell(i, (float(i), 0.0)) for i in range(n))
        grid = geo.Grid(cells, 1.0, (0.0, 0.0, float(n), 1.0))
        tm = geo.TravelModel(3600, np.array([table]))
        rm = geo.RateModel(3600, rng.uniform(0.1, 1.5, (1, n)))
        k = int(rng.integers(1, min(n, 4)))
        depot_cells = rng.choice(n, size=k, replace=False)
        depots = {i: geo.Depot(i, int(c)) for i, c in enumerate(depot_cells)}
        hospitals = {0: geo.Hospital(0, int(rng.integers(0, n)))}
        world = geo.ScenarioWorld(grid, depots, hospitals, tm, rm,
                                  geo.single_region(grid, depots))
        fleet = int(rng.integers(1, k + 1))
    else:
        hot0 = list(rng.uniform(0, 1.0, 6))
        world = two_region_world(rates_by_bucket=[hot0])
        fleet = int(rng.integers(1, 5))
    return world, fleet


def test_criterion_4_simulator_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    for trial in range(100):
        world, fleet = _fuzz_world(rng)
        chain = sim.sample_chain(world.rates, 86400.0, seed=trial)

        def build_controller():
            if trial % 3 == 0:
                return None  # static
            planner = baselines.BaselineRegionPlanner("random")
            hlp = _RandomHlp(trial) if (trial % 3 == 1 and world.seg.n_regions > 1) else None
            return hierarchy.HierarchyController(
                world, hierarchy.TriggerPolicy(mode="baseline"), planner,
                hlp_planner=hlp, seed=trial)

        logs = []
        for _ in range(2):
            cfg = sim.SimConfig(idle_timeout_s=3600.0)
            res = sim.run_episode(world, chain, build_controller(), cfg,
                                  n_responders=fleet)
            logs.append(res.response_log)
        # conservation, ids, sign; monotone clock and capacity assert inside
        assert len(logs[0]) == len(chain.incidents)
        assert sorted(i for i, _, _ in logs[0]) == list(range(len(chain.incidents)))
        assert all(resp >= 0 for _, _, resp in logs[0])
        assert logs[0] == logs[1]  # bit-exact determinism
    elapsed = time.perf_counter() - t0
    report("4 (simulator invariants)", True,
           f"100 fuzzed episodes, conservation + determinism, {elapsed:.1f}s")


# --- criterion 5: toy region learning ----------------------------------------------

@pytest.fixture(scope="module")
def trained_toy_llp():
    world = toy_llp_world()
    cfg = TrainConfig(
        episodes_llp=120, horizon_s=86400.0, fleet_size=1,
        ddpg=DdpgConfig(batch_size=64, eps_decay_episodes=90),
        llp_inner=(16,), critic_hidden=(32,), critic_dropout=0.1)
    t0 = time.perf_counter()
    agent = harness.train_llp_agent(world, 0, cfg, train_seeds=list(range(20)), seed=1)
    return world, agent, time.perf_counter() - t0


class _CountingPlanner(hierarchy.DdpgPlanner):
    """The greedy region planner, counting the plans that put responder 0 on
    the target depot."""

    def __init__(self, agent, target_depot):
        super().__init__({0: agent})
        self.target = target_depot
        self.hits = 0
        self.total = 0

    def plan_region(self, simulator, region, rng):
        plan = super().plan_region(simulator, region, rng)
        self.total += 1
        self.hits += plan[0] == self.target
        return plan


class _RandomRegionController:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def begin_episode(self, simulator):
        simulator.apply_depot_moves(baselines.random_plan(simulator, 0, self.rng))

    def on_event(self, simulator, ev):
        if ev.kind in ("incident", "idle_tick"):
            simulator.apply_depot_moves(baselines.random_plan(simulator, 0, self.rng))


def test_criterion_5_toy_region_learning(trained_toy_llp):
    world, agent, train_time = trained_toy_llp
    sim_cfg = sim.SimConfig(idle_timeout_s=3600.0)
    hits = total = 0
    trained_means, random_means = [], []
    for seed in range(500, 520):
        chain = sim.sample_chain(world.rates, 86400.0, seed)
        planner = _CountingPlanner(agent, target_depot=1)
        ctrl = hierarchy.HierarchyController(
            world, hierarchy.TriggerPolicy(mode="baseline"), planner)
        res = sim.run_episode(world, chain, ctrl, sim_cfg, initial_assignment={0: 0})
        hits += planner.hits
        total += planner.total
        if res.mean_response_s is not None:
            trained_means.append(res.mean_response_s)
        res_r = sim.run_episode(world, chain, _RandomRegionController(seed), sim_cfg,
                                initial_assignment={0: 0})
        if res_r.mean_response_s is not None:
            random_means.append(res_r.mean_response_s)
    frac = hits / max(total, 1)
    improvement = 1.0 - np.mean(trained_means) / np.mean(random_means)
    report("5 (toy region learning)",
           frac >= 0.9 and improvement >= 0.30 and train_time <= 300.0,
           f"at-target {frac:.2f}, improvement {improvement:.0%}, "
           f"train {train_time:.0f}s")


# --- criterion 6: toy hierarchy learning --------------------------------------------

@pytest.fixture(scope="module")
def trained_toy_hierarchy():
    from dataclasses import replace
    world = toy_hierarchy_world()
    cfg = TrainConfig(
        episodes_llp=120, episodes_hlp=150, horizon_s=86400.0, fleet_size=3,
        ddpg=DdpgConfig(batch_size=64, eps_decay_episodes=90, gamma_high=0.0),
        llp_inner=(16,), critic_hidden=(32,), critic_dropout=0.1,
        hlp_hidden=(32, 16), hlp_dropout=0.0)
    t0 = time.perf_counter()
    llp_agents = {g: harness.train_llp_agent(world, g, cfg, train_seeds=list(range(20)),
                                             seed=2)
                  for g in (0, 1)}
    hlp_cfg = replace(cfg, horizon_s=2 * 86400.0,
                      ddpg=replace(cfg.ddpg, eps_decay_episodes=110))
    hlp = harness.train_hlp_agent(world, llp_agents, hlp_cfg,
                                  train_seeds=list(range(20)), seed=2)
    return world, llp_agents, hlp, time.perf_counter() - t0


def _hot_region(world, t):
    r0 = region_rate(world.seg, world.rates, 0, t)
    r1 = region_rate(world.seg, world.rates, 1, t)
    return 0 if r0 > r1 else 1


class _HotRegionCheck(hierarchy.DdpgPlanner):
    """The greedy planner, recording whether each city plan gives the hot
    region at least two responders. The controller reaches every plan
    exactly and keeps each responder in its region when it replans them."""

    def __init__(self, llp_agents, hlp_agent, world):
        super().__init__(llp_agents, hlp_agent)
        self.world = world
        self.checks = []

    def plan_counts(self, simulator, rng):
        counts = super().plan_counts(simulator, rng)
        self.checks.append(counts[_hot_region(self.world, simulator.now)] >= 2)
        return counts


def test_criterion_6_toy_hierarchy_learning(trained_toy_hierarchy):
    world, llp_agents, hlp, train_time = trained_toy_hierarchy
    t0 = time.perf_counter()
    shift_ok = shift_total = 0
    hier_means, static_means = [], []
    for seed in range(600, 610):
        chain = sim.sample_chain(world.rates, 2 * 86400.0, seed)
        planner = _HotRegionCheck(llp_agents, hlp, world)
        ctrl = hierarchy.HierarchyController(
            world, hierarchy.TriggerPolicy(mode="ours"), planner, planner, seed=0)
        res = sim.run_episode(world, chain, ctrl, sim.SimConfig(), n_responders=3)
        hier_means.append(res.mean_response_s)
        shift_ok += sum(planner.checks)
        shift_total += len(planner.checks)
        res_static = sim.run_episode(world, chain, None, sim.SimConfig(), n_responders=3)
        static_means.append(res_static.mean_response_s)
    frac = shift_ok / max(shift_total, 1)
    hier, static = float(np.mean(hier_means)), float(np.mean(static_means))
    total_time = train_time + (time.perf_counter() - t0)
    report("6 (toy hierarchy learning)",
           frac >= 0.8 and hier <= static and total_time <= 900.0,
           f"majority-to-hot {frac:.2f}, hierarchical {hier:.0f}s vs static "
           f"{static:.0f}s, total {total_time:.0f}s")


# --- criterion 7: decision latency ---------------------------------------------------

def test_criterion_7_decision_latency(trained_toy_hierarchy):
    world, llp_agents, hlp, _ = trained_toy_hierarchy
    planner = hierarchy.DdpgPlanner(llp_agents, hlp)
    rng = np.random.default_rng(0)

    def one_decision():
        s = sim.Simulator(world, chain_of([], 86400.0), sim.SimConfig(),
                          initial_assignment={0: 0, 1: 1, 2: 2})
        s.now = 21600.0
        t0 = time.perf_counter()
        counts = planner.plan_counts(s, rng)
        hierarchy.apply_hlp_counts(s, counts)
        for g in world.seg.region_ids:
            if s.region_responders(g):
                s.apply_depot_moves(planner.plan_region(s, g, rng))
        return time.perf_counter() - t0

    one_decision()  # warm up
    policy_s = min(one_decision() for _ in range(5))

    cfg = baselines.MctsConfig(iteration_limit=1000, n_samples=50)
    s = sim.Simulator(world, chain_of([], 86400.0), sim.SimConfig(),
                      initial_assignment={0: 0, 1: 1, 2: 2})
    t0 = time.perf_counter()
    baselines.mcts_plan(s, 0, cfg, np.random.default_rng(1))
    mcts_s = time.perf_counter() - t0
    ratio = mcts_s / policy_s
    report("7 (decision latency)", policy_s < 0.050 and ratio >= 100.0,
           f"policy {policy_s * 1000:.1f}ms, search {mcts_s:.2f}s, ratio {ratio:.0f}x")


# --- criterion 8: search sanity ------------------------------------------------------

def test_criterion_8_mcts_sanity():
    world = toy_llp_world(rate_per_hour=1.0)
    cfg = baselines.MctsConfig(iteration_limit=1000, n_samples=50,
                               rollout_horizon_s=2 * 3600.0)
    wins = 0
    for seed in range(100):
        s = sim.Simulator(world, chain_of([], 86400.0), sim.SimConfig(),
                          initial_assignment={0: 0})
        out = baselines.mcts_plan(s, 0, cfg, np.random.default_rng(seed))
        wins += out[0] == 1  # depot 1 sits on the incident mass
    sim_cfg = sim.SimConfig(idle_timeout_s=3600.0)
    mcts_means, random_means = [], []
    small = baselines.MctsConfig(iteration_limit=120, n_samples=10,
                                 rollout_horizon_s=2 * 3600.0)
    for seed in range(800, 810):
        chain = sim.sample_chain(world.rates, 12 * 3600.0, seed)
        ctrl = hierarchy.HierarchyController(
            world, hierarchy.TriggerPolicy(mode="baseline"),
            baselines.BaselineRegionPlanner("mcts", mcts_cfg=small), seed=seed)
        res = sim.run_episode(world, chain, ctrl, sim_cfg, initial_assignment={0: 0})
        if res.mean_response_s is not None:
            mcts_means.append(res.mean_response_s)
        res_r = sim.run_episode(world, chain, _RandomRegionController(seed), sim_cfg,
                                initial_assignment={0: 0})
        if res_r.mean_response_s is not None:
            random_means.append(res_r.mean_response_s)
    beats = float(np.mean(mcts_means)) < float(np.mean(random_means))
    report("8 (search sanity)", wins >= 95 and beats,
           f"target depot picked {wins}/100, search {np.mean(mcts_means):.0f}s "
           f"vs random {np.mean(random_means):.0f}s")


# --- criterion 9: statistics ----------------------------------------------------------

def test_criterion_9_statistics():
    p_exact = harness.permutation_test([2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0])
    rng = np.random.default_rng(909)
    agree = True
    for _ in range(5):
        xs = rng.normal(0.4, 1.0, size=10)
        ys = rng.normal(0.0, 1.0, size=10)
        exact = harness.permutation_test(xs, ys)
        old = harness._EXACT_LIMIT
        harness._EXACT_LIMIT = 1
        try:
            mc = harness.permutation_test(xs, ys, n_perms=100_000, seed=11)
        finally:
            harness._EXACT_LIMIT = old
        agree = agree and abs(mc - exact) <= 0.02
    report("9 (statistics)", p_exact == pytest.approx(0.125) and agree,
           f"exact 4-pair p {p_exact:.3f}, MC within 0.02 of exact on 10 pairs")


# --- criterion 10: noise robustness -----------------------------------------------------

def test_criterion_10_noise_robustness(trained_toy_hierarchy):
    world, llp_agents, hlp, _ = trained_toy_hierarchy
    means = {}
    for sigma in (0.0, 0.3):
        noise = features.NoiseModel(sigma_rate=sigma, sigma_time=sigma)
        vals = []
        for seed in range(600, 610):
            chain = sim.sample_chain(world.rates, 2 * 86400.0, seed)
            planner = hierarchy.DdpgPlanner(llp_agents, hlp, noise=noise)
            ctrl = hierarchy.HierarchyController(
                world, hierarchy.TriggerPolicy(mode="ours"), planner, planner, seed=7)
            res = sim.run_episode(world, chain, ctrl, sim.SimConfig(), n_responders=3)
            vals.append(res.mean_response_s)
        means[sigma] = float(np.mean(vals))
    degradation = means[0.3] / means[0.0] - 1.0
    report("10 (noise robustness)", degradation <= 0.15,
           f"clean {means[0.0]:.0f}s, sigma 0.3 {means[0.3]:.0f}s, "
           f"degradation {degradation:+.1%}")
