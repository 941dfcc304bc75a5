import copy
import copyreg
import csv
import itertools
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import bench_city, two_region_world

from ermrl import harness, nn, sim
from ermrl.agents import DdpgConfig, HlpAgent, LlpAgent
from ermrl.baselines import MctsConfig
from ermrl.geo import ScenarioWorld


def exact_permutation_oracle(diffs):
    n = len(diffs)
    observed = abs(np.mean(diffs))
    count = 0
    for signs in itertools.product((-1, 1), repeat=n):
        if abs(np.mean(np.array(signs) * diffs)) >= observed - 1e-12:
            count += 1
    return count / 2 ** n


class TestPermutationTest:
    def test_identical_samples_p_one(self):
        assert harness.permutation_test([3.0, 4.0, 5.0], [3.0, 4.0, 5.0]) == 1.0

    def test_four_unit_differences(self):
        p = harness.permutation_test([2, 3, 4, 5], [1, 2, 3, 4])
        assert p == pytest.approx(0.125)

    def test_exact_matches_independent_enumerator(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            xs = rng.normal(size=n)
            ys = rng.normal(size=n)
            got = harness.permutation_test(xs, ys)
            assert got == pytest.approx(exact_permutation_oracle(xs - ys))

    def test_monte_carlo_close_to_exact_on_ten_pairs(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(0.5, 1.0, size=10)
        ys = rng.normal(0.0, 1.0, size=10)
        exact = harness.permutation_test(xs, ys)
        # force the Monte Carlo path by shrinking the exact budget
        old = harness._EXACT_LIMIT
        harness._EXACT_LIMIT = 1
        try:
            mc = harness.permutation_test(xs, ys, n_perms=100_000, seed=7)
        finally:
            harness._EXACT_LIMIT = old
        assert abs(mc - exact) <= 0.02

    def test_monte_carlo_floor(self):
        old = harness._EXACT_LIMIT
        harness._EXACT_LIMIT = 1
        try:
            p = harness.permutation_test([10.0, 20.0, 30.0], [1.0, 2.0, 3.0],
                                         n_perms=999, seed=0)
        finally:
            harness._EXACT_LIMIT = old
        assert 1 / 1000 <= p <= 1.0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            harness.permutation_test([1.0], [2.0])


class TestScenarioGeneration:
    def test_invariants(self):
        params = harness.ScenarioParams(nx=5, ny=4, n_depots=6, n_hospitals=2,
                                        n_regions=3)
        world = harness.generate_scenario(params, seed=3)
        assert world.grid.n_cells == 20
        assert len(world.depots) == 6
        assert world.seg.n_regions <= 3
        covered = set()
        for cells in world.seg.region_cells.values():
            covered |= cells
        assert covered == set(range(20))
        assert np.all(world.rates.rates >= 0)

    def test_deterministic(self):
        params = harness.ScenarioParams(nx=4, ny=4, n_depots=4, n_regions=2)
        a = harness.generate_scenario(params, seed=9)
        b = harness.generate_scenario(params, seed=9)
        assert np.array_equal(a.rates.rates, b.rates.rates)
        assert a.seg == b.seg


class TestFilterChain:
    def test_keeps_only_region_cells(self):
        chain = sim.IncidentChain(((1.0, 0), (2.0, 4), (3.0, 1)), 10.0, 0)
        out = harness.filter_chain(chain, {0, 1})
        assert out.incidents == ((1.0, 0), (3.0, 1))


def tiny_train_cfg(**kw):
    defaults = dict(
        episodes_llp=3, episodes_hlp=2, horizon_s=6 * 3600.0, fleet_size=2,
        ddpg=DdpgConfig(batch_size=8, eps_decay_episodes=2),
        llp_inner=(8,), critic_hidden=(8,), critic_dropout=0.0,
        hlp_hidden=(8,), hlp_dropout=0.0)
    defaults.update(kw)
    return harness.TrainConfig(**defaults)


class TestTrainingPipeline:
    def test_llp_training_fills_buffer_and_runs(self):
        world = two_region_world(rates_by_bucket=[[1.0, 0.5, 0.2, 0.1, 0.4, 0.8]])
        cfg = tiny_train_cfg()
        agent = harness.train_llp_agent(world, 0, cfg, train_seeds=[0, 1], seed=5)
        assert len(agent.buffer) > 0

    def test_hlp_training_runs_and_observes(self):
        buckets = [[1.2, 0, 0, 0, 0, 0.3], [0.3, 0, 0, 0, 0, 1.2]] * 42
        world = two_region_world(rates_by_bucket=buckets, bucket_s=7200)
        cfg = tiny_train_cfg()
        llp_agents = {g: harness.train_llp_agent(world, g, cfg, [0], seed=6)
                      for g in (0, 1)}
        hlp = harness.train_hlp_agent(world, llp_agents, cfg, [0, 1], seed=6)
        assert len(hlp.buffer) > 0

    def test_city_trainer_stores_one_transition_per_city_plan(self, monkeypatch):
        buckets = [[1.2, 0, 0, 0, 0, 0.3], [0.3, 0, 0, 0, 0, 1.2]] * 42
        world = two_region_world(rates_by_bucket=buckets, bucket_s=7200)
        cfg = DdpgConfig()
        rng = np.random.default_rng(8)
        llp_agents = {g: LlpAgent(g, 2, cfg, rng) for g in (0, 1)}
        hlp = HlpAgent(2, cfg, rng)
        stored = []
        monkeypatch.setattr(hlp, "observe", stored.append)
        trainer = harness.HlpTrainer(hlp, llp_agents, world, np.random.default_rng(9))
        chain = sim.sample_chain(world.rates, 86400.0, 0)
        result = sim.run_episode(world, chain, trainer, sim.SimConfig(), n_responders=3)
        n_plans = sum(level == "city" for level, _ in result.decisions)
        assert n_plans > 1
        assert [tr.terminal for tr in stored] == [False] * (n_plans - 1) + [True]

    def test_region_trainer_stores_one_transition_per_region_plan(self, monkeypatch):
        world = two_region_world(rates_by_bucket=[[1.0, 0.5, 0.2, 0.1, 0.4, 0.8]])
        agent = LlpAgent(0, 2, DdpgConfig(batch_size=8), np.random.default_rng(8))
        stored, returned = [], []
        observe, train_step = agent.observe, agent.train_step

        def observing(transition):
            stored.append(transition)
            observe(transition)

        def training(rng):
            returned.append(train_step(rng))
            return returned[-1]

        monkeypatch.setattr(agent, "observe", observing)
        monkeypatch.setattr(agent, "train_step", training)
        trainer = harness.LlpTrainingController(agent, world, np.random.default_rng(9))
        result = harness.run_region_episode(world, 0, trainer, chain_seed=0,
                                            horizon_s=86400.0, fleet=4)
        n_plans = sum(level == "region" for level, _ in result.decisions)
        assert n_plans > 1
        assert [tr.terminal for tr in stored] == [False] * (n_plans - 1) + [True]
        assert any(tr.reward < 0 for tr in stored)
        n_updates = sum(stats is not None for stats in returned)
        assert n_updates > 0
        assert agent.updates == [stats for stats in returned if stats is not None]

    def test_save_load_round_trip(self, tmp_path):
        world = two_region_world(rates_by_bucket=[[1.0, 0.5, 0.2, 0.1, 0.4, 0.8]])
        cfg = tiny_train_cfg(episodes_llp=1, episodes_hlp=1)
        llp_agents = {g: harness.train_llp_agent(world, g, cfg, [0], seed=7)
                      for g in (0, 1)}
        hlp = harness.train_hlp_agent(world, llp_agents, cfg, [0], seed=7)
        for agent in [*llp_agents.values(), hlp]:
            # targets unlike their online networks, so a copy of one cannot pass
            agent.actor_target.arrays()[0][0] += 1.0
            agent.critic_target.arrays()[0][0] += 1.0
        ddpg = {"batch_size": 8, "gamma": 0.3, "gamma_high": 0.7}
        harness.save_agents(tmp_path, llp_agents, hlp, {"ddpg": ddpg, "episodes_llp": 1})
        loaded_llp, loaded_hlp = harness.load_agents(tmp_path, world)
        pairs = [(llp_agents[g], loaded_llp[g]) for g in (0, 1)] + [(hlp, loaded_hlp)]
        for agent, loaded in pairs:
            for role in ("actor", "actor_target", "critic", "critic_target"):
                saved, net = getattr(agent, role), getattr(loaded, role)
                assert nn._describe(net) == nn._describe(saved)
                for a, b in zip(saved.arrays(), net.arrays(), strict=True):
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert loaded.actor_target is not loaded.actor
            assert loaded.critic_target is not loaded.critic
            assert len(loaded.buffer) == 0 and loaded.updates == []
            for opt in (loaded.actor_opt, loaded.critic_opt):
                assert opt.t == 0
                assert not opt.m.any() and not opt.v.any()
        assert [loaded_llp[g].gamma for g in (0, 1)] == [0.3, 0.3]
        assert loaded_hlp.gamma == 0.7
        assert [(loaded_llp[g].region, loaded_llp[g].n_depots) for g in (0, 1)] == [
            (g, len(world.region_depots(g))) for g in (0, 1)]
        assert loaded_hlp.n_regions == 2
        assert json.loads((tmp_path / "manifest.json").read_text())["episodes_llp"] == 1

    def test_load_builds_nothing_it_discards(self, tmp_path, monkeypatch):
        """Each loaded agent is made from its four saved networks: loading
        draws no weights and copies no network."""
        world = bench_city("metro")
        save_untrained(tmp_path, world)

        def refuse(*args, **kwargs):
            raise AssertionError("loading built a network it then discards")
        monkeypatch.setattr(nn, "_glorot", refuse)
        monkeypatch.setattr(copy, "deepcopy", refuse)
        llp, hlp = harness.load_agents(tmp_path, world)
        assert sorted(llp) == world.seg.region_ids
        assert hlp.n_regions == len(world.seg.region_ids)

    def test_loaded_agents_keep_training(self, tmp_path):
        # networks narrower than the constructor's defaults
        world = two_region_world(rates_by_bucket=[[1.0, 0.5, 0.2, 0.1, 0.4, 0.8]])
        cfg = tiny_train_cfg(episodes_llp=2, episodes_hlp=1)
        llp_agents = {g: harness.train_llp_agent(world, g, cfg, [0], seed=7)
                      for g in (0, 1)}
        hlp = harness.train_hlp_agent(world, llp_agents, cfg, [0], seed=7)
        harness.save_agents(tmp_path, llp_agents, hlp, {"ddpg": {"batch_size": 8}})
        loaded_llp, loaded_hlp = harness.load_agents(tmp_path, world)
        for agent in [*loaded_llp.values(), loaded_hlp]:
            for opt, net in ((agent.actor_opt, agent.actor), (agent.critic_opt, agent.critic)):
                size = sum(a.size for a in net.arrays())
                assert opt.m.shape == opt.v.shape == net.flat.shape == (size,)
        agent = harness.train_llp_agent(world, 0, cfg, [1], seed=8, agent=loaded_llp[0])
        assert agent.updates


def record_fleets(monkeypatch, run=True):
    """The fleet size of each harness.run_episode from now on; each episode
    still runs unless run is False."""
    fleets = []
    run_episode = harness.run_episode

    def recording(world, chain, controller, config, initial_assignment=None,
                  n_responders=None):
        fleets.append(len(initial_assignment) if initial_assignment else n_responders)
        if run:
            return run_episode(world, chain, controller, config, initial_assignment,
                               n_responders)

    monkeypatch.setattr(harness, "run_episode", recording)
    return fleets


class TestRegionFleet:
    """A region-only run, in training or evaluation, takes the region's
    rate-proportional share of the city fleet (sim.region_shares), at least
    one responder."""

    def test_eval_runs_the_busiest_regions_city_share(self, monkeypatch, tmp_path):
        # region 1 has 81% of the demand on 3 of the 8 depots
        world = bench_city("default")
        spec = harness.ExperimentSpec("", "static", str(tmp_path), horizon_s=86400.0)
        assert harness.resolve_fleet(world, None) == 6
        fleets = record_fleets(monkeypatch)
        harness.eval_chain(spec, world, None, 50, region=1)
        harness.eval_chain(spec, world, None, 50)
        assert fleets == [3, 6]

    def test_zero_rate_region_runs_one_responder(self, monkeypatch, tmp_path):
        world = two_region_world(rates_by_bucket=[[1.0, 0.5, 0.2, 0.0, 0.0, 0.0]])
        assert sim.region_shares(world, 2) == {0: 2, 1: 0}
        spec = harness.ExperimentSpec("", "static", str(tmp_path), fleet_size=2,
                                      horizon_s=3600.0)
        fleets = record_fleets(monkeypatch)
        harness.eval_chain(spec, world, None, 50, region=1)
        assert fleets == [1]

    @staticmethod
    def training_fleets(monkeypatch, world, region, seed):
        fleets = record_fleets(monkeypatch, run=False)
        harness.train_llp_agent(world, region, harness.TrainConfig(
            episodes_llp=301, horizon_s=3600.0), [0], seed)
        return fleets

    # The capped largest-remainder split is not monotone in the fleet: metro
    # region 4 gets 3, 2, 3, 2, 3 responders of a city fleet of 22 to 26, so
    # its median draw is 3 where its share of the default 25 is 2.
    @pytest.mark.parametrize("city, median_off_by", [("default", 0), ("metro", 1)])
    def test_training_draws(self, monkeypatch, city, median_off_by):
        world = bench_city(city)
        shares = sim.region_shares(world, harness.resolve_fleet(world, None))
        for g in world.seg.region_ids:
            fleets = self.training_fleets(monkeypatch, world, g, seed=3)
            assert 1 <= min(fleets) and max(fleets) <= len(world.region_depots(g))
            assert abs(np.median(fleets) - max(1, shares[g])) <= median_off_by
            assert self.training_fleets(monkeypatch, world, g, seed=3) == fleets


def test_idle_ticks_reach_only_baseline_triggers(monkeypatch, tmp_path):
    """Every episode takes its SimConfig from its controller: idle ticks for
    "baseline" triggers, none for "ours" triggers or without a controller."""
    world = two_region_world()
    configs = []
    monkeypatch.setattr(harness, "run_episode",
                        lambda world, chain, controller, config, **kw: configs.append(
                            (controller.trigger.mode if controller else None,
                             config.idle_timeout_s)))
    cfg = tiny_train_cfg(episodes_llp=1, episodes_hlp=1, horizon_s=3600.0)
    llp_agents = {g: LlpAgent(g, 2, cfg.ddpg, np.random.default_rng(g)) for g in (0, 1)}
    for planner, agents in (("drl", (llp_agents, None)), ("greedy", None), ("static", None)):
        spec = harness.ExperimentSpec("", planner, str(tmp_path), fleet_size=2,
                                      horizon_s=3600.0)
        harness.eval_chain(spec, world, agents, 50, region=0)
        harness.eval_chain(spec, world, agents, 50)
    harness.train_llp_agent(world, 0, cfg, [0], seed=1)
    harness.train_hlp_agent(world, llp_agents, cfg, [0], seed=1)
    assert configs == [("ours", None), ("ours", None),
                       ("baseline", 3600.0), ("baseline", 3600.0),
                       (None, None), (None, None),
                       ("baseline", 3600.0), ("ours", None)]


def save_untrained(path, world, llp_depots=None, hlp_regions=None):
    """Untrained agents shaped for world, with optional wrong shapes:
    {region: depot count} overrides and a city agent for hlp_regions regions."""
    cfg, rng = DdpgConfig(), np.random.default_rng(0)
    depots = {g: len(world.region_depots(g)) for g in world.seg.region_ids}
    depots.update(llp_depots or {})
    llp = {g: LlpAgent(g, n, cfg, rng) for g, n in depots.items()}
    hlp = HlpAgent(hlp_regions or len(depots), cfg, rng)
    harness.save_agents(path, llp, hlp, {})


class TestCheckpointFitsWorld:
    # the benchmark's metro city: 5 regions of 9/10/6/3/8 depots, against 5/3
    @pytest.mark.parametrize("saved, loaded, message", [
        ("metro", "default", "region 2 is in the checkpoint only"),
        ("default", "metro", "region 2 is in the world only"),
    ], ids=["metro_on_default", "default_on_metro"])
    def test_other_city_rejected(self, tmp_path, saved, loaded, message):
        save_untrained(tmp_path, bench_city(saved))
        harness.load_agents(tmp_path, bench_city(saved))
        with pytest.raises(ValueError, match=message):
            harness.load_agents(tmp_path, bench_city(loaded))

    @pytest.mark.parametrize("shapes, message", [
        ({"llp_depots": {1: 3}}, "region 1: the checkpoint's actor has 3 outputs"),
        ({"hlp_regions": 3}, "city actor has 2 outputs, the world's 2 regions need 1"),
    ], ids=["region_depots", "city_regions"])
    def test_wrong_output_count_rejected(self, tmp_path, shapes, message):
        world = two_region_world()
        save_untrained(tmp_path, world, **shapes)
        with pytest.raises(ValueError, match=message):
            harness.load_agents(tmp_path, world)

    @pytest.mark.parametrize("name", ["llp0_critic_target", "llp1_actor", "hlp_critic"])
    def test_missing_network_rejected(self, tmp_path, name):
        world = two_region_world()
        save_untrained(tmp_path, world)
        nets = nn.load_checkpoint(tmp_path / "networks.npz")
        del nets[name]
        nn.save_checkpoint(tmp_path / "networks.npz", nets)
        with pytest.raises(ValueError, match=f"lacks the networks \\['{name}'\\]"):
            harness.load_agents(tmp_path, world)


@dataclass
class FrozenChainRecord:
    """The per-chain record run summaries were written from before each
    chain's EpisodeResult carried its seed and planner calls."""
    chain_seed: int
    n_incidents: int
    mean_response_s: float | None
    decision_count: int
    latency_mean_s: float | None
    latency_max_s: float | None


def frozen_chain_record(result):
    lats = [dt for _, dt in result.decisions]
    return FrozenChainRecord(result.seed, result.n_incidents, result.mean_response_s,
                             len(lats), float(np.mean(lats)) if lats else None,
                             float(np.max(lats)) if lats else None)


def frozen_write_run_summary(records, out_dir):
    """write_run_summary as it was over FrozenChainRecords."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "run_summary.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["chain_seed", "n_incidents", "mean_response_s"])
        for r in records:
            w.writerow([r.chain_seed, r.n_incidents,
                        "" if r.mean_response_s is None else repr(r.mean_response_s)])
    decisions = sum(r.decision_count for r in records)
    latency = sum(r.latency_mean_s * r.decision_count for r in records if r.decision_count)
    summary = {
        "chains": len(records),
        "mean_response_s": harness.mean_response(records),
        "decision_latency_mean_s": latency / decisions if decisions else None,
        "decision_latency_max_s": max((r.latency_max_s for r in records
                                       if r.latency_max_s is not None), default=None),
        "per_chain": [asdict(r) for r in records],
    }
    with open(out_dir / "run_summary.json", "w") as f:
        json.dump(summary, f, indent=2)


class TestEvaluation:
    def test_static_eval_bit_identical_csvs(self, tmp_path):
        world = two_region_world(rates_by_bucket=[[1.0, 0.5, 0.2, 0.1, 0.4, 0.8]])
        spec = harness.ExperimentSpec(
            scenario_path="unused", planner="static", out_dir=str(tmp_path),
            eval_seeds=(50, 51), horizon_s=12 * 3600.0, fleet_size=2)
        paths = []
        for name in ("a", "b"):
            results = harness.evaluate_spec(spec, world)
            out = tmp_path / name
            harness.write_run_summary(results, out)
            paths.append(out / "run_summary.csv")
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_eval_writes_one_episode_log_per_chain(self, tmp_path):
        world = two_region_world(rates_by_bucket=[[1.0, 0.5, 0.2, 0.1, 0.4, 0.8]])
        logs = []
        for name in ("a", "b"):
            spec = harness.ExperimentSpec(
                scenario_path="unused", planner="greedy", out_dir=str(tmp_path / name),
                eval_seeds=(50, 51), horizon_s=12 * 3600.0, fleet_size=2)
            results = harness.evaluate_spec(spec, world)
            logs.append([tmp_path / name / "episodes" / f"chain_{r.seed}.csv"
                         for r in results])
            for r, path in zip(results, logs[-1]):
                with open(path, newline="") as f:
                    rows = list(csv.DictReader(f))
                assert r.n_incidents > 0
                assert sorted(int(row["incident_id"]) for row in rows) == list(range(r.n_incidents))
                assert all(float(row["response_time_s"]) >= 0 for row in rows)
        assert [p.read_bytes() for p in logs[0]] == [p.read_bytes() for p in logs[1]]

    def test_noise_sweep_keeps_each_sigma_pair_log(self, tmp_path):
        world = two_region_world(rates_by_bucket=[[1.0, 0.5, 0.2, 0.1, 0.4, 0.8]])
        cfg = DdpgConfig()
        llp_agents = {g: LlpAgent(g, 2, cfg, np.random.default_rng(g)) for g in (0, 1)}
        harness.save_agents(tmp_path / "ckpt", llp_agents, None, {})
        spec = harness.ExperimentSpec(scenario_path="unused", planner="drl",
                                      out_dir=str(tmp_path / "sweep"), eval_seeds=(50,),
                                      horizon_s=6 * 3600.0, fleet_size=2)
        rows = harness.noise_sweep(spec, world, tmp_path / "ckpt", [0.0, 0.3])
        assert len(rows) == 4
        logs = sorted((tmp_path / "sweep").glob("*/episodes/chain_50.csv"))
        assert len(logs) == 4

    def test_parallel_eval_matches_serial(self, tmp_path):
        world = two_region_world(rates_by_bucket=[[1.0, 0.5, 0.2, 0.1, 0.4, 0.8]])
        save_untrained(tmp_path / "ckpt", world)
        for planner in ("static", "greedy", "mcts", "drl"):
            out = {}
            for workers in (1, 2):
                spec = harness.ExperimentSpec(
                    scenario_path="unused", planner=planner,
                    out_dir=str(tmp_path / f"{planner}{workers}"),
                    eval_seeds=(50, 51, 52), horizon_s=12 * 3600.0, fleet_size=2,
                    mcts=MctsConfig(iteration_limit=8, n_samples=2))
                results = harness.evaluate_spec(spec, world, tmp_path / "ckpt", workers)
                out[workers] = [(r.seed, r.n_incidents, r.mean_response_s,
                                 len(r.decisions)) for r in results]
            assert out[2] == out[1]
            assert all(r[3] for r in out[1]) == (planner != "static")

    def test_parallel_eval_sends_the_world_once_per_worker(self, tmp_path, monkeypatch):
        world = two_region_world(rates_by_bucket=[[1.0, 0.5, 0.2, 0.1, 0.4, 0.8]])
        pickled = []

        def reduce_world(w):
            pickled.append(w)
            return object.__reduce_ex__(w, 2)

        # multiprocessing's pickler reads copyreg's table each time it is made
        monkeypatch.setitem(copyreg.dispatch_table, ScenarioWorld, reduce_world)
        spec = harness.ExperimentSpec(scenario_path="unused", planner="greedy",
                                      out_dir=str(tmp_path / "run"),
                                      eval_seeds=(50, 51, 52, 53, 54, 55),
                                      horizon_s=3 * 3600.0, fleet_size=2)
        serial = harness.evaluate_spec(spec, world, workers=1)
        assert pickled == []
        results = harness.evaluate_spec(spec, world, workers=2)
        assert len(pickled) <= 2
        assert [(r.seed, r.response_log) for r in results] == \
            [(r.seed, r.response_log) for r in serial]

    def test_eval_loads_the_checkpoint_once(self, tmp_path, monkeypatch):
        # two rate buckets that swap which region is busy make the city agent act
        buckets = [[1.2, 0, 0, 0, 0, 0.3], [0.3, 0, 0, 0, 0, 1.2]] * 42
        world = two_region_world(rates_by_bucket=buckets, bucket_s=7200)
        ckpt = tmp_path / "ckpt"
        save_untrained(ckpt, world)
        loads = []
        load_agents = harness.load_agents
        monkeypatch.setattr(harness, "load_agents",
                            lambda *a: loads.append(a) or load_agents(*a))
        spec = harness.ExperimentSpec(scenario_path="unused", planner="drl",
                                      out_dir=str(tmp_path / "run"), eval_seeds=(50, 51, 52),
                                      horizon_s=12 * 3600.0, fleet_size=2)
        results = harness.evaluate_spec(spec, world, ckpt)
        assert len(loads) == 1
        # oracle: a freshly loaded controller per chain
        for r in results:
            ctrl = harness.build_controller(spec, world, ckpt, r.seed)
            chain = sim.sample_chain(world.rates, spec.horizon_s, r.seed)
            result = sim.run_episode(world, chain, ctrl, sim.SimConfig(), n_responders=2)
            result.write_csv(tmp_path / "oracle.csv")
            assert {level for level, _ in result.decisions} == {"region", "city"}
            assert ((tmp_path / "run" / "episodes" / f"chain_{r.seed}.csv").read_bytes()
                    == (tmp_path / "oracle.csv").read_bytes())

    def test_eval_chains_must_miss_the_manifests_training_chains(self, tmp_path):
        world = two_region_world(rates_by_bucket=[[1.0, 0.5, 0.2, 0.1, 0.4, 0.8]])
        cfg = DdpgConfig()
        llp_agents = {g: LlpAgent(g, 2, cfg, np.random.default_rng(g)) for g in (0, 1)}
        harness.save_agents(tmp_path / "ckpt", llp_agents, None, {"train_seeds": [1, 2]})
        spec = harness.ExperimentSpec(scenario_path="unused", planner="drl",
                                      out_dir=str(tmp_path / "run"), eval_seeds=(2, 3),
                                      horizon_s=6 * 3600.0, fleet_size=2)
        with pytest.raises(ValueError, match=r"eval chains \[2\]"):
            harness.evaluate_spec(spec, world, tmp_path / "ckpt")
        assert not (tmp_path / "run").exists()
        results = harness.evaluate_spec(replace(spec, eval_seeds=(3,)), world,
                                        tmp_path / "ckpt")
        assert [r.seed for r in results] == [3]

    def test_compare_runs_table(self):
        ref = [(0, 100.0), (1, 110.0), (2, 90.0), (3, 105.0)]
        cand = [(0, 120.0), (1, 130.0), (2, 95.0), (3, 125.0)]
        rows = harness.compare_runs([("ref", ref), ("cand", cand)])
        assert rows[0]["n_chains"] == 4
        assert rows[0]["mean_reference_s"] == pytest.approx(101.25)
        assert 0.0 < rows[0]["p_value"] <= 1.0

    def test_summary_latency_weights_chains_by_decision_count(self, tmp_path):
        results = [sim.EpisodeResult([(i, 0.0, 200.0) for i in range(10)], 50,
                                     [("region", 0.010)]),
                   sim.EpisodeResult([(i, 0.0, 210.0) for i in range(10)], 51,
                                     [("region", 0.001), ("city", 0.001), ("region", 0.004)]),
                   sim.EpisodeResult([], 52, [])]
        harness.write_run_summary(results, tmp_path)
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["decision_latency_mean_s"] == pytest.approx((0.010 + 3 * 0.002) / 4)
        assert summary["decision_latency_max_s"] == 0.010

    def test_run_summary_keeps_the_chain_record_format(self, tmp_path):
        world = two_region_world(rates_by_bucket=[[1.0, 0.5, 0.2, 0.1, 0.4, 0.8]])
        spec = harness.ExperimentSpec(
            scenario_path="unused", planner="greedy", out_dir=str(tmp_path / "run"),
            eval_seeds=(50, 51, 52), horizon_s=12 * 3600.0, fleet_size=2)
        results = harness.evaluate_spec(spec, world)
        harness.write_run_summary(results, tmp_path / "new")
        frozen_write_run_summary([frozen_chain_record(r) for r in results], tmp_path / "old")
        assert ((tmp_path / "new" / "run_summary.csv").read_bytes()
                == (tmp_path / "old" / "run_summary.csv").read_bytes())
        new, old = (json.loads((tmp_path / d / "run_summary.json").read_text())
                    for d in ("new", "old"))
        assert list(new) == list(old)
        assert [list(c) for c in new["per_chain"]] == [list(c) for c in old["per_chain"]]
        assert (new["chains"], new["mean_response_s"]) == (old["chains"], old["mean_response_s"])
        deterministic = ("chain_seed", "n_incidents", "mean_response_s", "decision_count")
        assert ([[c[k] for k in deterministic] for c in new["per_chain"]]
                == [[c[k] for k in deterministic] for c in old["per_chain"]])
        assert all(c["decision_count"] for c in new["per_chain"])
        assert new["decision_latency_mean_s"] == pytest.approx(old["decision_latency_mean_s"])
        assert new["decision_latency_max_s"] == old["decision_latency_max_s"]

    def test_default_eval_fleet_leaves_search_a_move(self, tmp_path):
        # a responder on every depot would make search return the static result
        world = harness.generate_scenario(harness.ScenarioParams(), 7)
        means = {}
        for planner in ("static", "mcts"):
            spec = harness.ExperimentSpec(
                scenario_path="unused", planner=planner, out_dir=str(tmp_path),
                eval_seeds=(50,), horizon_s=12 * 3600.0,
                mcts=MctsConfig(iteration_limit=24, n_samples=4))
            means[planner] = harness.evaluate_spec(spec, world)[0].mean_response_s
        assert means["mcts"] != means["static"]

    def test_drl_without_city_agent_makes_only_region_decisions(self, tmp_path):
        buckets = [[1.2, 0, 0, 0, 0, 0.3], [0.3, 0, 0, 0, 0, 1.2]] * 42
        world = two_region_world(rates_by_bucket=buckets, bucket_s=7200)
        cfg = DdpgConfig()
        llp_agents = {g: LlpAgent(g, 2, cfg, np.random.default_rng(g)) for g in (0, 1)}
        harness.save_agents(tmp_path, llp_agents, None, {})
        spec = harness.ExperimentSpec(scenario_path="unused", planner="drl",
                                      out_dir=str(tmp_path), fleet_size=2)
        ctrl = harness.build_controller(spec, world, tmp_path, chain_seed=50)
        chain = sim.sample_chain(world.rates, 12 * 3600.0, 50)
        result = sim.run_episode(world, chain, ctrl, sim.SimConfig(), n_responders=2)
        assert result.decisions
        assert {level for level, _ in result.decisions} == {"region"}

    def test_random_planner_eval(self, tmp_path):
        world = two_region_world(rates_by_bucket=[[1.0, 0.5, 0.2, 0.1, 0.4, 0.8]])
        spec = harness.ExperimentSpec(
            scenario_path="unused", planner="random", out_dir=str(tmp_path),
            eval_seeds=(50,), horizon_s=6 * 3600.0, fleet_size=2)
        results = harness.evaluate_spec(spec, world)
        assert results[0].n_incidents > 0
        assert len(results[0].decisions) > 0
