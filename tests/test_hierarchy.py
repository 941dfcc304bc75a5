import numpy as np
import pytest
from conftest import chain_of, two_region_world

from ermrl import hierarchy, sim


class SpyRegionPlanner:
    """Records invocations; optionally delegates to a real assignment fn."""

    def __init__(self, assign_fn=None):
        self.calls = []
        self.assign_fn = assign_fn

    def plan_region(self, simulator, region, rng):
        self.calls.append((simulator.now, region))
        if self.assign_fn is None:
            return {}
        return self.assign_fn(simulator, region)


class ScriptedHlp:
    """Returns scripted counts per invocation; then repeats the last."""

    def __init__(self, scripts):
        self.scripts = list(scripts)
        self.calls = []

    def plan_counts(self, simulator, rng):
        self.calls.append(simulator.now)
        if len(self.scripts) > 1:
            return self.scripts.pop(0)
        return self.scripts[0]


def run(world, chain, controller, idle_timeout=None):
    cfg = sim.SimConfig(idle_timeout_s=idle_timeout)
    return sim.run_episode(world, chain, controller, cfg,
                           initial_assignment={0: 0, 1: 2})


class TestOursTriggers:
    def test_rate_change_respects_min_interval(self):
        # region-level rates flip every 30 min; HLP may fire at most once per hour
        buckets = []
        for i in range(336):
            hot = i % 2 == 0
            buckets.append([1.5, 0, 0, 0, 0, 0.3] if hot else [0.3, 0, 0, 0, 0, 1.5])
        world = two_region_world(rates_by_bucket=buckets, bucket_s=1800)
        hlp = ScriptedHlp([{0: 1, 1: 1}])
        llp = SpyRegionPlanner()
        ctrl = hierarchy.HierarchyController(
            world, hierarchy.TriggerPolicy(mode="ours", min_hlp_interval_s=3600.0),
            llp, hlp)
        run(world, chain_of([], 4 * 3600), ctrl)
        assert hlp.calls == [1800.0, 5400.0, 9000.0, 12600.0]
        for a, b in zip(hlp.calls, hlp.calls[1:]):
            assert b - a >= 3600.0

    def test_unchanged_rates_never_trigger_hlp(self):
        world = two_region_world()
        hlp = ScriptedHlp([{0: 1, 1: 1}])
        llp = SpyRegionPlanner()
        ctrl = hierarchy.HierarchyController(
            world, hierarchy.TriggerPolicy(mode="ours"), llp, hlp)
        run(world, chain_of([], 6 * 3600), ctrl)
        assert hlp.calls == []

    def test_dispatch_invokes_only_source_region_llp(self):
        world = two_region_world()
        llp = SpyRegionPlanner()
        ctrl = hierarchy.HierarchyController(
            world, hierarchy.TriggerPolicy(mode="ours"), llp, hlp_planner=None)
        # incident in region 1 (cell 4); nearest responder sits at cell 3
        run(world, chain_of([(600.0, 4)], 6 * 3600), ctrl)
        startup = [(t, g) for t, g in llp.calls if t == 0.0]
        later = [(t, g) for t, g in llp.calls if t > 0.0]
        assert sorted(g for _, g in startup) == [0, 1]
        assert later == [(600.0, 1)]

    def test_hlp_count_change_invokes_all_llps(self):
        buckets = [[1.0, 0, 0, 0, 0, 0.2], [0, 0.2, 0, 0, 1.0, 0]] * 168
        world = two_region_world(rates_by_bucket=buckets, bucket_s=1800)
        hlp = ScriptedHlp([{0: 1, 1: 2}, {0: 2, 1: 1}])
        llp = SpyRegionPlanner()
        ctrl = hierarchy.HierarchyController(
            world, hierarchy.TriggerPolicy(mode="ours", min_hlp_interval_s=1800.0),
            llp, hlp)
        sim.run_episode(world, chain_of([], 3600), ctrl, sim.SimConfig(),
                        initial_assignment={0: 0, 1: 1, 2: 2})
        at_change = [(t, g) for t, g in llp.calls if t == 1800.0]
        assert sorted(g for _, g in at_change) == [0, 1]

    def test_queue_served_incident_triggers_llp(self):
        world = two_region_world()
        llp = SpyRegionPlanner()
        ctrl = hierarchy.HierarchyController(
            world, hierarchy.TriggerPolicy(mode="ours"), llp, hlp_planner=None)
        # both responders busy after two quick incidents; third one queues
        chain = chain_of([(0.0, 1), (1.0, 4), (2.0, 1)], 6 * 3600)
        run(world, chain, ctrl)
        ts = [t for t, _ in llp.calls]
        assert any(t > 2.0 for t in ts)  # fired when the queued incident was served


class TestApplyHlp:
    def test_counts_match_and_capacity_kept(self):
        world = two_region_world()
        chain = chain_of([], 3600)
        s = sim.Simulator(world, chain, sim.SimConfig(),
                          initial_assignment={0: 0, 1: 1})  # both in region 0
        affected = hierarchy.apply_hlp_counts(s, {0: 1, 1: 1})
        assert s.region_counts() == {0: 1, 1: 1}
        assert affected == {0, 1}
        depots = [r.depot for r in s.responders.values()]
        assert len(set(depots)) == 2

    def test_noop_counts(self):
        world = two_region_world()
        s = sim.Simulator(world, chain_of([], 3600), sim.SimConfig(),
                          initial_assignment={0: 0, 1: 2})
        assert hierarchy.apply_hlp_counts(s, {0: 1, 1: 1}) == set()

    def test_moved_responder_updates_region_field(self):
        world = two_region_world()
        s = sim.Simulator(world, chain_of([], 3600), sim.SimConfig(),
                          initial_assignment={0: 0, 1: 1})
        hierarchy.apply_hlp_counts(s, {0: 0, 1: 2})
        assert all(r.region == 1 for r in s.responders.values())


class TestBaselineTriggers:
    def test_every_incident_fires_hlp_and_all_llps(self):
        world = two_region_world()
        hlp = ScriptedHlp([{0: 1, 1: 1}])
        llp = SpyRegionPlanner()
        ctrl = hierarchy.HierarchyController(
            world, hierarchy.TriggerPolicy(mode="baseline"), llp, hlp)
        run(world, chain_of([(100.0, 1), (9000.0, 4)], 12 * 3600), ctrl,
            idle_timeout=3600.0)
        assert 100.0 in hlp.calls and 9000.0 in hlp.calls
        for t in (100.0, 9000.0):
            assert sorted(g for tt, g in llp.calls if tt == t) == [0, 1]

    def test_idle_timeout_fires_without_incidents(self):
        world = two_region_world()
        llp = SpyRegionPlanner()
        ctrl = hierarchy.HierarchyController(
            world, hierarchy.TriggerPolicy(mode="baseline"), llp)
        chain = chain_of([(10.0, 1), (4 * 3600.0, 1)], 5 * 3600)
        run(world, chain, ctrl, idle_timeout=3600.0)
        ts = sorted({t for t, _ in llp.calls})
        # quiet gap between 10 s and 4 h: ticks at 3610 and 7210
        assert 10.0 + 3600.0 in ts
        assert 10.0 + 7200.0 in ts

    def test_timer_resets_on_invocation(self):
        world = two_region_world()
        llp = SpyRegionPlanner()
        ctrl = hierarchy.HierarchyController(
            world, hierarchy.TriggerPolicy(mode="baseline"), llp)
        chain = chain_of([(10.0, 1)], 3 * 3600)
        run(world, chain, ctrl, idle_timeout=3600.0)
        ts = sorted({t for t, _ in llp.calls if t > 10.0})
        assert ts[0] == pytest.approx(3610.0)
        if len(ts) > 1:
            assert ts[1] == pytest.approx(7210.0)


class TestDecisionLatency:
    def test_one_entry_per_planner_call(self):
        world = two_region_world()
        hlp = ScriptedHlp([{0: 1, 1: 1}])
        llp = SpyRegionPlanner()
        ctrl = hierarchy.HierarchyController(
            world, hierarchy.TriggerPolicy(mode="baseline"), llp, hlp)
        chain = chain_of([(100.0, 1), (9000.0, 4)], 4 * 3600)
        for _ in range(2):  # each episode's record holds only its own calls
            llp.calls.clear()
            hlp.calls.clear()
            result = run(world, chain, ctrl, idle_timeout=3600.0)
            levels = [level for level, _ in result.decisions]
            assert levels.count("region") == len(llp.calls)
            assert levels.count("city") == len(hlp.calls)
            assert len(levels) == len(llp.calls) + len(hlp.calls)
            assert all(dt >= 0.0 for _, dt in result.decisions)
        assert sorted(g for t, g in llp.calls if t == 0.0) == [0, 1]


class TestDdpgPlannerIntegration:
    def test_full_stack_eval_runs_deterministically(self):
        from ermrl.agents import DdpgConfig, HlpAgent, LlpAgent
        buckets = [[1.0, 0, 0, 0, 0, 0.2], [0, 0.2, 0, 0, 1.0, 0]] * 168
        world = two_region_world(rates_by_bucket=buckets, bucket_s=1800)
        cfg = DdpgConfig()
        llp_agents = {g: LlpAgent(g, 2, cfg, np.random.default_rng(g))
                      for g in (0, 1)}
        hlp_agent = HlpAgent(2, cfg, np.random.default_rng(9))
        chain = sim.sample_chain(world.rates, 6 * 3600, seed=3)
        results = []
        for _ in range(2):
            planner = hierarchy.DdpgPlanner(llp_agents, hlp_agent)
            ctrl = hierarchy.HierarchyController(
                world, hierarchy.TriggerPolicy(mode="ours"), planner, planner, seed=0)
            res = run(world, chain, ctrl)
            results.append(res.response_log)
        assert results[0] == results[1]
        assert len(results[0]) == len(chain.incidents)
