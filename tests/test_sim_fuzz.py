"""Property-based fuzzing of the simulator under random plans.

Small random cities and chains run under baseline triggers with idle ticks;
every decision re-stations each region at random and asks for random capped
region counts, so every incident and idle tick sends responders across
regions through apply_hlp_counts and Simulator.apply_region_moves.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ermrl import harness, hierarchy, sim


class RandomPlanner:
    """Random region plans and random capped city counts from the given rng."""

    def __init__(self):
        self.requested = None

    def plan_region(self, simulator, region, rng):
        rids = simulator.region_responders(region)
        depots = rng.permutation(simulator.world.region_depots(region))
        return {rid: int(d) for rid, d in zip(rids, depots)}

    def plan_counts(self, simulator, rng):
        caps = simulator.world.region_caps()
        counts = {g: 0 for g in caps}
        for _ in simulator.responders:
            open_regions = [g for g in sorted(caps) if counts[g] < caps[g]]
            counts[open_regions[int(rng.integers(len(open_regions)))]] += 1
        self.requested = counts
        return counts


class CountsCheck:
    """Forwards simulator callbacks and records, after each event, whether
    the region counts equal the last requested ones."""

    def __init__(self, controller, planner):
        self.controller = controller
        self.planner = planner
        self.mismatches = []
        self.transfers = 0

    def begin_episode(self, simulator):
        self.controller.begin_episode(simulator)

    def on_event(self, simulator, event):
        self.planner.requested = None
        self.controller.on_event(simulator, event)
        if self.planner.requested is not None:
            self.transfers += 1
            if simulator.region_counts() != self.planner.requested:
                self.mismatches.append((event.t, simulator.region_counts(),
                                        self.planner.requested))

    def end_episode(self, simulator):
        self.controller.end_episode(simulator)


@st.composite
def fuzz_cases(draw):
    nx = draw(st.integers(2, 4))
    ny = draw(st.integers(2, 4))
    n_depots = draw(st.integers(2, min(8, nx * ny - 1)))
    params = harness.ScenarioParams(
        nx=nx, ny=ny, n_depots=n_depots, n_hospitals=1,
        n_regions=draw(st.integers(1, min(3, n_depots))),
        citywide_rate_per_hour=draw(st.sampled_from([0.5, 2.0, 6.0])),
        n_hotspots=2)
    return {
        "params": params,
        "world_seed": draw(st.integers(0, 10_000)),
        "chain_seed": draw(st.integers(0, 10_000)),
        "controller_seed": draw(st.integers(0, 10_000)),
        "fleet": draw(st.integers(1, n_depots)),
        "horizon_s": draw(st.sampled_from([2, 5, 9])) * 3600.0,
        "idle_timeout_s": draw(st.sampled_from([600.0, 1800.0, 3600.0])),
        "t_serve_s": draw(st.sampled_from([300.0, 1200.0, 3000.0])),
    }


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(fuzz_cases())
def test_random_plans_conserve_incidents_and_hit_requested_counts(case):
    world = harness.generate_scenario(case["params"], case["world_seed"])
    chain = sim.sample_chain(world.rates, case["horizon_s"], case["chain_seed"])
    planner = RandomPlanner()
    trigger = hierarchy.TriggerPolicy(mode="baseline", idle_timeout_s=case["idle_timeout_s"])
    check = CountsCheck(hierarchy.HierarchyController(world, trigger, planner, planner,
                                                      seed=case["controller_seed"]),
                        planner)
    cfg = sim.SimConfig(t_serve_s=case["t_serve_s"], idle_timeout_s=case["idle_timeout_s"])
    # a capacity or region violation raises SimLogicError and fails the example
    result = sim.run_episode(world, chain, check, cfg, n_responders=case["fleet"])

    ids = sorted(iid for iid, _, _ in result.response_log)
    assert ids == list(range(len(chain.incidents)))
    assert all(resp >= 0 for _, _, resp in result.response_log)
    assert check.transfers > 0
    assert check.mismatches == []
