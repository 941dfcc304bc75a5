"""Coordination of the city planner and region planners over simulator events.

Two trigger modes. "ours": the city planner fires on detected region-level
rate changes (at least min_hlp_interval_s apart) and region planners fire for
the dispatch region after each dispatch, or for every region after a city
redistribution. "baseline": city and all region planners fire on every
incident and after idle timeouts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .features import NoiseModel, arrival_times, hlp_observation, region_observation
from .geo import ScenarioWorld
from .optim import min_cost_flow_assign
from .sim import Event, Simulator


@dataclass(frozen=True)
class TriggerPolicy:
    mode: str = "ours"                   # "ours" | "baseline"
    min_hlp_interval_s: float = 3600.0
    idle_timeout_s: float = 3600.0

    def __post_init__(self):
        if self.mode not in ("ours", "baseline"):
            raise ValueError(f"unknown trigger mode {self.mode}")
        if self.min_hlp_interval_s <= 0 or self.idle_timeout_s <= 0:
            raise ValueError("trigger intervals must be positive")


def apply_hlp_counts(sim: Simulator, counts_new: dict[int, int]) -> set[int]:
    """Move responders between regions to hit the new counts at min travel cost.

    Busy responders may be selected; their physical move defers to release.
    Returns the set of regions whose membership changed."""
    world = sim.world
    counts_prev = sim.region_counts()
    if counts_prev == counts_new:
        return set()
    etas = arrival_times(list(sim.responders.values()), world.depot_ids, sim.now, world)
    eta = {rid: dict(zip(world.depot_ids, row))
           for rid, row in zip(sim.responders, etas.tolist())}
    moves = min_cost_flow_assign(
        counts_prev, counts_new,
        responder_regions={rid: r.region for rid, r in sim.responders.items()},
        responder_depots={rid: r.depot for rid, r in sim.responders.items()},
        region_depots={g: world.region_depots(g) for g in world.seg.region_ids},
        phi=lambda rid, depot: eta[rid][depot])
    affected = sim.apply_region_moves(moves)
    if sim.region_counts() != counts_new:
        raise RuntimeError("redistribution did not reach the requested counts")
    return affected


class HierarchyController:
    """Drives planners from simulator events per the configured trigger mode.

    region_planner: object with plan_region(sim, region, rng) -> {rid: depot}
    hlp_planner:    optional object with plan_counts(sim, rng) -> {region: count}
    Region plans reach the simulator through sim.apply_depot_moves and city
    counts through apply_hlp_counts, which calls sim.apply_region_moves.
    Each planner call appends (level, wall seconds) to sim.decisions, level
    "region" or "city"; the episode's EpisodeResult carries that list. Both
    trainers subclass the controller: region-agent training
    (harness.LlpTrainingController) plans its region and stores a transition
    per plan, city-agent training (harness.HlpTrainer) follows each
    redistribution cycle; both close their episode in end_episode.
    """

    def __init__(self, world: ScenarioWorld, trigger: TriggerPolicy,
                 region_planner, hlp_planner=None, seed: int = 0):
        self.world = world
        self.trigger = trigger
        self.region_planner = region_planner
        self.hlp_planner = hlp_planner
        self.rng = np.random.default_rng(seed)
        self._last_hlp_t = None
        self._prev_rates: dict[int, float] | None = None

    # -- simulator callbacks --

    def begin_episode(self, sim: Simulator):
        self._last_hlp_t = None
        self._prev_rates = self.world.region_rates(0.0)
        for g in self.world.seg.region_ids:
            self._invoke_llp(sim, g)

    def end_episode(self, sim: Simulator):
        """Nothing to close; subclasses that learn finish their episode here."""

    def on_event(self, sim: Simulator, event: Event):
        if self.trigger.mode == "ours":
            self._on_event_ours(sim, event)
        else:
            self._on_event_baseline(sim, event)

    # -- trigger logic --

    def _on_event_ours(self, sim: Simulator, event: Event):
        if event.kind in ("incident", "release"):
            dispatch = sim.last_dispatch
            if dispatch is not None and dispatch.t == sim.now:
                self._invoke_llp(sim, dispatch.region)
        elif event.kind == "rate_change":
            cur = self.world.region_rates(sim.now)
            changed = cur != self._prev_rates
            self._prev_rates = cur
            if not changed or self.hlp_planner is None:
                return
            if (self._last_hlp_t is not None
                    and sim.now - self._last_hlp_t < self.trigger.min_hlp_interval_s):
                return
            self._last_hlp_t = sim.now
            moved = self._invoke_hlp(sim)
            if moved:
                for g in self.world.seg.region_ids:
                    self._invoke_llp(sim, g)

    def _on_event_baseline(self, sim: Simulator, event: Event):
        if event.kind in ("incident", "idle_tick"):
            if self.hlp_planner is not None:
                self._invoke_hlp(sim)
            for g in self.world.seg.region_ids:
                self._invoke_llp(sim, g)

    # -- invocation helpers --

    def _invoke_llp(self, sim: Simulator, region: int):
        if not any(r.region == region for r in sim.responders.values()):
            return
        t0 = time.perf_counter()
        assignment = self.region_planner.plan_region(sim, region, self.rng)
        sim.decisions.append(("region", time.perf_counter() - t0))
        if assignment:
            sim.apply_depot_moves(assignment)

    def _invoke_hlp(self, sim: Simulator) -> bool:
        t0 = time.perf_counter()
        counts_new = self.hlp_planner.plan_counts(sim, self.rng)
        sim.decisions.append(("city", time.perf_counter() - t0))
        return bool(apply_hlp_counts(sim, counts_new))


def city_observation(sim: Simulator, noise: NoiseModel | None = None,
                     rng: np.random.Generator | None = None) -> np.ndarray:
    """The city agent's view of sim: region rates and responder counts."""
    world = sim.world
    return hlp_observation(world.region_rates(sim.now), sim.region_counts(),
                           len(sim.responders), world.rate_scale, noise, rng)


def city_decision(agent, obs: np.ndarray, sim: Simulator, explore: bool,
                  rng: np.random.Generator | None) -> tuple[np.ndarray, dict[int, int]]:
    """The city agent's raw action and the {region: count} it maps to in sim."""
    caps = sim.world.region_caps()
    region_ids = sorted(caps)
    a_h, count_arr = agent.act(obs, len(sim.responders),
                               [caps[g] for g in region_ids], explore, rng)
    return a_h, {g: int(c) for g, c in zip(region_ids, count_arr)}


class DdpgPlanner:
    """Greedy (evaluation-mode) planner over trained agents."""

    def __init__(self, llp_agents: dict, hlp_agent=None,
                 noise: NoiseModel | None = None):
        self.llp_agents = llp_agents
        self.hlp_agent = hlp_agent
        self.noise = noise

    def plan_region(self, sim: Simulator, region: int, rng) -> dict[int, int]:
        agent = self.llp_agents[region]
        obs = region_observation(sim.responders, region, sim.now, sim.world,
                                 self.noise, rng)
        _, assignment = agent.act(obs, False, rng)
        return assignment

    def plan_counts(self, sim: Simulator, rng) -> dict[int, int]:
        obs = city_observation(sim, self.noise, rng)
        return city_decision(self.hlp_agent, obs, sim, False, rng)[1]
