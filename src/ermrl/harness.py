"""Experiment orchestration: training loops, evaluation, statistics, sweeps.

Training follows the published recipe: each region agent trains alone on its
own incidents with its rate-proportional share of a resampled city fleet,
acting at every incident or hourly lull and learning from the negated response
time of the next incident; the city agent trains afterwards against the frozen
region critics, acting at region-level rate changes. Evaluation replays held-out chains and records
wall-clock latency per planner call.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import nn
from .agents import (DdpgConfig, HlpAgent, LlpAgent, Transition, hlp_reward,
                     reward_from_response, sample_fleet)
from .baselines import BaselineRegionPlanner, MctsConfig
from .features import NoiseModel, region_observation
from .geo import ScenarioWorld
from .hierarchy import (DdpgPlanner, HierarchyController, TriggerPolicy,
                        city_decision, city_observation)
from .sim import (EpisodeResult, IncidentChain, SimConfig, Simulator, region_shares,
                  run_episode, sample_chain)


# --- statistics ---------------------------------------------------------------

_EXACT_LIMIT = 2 ** 20


def permutation_test(xs, ys, n_perms: int = 100_000, seed: int = 0) -> float:
    """Two-sided paired permutation test on the difference of means.

    Signs of the paired differences are flipped; exact enumeration when the
    2^n patterns fit the budget, otherwise Monte Carlo with the add-one
    estimator (so p is never reported as 0).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or len(xs) < 2:
        raise ValueError("need two equal-length samples with at least 2 pairs")
    diffs = xs - ys
    n = len(diffs)
    observed = abs(diffs.mean())
    tol = 1e-12
    if 2 ** n <= _EXACT_LIMIT:
        count = 0
        total = 2 ** n
        chunk = 1 << 14
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total))[:, None]
            signs = 1 - 2 * ((idx >> np.arange(n)) & 1)
            means = np.abs((signs * diffs).mean(axis=1))
            count += int((means >= observed - tol).sum())
        return count / total
    rng = np.random.default_rng(seed)
    signs = rng.choice((-1.0, 1.0), size=(n_perms, n))
    means = np.abs((signs * diffs).mean(axis=1))
    count = int((means >= observed - tol).sum())
    return (count + 1) / (n_perms + 1)


# --- chains -------------------------------------------------------------------

def filter_chain(chain: IncidentChain, cells: set[int]) -> IncidentChain:
    kept = tuple((t, c) for t, c in chain.incidents if c in cells)
    return IncidentChain(kept, chain.horizon_s, chain.seed)


# --- synthetic scenarios --------------------------------------------------------

@dataclass(frozen=True)
class ScenarioParams:
    nx: int = 6
    ny: int = 6
    cell_size_miles: float = 1.0
    n_depots: int = 8
    n_hospitals: int = 2
    n_regions: int = 2
    base_speed_mph: float = 30.0
    rate_buckets_per_day: int = 4
    citywide_rate_per_hour: float = 4.0
    n_hotspots: int = 3


def generate_scenario(params: ScenarioParams, seed: int) -> ScenarioWorld:
    """Synthetic city: square grid, rush-hour speed profile, rotating demand
    hotspots, k-means regions."""
    from .geo import (Depot, Hospital, RateModel, euclidean_travel_model,
                      kmeans_segment, square_grid)
    if params.n_depots > params.nx * params.ny:
        raise ValueError("more depots than cells")
    if params.n_regions > params.n_depots:
        raise ValueError("more regions than depots")
    rng = np.random.default_rng(seed)
    grid = square_grid(params.nx, params.ny, params.cell_size_miles)
    # hourly speed profile, slower at the 8:00 and 17:00 peaks
    hours = np.arange(24)
    speed_mult = 1.0 - 0.3 * (np.exp(-((hours - 8) ** 2) / 4.0)
                              + np.exp(-((hours - 17) ** 2) / 4.0))
    travel = euclidean_travel_model(grid, 3600, list(speed_mult),
                                    params.base_speed_mph)
    n_cells = grid.n_cells
    picks = rng.choice(n_cells, size=params.n_depots + params.n_hospitals,
                       replace=False)
    depots = {i: Depot(i, int(c)) for i, c in enumerate(picks[:params.n_depots])}
    hospitals = {i: Hospital(i, int(c))
                 for i, c in enumerate(picks[params.n_depots:])}
    # rotating gaussian hotspots; each bucket reweights them
    xy = grid.centroids()
    centers = xy[rng.choice(n_cells, size=params.n_hotspots, replace=False)]
    sigma = max(params.nx, params.ny) * params.cell_size_miles / 4.0
    fields = np.stack([
        np.exp(-((xy - c) ** 2).sum(axis=1) / (2 * sigma ** 2)) for c in centers
    ])
    buckets = []
    n_buckets = params.rate_buckets_per_day
    for b in range(n_buckets):
        weights = 0.2 + rng.dirichlet(np.ones(params.n_hotspots))
        day_night = 0.5 + 0.5 * math.sin(2 * math.pi * (b / n_buckets - 0.25)) + 0.25
        field = (weights @ fields) * day_night
        field *= params.citywide_rate_per_hour / field.sum()
        buckets.append(field)
    rates = RateModel(86400 // n_buckets, np.stack(buckets))
    seg = kmeans_segment(grid, rates, depots, params.n_regions, seed)
    return ScenarioWorld(grid, depots, hospitals, travel, rates, seg)


# --- training -----------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    episodes_llp: int = 120
    episodes_hlp: int = 40
    horizon_s: float = 2 * 86400.0
    fleet_size: int | None = None          # city fleet; default scales with depots
    ddpg: DdpgConfig = field(default_factory=DdpgConfig)
    llp_layers: int = 1
    llp_heads: int = 2
    llp_inner: tuple = (64,)
    llp_dropout: float = 0.0
    critic_hidden: tuple = (64,)
    critic_dropout: float = 0.1
    hlp_hidden: tuple = (256, 64)
    hlp_dropout: float = 0.1

    def default_fleet(self, world: ScenarioWorld) -> int:
        return resolve_fleet(world, self.fleet_size)


def resolve_fleet(world: ScenarioWorld, fleet_size: int | None) -> int:
    """fleet_size, or by default 0.7 responders per depot: a responder on
    every depot would leave repositioning no legal move. A fleet that is
    empty or outnumbers the depots is a ValueError."""
    if fleet_size is None:
        return max(1, int(round(0.7 * len(world.depots))))
    if not 1 <= fleet_size <= len(world.depots):
        raise ValueError(f"a fleet of {fleet_size} does not fit {len(world.depots)} depots")
    return fleet_size


def _sim_config(controller) -> SimConfig:
    """Idle ticks only for "baseline" triggers, the one mode that plans on them."""
    baseline = controller is not None and controller.trigger.mode == "baseline"
    return SimConfig(idle_timeout_s=controller.trigger.idle_timeout_s if baseline else None)


def _learn(agent, transition, rng: np.random.Generator) -> None:
    """Store one transition and take one update step; the agent logs its
    statistics."""
    agent.observe(transition)
    agent.train_step(rng)


class LlpTrainingController(HierarchyController):
    """Single-region training under baseline triggers, its own region planner:
    each plan at an incident or hourly lull first stores the previous
    decision's transition, rewarded with the response of a dispatch made at
    this instant, then explores with rng."""

    def __init__(self, agent: LlpAgent, world: ScenarioWorld, rng: np.random.Generator):
        super().__init__(world, TriggerPolicy(mode="baseline"), self)
        self.agent = agent
        self.run_rng = rng
        self.pending = None  # (obs, executed likelihoods) of the last decision

    def plan_region(self, sim: Simulator, region: int, rng) -> dict[int, int]:
        obs = region_observation(sim.responders, region, sim.now, self.world)
        if self.pending is not None:
            dispatch = sim.last_dispatch
            reward = (reward_from_response(dispatch.response_s, self.agent.cfg)
                      if dispatch is not None and dispatch.t == sim.now else 0.0)
            _learn(self.agent, Transition(*self.pending, reward, obs, False), self.run_rng)
        likelihoods, assignment = self.agent.act(obs, explore=True, rng=self.run_rng)
        self.pending = (obs, likelihoods)
        return assignment

    def end_episode(self, sim: Simulator):
        obs = region_observation(sim.responders, self.agent.region, sim.now, self.world)
        _learn(self.agent, Transition(*self.pending, 0.0, obs, True), self.run_rng)


def run_region_episode(world: ScenarioWorld, region: int, controller, chain_seed: int,
                       horizon_s: float, fleet: int) -> EpisodeResult:
    """One episode on the region's own incidents, its share of a city fleet
    of `fleet` (at least one) on its lowest-id depots; idle ticks as
    _sim_config gives them."""
    cells = set(world.seg.region_cells[region])
    chain = filter_chain(sample_chain(world.rates, horizon_s, chain_seed), cells)
    depots = world.region_depots(region)[:max(1, region_shares(world, fleet)[region])]
    return run_episode(world, chain, controller, _sim_config(controller),
                       initial_assignment=dict(enumerate(depots)))


def train_llp_agent(world: ScenarioWorld, region: int, cfg: TrainConfig,
                    train_seeds: list[int], seed: int,
                    agent: LlpAgent | None = None,
                    episode_hook=None) -> LlpAgent:
    """Train one region agent on chains restricted to its own cells.
    episode_hook(episode, agent) follows each episode."""
    ss = np.random.SeedSequence((seed, region))
    init_rng, run_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    if agent is None:
        agent = LlpAgent(region, len(world.region_depots(region)), cfg.ddpg, init_rng,
                         n_layers=cfg.llp_layers, n_heads=cfg.llp_heads,
                         inner_sizes=cfg.llp_inner, actor_dropout=cfg.llp_dropout,
                         critic_hidden=cfg.critic_hidden,
                         critic_dropout=cfg.critic_dropout)
    for chain_seed, fleet in _episodes(agent, cfg.episodes_llp, world, cfg, train_seeds,
                                       run_rng, episode_hook):
        controller = LlpTrainingController(agent, world, run_rng)
        run_region_episode(world, region, controller, chain_seed, cfg.horizon_s, fleet)
    return agent


def _episodes(agent, n_episodes, world, cfg, train_seeds, run_rng, episode_hook):
    """The loop both trainers share: episode k sets explore_eps(k), yields its chain
    seed and a city fleet drawn around the default, then calls episode_hook(k, agent)."""
    center = cfg.default_fleet(world)
    for k in range(n_episodes):
        agent.explore_eps = cfg.ddpg.explore_eps(k)
        yield train_seeds[k % len(train_seeds)], sample_fleet(center, len(world.depots), run_rng)
        if episode_hook is not None:
            episode_hook(k, agent)


class HlpTrainer(HierarchyController):
    """The "ours" hierarchy, its own city planner: the city agent explores
    with run_rng, and each redistribution cycle stores a transition and trains.

    The reward for each redistribution is the rate-weighted sum of the frozen
    region critics, evaluated on the post-redistribution configuration."""

    def __init__(self, hlp_agent: HlpAgent, llp_agents: dict[int, LlpAgent],
                 world: ScenarioWorld, run_rng: np.random.Generator):
        super().__init__(world, TriggerPolicy(mode="ours"), DdpgPlanner(llp_agents), self)
        self.agent = hlp_agent
        self.llp_agents = llp_agents
        self.run_rng = run_rng
        self.pending = None  # (obs, a_h, reward)
        self._open = None    # (obs, a_h) of the cycle in progress

    def on_event(self, sim: Simulator, event):
        super().on_event(sim, event)
        if self._open is not None:
            self.record_cycle(sim)

    def plan_counts(self, sim: Simulator, rng) -> dict[int, int]:
        obs = city_observation(sim)
        if self.pending is not None:
            _learn(self.agent, Transition(*self.pending, obs, False), self.run_rng)
            self.pending = None
        a_h, counts = city_decision(self.agent, obs, sim, explore=True, rng=self.run_rng)
        self._open = (obs, a_h)
        return counts

    def record_cycle(self, sim: Simulator):
        """Reward the open cycle once its redistribution and follow-up region
        planning are done."""
        obs, a_h = self._open
        self._open = None
        region_obs, region_actions = {}, {}
        for g, agent in self.llp_agents.items():
            r_obs = region_observation(sim.responders, g, sim.now, self.world)
            region_obs[g] = r_obs
            if r_obs.n_responders:
                likelihoods, _ = nn.trxl_forward(agent.actor, r_obs.actor_features())
            else:
                likelihoods = np.zeros((0, r_obs.n_depots))
            region_actions[g] = likelihoods
        reward = hlp_reward(self.llp_agents, region_obs, region_actions,
                            self.world.region_rates(sim.now))
        self.pending = (obs, a_h, reward)

    def end_episode(self, sim: Simulator):
        if self.pending is None:
            return
        # the terminal transition repeats its own observation as the next one
        _learn(self.agent, Transition(*self.pending, self.pending[0], True), self.run_rng)
        self.pending = None


def train_hlp_agent(world: ScenarioWorld, llp_agents: dict[int, LlpAgent],
                    cfg: TrainConfig, train_seeds: list[int], seed: int,
                    agent: HlpAgent | None = None, episode_hook=None) -> HlpAgent:
    """Train the city agent against frozen region agents; episode_hook as in
    train_llp_agent."""
    ss = np.random.SeedSequence((seed, 999_983))
    init_rng, run_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    region_ids = world.seg.region_ids
    if agent is None:
        agent = HlpAgent(len(region_ids), cfg.ddpg, init_rng,
                         actor_hidden=cfg.hlp_hidden, actor_dropout=cfg.hlp_dropout,
                         critic_hidden=cfg.critic_hidden,
                         critic_dropout=cfg.critic_dropout)
    for chain_seed, fleet in _episodes(agent, cfg.episodes_hlp, world, cfg, train_seeds,
                                       run_rng, episode_hook):
        chain = sample_chain(world.rates, cfg.horizon_s, chain_seed)
        trainer = HlpTrainer(agent, llp_agents, world, run_rng)
        run_episode(world, chain, trainer, _sim_config(trainer), n_responders=fleet)
    return agent


# --- checkpoints ----------------------------------------------------------------

_NETWORK_ROLES = ("actor", "actor_target", "critic", "critic_target")


def save_agents(path_dir, llp_agents: dict[int, LlpAgent],
                hlp_agent: HlpAgent | None, manifest: dict) -> None:
    path_dir = Path(path_dir)
    path_dir.mkdir(parents=True, exist_ok=True)
    agents = {**{f"llp{g}": agent for g, agent in llp_agents.items()}, "hlp": hlp_agent}
    named = {f"{prefix}_{role}": getattr(agent, role) for prefix, agent in agents.items()
             if agent is not None for role in _NETWORK_ROLES}
    nn.save_checkpoint(path_dir / "networks.npz", named)
    with open(path_dir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2)


def _read_manifest(path_dir) -> dict:
    with open(Path(path_dir) / "manifest.json") as f:
        return json.load(f)


def load_agents(path_dir, world: ScenarioWorld) -> tuple[dict[int, LlpAgent], HlpAgent | None]:
    """The checkpoint's agents, made from its networks with the DDPG settings
    its manifest records; a setting DdpgConfig does not have is a ValueError."""
    path_dir = Path(path_dir)
    settings = _read_manifest(path_dir).get("ddpg", {})
    unknown = sorted(set(settings) - {f.name for f in fields(DdpgConfig)})
    if unknown:
        raise ValueError(f"the checkpoint's manifest names unknown DDPG settings {unknown}")
    ddpg = DdpgConfig(**settings)
    networks = _check_fits(nn.load_checkpoint(path_dir / "networks.npz"), world)
    llp_agents = {g: LlpAgent.from_networks(networks[f"llp{g}"], ddpg, ddpg.gamma, region=g,
                                            n_depots=len(world.region_depots(g)))
                  for g in world.seg.region_ids}
    hlp_agent = (HlpAgent.from_networks(networks["hlp"], ddpg, ddpg.gamma_high,
                                        n_regions=len(world.seg.region_ids))
                 if "hlp" in networks else None)
    return llp_agents, hlp_agent


def _check_fits(nets: dict, world: ScenarioWorld) -> dict:
    """{agent prefix: {role: network}}, or ValueError unless the checkpoint
    holds one region agent per world region, each with all four networks and
    one output per depot of its region, and a city agent, if any, with all
    four networks and one output per region but the last."""
    regions = world.seg.region_ids
    saved = {int(name[3:name.index("_")]) for name in nets if name.startswith("llp")}
    unmatched = sorted(saved ^ set(regions))
    if unmatched:
        g = unmatched[0]
        raise ValueError(f"region {g} is in the {'checkpoint' if g in saved else 'world'} "
                         f"only: the checkpoint holds regions {sorted(saved)}, "
                         f"the world {sorted(regions)}")
    prefixes = [f"llp{g}" for g in regions]
    if any(name.startswith("hlp") for name in nets):
        prefixes.append("hlp")
    missing = [f"{p}_{role}" for p in prefixes for role in _NETWORK_ROLES
               if f"{p}_{role}" not in nets]
    if missing:
        raise ValueError(f"the checkpoint lacks the networks {missing}")
    for g in regions:
        n, depots = nets[f"llp{g}_actor"].n_outputs, len(world.region_depots(g))
        if n != depots:
            raise ValueError(f"region {g}: the checkpoint's actor has {n} outputs, "
                             f"the region has {depots} depots")
    if "hlp_actor" in nets and nets["hlp_actor"].n_outputs != len(regions) - 1:
        raise ValueError(f"the checkpoint's city actor has {nets['hlp_actor'].n_outputs} "
                         f"outputs, the world's {len(regions)} regions need {len(regions) - 1}")
    return {p: {role: nets[f"{p}_{role}"] for role in _NETWORK_ROLES} for p in prefixes}


# --- evaluation -------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    scenario_path: str
    planner: str                    # drl | mcts | pmedian | greedy | static | random
    out_dir: str
    eval_seeds: tuple[int, ...] = tuple(range(50, 60))
    fleet_size: int | None = None   # default: resolve_fleet
    horizon_s: float = 11 * 86400.0
    sigma_rate: float = 0.0         # observation noise, seen only by drl
    sigma_time: float = 0.0
    alpha: float = 1.0
    mcts: MctsConfig = field(default_factory=MctsConfig)
    seed: int = 0

    def __post_init__(self):
        if (self.sigma_rate or self.sigma_time) and self.planner != "drl":
            raise ValueError(f"observation noise reaches drl only, not {self.planner}")


def _controller(spec: ExperimentSpec, world: ScenarioWorld, agents, chain_seed: int):
    """The chain's controller, seeded by (spec.seed, chain_seed). drl runs
    `agents` behind one DdpgPlanner, the city planner too if there is a city
    agent."""
    ctrl_seed = int(np.random.SeedSequence((spec.seed, chain_seed)).generate_state(1)[0])
    if spec.planner == "drl":
        planner = DdpgPlanner(*agents, noise=NoiseModel(spec.sigma_rate, spec.sigma_time))
        return HierarchyController(world, TriggerPolicy(mode="ours"), planner,
                                   planner if planner.hlp_agent is not None else None,
                                   seed=ctrl_seed)
    if spec.planner == "static":
        return None
    planner = BaselineRegionPlanner(spec.planner, mcts_cfg=spec.mcts, alpha=spec.alpha)
    return HierarchyController(world, TriggerPolicy(mode="baseline"), planner, seed=ctrl_seed)


def build_controller(spec: ExperimentSpec, world: ScenarioWorld,
                     checkpoint_dir=None, chain_seed: int = 0):
    """One chain's controller, drl agents loaded from checkpoint_dir."""
    agents = load_agents(checkpoint_dir, world) if spec.planner == "drl" else None
    return _controller(spec, world, agents, chain_seed)


def mean_response(results) -> float | None:
    """Mean of the per-chain mean responses, chains without incidents left out."""
    means = [r.mean_response_s for r in results if r.mean_response_s is not None]
    return float(np.mean(means)) if means else None


def eval_chain(spec: ExperimentSpec, world: ScenarioWorld, agents, chain_seed: int,
               region: int | None = None) -> EpisodeResult:
    """One held-out chain under spec's planner, its record with the chain's
    responses and planner calls; agents as load_agents returns them for drl,
    else None. A region restricts the chain to the region's incidents and its
    rate-proportional share of the fleet, as run_region_episode runs them."""
    controller = _controller(spec, world, agents, chain_seed)
    fleet = resolve_fleet(world, spec.fleet_size)
    if region is None:
        chain = sample_chain(world.rates, spec.horizon_s, chain_seed)
        return run_episode(world, chain, controller, _sim_config(controller),
                           n_responders=fleet)
    return run_region_episode(world, region, controller, chain_seed, spec.horizon_s, fleet)


_worker_eval_args: tuple = ()  # (spec, world, agents), set once in each pool worker


def _init_eval_worker(spec: ExperimentSpec, world: ScenarioWorld, agents) -> None:
    global _worker_eval_args
    _worker_eval_args = (spec, world, agents)


def _eval_in_worker(chain_seed: int) -> EpisodeResult:
    return eval_chain(*_worker_eval_args, chain_seed)


def evaluate_spec(spec: ExperimentSpec, world: ScenarioWorld,
                  checkpoint_dir=None, workers: int = 1) -> list[EpisodeResult]:
    """One EpisodeResult and one episode log per eval chain, in eval-seed
    order. A trained planner's checkpoint is loaded once, after a check
    against the training chains its manifest records: a shared chain is a
    ValueError. With workers > 1 each pool worker receives the spec, world
    and agents once, at start-up, and is then sent only chain seeds."""
    agents = None
    if spec.planner == "drl":
        trained = set(_read_manifest(checkpoint_dir).get("train_seeds", ()))
        shared = sorted(trained & set(spec.eval_seeds))
        if shared:
            raise ValueError(f"eval chains {shared} are among the checkpoint's "
                             f"training chains")
        agents = load_agents(checkpoint_dir, world)
    if workers > 1:
        import multiprocessing as mp
        with mp.Pool(workers, _init_eval_worker, (spec, world, agents)) as pool:
            results = pool.map(_eval_in_worker, spec.eval_seeds)
    else:
        results = [eval_chain(spec, world, agents, s) for s in spec.eval_seeds]
    log_dir = Path(spec.out_dir) / "episodes"
    log_dir.mkdir(parents=True, exist_ok=True)
    for result in results:
        result.write_csv(log_dir / f"chain_{result.seed}.csv")
    return results


def _latency(decisions: list[tuple[str, float]]) -> dict:
    """Count, mean and max wall seconds of (level, seconds) planner calls."""
    lats = [dt for _, dt in decisions]
    return {"decision_count": len(lats),
            "latency_mean_s": float(np.mean(lats)) if lats else None,
            "latency_max_s": float(np.max(lats)) if lats else None}


def write_run_summary(results: list[EpisodeResult], out_dir) -> None:
    """run_summary.csv (seed, incidents, mean response per chain) and
    run_summary.json, which adds the planner-call latency figures derived
    from each chain's decisions."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "run_summary.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["chain_seed", "n_incidents", "mean_response_s"])
        for r in results:
            w.writerow([r.seed, r.n_incidents,
                        "" if r.mean_response_s is None else repr(r.mean_response_s)])
    run = _latency([d for r in results for d in r.decisions])
    summary = {
        "chains": len(results),
        "mean_response_s": mean_response(results),
        "decision_latency_mean_s": run["latency_mean_s"],
        "decision_latency_max_s": run["latency_max_s"],
        "per_chain": [{"chain_seed": r.seed, "n_incidents": r.n_incidents,
                       "mean_response_s": r.mean_response_s, **_latency(r.decisions)}
                      for r in results],
    }
    with open(out_dir / "run_summary.json", "w") as f:
        json.dump(summary, f, indent=2)


def read_run_summary(out_dir) -> list[tuple[int, float]]:
    rows = []
    with open(Path(out_dir) / "run_summary.csv", newline="") as f:
        for row in csv.DictReader(f):
            if row["mean_response_s"]:
                rows.append((int(row["chain_seed"]), float(row["mean_response_s"])))
    return rows


def noise_sweep(spec: ExperimentSpec, world: ScenarioWorld, checkpoint_dir,
                sigmas: list[float], workers: int = 1) -> list[dict]:
    """Mean response over the sigma grid applied to both observation channels.
    Each sigma pair writes its episode logs under its own out_dir."""
    rows = []
    for s_rate in sigmas:
        for s_time in sigmas:
            noisy = replace(spec, sigma_rate=s_rate, sigma_time=s_time,
                            out_dir=str(Path(spec.out_dir) / f"sigma_{s_rate!r}_{s_time!r}"))
            results = evaluate_spec(noisy, world, checkpoint_dir, workers)
            rows.append({"sigma_rate": s_rate, "sigma_time": s_time,
                         "mean_response_s": mean_response(results)})
    return rows


def write_noise_matrix(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["sigma_rate", "sigma_time", "mean_response_s"])
        for r in rows:
            w.writerow([r["sigma_rate"], r["sigma_time"],
                        "" if r["mean_response_s"] is None else repr(r["mean_response_s"])])


def compare_runs(named_runs: list[tuple[str, list[tuple[int, float]]]],
                 n_perms: int = 100_000, seed: int = 0) -> list[dict]:
    """Pairwise tests of every run against the first (the reference)."""
    if len(named_runs) < 2:
        raise ValueError("comparing needs at least two runs")
    ref_name, ref_rows = named_runs[0]
    ref = dict(ref_rows)
    out = []
    for name, rows in named_runs[1:]:
        other = dict(rows)
        common = sorted(set(ref) & set(other))
        if len(common) < 2:
            raise ValueError(f"runs {ref_name} and {name} share fewer than 2 chains")
        xs = [ref[c] for c in common]
        ys = [other[c] for c in common]
        out.append({
            "reference": ref_name,
            "candidate": name,
            "n_chains": len(common),
            "mean_reference_s": float(np.mean(xs)),
            "mean_candidate_s": float(np.mean(ys)),
            "p_value": permutation_test(xs, ys, n_perms=n_perms, seed=seed),
        })
    return out
