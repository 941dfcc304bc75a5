"""The benchmark's workloads and one measured run of a workload.

A run sets the workload up several times (setup_s is the median), runs one
round - a fixed, seed-derived set of chains or training episodes - untimed,
to warm up and to give the outputs the checks read, then repeats the round
until the next one would end after the run's length in wall seconds, counted
from the start of the first round. Every round does the same work, so every
round must give the same fingerprint.

Times are CPU seconds of this process (time.process_time), scaled by the
machine's speed measured alongside them (speed.py). The benchmark is
single-threaded, so on an idle core CPU time equals wall time; on a shared
machine it leaves out the time the OS gives other processes, which moved
wall-clock decision percentiles by up to 25% between identical rounds.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import resource
import shutil
import statistics
import tempfile
from dataclasses import asdict
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import checks
from ermrl import agents, baselines, harness, sim
from probe import Probe, Tracer, layer_metrics, patched
from speed import Gauge

CITY_SEED = 7            # scenario generation seed of both cities
AGENT_SEED = 1           # initial weights of every agent
TRAIN_SEED = 1           # exploration, fleet draws and minibatches in training
LLP_CHAINS = [2_000_000]                        # region agents' training chain
HLP_CHAINS = list(range(3_000_000, 3_000_015))  # city agent's first 15 chains
SETUP_REPS = 5           # set up at least this often ...
SETUP_MIN_S = 2.0        # ... and for at least this long
SETUP_SAMPLES = 9        # speed samples between set-ups
METRO = harness.ScenarioParams(nx=25, ny=25, n_depots=36, n_hospitals=6,
                               n_regions=5, citywide_rate_per_hour=6.0)
CITY = harness.ScenarioParams()


def chain_seed(seed: int, k: int) -> int:
    """k-th chain of a benchmark seed; disjoint from the 0-59 chain seeds the
    program's own experiments default to."""
    return 1_000_000 + 1000 * seed + k


def initial_agents(world, cfg: harness.TrainConfig):
    """Untrained region agents and city agent, shaped as harness training
    builds them, with weights drawn from AGENT_SEED."""
    rng = np.random.default_rng(AGENT_SEED)
    llp = {g: agents.LlpAgent(g, len(world.region_depots(g)), cfg.ddpg, rng,
                              n_layers=cfg.llp_layers, n_heads=cfg.llp_heads,
                              inner_sizes=cfg.llp_inner, actor_dropout=cfg.llp_dropout,
                              critic_hidden=cfg.critic_hidden,
                              critic_dropout=cfg.critic_dropout)
           for g in world.seg.region_ids}
    hlp = agents.HlpAgent(len(world.seg.region_ids), cfg.ddpg, rng,
                          actor_hidden=cfg.hlp_hidden, actor_dropout=cfg.hlp_dropout,
                          critic_hidden=cfg.critic_hidden, critic_dropout=cfg.critic_dropout)
    return llp, hlp


class EvalWorkload:
    """Held-out chains through build_controller + run_episode, one chain at a
    time, as harness.evaluate_spec does with workers=1. The fleet is passed
    explicitly as TrainConfig.default_fleet: the eval default of one
    responder per depot leaves search no legal move."""

    def __init__(self, city, planner: str, n_chains: int, chain_days: float,
                 mcts: baselines.MctsConfig | None = None):
        self.city = city
        self.planner = planner
        self.n_chains = n_chains
        self.horizon_s = chain_days * 86400.0
        self.mcts = mcts or baselines.MctsConfig()

    def setup(self, seed: int, workdir: Path) -> dict:
        world = harness.generate_scenario(self.city, CITY_SEED)
        train = harness.TrainConfig()
        spec = harness.ExperimentSpec(
            scenario_path="", planner=self.planner, out_dir=str(workdir),
            eval_seeds=tuple(chain_seed(seed, k) for k in range(self.n_chains)),
            fleet_size=train.default_fleet(world), horizon_s=self.horizon_s,
            mcts=self.mcts, seed=seed)
        chains = [sim.sample_chain(world.rates, spec.horizon_s, s) for s in spec.eval_seeds]
        if self.planner == "drl":
            llp, hlp = initial_agents(world, train)
            harness.save_agents(workdir, llp, hlp, {"ddpg": asdict(train.ddpg)})
        return {"world": world, "spec": spec, "chains": chains, "workdir": workdir}

    def run_chain(self, state: dict, k: int) -> sim.EpisodeResult:
        spec = state["spec"]
        controller = harness.build_controller(spec, state["world"], state["workdir"],
                                              spec.eval_seeds[k])
        trigger = controller.trigger
        cfg = sim.SimConfig(idle_timeout_s=trigger.idle_timeout_s
                            if trigger.mode == "baseline" else None)
        return sim.run_episode(state["world"], state["chains"][k], controller, cfg,
                               n_responders=spec.fleet_size)

    def run_round(self, state: dict) -> bytes:
        for k in range(self.n_chains):
            self.run_chain(state, k)
        return b""

    def replay_failures(self, state: dict, first: "Round") -> list[str]:
        replay = self.run_chain(state, 0)
        if replay.response_log != first.probe.episodes[0][1].response_log:
            return ["replaying the first chain changed its response log"]
        return []


class TrainWorkload:
    """Region agents of every region, then the city agent, through
    harness.train_llp_agent / train_hlp_agent from fresh copies of the same
    initial agents.

    The seed draws only the chain of the city agent's last episode; the
    other chains and the training RNG are fixed. The learned policy, and
    with it every later response time, follows the order of the data
    chaotically: five orders of the same chains moved mean_response_s by 15%
    (interquartile range over median), which would hide any speed signal.
    The chains fix how many transitions, and so how many updates, a round
    makes."""

    def __init__(self, city, llp_cfg: harness.TrainConfig, hlp_cfg: harness.TrainConfig):
        self.city = city
        self.llp_cfg = llp_cfg
        self.hlp_cfg = hlp_cfg

    def setup(self, seed: int, workdir: Path) -> dict:
        world = harness.generate_scenario(self.city, CITY_SEED)
        llp, hlp = initial_agents(world, self.hlp_cfg)
        return {"world": world, "llp": llp, "hlp": hlp,
                "hlp_chains": HLP_CHAINS + [chain_seed(seed, 0)]}

    def run_round(self, state: dict) -> bytes:
        """Train; return the trained parameters' bytes for the fingerprint."""
        world = state["world"]
        llp = copy.deepcopy(state["llp"])
        hlp = copy.deepcopy(state["hlp"])
        for g, agent in llp.items():
            harness.train_llp_agent(world, g, self.llp_cfg, LLP_CHAINS, TRAIN_SEED,
                                    agent=agent)
        harness.train_hlp_agent(world, llp, self.hlp_cfg, state["hlp_chains"], TRAIN_SEED,
                                agent=hlp)
        return b"".join(arr.tobytes() for a in [*llp.values(), hlp]
                        for arr in learner_arrays(a))

    def replay_failures(self, state: dict, first: "Round") -> list[str]:
        return []  # every round already replays training from the same agents


WORKLOADS = {
    # region matrices up to 10x10: matching and region observations dominate
    "metro-drl": lambda: EvalWorkload(METRO, "drl", n_chains=4, chain_days=2),
    # search budget cut from 1000 iterations x 50 futures x 24 h so that a
    # round still makes over 1000 decisions in a few seconds
    "city-mcts": lambda: EvalWorkload(
        CITY, "mcts", n_chains=4, chain_days=2,
        mcts=baselines.MctsConfig(iteration_limit=24, n_samples=4,
                                  rollout_horizon_s=6 * 3600.0)),
    # region agents: one 1.5-day chain each. City agent: sixteen 2-day chains,
    # about 128 transitions, so updates start once its 64-transition batch
    # fills; plan_counts calls that update are about 2% of the round's
    # planner invocations, so decision_p99_ms falls among them.
    "city-train": lambda: TrainWorkload(
        CITY, harness.TrainConfig(episodes_llp=len(LLP_CHAINS), horizon_s=1.5 * 86400.0),
        harness.TrainConfig(episodes_hlp=len(HLP_CHAINS) + 1, horizon_s=2 * 86400.0)),
}


def learner_arrays(agent):
    return [arr for net in (agent.actor, agent.actor_target, agent.critic,
                            agent.critic_target) for arr in net.arrays()]


# --- one run -----------------------------------------------------------------------

class Round:
    """One pass over the workload's fixed work. Only the first round keeps the
    probe's records, for the checks, so memory does not grow with rounds.
    cpu and latencies are scaled by the machine's speed (speed.py); raw_cpu
    and raw_latencies are the CPU seconds as measured."""

    def __init__(self, probe: Probe, tracer: Tracer | None, start: float, end: float,
                 wall: float, extra: bytes):
        self.probe = probe
        self.tracer = tracer
        self.raw_cpu = end - start
        self.cpu = probe.gauge.scaled_cpu(start, end)
        self.slowdown = probe.gauge.median_slowdown()
        self.wall = wall
        self.raw_latencies = probe.latencies
        self.latencies = (np.array(probe.latencies)
                          / probe.gauge.slowdown()[probe.latency_marks])
        self.incidents = sum(len(r.response_log) for _, r in probe.episodes)
        self.updates = {kind: sum(rec[1] for rec in probe.learners.values()
                                  if isinstance(rec[0], kind))
                        for kind in (agents.LlpAgent, agents.HlpAgent)}
        self.ops = (len(probe.episodes) + len(probe.region_plans) + len(probe.count_plans)
                    + len(probe.matchings) + len(probe.learners))
        digest = checks.response_digest([r.response_log for _, r in probe.episodes])
        self.fingerprint = hashlib.sha256(digest.encode() + extra).hexdigest()


def run_round(workload, state: dict, traced: bool) -> Round:
    probe = Probe()
    tracer = Tracer() if traced else None
    if tracer is not None:
        probe.sample = tracer.wrap("bench.gauge", probe.sample)
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(patched(tracer.replacements()))
        stack.enter_context(patched(probe.replacements()))
        run = workload.run_round if tracer is None else tracer.wrap("bench.round",
                                                                  workload.run_round)
        t0, c0 = perf_counter(), process_time()
        extra = run(state)
        c1, wall = process_time(), perf_counter() - t0
    return Round(probe, tracer, c0, c1, wall, extra)


def check_failures(first: Round) -> tuple[int, list[str]]:
    """Failed operations of one round, with their messages."""
    p = first.probe
    per_op = [checks.response_log_failures(chain.incidents, result.response_log)
              for chain, result in p.episodes]
    per_op += [checks.region_plan_failures(*rec) for rec in p.region_plans]
    per_op += [checks.count_plan_failures(*rec) for rec in p.count_plans]
    per_op += [checks.matching_failures(*rec) for rec in p.matchings]
    for agent, updates, losses in p.learners.values():
        per_op.append(
            checks.update_count_failures(updates, len(agent.buffer), agent.cfg.batch_size)
            + checks.finite_failures("a training loss", losses)
            + checks.finite_failures("a trained parameter", learner_arrays(agent)))
    messages = [m for fails in per_op for m in fails]
    return sum(1 for fails in per_op if fails), messages


def measure(name: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    workload = WORKLOADS[name]()
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out))
    try:
        state, setup_cpu, setup_s = timed_setups(workload, seed, workdir)

        # the first round warms up and is checked, untimed; then, with
        # tracing, untraced and traced rounds alternate
        start = perf_counter()
        rounds = [run_round(workload, state, traced=False)]
        while (len(rounds) < 2 + trace
               or perf_counter() - start + max(r.wall for r in rounds) <= seconds):
            rounds.append(run_round(workload, state, traced=trace and len(rounds) % 2 == 0))
            rounds[-1].probe = None
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        first = rounds[0]
        n_failed, messages = check_failures(first)
        if len({r.fingerprint for r in rounds}) != 1:
            messages.append("rounds of identical work gave different fingerprints")
        messages += workload.replay_failures(state, first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [r for r in rounds[1:] if r.tracer is None]
    traced = [r for r in rounds if r.tracer is not None]
    if trace:
        metrics = traced_metrics(traced, untraced)
        with open(out / f"trace-{name}-seed{seed}.jsonl", "w") as f:
            for i, r in enumerate(rounds):
                if r.tracer is not None:
                    r.tracer.write_jsonl(f, i)
    else:
        responses = [resp for _, res in first.probe.episodes for _, _, resp in res.response_log]
        metrics = {
            "setup_s": setup_s,
            "incidents_per_s": statistics.median(r.incidents / r.cpu for r in untraced),
            **{f"decision_p{q}_ms": float(np.percentile(decision_latencies(untraced), q)) * 1e3
               for q in (50, 90, 99)},
            "mean_response_s": float(np.mean(responses)),
            "peak_rss_mb": peak_rss_mb,
        }
    return {
        "workload": name, "seed": seed, "trace": int(trace), "rounds": len(rounds),
        "decisions_per_round": len(first.latencies),
        "round_cpu_s": [r.cpu for r in rounds], "round_wall_s": [r.wall for r in rounds],
        "round_raw_cpu_s": [r.raw_cpu for r in rounds],
        "round_slowdown": [r.slowdown for r in rounds],
        "setup_raw_cpu_s": statistics.median(setup_cpu),
        "raw_decision_p50_ms": float(np.median(decision_latencies(untraced, raw=True))) * 1e3,
        "fingerprint": first.fingerprint, "messages": messages[:20],
        "attempted": first.ops * len(rounds), "failed": n_failed * len(rounds),
        "correct": not messages, "metrics": metrics,
    }


def timed_setups(workload, seed: int, workdir: Path) -> tuple[dict, list[float], float]:
    """Set the workload up SETUP_REPS times and for SETUP_MIN_S at least,
    with speed samples before and after each set-up. Returns the last
    set-up's state, the raw CPU seconds of each set-up and the median of
    their scaled CPU seconds."""
    gauge = Gauge()
    raw, scaled = [], []
    while len(raw) < SETUP_REPS or sum(raw) < SETUP_MIN_S:
        for _ in range(SETUP_SAMPLES):
            gauge.sample()
        c0 = process_time()
        state = workload.setup(seed, workdir)
        raw.append(process_time() - c0)
    for _ in range(SETUP_SAMPLES):
        gauge.sample()
    for k, cpu in enumerate(raw):
        scaled.append(cpu / gauge.median_slowdown(k * SETUP_SAMPLES, (k + 2) * SETUP_SAMPLES))
    return state, raw, statistics.median(scaled)


def decision_latencies(rounds: list[Round], raw: bool = False) -> np.ndarray:
    """Each decision's median latency over the rounds, in seconds, scaled
    unless raw.

    Rounds replay the same decisions in the same order, so pairing them by
    position and taking the median removes most scheduling jitter; the
    percentiles are then taken over decisions. Without jitter removal the
    median decision jumped across the gap between the latencies of two
    region sizes from one round to the next."""
    per_round = [r.raw_latencies if raw else r.latencies for r in rounds]
    if len({len(lat) for lat in per_round}) != 1:
        per_round = per_round[:1]  # not a replay; the fingerprint check fails the run
    return np.median(np.array(per_round), axis=0)


def traced_metrics(traced: list[Round], untraced: list[Round]) -> dict:
    """Per-layer metrics: medians over traced rounds of per-round figures."""
    per_round = [layer_metrics(r.tracer.spans, r.tracer.counts) for r in traced]
    for m, r in zip(per_round, traced):
        m["trace.self_cover"] = sum(v for k, v in m.items() if k.startswith("self.")) / r.wall
        m["agents.llp_updates"] = r.updates[agents.LlpAgent]
        m["agents.hlp_updates"] = r.updates[agents.HlpAgent]
    metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    metrics["trace.slowdown"] = (statistics.median(r.cpu for r in traced)
                                 / statistics.median(r.cpu for r in untraced))
    metrics["train.updates_per_s"] = statistics.median(sum(r.updates.values()) / r.cpu
                                                       for r in untraced)
    return metrics
