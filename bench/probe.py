"""Wrappers the benchmark installs around the program's public functions.

`Probe` is installed on every round: it times each planner invocation (one
call into `plan_region` or `plan_counts`, covering observe, act and
discretize) in CPU seconds, samples the machine's speed right before each
and before every other agent call outside them (speed.py), and keeps what
the output checks need. `Tracer` is installed on traced rounds only: it
records one span per call at each layer boundary and counts the calls of
the hottest lookups.
Both patch class and module attributes for the length of a round and restore
them afterwards, so the program's code is never edited.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter
from time import perf_counter, process_time

from ermrl import (agents, baselines, features, geo, harness, hierarchy, nn,
                   optim, sim)
from speed import Gauge

MODULES = (geo, sim, features, optim, nn, agents, hierarchy, baselines, harness)

_MISSING = object()


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples; restore them on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def rebind(owner, attr, wrap):
    """Replacements putting wrap(function) everywhere the function is reachable
    by name: a module function is also bound in each module that imported it
    with `from ... import`, and all those names must see one wrapper."""
    fn = getattr(owner, attr)
    wrapper = wrap(fn)
    if isinstance(owner, type):
        return [(owner, attr, wrapper)]
    return [(m, name, wrapper) for m in MODULES for name, v in vars(m).items() if v is fn]


class Probe:
    """Per-round decision latencies plus the records the checks consume."""

    def __init__(self):
        self.gauge = Gauge()
        self.sample = self.gauge.sample
        self.latencies: list[float] = []   # CPU seconds per planner invocation
        self.latency_marks: list[int] = [] # the speed sample taken right before it
        self._planning = False
        self.region_plans = []             # (region members, region depots, plan)
        self.count_plans = []              # (counts, fleet size, region caps)
        self.matchings = []                # (probs, responder ids, depot ids, assignment)
        self.episodes = []                 # (chain, EpisodeResult)
        self.learners = {}                 # id(agent) -> [agent, updates, losses]

    def replacements(self):
        out = []
        for cls in (hierarchy.DdpgPlanner, baselines.BaselineRegionPlanner):
            out.append((cls, "plan_region", self._plan_region(cls.plan_region)))
        for cls in (hierarchy.DdpgPlanner, harness.HlpTrainer):
            out.append((cls, "plan_counts", self._plan_counts(cls.plan_counts)))
        out.append((agents.LlpAgent, "act", self._act(agents.LlpAgent.act)))
        for cls in (agents.LlpAgent, agents.HlpAgent):
            out.append((cls, "train_step", self._train_step(cls.train_step)))
        return out + rebind(sim, "run_episode", self._run_episode)

    def _timed(self, fn, *args):
        """fn(*args), timed as one planner invocation."""
        self.sample()
        self.latency_marks.append(len(self.gauge.marks) - 1)
        self._planning = True
        t0 = process_time()
        out = fn(*args)
        self.latencies.append(process_time() - t0)
        self._planning = False
        return out

    def _between(self):
        """A speed sample, unless it would fall inside a timed invocation."""
        if not self._planning:
            self.sample()

    def _plan_region(self, fn):
        def plan_region(planner, s, region, rng):
            plan = self._timed(fn, planner, s, region, rng)
            self.region_plans.append((s.region_responders(region),
                                      s.world.region_depots(region), dict(plan)))
            return plan
        return plan_region

    def _plan_counts(self, fn):
        def plan_counts(planner, s, rng):
            counts = self._timed(fn, planner, s, rng)
            self.count_plans.append((dict(counts), len(s.responders),
                                     s.world.region_caps()))
            return counts
        return plan_counts

    def _act(self, fn):
        def act(agent, obs, *args, **kwargs):
            self._between()
            probs, assignment = fn(agent, obs, *args, **kwargs)
            self.matchings.append((probs, obs.responder_ids, obs.depot_ids,
                                   dict(assignment)))
            return probs, assignment
        return act

    def _train_step(self, fn):
        def train_step(agent, rng):
            self._between()
            stats = fn(agent, rng)
            rec = self.learners.setdefault(id(agent), [agent, 0, []])
            if stats is not None:
                rec[1] += 1
                rec[2].append((stats["critic_loss"], stats["actor_q"]))
            return stats
        return train_step

    def _run_episode(self, fn):
        def run_episode(world, chain, *args, **kwargs):
            result = fn(world, chain, *args, **kwargs)
            self.episodes.append((chain, result))
            return result
        return run_episode


# --- tracing ---------------------------------------------------------------------

# (owner, attribute, span name); the name's prefix is the layer
SPANS = (
    (sim, "run_episode", "sim.run_episode"),
    (sim.Simulator, "run", "sim.run"),
    (sim.Simulator, "dispatch", "sim.dispatch"),
    (geo, "nearby_rates", "geo.nearby_rates"),
    (features, "region_observation", "features.region_observation"),
    (optim, "max_weight_match", "optim.max_weight_match"),
    (optim, "greedy_redistribute", "optim.greedy_redistribute"),
    (optim, "min_cost_flow_assign", "optim.min_cost_flow_assign"),
    (nn, "trxl_forward", "nn.trxl_forward"),
    (nn, "trxl_backward", "nn.trxl_backward"),
    (nn, "mlp_forward", "nn.mlp_forward"),
    (nn, "mlp_backward", "nn.mlp_backward"),
    (nn, "adam_step", "nn.adam_step"),
    (nn, "soft_update", "nn.soft_update"),
    (agents.LlpAgent, "act", "agents.llp_act"),
    (agents.LlpAgent, "train_step", "agents.llp_train_step"),
    (agents.LlpAgent, "actor_gradients", "agents.llp_actor_gradients"),
    (agents.HlpAgent, "train_step", "agents.hlp_train_step"),
    (hierarchy.HierarchyController, "begin_episode", "hierarchy.begin_episode"),
    (hierarchy.HierarchyController, "on_event", "hierarchy.on_event"),
    (hierarchy.HierarchyController, "end_episode", "hierarchy.end_episode"),
    (hierarchy.DdpgPlanner, "plan_region", "hierarchy.plan_region"),
    (baselines.BaselineRegionPlanner, "plan_region", "hierarchy.plan_region"),
    (hierarchy.DdpgPlanner, "plan_counts", "hierarchy.plan_counts"),
    (harness.HlpTrainer, "plan_counts", "hierarchy.plan_counts"),
    (hierarchy, "apply_hlp_counts", "hierarchy.apply_hlp_counts"),
    (baselines, "mcts_plan", "baselines.mcts_plan"),
    (harness.LlpTrainingController, "begin_episode", "harness.llp_controller"),
    (harness.LlpTrainingController, "on_event", "harness.llp_controller"),
    (harness.LlpTrainingController, "end_episode", "harness.llp_controller"),
    (harness.HlpTrainer, "record_cycle", "harness.hlp_trainer"),
    (harness.HlpTrainer, "end_episode", "harness.hlp_trainer"),
    (harness, "train_llp_agent", "harness.train_llp_agent"),
    (harness, "train_hlp_agent", "harness.train_hlp_agent"),
)

# called millions of times by search; counted, not spanned, to keep the
# traced run close to the untraced one
COUNTS = (
    (geo.TravelModel, "travel_time", "geo.travel_time"),
    (geo.ScenarioWorld, "nearest_hospital", "geo.nearest_hospital"),
)

# simulator callbacks into the controller; sim.self_s excludes them
CALLBACKS = frozenset({"hierarchy.begin_episode", "hierarchy.on_event",
                       "hierarchy.end_episode", "harness.llp_controller"})

LAYERS = ("bench", "sim", "geo", "features", "optim", "nn", "agents",
          "hierarchy", "baselines", "harness")


class Tracer:
    """In-memory spans [id, parent id, name, start, end] and call counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def replacements(self):
        out = []
        for owner, attr, name in SPANS:
            out += rebind(owner, attr, lambda fn: self.wrap(name, fn))
        for owner, attr, name in COUNTS:
            out += rebind(owner, attr, lambda fn: self._count(name, fn))
        return out

    def wrap(self, name, fn):
        """fn, recording one span per call."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1], name, perf_counter(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = perf_counter()
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def write_jsonl(self, f, round_index: int) -> None:
        for sid, parent, name, start, end in self.spans:
            f.write(json.dumps({"round": round_index, "id": sid, "parent": parent,
                                "name": name, "start": start, "end": end}) + "\n")


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer counts and times of one traced round.

    `<name>_calls` counts a function's calls and `<name>_s` is the total
    duration of its spans, children included. `self.<layer>_s` is span time
    minus the time child spans cover, summed per layer, so the self times add
    up to the round's traced wall time.
    """
    n = len(spans)
    dur = [s[4] - s[3] for s in spans]
    child_time = [0.0] * n
    callback_time = [0.0] * n
    for sid, parent, name, _, _ in spans:
        if parent >= 0:
            child_time[parent] += dur[sid]
            if name in CALLBACKS:
                callback_time[parent] += dur[sid]
    calls: Counter = Counter()
    total: Counter = Counter()
    self_time = {layer: 0.0 for layer in LAYERS}
    for sid, _, name, _, _ in spans:
        calls[name] += 1
        total[name] += dur[sid]
        self_time[name.split(".", 1)[0]] += dur[sid] - child_time[sid]

    planned = set()   # on_event spans with a planner call below them
    for sid, parent, name, _, _ in spans:
        if name in ("hierarchy.plan_region", "hierarchy.plan_counts"):
            while parent >= 0 and spans[parent][2] != "hierarchy.on_event":
                parent = spans[parent][1]
            if parent >= 0:
                planned.add(parent)
    actor_update = sum(dur[sid] for sid, parent, name, _, _ in spans
                       if name == "agents.llp_actor_gradients" and parent >= 0
                       and spans[parent][2] == "agents.llp_train_step")

    m = {
        "sim.self_s": sum(dur[sid] - callback_time[sid]
                          for sid, _, name, _, _ in spans if name == "sim.run"),
        "agents.llp_actor_update_s": actor_update,
        "agents.llp_critic_update_s": total["agents.llp_train_step"] - actor_update,
        "hierarchy.noop_events": calls["hierarchy.on_event"] - len(planned),
    }
    for name in {name for _, _, name in SPANS}:
        m[f"{name}_calls"] = calls[name]
        m[f"{name}_s"] = total[name]
    for _, _, name in COUNTS:
        m[f"{name}_calls"] = counts[name]
    for layer, t in self_time.items():
        m[f"self.{layer}_s"] = t
    m["trace.spans"] = n
    return m
