"""Actor-critic agents for region-level and city-level repositioning.

Low-level agents pair a transformer actor (variable responder count) with a
fixed-size critic over per-depot features; high-level agents are MLP pairs
over per-region features. Both levels share one DDPG update (`DdpgAgent`):
FIFO replay, target networks with Polyak updates, and gradient ascent of the
critic through the continuous action. Rewards are negated response times
scaled to O(1); the city agent's reward is estimated from the region critics
instead of raw response times.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import nn
from .features import (RegionObservation, actor_features, critic_features,
                       critic_features_grad, group_by_count)
from .optim import greedy_redistribute, max_weight_match, normalize_hlp


@dataclass(frozen=True)
class DdpgConfig:
    gamma: float = 0.5              # per decision epoch, region agents
    gamma_high: float = 0.95        # city agent; its reward is itself a value estimate
    tau: float = 0.005
    batch_size: int = 64
    buffer_capacity: int = 100_000
    lr: float = 1e-3
    eps_start: float = 0.3
    eps_end: float = 0.01
    eps_decay_episodes: int = 150
    reward_scale_s: float = 600.0

    def explore_eps(self, episode: int) -> float:
        if self.eps_decay_episodes <= 0:
            return self.eps_end
        frac = min(episode / self.eps_decay_episodes, 1.0)
        return self.eps_start + frac * (self.eps_end - self.eps_start)


class ReplayBuffer:
    """Bounded FIFO experience store; oldest transition evicted first."""

    def __init__(self, capacity: int):
        self._items: deque = deque(maxlen=capacity)

    def push(self, item) -> None:
        self._items.append(item)

    def sample(self, batch_size: int, rng: np.random.Generator) -> list:
        idx = rng.choice(len(self._items), size=batch_size, replace=False)
        return [self._items[i] for i in idx]

    def __len__(self) -> int:
        return len(self._items)


class DdpgAgent:
    """Actor, critic, their target copies, Adam states and replay, with the
    DDPG update both agent levels share. Each network runs once over the
    batch (see nn), seeded so that its backward pass returns the batch-mean
    gradient; a loop over the transitions gives the same update to rounding.

    A subclass supplies, for lists of observations: critic inputs (B, w) for
    their actions, the target actor's actions (None where there is nothing to
    bootstrap from), and the batch-mean actor Q and gradient of -Q (counting
    observations it cannot act on as zero)."""

    def __init__(self, actor, critic, cfg: DdpgConfig, gamma: float,
                 actor_target=None, critic_target=None):
        self.cfg = cfg
        self.gamma = gamma
        self.actor = actor
        self.actor_target = copy.deepcopy(actor) if actor_target is None else actor_target
        self.critic = critic
        self.critic_target = copy.deepcopy(critic) if critic_target is None else critic_target
        self.actor_opt = nn.adam_init(actor)
        self.critic_opt = nn.adam_init(critic)
        self.buffer = ReplayBuffer(cfg.buffer_capacity)
        self.explore_eps = cfg.eps_start
        self.updates: list[dict] = []  # train_step statistics, in order

    @classmethod
    def from_networks(cls, networks: dict, cfg: DdpgConfig, gamma: float, **attrs):
        """An agent around the four given networks {role: network}, with the attrs
        cls's constructor would set, zeroed Adam moments and an empty buffer."""
        agent = cls.__new__(cls)
        vars(agent).update(attrs)
        DdpgAgent.__init__(agent, cfg=cfg, gamma=gamma, **networks)
        return agent

    def observe(self, transition) -> None:
        self.buffer.push(transition)

    def q_value(self, obs, action) -> float:
        q, _ = self._critic(self.critic, [obs], [action])
        return float(q[0, 0, 0])

    def _critic(self, net, observations, actions, train=False, rng=None):
        """One (B, 1, w) pass; (B, w) @ W would change the bits of (1, w) calls."""
        x = self.critic_inputs(observations, actions)[:, None, :]
        return nn.mlp_forward(net, x, train=train, rng=rng)

    def train_step(self, rng: np.random.Generator) -> dict | None:
        """One minibatch update of critic then actor, then both targets; its
        statistics are appended to `updates` and returned. None until the
        buffer holds a batch, and for an actor without outputs (a one-region
        city agent has nothing to distribute)."""
        cfg = self.cfg
        n = cfg.batch_size
        if len(self.buffer) < n or self.actor.n_outputs == 0:
            return None
        batch = self.buffer.sample(n, rng)

        y = np.array([tr.reward for tr in batch], dtype=float)
        actions = self.target_actions([tr.next_obs for tr in batch])
        boot = [k for k, a in enumerate(actions) if a is not None and not batch[k].terminal]
        if boot:
            q, _ = self._critic(self.critic_target, [batch[k].next_obs for k in boot],
                                [actions[k] for k in boot])
            y[boot] += self.gamma * q[:, 0, 0]
        q, cache = self._critic(self.critic, [tr.obs for tr in batch],
                                [tr.action for tr in batch], train=True, rng=rng)
        err = q[:, 0, 0] - y
        _, grads = nn.mlp_backward(self.critic, cache, 2.0 / n * err[:, None, None])
        nn.adam_step(self.critic_opt, self.critic, grads, cfg.lr)

        actor_q, grads = self.actor_gradients([tr.obs for tr in batch], train=True, rng=rng)
        nn.adam_step(self.actor_opt, self.actor, grads, cfg.lr)

        nn.soft_update(self.actor_target, self.actor, cfg.tau)
        nn.soft_update(self.critic_target, self.critic, cfg.tau)
        self.updates.append({"critic_loss": float(err @ err) / n, "actor_q": actor_q,
                             "explore_eps": self.explore_eps,
                             "buffer_size": len(self.buffer)})
        return self.updates[-1]


@dataclass
class Transition:
    obs: RegionObservation | np.ndarray   # region observation, or hlp_observation vector
    action: np.ndarray   # executed likelihoods (responders, depots), or raw city action
    reward: float
    next_obs: RegionObservation | np.ndarray
    terminal: bool


class LlpAgent(DdpgAgent):
    """Region repositioning agent: transformer actor + per-depot critic."""

    def __init__(self, region: int, n_depots: int, cfg: DdpgConfig,
                 rng: np.random.Generator, n_layers: int = 1, n_heads: int = 2,
                 inner_sizes: tuple[int, ...] = (64,), actor_dropout: float = 0.0,
                 critic_hidden: tuple[int, ...] = (64,), critic_dropout: float = 0.1):
        self.region = region
        self.n_depots = n_depots
        feat_dim = 2 * n_depots
        actor = nn.trxl_init(feat_dim, n_depots, rng, width=feat_dim,
                             n_heads=n_heads, n_layers=n_layers,
                             inner_sizes=inner_sizes, inner_dropout=actor_dropout)
        dropouts = [critic_dropout] * len(critic_hidden) + [0.0]
        critic = nn.mlp_init([3 * n_depots, *critic_hidden, 1], rng, dropouts=dropouts)
        super().__init__(actor, critic, cfg, cfg.gamma)

    def act(self, obs: RegionObservation, explore: bool,
            rng: np.random.Generator | None = None) -> tuple[np.ndarray, dict[int, int]]:
        """Continuous likelihoods plus their matched discrete assignment."""
        if obs.n_responders < 1:
            raise ValueError("acting requires at least one responder in the region")
        probs, _ = nn.trxl_forward(self.actor, obs.actor_features())
        if explore:
            if rng is None:
                raise ValueError("exploration requires an rng")
            # flip-capable exploration: resample whole rows on the simplex;
            # blending with a fixed weight cannot undo a confident row
            resample = rng.random(obs.n_responders) < self.explore_eps
            if resample.any():
                probs = probs.copy()
                probs[resample] = rng.dirichlet(np.ones(obs.n_depots),
                                                size=int(resample.sum()))
        matched = max_weight_match(probs)
        assignment = {obs.responder_ids[v]: obs.depot_ids[d] for v, d in matched.items()}
        return probs, assignment

    def critic_inputs(self, observations: list[RegionObservation],
                      actions: list[np.ndarray]) -> np.ndarray:
        x = np.empty((len(observations), 3 * self.n_depots))
        for _, members, phi, lam in group_by_count(observations):
            x[members] = critic_features(phi, lam, np.stack([actions[k] for k in members]))
        return x

    def target_actions(self, observations: list[RegionObservation]) -> list:
        actions = [None] * len(observations)
        for n, members, phi, lam in group_by_count(observations):
            if n:
                probs, _ = nn.trxl_forward(self.actor_target, actor_features(phi, lam))
                for k, p in zip(members, probs):
                    actions[k] = p
        return actions

    def actor_gradients(self, observations: list[RegionObservation], train: bool = False,
                        rng: np.random.Generator | None = None):
        """Batch means of Q(s, actor(s)) and of the gradient of -Q wrt the
        actor parameters, from one pass per responder count (actor dropout
        draws in that order); observations without responders add zero. The
        critic's value flows back through the occupancy and arrival features."""
        n = len(observations)
        q_sum, grads = 0.0, [np.zeros_like(a) for a in self.actor.arrays()]
        for count, members, phi, lam in group_by_count(observations):
            if not count:
                continue
            probs, a_cache = nn.trxl_forward(self.actor, actor_features(phi, lam),
                                             train=train, rng=rng)
            q, c_cache = nn.mlp_forward(self.critic, critic_features(phi, lam, probs)[:, None])
            dfeat, _ = nn.mlp_backward(self.critic, c_cache, np.full(q.shape, -1.0 / n))
            _, g = nn.trxl_backward(self.actor, a_cache,
                                    critic_features_grad(phi, probs, dfeat[:, 0]))
            q_sum += float(q.sum())
            for total, part in zip(grads, g, strict=True):
                total += part
        return q_sum / n, grads


class HlpAgent(DdpgAgent):
    """City agent distributing the fleet across regions."""

    def __init__(self, n_regions: int, cfg: DdpgConfig, rng: np.random.Generator,
                 actor_hidden: tuple[int, ...] = (256, 64), actor_dropout: float = 0.1,
                 critic_hidden: tuple[int, ...] = (64,), critic_dropout: float = 0.1):
        self.n_regions = n_regions
        in_dim = 2 * n_regions
        out_dim = max(n_regions - 1, 0)
        acts = ["relu"] * len(actor_hidden) + ["softplus"]
        drops = [actor_dropout] * len(actor_hidden) + [0.0]
        actor = nn.mlp_init([in_dim, *actor_hidden, out_dim], rng,
                            activations=acts, dropouts=drops)
        cdrops = [critic_dropout] * len(critic_hidden) + [0.0]
        critic = nn.mlp_init([in_dim + out_dim, *critic_hidden, 1], rng, dropouts=cdrops)
        super().__init__(actor, critic, cfg, cfg.gamma_high)

    def act(self, obs: np.ndarray, fleet_size: int, caps: list[int], explore: bool,
            rng: np.random.Generator | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Raw nonnegative ratios plus the discrete per-region counts."""
        if self.n_regions == 1:
            return np.zeros(0), np.array([fleet_size])
        raw, _ = nn.mlp_forward(self.actor, obs[None, :])
        a_h = raw[0]
        p = normalize_hlp(a_h)
        if explore:
            if rng is None:
                raise ValueError("exploration requires an rng")
            if rng.random() < self.explore_eps:
                # fresh simplex draw, floored so the inverse stays bounded
                p = np.maximum(rng.dirichlet(np.ones(len(p))), 1e-2)
                p = p / p.sum()
                a_h = p[:-1] / p[-1]
        counts = greedy_redistribute(p, fleet_size, caps)
        return a_h, counts

    def critic_inputs(self, observations: list[np.ndarray],
                      actions: list[np.ndarray]) -> np.ndarray:
        return np.concatenate([np.stack(observations), np.stack(actions)], axis=-1)

    def target_actions(self, observations: list[np.ndarray]) -> list:
        a, _ = nn.mlp_forward(self.actor_target, np.stack(observations)[:, None, :])
        return list(a[:, 0])

    def actor_gradients(self, observations: list[np.ndarray], train: bool = False,
                        rng: np.random.Generator | None = None):
        """Batch means of Q(s, actor(s)) and of the gradient of -Q wrt the
        actor parameters."""
        obs = np.stack(observations)[:, None, :]
        a, a_cache = nn.mlp_forward(self.actor, obs, train=train, rng=rng)
        q, c_cache = nn.mlp_forward(self.critic, np.concatenate([obs, a], axis=-1))
        dx, _ = nn.mlp_backward(self.critic, c_cache, np.full(q.shape, -1.0 / len(obs)))
        _, grads = nn.mlp_backward(self.actor, a_cache, dx[..., obs.shape[-1]:])
        return float(q.mean()), grads


def hlp_reward(llp_agents: dict[int, LlpAgent],
               observations: dict[int, RegionObservation],
               actions: dict[int, np.ndarray],
               region_rates: dict[int, float]) -> float:
    """Rate-weighted mean of region critic values for the current allocation.

    Normalizing by the total rate keeps the estimate on the critics' scale
    instead of growing with city-wide demand.
    """
    total_rate = sum(region_rates.values())
    if total_rate <= 0.0:
        return 0.0
    acc = 0.0
    for g, agent in llp_agents.items():
        lam = region_rates[g]
        if lam == 0.0:
            continue
        acc += lam * agent.q_value(observations[g], actions[g])
    return acc / total_rate


def sample_fleet(center: int, total_capacity: int, rng: np.random.Generator) -> int:
    """A training episode's city fleet: center - 3 to center + 3, within [1, capacity]."""
    n = int(center + rng.integers(-3, 4))
    return max(1, min(n, total_capacity))


def reward_from_response(response_s: float, cfg: DdpgConfig) -> float:
    """Response times enter learning as negative, rescaled rewards."""
    return -response_s / cfg.reward_scale_s
