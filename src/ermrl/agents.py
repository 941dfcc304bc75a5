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

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import nn
from .features import RegionObservation, critic_features, critic_features_grad
from .optim import greedy_redistribute, max_weight_match, normalize_hlp


@dataclass(frozen=True)
class DdpgConfig:
    gamma: float = 0.5              # per decision epoch, region agents
    gamma_high: float = 0.95        # city agent; its reward is itself a value estimate
    hlp_bandit: bool = False        # treat the city problem as a bandit (gamma_high = 0)
    tau: float = 0.005
    batch_size: int = 64
    buffer_capacity: int = 100_000
    lr: float = 1e-3
    eps_start: float = 0.3
    eps_end: float = 0.01
    eps_decay_episodes: int = 150
    reward_scale_s: float = 600.0
    normalize_hlp_reward: bool = True

    @property
    def effective_gamma_high(self) -> float:
        return 0.0 if self.hlp_bandit else self.gamma_high

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

    def __iter__(self):
        return iter(self._items)


class DdpgAgent:
    """Actor, critic, their target copies, Adam states and replay, with the
    DDPG update both agent levels share.

    A subclass supplies the critic input for an (observation, action) pair,
    the target actor's action for a next observation (None when it has
    nothing to bootstrap from), and the actor gradient for one observation
    (None to skip it), plus the discount `gamma`."""

    def __init__(self, actor, critic, cfg: DdpgConfig):
        self.cfg = cfg
        self.actor = actor
        self.actor_target = nn.clone(actor)
        self.critic = critic
        self.critic_target = nn.clone(critic)
        self.actor_opt = nn.adam_init(actor)
        self.critic_opt = nn.adam_init(critic)
        self.buffer = ReplayBuffer(cfg.buffer_capacity)
        self.explore_eps = cfg.eps_start

    def observe(self, transition) -> None:
        self.buffer.push(transition)

    def q_value(self, obs, action, use_target: bool = False) -> float:
        net = self.critic_target if use_target else self.critic
        q, _ = nn.mlp_forward(net, self.critic_input(obs, action)[None, :])
        return float(q[0, 0])

    def train_step(self, rng: np.random.Generator) -> dict | None:
        """One minibatch update of critic then actor, then both targets.
        None until the buffer holds a batch, and for an actor without outputs
        (a one-region city agent has nothing to distribute)."""
        cfg = self.cfg
        if len(self.buffer) < cfg.batch_size or self.actor.arrays()[-1].size == 0:
            return None
        batch = self.buffer.sample(cfg.batch_size, rng)

        critic_grads = nn.zeros_like_params(self.critic)
        critic_loss = 0.0
        for tr in batch:
            y = tr.reward
            next_action = None if tr.terminal else self.target_action(tr.next_obs)
            if next_action is not None:
                y += self.gamma * self.q_value(tr.next_obs, next_action, use_target=True)
            x = self.critic_input(tr.obs, tr.action)[None, :]
            q, cache = nn.mlp_forward(self.critic, x, train=True, rng=rng)
            err = float(q[0, 0]) - y
            critic_loss += err * err
            _, g = nn.mlp_backward(self.critic, cache, np.array([[2.0 * err]]))
            nn.accumulate_grads(critic_grads, g)
        nn.scale_grads(critic_grads, 1.0 / cfg.batch_size)
        nn.adam_step(self.critic_opt, self.critic, critic_grads, cfg.lr)

        actor_grads = nn.zeros_like_params(self.actor)
        mean_q = 0.0
        for tr in batch:
            out = self.actor_gradients(tr.obs, train=True, rng=rng)
            if out is not None:
                q, grads = out
                mean_q += q
                nn.accumulate_grads(actor_grads, grads)
        nn.scale_grads(actor_grads, 1.0 / cfg.batch_size)
        nn.adam_step(self.actor_opt, self.actor, actor_grads, cfg.lr)

        nn.soft_update(self.actor_target, self.actor, cfg.tau)
        nn.soft_update(self.critic_target, self.critic, cfg.tau)
        return {"critic_loss": critic_loss / cfg.batch_size,
                "actor_q": mean_q / cfg.batch_size}


@dataclass
class LlpTransition:
    obs: RegionObservation
    action: np.ndarray        # executed likelihood matrix (n_responders, n_depots)
    reward: float
    next_obs: RegionObservation
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
        super().__init__(actor, critic, cfg)

    @property
    def gamma(self) -> float:
        return self.cfg.gamma

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

    def critic_input(self, obs: RegionObservation, action: np.ndarray) -> np.ndarray:
        return critic_features(obs.phi, obs.lam, action)

    def target_action(self, obs: RegionObservation) -> np.ndarray | None:
        if obs.n_responders == 0:
            return None
        probs, _ = nn.trxl_forward(self.actor_target, obs.actor_features())
        return probs

    def actor_gradients(self, obs: RegionObservation, train: bool = False,
                        rng: np.random.Generator | None = None):
        """Q(s, actor(s)) and the gradients of -Q wrt actor parameters, or
        None for a region without responders; the critic's value flows back
        through the occupancy and arrival features."""
        if obs.n_responders == 0:
            return None
        probs, a_cache = nn.trxl_forward(self.actor, obs.actor_features(),
                                         train=train, rng=rng)
        q, c_cache = nn.mlp_forward(self.critic, self.critic_input(obs, probs)[None, :])
        dfeat, _ = nn.mlp_backward(self.critic, c_cache, np.array([[-1.0]]))
        dprobs = critic_features_grad(obs.phi, probs, dfeat[0])
        _, grads = nn.trxl_backward(self.actor, a_cache, dprobs)
        return float(q[0, 0]), grads


@dataclass
class HlpTransition:
    obs: np.ndarray           # hlp_observation vector
    action: np.ndarray        # executed raw nonnegative action, length n_regions - 1
    reward: float
    next_obs: np.ndarray
    terminal: bool


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
        super().__init__(actor, critic, cfg)

    @property
    def gamma(self) -> float:
        return self.cfg.effective_gamma_high

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

    def critic_input(self, obs: np.ndarray, action: np.ndarray) -> np.ndarray:
        return np.concatenate([obs, action])

    def target_action(self, obs: np.ndarray) -> np.ndarray:
        a, _ = nn.mlp_forward(self.actor_target, obs[None, :])
        return a[0]

    def actor_gradients(self, obs: np.ndarray, train: bool = False,
                        rng: np.random.Generator | None = None):
        """Q(s, actor(s)) and the gradients of -Q wrt actor parameters."""
        a, a_cache = nn.mlp_forward(self.actor, obs[None, :], train=train, rng=rng)
        q, c_cache = nn.mlp_forward(self.critic, self.critic_input(obs, a[0])[None, :])
        dx, _ = nn.mlp_backward(self.critic, c_cache, np.array([[-1.0]]))
        _, grads = nn.mlp_backward(self.actor, a_cache, dx[:, obs.size:])
        return float(q[0, 0]), grads


def hlp_reward(llp_agents: dict[int, LlpAgent],
               observations: dict[int, RegionObservation],
               actions: dict[int, np.ndarray],
               region_rates: dict[int, float],
               normalize: bool = True) -> float:
    """Rate-weighted sum of region critic values for the current allocation.

    Normalizing by the total rate keeps the estimate on the critics' scale
    instead of growing with city-wide demand; disable for the raw weighted sum.
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
    return acc / total_rate if normalize else acc


def sample_llp_fleet(n_region_depots: int, fleet_ratio: float,
                     rng: np.random.Generator) -> int:
    """Binomial draw of the region's training fleet, clamped to [1, depots]."""
    n = int(rng.binomial(n_region_depots, min(max(fleet_ratio, 0.0), 1.0)))
    return max(1, min(n, n_region_depots))


def sample_hlp_fleet(center: int, total_capacity: int, rng: np.random.Generator,
                     spread: int = 3) -> int:
    n = int(center + rng.integers(-spread, spread + 1))
    return max(1, min(n, total_capacity))


def reward_from_response(response_s: float, cfg: DdpgConfig) -> float:
    """Response times enter learning as negative, rescaled rewards."""
    return -response_s / cfg.reward_scale_s
