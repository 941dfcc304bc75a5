import copy

import numpy as np
import pytest

from ermrl import agents, features, nn
from ermrl.features import RegionObservation


def make_obs(phi, lam, region=0):
    phi = np.asarray(phi, dtype=float)
    n, d = phi.shape
    return RegionObservation(region, list(range(n)), list(range(d)),
                             phi, np.asarray(lam, dtype=float))


def small_cfg(**kw):
    defaults = dict(batch_size=4, buffer_capacity=100, eps_start=0.3)
    defaults.update(kw)
    return agents.DdpgConfig(**defaults)


class TestReplayBuffer:
    def test_fifo_eviction_with_sentinels(self):
        buf = agents.ReplayBuffer(3)
        for i in range(5):
            buf.push(i)
        assert len(buf) == 3
        assert sorted(buf.sample(3, np.random.default_rng(0))) == [2, 3, 4]

    def test_sample_is_subset(self):
        buf = agents.ReplayBuffer(10)
        for i in range(10):
            buf.push(i)
        got = buf.sample(4, np.random.default_rng(0))
        assert len(got) == 4 and set(got) <= set(range(10))


class TestLlpAct:
    def test_single_responder_single_depot_forced(self):
        agent = agents.LlpAgent(0, 1, small_cfg(), np.random.default_rng(0))
        obs = make_obs([[0.0]], [0.5])
        likelihoods, assignment = agent.act(obs, explore=False)
        assert assignment == {0: 0}
        assert likelihoods.ravel() == pytest.approx([1.0])

    def test_deterministic_without_exploration(self):
        agent = agents.LlpAgent(0, 3, small_cfg(), np.random.default_rng(1))
        obs = make_obs([[0.1, 0.4, 0.9], [0.0, 0.2, 0.5]], [0.3, 0.6, 0.1])
        a1 = agent.act(obs, explore=False)
        a2 = agent.act(obs, explore=False)
        assert np.array_equal(a1[0], a2[0])
        assert a1[1] == a2[1]

    def test_exploration_stays_on_simplex(self):
        agent = agents.LlpAgent(0, 3, small_cfg(), np.random.default_rng(2))
        agent.explore_eps = 0.3
        obs = make_obs([[0.1, 0.4, 0.9], [0.0, 0.2, 0.5]], [0.3, 0.6, 0.1])
        likelihoods, _ = agent.act(obs, explore=True, rng=np.random.default_rng(5))
        assert np.allclose(likelihoods.sum(axis=1), 1.0)
        assert np.all(likelihoods >= 0)

    def test_handcrafted_actor_yields_identity_matching(self):
        # Collapse the stack to a row-local map: attention output and inner MLP
        # zeroed, input negated, output projection reads the arrival-time slots.
        agent = agents.LlpAgent(0, 3, small_cfg(), np.random.default_rng(3),
                                inner_sizes=(4,))
        actor = agent.actor
        actor.in_proj.w[...] = -np.eye(6)
        actor.in_proj.b[...] = 0.0
        layer = actor.layers[0]
        layer.mha.wo[...] = 0.0
        layer.mha.bo[...] = 0.0
        for dense in layer.mlp.layers:
            dense.w[...] = 0.0
            dense.b[...] = 0.0
        actor.out_proj.w[...] = 0.0
        for d in range(3):
            actor.out_proj.w[2 * d, d] = 10.0
        actor.out_proj.b[...] = 0.0
        # responder v waits at depot v: phi[v, v] = 0, large elsewhere
        phi = np.full((3, 3), 1.5)
        np.fill_diagonal(phi, 0.0)
        obs = make_obs(phi, [0.2, 0.2, 0.2])
        likelihoods, assignment = agent.act(obs, explore=False)
        assert np.all(likelihoods.argmax(axis=1) == np.arange(3))
        assert assignment == {0: 0, 1: 1, 2: 2}

    def test_more_responders_than_depots_infeasible(self):
        from ermrl.optim import InfeasibleError
        agent = agents.LlpAgent(0, 2, small_cfg(), np.random.default_rng(4))
        obs = make_obs(np.zeros((3, 2)), [0.1, 0.1])
        with pytest.raises(InfeasibleError):
            agent.act(obs, explore=False)


class TestLlpTraining:
    def _fixed_transition_agent(self, gamma, terminal, reward=-0.5, next_obs=None):
        cfg = small_cfg(gamma=gamma)
        agent = agents.LlpAgent(0, 2, cfg, np.random.default_rng(5),
                                inner_sizes=(8,), critic_hidden=(16,),
                                critic_dropout=0.0)
        obs = make_obs([[0.0, 0.3], [0.2, 0.0]], [0.4, 0.8])
        action = np.array([[0.9, 0.1], [0.2, 0.8]])
        tr = agents.Transition(obs, action, reward,
                               obs if next_obs is None else next_obs, terminal)
        for _ in range(cfg.batch_size):
            agent.observe(tr)
        return agent, obs, action, tr

    def test_critic_converges_to_terminal_reward(self):
        agent, obs, action, _ = self._fixed_transition_agent(gamma=0.5, terminal=True)
        rng = np.random.default_rng(6)
        for _ in range(400):
            agent.train_step(rng)
        assert agent.q_value(obs, action) == pytest.approx(-0.5, abs=0.05)

    def test_gamma_zero_target_is_reward(self):
        agent, obs, action, _ = self._fixed_transition_agent(gamma=0.0, terminal=False)
        rng = np.random.default_rng(7)
        for _ in range(400):
            agent.train_step(rng)
        assert agent.q_value(obs, action) == pytest.approx(-0.5, abs=0.05)

    def test_empty_next_region_target_is_reward(self):
        # nothing to bootstrap from when the next state has no responders
        empty = make_obs(np.zeros((0, 2)), [0.4, 0.8])
        agent, obs, action, _ = self._fixed_transition_agent(
            gamma=0.5, terminal=False, next_obs=empty)
        rng = np.random.default_rng(7)
        for _ in range(400):
            agent.train_step(rng)
        assert agent.q_value(obs, action) == pytest.approx(-0.5, abs=0.05)

    def test_insufficient_buffer_signals_noop(self):
        agent = agents.LlpAgent(0, 2, small_cfg(), np.random.default_rng(8))
        assert agent.train_step(np.random.default_rng(0)) is None

    def test_actor_gradients_match_finite_differences(self):
        agent = agents.LlpAgent(0, 2, small_cfg(), np.random.default_rng(9),
                                inner_sizes=(4,), critic_hidden=(8,),
                                critic_dropout=0.0)
        obs = make_obs([[0.1, 0.45], [0.3, 0.05]], [0.4, 0.7])

        def loss():
            probs, _ = nn.trxl_forward(agent.actor, obs.actor_features())
            feats = features.critic_features(obs.phi, obs.lam, probs)
            q, _ = nn.mlp_forward(agent.critic, feats[None, :])
            return -float(q[0, 0])

        _, grads = agent.actor_gradients(agent.collate([obs]))
        eps = 1e-5
        for a, g in zip(agent.actor.arrays(), grads, strict=True):
            flat, gflat = a.ravel(), g.ravel()
            for idx in range(flat.size):
                old = flat[idx]
                flat[idx] = old + eps
                lp = loss()
                flat[idx] = old - eps
                lm = loss()
                flat[idx] = old
                num = (lp - lm) / (2 * eps)
                assert abs(num - gflat[idx]) <= 1e-4 * max(1.0, abs(num), abs(gflat[idx]))


class TestHlpAgent:
    def test_single_region_counts_forced(self):
        agent = agents.HlpAgent(1, small_cfg(), np.random.default_rng(10))
        a_h, counts = agent.act(np.array([1.0, 0.5]), 4, [6], explore=False)
        assert list(counts) == [4]
        assert a_h.size == 0

    def test_forced_uniform_action_divides_evenly(self):
        agent = agents.HlpAgent(3, small_cfg(), np.random.default_rng(11),
                                actor_hidden=(8,), actor_dropout=0.0)
        # zero weights and softplus-inverse bias make every output exactly 1
        last = agent.actor.layers[-1]
        for layer in agent.actor.layers:
            layer.w[...] = 0.0
            layer.b[...] = 0.0
        last.b[...] = np.log(np.e - 1.0)
        obs = np.zeros(6)
        a_h, counts = agent.act(obs, 6, [5, 5, 5], explore=False)
        assert a_h == pytest.approx([1.0, 1.0])
        assert list(counts) == [2, 2, 2]

    def test_deterministic_repeat(self):
        agent = agents.HlpAgent(2, small_cfg(), np.random.default_rng(12))
        obs = np.array([0.5, 0.25, 1.0, 0.75])
        out1 = agent.act(obs, 3, [2, 2], explore=False)
        out2 = agent.act(obs, 3, [2, 2], explore=False)
        assert np.array_equal(out1[0], out2[0])
        assert np.array_equal(out1[1], out2[1])

    def test_exploration_respects_caps(self):
        agent = agents.HlpAgent(2, small_cfg(), np.random.default_rng(13))
        agent.explore_eps = 0.3
        rng = np.random.default_rng(14)
        for _ in range(50):
            _, counts = agent.act(np.array([0.5, 0.5, 1.0, 0.5]), 3, [2, 2],
                                  explore=True, rng=rng)
            assert counts.sum() == 3
            assert np.all(counts <= [2, 2])

    @pytest.mark.parametrize("cfg_kw", [dict(gamma=0.9, gamma_high=0.0)])
    def test_city_discount_sets_the_target(self, cfg_kw):
        # the region discount (0.9) would bootstrap Q toward 10x the reward
        cfg = small_cfg(**cfg_kw)
        agent = agents.HlpAgent(2, cfg, np.random.default_rng(15),
                                actor_hidden=(16,), actor_dropout=0.0,
                                critic_hidden=(16,), critic_dropout=0.0)
        obs = np.array([0.8, 0.5, 0.2, 0.5])
        action = np.array([1.2])
        for _ in range(cfg.batch_size):
            agent.observe(agents.Transition(obs, action, -0.4, obs, False))
        rng = np.random.default_rng(16)
        for _ in range(400):
            agent.train_step(rng)
        assert agent.q_value(obs, action) == pytest.approx(-0.4, abs=0.05)

    def test_single_region_never_trains(self):
        agent = agents.HlpAgent(1, small_cfg(), np.random.default_rng(10))
        obs = np.array([1.0, 0.5])
        for _ in range(4):
            agent.observe(agents.Transition(obs, np.zeros(0), -0.4, obs, False))
        assert agent.train_step(np.random.default_rng(0)) is None

    def test_train_step_reduces_loss_on_fixed_transition(self):
        cfg = small_cfg(gamma_high=0.0)
        agent = agents.HlpAgent(2, cfg, np.random.default_rng(15),
                                actor_hidden=(16,), actor_dropout=0.0,
                                critic_hidden=(16,), critic_dropout=0.0)
        obs = np.array([0.8, 0.5, 0.2, 0.5])
        tr = agents.Transition(obs, np.array([1.2]), -0.4, obs, False)
        for _ in range(cfg.batch_size):
            agent.observe(tr)
        rng = np.random.default_rng(16)
        first = agent.train_step(rng)["critic_loss"]
        for _ in range(300):
            stats = agent.train_step(rng)
        assert stats["critic_loss"] < first


class TestHlpReward:
    def _constant_critic_agent(self, value, n_depots=2):
        agent = agents.LlpAgent(0, n_depots, small_cfg(), np.random.default_rng(17),
                                critic_hidden=(4,), critic_dropout=0.0)
        for layer in agent.critic.layers:
            layer.w[...] = 0.0
            layer.b[...] = 0.0
        agent.critic.layers[-1].b[...] = value
        return agent

    def test_single_region_identity(self):
        agent = self._constant_critic_agent(-42.0)
        obs = make_obs([[0.0, 0.1]], [0.2, 0.3])
        act = np.array([[0.5, 0.5]])
        out = agents.hlp_reward({0: agent}, {0: obs}, {0: act}, {0: 3.0})
        assert out == pytest.approx(-42.0)

    def test_weighted_average(self):
        a0 = self._constant_critic_agent(-100.0)
        a1 = self._constant_critic_agent(-300.0)
        obs = make_obs([[0.0, 0.1]], [0.2, 0.3])
        act = np.array([[0.5, 0.5]])
        out = agents.hlp_reward({0: a0, 1: a1}, {0: obs, 1: obs},
                                {0: act, 1: act}, {0: 2.0, 1: 1.0})
        assert out == pytest.approx(-500.0 / 3.0)

    def test_zero_rates_guarded(self):
        agent = self._constant_critic_agent(-100.0)
        obs = make_obs([[0.0, 0.1]], [0.2, 0.3])
        out = agents.hlp_reward({0: agent}, {0: obs}, {0: np.array([[0.5, 0.5]])},
                                {0: 0.0})
        assert out == 0.0

    def test_linear_in_each_critic(self):
        obs = make_obs([[0.0, 0.1]], [0.2, 0.3])
        act = np.array([[0.5, 0.5]])
        outs = []
        for v in (-100.0, -200.0, -300.0):
            a0 = self._constant_critic_agent(v)
            a1 = self._constant_critic_agent(-50.0)
            outs.append(agents.hlp_reward({0: a0, 1: a1}, {0: obs, 1: obs},
                                          {0: act, 1: act}, {0: 1.0, 1: 1.0}))
        assert outs[1] - outs[0] == pytest.approx(outs[2] - outs[1])


class TestFleetSampling:
    def test_hlp_fleet_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            v = agents.sample_fleet(26, 36, rng)
            assert 23 <= v <= 29


# --- the batched update against the per-transition loop it replaces ----------------

def _zero_grads(params):
    return [np.zeros_like(a) for a in params.arrays()]


def _llp_sample_grads(agent, obs, rng):
    """Q and actor gradients of one region observation, unbatched."""
    probs, a_cache = nn.trxl_forward(agent.actor, obs.actor_features(), train=True, rng=rng)
    x = features.critic_features(obs.phi, obs.lam, probs)[None, :]
    q, c_cache = nn.mlp_forward(agent.critic, x)
    dfeat, _ = nn.mlp_backward(agent.critic, c_cache, np.array([[-1.0]]))
    dprobs = features.critic_features_grad(obs.phi, probs, dfeat[0])
    return float(q[0, 0]), nn.trxl_backward(agent.actor, a_cache, dprobs)[1]


def _hlp_sample_grads(agent, obs, rng):
    """Q and actor gradients of one city observation, unbatched."""
    a, a_cache = nn.mlp_forward(agent.actor, obs[None, :], train=True, rng=rng)
    q, c_cache = nn.mlp_forward(agent.critic, np.concatenate([obs, a[0]])[None, :])
    dx, _ = nn.mlp_backward(agent.critic, c_cache, np.array([[-1.0]]))
    return float(q[0, 0]), nn.mlp_backward(agent.actor, a_cache, dx[:, obs.size:])[1]


def reference_train_step(agent, rng):
    """The DDPG update as a loop over the sampled transitions, one unbatched
    network call per transition, summing gradients in sample order."""
    cfg = agent.cfg
    llp = isinstance(agent, agents.LlpAgent)

    def critic_input(obs, action):
        if llp:
            return features.critic_features(obs.phi, obs.lam, action)
        return np.concatenate([obs, action])

    def target_action(obs):
        if llp:
            if obs.n_responders == 0:
                return None
            return nn.trxl_forward(agent.actor_target, obs.actor_features())[0]
        return nn.mlp_forward(agent.actor_target, obs[None, :])[0][0]

    batch = agent.buffer.sample(cfg.batch_size, rng)
    critic_grads = _zero_grads(agent.critic)
    critic_loss = 0.0
    for tr in batch:
        y = tr.reward
        next_action = None if tr.terminal else target_action(tr.next_obs)
        if next_action is not None:
            q, _ = nn.mlp_forward(agent.critic_target,
                                  critic_input(tr.next_obs, next_action)[None, :])
            y += agent.gamma * float(q[0, 0])
        q, cache = nn.mlp_forward(agent.critic, critic_input(tr.obs, tr.action)[None, :],
                                  train=True, rng=rng)
        err = float(q[0, 0]) - y
        critic_loss += err * err
        _, g = nn.mlp_backward(agent.critic, cache, np.array([[2.0 * err]]))
        for total, a in zip(critic_grads, g, strict=True):
            total += a
    for total in critic_grads:
        total *= 1.0 / cfg.batch_size
    nn.adam_step(agent.critic_opt, agent.critic, critic_grads, cfg.lr)

    actor_grads = _zero_grads(agent.actor)
    actor_q = 0.0
    for tr in batch:
        if llp and tr.obs.n_responders == 0:
            continue
        q, g = (_llp_sample_grads if llp else _hlp_sample_grads)(agent, tr.obs, rng)
        actor_q += q
        for total, a in zip(actor_grads, g, strict=True):
            total += a
    for total in actor_grads:
        total *= 1.0 / cfg.batch_size
    nn.adam_step(agent.actor_opt, agent.actor, actor_grads, cfg.lr)
    nn.soft_update(agent.actor_target, agent.actor, cfg.tau)
    nn.soft_update(agent.critic_target, agent.critic, cfg.tau)
    return {"critic_loss": critic_loss / cfg.batch_size, "actor_q": actor_q / cfg.batch_size}


def _random_region_obs(rng, n_depots, n_responders):
    return make_obs(rng.uniform(0.0, 1.5, size=(n_responders, n_depots)),
                    rng.uniform(0.0, 1.0, size=n_depots))


def _llp_agent_with_buffer(seed, n_counts, actor_dropout=0.0):
    """A region agent whose buffer mixes every responder count in n_counts,
    terminal transitions and empty next regions."""
    rng = np.random.default_rng(seed)
    d = 3
    agent = agents.LlpAgent(0, d, small_cfg(batch_size=12), rng, inner_sizes=(8,),
                            actor_dropout=actor_dropout, critic_hidden=(16,))
    for _ in range(30):
        obs = _random_region_obs(rng, d, int(rng.choice(n_counts)))
        action = rng.dirichlet(np.ones(d), size=obs.n_responders)
        next_obs = _random_region_obs(rng, d, int(rng.integers(0, d + 1)))
        agent.observe(agents.Transition(obs, action, float(rng.normal()), next_obs,
                                        bool(rng.random() < 0.25)))
    return agent


def _hlp_agent_with_buffer(seed):
    rng = np.random.default_rng(seed)
    agent = agents.HlpAgent(3, small_cfg(batch_size=12), rng, actor_hidden=(16, 8),
                            critic_hidden=(8,))
    for _ in range(30):
        obs, next_obs = rng.uniform(0.0, 1.0, size=(2, 6))
        agent.observe(agents.Transition(obs, rng.uniform(0.1, 2.0, size=2),
                                        float(rng.normal()), next_obs,
                                        bool(rng.random() < 0.25)))
    return agent


def _close(x, y):
    # atol covers entries whose true value is 0, where either order of the
    # gradient sums leaves only rounding noise
    return np.allclose(x, y, rtol=1e-10, atol=1e-12)


def _assert_same_learner(a, b):
    for net in ("actor", "actor_target", "critic", "critic_target"):
        for x, y in zip(getattr(a, net).arrays(), getattr(b, net).arrays()):
            assert _close(x, y), net
    for opt in ("actor_opt", "critic_opt"):
        sa, sb = getattr(a, opt), getattr(b, opt)
        assert sa.t == sb.t
        for x, y in zip((sa.m, sa.v), (sb.m, sb.v)):
            assert _close(x, y), opt


def _compare_with_reference(agent, steps=3):
    ref = copy.deepcopy(agent)
    rng, ref_rng = np.random.default_rng(99), np.random.default_rng(99)
    for _ in range(steps):
        stats = agent.train_step(rng)
        ref_stats = reference_train_step(ref, ref_rng)
        assert stats["critic_loss"] == pytest.approx(ref_stats["critic_loss"], rel=1e-10)
        assert stats["actor_q"] == pytest.approx(ref_stats["actor_q"], rel=1e-10)
        assert stats["explore_eps"] == agent.explore_eps
        assert stats["buffer_size"] == len(agent.buffer)
    _assert_same_learner(agent, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestBatchedUpdate:
    """The batched update equals the per-transition loop to rounding; only
    the order of the gradient sums differs, so every RNG draw matches."""

    # "empty": no region has a responder, so the actor steps on zero gradients
    @pytest.mark.parametrize("n_counts", [range(0, 4), [0]], ids=["mixed", "empty"])
    def test_llp_matches_the_per_transition_loop(self, n_counts):
        _compare_with_reference(_llp_agent_with_buffer(30, n_counts=n_counts))

    # two independent agents and buffers
    @pytest.mark.parametrize("seed", [1, 524288])
    def test_hlp_matches_the_per_transition_loop(self, seed):
        _compare_with_reference(_hlp_agent_with_buffer(seed))

    def test_llp_actor_dropout_of_one_responder_count_matches(self):
        # with actor dropout, masks are drawn per responder-count group; a
        # batch of one count draws them in sample order
        _compare_with_reference(_llp_agent_with_buffer(32, n_counts=[2], actor_dropout=0.2))

    def test_llp_actor_dropout_of_mixed_counts_draws_the_same_stream(self):
        agent = _llp_agent_with_buffer(33, n_counts=range(1, 4), actor_dropout=0.2)
        ref = copy.deepcopy(agent)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        agent.train_step(rng)
        reference_train_step(ref, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        for x, y in zip(agent.critic.arrays(), ref.critic.arrays()):
            assert _close(x, y)
