"""One flat parameter vector per network.

Adam and Polyak averaging run on each network's vector `flat`; these tests
hold them to the per-array updates they replace, frozen below, bit for bit,
and check that every way of making a network (init, checkpoint load, deep
copy, pickle) leaves its arrays as views of its own vector and of nothing
else.
"""

import copy
import pickle
from dataclasses import dataclass

import numpy as np
import pytest
from conftest import two_region_world

from ermrl import agents, harness, nn
from ermrl.features import RegionObservation

# --- the per-array updates, as they were before the flat vector ----------------


@dataclass
class FrozenAdamState:
    m: list
    v: list
    t: int = 0


def frozen_adam_init(params) -> FrozenAdamState:
    arrays = params.arrays()
    return FrozenAdamState([np.zeros(a.shape) for a in arrays],
                           [np.zeros(a.shape) for a in arrays])


def frozen_adam_step(state, params, grads, lr):
    arrays = params.arrays()
    if [g.shape for g in grads] != [a.shape for a in arrays]:
        raise ValueError("gradients do not match params.arrays() in length and shapes")
    state.t += 1
    b1, b2 = nn.ADAM_BETA1, nn.ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for i, (a, g) in enumerate(zip(arrays, grads)):
        state.m[i] = b1 * state.m[i] + (1 - b1) * g
        state.v[i] = b2 * state.v[i] + (1 - b2) * g * g
        a -= lr * (state.m[i] / c1) / (np.sqrt(state.v[i] / c2) + nn.ADAM_EPS)


def frozen_soft_update(target, online, tau):
    for t_arr, o_arr in zip(target.arrays(), online.arrays(), strict=True):
        t_arr *= 1.0 - tau
        t_arr += tau * o_arr


def same_bytes(xs, ys):
    xs, ys = list(xs), list(ys)
    return len(xs) == len(ys) and all(x.tobytes() == y.tobytes() for x, y in zip(xs, ys))


# --- bit identity ---------------------------------------------------------------


def mlp_case(rng):
    p = nn.mlp_init([5, 7, 3], rng, dropouts=[0.2, 0.0])

    def grads(step):
        x = rng.normal(size=(4, 1, 5))
        _, cache = nn.mlp_forward(p, x, train=True, rng=np.random.default_rng(step))
        return nn.mlp_backward(p, cache, rng.normal(size=(4, 1, 3)))[1]
    return p, grads


def trxl_case(rng):
    p = nn.trxl_init(6, 3, rng, n_heads=2, n_layers=2, inner_sizes=(5,))

    def grads(step):
        probs, cache = nn.trxl_forward(p, rng.normal(size=(2, 4, 6)))
        g = nn.trxl_backward(p, cache, rng.normal(size=probs.shape))[1]
        assert not g[2 + 3].any()  # the first layer's key bias, zeroed by mha_backward
        return g
    return p, grads


@pytest.mark.parametrize("case", [mlp_case, trxl_case], ids=["mlp", "trxl"])
def test_adam_and_polyak_match_the_per_array_updates(case):
    online, grads = case(np.random.default_rng(3))
    target = copy.deepcopy(online)
    for a in target.arrays():
        a += 0.5
    ref_online, ref_target = copy.deepcopy(online), copy.deepcopy(target)
    state, ref_state = nn.adam_init(online), frozen_adam_init(ref_online)
    for step in range(12):
        g = grads(step)
        # a large rate, so that every step moves every parameter
        nn.adam_step(state, online, g, lr=0.05)
        frozen_adam_step(ref_state, ref_online, [x.copy() for x in g], lr=0.05)
        nn.soft_update(target, online, 0.1)
        frozen_soft_update(ref_target, ref_online, 0.1)
        assert state.t == ref_state.t == step + 1
        assert same_bytes(online.arrays(), ref_online.arrays())
        assert same_bytes(target.arrays(), ref_target.arrays())
        assert same_bytes([state.m, state.v], [np.concatenate(ref_state.m, axis=None),
                                               np.concatenate(ref_state.v, axis=None)])


def trained_networks(monkeypatch, frozen):
    if frozen:
        monkeypatch.setattr(nn, "adam_init", frozen_adam_init)
        monkeypatch.setattr(nn, "adam_step", frozen_adam_step)
        monkeypatch.setattr(nn, "soft_update", frozen_soft_update)
    # two rate buckets that swap which region is busy make the city agent act
    world = two_region_world(rates_by_bucket=[[1.2, 0, 0, 0, 0, 0.3], [0.3, 0, 0, 0, 0, 1.2]])
    cfg = harness.TrainConfig(
        episodes_llp=2, episodes_hlp=2, horizon_s=24 * 3600.0, fleet_size=2,
        ddpg=agents.DdpgConfig(batch_size=8, eps_decay_episodes=2),
        llp_inner=(8,), critic_hidden=(8,), hlp_hidden=(16, 8))
    llp = {g: harness.train_llp_agent(world, g, cfg, [0, 1], seed=7) for g in (0, 1)}
    hlp = harness.train_hlp_agent(world, llp, cfg, [0, 1], seed=7)
    monkeypatch.undo()
    assert all(agent.updates for agent in [*llp.values(), hlp])
    return [[a.copy() for net in (agent.actor, agent.actor_target, agent.critic,
                                  agent.critic_target) for a in net.arrays()]
            for agent in [*llp.values(), hlp]]


def test_training_matches_the_per_array_updates(monkeypatch):
    flat = trained_networks(monkeypatch, frozen=False)
    frozen = trained_networks(monkeypatch, frozen=True)
    for got, want in zip(flat, frozen, strict=True):
        assert same_bytes(got, want)


# --- aliasing ---------------------------------------------------------------------


def networks():
    rng = np.random.default_rng(5)
    return {"mlp": nn.mlp_init([4, 6, 2], rng, dropouts=[0.1, 0.0]),
            "trxl": nn.trxl_init(6, 3, rng, n_heads=2, n_layers=2, inner_sizes=(5,))}


def loaded(nets, tmp_path):
    nn.save_checkpoint(tmp_path / "ckpt.npz", nets)
    return nn.load_checkpoint(tmp_path / "ckpt.npz")


MAKERS = {
    "init": lambda nets, tmp_path: networks(),
    "load": loaded,
    "deepcopy": lambda nets, tmp_path: copy.deepcopy(nets),
    "pickle": lambda nets, tmp_path: pickle.loads(pickle.dumps(nets)),
}


def assert_views_of_flat(net):
    """Every array is a view of net.flat, back to back in arrays() order."""
    arrays = net.arrays()
    assert net.flat.dtype == np.float64 and net.flat.flags.c_contiguous
    assert sum(a.size for a in arrays) == net.flat.size
    saved = net.flat.copy()
    net.flat[:] = np.arange(net.flat.size)
    assert np.array_equal(np.concatenate(arrays, axis=None), np.arange(net.flat.size))
    net.flat[:] = saved


@pytest.mark.parametrize("how", sorted(MAKERS))
def test_each_array_is_a_view_of_its_own_vector(how, tmp_path):
    source = networks()
    made = MAKERS[how](source, tmp_path)
    for name, net in made.items():
        assert_views_of_flat(net)
        assert same_bytes(net.arrays(), source[name].arrays())
        others = [source["mlp"].flat, source["trxl"].flat,
                  *(other.flat for other_name, other in made.items() if other_name != name)]
        for a in [net.flat, *net.arrays()]:
            assert not any(np.shares_memory(a, other) for other in others)


def test_hand_built_mlp_packs_its_layers():
    layers = [nn.DenseLayer(np.eye(2, 3), np.zeros(3)),
              nn.DenseLayer(np.ones((3, 1)), np.array([2.0]))]
    p = nn.MlpParams(layers)
    assert_views_of_flat(p)
    assert np.array_equal(p.flat, [1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 2])


def region_agent_with_buffer():
    rng = np.random.default_rng(11)
    agent = agents.LlpAgent(0, 3, agents.DdpgConfig(batch_size=6), rng, inner_sizes=(8,),
                            critic_hidden=(8,))
    for _ in range(10):
        n = int(rng.integers(1, 4))
        obs, next_obs = (RegionObservation(0, list(range(n)), [0, 1, 2],
                                           rng.uniform(size=(n, 3)), rng.uniform(size=3))
                         for _ in range(2))
        agent.observe(agents.Transition(obs, rng.dirichlet(np.ones(3), size=n),
                                        float(rng.normal()), next_obs, False))
    return agent


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_training_a_copy_leaves_the_original(how):
    original = region_agent_with_buffer()
    trained = (copy.deepcopy(original) if how == "deepcopy"
               else pickle.loads(pickle.dumps(original)))
    x = np.random.default_rng(0).uniform(size=(2, 6))
    c = np.random.default_rng(1).uniform(size=(1, 9))

    def outputs(agent):
        return [nn.trxl_forward(agent.actor, x)[0], nn.trxl_forward(agent.actor_target, x)[0],
                nn.mlp_forward(agent.critic, c)[0], nn.mlp_forward(agent.critic_target, c)[0]]
    before = outputs(original)
    assert same_bytes(outputs(trained), before)
    assert trained.train_step(np.random.default_rng(2)) is not None
    assert same_bytes(outputs(original), before)
    assert all(not np.array_equal(now, then) for now, then in zip(outputs(trained), before))
    assert original.actor_opt.t == 0 and not original.actor_opt.m.any()
