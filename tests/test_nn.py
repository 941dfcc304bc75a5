import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ermrl import nn


def gradcheck_params(params, loss_fn, analytic, eps=1e-4, rtol=1e-4):
    """Central finite differences over every parameter entry; analytic is the
    gradient list aligned with params.arrays()."""
    for a, g in zip(params.arrays(), analytic, strict=True):
        flat, gflat = a.ravel(), g.ravel()
        for idx in range(flat.size):
            old = flat[idx]
            flat[idx] = old + eps
            lp = loss_fn()
            flat[idx] = old - eps
            lm = loss_fn()
            flat[idx] = old
            num = (lp - lm) / (2 * eps)
            scale = max(1.0, abs(num), abs(gflat[idx]))
            assert abs(num - gflat[idx]) <= rtol * scale, (
                f"param grad mismatch: analytic {gflat[idx]}, numeric {num}")


def relu_margin(p, x, train=False, rng=None):
    """Smallest |pre-activation| over relu layers; kink-free inputs only."""
    _, cache = nn.mlp_forward(p, x, train=train, rng=rng)
    margins = [np.abs(pre).min() for layer, (_, pre, _) in zip(p.layers, cache)
               if layer.activation == "relu" and pre.size]
    return min(margins) if margins else np.inf


def trxl_relu_margin(p, x):
    _, cache = nn.trxl_forward(p, x)
    margin = np.inf
    for trxl_layer, (_, _, mlp_cache, _) in zip(p.layers, cache["layers"]):
        for layer, (_, pre, _) in zip(trxl_layer.mlp.layers, mlp_cache):
            if layer.activation == "relu" and pre.size:
                margin = min(margin, float(np.abs(pre).min()))
    return margin


def gradcheck_input(x, loss_fn, dx, eps=1e-4, rtol=1e-4):
    flat, gflat = x.ravel(), dx.ravel()
    for idx in range(flat.size):
        old = flat[idx]
        flat[idx] = old + eps
        lp = loss_fn()
        flat[idx] = old - eps
        lm = loss_fn()
        flat[idx] = old
        num = (lp - lm) / (2 * eps)
        scale = max(1.0, abs(num), abs(gflat[idx]))
        assert abs(num - gflat[idx]) <= rtol * scale


class TestMlpForward:
    def test_identity(self):
        p = nn.MlpParams([nn.DenseLayer(np.eye(3), np.zeros(3), "linear")])
        x = np.array([[1.0, -2.0, 3.0]])
        y, _ = nn.mlp_forward(p, x)
        assert np.array_equal(y, x)

    def test_relu_gate(self):
        p = nn.MlpParams([nn.DenseLayer(np.array([[-2.0]]), np.zeros(1), "relu")])
        y, _ = nn.mlp_forward(p, np.array([[3.0]]))
        assert y[0, 0] == 0.0

    def test_matches_straightline_evaluation(self):
        rng = np.random.default_rng(0)
        p = nn.mlp_init([4, 5, 3], rng)
        x = rng.normal(size=(6, 4))
        y, _ = nn.mlp_forward(p, x)
        # independent straight-line re-evaluation
        h = np.maximum(x @ p.layers[0].w + p.layers[0].b, 0.0)
        expected = h @ p.layers[1].w + p.layers[1].b
        assert np.allclose(y, expected, atol=0, rtol=0)

    def test_softplus_positive(self):
        rng = np.random.default_rng(1)
        p = nn.mlp_init([3, 4, 2], rng, activations=["relu", "softplus"])
        y, _ = nn.mlp_forward(p, rng.normal(size=(5, 3)))
        assert np.all(y > 0)

    def test_eval_mode_deterministic_with_dropout_config(self):
        rng = np.random.default_rng(2)
        p = nn.mlp_init([3, 8, 1], rng, dropouts=[0.5, 0.0])
        x = rng.normal(size=(4, 3))
        y1, _ = nn.mlp_forward(p, x)
        y2, _ = nn.mlp_forward(p, x)
        assert np.array_equal(y1, y2)

    def test_train_dropout_needs_rng(self):
        rng = np.random.default_rng(3)
        p = nn.mlp_init([3, 8, 1], rng, dropouts=[0.5, 0.0])
        with pytest.raises(ValueError):
            nn.mlp_forward(p, np.zeros((1, 3)), train=True)


class TestMlpBackward:
    def test_single_linear_layer(self):
        p = nn.MlpParams([nn.DenseLayer(np.array([[1.5]]), np.zeros(1), "linear")])
        x = np.array([[2.0]])
        _, cache = nn.mlp_forward(p, x)
        dx, grads = nn.mlp_backward(p, cache, np.array([[3.0]]))
        assert grads[0][0, 0] == pytest.approx(6.0)  # x * dy
        assert grads[1][0] == pytest.approx(3.0)
        assert dx[0, 0] == pytest.approx(4.5)  # dy * w

    def test_zero_dy_zero_grads(self):
        rng = np.random.default_rng(4)
        p = nn.mlp_init([3, 4, 2], rng)
        _, cache = nn.mlp_forward(p, rng.normal(size=(2, 3)))
        dx, grads = nn.mlp_backward(p, cache, np.zeros((2, 2)))
        assert np.all(dx == 0)
        assert all(np.all(a == 0) for a in grads)

    def test_finite_differences_random_nets(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 10:
            sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 5)))]
            p = nn.mlp_init(sizes, rng)
            x = rng.normal(size=(int(rng.integers(1, 4)), sizes[0]))
            if relu_margin(p, x) < 0.02:
                continue  # pre-activation too close to a kink for finite differences
            done += 1
            seed_dir = rng.normal(size=(x.shape[0], sizes[-1]))

            def loss():
                y, _ = nn.mlp_forward(p, x)
                return float((y * seed_dir).sum())

            _, cache = nn.mlp_forward(p, x)
            dx, grads = nn.mlp_backward(p, cache, seed_dir)
            gradcheck_params(p, loss, grads)
            gradcheck_input(x, loss, dx)

    def test_dropout_gradients_with_fixed_mask(self):
        # reusing the rng seed fixes the mask, making dropout differentiable
        rng = np.random.default_rng(6)
        while True:
            p = nn.mlp_init([3, 6, 1], rng, dropouts=[0.4, 0.0])
            x = rng.normal(size=(2, 3))
            if relu_margin(p, x) >= 0.02:
                break
        dy = np.ones((2, 1))

        def loss():
            y, _ = nn.mlp_forward(p, x, train=True, rng=np.random.default_rng(99))
            return float(y.sum())

        _, cache = nn.mlp_forward(p, x, train=True, rng=np.random.default_rng(99))
        _, grads = nn.mlp_backward(p, cache, dy)
        gradcheck_params(p, loss, grads)


class TestGradientLists:
    """Every backward pass returns its parameter gradients as a list aligned
    with the container's arrays(): same length, same shape at each position."""

    @staticmethod
    def assert_aligned(p, grads):
        assert isinstance(grads, list)
        assert [g.shape for g in grads] == [a.shape for a in p.arrays()]

    def test_mlp_with_dropout(self):
        rng = np.random.default_rng(21)
        p = nn.mlp_init([4, 6, 5, 2], rng, dropouts=[0.3, 0.2, 0.0])
        _, cache = nn.mlp_forward(p, rng.normal(size=(3, 4)), train=True, rng=rng)
        self.assert_aligned(p, nn.mlp_backward(p, cache, rng.normal(size=(3, 2)))[1])

    def test_norm(self):
        rng = np.random.default_rng(22)
        p = nn.norm_init(5)
        _, cache = nn.norm_forward(p, rng.normal(size=(3, 5)))
        self.assert_aligned(p, nn.norm_backward(p, cache, rng.normal(size=(3, 5)))[1])

    def test_mha(self):
        rng = np.random.default_rng(23)
        p = nn.mha_init(6, 2, rng)
        _, cache = nn.mha_forward(p, rng.normal(size=(4, 6)))
        self.assert_aligned(p, nn.mha_backward(p, cache, rng.normal(size=(4, 6)))[1])

    def test_two_layer_trxl(self):
        rng = np.random.default_rng(24)
        p = nn.trxl_init(6, 3, rng, width=8, n_heads=2, n_layers=2, inner_sizes=(5,))
        _, cache = nn.trxl_forward(p, rng.normal(size=(4, 6)))
        self.assert_aligned(p, nn.trxl_backward(p, cache, rng.normal(size=(4, 3)))[1])


class TestTrxl:
    def test_single_responder_distribution(self):
        rng = np.random.default_rng(7)
        p = nn.trxl_init(6, 3, rng, n_heads=2, n_layers=1)
        probs, _ = nn.trxl_forward(p, rng.normal(size=(1, 6)))
        assert probs.shape == (1, 3)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_row_sums(self):
        rng = np.random.default_rng(8)
        p = nn.trxl_init(8, 4, rng, n_heads=4, n_layers=2)
        probs, _ = nn.trxl_forward(p, rng.normal(size=(5, 8)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        p = nn.trxl_init(6, 3, rng, n_heads=3, n_layers=2, inner_sizes=(8,))
        x = rng.normal(size=(5, 6))
        base, _ = nn.trxl_forward(p, x)
        for _ in range(20):
            perm = rng.permutation(5)
            permuted, _ = nn.trxl_forward(p, x[perm])
            assert np.allclose(permuted, base[perm], atol=1e-12)

    def test_empty_input_rejected(self):
        rng = np.random.default_rng(10)
        p = nn.trxl_init(4, 2, rng)
        with pytest.raises(ValueError):
            nn.trxl_forward(p, np.zeros((0, 4)))

    def test_key_bias_has_no_effect_and_zero_gradient(self):
        # the key bias shifts each row of attention scores by one constant
        rng = np.random.default_rng(19)
        p = nn.trxl_init(6, 3, rng, n_heads=2, n_layers=1)
        x = rng.normal(size=(4, 6))
        probs, cache = nn.trxl_forward(p, x)
        _, grads = nn.trxl_backward(p, cache, rng.normal(size=(4, 3)))
        bk = next(k for k, a in enumerate(p.arrays()) if a is p.layers[0].mha.bk)
        assert np.all(grads[bk] == 0.0)
        p.layers[0].mha.bk += rng.normal(size=6)
        assert np.allclose(nn.trxl_forward(p, x)[0], probs, rtol=0.0, atol=1e-12)

    def test_finite_differences_full_stack(self):
        rng = np.random.default_rng(11)
        done = 0
        while done < 4:
            n_dep = int(rng.integers(2, 4))
            feat = 2 * n_dep
            p = nn.trxl_init(feat, n_dep, rng, width=feat,
                             n_heads=int(rng.integers(1, 3)),
                             n_layers=int(rng.integers(1, 3)), inner_sizes=(4,))
            x = rng.normal(size=(int(rng.integers(1, 4)), feat))
            if trxl_relu_margin(p, x) < 0.02:
                continue
            done += 1
            seed_dir = rng.normal(size=(x.shape[0], n_dep))

            def loss():
                probs, _ = nn.trxl_forward(p, x)
                return float((probs * seed_dir).sum())

            probs, cache = nn.trxl_forward(p, x)
            dx, grads = nn.trxl_backward(p, cache, seed_dir)
            gradcheck_params(p, loss, grads)
            gradcheck_input(x, loss, dx)


class TestAdam:
    def test_zero_grads_keep_params(self):
        rng = np.random.default_rng(12)
        p = nn.mlp_init([2, 3, 1], rng)
        before = [a.copy() for a in p.arrays()]
        state = nn.adam_init(p)
        zeros = [np.zeros_like(a) for a in p.arrays()]
        nn.adam_step(state, p, zeros, lr=1e-3)
        assert state.t == 1
        for a, b in zip(p.arrays(), before):
            assert np.array_equal(a, b)

    def test_first_step_is_signed_lr(self):
        rng = np.random.default_rng(13)
        p = nn.mlp_init([2, 2], rng)
        before = [a.copy() for a in p.arrays()]
        grads = [np.array([[0.5, -2.0], [3.0, -0.1]]), np.array([1.0, -1.0])]
        state = nn.adam_init(p)
        nn.adam_step(state, p, grads, lr=1e-3)
        for a, b, g in zip(p.arrays(), before, grads, strict=True):
            assert np.allclose(a - b, -1e-3 * np.sign(g), atol=1e-9)

    def test_two_runs_identical(self):
        rng = np.random.default_rng(14)
        results = []
        for _ in range(2):
            r = np.random.default_rng(77)
            p = nn.mlp_init([3, 4, 1], r)
            state = nn.adam_init(p)
            for step in range(5):
                g = [np.sin(step + i + np.arange(a.size).reshape(a.shape))
                     for i, a in enumerate(p.arrays())]
                nn.adam_step(state, p, g, lr=1e-3)
            results.append([a.copy() for a in p.arrays()])
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("mismatch", ["short", "long", "shape"])
    def test_mismatched_gradients_change_nothing(self, mismatch):
        rng = np.random.default_rng(20)
        p = nn.mlp_init([3, 4, 1], rng)
        state = nn.adam_init(p)
        nn.adam_step(state, p, [np.ones_like(a) for a in p.arrays()], lr=1e-3)
        grads = [np.ones_like(a) for a in p.arrays()]
        if mismatch == "short":
            grads.pop()
        elif mismatch == "long":
            grads.append(np.ones(1))
        else:
            grads[0] = np.ones(grads[0].shape[::-1])
        before = [a.copy() for a in p.arrays()]
        m, v = [a.copy() for a in state.m], [a.copy() for a in state.v]
        with pytest.raises(ValueError, match="do not match"):
            nn.adam_step(state, p, grads, lr=1e-3)
        assert state.t == 1
        for now, then in zip(p.arrays() + state.m + state.v, before + m + v, strict=True):
            assert np.array_equal(now, then)


class TestTargets:
    def test_soft_update_contracts(self):
        rng = np.random.default_rng(15)
        online = nn.mlp_init([3, 4, 2], rng)
        target = nn.mlp_init([3, 4, 2], rng)
        tau = 0.1
        gap = [np.abs(t - o).sum() for t, o in zip(target.arrays(), online.arrays())]
        for step in range(5):
            nn.soft_update(target, online, tau)
            new_gap = [np.abs(t - o).sum() for t, o in zip(target.arrays(), online.arrays())]
            for g_new, g_old in zip(new_gap, gap):
                assert g_new == pytest.approx((1 - tau) * g_old, rel=1e-9)
            gap = new_gap


class TestCheckpoint:
    @staticmethod
    def nets():
        rng = np.random.default_rng(16)
        actor = nn.trxl_init(8, 4, rng, n_heads=2, n_layers=2, inner_sizes=(16,),
                             inner_dropout=0.1)
        critic = nn.mlp_init([12, 64, 1], rng, dropouts=[0.1, 0.0])
        return {"actor": actor, "critic": critic}

    def test_round_trip_exact(self, tmp_path):
        nets = self.nets()
        actor, critic = nets["actor"], nets["critic"]
        path = tmp_path / "ckpt.npz"
        nn.save_checkpoint(path, nets)
        loaded = nn.load_checkpoint(path)
        for a, b in zip(actor.arrays(), loaded["actor"].arrays()):
            assert np.array_equal(a, b)
        for a, b in zip(critic.arrays(), loaded["critic"].arrays()):
            assert np.array_equal(a, b)
        assert loaded["critic"].layers[0].dropout == 0.1
        assert loaded["actor"].layers[0].mha.n_heads == 2

    def test_file_holds_meta_and_one_vector(self, tmp_path):
        nets = self.nets()
        path = tmp_path / "ckpt.npz"
        nn.save_checkpoint(path, nets)
        with np.load(path) as data:
            assert sorted(data.files) == ["__meta__", "params"]
            flat = data["params"]
        want = np.concatenate([a.ravel() for p in nets.values() for a in p.arrays()])
        assert flat.dtype == np.float64 and np.array_equal(flat, want)

    def test_v1_layout_rejected(self, tmp_path):
        # version 1 stored each array as its own member "<entry>.<index>"
        critic = self.nets()["critic"]
        meta = {"version": 1, "entries": {"critic": nn._describe(critic)}}
        path = tmp_path / "v1.npz"
        np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **{f"critic.{i}": a for i, a in enumerate(critic.arrays())})
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("member", ["__meta__", "params"])
    def test_missing_member_rejected(self, tmp_path, member):
        path = tmp_path / "ckpt.npz"
        nn.save_checkpoint(path, self.nets())
        with np.load(path) as data:
            kept = {name: data[name] for name in data.files if name != member}
        np.savez(path, **kept)
        with pytest.raises(ValueError, match=f"no {member} member"):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("key", ["version", "entries"])
    def test_meta_without_key_rejected(self, tmp_path, key):
        path = tmp_path / "ckpt.npz"
        nn.save_checkpoint(path, self.nets())
        with np.load(path) as data:
            meta, flat = json.loads(bytes(data["__meta__"]).decode()), data["params"]
        del meta[key]
        np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 params=flat)
        with pytest.raises(ValueError, match=f"no {key} in its __meta__"):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("entry, key", [("actor", "kind"), ("critic", "kind"),
                                            ("critic", "sizes"), ("actor", "feat_dim")])
    def test_entry_without_key_rejected(self, tmp_path, entry, key):
        path = tmp_path / "ckpt.npz"
        nn.save_checkpoint(path, self.nets())
        with np.load(path) as data:
            meta, flat = json.loads(bytes(data["__meta__"]).decode()), data["params"]
        del meta["entries"][entry][key]
        np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 params=flat)
        with pytest.raises(ValueError, match=f"entry {entry} has no {key}"):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("reshape", [lambda flat: flat[:-1],
                                         lambda flat: np.append(flat, 0.0),
                                         lambda flat: flat[None, :]], ids=["short", "long", "2d"])
    def test_misshapen_vector_rejected(self, tmp_path, reshape):
        """Load allocates its arrays unfilled; this check makes sure that the
        vector fills every one of them, and nothing more."""
        path = tmp_path / "ckpt.npz"
        nn.save_checkpoint(path, self.nets())
        with np.load(path) as data:
            meta, flat = data["__meta__"], data["params"]
        np.savez(path, __meta__=meta, params=reshape(flat))
        with pytest.raises(ValueError, match="parameters"):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("dtype, name", [(np.float32, "float32"), (str, "<U")])
    def test_vector_of_another_dtype_rejected(self, tmp_path, dtype, name):
        """A float32 vector would load rounded and a str vector would be
        parsed; neither is the float64 vector save_checkpoint writes."""
        path = tmp_path / "ckpt.npz"
        nn.save_checkpoint(path, self.nets())
        with np.load(path) as data:
            meta, flat = data["__meta__"], data["params"]
        np.savez(path, __meta__=meta, params=flat.astype(dtype))
        with pytest.raises(ValueError, match=f"dtype {name}.*, not float64"):
            nn.load_checkpoint(path)


class TestBatchAxis:
    """A (B, n, k) batch gives, bit for bit, the outputs, input gradients and
    dropout draws of B unbatched calls in turn; its parameter gradients are
    the sum of theirs."""

    @staticmethod
    def assert_sum_of(batched, singles):
        for s, *parts in zip(batched, *singles, strict=True):
            total = sum(parts)
            assert s.shape == total.shape
            assert np.allclose(s, total, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("rows", [1, 2])
    def test_mlp(self, rows):
        rng = np.random.default_rng(17)
        p = nn.mlp_init([5, 7, 6, 2], rng, activations=["relu", "relu", "softplus"],
                        dropouts=[0.3, 0.2, 0.0])
        x = rng.normal(size=(3, rows, 5))
        dy = rng.normal(size=(3, rows, 2))
        y, cache = nn.mlp_forward(p, x, train=True, rng=np.random.default_rng(4))
        dx, grads = nn.mlp_backward(p, cache, dy)
        one_rng = np.random.default_rng(4)
        singles = []
        for b in range(3):
            y_b, cache_b = nn.mlp_forward(p, x[b], train=True, rng=one_rng)
            dx_b, g_b = nn.mlp_backward(p, cache_b, dy[b])
            assert np.array_equal(y[b], y_b) and np.array_equal(dx[b], dx_b)
            singles.append(g_b)
        self.assert_sum_of(grads, singles)

    @pytest.mark.parametrize("n_layers, dropout", [(2, 0.0), (1, 0.25)])
    def test_trxl(self, n_layers, dropout):
        rng = np.random.default_rng(18)
        p = nn.trxl_init(6, 3, rng, n_heads=2, n_layers=n_layers, inner_sizes=(5,),
                         inner_dropout=dropout)
        x = rng.normal(size=(3, 4, 6))
        dprobs = rng.normal(size=(3, 4, 3))
        probs, cache = nn.trxl_forward(p, x, train=True, rng=np.random.default_rng(6))
        dx, grads = nn.trxl_backward(p, cache, dprobs)
        one_rng = np.random.default_rng(6)
        singles = []
        for b in range(3):
            probs_b, cache_b = nn.trxl_forward(p, x[b], train=True, rng=one_rng)
            dx_b, g_b = nn.trxl_backward(p, cache_b, dprobs[b])
            assert np.array_equal(probs[b], probs_b) and np.array_equal(dx[b], dx_b)
            singles.append(g_b)
        self.assert_sum_of(grads, singles)


# --- oracle: the forward pass against numpy's own mean, var, max and sum ---------

def reference_norm_forward(p, x):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + nn._NORM_EPS)
    xhat = (x - mu) * inv
    return xhat * p.gain + p.bias, (xhat, inv)


def reference_softmax_rows(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@st.composite
def trxl_cases(draw):
    width = draw(st.integers(2, 20))
    rows = draw(st.integers(1, 10))
    batch = draw(st.one_of(st.none(), st.integers(1, 3)))
    scale = draw(st.floats(1e-3, 1e3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    p = nn.trxl_init(width, draw(st.integers(1, 10)), rng,
                     n_heads=draw(st.sampled_from([h for h in (1, 2) if width % h == 0])),
                     n_layers=draw(st.integers(1, 2)), inner_sizes=(8,))
    shape = (rows, width) if batch is None else (batch, rows, width)
    return p, scale * rng.normal(size=shape), rng.normal(size=shape[:-1] + (p.n_outputs,))


class TestForwardOracle:
    """The layer norm and softmax give numpy's mean/var/max/sum bits, so the
    whole forward pass, its caches and the gradients built from them are the
    reference's bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(trxl_cases())
    def test_trxl_matches_reference(self, case):
        p, x, dprobs = case
        probs, cache = nn.trxl_forward(p, x)
        with mock.patch.object(nn, "norm_forward", reference_norm_forward), \
                mock.patch.object(nn, "softmax_rows", reference_softmax_rows):
            ref_probs, ref_cache = nn.trxl_forward(p, x)
        assert np.array_equal(probs, ref_probs)
        for layer, ref_layer in zip(cache["layers"], ref_cache["layers"]):
            for k in (1, 3):  # the two norm caches (xhat, inv)
                for a, b in zip(layer[k], ref_layer[k]):
                    assert np.array_equal(a, b)
            assert np.array_equal(layer[0][4], ref_layer[0][4])  # attention weights
        dx, grads = nn.trxl_backward(p, cache, dprobs)
        ref_dx, ref_grads = nn.trxl_backward(p, ref_cache, dprobs)
        assert np.array_equal(dx, ref_dx)
        for a, b in zip(grads, ref_grads, strict=True):
            assert np.array_equal(a, b)
