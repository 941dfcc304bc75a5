"""Minimal float64 neural-network engine with hand-written gradients.

Provides dense MLPs, a post-norm transformer layer (multi-head attention and
an inner MLP, each followed by add-and-layernorm), per-row softmax heads, and
Adam. Gradients are analytic and checked against central finite differences
in the test suite. No positional encodings: responder rows form an unordered
set, so the stack is permutation-equivariant by construction.

Every pass takes an optional leading batch axis: (B, n, k) inputs run as B
stacked (n, k) samples. A stacked matmul runs each sample through the kernel an
unbatched call uses, so outputs and input gradients are the unbatched bits; a
flattened (B * n, k) product would not be (a one-row sample takes the gemv
path). A backward pass returns its parameter gradients as a list aligned with
arrays(), each summed over every leading axis (one contraction over the rows).

A decision runs one forward pass on a few rows, so its cost is per-call
overhead rather than arithmetic: the layer norm and softmax call the reduce
ufuncs directly instead of np.mean/np.var/.max/.sum, doing the same IEEE
operations in the same order (the tests compare the bits).

Each network (mlp_init, trxl_init, load_checkpoint) owns one contiguous
float64 vector, `flat`, and every array in arrays() is a view of it, laid out
back to back in arrays() order. Adam and Polyak averaging then run as a few
whole-vector operations, doing per element what one pass per array did.
Checkpoints (format v2) store these vectors one after another; a load builds
each network over its part of the vector it reads. Copies and pickles rebuild
the views over the copied vector (see _Network.__reduce__).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

Array = np.ndarray


def _glorot(rng: np.random.Generator, weights: list[Array]) -> None:
    """Glorot draws into each (d_in, d_out) weight matrix, in the order given."""
    for w in weights:
        limit = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-limit, limit, size=w.shape)


class _Slicer:
    """Consecutive views of one vector, each of the shape asked for: building
    a network's arrays in arrays() order lays them out back to back."""

    def __init__(self, flat: Array):
        self.flat, self.at = flat, 0

    def __call__(self, *shape: int) -> Array:
        start, self.at = self.at, self.at + math.prod(shape)
        return self.flat[start:self.at].reshape(shape)

    def since(self, start: int) -> Array:
        return self.flat[start:self.at]


def unflatten(params, flat: Array) -> list[Array]:
    """flat as a list aligned with params.arrays(), each entry a view of it."""
    take = _Slicer(flat)
    return [take(*a.shape) for a in params.arrays()]


# name -> (activation, its derivative)
_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0).astype(float)),
    "linear": (lambda z: z, np.ones_like),
    "softplus": (lambda z: np.logaddexp(0.0, z), lambda z: 1.0 / (1.0 + np.exp(-z))),
}


def softmax_rows(z: Array) -> Array:
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def softmax_rows_backward(p: Array, dp: Array) -> Array:
    inner = (dp * p).sum(axis=-1, keepdims=True)
    return p * (dp - inner)


# --- dense layers / MLP ------------------------------------------------------

@dataclass
class DenseLayer:
    w: Array
    b: Array
    activation: str = "linear"
    dropout: float = 0.0

    def arrays(self) -> list[Array]:
        return [self.w, self.b]


class _Network:
    """A parameter container whose arrays are views of its vector `flat`."""

    def __reduce__(self):
        """Copies and pickles rebuild the arrays over the copied vector;
        numpy's own copies would give each array memory of its own."""
        return _build, (_describe(self), self.flat)


@dataclass
class MlpParams(_Network):
    layers: list[DenseLayer]
    flat: Array | None = None

    def __post_init__(self):
        if self.flat is None:  # built by hand: move the layers into one vector
            take = _Slicer(np.concatenate(self.arrays(), axis=None, dtype=float))
            for layer in self.layers:
                layer.w, layer.b = take(*layer.w.shape), take(*layer.b.shape)
            self.flat = take.flat

    def arrays(self) -> list[Array]:
        return [a for layer in self.layers for a in layer.arrays()]

    @property
    def n_outputs(self) -> int:
        return self.layers[-1].w.shape[1]


def _mlp_size(sizes: list[int]) -> int:
    return sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))


def _mlp(take: _Slicer, sizes: list[int], activations: list[str],
         dropouts: list[float]) -> MlpParams:
    start = take.at
    layers = [DenseLayer(take(a, b), take(b), act, drop)
              for a, b, act, drop in zip(sizes, sizes[1:], activations, dropouts)]
    return MlpParams(layers, take.since(start))


def mlp_init(sizes: list[int], rng: np.random.Generator,
             activations: list[str] | None = None,
             dropouts: list[float] | None = None) -> MlpParams:
    """sizes = [d_in, h1, ..., d_out]; default hidden relu + linear output."""
    n = len(sizes) - 1
    if activations is None:
        activations = ["relu"] * (n - 1) + ["linear"]
    if dropouts is None:
        dropouts = [0.0] * n
    p = _mlp(_Slicer(np.zeros(_mlp_size(sizes))), sizes, activations, dropouts)
    _glorot(rng, [layer.w for layer in p.layers])
    return p


def _t(x: Array) -> Array:
    """Transpose of each sample's matrix."""
    return x.swapaxes(-1, -2)


def _rows(x: Array) -> Array:
    return x.reshape(-1, x.shape[-1])


def _affine_grads(x: Array, d: Array) -> tuple[Array, Array]:
    """Weight and bias gradients of x @ w + b for output gradient d, summed
    over every leading axis. einsum, not rows.T @ rows: the product would run
    multithreaded BLAS on these small matrices and cost more CPU time."""
    return np.einsum("ri,rj->ij", _rows(x), _rows(d)), _rows(d).sum(axis=0)


def mlp_forward(p: MlpParams, x: Array, train: bool = False,
                rng: np.random.Generator | None = None) -> tuple[Array, list]:
    """Dropout masks come from one draw, sample by sample and within a sample
    layer by layer: the stream B unbatched calls consume in turn."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    *lead, n = x.shape[:-1]
    u = None
    if train and any(layer.dropout > 0.0 for layer in p.layers):
        if rng is None:
            raise ValueError("dropout in training mode needs an explicit rng")
        width = sum(layer.w.shape[1] for layer in p.layers if layer.dropout > 0.0)
        u = rng.random((int(np.prod(lead)), n * width))
    cache, h, start = [], x, 0
    for layer in p.layers:
        pre = h @ layer.w + layer.b
        act = _ACTIVATIONS[layer.activation][0](pre)
        mask = None
        if u is not None and layer.dropout > 0.0:
            w = layer.w.shape[1]
            draw = u[:, start:start + n * w].reshape(*lead, n, w)
            mask = (draw >= layer.dropout) / (1.0 - layer.dropout)
            act = act * mask
            start += n * w
        cache.append((h, pre, mask))
        h = act
    return h, cache


def mlp_backward(p: MlpParams, cache: list, dy: Array) -> tuple[Array, list[Array]]:
    dh = np.atleast_2d(np.asarray(dy, dtype=float))
    grads: list[Array] = []
    for layer, (h_in, pre, mask) in zip(reversed(p.layers), reversed(cache)):
        if mask is not None:
            dh = dh * mask
        dz = dh * _ACTIVATIONS[layer.activation][1](pre)
        grads[:0] = _affine_grads(h_in, dz)
        dh = dz @ layer.w.T
    return dh, grads


# --- layer norm ---------------------------------------------------------------

_NORM_EPS = 1e-5


@dataclass
class NormParams:
    gain: Array
    bias: Array

    def arrays(self) -> list[Array]:
        return [self.gain, self.bias]


def norm_forward(p: NormParams, x: Array) -> tuple[Array, tuple]:
    """np.mean's and np.var's arithmetic, done once; var and xhat share the centred rows."""
    n = x.shape[-1]
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + _NORM_EPS)
    xhat = centred * inv
    return xhat * p.gain + p.bias, (xhat, inv)


def norm_backward(p: NormParams, cache: tuple, dy: Array) -> tuple[Array, list[Array]]:
    xhat, inv = cache
    dxhat = dy * p.gain
    mean_d = dxhat.mean(axis=-1, keepdims=True)
    mean_dx = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - mean_d - xhat * mean_dx)
    return dx, [_rows(dy * xhat).sum(axis=0), _rows(dy).sum(axis=0)]


# --- multi-head attention -----------------------------------------------------

@dataclass
class MhaParams:
    wq: Array
    bq: Array
    wk: Array
    bk: Array
    wv: Array
    bv: Array
    wo: Array
    bo: Array
    n_heads: int

    def arrays(self) -> list[Array]:
        return [self.wq, self.bq, self.wk, self.bk, self.wv, self.bv, self.wo, self.bo]


def _mha(take: _Slicer, width: int, n_heads: int) -> MhaParams:
    if n_heads < 1 or width % n_heads != 0:
        raise ValueError("model width must be a positive multiple of the head count")
    return MhaParams(*(a for _ in "qkvo" for a in (take(width, width), take(width))), n_heads)


def _split_heads(x: Array, h: int) -> Array:
    *lead, n, m = x.shape
    return x.reshape(*lead, n, h, m // h).swapaxes(-3, -2)  # (..., h, n, d)


def _merge_heads(x: Array) -> Array:
    *lead, h, n, d = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, n, h * d)


def mha_forward(p: MhaParams, x: Array) -> tuple[Array, tuple]:
    h = p.n_heads
    q = _split_heads(x @ p.wq + p.bq, h)
    k = _split_heads(x @ p.wk + p.bk, h)
    v = _split_heads(x @ p.wv + p.bv, h)
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = (q @ _t(k)) * scale
    attn = softmax_rows(scores)
    heads = attn @ v                      # (..., h, n, d)
    merged = _merge_heads(heads)
    y = merged @ p.wo + p.bo
    return y, (x, q, k, v, attn, merged, scale)


def mha_backward(p: MhaParams, cache: tuple, dy: Array) -> tuple[Array, list[Array]]:
    x, q, k, v, attn, merged, scale = cache
    dheads = _split_heads(dy @ p.wo.T, p.n_heads)
    dattn = dheads @ _t(v)
    dv = _t(attn) @ dheads
    dscores = softmax_rows_backward(attn, dattn)
    dq = (dscores @ k) * scale
    dk = (_t(dscores) @ q) * scale
    flats = [_merge_heads(d) for d in (dq, dk, dv)]
    dx = sum(f @ w.T for f, w in zip(flats, (p.wq, p.wk, p.wv)))
    grads = [g for f in flats for g in _affine_grads(x, f)] + [*_affine_grads(merged, dy)]
    # the key bias (grads[3]) shifts each row of scores by one constant, which
    # softmax ignores: its gradient is 0, and the computed sum only rounding noise
    grads[3][...] = 0.0
    return dx, grads


# --- transformer stack ---------------------------------------------------------

@dataclass
class TrxlLayer:
    mha: MhaParams
    norm_mha: NormParams
    mlp: MlpParams
    norm_mlp: NormParams

    def arrays(self) -> list[Array]:
        return (self.mha.arrays() + self.norm_mha.arrays()
                + self.mlp.arrays() + self.norm_mlp.arrays())


@dataclass
class TrxlParams(_Network):
    """N transformer layers between linear input/output projections, closed by
    a per-row softmax over the depot axis."""
    in_proj: DenseLayer
    layers: list[TrxlLayer]
    out_proj: DenseLayer
    flat: Array

    def arrays(self) -> list[Array]:
        return (self.in_proj.arrays() + [a for layer in self.layers for a in layer.arrays()]
                + self.out_proj.arrays())

    @property
    def feat_dim(self) -> int:
        return self.in_proj.w.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.out_proj.w.shape[1]


def _trxl_size(feat_dim: int, n_outputs: int, width: int, n_layers: int,
               inner_sizes: tuple[int, ...]) -> int:
    layer = 4 * (width + 1) * width + 4 * width + _mlp_size([width, *inner_sizes, width])
    return (feat_dim + 1) * width + n_layers * layer + (width + 1) * n_outputs


def _trxl(take: _Slicer, feat_dim: int, n_outputs: int, width: int, n_heads: int,
          n_layers: int, inner_sizes: tuple[int, ...], inner_dropout: float) -> TrxlParams:
    start = take.at
    in_proj = DenseLayer(take(feat_dim, width), take(width))
    sizes = [width, *inner_sizes, width]
    acts = ["relu"] * len(inner_sizes) + ["linear"]
    drops = [inner_dropout] * len(inner_sizes) + [0.0]
    layers = [TrxlLayer(_mha(take, width, n_heads), NormParams(take(width), take(width)),
                        _mlp(take, sizes, acts, drops), NormParams(take(width), take(width)))
              for _ in range(n_layers)]
    out_proj = DenseLayer(take(width, n_outputs), take(n_outputs))
    return TrxlParams(in_proj, layers, out_proj, take.since(start))


def trxl_init(feat_dim: int, n_outputs: int, rng: np.random.Generator,
              width: int | None = None, n_heads: int = 2, n_layers: int = 1,
              inner_sizes: tuple[int, ...] = (32,), inner_dropout: float = 0.0) -> TrxlParams:
    if n_layers < 1:
        raise ValueError("need at least one transformer layer")
    width = feat_dim if width is None else width
    flat = np.zeros(_trxl_size(feat_dim, n_outputs, width, n_layers, inner_sizes))
    p = _trxl(_Slicer(flat), feat_dim, n_outputs, width, n_heads, n_layers, inner_sizes,
              inner_dropout)
    for layer in p.layers:
        layer.norm_mha.gain[...] = layer.norm_mlp.gain[...] = 1.0
    # the draw order of separately allocated layers: each transformer layer's
    # inner MLP then attention, then the two projections
    _glorot(rng, [w for layer in p.layers
                  for w in ([d.w for d in layer.mlp.layers]
                            + [layer.mha.wq, layer.mha.wk, layer.mha.wv, layer.mha.wo])]
            + [p.in_proj.w, p.out_proj.w])
    return p


def trxl_forward(p: TrxlParams, x: Array, train: bool = False,
                 rng: np.random.Generator | None = None) -> tuple[Array, dict]:
    """Rows are responders, outputs are per-row depot likelihoods summing to 1.
    A batch (B, n, features) holds one responder count; with inner dropout in
    several layers, its masks are drawn layer by layer, not sample by sample."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (2, 3) or x.shape[-2] < 1:
        raise ValueError("input must be a nonempty (responders, features) matrix")
    if x.shape[-1] != p.feat_dim:
        raise ValueError(f"expected feature width {p.feat_dim}, got {x.shape[-1]}")
    cache: dict = {"x": x, "layers": []}
    h = x @ p.in_proj.w + p.in_proj.b
    for layer in p.layers:
        a, mha_cache = mha_forward(layer.mha, h)
        u, n1_cache = norm_forward(layer.norm_mha, h + a)
        f, mlp_cache = mlp_forward(layer.mlp, u, train=train, rng=rng)
        y, n2_cache = norm_forward(layer.norm_mlp, u + f)
        cache["layers"].append((mha_cache, n1_cache, mlp_cache, n2_cache))
        h = y
    logits = h @ p.out_proj.w + p.out_proj.b
    probs = softmax_rows(logits)
    cache["pre_out"] = h
    cache["probs"] = probs
    return probs, cache


def trxl_backward(p: TrxlParams, cache: dict, dprobs: Array) -> tuple[Array, list[Array]]:
    dlogits = softmax_rows_backward(cache["probs"], np.asarray(dprobs, dtype=float))
    dh = dlogits @ p.out_proj.w.T
    layers: list[Array] = []
    for layer, (mha_cache, n1_cache, mlp_cache, n2_cache) in zip(reversed(p.layers),
                                                                reversed(cache["layers"])):
        dsum2, g_norm_mlp = norm_backward(layer.norm_mlp, n2_cache, dh)
        dmlp_in, g_mlp = mlp_backward(layer.mlp, mlp_cache, dsum2)
        dsum1, g_norm_mha = norm_backward(layer.norm_mha, n1_cache, dsum2 + dmlp_in)
        dmha_in, g_mha = mha_backward(layer.mha, mha_cache, dsum1)
        dh = dsum1 + dmha_in
        layers[:0] = g_mha + g_norm_mha + g_mlp + g_norm_mlp
    return dh @ p.in_proj.w.T, [*_affine_grads(cache["x"], dh), *layers,
                                *_affine_grads(cache["pre_out"], dlogits)]


# --- optimizer ------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: Array  # first and second moments, flat vectors laid out as params.flat
    v: Array
    t: int = 0


def adam_init(params) -> AdamState:
    return AdamState(np.zeros(params.flat.size), np.zeros(params.flat.size))


def adam_step(state: AdamState, params, grads: list[Array], lr: float):
    """One Adam update, in place on params.flat; misaligned grads raise first.
    Per element it computes m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    a -= (lr*(m/c1)) / (sqrt(v/c2) + eps), so each bit is what a separate
    update of each array in arrays() gives."""
    arrays = params.arrays()
    if [g.shape for g in grads] != [a.shape for a in arrays]:
        raise ValueError("gradients do not match params.arrays() in length and shapes")
    g = np.concatenate(grads, axis=None)
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    m, v = state.m, state.v
    sq = (1 - b2) * g
    sq *= g
    v *= b2
    v += sq
    g *= 1 - b1
    m *= b1
    m += g
    den = np.divide(v, c2, out=sq)
    np.sqrt(den, out=den)
    den += ADAM_EPS
    step = np.divide(m, c1, out=g)
    step *= lr
    step /= den
    params.flat -= step


def soft_update(target, online, tau: float):
    """Polyak averaging: target <- (1 - tau) * target + tau * online."""
    target.flat *= 1.0 - tau
    target.flat += tau * online.flat


# --- checkpoints ------------------------------------------------------------------

_CHECKPOINT_VERSION = 2


def _describe(params) -> dict:
    if isinstance(params, MlpParams):
        return {
            "kind": "mlp",
            "sizes": [params.layers[0].w.shape[0]] + [l.w.shape[1] for l in params.layers],
            "activations": [l.activation for l in params.layers],
            "dropouts": [l.dropout for l in params.layers],
        }
    if isinstance(params, TrxlParams):
        return {
            "kind": "trxl",
            "feat_dim": params.feat_dim,
            "n_outputs": params.n_outputs,
            "width": params.in_proj.w.shape[1],
            "n_heads": params.layers[0].mha.n_heads,
            "n_layers": len(params.layers),
            "inner_sizes": [l.w.shape[1] for l in params.layers[0].mlp.layers[:-1]],
            "inner_dropout": params.layers[0].mlp.layers[0].dropout,
        }
    raise TypeError(f"cannot checkpoint {type(params)}")


_ENTRY_KEYS = {"mlp": ("sizes", "activations", "dropouts"),
               "trxl": ("feat_dim", "n_outputs", "width", "n_heads", "n_layers",
                        "inner_sizes", "inner_dropout")}


def _size(name: str, spec: dict) -> int:
    """Length of the vector of the network spec describes; checks the spec."""
    missing = [k for k in ("kind", *_ENTRY_KEYS.get(spec.get("kind"), ())) if k not in spec]
    if missing:
        raise ValueError(f"checkpoint entry {name} has no {missing[0]}")
    if spec["kind"] == "mlp":
        return _mlp_size(spec["sizes"])
    if spec["kind"] == "trxl":
        return _trxl_size(spec["feat_dim"], spec["n_outputs"], spec["width"],
                          spec["n_layers"], spec["inner_sizes"])
    raise ValueError(f"unknown checkpoint kind {spec['kind']}")


def _build(spec: dict, flat: Array):
    """The network spec describes, its arrays views of flat."""
    if spec["kind"] == "mlp":
        return _mlp(_Slicer(flat), spec["sizes"], spec["activations"], spec["dropouts"])
    return _trxl(_Slicer(flat), spec["feat_dim"], spec["n_outputs"], spec["width"],
                 spec["n_heads"], spec["n_layers"], tuple(spec["inner_sizes"]),
                 spec["inner_dropout"])


def save_checkpoint(path, named_params: dict) -> None:
    """An npz of two members: `__meta__`, the JSON description of each named
    network, and `params`, one float64 vector holding every parameter array,
    in entry order and then arrays() order: the networks' vectors in turn."""
    meta = {"version": _CHECKPOINT_VERSION,
            "entries": {name: _describe(p) for name, p in named_params.items()}}
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             params=np.concatenate([p.flat for p in named_params.values()]))


def load_checkpoint(path) -> dict:
    """Each network's arrays are views of its part of the vector read from path."""
    with np.load(path) as data:
        if "__meta__" not in data.files:
            raise ValueError(f"checkpoint {path} has no __meta__ member")
        meta = json.loads(bytes(data["__meta__"]).decode())
        for key in ("version", "entries"):
            if key not in meta:
                raise ValueError(f"checkpoint {path} has no {key} in its __meta__")
        if meta["version"] != _CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        if "params" not in data.files:
            raise ValueError(f"checkpoint {path} has no params member")
        flat = data["params"]
    if flat.dtype != np.float64:
        raise ValueError(f"checkpoint {path} holds parameters of dtype {flat.dtype}, "
                         f"not float64")
    entries = meta["entries"]
    sizes = [_size(name, spec) for name, spec in entries.items()]
    if flat.shape != (sum(sizes),):
        raise ValueError(f"checkpoint holds parameters of shape {flat.shape}, "
                         f"its entries describe {sum(sizes)}")
    ends = np.cumsum(sizes).tolist()
    return {name: _build(spec, flat[end - size:end])
            for (name, spec), size, end in zip(entries.items(), sizes, ends)}
