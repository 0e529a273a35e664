"""Minimal MLP substrate: tanh hidden layers, analytic backprop, Adam."""

from __future__ import annotations

import base64
import binascii
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

LINEAR = "linear"
SOFTMAX = "softmax"

CHECKPOINT_VERSION = "2"

# Adam moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class DivergenceError(RuntimeError):
    """Non-finite gradients or parameters: the run has diverged."""


@lru_cache
def _layout(dims: tuple[int, ...]) -> list[tuple[int, int, tuple]]:
    """(start, stop, shape) in the flat buffer of every weight matrix, then
    every bias vector."""
    shapes = list(zip(dims, dims[1:])) + [(b,) for b in dims[1:]]
    stops = np.cumsum([math.prod(s) for s in shapes]).tolist()
    return [(stop - math.prod(s), stop, s) for stop, s in zip(stops, shapes)]


def _views(flat: np.ndarray, dims: list[int]) -> tuple[list, list]:
    """Weight-matrix and bias-vector views of `flat`: all weights, then all biases."""
    parts = [flat[a:b].reshape(s) for a, b, s in _layout(tuple(dims))]
    return parts[:len(dims) - 1], parts[len(dims) - 1:]


@dataclass
class Mlp:
    """Fully connected net; tanh hidden activations, linear or softmax head."""

    dims: list[int]
    head: str
    params: np.ndarray  # every weight matrix, then every bias vector
    # forward_table's (output, cache) for these params, and the greedy actions
    # and sampling CDF agents derive from its rows; apply_update drops all three
    table: tuple | None = field(default=None, repr=False, compare=False)
    greedy: list | None = field(default=None, repr=False, compare=False)
    cdf: np.ndarray | None = field(default=None, repr=False, compare=False)
    weights: list = field(init=False, repr=False, compare=False)  # views of params
    biases: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.weights, self.biases = _views(self.params, self.dims)

    def copy(self) -> "Mlp":
        return Mlp(list(self.dims), self.head, self.params.copy())


@dataclass
class GradientSet:
    """Gradients in Mlp.params layout; d_weights and d_biases are views of flat."""

    dims: list[int]
    flat: np.ndarray
    d_weights: list = field(init=False, repr=False, compare=False)
    d_biases: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.d_weights, self.d_biases = _views(self.flat, self.dims)


def _check_layout(dims, head: str) -> None:
    if head not in (LINEAR, SOFTMAX):
        raise ValueError(f"unknown head {head!r}")
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"bad layer dims {dims}")


def init_mlp(dims, head: str, seed) -> Mlp:
    """Uniform init scaled by 1/sqrt(fan_in); biases zero; seed-deterministic."""
    _check_layout(dims, head)
    rng = np.random.default_rng(seed)
    net = Mlp(list(dims), head,
              np.zeros(sum((a + 1) * b for a, b in zip(dims, dims[1:]))))
    for w in net.weights:
        scale = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-scale, scale, size=w.shape)
    return net


def as_float32(net: Mlp) -> Mlp:
    """A copy of the net with float32 params: how the trainers' nets run."""
    return Mlp(list(net.dims), net.head, net.params.astype(np.float32))


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def forward(net: Mlp, x: np.ndarray):
    """Run the net in its params' dtype; returns (output, cache). Accepts a
    vector or a batch. Zero rows pad the batch to a multiple of 8, so the BLAS
    computes a row alike in any batch; the cache keeps them, the output not."""
    x = np.asarray(x, dtype=net.params.dtype)
    squeeze = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != net.dims[0]:
        raise ValueError(f"input dim {x.shape[1]} != {net.dims[0]}")
    activations = [np.concatenate([x, np.zeros((-len(x) % 8, x.shape[1]), x.dtype)])]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = activations[-1] @ w
        z += b
        activations.append(np.tanh(z, out=z))
    logits = activations[-1] @ net.weights[-1]
    logits += net.biases[-1]
    out = softmax(logits) if net.head == SOFTMAX else logits
    return (out[0] if squeeze else out[:len(x)]), (activations, logits, out)


@lru_cache
def _identity(n: int, dtype) -> np.ndarray:
    """forward_table's input rows: a read-only view of an n x n identity."""
    return np.broadcast_to(np.eye(n, dtype=dtype), (n, n))


def forward_table(net: Mlp):
    """forward on one row per observation id, kept read-only on the net until
    apply_update. Its rows equal any forward's rows for the same ids bit for
    bit, one-row forwards and one-unit heads included: forward's padding."""
    if net.table is None:
        out, cache = forward(net, _identity(net.dims[0], net.params.dtype))
        for a in (out, *cache[0], *cache[1:]):
            a.flags.writeable = False
        net.table = out, cache
    return net.table


def backward(net: Mlp, cache, grad_out: np.ndarray,
             from_logits: bool = False) -> GradientSet:
    """Analytic gradients of a scalar loss given dLoss/d(output).

    With a softmax head, grad_out is w.r.t. the probabilities unless
    `from_logits` is set, in which case it is w.r.t. the pre-softmax logits.
    """
    activations, logits, out = cache
    g = np.atleast_2d(np.asarray(grad_out, dtype=net.params.dtype))
    if len(g) < len(out):  # forward's pad rows take no gradient
        g = np.concatenate([g, np.zeros((len(out) - len(g), g.shape[1]), g.dtype)])
    if net.head == SOFTMAX and not from_logits:
        p = out
        g = p * (g - (g * p).sum(axis=-1, keepdims=True))
    grads = GradientSet(net.dims, np.empty_like(net.params))
    for i in range(len(net.weights) - 1, -1, -1):
        np.matmul(activations[i].T, g, out=grads.d_weights[i])
        g.sum(axis=0, out=grads.d_biases[i])
        if i > 0:
            g = g @ net.weights[i].T
            g *= 1.0 - activations[i] ** 2
    return grads


def backward_ids(net: Mlp, ids, grad_rows: np.ndarray,
                 from_logits: bool = False) -> GradientSet:
    """backward for a batch of observation ids, with one dLoss/d(output) row
    per id (or one entry per (ids, columns) pair): cast to the table's dtype,
    summed per id, then backward over forward_table's rows."""
    cache = forward_table(net)[1]
    g = np.zeros_like(cache[2])
    np.add.at(g, ids, np.asarray(grad_rows, g.dtype))
    return backward(net, cache, g, from_logits)


@dataclass
class OptimizerState:
    """Adam state; float32 moments and scratch, flat like Mlp.params, made once.
    `max_norm` caps each gradient's global norm (<= 0: no cap)."""

    lr: float = 0.005
    max_norm: float = 0.0
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scratch: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if isinstance(self.max_norm, bool) or not isinstance(self.max_norm, numbers.Real) \
                or not math.isfinite(self.max_norm):
            raise ValueError(f"max_norm must be a finite number, got {self.max_norm!r}")


def apply_update(net: Mlp, opt: OptimizerState, grads: GradientSet) -> None:
    """Clip grads in place to opt.max_norm, then take one Adam step on the
    params in place, in float32; drops the net's table, greedy and cdf. A
    DivergenceError writes nothing to the net or opt."""
    p, g = net.params, grads.flat
    if grads.dims != net.dims or g.shape != p.shape:
        raise ValueError("gradient/parameter shape mismatch")
    if opt.m is None:
        opt.m, opt.v = np.zeros((2, p.size), np.float32)
        opt.scratch = np.empty((2, p.size), np.float32)
    t, s = opt.scratch
    g32 = g if g.dtype == np.float32 else t  # a float32 gradient is read in place
    cap = opt.max_norm

    def squares():
        # in float32: a finite float64 gradient can overflow the cast, and a
        # finite float32 one its square, which would leave v infinite for good
        with np.errstate(over="ignore"):
            if g32 is t:
                t[...] = g
            np.multiply(1 - BETA2, g32, out=s)
            np.multiply(s, g32, out=s)
            return float(s.sum()) if cap > 0 else math.nan  # no cap: no proof

    # a float32 sum of the squares 1e-3 under the cap's, less room for subnormal
    # rounding, proves the exact norm under the cap and every square finite
    unproven = not squares() < (1 - BETA2) * (1 - 1e-3) * cap * cap - p.size * 2.0 ** -148
    if unproven and cap > 0 and clip_gradients(grads, cap) > cap:
        squares()
    if unproven and not math.isfinite(s.max()):
        raise DivergenceError("non-finite gradient")
    opt.step += 1
    b2c = math.sqrt(1.0 - BETA2 ** opt.step)
    alpha = opt.lr * b2c / (1.0 - BETA1 ** opt.step)
    # p -= alpha * m / (sqrt(v) + EPS * b2c): the bias corrections folded into
    # the step size and epsilon (Kingma & Ba 2015, section 2), one ufunc at a time
    m, v = opt.m, opt.v
    v *= BETA2
    v += s
    m *= BETA1
    np.multiply(1 - BETA1, g32, out=s)
    m += s
    np.sqrt(v, out=s)
    s += EPS * b2c
    np.multiply(alpha, m, out=t)
    t /= s
    p -= t
    net.table = net.greedy = net.cdf = None


def clip_gradients(grads: GradientSet, max_norm: float) -> float:
    """Scale grads in place to a global norm cap; returns the pre-clip norm,
    summed in float64, where a float32 gradient's squares cannot overflow."""
    total = math.sqrt(np.square(grads.flat, dtype=np.float64).sum())
    if max_norm > 0 and total > max_norm:
        grads.flat *= max_norm / total
    return total


def _encode(a: np.ndarray) -> str:
    """base64 of the array's values as little-endian float64 bytes."""
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8")).decode("ascii")


def _decode(text, shape) -> bytes:
    """The little-endian float64 bytes of an array of `shape`, from base64."""
    if not isinstance(text, str):
        raise ValueError(f"array must be a base64 string, not {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"array is not valid base64: {exc}") from exc
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"array of {len(raw)} bytes does not fit shape {shape}")
    return raw


def net_to_dict(net: Mlp) -> dict:
    """Checkpoint v2: JSON layout, each array as base64 of its values' float64
    bytes, which hold a float32 net exactly; net_from_dict makes float64 nets."""
    return {
        "version": CHECKPOINT_VERSION,
        "layer_dims": list(net.dims),
        "head": net.head,
        "weights": [_encode(w) for w in net.weights],
        "biases": [_encode(b) for b in net.biases],
    }


def net_from_dict(doc: dict) -> Mlp:
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    dims = doc["layer_dims"]
    if type(dims) is not list or any(type(d) is not int for d in dims):
        raise ValueError(f"layer dims must be a list of JSON integers, got {dims!r}")
    _check_layout(dims, doc["head"])
    shapes = list(zip(dims, dims[1:]))
    if len(doc["weights"]) != len(shapes) or len(doc["biases"]) != len(shapes):
        raise ValueError(f"weights and biases do not match layer dims {dims}")
    raw = b"".join([_decode(w, s) for w, s in zip(doc["weights"], shapes)]
                   + [_decode(b, s[1:]) for b, s in zip(doc["biases"], shapes)])
    return Mlp(list(dims), doc["head"], np.frombuffer(raw, dtype="<f8").astype(float))
