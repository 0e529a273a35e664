"""Unit tests for the MLP substrate: forward, backward, Adam, storage."""

import base64
import json
import math

import numpy as np
import pytest

import oracles
from cyberdefsim import neural_net
from cyberdefsim.neural_net import (
    DivergenceError,
    GradientSet,
    LINEAR,
    OptimizerState,
    SOFTMAX,
    apply_update,
    as_float32,
    backward,
    backward_ids,
    clip_gradients,
    forward,
    forward_table,
    init_mlp,
    log_softmax,
    net_from_dict,
    net_to_dict,
    softmax,
)
from cyberdefsim.agents.a2c import make_actor_critic
from cyberdefsim.agents.common import HyperParams
from cyberdefsim.agents.dqn import DqnAgent
from cyberdefsim.harness import ConfigError, load_checkpoint, save_checkpoint


def test_init_is_seed_deterministic_and_shaped():
    a = init_mlp([4, 8, 3], LINEAR, 7)
    b = init_mlp([4, 8, 3], LINEAR, 7)
    c = init_mlp([4, 8, 3], LINEAR, 8)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert any(not np.array_equal(x, y) for x, y in zip(a.weights, c.weights))
    assert [w.shape for w in a.weights] == [(4, 8), (8, 3)]
    assert all(not b_.any() for b_ in a.biases)


def test_init_validation():
    with pytest.raises(ValueError):
        init_mlp([4], LINEAR, 0)
    with pytest.raises(ValueError):
        init_mlp([4, 0, 2], LINEAR, 0)
    with pytest.raises(ValueError):
        init_mlp([4, 2], "sigmoid", 0)


def test_forward_vector_batch_agreement():
    net = init_mlp([5, 6, 4], SOFTMAX, 1)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 5))
    batch, _ = forward(net, x)
    singles = np.stack([forward(net, row)[0] for row in x])
    assert np.allclose(batch, singles)
    assert np.allclose(batch.sum(axis=1), 1.0)
    with pytest.raises(ValueError):
        forward(net, np.zeros(4))


def perturbed_net(width, head, seed, rng):
    """A 17-256-256-width net with non-zero biases."""
    net = init_mlp([17, 256, 256, width], head, seed)
    for b in net.biases:
        b[...] = rng.normal(scale=0.1, size=b.shape)
    return net


@pytest.mark.parametrize("seed", range(4))
def test_table_rows_equal_batch_rows(seed):
    """Rows gathered from forward_table equal a batch forward's, bit for bit,
    on float64 nets and on the float32 nets the trainers run.

    Every learner reads its nets as 17-row tables, at batches of 48 ids
    (DQN, A2C, PPO) and 12 (an A3C fragment), and trains them through
    backward_ids over the same rows. So a table row stands for a batch row
    by this property of the BLAS's matrix-matrix product, which forward
    gets by padding every batch with zero rows to a multiple of 8: unpadded,
    float32's 17-row table differs in its last row, and one-row forwards and
    one-unit heads, like the critic's, take the matrix-vector path. It holds
    for every hidden layer and every head, one-row forwards included.
    """
    rng = np.random.default_rng(seed)
    for width in (23, 1):
        net64 = perturbed_net(width, LINEAR, seed, rng)
        for net in (net64, as_float32(net64)):
            table, (table_acts, _, _) = forward_table(net)
            assert table.shape == (17, width) and table.dtype == net.params.dtype
            for batch in (48, 48, 48, 32, 12, 1):
                ids = rng.integers(17, size=batch)
                out, (acts, _, _) = forward(net, np.eye(net.dims[0])[ids])
                assert len(out) == batch
                assert table[ids].tobytes() == out.tobytes()
                assert len(acts) == len(table_acts) == 3
                for a, t in zip(acts, table_acts):
                    assert t[ids].tobytes() == a[:batch].tobytes()
            for i in range(17):
                assert forward(net, np.eye(net.dims[0])[i])[0].tobytes() \
                    == table[i].tobytes()


def test_forward_returns_as_many_rows_as_it_was_given():
    """The output drops forward's zero pad rows; the cache keeps them, a
    multiple of 8 rows, for backward. A returned pad row would read as an
    observation's row wherever a caller takes argmax over the output."""
    for net in (init_mlp([2, 8, 2], LINEAR, 0),
                as_float32(init_mlp([2, 8, 2], SOFTMAX, 0))):
        for rows in (1, 2, 7, 8, 9, 17, 48):
            out, (acts, logits, full) = forward(net, np.ones((rows, 2)))
            assert out.shape == (rows, 2) and out.dtype == net.params.dtype
            assert all(len(a) == len(logits) == len(full) == rows + -rows % 8
                       for a in acts)
            assert not acts[0][rows:].any()
            assert full[:rows].tobytes() == out.tobytes()
        assert forward(net, np.ones(2))[0].shape == (2,)
        assert len(forward_table(net)[0]) == 2


def dense_and_per_id_gradients(net, ids, rng, from_logits):
    """backward on a batch forward of the ids' input rows (padded by forward),
    and backward_ids, for one random output-gradient row per id; both as
    flat arrays."""
    grad_rows = rng.normal(size=(len(ids), net.dims[-1]))
    _, cache = forward(net, np.eye(net.dims[0])[ids])
    dense = backward(net, cache, grad_rows, from_logits)
    return dense.flat, backward_ids(net, ids, grad_rows, from_logits).flat


@pytest.mark.parametrize("head,width", [(SOFTMAX, 23), (LINEAR, 23), (LINEAR, 1)])
def test_backward_ids_equals_dense_backward(head, width):
    """backward_ids is backward on the ids' input rows, on float64 nets and
    on the trainers' float32 nets: bit for bit for distinct sorted ids on the
    actor's and the Q net's 23-wide heads, where no two rows are summed and
    each table row is the batch row. Repeated ids sum before the backward,
    not after, and the critic's one-unit head sums its weight gradient in
    another order, so those agree within a bound relative to the gradient's
    largest entry, a few units of the dtype's rounding: single entries that
    cancel to near zero differ by far more than that of themselves."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        net64 = perturbed_net(width, head, seed, rng)
        for net, bound in ((net64, 1e-13), (as_float32(net64), 1e-5)):
            for from_logits in (False, True):
                for batch in (5, 12, 17):
                    ids = np.sort(rng.choice(17, size=batch, replace=False))
                    dense, per_id = dense_and_per_id_gradients(net, ids, rng,
                                                               from_logits)
                    assert per_id.dtype == net.params.dtype
                    if width > 1:
                        assert per_id.tobytes() == dense.tobytes()
                    assert np.abs(per_id - dense).max() <= bound * np.abs(dense).max()
                for batch in (12, 32, 48):
                    ids = rng.integers(17, size=batch)
                    dense, per_id = dense_and_per_id_gradients(net, ids, rng,
                                                               from_logits)
                    assert np.abs(per_id - dense).max() <= bound * np.abs(dense).max()


def test_softmax_stability_and_log_consistency():
    logits = np.array([1000.0, 1001.0, 999.0])
    p = softmax(logits)
    assert np.isfinite(p).all() and p.sum() == pytest.approx(1.0)
    assert np.allclose(np.log(p), log_softmax(logits))


def test_backward_shapes_match_parameters():
    net = init_mlp([5, 7, 3], LINEAR, 2)
    out, cache = forward(net, np.ones(5))
    grads = backward(net, cache, np.ones(3))
    assert [g.shape for g in grads.d_weights] == [w.shape for w in net.weights]
    assert [g.shape for g in grads.d_biases] == [b.shape for b in net.biases]


def test_adam_update_moves_parameters():
    net = init_mlp([3, 4, 2], LINEAR, 0)
    before = [w.copy() for w in net.weights]
    grads = GradientSet(net.dims, np.full_like(net.params, 0.5))
    opt = OptimizerState(lr=0.01)
    apply_update(net, opt, grads)
    assert all(
        not np.allclose(w, b) for w, b in zip(net.weights, before)
    )


def textbook_adam(params, grads, m, v, step, lr):
    """Allocating Adam (Kingma & Ba 2015, Algorithm 1) in float64 on copies."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = [b1 * mi + (1 - b1) * g for mi, g in zip(m, grads)]
    v = [b2 * vi + (1 - b2) * g * g for vi, g in zip(v, grads)]
    params = [p - lr * (mi / (1.0 - b1 ** step))
              / (np.sqrt(vi / (1.0 - b2 ** step)) + eps)
              for p, mi, vi in zip(params, m, v)]
    return params, m, v


def folded_adam32(params, grads, m, v, step, lr):
    """Allocating Adam with the bias corrections folded into the step size
    and epsilon (Kingma & Ba 2015, section 2, last paragraph), in float32 on
    float32 params and float32 copies of the gradients."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    alpha = lr * math.sqrt(1.0 - b2 ** step) / (1.0 - b1 ** step)
    eps_hat = eps * math.sqrt(1.0 - b2 ** step)
    grads = [g.astype(np.float32) for g in grads]
    m = [b1 * mi + (1 - b1) * g for mi, g in zip(m, grads)]
    v = [b2 * vi + (1 - b2) * g * g for vi, g in zip(v, grads)]
    params = [p - alpha * mi / (np.sqrt(vi) + eps_hat)
              for p, mi, vi in zip(params, m, v)]
    return params, m, v


def test_adam_is_bit_equal_to_the_textbook_step():
    """On a float32 net, as the trainers run it: bit for bit the folded
    float32 step, and within float32 precision of the step of the unfolded
    float64 Adam over all 7 steps."""
    net = as_float32(init_mlp([5, 7, 3], LINEAR, 2))
    opt = OptimizerState(lr=0.01)
    rng = np.random.default_rng(3)
    params = [p.copy() for p in net.weights + net.biases]
    m = [np.zeros(p.shape, np.float32) for p in params]
    v = [np.zeros(p.shape, np.float32) for p in params]
    params64 = [p.astype(np.float64) for p in params]
    m64 = [np.zeros_like(p) for p in params]
    v64 = [np.zeros_like(p) for p in params]
    for step in range(1, 8):
        grads = [rng.normal(size=p.shape) * 10.0 ** rng.integers(-3, 3)
                 for p in params]
        params, m, v = folded_adam32(params, grads, m, v, step, opt.lr)
        params64, m64, v64 = textbook_adam(params64, grads, m64, v64, step,
                                           opt.lr)
        apply_update(net, opt, GradientSet(
            net.dims, np.concatenate([g.ravel() for g in grads])))
        assert opt.step == step
        for got, want in ((net.params, params), (opt.m, m), (opt.v, v)):
            assert got.tobytes() == b"".join(a.tobytes() for a in want)
        # each step rounds the params to float32 once (the subtraction) and
        # carries float32 error in a step no larger than
        # lr (1 - b1) / sqrt(1 - b2) (Kingma & Ba 2015, section 2.1)
        want64 = np.concatenate([p.ravel() for p in params64])
        max_step = opt.lr * 0.1 / math.sqrt(0.001)
        bound = step * np.finfo(np.float32).eps * (np.abs(want64) + max_step)
        assert np.all(np.abs(net.params - want64) <= bound)


def test_divergence_in_the_last_gradient_writes_nothing():
    net = init_mlp([4, 6, 2], LINEAR, 1)
    opt = OptimizerState(lr=0.01)
    rng = np.random.default_rng(0)

    def grads():
        return GradientSet(net.dims, rng.normal(size=net.params.shape))

    for _ in range(3):
        apply_update(net, opt, grads())
    before = [a.copy() for a in (net.params, opt.m, opt.v)]
    bad = grads()
    bad.d_biases[-1][-1] = np.nan  # the flat array's last entry
    with pytest.raises(DivergenceError):
        apply_update(net, opt, bad)
    assert opt.step == 3
    for got, want in zip((net.params, opt.m, opt.v), before):
        assert got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("big,net32", [(1e39, False), (1e30, False), (1e30, True)],
                         ids=["1e+39", "1e+30", "1e+30-float32-net"])
def test_a_gradient_that_overflows_float32_raises_and_writes_nothing(big, net32):
    """A float64-finite gradient whose float32 cast (1e39) or square (1e30)
    overflows diverges before the step, and so does a float32 net's finite
    gradient whose square overflows (1e30). With clipping off it would
    otherwise write NaN params, or leave v infinite and the param frozen."""
    net = init_mlp([4, 6, 2], LINEAR, 1)
    net = as_float32(net) if net32 else net
    opt = OptimizerState(lr=0.01)
    rng = np.random.default_rng(0)
    apply_update(net, opt, GradientSet(net.dims, rng.normal(size=net.params.shape)))
    before = [a.copy() for a in (net.params, opt.m, opt.v)]
    grads = GradientSet(net.dims, rng.normal(size=net.params.shape)
                        .astype(net.params.dtype))
    grads.d_weights[0][1, 2] = big
    clip_gradients(grads, 0.0)  # grad_clip <= 0 turns clipping off
    assert np.isfinite(grads.flat).all()
    with pytest.raises(DivergenceError):
        apply_update(net, opt, grads)
    assert opt.step == 1
    for got, want in zip((net.params, opt.m, opt.v), before):
        assert got.tobytes() == want.tobytes()


def test_the_trainers_nets_are_float32_end_to_end():
    """The trainers' nets run in float32: params, gradients, tables, Adam's
    moments and scratch, each made once; init_mlp's nets stay float64. A
    checkpoint holds float64 bytes and round-trips a float32 net exactly."""
    agent = DqnAgent(17, 23, HyperParams(), 0, hidden=(16,))
    actor, critic = make_actor_critic(17, 23, 0, hidden=(16,))
    assert init_mlp([17, 16, 23], LINEAR, 0).params.dtype == np.float64
    rng = np.random.default_rng(5)
    for net in (agent.qnet, actor, critic):
        opt = OptimizerState(lr=0.01)
        buffers = None
        for _ in range(3):
            assert net.params.dtype == np.float32
            assert all(np.shares_memory(a, net.params) for a in net.weights + net.biases)
            out, (activations, logits, probs) = forward_table(net)
            assert all(a.dtype == np.float32 for a in (out, logits, probs, *activations))
            grads = backward_ids(net, rng.integers(17, size=48),
                                 rng.normal(size=(48, net.dims[-1])))
            assert grads.flat.dtype == np.float32
            apply_update(net, opt, grads)
            assert opt.m.dtype == opt.v.dtype == opt.scratch.dtype == np.float32
            buffers = buffers or (opt.m, opt.v, opt.scratch)
            assert all(a is b for a, b in zip(buffers, (opt.m, opt.v, opt.scratch)))
            doc = json.loads(json.dumps(net_to_dict(net)))
            assert len(base64.b64decode(doc["weights"][0])) == 8 * net.weights[0].size
            clone = net_from_dict(doc)
            assert clone.params.dtype == np.float64
            assert clone.params.astype(np.float32).tobytes() == net.params.tobytes()
            assert as_float32(clone).params.tobytes() == net.params.tobytes()


def test_non_finite_gradient_raises():
    net = init_mlp([2, 2], LINEAR, 0)
    grads = GradientSet(net.dims, np.zeros_like(net.params))
    grads.d_weights[0][...] = np.nan
    with pytest.raises(DivergenceError):
        apply_update(net, OptimizerState(), grads)


def test_clip_gradients():
    g = GradientSet([2, 2], np.array([3.0] * 4 + [0.0] * 2))
    norm = clip_gradients(g, max_norm=1.0)
    assert norm == pytest.approx(6.0)
    assert np.sqrt((g.d_weights[0] ** 2).sum()) == pytest.approx(1.0)
    # cap of zero disables clipping
    g2 = GradientSet([2, 2], np.array([3.0] * 4 + [0.0] * 2))
    clip_gradients(g2, max_norm=0.0)
    assert np.array_equal(g2.d_weights[0], np.full((2, 2), 3.0))


def test_a_float32_gradient_clips_by_its_float64_norm():
    """The norm of a float32 gradient is summed in float64: squares of 1e20
    overflow float32, and an infinite norm would scale the step to zero."""
    g = GradientSet([2, 2], np.full(6, 1e20, np.float32))
    norm = clip_gradients(g, max_norm=40.0)
    assert norm == pytest.approx(1e20 * math.sqrt(6), rel=1e-6)
    assert g.flat.dtype == np.float32
    assert np.isfinite(g.flat).all() and g.flat.all()
    assert np.sqrt(np.square(g.flat, dtype=np.float64).sum()) == pytest.approx(40.0, rel=1e-6)


# gradient norms as multiples of the cap: a float32 rounding either side of
# it, either side of the pre-check's margin (squares 1e-3 under the cap's)
# and of the norm at that margin, far under and far over
FOLD_SCALES = (1 - 1e-7, 1 + 1e-7, 1 - 0.9e-3, 1 - 1.1e-3,
               math.sqrt(1 - 1e-3) * (1 - 1e-6), math.sqrt(1 - 1e-3),
               math.sqrt(1 - 1e-3) * (1 + 1e-6), 0.5, 1e-3, 2.0, 1e3)
# the stock cap, small caps whose gradients' squares underflow float32 (1e-30)
# or are themselves subnormal (1e-39), one whose squares overflow, and no cap
FOLD_CAPS = (40.0, 1.0, 1e-3, 1e-30, 1e-39, 1e30, 0.0, -1.0)
FOLD_KINDS = ("norm", "norm", "norm", "overflow", "subnormal", "non-finite")


def _fold_gradient(rng, n, dtype, kind, cap):
    g = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2, size=n)
    if kind == "norm":
        scale = FOLD_SCALES[rng.integers(len(FOLD_SCALES))]
        g *= (cap if cap > 0 else 40.0) * scale / math.sqrt(np.square(g).sum())
    elif kind == "overflow":  # the square, or the float32 cast, overflows
        g[rng.integers(n)] = rng.choice([1e20, 1e30] if dtype == np.float32
                                        else [1e20, 1e30, 1e39])
    elif kind == "subnormal":  # subnormal in float32
        g *= 10.0 ** rng.uniform(-44, -39)
    else:
        g[rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
    return g.astype(dtype)


def _step_or_diverge(step, *args) -> bool:
    try:
        step(*args)
    except DivergenceError:
        return True
    return False


def test_the_clip_folded_into_adam_equals_clip_then_adam():
    """apply_update with max_norm is, byte for byte on the params, m, v and
    the gradient, the clip of clip_gradients followed by the Adam step
    (oracles.clip_then_adam): on float32 and float64 nets, at norms on either
    side of the cap and of the pre-check's margin, on squares that overflow
    float32, subnormal gradients and non-finite ones, with and without a
    cap. A DivergenceError writes nothing to the net or the moments."""
    rng = np.random.default_rng(2023)
    outcomes = {"clipped": 0, "diverged": 0, "stepped": 0}
    for case in range(3000):
        dtype = (np.float32, np.float64)[case % 2]
        cap = FOLD_CAPS[case // 2 % len(FOLD_CAPS)]
        kind = FOLD_KINDS[case // 16 % len(FOLD_KINDS)]
        net = init_mlp([int(d) for d in rng.integers(1, 7, size=rng.integers(2, 4))],
                       LINEAR, case)
        net = as_float32(net) if dtype == np.float32 else net
        ref = net.copy()
        opt, ref_opt = OptimizerState(lr=0.01, max_norm=cap), OptimizerState(lr=0.01)
        warmup = [rng.normal(size=net.params.size) for _ in range(rng.integers(3))]
        for g in [*warmup, _fold_gradient(rng, net.params.size, dtype, kind, cap)]:
            g = g.astype(dtype)
            grads, ref_grads = (GradientSet(net.dims, g.copy()) for _ in range(2))
            before = net.params.copy()
            with np.errstate(invalid="ignore"):  # an infinite norm scales inf by 0
                diverged = _step_or_diverge(apply_update, net, opt, grads)
                assert diverged == _step_or_diverge(oracles.clip_then_adam, ref,
                                                    ref_opt, ref_grads, cap)
            assert opt.step == ref_opt.step
            for got, want in ((net.params, ref.params), (opt.m, ref_opt.m),
                              (opt.v, ref_opt.v), (grads.flat, ref_grads.flat)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            if diverged:
                assert net.params.tobytes() == before.tobytes()
                break
        outcomes["diverged" if diverged else
                 "clipped" if not np.array_equal(grads.flat, g) else "stepped"] += 1
    assert min(outcomes.values()) > 300, outcomes


def test_only_a_gradient_near_the_cap_reaches_the_exact_clip(monkeypatch):
    """A gradient whose float32 sum of squares is far under the cap's steps
    without clip_gradients' float64 norm; one inside the pre-check's 1e-3
    margin, or over the cap, is clipped by it; no cap never calls it."""
    calls = []
    clip = neural_net.clip_gradients
    monkeypatch.setattr(neural_net, "clip_gradients",
                        lambda grads, cap: calls.append(cap) or clip(grads, cap))
    rng = np.random.default_rng(1)
    for net in (as_float32(init_mlp([17, 16, 23], LINEAR, 0)),
                init_mlp([17, 16, 23], LINEAR, 0)):
        for cap, ratio, want in ((40.0, 1e-3, 0), (40.0, 0.5, 0), (40.0, 0.999, 0),
                                 (40.0, 1 - 1e-4, 1), (40.0, 3.0, 1),
                                 (0.0, 3.0, 0), (-1.0, 3.0, 0)):
            g = rng.normal(size=net.params.size)
            g *= 40.0 * ratio / math.sqrt(np.square(g).sum())
            grads = GradientSet(net.dims, g.astype(net.params.dtype))
            before = grads.flat.copy()
            calls.clear()
            apply_update(net, OptimizerState(lr=0.01, max_norm=cap), grads)
            assert len(calls) == want, (cap, ratio)
            assert np.array_equal(grads.flat, before) == (cap <= 0 or ratio < 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, False,
                                 "40", None, 1j], ids=repr)
def test_a_bad_max_norm_is_rejected(bad):
    """NaN would switch the cap off unseen: no sum is less than NaN, and no
    norm greater."""
    with pytest.raises(ValueError, match="max_norm"):
        OptimizerState(max_norm=bad)


def test_a_finite_real_max_norm_is_accepted():
    for cap in (0, 0.0, -1.0, 40, 40.0, np.float32(40.0), np.int64(3)):
        assert OptimizerState(max_norm=cap).max_norm == cap


def test_serialization_roundtrip(tmp_path):
    net = init_mlp([4, 5, 3], SOFTMAX, 9)
    clone = net_from_dict(net_to_dict(net))
    x = np.random.default_rng(0).normal(size=4)
    assert np.array_equal(forward(net, x)[0], forward(clone, x)[0])

    path = tmp_path / "ckpt.json"
    save_checkpoint(path, "a2c", HyperParams(), 0,
                    {"actor": net_to_dict(net), "critic": net_to_dict(net)})
    loaded = load_checkpoint(path)["networks"]["actor"]
    assert np.array_equal(forward(net, x)[0], forward(loaded, x)[0])

    for mutate in (lambda d: d.update(version="999"),
                   lambda d: d["biases"].pop(),
                   lambda d: d.update(layer_dims=[4]),
                   lambda d: d.update(head="relu")):
        doc = net_to_dict(net)
        mutate(doc)
        with pytest.raises(ValueError):
            net_from_dict(doc)


def test_checkpoint_v2_roundtrip_is_bit_exact():
    net = init_mlp([3, 4, 2], LINEAR, 5)
    net.weights[0][0, 0] = -0.0
    net.weights[0][1, 2] = 5e-324  # smallest subnormal
    net.biases[1][:] = [np.nextafter(0.0, -1.0), 1.0 / 3.0]
    doc = net_to_dict(net)
    assert doc["version"] == "2"
    assert all(isinstance(a, str) for a in doc["weights"] + doc["biases"])
    clone = net_from_dict(json.loads(json.dumps(doc)))
    assert (clone.dims, clone.head) == (net.dims, net.head)
    for a, b in zip(net.weights + net.biases, clone.weights + clone.biases):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert b.dtype == np.float64 and b.flags.writeable
    assert clone.params.flags.owndata
    assert np.signbit(clone.weights[0][0, 0])


def test_checkpoint_v1_document_is_rejected():
    net = init_mlp([3, 4, 2], LINEAR, 5)
    v1 = {"version": "1", "layer_dims": [3, 4, 2], "head": LINEAR,
          "weights": [w.ravel().tolist() for w in net.weights],
          "biases": [b.tolist() for b in net.biases]}
    with pytest.raises(ValueError, match="version '1'"):
        net_from_dict(v1)


@pytest.mark.parametrize("dims", [[3.7, 4, 2], ["3", 4, 2], [3, 4.0, 2],
                                  [3, True, 2]])
def test_layer_dims_must_be_json_integers(tmp_path, dims):
    # each would load as the net int() makes of it, here 3-4-2 or 3-1-2
    doc = net_to_dict(init_mlp([int(d) for d in dims], LINEAR, 5))
    doc["layer_dims"] = dims
    with pytest.raises(ValueError, match="JSON integers"):
        net_from_dict(json.loads(json.dumps(doc)))
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, "dqn", HyperParams(), 0, {"qnet": doc})
    with pytest.raises(ConfigError, match="JSON integers"):
        load_checkpoint(path)


@pytest.mark.parametrize("mutate, match", [
    (lambda text: text[:-1], "base64"),                  # truncated
    (lambda text: "*" + text[1:], "base64"),             # not a base64 digit
    (lambda text: text[:16], "bytes"),                   # 12 of 96 bytes
    (lambda text: [0.0] * 12, "base64 string"),          # a v1 number list
])
def test_checkpoint_v2_bad_array_raises(mutate, match):
    doc = net_to_dict(init_mlp([3, 4, 2], LINEAR, 5))
    doc["weights"][0] = mutate(doc["weights"][0])
    with pytest.raises(ValueError, match=match):
        net_from_dict(doc)


def test_parameter_views_share_one_buffer():
    """Weights and biases are views of a net's one params array, gradients
    views of their one flat array, before an Adam step and after it."""
    def check(flat, views):
        assert all(np.shares_memory(a, flat) for a in views)
        assert b"".join(a.tobytes() for a in views) == flat.tobytes()

    net = init_mlp([5, 7, 3], LINEAR, 2)
    clone = net.copy()
    assert not np.shares_memory(clone.params, net.params)
    x = np.random.default_rng(0).normal(size=(4, 5))
    for n in (net, clone, net_from_dict(net_to_dict(net))):
        _, cache = forward(n, x)
        grads = backward(n, cache, np.ones((4, 3)))
        for _ in range(2):
            check(n.params, n.weights + n.biases)
            check(grads.flat, grads.d_weights + grads.d_biases)
            apply_update(n, OptimizerState(lr=0.01), grads)


def test_copy_is_deep():
    net = init_mlp([2, 2], LINEAR, 0)
    clone = net.copy()
    clone.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != clone.weights[0][0, 0]


def test_optimizer_validation():
    with pytest.raises(ValueError):
        OptimizerState(lr=0.0)
    net = init_mlp([2, 2], LINEAR, 0)
    grads = GradientSet([2, 3], np.zeros(9))
    with pytest.raises(ValueError):
        apply_update(net, OptimizerState(), grads)
    # same total size, other layout
    with pytest.raises(ValueError):
        apply_update(init_mlp([3, 2], LINEAR, 0), OptimizerState(),
                     GradientSet([1, 4], np.zeros(8)))
