"""Unit tests for the MLP substrate: forward, backward, Adam, storage."""

import json

import numpy as np
import pytest

from cyberdefsim.neural_net import (
    DivergenceError,
    GradientSet,
    LINEAR,
    OptimizerState,
    SOFTMAX,
    apply_update,
    backward,
    backward_ids,
    clip_gradients,
    forward,
    forward_table,
    init_mlp,
    input_rows,
    log_softmax,
    net_from_dict,
    net_to_dict,
    softmax,
)
from cyberdefsim.agents.common import HyperParams
from cyberdefsim.harness import load_checkpoint, save_checkpoint


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
    """Rows gathered from forward_table equal a batch forward's, bit for bit.

    Every learner reads its nets as 17-row tables, at batches of 48 ids
    (DQN, A2C, PPO) and 12 (an A3C fragment), and trains them through
    backward_ids over the same rows. So a table row stands for a batch row
    by this property of the BLAS's matrix-matrix product. It holds for every
    hidden layer and for the Q net's and the actor's 23-wide outputs. It
    fails in two places: a one-row forward (the matrix-vector path) and the
    output of a head with one unit, like the critic's, whose last layer is
    matrix-vector too; the critic's values are its table's own.
    """
    rng = np.random.default_rng(seed)
    for width in (23, 1):
        net = perturbed_net(width, LINEAR, seed, rng)
        table, (table_acts, _, _) = forward_table(net)
        for batch in (48, 48, 48, 32, 12):
            ids = rng.integers(17, size=batch)
            out, (acts, _, _) = forward(net, input_rows(net, ids))
            if width > 1:
                assert table[ids].tobytes() == out.tobytes()
            assert len(acts) == len(table_acts) == 3
            for a, t in zip(acts, table_acts):
                assert t[ids].tobytes() == a.tobytes()


def dense_and_per_id_gradients(net, ids, rng, from_logits):
    """backward on a batch forward of the ids' input rows, and backward_ids,
    for one random output-gradient row per id; both as flat arrays."""
    grad_rows = rng.normal(size=(len(ids), net.dims[-1]))
    _, cache = forward(net, input_rows(net, ids))
    dense = backward(net, cache, grad_rows, from_logits)
    return dense.flat, backward_ids(net, ids, grad_rows, from_logits).flat


@pytest.mark.parametrize("head,width", [(SOFTMAX, 23), (LINEAR, 23), (LINEAR, 1)])
def test_backward_ids_equals_dense_backward(head, width):
    """backward_ids is backward on the ids' input rows: bit for bit for
    distinct sorted ids on the actor's and the Q net's 23-wide heads, where
    no two rows are summed and each table row is the batch row. Repeated ids
    sum before the backward, not after, and the critic's one-unit head has
    table rows of other last bits, so those agree within a bound relative to
    the gradient's largest entry: single entries that cancel to near zero
    differ by far more than 1e-13 of themselves."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        net = perturbed_net(width, head, seed, rng)
        for from_logits in (False, True):
            for batch in (5, 12, 17):
                ids = np.sort(rng.choice(17, size=batch, replace=False))
                dense, per_id = dense_and_per_id_gradients(net, ids, rng,
                                                           from_logits)
                if width > 1:
                    assert per_id.tobytes() == dense.tobytes()
                assert np.abs(per_id - dense).max() <= 1e-13 * np.abs(dense).max()
            for batch in (12, 32, 48):
                ids = rng.integers(17, size=batch)
                dense, per_id = dense_and_per_id_gradients(net, ids, rng,
                                                           from_logits)
                assert np.abs(per_id - dense).max() <= 1e-13 * np.abs(dense).max()


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
    """Allocating Adam (Kingma & Ba 2015, Algorithm 1) on copies."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = [b1 * mi + (1 - b1) * g for mi, g in zip(m, grads)]
    v = [b2 * vi + (1 - b2) * g * g for vi, g in zip(v, grads)]
    params = [p - lr * (mi / (1.0 - b1 ** step))
              / (np.sqrt(vi / (1.0 - b2 ** step)) + eps)
              for p, mi, vi in zip(params, m, v)]
    return params, m, v


def test_adam_is_bit_equal_to_the_textbook_step():
    net = init_mlp([5, 7, 3], LINEAR, 2)
    opt = OptimizerState(lr=0.01)
    rng = np.random.default_rng(3)
    params = [p.copy() for p in net.weights + net.biases]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for step in range(1, 8):
        grads = [rng.normal(size=p.shape) * 10.0 ** rng.integers(-3, 3)
                 for p in params]
        params, m, v = textbook_adam(params, grads, m, v, step, opt.lr)
        apply_update(net, opt, GradientSet(
            net.dims, np.concatenate([g.ravel() for g in grads])))
        assert opt.step == step
        for got, want in ((net.params, params), (opt.m, m), (opt.v, v)):
            assert got.tobytes() == b"".join(a.tobytes() for a in want)


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
