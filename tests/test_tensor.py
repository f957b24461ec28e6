"""Unit tests for the reverse-mode autodiff kernels."""

import inspect
import math
import os
import re
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskvid import tensor as tk
from maskvid.errors import ConfigError, ContractError, DimensionError
from maskvid.tensor import Param, Tape, Tensor, finite_diff_check


def _param(rng, shape, name):
    return Param(rng.standard_normal(shape), name, dtype=np.float64)


def _dot(y, u):
    """sum(y * u) as a (1, 1) tensor, from kept primitives: y's gradient is exactly u."""
    flat = tk.reshape(y, (1, y.size))
    w = Tensor(np.asarray(u, dtype=y.dtype).reshape(-1, 1))
    return tk.linear(flat, w, Tensor(np.zeros(1, dtype=y.dtype)))


def _grad_of(f, params):
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        tape.backward(f())
    return [p.grad.copy() for p in params]


# -- forward oracles ----------------------------------------------------------

def test_matmul_matches_triple_loop():
    # linear's product x @ w, plus its bias
    rng = np.random.default_rng(0)
    a, b, bias = rng.standard_normal((3, 4)), rng.standard_normal((4, 5)), rng.standard_normal(5)
    out = tk.linear(Tensor(a), Tensor(b), Tensor(bias)).data
    expect = np.tile(bias, (3, 1))
    for i in range(3):
        for j in range(5):
            for k in range(4):
                expect[i, j] += a[i, k] * b[k, j]
    np.testing.assert_allclose(out, expect, rtol=1e-12)


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError, match=r"3, 4.*5, 2"):
        tk.linear(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 2))), Tensor(np.zeros(2)))
    with pytest.raises(DimensionError):
        tk.linear(Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(3)))


def test_layer_norm_hand_example():
    # (x - mean) / sqrt(var + eps) of [1, 2, 3] -> [-1.2247, 0, 1.2247]
    x = Tensor(np.array([[1.0, 2.0, 3.0]]))
    g = Tensor(np.ones(3))
    b = Tensor(np.zeros(3))
    out = tk.layer_norm(x, g, b).data[0]
    np.testing.assert_allclose(out, [-1.2247448, 0.0, 1.2247448], atol=1e-5)


def test_layer_norm_affine_applies_after_normalization():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((2, 5)))
    g = Tensor(np.full(5, 2.0))
    b = Tensor(np.full(5, -1.0))
    plain = tk.layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5))).data
    scaled = tk.layer_norm(x, g, b).data
    np.testing.assert_allclose(scaled, 2.0 * plain - 1.0, atol=1e-6)


def test_gelu_matches_erf_oracle():
    from scipy.special import erf
    x = np.linspace(-4, 4, 33)
    out = tk.gelu(Tensor(x)).data
    expect = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
    np.testing.assert_allclose(out, expect, atol=1e-7)
    # spot value: gelu(1) = 0.841345
    np.testing.assert_allclose(tk.gelu(Tensor(np.array([1.0]))).data, [0.8413447], atol=1e-6)


def _attention_reference(q, k, v, heads):
    """Float64 loop over heads: softmax(q_h k_h^T / sqrt(dh)) v_h, concatenated."""
    dh = q.shape[-1] // heads
    out = np.zeros(q.shape)
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = q[..., cols] @ np.swapaxes(k[..., cols], -1, -2) / math.sqrt(dh)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        out[..., cols] = weights @ v[..., cols]
    return out


def test_attention_matches_per_head_reference():
    rng = np.random.default_rng(2)
    for shape, heads in (((5, 8), 2), ((3, 6, 12), 3), ((2, 4, 6), 1)):
        q, k, v = (rng.standard_normal(shape) for _ in range(3))
        out = tk.attention(Tensor(q), Tensor(k), Tensor(v), heads).data
        np.testing.assert_allclose(out, _attention_reference(q, k, v, heads), rtol=1e-12, atol=1e-12)
    with pytest.raises(ConfigError):
        tk.attention(Tensor(q), Tensor(k), Tensor(v), heads=4)
    with pytest.raises(DimensionError):
        tk.attention(Tensor(q), Tensor(k[:, :3]), Tensor(v), heads=1)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    # inside attention: equal value rows come out unchanged, and adding one
    # vector to every key shifts each query's scores by a constant
    rng = np.random.default_rng(2)
    q, k = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
    v = np.tile(rng.standard_normal(6), (4, 1))
    np.testing.assert_allclose(tk.attention(Tensor(q), Tensor(k), Tensor(v), 2).data, v, atol=1e-12)
    v = rng.standard_normal((4, 6))
    out = tk.attention(Tensor(q), Tensor(k), Tensor(v), 2).data
    shifted = tk.attention(Tensor(q), Tensor(k + rng.standard_normal(6)), Tensor(v), 2).data
    np.testing.assert_allclose(out, shifted, atol=1e-12)


def test_softmax_handles_large_scores():
    # keys all equal at magnitude 1e3: every query weighs every row alike
    rng = np.random.default_rng(3)
    q, v = rng.standard_normal((5, 8)), rng.standard_normal((5, 8))
    k = np.full((5, 8), 1e3)
    out = tk.attention(Tensor(q), Tensor(k), Tensor(v), 2).data
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (5, 1)), atol=1e-12)


def test_gather_rows_picks_requested_rows():
    x = Tensor(np.arange(12.0).reshape(4, 3))
    out = tk.gather_rows(x, np.array([2, 0]))
    np.testing.assert_array_equal(out.data, [[6, 7, 8], [0, 1, 2]])
    # batched: (B, K) indices pick per-sample rows
    bx = Tensor(np.arange(24.0).reshape(2, 4, 3))
    out = tk.gather_rows(bx, np.array([[2, 0], [1, 3]]))
    np.testing.assert_array_equal(
        out.data, [[[6, 7, 8], [0, 1, 2]], [[15, 16, 17], [21, 22, 23]]])
    with pytest.raises(DimensionError):
        tk.gather_rows(bx, np.array([2, 0]))


def test_scatter_rows_places_visible_and_fills_rest():
    vis = Tensor(np.array([[1.0, 1.0], [2.0, 2.0]]))
    fill = Tensor(np.array([9.0, 9.0]))
    out = tk.scatter_rows(vis, np.array([3, 1]), fill, 4)
    np.testing.assert_array_equal(
        out.data, [[9, 9], [2, 2], [9, 9], [1, 1]])
    # batched: (B, K) indices place each sample's rows in its own grid
    bvis = Tensor(np.array([[[1.0, 1.0]], [[2.0, 2.0]]]))
    out = tk.scatter_rows(bvis, np.array([[2], [0]]), fill, 3)
    np.testing.assert_array_equal(
        out.data, [[[9, 9], [9, 9], [1, 1]], [[2, 2], [9, 9], [9, 9]]])
    with pytest.raises(DimensionError):
        tk.scatter_rows(bvis, np.array([2, 0]), fill, 3)


def test_mse_equals_composed_chain_bitwise():
    """One fused op, same bits as a plain-numpy difference, square and mean."""
    rng = np.random.default_rng(5)
    for dtype, shape in ((np.float32, (3, 10, 6)), (np.float64, (10, 6)),
                         (np.float32, (4, 200, 1536))):
        pred = Param(rng.standard_normal(shape), "pred", dtype=dtype)
        targets = rng.standard_normal(shape)
        # a random permutation per leading index, first half-plus-one kept
        n = shape[-2]
        masked = np.sort(rng.random(shape[:-1]).argsort(axis=-1)[..., :n // 2 + 1], axis=-1)
        target_rows = np.take_along_axis(targets, masked[..., None], axis=-2)

        # the chain: diff = rows - targets, mean(diff * diff); d/d(diff) is
        # (1/n) * diff from each factor, summed, then scattered back
        diff = (np.take_along_axis(pred.value.data, masked[..., None], axis=-2)
                - target_rows.astype(dtype))
        want = np.array([(diff * diff).mean()], dtype=dtype)
        per_entry = np.full_like(diff, np.ones(1, dtype=dtype)[0] / diff.size)
        want_grad = np.zeros_like(pred.value.data)
        np.put_along_axis(want_grad, masked[..., None], per_entry * diff + per_entry * diff,
                          axis=-2)

        def fused():
            return tk.mse(tk.gather_rows(pred.value, masked), target_rows)

        got_grad, = _grad_of(fused, [pred])
        got = fused().data
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert got_grad.tobytes() == want_grad.tobytes()
    with pytest.raises(ContractError):
        tk.mse(Tensor(np.zeros((0, 3))), np.zeros((0, 3)))
    with pytest.raises(DimensionError):
        tk.mse(Tensor(np.zeros((2, 3))), np.zeros((3, 2)))


def test_linear_rows_bias_gradient_is_bitwise_the_full_grid_one():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 50, 96)).astype(np.float32)
    rows = np.sort(rng.random((4, 50)).argsort(axis=-1)[:, :23], axis=-1)
    upstream = rng.standard_normal((4, 23, 96)).astype(np.float32)
    bias = Param(rng.standard_normal(96), "bias")
    # an identity weight keeps the product exact, so only the bias sum is tested
    eye = Tensor(np.eye(96, dtype=np.float32))

    def full():
        y = tk.gather_rows(tk.linear(Tensor(x), eye, bias.value), rows)
        return _dot(y, upstream)

    def subset():
        y = tk.linear(tk.gather_rows(Tensor(x), rows), eye, bias.value, rows)
        return _dot(y, upstream)

    want, = _grad_of(full, [bias])
    got, = _grad_of(subset, [bias])
    assert got.tobytes() == want.tobytes()
    assert subset().data.tobytes() == full().data.tobytes()
    with pytest.raises(DimensionError):
        tk.linear(Tensor(x), eye, bias.value, rows)


@pytest.mark.parametrize("frozen", ["left", "right"])
def test_matmul_computes_no_gradient_for_an_operand_without_requires_grad(frozen):
    # linear's x (left) or w (right) frozen
    rng = np.random.default_rng(7)
    a = Param(rng.standard_normal((2, 3, 4)), "a")
    b = Param(rng.standard_normal((4, 5)), "b")
    bias = Param(rng.standard_normal(5), "bias")
    (a if frozen == "left" else b).value.requires_grad = False
    with Tape() as tape:
        out = tk.linear(a.value, b.value, bias.value)
    g = rng.standard_normal(out.shape).astype(np.float32)
    ga, gb, gbias = tape._entries[-1].backward(g)
    np.testing.assert_allclose(gbias, g.sum(axis=(0, 1)), rtol=1e-5)
    if frozen == "left":
        assert ga is None
        np.testing.assert_allclose(gb, np.einsum("bik,bij->kj", a.value.data, g), rtol=1e-5)
    else:
        assert gb is None
        np.testing.assert_allclose(ga, g @ b.value.data.T, rtol=1e-5)


def _recording_primitives() -> set:
    return {name for name, fn in vars(tk).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == tk.__name__ and "_record" in fn.__code__.co_names}


def test_every_recording_primitive_has_a_gradient_check():
    from maskvid.gradsuite import primitive_checks
    recording = _recording_primitives()
    assert {"linear", "attention", "gather_rows", "scatter_rows", "mse"} <= recording
    assert recording <= set(primitive_checks())


def test_every_recording_primitive_has_a_model_caller():
    # a primitive that only tests or the gradient suite call is dead weight
    from maskvid import model, training
    source = "".join(inspect.getsource(m) for m in (model, training, tk.attention_block))
    uncalled = {name for name in _recording_primitives()
                if not re.search(rf"(?<![\w.])(tk\.)?{name}\(", source)}
    assert not uncalled, f"recording primitives with no model or training caller: {uncalled}"


def test_cross_entropy_uniform_logits_is_log_k():
    logits = Tensor(np.zeros((5, 4)))
    loss = tk.cross_entropy(logits, np.zeros(5, dtype=int))
    np.testing.assert_allclose(loss.item(), math.log(4), atol=1e-7)


# -- backward oracles ---------------------------------------------------------

def test_backward_square_is_two_x():
    rng = np.random.default_rng(4)
    p = _param(rng, (5,), "p")
    # mean of the 5 squares: d/dp = 2p / 5
    (g,) = _grad_of(lambda: tk.mse(p.value, np.zeros(5)), [p])
    np.testing.assert_allclose(5.0 * g, 2.0 * p.value.data, rtol=1e-12)


def test_grad_accumulates_when_param_used_twice():
    rng = np.random.default_rng(5)
    p = _param(rng, (3,), "p")
    (g,) = _grad_of(lambda: _dot(tk.add(p.value, p.value), np.ones(3)), [p])
    np.testing.assert_array_equal(g, np.full(3, 2.0))


def test_broadcast_add_backward_sums_over_broadcast_axis():
    rng = np.random.default_rng(6)
    x = _param(rng, (4, 3), "x")
    b = _param(rng, (3,), "b")
    _, gb = _grad_of(lambda: _dot(tk.add(x.value, b.value), np.ones((4, 3))), [x, b])
    np.testing.assert_allclose(gb, np.full(3, 4.0))


def test_matmul_backward_matches_hand_formula():
    rng = np.random.default_rng(7)
    a = _param(rng, (3, 4), "a")
    b = _param(rng, (4, 2), "b")
    bias = _param(rng, (2,), "bias")
    ga, gb, gbias = _grad_of(
        lambda: _dot(tk.linear(a.value, b.value, bias.value), np.ones((3, 2))), [a, b, bias])
    ones = np.ones((3, 2))
    np.testing.assert_allclose(ga, ones @ b.value.data.T, rtol=1e-12)
    np.testing.assert_allclose(gb, a.value.data.T @ ones, rtol=1e-12)
    np.testing.assert_array_equal(gbias, [3.0, 3.0])


@pytest.mark.parametrize("seed", range(5))
def test_composite_expression_passes_finite_difference(seed):
    rng = np.random.default_rng(seed)
    a = _param(rng, (3, 4), "a")
    b = _param(rng, (4, 3), "b")
    g = _param(rng, (3,), "g")

    def f():
        y = tk.gelu(tk.linear(a.value, b.value, Tensor(np.zeros(3))))
        y = tk.layer_norm(y, g.value, Tensor(np.zeros(3)))
        return tk.mse(tk.add(y, tk.attention(y, y, y, heads=1)), np.zeros(y.shape))

    assert finite_diff_check(f, [a, b, g]) < 1e-6


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_softmax_backward_rows_orthogonal_to_ones(seed):
    # d(softmax)/dx applied to any upstream grad has zero row sums, because
    # row sums of softmax are constant. Inside attention this makes the key
    # gradient sum to zero over the keys: the output ignores a shift shared
    # by every key.
    rng = np.random.default_rng(seed)
    q, k, v = (_param(rng, (2, 4, 6), n) for n in "qkv")
    up = rng.standard_normal((2, 4, 6))

    def f():
        return _dot(tk.attention(q.value, k.value, v.value, 2), up)

    (g,) = _grad_of(f, [k])
    np.testing.assert_allclose(g.sum(axis=-2), np.zeros((2, 6)), atol=1e-10)


def test_attention_block_preserves_shape_and_differentiates():
    rng = np.random.default_rng(8)
    blk = tk.init_block_params(8, "blk", rng, dtype=np.float64)
    x = _param(rng, (5, 8), "x")
    out = tk.attention_block(x.value, blk, "blk", heads=2)
    assert out.shape == (5, 8)
    err = finite_diff_check(
        lambda: tk.mse(tk.attention_block(x.value, blk, "blk", heads=2), np.zeros((5, 8))),
        [x], samples_per_param=10)
    assert err < 1e-5


def test_attention_block_records_twelve_tape_entries():
    # LN, 3 x linear, attention, linear, residual, LN, linear, gelu, linear, residual
    rng = np.random.default_rng(8)
    blk = tk.init_block_params(8, "blk", rng)
    x = Param(rng.standard_normal((2, 5, 8)), "x")
    with Tape() as tape:
        tk.attention_block(x.value, blk, "blk", heads=2)
    assert len(tape) == 12


# -- attention on two cores --------------------------------------------------

def _serial_attention(q, k, v, heads):
    """tk.attention as one numpy pass over the whole batch, recorded on the tape.

    The layouts and summation orders the split path must reproduce: k's
    gradient is a transposed view of matmul(q4^T, gsc), and its consumers
    sum it in that memory order.
    """
    lead, (n, d) = q.shape[:-2], q.shape[-2:]
    c = 1.0 / math.sqrt(d / heads)

    def split(a):
        return np.swapaxes(a.reshape(lead + (n, heads, d // heads)), -3, -2)

    def merge(a):
        return np.swapaxes(a, -3, -2).reshape(lead + (n, d))

    q4, k4, v4 = split(q.data), split(k.data), split(v.data)
    scores = np.matmul(q4, np.swapaxes(k4, -1, -2)) * c
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        g4 = split(g)
        gs = np.matmul(g4, np.swapaxes(v4, -1, -2))
        gv = np.matmul(np.swapaxes(s, -1, -2), g4)
        gsc = s * (gs - (gs * s).sum(axis=-1, keepdims=True)) * c
        gk = np.swapaxes(np.matmul(np.swapaxes(q4, -1, -2), gsc), -1, -2)
        return merge(np.matmul(gsc, k4)), merge(gk), merge(gv)

    return tk._record(Tensor(merge(np.matmul(s, v4))), (q, k, v), bwd)


# _SPLIT_FLOOR 0 splits every batch of two or more clips, inf none
_PATHS = pytest.mark.parametrize("floor", [0, math.inf], ids=["split", "serial"])


@_PATHS
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("batch", [1, 2, 3, 5, 16])
def test_attention_on_either_path_is_bitwise_the_serial_pass(monkeypatch, batch, dtype, floor):
    rng = np.random.default_rng(batch)
    q0, k0, v0, target = (rng.standard_normal((batch, 24, 16)).astype(dtype) for _ in range(4))

    def run(attention):
        q, k, v = (Param(a, name, dtype=dtype) for a, name in ((q0, "q"), (k0, "k"), (v0, "v")))
        with Tape() as tape:
            out = attention(q.value, k.value, v.value, 4)
            tape.backward(tk.mse(out, target))
        return [(a.dtype, a.tobytes()) for a in (out.data, q.grad, k.grad, v.grad)]

    expect = run(_serial_attention)
    monkeypatch.setattr(tk, "_SPLIT_FLOOR", floor)
    assert run(tk.attention) == expect


@_PATHS
def test_attention_block_gradients_on_either_path_are_bitwise_the_serial_pass(monkeypatch,
                                                                             floor):
    # bk's gradient sums k's gradient in its memory order, so a split that
    # wrote k's gradient in another layout would move bk's last bits
    rng = np.random.default_rng(12)
    x0, target = (rng.standard_normal((5, 40, 16)).astype(np.float32) for _ in range(2))

    def grads():
        blk = tk.init_block_params(16, "blk", np.random.default_rng(13))
        x = Param(x0, "x")
        with Tape() as tape:
            tape.backward(tk.mse(tk.attention_block(x.value, blk, "blk", heads=4), target))
        return {name: p.grad.tobytes() for name, p in [("x", x), *blk.items()]}

    with monkeypatch.context() as m:
        m.setattr(tk, "attention", _serial_attention)
        expect = grads()
    monkeypatch.setattr(tk, "_SPLIT_FLOOR", floor)
    assert grads() == expect


def test_a_forked_child_splits_attention_without_hanging(monkeypatch):
    # the child of a fork has the parent's pool object but no worker thread
    monkeypatch.setattr(tk, "_SPLIT_FLOOR", 0)
    x = Tensor(np.random.default_rng(14).standard_normal((4, 8, 8)))
    expect = tk.attention(x, x, x, 2).data.tobytes()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if tk.attention(x, x, x, 2).data.tobytes() == expect else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            assert os.waitstatus_to_exitcode(status) == 0
            return
        time.sleep(0.02)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail("the forked child did not finish a split attention within 10 s")


def test_attention_block_rejects_indivisible_heads():
    rng = np.random.default_rng(9)
    blk = tk.init_block_params(8, "blk", rng)
    x = Tensor(np.zeros((4, 8), dtype=np.float32))
    with pytest.raises(ConfigError):
        tk.attention_block(x, blk, "blk", heads=3)


def test_backward_requires_scalar_loss():
    p = _param(np.random.default_rng(0), (3,), "p")
    with pytest.raises(ContractError):
        with Tape() as tape:
            tape.backward(tk.add(p.value, p.value))


def test_no_tape_means_no_recording():
    p = _param(np.random.default_rng(0), (3,), "p")
    out = tk.add(p.value, p.value)  # outside any tape
    assert out.data.shape == (3,)
    assert np.all(p.grad == 0.0)


def test_tensor_coerces_integer_input_to_float32():
    t = Tensor(np.arange(4))
    assert t.dtype == np.float32


def test_trunc_normal_stays_within_two_sigma():
    rng = np.random.default_rng(10)
    vals = tk.trunc_normal(rng, (10000,), std=0.02)
    assert np.abs(vals).max() <= 0.04 + 1e-9
    assert abs(float(vals.mean())) < 0.002


def test_deterministic_forward_backward():
    def run():
        rng = np.random.default_rng(11)
        a = _param(rng, (4, 4), "a")
        (g,) = _grad_of(
            lambda: _dot(tk.gelu(tk.linear(a.value, a.value, Tensor(np.zeros(4)))), np.ones((4, 4))),
            [a])
        return g

    np.testing.assert_array_equal(run(), run())
