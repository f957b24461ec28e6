"""Unit tests for the reverse-mode autodiff kernels."""

import inspect
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent import futures

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from maskvid import tensor as tk
from maskvid.errors import ConfigError, ContractError, DimensionError, MaskvidError
from maskvid.gradsuite import kernel_attention, kernel_gelu
from maskvid.masking import make_mask
from maskvid.tensor import Param, Tape, Tensor, finite_diff_check
from maskvid.training import masked_mse_loss


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
    out = kernel_gelu(Tensor(x)).data
    expect = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
    np.testing.assert_allclose(out, expect, atol=1e-7)
    # spot value: gelu(1) = 0.841345
    np.testing.assert_allclose(kernel_gelu(Tensor(np.array([1.0]))).data, [0.8413447], atol=1e-6)


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
    for shape, heads in (((1, 5, 8), 2), ((3, 6, 12), 3), ((2, 4, 6), 1)):
        q, k, v = (rng.standard_normal(shape) for _ in range(3))
        out = kernel_attention(Tensor(q), Tensor(k), Tensor(v), heads).data
        np.testing.assert_allclose(out, _attention_reference(q, k, v, heads), rtol=1e-12, atol=1e-12)
    # the block checks its heads, and that k's projection keeps the token width
    blk = tk.init_block_params(6, "blk", rng, dtype=np.float64)
    with pytest.raises(ConfigError):
        tk.attention_block(Tensor(q), blk, "blk", heads=4)
    blk["blk/wk"] = Param(np.zeros((6, 3)), "blk/wk", dtype=np.float64)
    with pytest.raises(DimensionError):
        tk.attention_block(Tensor(q), blk, "blk", heads=1)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    # inside attention: equal value rows come out unchanged, and adding one
    # vector to every key shifts each query's scores by a constant
    rng = np.random.default_rng(2)
    q, k = rng.standard_normal((1, 4, 6)), rng.standard_normal((1, 4, 6))
    v = np.tile(rng.standard_normal(6), (1, 4, 1))
    np.testing.assert_allclose(kernel_attention(Tensor(q), Tensor(k), Tensor(v), 2).data, v, atol=1e-12)
    v = rng.standard_normal((1, 4, 6))
    out = kernel_attention(Tensor(q), Tensor(k), Tensor(v), 2).data
    shifted = kernel_attention(Tensor(q), Tensor(k + rng.standard_normal(6)), Tensor(v), 2).data
    np.testing.assert_allclose(out, shifted, atol=1e-12)


def test_softmax_handles_large_scores():
    # keys all equal at magnitude 1e3: every query weighs every row alike
    rng = np.random.default_rng(3)
    q, v = rng.standard_normal((1, 5, 8)), rng.standard_normal((1, 5, 8))
    k = np.full((1, 5, 8), 1e3)
    out = kernel_attention(Tensor(q), Tensor(k), Tensor(v), 2).data
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, np.tile(v.mean(axis=1), (1, 5, 1)), atol=1e-12)


def test_gather_rows_picks_requested_rows():
    x = Tensor(np.arange(12.0).reshape(1, 4, 3))
    out = tk.gather_rows(x, np.array([[2, 0]]))
    np.testing.assert_array_equal(out.data, [[[6, 7, 8], [0, 1, 2]]])
    # two clips: (B, K) indices pick per-sample rows
    bx = Tensor(np.arange(24.0).reshape(2, 4, 3))
    out = tk.gather_rows(bx, np.array([[2, 0], [1, 3]]))
    np.testing.assert_array_equal(
        out.data, [[[6, 7, 8], [0, 1, 2]], [[15, 16, 17], [21, 22, 23]]])
    with pytest.raises(DimensionError):
        tk.gather_rows(bx, np.array([2, 0]))


def test_scatter_rows_places_visible_and_fills_rest():
    vis = Tensor(np.array([[[1.0, 1.0], [2.0, 2.0]]]))
    fill = Tensor(np.array([9.0, 9.0]))
    out = tk.scatter_rows(vis, np.array([[3, 1]]), fill, 4)
    np.testing.assert_array_equal(
        out.data, [[[9, 9], [2, 2], [9, 9], [1, 1]]])
    # two clips: (B, K) indices place each sample's rows in its own grid
    bvis = Tensor(np.array([[[1.0, 1.0]], [[2.0, 2.0]]]))
    out = tk.scatter_rows(bvis, np.array([[2], [0]]), fill, 3)
    np.testing.assert_array_equal(
        out.data, [[[9, 9], [9, 9], [1, 1]], [[2, 2], [9, 9], [9, 9]]])
    with pytest.raises(DimensionError):
        tk.scatter_rows(bvis, np.array([2, 0]), fill, 3)


@pytest.mark.parametrize("lead", [(), (1, 1)], ids=["2d", "4d"])
@pytest.mark.parametrize("op", ["attention_block", "gather_rows", "scatter_rows",
                                "masked_mse_loss", "kernel_attention"])
def test_token_ops_take_clips_first_batches_only(op, lead):
    # (N, D) tokens, or (1, 1, N, D), with (K,) or (1, 1, K) rows, are not a
    # (B, N, D) batch with (B, K) rows
    x = Tensor(np.zeros(lead + (4, 8)))
    rows = np.zeros(lead + (2,), dtype=int) + [0, 2]
    blk = tk.init_block_params(8, "blk", np.random.default_rng(0))
    calls = {"attention_block": lambda: tk.attention_block(x, blk, "blk", 2),
             "gather_rows": lambda: tk.gather_rows(x, rows),
             "scatter_rows": lambda: tk.scatter_rows(Tensor(np.zeros(lead + (2, 8))), rows,
                                                     Tensor(np.zeros(8)), 4),
             "masked_mse_loss": lambda: masked_mse_loss(
                 x, np.zeros(x.shape), [make_mask("random", (2, 2), 0.5, 0)]),
             "kernel_attention": lambda: kernel_attention(x, x, x, 2)}
    with pytest.raises(MaskvidError, match=r"\(B, N, [CD]\)|\(B, K\)"):
        calls[op]()


def test_mse_equals_composed_chain_bitwise():
    """One fused op, same bits as a plain-numpy difference, square and mean."""
    rng = np.random.default_rng(5)
    for dtype, shape in ((np.float32, (3, 10, 6)), (np.float64, (1, 10, 6)),
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
    assert {"linear", "attention_block", "gather_rows", "scatter_rows", "mse",
            "pixel_mse"} <= recording
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
    a = _param(rng, (1, 3, 4), "a")
    b = _param(rng, (4, 3), "b")
    g = _param(rng, (3,), "g")

    def f():
        y = kernel_gelu(tk.linear(a.value, b.value, Tensor(np.zeros(3))))
        y = tk.layer_norm(y, g.value, Tensor(np.zeros(3)))
        return tk.mse(tk.add(y, kernel_attention(y, y, y, heads=1)), np.zeros(y.shape))

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
        return _dot(kernel_attention(q.value, k.value, v.value, 2), up)

    (g,) = _grad_of(f, [k])
    np.testing.assert_allclose(g.sum(axis=-2), np.zeros((2, 6)), atol=1e-10)


def test_attention_block_preserves_shape_and_differentiates():
    rng = np.random.default_rng(8)
    blk = tk.init_block_params(8, "blk", rng, dtype=np.float64)
    x = _param(rng, (1, 5, 8), "x")
    out = tk.attention_block(x.value, blk, "blk", heads=2)
    assert out.shape == (1, 5, 8)
    err = finite_diff_check(
        lambda: tk.mse(tk.attention_block(x.value, blk, "blk", heads=2), np.zeros((1, 5, 8))),
        [x], samples_per_param=10)
    assert err < 1e-5


def test_attention_block_records_one_tape_entry():
    # LN, 3 x linear, attention, linear, residual, LN, linear, gelu, linear,
    # residual: one recorded op
    rng = np.random.default_rng(8)
    blk = tk.init_block_params(8, "blk", rng)
    x = Param(rng.standard_normal((2, 5, 8)), "x")
    with Tape() as tape:
        tk.attention_block(x.value, blk, "blk", heads=2)
    assert len(tape) == 1


# -- attention on two cores --------------------------------------------------

def _serial_attention(q, k, v, heads):
    """The block's attention as one numpy pass over the whole batch, recorded
    on the tape.

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
    assert run(kernel_attention) == expect


@_PATHS
def test_attention_block_gradients_on_either_path_are_bitwise_the_serial_pass(monkeypatch,
                                                                             floor):
    # bk's gradient sums k's gradient in its memory order, so a split that
    # wrote k's gradient in another layout would move bk's last bits
    rng = np.random.default_rng(12)
    x0, target = (rng.standard_normal((5, 40, 16)).astype(np.float32) for _ in range(2))

    def grads(block):
        blk = tk.init_block_params(16, "blk", np.random.default_rng(13))
        x = Param(x0, "x")
        with Tape() as tape:
            tape.backward(tk.mse(block(x.value, blk, "blk", heads=4), target))
        return {name: p.grad.tobytes() for name, p in [("x", x), *blk.items()]}

    expect = grads(_composed_block)
    monkeypatch.setattr(tk, "_SPLIT_FLOOR", floor)
    assert grads(tk.attention_block) == expect


def test_a_forked_child_splits_attention_without_hanging(monkeypatch):
    # the child of a fork has the parent's pool object but no worker thread
    monkeypatch.setattr(tk, "_SPLIT_FLOOR", 0)
    x = Tensor(np.random.default_rng(14).standard_normal((4, 8, 8)))
    blk = tk.init_block_params(8, "blk", np.random.default_rng(15), dtype=np.float64)
    expect = tk.attention_block(x, blk, "blk", 2).data.tobytes()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if tk.attention_block(x, blk, "blk", 2).data.tobytes() == expect else 3
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


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs /proc and two usable cores")
def test_importing_maskvid_leaves_blas_one_thread(monkeypatch, src_on_child_pythonpath):
    # OpenBLAS would start a thread per core, which compete with the split's
    # worker; with no count in the environment, maskvid asks for one
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    code = "import os, maskvid, numpy; print(len(os.listdir('/proc/self/task')))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "1"


def _serial_linear(x, w, b, rows=None):
    """tk.linear as one numpy pass over the whole batch, recorded on the tape.

    The weight gradient is one (..., K, M) product per clip, summed over the
    clips by _unbroadcast in that memory order.
    """
    idx = None if rows is None else np.asarray(rows)
    out = np.matmul(x.data, w.data)
    out += b.data

    def bwd(g):
        gx = gw = gb = None
        if x.requires_grad:
            gx = np.matmul(g, np.swapaxes(w.data, -1, -2))
        if w.requires_grad:
            gw = tk._unbroadcast(np.matmul(np.swapaxes(x.data, -1, -2), g), w.shape)
        if b.requires_grad and idx is None:
            gb = tk._unbroadcast(g, b.shape)
        elif b.requires_grad:
            d = g.shape[-1]
            flat_g, flat_rows = g.reshape(-1, idx.shape[-1], d), idx.reshape(-1, idx.shape[-1])
            per_row = np.zeros((int(flat_rows.max(initial=0)) + 1, d), dtype=g.dtype)
            for gi, ri in zip(flat_g, flat_rows):
                per_row[ri] += gi
            gb = per_row.sum(axis=0)
        return gx, gw, gb

    return tk._record(Tensor(out), (x, w, b), bwd)


def _serial_mse(pred, targets):
    """tk.mse as out-of-place numpy expressions, recorded on the tape."""
    diff = pred.data - targets.astype(pred.dtype, copy=False)
    n = diff.size

    def bwd(g):
        gp = diff * (g.reshape(-1)[0] / n)
        gp *= 2
        return (gp,)

    return tk._record(Tensor(np.array([(diff * diff).mean()], dtype=pred.dtype)), (pred,), bwd)


@_PATHS
@pytest.mark.parametrize("batch", [3, 4])
@pytest.mark.parametrize("dtype,rows,k,m,grid", [(np.float32, 184, 32, 1536, 200),
                                                 (np.float64, 7, 5, 6, 12)],
                         ids=["float32_pixels", "float64_small"])
def test_pixel_mse_is_bitwise_the_composed_linear_and_mse(monkeypatch, batch, dtype, rows, k, m,
                                                         grid, floor):
    # pretraining's head: (B, 184, 32) masked decoder rows of a 200-row grid
    # projected to 1536 pixels; an odd batch splits into uneven halves
    rng = np.random.default_rng(batch)
    x0 = rng.standard_normal((batch, rows, k)).astype(dtype)
    w0, b0 = rng.standard_normal((k, m)).astype(dtype), rng.standard_normal(m).astype(dtype)
    targets = rng.standard_normal((batch, rows, m)).astype(dtype)
    idx = np.sort(rng.random((batch, grid)).argsort(axis=-1)[:, :rows], axis=-1)

    def run(loss):
        x, w, b = (Param(a, name, dtype=dtype) for a, name in ((x0, "x"), (w0, "w"), (b0, "b")))
        with Tape() as tape:
            out = loss(x.value, w.value, b.value)
            tape.backward(out)
        return [(a.dtype, a.tobytes()) for a in (out.data, x.grad, w.grad, b.grad)]

    expect = run(lambda x, w, b: _serial_mse(_serial_linear(x, w, b, idx), targets))
    monkeypatch.setattr(tk, "_SPLIT_FLOOR", floor)
    assert run(lambda x, w, b: tk.pixel_mse(x, w, b, idx, targets)) == expect


def test_pixel_mse_rejects_mismatched_shapes_and_no_entries():
    x, w, b = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 6))), Tensor(np.zeros(6))
    rows = np.array([[0, 1, 2], [2, 3, 4]])
    with pytest.raises(DimensionError):
        tk.pixel_mse(x, w, b, rows, np.zeros((2, 3, 5)))
    with pytest.raises(DimensionError):
        tk.pixel_mse(x, w, b, rows[:, :2], np.zeros((2, 3, 6)))
    with pytest.raises(ContractError):
        tk.pixel_mse(Tensor(np.zeros((2, 0, 4))), w, b, rows[:, :0], np.zeros((2, 0, 6)))


def _serial_gelu(x):
    """The block's GELU as out-of-place numpy expressions over the whole batch."""
    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd * tk._INV_SQRT2))

    def bwd(g):
        pdf = np.exp(-0.5 * xd * xd) * tk._INV_SQRT2PI
        return (g * (cdf + xd * pdf),)

    return tk._record(Tensor(xd * cdf), (x,), bwd)


def _serial_layer_norm(x, gamma, beta, eps=1e-6):
    """tk.layer_norm as out-of-place numpy expressions, recorded on the tape."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def bwd(g):
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return (inv * (dxhat - m1 - xhat * m2), tk._unbroadcast(g * xhat, gamma.shape),
                tk._unbroadcast(g, beta.shape))

    return tk._record(Tensor(xhat * gamma.data + beta.data), (x, gamma, beta), bwd)


def _composed_block(tokens, params, name, heads):
    """tk.attention_block as the 12 recorded ops it fuses, each a one-pass
    serial copy (tk.add aside): the tape then sums the gradients of y, h and
    the tokens in the order the fused backward must keep."""
    def p(key):
        return params[f"{name}/{key}"].value

    y = _serial_layer_norm(tokens, p("ln1/g"), p("ln1/b"))
    q = _serial_linear(y, p("wq"), p("bq"))
    k = _serial_linear(y, p("wk"), p("bk"))
    v = _serial_linear(y, p("wv"), p("bv"))
    h = tk.add(tokens, _serial_linear(_serial_attention(q, k, v, heads), p("wo"), p("bo")))
    y2 = _serial_layer_norm(h, p("ln2/g"), p("ln2/b"))
    m = _serial_linear(_serial_gelu(_serial_linear(y2, p("w1"), p("b1"))), p("w2"), p("b2"))
    return tk.add(h, m)


@_PATHS
@pytest.mark.parametrize("shape,heads,dtype", [
    ((4, 200, 32), 2, np.float32), ((4, 16, 64), 4, np.float32), ((4, 200, 64), 4, np.float32),
    ((1, 3, 8), 2, np.float64)], ids=["decoder200", "encoder16", "encoder200", "1clip-float64"])
def test_attention_block_is_bitwise_its_twelve_composed_ops(monkeypatch, shape, heads, dtype,
                                                             floor):
    # the output and all 17 gradients (tokens and 16 parameters); at a
    # generic point, so that a reordered sum shows in the last bits
    rng = np.random.default_rng(18)
    x0, target = (rng.standard_normal(shape).astype(dtype) for _ in range(2))

    def run(block):
        blk = tk.init_block_params(shape[-1], "blk", np.random.default_rng(19), dtype=dtype)
        point = np.random.default_rng(20)
        for prm in blk.values():
            d = prm.value.data
            d[:] = (point.standard_normal(d.shape) / np.sqrt(d.shape[0]) if d.ndim == 2
                    else 0.1 * point.standard_normal(d.shape) + prm.name.endswith("/g"))
        x = Param(x0, "x", dtype=dtype)
        with Tape() as tape:
            out = block(x.value, blk, "blk", heads)
            tape.backward(tk.mse(out, target))
        return [(a.dtype, a.tobytes()) for a in (out.data, x.grad, *(p.grad for p in blk.values()))]

    expect = run(_composed_block)
    monkeypatch.setattr(tk, "_SPLIT_FLOOR", floor)
    got = run(tk.attention_block)
    assert len(got) == 18
    assert got == expect


@_PATHS
@pytest.mark.parametrize("case", ["plain", "rows", "constant_x", "frozen_w"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("batch", [1, 2, 3, 5, 16])
def test_linear_on_either_path_is_bitwise_the_serial_pass(monkeypatch, batch, dtype, case, floor):
    rng = np.random.default_rng(batch)
    x0 = rng.standard_normal((batch, 24, 64)).astype(dtype)
    w0, b0 = rng.standard_normal((64, 48)).astype(dtype), rng.standard_normal(48).astype(dtype)
    target = rng.standard_normal((batch, 24, 48)).astype(dtype)
    # 24 of a 40-row grid per clip, ascending
    rows = np.sort(rng.random((batch, 40)).argsort(axis=-1)[:, :24], axis=-1) if case == "rows" else None

    def run(linear):
        x, w, b = (Param(a, name, dtype=dtype) for a, name in ((x0, "x"), (w0, "w"), (b0, "b")))
        x.value.requires_grad = case != "constant_x"
        w.value.requires_grad = case != "frozen_w"
        with Tape() as tape:
            out = linear(x.value, w.value, b.value, rows)
            tape.backward(tk.mse(out, target))
        return [(a.dtype, a.tobytes()) for a in (out.data, x.grad, w.grad, b.grad)]

    expect = run(_serial_linear)
    monkeypatch.setattr(tk, "_SPLIT_FLOOR", floor)
    assert run(tk.linear) == expect


@_PATHS
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("batch", [1, 2, 3, 5, 16])
def test_gelu_on_either_path_is_bitwise_the_serial_pass(monkeypatch, batch, dtype, floor):
    # 9 x 37 entries per clip: the upper half starts off any SIMD alignment
    rng = np.random.default_rng(batch)
    x0, target = (3.0 * rng.standard_normal((batch, 9, 37)).astype(dtype) for _ in range(2))

    def run(gelu):
        x = Param(x0, "x", dtype=dtype)
        with Tape() as tape:
            out = gelu(x.value)
            tape.backward(tk.mse(out, target))
        return [(a.dtype, a.tobytes()) for a in (out.data, x.grad)]

    expect = run(_serial_gelu)
    monkeypatch.setattr(tk, "_SPLIT_FLOOR", floor)
    assert run(kernel_gelu) == expect


def _gelu_edges(dtype):
    """+-0, +-inf, NaN with either sign bit, the smallest subnormals, inputs
    whose x / sqrt2 lies within 16 ulps of 1 (where erf changes formula),
    |x / sqrt2| above 3.9 (where erf saturates), and 64 normal draws; each
    with both signs."""
    info = np.finfo(dtype)
    nan = np.array(np.nan, dtype)
    near_one = dtype(math.sqrt(2.0)) + np.arange(-16, 17) * np.spacing(dtype(math.sqrt(2.0)))
    tails = np.array([3.9, 4.0, 5.5, 6.0, 9.0, 27.0, 40.0, 1e10], dtype) * dtype(math.sqrt(2.0))
    pos = np.concatenate([[0.0, np.inf, info.smallest_subnormal, 2 * info.smallest_subnormal,
                           info.smallest_normal, info.max], near_one, tails,
                          np.abs(np.random.default_rng(19).standard_normal(64))]).astype(dtype)
    return np.concatenate([pos, -pos, [nan, np.copysign(nan, -1.0)]]).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_gelu_is_bitwise_the_signed_erf_reference_at_edge_inputs(dtype):
    # _gelu takes erf of |x / sqrt2| and the sign from fmin; the reference
    # takes erf of the signed input. cdf and out agree byte for byte, NaNs
    # and signed zeros included, and so does the input gradient built from
    # either cdf. _serial_gelu's gradient sums in another order, so a NaN
    # may carry the other sign there (a float64 NaN input, on x86-64).
    x0 = _gelu_edges(dtype)
    cdf, out, gx = np.empty_like(x0), np.empty_like(x0), np.empty_like(x0)
    g = np.random.default_rng(20).standard_normal(x0.shape).astype(dtype)

    def run(gelu):
        x = Param(x0, "x", dtype=dtype)
        with Tape() as tape:
            y = gelu(x.value)
            tape.backward(_dot(y, g))
        return y.data, x.grad

    with np.errstate(invalid="ignore", over="ignore"):
        tk._gelu(x0, cdf, out)
        signed_cdf = 0.5 * (1.0 + erf(x0 * tk._INV_SQRT2))
        tk._gelu_grads(x0, signed_cdf, g, gx)
        gx = np.zeros_like(x0) + gx  # the tape adds it to a zero gradient: -0 becomes +0
        (y, grad), (serial_y, serial_grad) = run(kernel_gelu), run(_serial_gelu)
    assert cdf.tobytes() == signed_cdf.tobytes()
    assert y.tobytes() == out.tobytes() == serial_y.tobytes()
    assert grad.tobytes() == gx.tobytes()
    np.testing.assert_array_equal(grad, serial_grad)


def test_a_2d_linear_never_submits_to_the_pool(monkeypatch, split_log):
    # a 2-D x is one GEMM: its rows are not clips, and splitting them would
    # reorder the weight-gradient sum
    monkeypatch.setattr(tk, "_SPLIT_FLOOR", 0)
    rng = np.random.default_rng(16)
    x, w, b = (Param(rng.standard_normal(shape), name)
               for shape, name in (((16, 64), "x"), ((64, 64), "w"), ((64,), "b")))
    with Tape() as tape:
        tape.backward(tk.mse(tk.linear(x.value, w.value, b.value), np.zeros((16, 64))))
    tk.linear(Tensor(np.zeros((1, 16, 64))), w.value, b.value)  # a batch of one clip
    assert split_log == []
    tk.linear(Tensor(np.zeros((2, 16, 64))), w.value, b.value)
    assert split_log == ["linear"]


@pytest.mark.parametrize("op", ["linear", "attention", "attention_block"])
def test_a_split_finishes_here_while_the_worker_is_busy(monkeypatch, op):
    # a worker whose core is busy elsewhere has not started its half when the
    # caller's is done: the caller runs that half itself instead of waiting
    rng = np.random.default_rng(17)
    x0, target = rng.standard_normal((4, 24, 64)), rng.standard_normal((4, 24, 64))
    w = Tensor(rng.standard_normal((64, 64)))
    b = Tensor(rng.standard_normal(64))
    blk = tk.init_block_params(64, "blk", rng, dtype=np.float64)
    ops = {"linear": lambda x: tk.linear(x, w, b),
           "attention": lambda x: kernel_attention(x, x, x, 4),
           "attention_block": lambda x: tk.attention_block(x, blk, "blk", 4)}

    def run():
        x = Param(x0, "x", dtype=np.float64)
        with Tape() as tape:
            out = ops[op](x.value)
            tape.backward(tk.mse(out, target))
        return out.data.tobytes(), x.grad.tobytes()

    expect = run()
    monkeypatch.setattr(tk, "_SPLIT_FLOOR", 0)
    pool = futures.ThreadPoolExecutor(max_workers=1)
    monkeypatch.setattr(tk, "_POOL", pool)
    release = threading.Event()
    pool.submit(release.wait)
    got = []
    caller = threading.Thread(target=lambda: got.append(run()), daemon=True)
    try:
        caller.start()
        caller.join(10.0)
        assert not caller.is_alive(), f"a split {op} waited for a worker that had not started"
    finally:
        release.set()
        caller.join()
        pool.shutdown()
    assert got == [expect]


def test_attention_block_rejects_indivisible_heads():
    rng = np.random.default_rng(9)
    blk = tk.init_block_params(8, "blk", rng)
    x = Tensor(np.zeros((1, 4, 8), dtype=np.float32))
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
            lambda: _dot(kernel_gelu(tk.linear(a.value, a.value, Tensor(np.zeros(4)))), np.ones((4, 4))),
            [a])
        return g

    np.testing.assert_array_equal(run(), run())
