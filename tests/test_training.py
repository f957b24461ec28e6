"""Tests for the loss, optimizer, schedule, checkpointing, and training loops."""

import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
import math
import os
import sys
import threading
import warnings
from concurrent import futures

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskvid import tensor as tk, training
from maskvid.errors import (CheckpointError, ConfigError, ContractError,
                            NumericError)
from maskvid.experiments import AXES, AblationSpec
from maskvid.masking import make_mask
from maskvid.model import (ModelConfig, classify, cube_embed, decode, encode,
                           init_head_params, init_mae_params, mae_forward_batch,
                           mae_loss_batch)
from maskvid.tensor import Param, Tape, Tensor
from maskvid.training import (_EVAL_BATCH, Checkpoint, OptimState, TrainConfig,
                              _train_steps, adamw_step, cosine_warmup_lr, finetune,
                              layer_lr_scales, linear_probe, load_checkpoint,
                              masked_mse_loss, params_from_checkpoint, pretrain,
                              save_checkpoint, scaled_lr, snapshot_config,
                              supervised_checkpoint, write_loss_trace)
from maskvid.video import (VideoClip, cubify, normalize_cube_targets, stack_cubes,
                           synth_moving_sprites)

DESK = ModelConfig()


def _tiny_cfg():
    return ModelConfig(dims=(2, 2, 2), d_enc=16, depth_enc=1, heads_enc=2,
                       d_dec=8, depth_dec=1, heads_dec=2)


# -- masked loss vs brute force ------------------------------------------------

def _brute_force_masked_mse(pred, values, mask):
    total, count = 0.0, 0
    flat_mask = mask.mask.reshape(-1)
    for i in range(pred.shape[0]):
        if not flat_mask[i]:
            continue
        for j in range(pred.shape[1]):
            total += (pred[i, j] - values[i, j]) ** 2
            count += 1
    return total / count


@pytest.mark.parametrize("seed", range(10))
def test_masked_mse_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n, c = 16, 5
    pred = rng.standard_normal((n, c))
    values = rng.standard_normal((n, c))
    mask = make_mask("random", (4, 4), float(rng.uniform(0.2, 0.95)), seed)
    got = masked_mse_loss(Tensor(pred[None]), values[None], [mask]).item()
    expect = _brute_force_masked_mse(pred, values, mask)
    assert abs(got - expect) < 1e-7


def test_masked_mse_ignores_visible_rows():
    rng = np.random.default_rng(0)
    pred = rng.standard_normal((8, 3))
    values = rng.standard_normal((8, 3))
    mask = make_mask("random", (2, 4), 0.5, 0)
    base = masked_mse_loss(Tensor(pred[None]), values[None], [mask]).item()
    hacked = pred.copy()
    hacked[mask.visible_indices] += 100.0
    assert masked_mse_loss(Tensor(hacked[None]), values[None], [mask]).item() == base


def test_masked_mse_rejects_empty_mask():
    mask = make_mask("random", (2, 4), 0.0, 0)
    with pytest.raises(ContractError):
        masked_mse_loss(Tensor(np.zeros((1, 8, 3))), np.zeros((1, 8, 3)), [mask])


@pytest.mark.parametrize("strategy, ratio", [("tube", 0.9), ("random", 0.9), ("frame", 0.875)])
def test_masked_row_path_is_bitwise_the_full_grid_path(strategy, ratio):
    """Pretraining embeds only the visible cubes and decodes and scores only
    the masked rows; the loss and every parameter gradient are the bytes of
    the full-grid computation."""
    cfg = ModelConfig(dims=(8, 5, 5))
    clips = [c for c, _ in synth_moving_sprites(0, 4, size=(16, 80, 80))][:3]
    grids = [cubify(c) for c in clips]
    tokens = np.stack([g.tokens for g in grids]).astype(np.float32)
    targets = np.stack([normalize_cube_targets(g).values for g in grids]).astype(np.float32)
    rng = np.random.default_rng(3)
    masks = [make_mask(strategy, (8, 25), ratio, rng) for _ in clips]
    visible = np.stack([m.visible_indices for m in masks])
    masked = np.stack([m.masked_indices for m in masks])
    params = init_mae_params(cfg, seed=1)

    def loss_and_grads(f):
        params.zero_grad()
        with Tape() as tape:
            loss = f()
            tape.backward(loss)
        return loss.data.tobytes(), {n: p.grad.tobytes() for n, p in params.params.items()}

    def full_grid():
        """Every cube embedded, every row projected to pixels."""
        embedded = tk.add(cube_embed(Tensor(tokens), params), Tensor(params.pos_enc))
        encoded = encode(tk.gather_rows(embedded, visible), params)
        return masked_mse_loss(decode(encoded, visible, params), targets, masks)

    full = loss_and_grads(full_grid)
    all_rows = loss_and_grads(lambda: masked_mse_loss(
        mae_forward_batch(tokens, visible, params), targets, masks))
    clip = np.arange(len(clips))[:, None]
    fused = loss_and_grads(lambda: mae_loss_batch(tokens[clip, visible], visible, params, masked,
                                                  targets[clip, masked]))
    for got in (all_rows, fused):
        assert got[0] == full[0]
        assert [n for n in full[1] if got[1][n] != full[1][n]] == []


def test_masked_mse_batched_matches_per_sample_mean():
    rng = np.random.default_rng(1)
    pred = rng.standard_normal((3, 8, 4))
    values = rng.standard_normal((3, 8, 4))
    masks = [make_mask("random", (2, 4), 0.5, s) for s in range(3)]
    batched = masked_mse_loss(Tensor(pred), values, masks).item()
    singles = [masked_mse_loss(Tensor(pred[b:b + 1]), values[b:b + 1], [masks[b]]).item()
               for b in range(3)]
    assert abs(batched - float(np.mean(singles))) < 1e-9


# -- optimizer -----------------------------------------------------------------

def _scalar_param(x0):
    return Param(np.array([x0]), "x", dtype=np.float64)


def test_adamw_single_step_hand_computed():
    # g=2, lr=0.1, beta1=0.9, beta2=0.99, wd=0:
    # m=0.2, v=0.04, mhat=2, vhat=4 -> x -= 0.1 * 2/(2+1e-8)
    p = _scalar_param(1.0)
    p.grad[:] = 2.0
    state = OptimState([p])
    adamw_step(state, lr=0.1, beta1=0.9, beta2=0.99, weight_decay=0.0)
    np.testing.assert_allclose(p.value.data, [1.0 - 0.1 * 2.0 / (2.0 + 1e-8)],
                               rtol=1e-12)


def test_adamw_zero_grad_zero_wd_is_noop():
    p = _scalar_param(3.0)
    state = OptimState([p])
    adamw_step(state, lr=0.5, weight_decay=0.0)
    np.testing.assert_array_equal(p.value.data, [3.0])


def test_adamw_zero_lr_is_noop_even_with_gradient():
    p = _scalar_param(3.0)
    p.grad[:] = 5.0
    state = OptimState([p])
    adamw_step(state, lr=0.0, weight_decay=0.05)
    np.testing.assert_array_equal(p.value.data, [3.0])


def test_adamw_weight_decay_is_decoupled():
    # zero gradient, wd on: pure multiplicative shrink by (1 - lr*wd)
    p = _scalar_param(2.0)
    state = OptimState([p])
    adamw_step(state, lr=0.1, weight_decay=0.5)
    np.testing.assert_allclose(p.value.data, [2.0 * (1 - 0.1 * 0.5)], rtol=1e-12)


def test_adamw_rejects_non_finite_gradient_without_mutation():
    p = _scalar_param(1.0)
    p.grad[:] = np.nan
    state = OptimState([p])
    with pytest.raises(NumericError):
        adamw_step(state, lr=0.1)
    np.testing.assert_array_equal(p.value.data, [1.0])
    assert state.step == 0


def test_adamw_lr_scales_modulate_update():
    a, b = _scalar_param(0.0), Param(np.array([0.0]), "y", dtype=np.float64)
    a.grad[:] = 1.0
    b.grad[:] = 1.0
    state = OptimState([a, b], lr_scales={"x": 1.0, "y": 0.5})
    adamw_step(state, lr=0.1, weight_decay=0.0)
    assert abs(a.value.data[0]) > abs(b.value.data[0]) > 0.0
    np.testing.assert_allclose(b.value.data[0], 0.5 * a.value.data[0], rtol=1e-9)


def _loop_adamw(params, m, v, t, lr, beta1, beta2, weight_decay, eps=1e-8, lr_scales=None):
    """The per-parameter AdamW loop, the flat store's oracle: each parameter's
    lr and decay are python floats, which numpy rounds to the arrays' dtype."""
    c1, c2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
    for p in params:
        lr_p = lr * (lr_scales.get(p.name, 1.0) if lr_scales else 1.0)
        g = p.grad
        p.value.data *= 1.0 - lr_p * weight_decay
        m[p.name] *= beta1
        m[p.name] += (1.0 - beta1) * g
        v[p.name] *= beta2
        v[p.name] += (1.0 - beta2) * g * g
        p.value.data -= lr_p * (m[p.name] / c1) / (np.sqrt(v[p.name] / c2) + eps)


_STORE_SHAPES = {"a/w": (7, 5), "a/b": (5,), "b/w": (5, 3, 2), "b/g": (1,), "head": (4, 3)}


def _store_params(rng, dtype=np.float32):
    # 81 elements, in four runs of lr scale under the scales below
    return [Param(rng.standard_normal(shape), name, dtype=dtype)
            for name, shape in _STORE_SHAPES.items()]


@pytest.mark.parametrize("block", [32_768, 7], ids=["one_block", "blocks_of_7"])
@pytest.mark.parametrize("scales", [None, {"a/w": 0.5, "a/b": 0.5, "b/w": 0.75, "b/g": 0.3}],
                         ids=["lr", "lr_scales"])
def test_flat_adamw_is_bitwise_the_per_parameter_loop(monkeypatch, scales, block):
    # weight decay 0.05 and per-parameter lr scales; 40 steps of fresh
    # gradients along a warmup-cosine schedule from lr 0 to 0.9, whose decay
    # factors round differently in float32 than in float64 for some
    monkeypatch.setattr(training, "_ADAMW_BLOCK", block)
    rng = np.random.default_rng(21)
    flat, looped = _store_params(rng), _store_params(np.random.default_rng(21))
    state = OptimState(flat, lr_scales=scales)
    m = {p.name: np.zeros_like(p.value.data) for p in looped}
    v = {p.name: np.zeros_like(p.value.data) for p in looped}
    for t in range(1, 41):
        lr = cosine_warmup_lr(t - 1, 4, 40, 0.9)
        for a, b in zip(flat, looped):
            a.grad[...] = b.grad[...] = rng.standard_normal(a.value.shape) * 10.0 ** (t % 4 - 2)
        adamw_step(state, lr, 0.9, 0.95, 0.05)
        _loop_adamw(looped, m, v, t, lr, 0.9, 0.95, 0.05, lr_scales=scales)
        for p, q in zip(flat, looped):
            assert p.value.data.tobytes() == q.value.data.tobytes(), (t, p.name)
        for got, want in ((state.views(state.m), m), (state.views(state.v), v)):
            assert [n for n in want if got[n].tobytes() != want[n].tobytes()] == []


def test_a_param_trained_by_a_store_keeps_its_gradient_there():
    # Param.zero_grad and the model's fill in place, so a backward after
    # either accumulates into the store's gradient buffer
    params = init_mae_params(ModelConfig(dims=(2, 1, 1)), seed=0)
    state = OptimState(params.values())
    grads = state.views(state.grad)
    x = Tensor(np.random.default_rng(22).standard_normal((2, 2, 1536)).astype(np.float32))
    for zero_grad in (params.zero_grad, lambda: [p.zero_grad() for p in params.values()],
                      lambda: state.grad.fill(0)):
        zero_grad()
        with Tape() as tape:
            tape.backward(tk.mse(cube_embed(x, params), np.zeros((2, 2, 64), np.float32)))
        for p in params.values():
            assert np.shares_memory(p.grad, state.grad)
            assert np.shares_memory(p.value.data, state.value)
            assert grads[p.name].tobytes() == p.grad.tobytes()
        assert params["embed/w"].grad.any()


def test_a_non_finite_gradient_aborts_the_store_naming_its_parameter():
    params = _store_params(np.random.default_rng(23))
    state = OptimState(params)
    for p in params:
        p.grad[...] = 1.0
    adamw_step(state, 0.1)
    params[3].grad[0] = np.inf
    params[4].grad[1, 1] = np.nan
    before = [a.tobytes() for a in (state.value, state.grad, state.m, state.v)]
    with pytest.raises(NumericError, match="non-finite gradient in b/g;"):
        adamw_step(state, 0.1)
    assert [a.tobytes() for a in (state.value, state.grad, state.m, state.v)] == before
    assert state.step == 1


def test_an_optimizer_state_rejects_mixed_dtypes_and_repeated_names():
    with pytest.raises(ContractError, match="one dtype"):
        OptimState([Param(np.zeros(2), "a"), Param(np.zeros(2), "b", dtype=np.float64)])
    with pytest.raises(ContractError, match="uniquely named"):
        OptimState([Param(np.zeros(2), "a"), Param(np.ones(3), "a")])


class _StartedPool:
    """A one-thread pool whose submit returns only once the worker has begun
    the call, so a split's upper half always runs on the worker thread."""

    def __init__(self):
        self.pool = futures.ThreadPoolExecutor(max_workers=1)

    def submit(self, fn, *args):
        started = threading.Event()

        def run():
            started.set()
            return fn(*args)

        future = self.pool.submit(run)
        started.wait()
        return future


def test_numpy_error_state_holds_on_the_worker_half_of_a_split(monkeypatch):
    # the overflow is planted in the upper half only, which the worker runs
    monkeypatch.setattr(tk, "_SPLIT_FLOOR", 0)
    pool = _StartedPool()
    monkeypatch.setattr(tk, "_POOL", pool)
    x, w, b = (Tensor(np.ones(shape, np.float32)) for shape in ((2, 3, 4), (4, 6), (6,)))
    targets = np.zeros((2, 3, 6), np.float32)
    targets[1] = -1e30  # the second clip's squared error overflows
    call = functools.partial(tk.pixel_mse, x, w, b, np.zeros((2, 3), int), targets)
    try:
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            call()
        with np.errstate(over="ignore"):
            call()
    finally:
        pool.pool.shutdown()


# -- schedule math ---------------------------------------------------------------

def test_scaled_lr_reference_points():
    assert scaled_lr(1.5e-4, 1024) == 6e-4
    assert scaled_lr(1.5e-4, 256) == 1.5e-4
    assert scaled_lr(1e-3, 128) == 5e-4


def test_cosine_schedule_peak_floor_midpoint():
    peak, floor = 1e-3, 1e-6
    warmup, total = 40, 140
    assert cosine_warmup_lr(warmup, warmup, total, peak, floor) == peak
    assert cosine_warmup_lr(total, warmup, total, peak, floor) == pytest.approx(floor)
    mid = warmup + (total - warmup) // 2
    assert cosine_warmup_lr(mid, warmup, total, peak, floor) == pytest.approx(
        (peak + floor) / 2)


def test_cosine_schedule_warmup_is_linear():
    peak = 8e-4
    lrs = [cosine_warmup_lr(s, 4, 100, peak, 0.0) for s in range(5)]
    np.testing.assert_allclose(lrs, [0.0, peak / 4, peak / 2, 3 * peak / 4, peak],
                               rtol=1e-12)


def test_cosine_schedule_monotone_decay_after_warmup():
    lrs = [cosine_warmup_lr(s, 10, 200, 1e-3, 1e-6) for s in range(10, 201)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))
    assert min(lrs) >= 1e-6


def test_layer_lr_scales_decay_toward_input():
    scales = layer_lr_scales(DESK, 0.75)
    assert scales["enc/block3/wq"] == pytest.approx(0.75)
    assert scales["enc/block0/wq"] == pytest.approx(0.75 ** 4)
    assert scales["embed/w"] == pytest.approx(0.75 ** 5)
    # deeper blocks get larger scales
    assert scales["enc/block3/wq"] > scales["enc/block0/wq"] > scales["embed/w"]
    # every encoder block parameter of a desk model is scaled, nothing else is
    names = init_mae_params(DESK).params
    blocks = {n for n in names if n.startswith("enc/block")}
    assert set(scales) == blocks | {"embed/w", "embed/b"}
    for n in blocks:
        assert scales[n] == 0.75 ** (DESK.depth_enc - int(n.split("/")[1][len("block"):]))
    assert "enc/norm/g" in names and "enc/norm/g" not in scales


# -- checkpoints -----------------------------------------------------------------

def _small_pretrain(tmp_path, steps=4, seed=0, resume=None):
    cfg = TrainConfig(base_lr=0.1, batch_size=2, total_steps=steps, seed=seed,
                      mask_strategy="tube", mask_ratio=0.9)
    ds = synth_moving_sprites(seed=0, count=4, noise_level=0.0)
    return pretrain(cfg, ds, model_cfg=_tiny_cfg_64(), resume=resume), cfg, ds


def _tiny_cfg_64():
    # geometry matching the 16x64x64 sprite clips, but a small model
    return ModelConfig(dims=(8, 4, 4), d_enc=16, depth_enc=1, heads_enc=2,
                       d_dec=8, depth_dec=1, heads_dec=2)


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    (result, cfg, _), path = _small_pretrain(tmp_path), str(tmp_path / "ck.bin")
    save_checkpoint(result.checkpoint, path)
    back = load_checkpoint(path)
    assert (back.step, back.opt_step) == (result.checkpoint.step, result.checkpoint.opt_step)
    assert back.config == result.checkpoint.config
    assert back.rng_state == result.checkpoint.rng_state
    for field in ("params", "optim_m", "optim_v"):
        saved, loaded = getattr(result.checkpoint, field), getattr(back, field)
        assert loaded.keys() == saved.keys()
        for name, arr in saved.items():
            assert loaded[name].dtype == np.float32 and loaded[name].flags.owndata
            assert loaded[name].tobytes() == arr.tobytes()


def test_checkpoint_truncation_detected(tmp_path):
    (result, _, _), path = _small_pretrain(tmp_path), str(tmp_path / "ck.bin")
    save_checkpoint(result.checkpoint, path)
    raw = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(raw[:-16])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_corruption_detected(tmp_path):
    (result, _, _), path = _small_pretrain(tmp_path), str(tmp_path / "ck.bin")
    save_checkpoint(result.checkpoint, path)
    raw = bytearray(open(path, "rb").read())
    raw[-8] ^= 0xFF  # flip bits inside the tensor payload
    with open(path, "wb") as fh:
        fh.write(raw)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = str(tmp_path / "ck.bin")
    with open(path, "wb") as fh:
        fh.write(b"something else entirely\n---\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _reference_save_checkpoint(ckpt: Checkpoint, path: str):
    """The format's reference writer, from before save_checkpoint streamed its
    buffers: three namespace lists, header and payload built in memory, one write."""
    names = sorted(ckpt.params)
    entries = [("param/" + n, ckpt.params[n]) for n in names]
    entries += [("optim/m/" + n, ckpt.optim_m[n]) for n in sorted(ckpt.optim_m)]
    entries += [("optim/v/" + n, ckpt.optim_v[n]) for n in sorted(ckpt.optim_v)]
    header = ["maskvid-checkpoint-v1",
              f"step={ckpt.step}",
              f"opt_step={ckpt.opt_step}",
              "rng=" + json.dumps(ckpt.rng_state, sort_keys=True)]
    for key in sorted(ckpt.config):
        header.append(f"config.{key}={ckpt.config[key]}")
    payload = bytearray()
    for name, arr in entries:
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        digest = hashlib.sha256(raw).hexdigest()
        shape = ",".join(str(s) for s in arr.shape)
        header.append(
            f"tensor={name} shape={shape} dtype=float32 offset={len(payload)} sha256={digest}"
        )
        payload.extend(raw)
    header.append(f"payload_bytes={len(payload)}")
    blob = "\n".join(header).encode() + b"\n---\n" + bytes(payload)
    with open(path, "wb") as fh:
        fh.write(blob)


def _finetune_checkpoint(pretrained: Checkpoint) -> Checkpoint:
    """A checkpoint as `maskvid finetune` writes one: encoder, head, no moments."""
    params = params_from_checkpoint(pretrained)
    return supervised_checkpoint(params, init_head_params(params.config), 3,
                                 TrainConfig(mode="finetune"))


def test_checkpoint_files_are_byte_for_byte_the_fixed_format(tmp_path):
    pretrained = _small_pretrain(tmp_path)[0].checkpoint
    finetuned = _finetune_checkpoint(pretrained)
    assert pretrained.optim_v and finetuned.optim_m == finetuned.optim_v == {}
    for kind, ckpt in (("pretrain", pretrained), ("finetune", finetuned)):
        want, got, again = (tmp_path / f"{kind}-{tag}.ckpt" for tag in "abc")
        _reference_save_checkpoint(ckpt, str(want))
        save_checkpoint(ckpt, str(got))
        save_checkpoint(load_checkpoint(str(got)), str(again))  # load, then save
        assert got.read_bytes() == want.read_bytes(), kind
        assert again.read_bytes() == want.read_bytes(), kind
        assert sorted(p.name for p in tmp_path.glob(f"{kind}-*")) == [
            f"{kind}-{tag}.ckpt" for tag in "abc"]  # no .tmp left behind


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    """The path of a small checkpoint with every namespace, config and rng."""
    rng = np.random.default_rng(3)
    arrays = {"a": rng.standard_normal((2, 3)).astype(np.float32), "b": np.float32(rng.random())}
    ckpt = Checkpoint(params=arrays, optim_m=dict(arrays), optim_v=dict(arrays), opt_step=4,
                      step=4, config=snapshot_config(_tiny_cfg(), TrainConfig()),
                      rng_state=np.random.default_rng(1).bit_generator.state)
    path = tmp_path_factory.mktemp("ckpt") / "valid.ckpt"
    save_checkpoint(ckpt, str(path))
    return path


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_checkpoint_with_one_header_line_replaced_raises_only_checkpoint_errors(
        valid_checkpoint, data):
    header, marker, payload = valid_checkpoint.read_bytes().partition(b"\n---\n")
    lines = header.split(b"\n")
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    lines[i] = data.draw(st.one_of(st.text().map(str.encode), st.binary()), label="text")
    path = str(valid_checkpoint) + ".edited"
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines) + marker + payload)
    try:
        load_checkpoint(path)
    except CheckpointError as exc:
        assert path in str(exc)


def test_identical_seeds_give_bitwise_identical_checkpoints(tmp_path):
    (a, _, _), _ = _small_pretrain(tmp_path, seed=3), None
    (b, _, _), _ = _small_pretrain(tmp_path, seed=3), None
    assert [l for _, _, l in a.trace] == [l for _, _, l in b.trace]
    for name, arr in a.checkpoint.params.items():
        np.testing.assert_array_equal(b.checkpoint.params[name], arr)


def test_resume_reproduces_uninterrupted_trace(tmp_path):
    cfg = TrainConfig(base_lr=0.1, batch_size=2, total_steps=8, seed=1,
                      mask_strategy="tube", mask_ratio=0.9)
    ds = synth_moving_sprites(seed=0, count=4, noise_level=0.0)
    full = pretrain(cfg, ds, model_cfg=_tiny_cfg_64())
    half = pretrain(cfg, ds, model_cfg=_tiny_cfg_64(), stop_step=4)
    resumed = pretrain(cfg, ds, resume=half.checkpoint)
    combined = half.trace + resumed.trace
    assert [l for _, _, l in combined] == [l for _, _, l in full.trace]
    for name, arr in full.checkpoint.params.items():
        np.testing.assert_array_equal(resumed.checkpoint.params[name], arr)


def test_resume_under_a_different_config_names_every_differing_key():
    cfg = TrainConfig(base_lr=0.64, batch_size=2, total_steps=4, seed=1,
                      mask_strategy="tube", mask_ratio=0.9)
    ds = synth_moving_sprites(seed=0, count=4, noise_level=0.0)
    half = pretrain(cfg, ds, model_cfg=_tiny_cfg_64(), stop_step=2)
    other = TrainConfig(base_lr=5.0, batch_size=2, total_steps=4, seed=1,
                        mask_strategy="frame", mask_ratio=0.5)
    with pytest.raises(ConfigError) as err:
        pretrain(other, ds, resume=half.checkpoint)
    for key in ("train.base_lr", "train.mask_strategy", "train.mask_ratio"):
        assert key in str(err.value)
    assert "train.seed" not in str(err.value)
    wider = ModelConfig(dims=(8, 4, 4), d_enc=32, depth_enc=1, heads_enc=2,
                        d_dec=8, depth_dec=1, heads_dec=2)
    with pytest.raises(ConfigError, match="model.d_enc"):
        pretrain(cfg, ds, model_cfg=wider, resume=half.checkpoint)
    # the same config resumes
    assert len(pretrain(cfg, ds, model_cfg=_tiny_cfg_64(), resume=half.checkpoint).trace) == 2


@pytest.mark.parametrize("rng_state", [{"bit_generator": "PCG64"}, {"bit_generator": "MT19937"},
                                       {"bit_generator": "PCG64", "state": [1, 2]}])
def test_resume_from_a_checkpoint_without_a_pcg64_state_raises_checkpoint_error(rng_state):
    # load_checkpoint accepts any JSON object as the rng state
    cfg = TrainConfig(base_lr=0.1, batch_size=2, total_steps=2, seed=0,
                      mask_strategy="tube", mask_ratio=0.9)
    ds = synth_moving_sprites(seed=0, count=4, noise_level=0.0)
    half = pretrain(cfg, ds, model_cfg=_tiny_cfg_64(), stop_step=1).checkpoint
    with pytest.raises(CheckpointError, match="PCG64"):
        pretrain(cfg, ds, resume=dataclasses.replace(half, rng_state=rng_state))


@pytest.mark.parametrize("moment", ["optim_m", "optim_v"])
def test_resume_with_moments_shaped_unlike_their_parameter_raises_checkpoint_error(moment):
    # (1, 64) holds as many elements as embed/b's (64,): the flat store would
    # take it, and the parent's per-parameter loop raised a raw ValueError
    cfg = TrainConfig(base_lr=0.1, batch_size=2, total_steps=2, seed=0,
                      mask_strategy="tube", mask_ratio=0.9)
    ds = synth_moving_sprites(seed=0, count=4, noise_level=0.0)
    half = pretrain(cfg, ds, model_cfg=_tiny_cfg_64(), stop_step=1).checkpoint
    moments = dict(getattr(half, moment))
    moments["embed/b"] = moments["embed/b"].reshape(1, -1)
    with pytest.raises(CheckpointError, match="embed/b"):
        pretrain(cfg, ds, resume=dataclasses.replace(half, **{moment: moments}))


def test_loss_trace_csv_format(tmp_path):
    (result, _, _), _ = _small_pretrain(tmp_path), None
    path = tmp_path / "trace.csv"
    write_loss_trace(str(path), result.trace)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,lr,loss"
    assert len(lines) == len(result.trace) + 1


# -- supervised loops ------------------------------------------------------------

def test_linear_probe_leaves_encoder_bitwise_unchanged():
    cfg = _tiny_cfg_64()
    params = init_mae_params(cfg, seed=0)
    before = {n: params[n].value.data.copy() for n in params.params}
    ds = synth_moving_sprites(seed=0, count=4, noise_level=0.0)
    probe_cfg = TrainConfig(mode="probe", base_lr=0.1, batch_size=2,
                            total_steps=3, seed=0)
    linear_probe(params, ds, ds, probe_cfg)
    for n in params.params:
        np.testing.assert_array_equal(params[n].value.data, before[n])


def test_linear_probe_leaves_encoder_gradients_zero():
    cfg = _tiny_cfg_64()
    params = init_mae_params(cfg, seed=0)
    ds = synth_moving_sprites(seed=0, count=4, noise_level=0.0)
    probe_cfg = TrainConfig(mode="probe", base_lr=0.1, batch_size=2,
                            total_steps=3, seed=0)
    result = linear_probe(params, ds, ds, probe_cfg)
    for p in params.encoder_params():
        assert not p.grad.any(), p.name
        assert p.value.requires_grad
    assert any(p.grad.any() for p in result.head.values())


def _per_step_classify_run(params, train_ds, eval_ds, config, finetuning):
    """Reference supervised loop without cached grids or features.

    Every step cubifies and classifies its batch; a probe freezes the encoder
    by switching off its parameters' requires_grad. Eval classifies the eval
    clips _EVAL_BATCH at a time. Returns the trace, the head and the eval
    accuracy.
    """
    encoder = params.encoder_params()
    head = init_head_params(params.config, seed=config.seed)
    trainable = (encoder if finetuning else []) + list(head.values())
    labels = np.array([train_ds[i][1] for i in range(len(train_ds))])

    def loss_of(idx):
        logits = classify([train_ds[int(i)][0] for i in idx], params, head)
        return tk.cross_entropy(logits, labels[idx])

    scales = layer_lr_scales(params.config, config.layer_decay) if finetuning else None
    for p in encoder:
        p.value.requires_grad = finetuning
    try:
        trace, aborted = _train_steps(config, len(train_ds), np.random.default_rng(config.seed),
                                      OptimState(trainable, scales), loss_of)
    finally:
        for p in encoder:
            p.value.requires_grad = True
    assert not aborted
    clips = [eval_ds[i][0] for i in range(len(eval_ds))]
    logits = np.concatenate([classify(clips[i:i + _EVAL_BATCH], params, head).data
                             for i in range(0, len(clips), _EVAL_BATCH)])
    correct = int((logits.argmax(axis=-1) == [eval_ds[i][1] for i in range(len(eval_ds))]).sum())
    return trace, head, correct / len(eval_ds)


def _bytes(params: dict) -> dict:
    return {n: p.value.data.tobytes() for n, p in params.items()}


# the acceptance ablation's (8,5,5) grid and sprites; its data seed is 0, so
# _ACCEPTANCE.sprites(s, n) draws n clips with seed s
_ACCEPTANCE = AblationSpec("strategy", AXES["strategy"].defaults)
# (training clips, eval set): 3 clips at batch 4 draw with replacement, so a
# batch repeats a clip; "held_out" evaluates on clips the head never saw
_SUPERVISED_CASES = [(4, "train"), (3, "train"), (4, "held_out")]


@pytest.fixture(scope="module")
def acceptance_encoder():
    """Briefly pretrained (8,5,5) encoder, so that clips' features differ."""
    pre = _ACCEPTANCE.sprites(0, 8)
    cfg = TrainConfig(total_steps=6, base_lr=0.64, batch_size=4, seed=0)
    return pretrain(cfg, pre, model_cfg=_ACCEPTANCE.model_cfg).checkpoint


def _supervised_case(n_train, eval_set):
    labelled = _ACCEPTANCE.sprites(1, 4).subset(range(n_train))
    held_out = _ACCEPTANCE.sprites(2, 8)
    return labelled, labelled if eval_set == "train" else held_out


@pytest.mark.parametrize("n_train,eval_set", _SUPERVISED_CASES)
def test_linear_probe_is_bitwise_the_per_step_classify_probe(acceptance_encoder, n_train,
                                                             eval_set):
    train_ds, eval_ds = _supervised_case(n_train, eval_set)
    cfg = TrainConfig(mode="probe", beta2=0.999, total_steps=8, base_lr=0.256,
                      batch_size=4, weight_decay=0.0, seed=3)
    params = params_from_checkpoint(acceptance_encoder)
    trace, head, accuracy = _per_step_classify_run(params, train_ds, eval_ds, cfg,
                                                   finetuning=False)
    result = linear_probe(acceptance_encoder, train_ds, eval_ds, cfg)
    assert result.trace == trace
    assert _bytes(result.head) == _bytes(head)
    assert result.accuracy == accuracy
    assert _bytes(result.params.params) == _bytes(params.params)


@pytest.mark.parametrize("n_train,eval_set", _SUPERVISED_CASES)
def test_finetune_is_bitwise_the_per_step_cubify_finetune(acceptance_encoder, n_train,
                                                          eval_set):
    train_ds, eval_ds = _supervised_case(n_train, eval_set)
    cfg = TrainConfig(mode="finetune", beta2=0.999, total_steps=6, base_lr=0.256,
                      batch_size=4, weight_decay=0.0, seed=3)
    params = params_from_checkpoint(acceptance_encoder)
    trace, head, accuracy = _per_step_classify_run(params, train_ds, eval_ds, cfg,
                                                   finetuning=True)
    result = finetune(acceptance_encoder, train_ds, eval_ds, cfg)
    assert result.trace == trace
    assert _bytes(result.head) == _bytes(head)
    assert result.accuracy == accuracy
    assert _bytes(result.params.params) == _bytes(params.params)
    assert _bytes(params.params) != _bytes(params_from_checkpoint(acceptance_encoder).params)


def _tape_lengths(monkeypatch) -> list:
    """The tape length at each Tape.backward call, from now on."""
    recorded = []
    backward = Tape.backward
    monkeypatch.setattr(Tape, "backward",
                        lambda tape, loss: recorded.append(len(tape)) or backward(tape, loss))
    return recorded


@pytest.mark.parametrize("runner,entries", [(finetune, 11), (linear_probe, 3)],
                         ids=["finetune", "linear_probe"])
def test_supervised_steps_record_11_fine_tune_and_3_probe_tape_entries(monkeypatch, runner,
                                                                       entries):
    # a fine-tune step: embedding, positions, 4 blocks of one entry each,
    # layer norm, mean pool, head layer norm, head linear, cross-entropy; a
    # probe step runs only the head
    recorded = _tape_lengths(monkeypatch)
    params = init_mae_params(_ACCEPTANCE.model_cfg, seed=0)
    ds = _ACCEPTANCE.sprites(1, 4)
    runner(params, ds, ds, TrainConfig(mode="finetune", batch_size=4, total_steps=2, seed=0))
    assert recorded == [entries, entries]


def test_a_pretraining_step_records_15_tape_entries(monkeypatch):
    # the 6 blocks (4 encoder, 2 decoder) of one entry each, and 9 ops
    # around them: embedding, positions, encoder norm, enc2dec, scatter,
    # positions, decoder norm, masked-row gather, and the pixel projection
    # with its loss as one (the gather of raw visible cubes has a constant
    # input and records nothing)
    recorded = _tape_lengths(monkeypatch)
    clips = _ACCEPTANCE.sprites(0, 8)
    pretrain(TrainConfig(batch_size=4, total_steps=2, seed=0), clips,
             model_cfg=_ACCEPTANCE.model_cfg)
    assert recorded == [15, 15]


def test_maskvid_code_runs_only_on_the_main_thread(monkeypatch):
    # the worker thread that computes half of a split block, pixel loss or
    # clip preparation runs numpy alone: every public layer function and the
    # tape stay on the caller's thread, as bench/tracer.py's span stack
    # requires
    threads = []

    def confined(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            threads.append((fn.__qualname__, threading.current_thread()))
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {}
    for layer in ("video", "masking", "model", "tensor", "training", "experiments"):
        module = importlib.import_module(f"maskvid.{layer}")
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                wrappers[id(value)] = confined(value)
    for name, module in list(sys.modules.items()):
        if name == "maskvid" or name.startswith("maskvid."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[id(value)])
    for attr in ("record", "backward"):
        monkeypatch.setattr(Tape, attr, confined(vars(Tape)[attr]))
    monkeypatch.setattr(tk, "_POOL", None)

    params = init_mae_params(_ACCEPTANCE.model_cfg, seed=0)
    labelled = _ACCEPTANCE.sprites(1, 4)
    result = finetune(params, labelled, labelled,
                      TrainConfig(mode="finetune", batch_size=4, total_steps=1, seed=0))
    held_out = _ACCEPTANCE.sprites(2, 16)
    classify([clip for clip, _ in held_out], result.params, result.head)
    pretrain(TrainConfig(batch_size=4, total_steps=1, seed=0, flip_augment=True),
             _ACCEPTANCE.sprites(0, 8), model_cfg=_ACCEPTANCE.model_cfg)
    assert {name for name, _ in threads} >= {"attention_block", "pixel_mse", "Tape.record",
                                              "Tape.backward"}
    assert [name for name, thread in threads if thread is not threading.main_thread()] == []
    if len(os.sched_getaffinity(0)) >= 2:
        assert tk._POOL is not None  # the fine-tune step and classify did split


def test_tube_pretraining_splits_only_decoder_blocks_and_finetuning_more(monkeypatch,
                                                                           split_log):
    # the 8 clips' preparation splits; a tube-0.9 step splits its two
    # 200-token decoder blocks and its pixel loss, forward and backward; its
    # 16-token encoder blocks and its other ops stay on one core
    forward_splits = []
    block = tk.attention_block

    def logged(tokens, params, name, heads):
        before = len(split_log)
        out = block(tokens, params, name, heads)
        forward_splits.append((name, tokens.shape[-2], len(split_log) - before))
        return out

    cfg = _ACCEPTANCE.model_cfg
    clips = _ACCEPTANCE.sprites(0, 8)
    with monkeypatch.context() as m:
        m.setattr(tk, "attention_block", logged)
        pretrain(TrainConfig(batch_size=4, total_steps=1, seed=0), clips, model_cfg=cfg)
    assert forward_splits == [(f"enc/block{i}", 16, 0) for i in range(4)] + [
        (f"dec/block{i}", 200, 1) for i in range(2)]
    assert split_log == (["stack_cubes"] + ["attention_block"] * 2 + ["pixel_mse"] * 2
                         + ["attention_block"] * 2)
    split_log.clear()
    labelled = _ACCEPTANCE.sprites(1, 4)
    finetune(init_mae_params(cfg, seed=0), labelled, labelled,
             TrainConfig(mode="finetune", batch_size=4, total_steps=1, seed=0))
    assert set(split_log) == {"stack_cubes", "linear", "attention_block"}


def test_tube_pretraining_hands_the_loss_only_the_visible_cubes(monkeypatch):
    # a tube-0.9 step at (8,5,5) gathers 16 of each clip's 200 cubes, those
    # its mask leaves visible, and never copies the batch's whole grids
    batches = []

    def recorded(cubes, visible, *args):
        batches.append((cubes.copy(), visible))
        return mae_loss_batch(cubes, visible, *args)

    monkeypatch.setattr("maskvid.training.mae_loss_batch", recorded)
    clips = _ACCEPTANCE.sprites(0, 8)
    pretrain(TrainConfig(batch_size=4, total_steps=1, seed=0), clips,
             model_cfg=_ACCEPTANCE.model_cfg)
    [(cubes, visible)] = batches
    assert cubes.shape == (4, 16, 1536) and visible.shape == (4, 16)
    grids = stack_cubes(clips.clips, np.float32)
    assert all(any(np.array_equal(cubes[b], g[visible[b]]) for g in grids) for b in range(4))


@pytest.mark.parametrize("runner,patched", [(finetune, "_cube_tokens"), (linear_probe, "encode")],
                         ids=["finetune_cubify", "linear_probe_encode"])
def test_eval_on_the_training_set_reuses_its_grids_and_probe_features(monkeypatch, runner,
                                                                      patched):
    # fine-tuning cubifies each clip once (_cube_tokens is cubify's kernel,
    # one clip a call); the probe's frozen encoder also encodes each clip
    # once, for training and eval alike
    from maskvid import model, video
    module = video if patched == "_cube_tokens" else model
    calls = []
    original = getattr(module, patched)

    def counted(x, *args):
        calls.append(1 if patched == "_cube_tokens" else x.shape[0])
        return original(x, *args)

    monkeypatch.setattr(module, patched, counted)
    params = init_mae_params(_tiny_cfg_64(), seed=0)
    ds = synth_moving_sprites(seed=0, count=8, noise_level=0.0)
    result = runner(params, ds, ds, TrainConfig(mode="finetune", batch_size=2, total_steps=2,
                                                seed=0))
    assert not result.aborted
    assert sum(calls) == len(ds)


@pytest.mark.parametrize("runner", [finetune, linear_probe], ids=["finetune", "linear_probe"])
def test_supervised_runs_reject_an_eval_clip_of_another_grid_before_training(monkeypatch,
                                                                           runner):
    steps = []
    monkeypatch.setattr(Tape, "backward", lambda tape, loss: steps.append(1))
    params = init_mae_params(_ACCEPTANCE.model_cfg, seed=0)
    train_ds = _ACCEPTANCE.sprites(1, 4)
    eval_ds = synth_moving_sprites(2, 4)  # (8, 4, 4) clips
    cfg = TrainConfig(mode="finetune", batch_size=2, total_steps=2, seed=0)
    with pytest.raises(ConfigError, match="eval clip 0"):
        runner(params, train_ds, eval_ds, cfg)
    mixed = train_ds.subset([0, 1, 2])
    mixed.clips.append(eval_ds.clips[0])
    mixed.labels.append(0)
    with pytest.raises(ConfigError, match="training clip 3"):
        runner(params, mixed, train_ds, cfg)
    assert steps == []


def test_finetune_moves_encoder_weights():
    cfg = _tiny_cfg_64()
    params = init_mae_params(cfg, seed=0)
    before = params["enc/block0/wq"].value.data.copy()
    ds = synth_moving_sprites(seed=0, count=4, noise_level=0.0)
    ft_cfg = TrainConfig(mode="finetune", beta2=0.999, base_lr=2.0,
                         batch_size=2, total_steps=3, seed=0)
    finetune(params, ds, ds, ft_cfg)
    assert np.abs(params["enc/block0/wq"].value.data - before).max() > 0.0


@pytest.mark.parametrize("runner", [finetune, linear_probe], ids=["finetune", "linear_probe"])
def test_supervised_loops_stop_cleanly_on_a_non_finite_loss(runner):
    params = init_mae_params(_tiny_cfg_64(), seed=0)
    params["enc/norm/g"].value.data[0] = np.nan
    before = {n: params[n].value.data.copy() for n in params.params}
    ds = synth_moving_sprites(seed=0, count=4, noise_level=0.0)
    cfg = TrainConfig(mode="finetune", batch_size=2, total_steps=3, seed=0)
    result = runner(params, ds, ds, cfg)
    assert result.aborted and result.trace == []
    for n in params.params:
        np.testing.assert_array_equal(params[n].value.data, before[n])


@pytest.mark.parametrize("runner", [finetune, linear_probe], ids=["finetune", "linear_probe"])
def test_a_diverging_supervised_run_aborts_without_a_numpy_warning(runner):
    # the run overflows before its loss turns non-finite; the loop's finite
    # check stops it, on both halves of each split op, and numpy stays silent
    params = init_mae_params(_ACCEPTANCE.model_cfg, seed=0)
    ds = _ACCEPTANCE.sprites(1, 4)
    cfg = TrainConfig(mode="finetune", base_lr=1e30, batch_size=4, total_steps=5, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner(params, ds, ds, cfg)
    assert result.aborted and math.isnan(result.accuracy)


def test_finetune_rejects_geometry_mismatch():
    params = init_mae_params(_tiny_cfg(), seed=0)  # (2,2,2) grid
    ds = synth_moving_sprites(seed=0, count=4)     # (8,4,4) grid clips
    with pytest.raises(ConfigError):
        finetune(params, ds, ds, TrainConfig(mode="finetune", total_steps=1))


@pytest.mark.parametrize("runner", [finetune, linear_probe], ids=["finetune", "linear_probe"])
def test_supervised_runs_reject_empty_sets_and_labels_beyond_the_head(runner):
    params = init_mae_params(ModelConfig(num_classes=2), seed=0)
    ds = synth_moving_sprites(seed=0, count=4)  # labels 0-3
    cfg = TrainConfig(mode="finetune", total_steps=1)
    with pytest.raises(ContractError):
        runner(params, ds.subset([]), ds, cfg)
    with pytest.raises(ContractError):
        runner(params, ds, ds.subset([]), cfg)
    with pytest.raises(ConfigError, match="num_classes"):
        runner(params, ds, ds, cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pretrain_aborts_on_divergence_with_last_good_params():
    ds = synth_moving_sprites(seed=0, count=4, noise_level=0.0)
    cfg = TrainConfig(base_lr=1e9, batch_size=2, total_steps=30, seed=0,
                      mask_strategy="tube", mask_ratio=0.9, warmup_epochs=0)
    result = pretrain(cfg, ds, model_cfg=_tiny_cfg_64())
    if result.aborted:
        for arr in result.checkpoint.params.values():
            assert np.isfinite(arr).all()
    else:
        pytest.skip("divergence not triggered at this scale")


@pytest.mark.parametrize("strategy,ratio", [("tube", 0.99), ("random", 0.999), ("frame", 0.95)])
def test_pretrain_rejects_a_ratio_with_no_visible_token_before_setup(monkeypatch, strategy, ratio):
    def no_setup(*args, **kwargs):
        raise AssertionError("cube grids were built before the ratio was checked")

    monkeypatch.setattr("maskvid.training.stack_cubes", no_setup)
    ds = synth_moving_sprites(seed=0, count=4)  # (8, 4, 4): 8 slices of 16 sites
    cfg = TrainConfig(mask_strategy=strategy, mask_ratio=ratio, total_steps=1)
    with pytest.raises(ConfigError, match=rf"{strategy}.*{ratio}.*\(8, 16\)"):
        pretrain(cfg, ds, model_cfg=DESK)


@pytest.mark.parametrize("bad", ["other_size", "mixed_sizes"])
def test_pretrain_rejects_a_clip_of_another_grid_before_setup(monkeypatch, bad):
    def no_setup(*args, **kwargs):
        raise AssertionError("set-up ran before the clips' grids were checked")

    for name in ("stack_cubes", "init_mae_params"):
        monkeypatch.setattr(f"maskvid.training.{name}", no_setup)
    ds = synth_moving_sprites(seed=0, count=4)  # (8, 4, 4)
    if bad == "mixed_sizes":
        ds.clips[2] = VideoClip(np.zeros((3, 16, 32, 64), np.float32))  # (8, 2, 4)
    model_cfg = DESK if bad == "mixed_sizes" else ModelConfig(dims=(8, 5, 5))
    clip = 2 if bad == "mixed_sizes" else 0
    with pytest.raises(ConfigError, match=rf"pretraining clip {clip} has grid"):
        pretrain(TrainConfig(total_steps=1), ds, model_cfg=model_cfg)


@pytest.mark.parametrize("floor", [0, math.inf], ids=["split", "serial"])
@pytest.mark.parametrize("pixels", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("size", [(16, 80, 80), (2, 16, 16)], ids=["8x5x5", "one_cube"])
def test_clip_preparation_on_either_path_is_bitwise_cubify_and_normalize(monkeypatch, size,
                                                                         pixels, floor):
    # stack_cubes, with and without targets, in either dtype: 5 clips split
    # 3 + 2; with flip (mirrored views, as pretraining builds them), 10
    # split 5 + 5
    rng = np.random.default_rng(18)
    clips = [VideoClip(rng.random((3, *size)).astype(pixels)) for _ in range(5)]
    mirrored = [VideoClip(np.ascontiguousarray(c.pixels[..., ::-1])) for c in clips]
    monkeypatch.setattr(tk, "_SPLIT_FLOOR", floor)
    for flip in (False, True):
        batch = clips + ([VideoClip(c.pixels[..., ::-1]) for c in clips] if flip else [])
        grids = [cubify(c) for c in clips + (mirrored if flip else [])]
        tokens = np.stack([g.tokens for g in grids])
        values = np.stack([normalize_cube_targets(g).values for g in grids])
        for dtype in (np.float32, np.float64):
            stacked = stack_cubes(batch, dtype)
            cubes, targets = stack_cubes(batch, dtype, targets=True)
            assert stacked.dtype == cubes.dtype == targets.dtype == dtype
            assert stacked.tobytes() == cubes.tobytes() == tokens.astype(dtype).tobytes()
            assert targets.tobytes() == values.astype(dtype).tobytes()


def test_snapshot_config_round_trips_model_geometry():
    snap = snapshot_config(_tiny_cfg_64(), TrainConfig())
    from maskvid.training import SNAPSHOT_FIELDS, decode_config
    back = ModelConfig(**decode_config(snap, SNAPSHOT_FIELDS)["model"])
    assert back == _tiny_cfg_64()
