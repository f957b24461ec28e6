"""Tests for the loss, optimizer, schedule, checkpointing, and training loops."""

import functools
import importlib
import inspect
import os
import sys
import threading

import numpy as np
import pytest

from maskvid import tensor as tk
from maskvid.errors import (CheckpointError, ConfigError, ContractError,
                            NumericError)
from maskvid.masking import make_mask
from maskvid.model import (ModelConfig, classify, cube_embed, decode, encode,
                           init_head_params, init_mae_params, mae_forward_batch)
from maskvid.tensor import Param, Tape, Tensor
from maskvid.training import (_EVAL_BATCH, Checkpoint, OptimState, TrainConfig,
                              _train_steps, adamw_step, cosine_warmup_lr, finetune,
                              layer_lr_scales, linear_probe, load_checkpoint,
                              masked_mse_loss, params_from_checkpoint, pretrain,
                              save_checkpoint, scaled_lr, snapshot_config,
                              write_loss_trace)
from maskvid.video import cubify, normalize_cube_targets, synth_moving_sprites

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
    got = masked_mse_loss(Tensor(pred), values, mask).item()
    expect = _brute_force_masked_mse(pred, values, mask)
    assert abs(got - expect) < 1e-7


def test_masked_mse_ignores_visible_rows():
    rng = np.random.default_rng(0)
    pred = rng.standard_normal((8, 3))
    values = rng.standard_normal((8, 3))
    mask = make_mask("random", (2, 4), 0.5, 0)
    base = masked_mse_loss(Tensor(pred), values, mask).item()
    hacked = pred.copy()
    hacked[mask.visible_indices] += 100.0
    assert masked_mse_loss(Tensor(hacked), values, mask).item() == base


def test_masked_mse_rejects_empty_mask():
    mask = make_mask("random", (2, 4), 0.0, 0)
    with pytest.raises(ContractError):
        masked_mse_loss(Tensor(np.zeros((8, 3))), np.zeros((8, 3)), mask)


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
    fast = loss_and_grads(lambda: tk.mse(
        mae_forward_batch(tokens, visible, params, masked),
        targets[np.arange(len(clips))[:, None], masked]))
    for got in (all_rows, fast):
        assert got[0] == full[0]
        assert [n for n in full[1] if got[1][n] != full[1][n]] == []


def test_masked_mse_batched_matches_per_sample_mean():
    rng = np.random.default_rng(1)
    pred = rng.standard_normal((3, 8, 4))
    values = rng.standard_normal((3, 8, 4))
    masks = [make_mask("random", (2, 4), 0.5, s) for s in range(3)]
    batched = masked_mse_loss(Tensor(pred), values, masks).item()
    singles = [masked_mse_loss(Tensor(pred[b]), values[b], masks[b]).item()
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
    state = OptimState.for_params([p])
    adamw_step([p], state, lr=0.1, beta1=0.9, beta2=0.99, weight_decay=0.0)
    np.testing.assert_allclose(p.value.data, [1.0 - 0.1 * 2.0 / (2.0 + 1e-8)],
                               rtol=1e-12)


def test_adamw_zero_grad_zero_wd_is_noop():
    p = _scalar_param(3.0)
    state = OptimState.for_params([p])
    adamw_step([p], state, lr=0.5, weight_decay=0.0)
    np.testing.assert_array_equal(p.value.data, [3.0])


def test_adamw_zero_lr_is_noop_even_with_gradient():
    p = _scalar_param(3.0)
    p.grad[:] = 5.0
    state = OptimState.for_params([p])
    adamw_step([p], state, lr=0.0, weight_decay=0.05)
    np.testing.assert_array_equal(p.value.data, [3.0])


def test_adamw_weight_decay_is_decoupled():
    # zero gradient, wd on: pure multiplicative shrink by (1 - lr*wd)
    p = _scalar_param(2.0)
    state = OptimState.for_params([p])
    adamw_step([p], state, lr=0.1, weight_decay=0.5)
    np.testing.assert_allclose(p.value.data, [2.0 * (1 - 0.1 * 0.5)], rtol=1e-12)


def test_adamw_rejects_non_finite_gradient_without_mutation():
    p = _scalar_param(1.0)
    p.grad[:] = np.nan
    state = OptimState.for_params([p])
    with pytest.raises(NumericError):
        adamw_step([p], state, lr=0.1)
    np.testing.assert_array_equal(p.value.data, [1.0])
    assert state.step == 0


def test_adamw_lr_scales_modulate_update():
    a, b = _scalar_param(0.0), Param(np.array([0.0]), "y", dtype=np.float64)
    a.grad[:] = 1.0
    b.grad[:] = 1.0
    state = OptimState.for_params([a, b])
    adamw_step([a, b], state, lr=0.1, weight_decay=0.0,
               lr_scales={"x": 1.0, "y": 0.5})
    assert abs(a.value.data[0]) > abs(b.value.data[0]) > 0.0
    np.testing.assert_allclose(b.value.data[0], 0.5 * a.value.data[0], rtol=1e-9)


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
    assert back.step == result.checkpoint.step
    assert back.config == result.checkpoint.config
    assert back.rng_state == result.checkpoint.rng_state
    for name, arr in result.checkpoint.params.items():
        np.testing.assert_array_equal(back.params[name], arr)
    for name, arr in result.checkpoint.optim_m.items():
        np.testing.assert_array_equal(back.optim_m[name], arr)


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
                                      trainable, OptimState.for_params(trainable), loss_of,
                                      lr_scales=scales)
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


_ACCEPTANCE_SPRITES = dict(size=(16, 80, 80), sprite_extent=24, noise_level=0.0)
# (training clips, eval set): 3 clips at batch 4 draw with replacement, so a
# batch repeats a clip; "held_out" evaluates on clips the head never saw
_SUPERVISED_CASES = [(4, "train"), (3, "train"), (4, "held_out")]


@pytest.fixture(scope="module")
def acceptance_encoder():
    """Briefly pretrained (8,5,5) encoder, so that clips' features differ."""
    pre = synth_moving_sprites(0, 8, **_ACCEPTANCE_SPRITES)
    cfg = TrainConfig(total_steps=6, base_lr=0.64, batch_size=4, seed=0)
    return pretrain(cfg, pre, model_cfg=ModelConfig(dims=(8, 5, 5))).checkpoint


def _supervised_case(n_train, eval_set):
    labelled = synth_moving_sprites(1, 4, **_ACCEPTANCE_SPRITES).subset(range(n_train))
    held_out = synth_moving_sprites(2, 8, **_ACCEPTANCE_SPRITES)
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


@pytest.mark.parametrize("runner,entries", [(finetune, 55), (linear_probe, 3)],
                         ids=["finetune", "linear_probe"])
def test_supervised_steps_record_55_fine_tune_and_3_probe_tape_entries(monkeypatch, runner,
                                                                       entries):
    # a probe step runs only the head: layer norm, linear, cross-entropy
    recorded = []
    backward = Tape.backward
    monkeypatch.setattr(Tape, "backward",
                        lambda tape, loss: recorded.append(len(tape)) or backward(tape, loss))
    params = init_mae_params(ModelConfig(dims=(8, 5, 5)), seed=0)
    ds = synth_moving_sprites(1, 4, **_ACCEPTANCE_SPRITES)
    runner(params, ds, ds, TrainConfig(mode="finetune", batch_size=4, total_steps=2, seed=0))
    assert recorded == [entries, entries]


def test_maskvid_code_runs_only_on_the_main_thread(monkeypatch):
    # the worker thread that computes half of a split attention runs numpy
    # alone: every public layer function and the tape stay on the caller's
    # thread, as bench/tracer.py's span stack requires
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

    params = init_mae_params(ModelConfig(dims=(8, 5, 5)), seed=0)
    labelled = synth_moving_sprites(1, 4, **_ACCEPTANCE_SPRITES)
    result = finetune(params, labelled, labelled,
                      TrainConfig(mode="finetune", batch_size=4, total_steps=1, seed=0))
    held_out = synth_moving_sprites(2, 16, **_ACCEPTANCE_SPRITES)
    classify([clip for clip, _ in held_out], result.params, result.head)
    assert {name for name, _ in threads} >= {"attention", "Tape.record", "Tape.backward"}
    assert [name for name, thread in threads if thread is not threading.main_thread()] == []
    if len(os.sched_getaffinity(0)) >= 2:
        assert tk._POOL is not None  # the fine-tune step and classify did split


@pytest.mark.parametrize("runner,patched", [(finetune, "cubify"), (linear_probe, "encode")],
                         ids=["finetune_cubify", "linear_probe_encode"])
def test_eval_on_the_training_set_reuses_its_grids_and_probe_features(monkeypatch, runner,
                                                                      patched):
    # fine-tuning cubifies each clip once; the probe's frozen encoder also
    # encodes each clip once, for training and eval alike
    from maskvid import model
    calls = []
    original = getattr(model, patched)

    def counted(x, *args):
        calls.append(1 if patched == "cubify" else x.shape[0])
        return original(x, *args)

    monkeypatch.setattr(model, patched, counted)
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
    params = init_mae_params(ModelConfig(dims=(8, 5, 5)), seed=0)
    train_ds = synth_moving_sprites(1, 4, **_ACCEPTANCE_SPRITES)
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
    def no_setup(dataset):
        raise AssertionError("cube grids were built before the ratio was checked")

    monkeypatch.setattr("maskvid.training._clip_grids", no_setup)
    ds = synth_moving_sprites(seed=0, count=4)  # (8, 4, 4): 8 slices of 16 sites
    cfg = TrainConfig(mask_strategy=strategy, mask_ratio=ratio, total_steps=1)
    with pytest.raises(ConfigError, match=rf"{strategy}.*{ratio}.*\(8, 16\)"):
        pretrain(cfg, ds, model_cfg=DESK)


def test_snapshot_config_round_trips_model_geometry():
    snap = snapshot_config(_tiny_cfg_64(), TrainConfig())
    from maskvid.training import SNAPSHOT_FIELDS, decode_config
    back = ModelConfig(**decode_config(snap, SNAPSHOT_FIELDS)["model"])
    assert back == _tiny_cfg_64()
