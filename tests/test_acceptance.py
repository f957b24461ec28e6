"""End-to-end acceptance gate.

Each test maps to one shipping criterion: gradient fidelity, mask invariants,
reference-geometry shape conformance, the loss oracle, single-clip
memorization, the masking-strategy ablation, pretraining-beats-scratch,
schedule/optimizer math, and determinism/resume. The ablation tests share one
module-scoped set of training runs because they dominate the runtime budget.
"""

import time

import numpy as np
import pytest

from maskvid.gradsuite import run_gradient_suite
from maskvid.masking import leakage_probe, make_mask
from maskvid.model import (ModelConfig, init_mae_params, mae_forward_batch, mae_loss_batch,
                           vit_base_config)
from maskvid.tensor import Param, Tensor
from maskvid.training import (OptimState, TrainConfig, adamw_step,
                              cosine_warmup_lr, finetune, load_checkpoint,
                              masked_mse_loss, params_from_checkpoint,
                              pretrain, save_checkpoint, scaled_lr)
from maskvid.video import (CubeGrid, VideoClip, cubify, decubify,
                           normalize_cube_targets, synth_moving_sprites)


# 1. Gradient suite ------------------------------------------------------------

def test_gradient_suite_under_tolerance_and_time():
    t0 = time.monotonic()
    worst = run_gradient_suite()
    elapsed = time.monotonic() - t0
    assert worst < 1e-4, f"worst relative error {worst:.3e}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# 2. Mask invariants over 1,000 seeds -------------------------------------------

DIMS = (8, 196)


def test_tube_mask_exact_counts_and_column_structure():
    for seed in range(1000):
        m = make_mask("tube", DIMS, 0.9, np.random.default_rng(seed))
        site_masked = m.mask.all(axis=0)
        assert int(site_masked.sum()) == 176
        # every column is uniform across time: all-masked or all-visible
        assert np.array_equal(m.mask, np.broadcast_to(m.mask[0], m.mask.shape))
        assert leakage_probe(m) == 0.0


def test_random_mask_exact_counts_and_leakage():
    vals = []
    for seed in range(1000):
        m = make_mask("random", DIMS, 0.9, np.random.default_rng(seed))
        assert m.n_masked == 1411
        vals.append(leakage_probe(m))
    assert abs(float(np.mean(vals)) - 0.52) <= 0.02


def test_frame_mask_exact_counts_and_leakage():
    for seed in range(1000):
        m = make_mask("frame", DIMS, 0.875, np.random.default_rng(seed))
        slice_masked = m.mask.all(axis=1)
        slice_visible = ~m.mask.any(axis=1)
        assert int(slice_masked.sum()) == 7
        assert np.logical_or(slice_masked, slice_visible).all()
        assert leakage_probe(m) == 1.0


# 3. Reference-geometry shape conformance ---------------------------------------

def test_reference_geometry_shapes():
    cfg = vit_base_config()
    assert cfg.n_tokens == 1568 and cfg.d_enc == 768
    params = init_mae_params(cfg, seed=0)
    assert params["enc2dec/w"].value.shape == (768, 384)
    assert params.pos_dec.shape == (1568, 384)
    assert params["mask_token"].value.shape == (384,)

    mask = make_mask("tube", (8, 196), 0.9, np.random.default_rng(0))
    assert mask.n_visible == 160  # encoder input length

    rng = np.random.default_rng(0)
    clip = VideoClip(rng.random((3, 16, 224, 224), dtype=np.float32))
    out = mae_forward_batch(cubify(clip).tokens[None], mask.visible_indices[None], params)
    assert out.shape == (1, 1568, 1536)  # decoder runs over all tokens
    recon = decubify(CubeGrid(out.data[0], cfg.dims))
    assert recon.pixels.shape == (3, 16, 224, 224)


# 4. Loss oracle -----------------------------------------------------------------

def brute_force_masked_mse(pred: np.ndarray, targets: np.ndarray, mask) -> float:
    total, count = 0.0, 0
    for i in mask.masked_indices:
        for c in range(pred.shape[1]):
            total += (float(pred[i, c]) - float(targets[i, c])) ** 2
            count += 1
    return total / count


def test_loss_matches_brute_force_on_100_instances():
    rng = np.random.default_rng(0)
    for trial in range(100):
        t = int(rng.integers(2, 6))
        s = int(rng.integers(2, 10))
        c = int(rng.integers(1, 8))
        strategy = ("tube", "random", "frame")[trial % 3]
        ratio = 0.5 if strategy == "frame" else 0.75
        mask = make_mask(strategy, (t, s), ratio, rng)
        pred = rng.normal(size=(t * s, c))
        targets = rng.normal(size=(t * s, c))
        got = masked_mse_loss(Tensor(pred[None]), targets[None], [mask]).item()
        want = brute_force_masked_mse(pred, targets, mask)
        assert abs(got - want) < 1e-7


def test_pretraining_loss_matches_brute_force_on_100_instances():
    # mae_loss_batch, pretraining's own loss, on visible cubes and masked rows
    # against a loop over the masked rows of the full-grid float64 forward
    rng = np.random.default_rng(1)
    for trial in range(100):
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        cfg = ModelConfig(dims=dims, d_enc=8, depth_enc=1, heads_enc=2, d_dec=8, depth_dec=1,
                          heads_dec=2)
        params = init_mae_params(cfg, seed=trial, dtype=np.float64)
        b = int(rng.integers(1, 4))
        strategy = ("tube", "random", "frame")[trial % 3]
        ratio = 0.5 if strategy == "frame" else 0.75
        masks = [make_mask(strategy, (dims[0], cfg.spatial_sites), ratio, rng) for _ in range(b)]
        visible = np.stack([m.visible_indices for m in masks])
        masked = np.stack([m.masked_indices for m in masks])
        grids = rng.random((b, cfg.n_tokens, 1536))
        targets = rng.normal(size=(b, cfg.n_tokens, 1536))
        clip = np.arange(b)[:, None]
        got = mae_loss_batch(grids[clip, visible], visible, params, masked,
                             targets[clip, masked]).item()
        pred = mae_forward_batch(grids, visible, params).data
        total, count = 0.0, 0
        for i in range(b):
            for row in masks[i].masked_indices:
                for c in range(1536):
                    total += (float(pred[i, row, c]) - float(targets[i, row, c])) ** 2
                    count += 1
        assert abs(got - total / count) < 1e-7


# 5. Single-clip memorization ------------------------------------------------------

def test_single_clip_memorization_and_reconstruction():
    clip = synth_moving_sprites(0, 4, noise_level=0.0)[0][0]
    cfg = TrainConfig(mode="pretrain", total_steps=300, base_lr=2.56,
                      batch_size=1, weight_decay=0.0, seed=0)
    t0 = time.monotonic()
    result = pretrain(cfg, [clip], model_cfg=ModelConfig())
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"memorization took {elapsed:.1f}s"
    initial, final = result.trace[0][2], result.trace[-1][2]
    assert final < 0.10 * initial, f"loss {final:.4g} vs initial {initial:.4g}"

    params = params_from_checkpoint(result.checkpoint)
    mask = make_mask("tube", (8, 16), 0.9, np.random.default_rng(0))
    grid = cubify(clip)
    out = mae_forward_batch(grid.tokens[None], mask.visible_indices[None], params)
    pixels = normalize_cube_targets(grid).denormalize(out.data[0])
    truth = grid.tokens
    mae = float(np.abs(pixels[mask.masked_indices] -
                       truth[mask.masked_indices]).mean())
    assert mae < 0.1, f"masked-region reconstruction MAE {mae:.4f}"


# 6 & 7. Masking-strategy ablation and pretraining-vs-scratch ----------------------
#
# Shared protocol, calibrated for a single CPU core. One 2,000-step
# pre-training run per strategy (seed 0) on 16 noise-free sprite clips, then
# fine-tuning on 4 labeled clips (one per motion class), evaluated on 64
# held-out clips. The (16, 80, 80) canvas gives an (8, 5, 5) token grid and
# the 24-pixel sprite keeps each spatial site's content stable for most of
# the clip, so non-tube masking can reconstruct by copying the same site at
# another time while tube masking has to infer motion. The strategy
# comparison (criterion 6) uses fine-tune seeds 0-2; the pretrained-vs-
# scratch comparison (criterion 7) uses seeds 0-4 because its margin is
# smaller. The scratch baseline fine-tunes freshly initialized encoders.

ABL_MODEL = ModelConfig(dims=(8, 5, 5))
ABL_DATA = dict(noise_level=0.0, size=(16, 80, 80), sprite_extent=24)
FT_SEEDS = (0, 1, 2)
SCRATCH_SEEDS = (0, 1, 2, 3, 4)


def _finetune_cfg(seed: int) -> TrainConfig:
    return TrainConfig(mode="finetune", beta2=0.999, total_steps=200,
                       base_lr=0.256, batch_size=4, weight_decay=0.0, seed=seed)


@pytest.fixture(scope="module")
def ablation_runs():
    pre_ds = synth_moving_sprites(0, 16, **ABL_DATA)
    train_ds = synth_moving_sprites(1, 4, **ABL_DATA)
    eval_ds = synth_moving_sprites(2, 64, **ABL_DATA)

    t0 = time.monotonic()
    means = {}
    accs = {}
    for strategy, ratio in (("tube", 0.9), ("random", 0.9), ("frame", 0.875)):
        pcfg = TrainConfig(mode="pretrain", total_steps=2000, base_lr=0.64,
                           batch_size=4, mask_strategy=strategy,
                           mask_ratio=ratio, seed=0)
        res = pretrain(pcfg, pre_ds, model_cfg=ABL_MODEL)
        accs[strategy] = [finetune(params_from_checkpoint(res.checkpoint),
                                   train_ds, eval_ds, _finetune_cfg(s)).accuracy
                          for s in FT_SEEDS]
        means[strategy] = float(np.mean(accs[strategy]))
        if strategy == "tube":
            tube_ckpt = res.checkpoint
    means["elapsed"] = time.monotonic() - t0

    # criterion 7 cells (not part of the criterion-6 runtime budget)
    tube5 = accs["tube"] + [
        finetune(params_from_checkpoint(tube_ckpt), train_ds, eval_ds,
                 _finetune_cfg(s)).accuracy for s in SCRATCH_SEEDS[3:]]
    means["tube5"] = float(np.mean(tube5))
    means["scratch"] = float(np.mean(
        [finetune(init_mae_params(ABL_MODEL, seed=s), train_ds, eval_ds,
                  _finetune_cfg(s)).accuracy for s in SCRATCH_SEEDS]))
    return means


def test_tube_masking_matches_or_beats_random(ablation_runs):
    assert ablation_runs["tube"] >= ablation_runs["random"], ablation_runs


def test_tube_masking_beats_frame_masking(ablation_runs):
    assert ablation_runs["tube"] > ablation_runs["frame"], ablation_runs


def test_ablation_within_time_budget(ablation_runs):
    assert ablation_runs["elapsed"] < 30 * 60, ablation_runs


def test_pretraining_beats_scratch(ablation_runs):
    assert ablation_runs["tube5"] >= ablation_runs["scratch"], ablation_runs


# 8. Schedule and optimizer math -----------------------------------------------

def test_linear_lr_scaling_is_exact():
    assert scaled_lr(1.5e-4, 1024) == 6e-4


def test_cosine_schedule_peak_and_floor():
    warmup, total, peak, floor = 40, 300, 1e-3, 1e-6
    assert cosine_warmup_lr(warmup, warmup, total, peak, floor) == peak
    assert cosine_warmup_lr(total, warmup, total, peak, floor) == floor
    assert cosine_warmup_lr(0, warmup, total, peak, floor) == 0.0


def test_adamw_zero_grad_zero_decay_is_noop():
    rng = np.random.default_rng(0)
    params = [Param(rng.normal(size=(4, 3)), "w"), Param(rng.normal(size=(3,)), "b")]
    before = [p.value.data.copy() for p in params]
    state = OptimState(params)
    adamw_step(state, lr=1e-3, weight_decay=0.0)
    for p, b in zip(params, before):
        assert np.array_equal(p.value.data, b)


# 9. Determinism and resume ------------------------------------------------------

def _determinism_setup():
    ds = synth_moving_sprites(3, 4, noise_level=0.0)
    cfg = TrainConfig(mode="pretrain", total_steps=20, base_lr=0.1,
                      batch_size=2, seed=7)
    return ds, cfg


def test_identical_seeds_give_bitwise_identical_checkpoints():
    ds, cfg = _determinism_setup()
    a = pretrain(cfg, ds, model_cfg=ModelConfig())
    b = pretrain(cfg, ds, model_cfg=ModelConfig())
    assert a.checkpoint.params.keys() == b.checkpoint.params.keys()
    for name in a.checkpoint.params:
        assert a.checkpoint.params[name].tobytes() == b.checkpoint.params[name].tobytes()
    assert a.trace == b.trace


def test_resume_reproduces_uninterrupted_trace(tmp_path):
    ds, cfg = _determinism_setup()
    full = pretrain(cfg, ds, model_cfg=ModelConfig())
    partial = pretrain(cfg, ds, model_cfg=ModelConfig(), stop_step=8)
    path = str(tmp_path / "mid.ckpt")
    save_checkpoint(partial.checkpoint, path)
    resumed = pretrain(cfg, ds, resume=load_checkpoint(path))
    assert partial.trace + resumed.trace == full.trace
    for name in full.checkpoint.params:
        assert np.array_equal(full.checkpoint.params[name],
                              resumed.checkpoint.params[name])
