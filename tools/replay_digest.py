"""Print one `name sha256` line per artifact of a fixed maskvid replay.

A refactor that must leave the numbers bitwise unchanged runs this on both
source trees and diffs the two outputs, under each of three invocations:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/replay_digest.py > after-1.txt
    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python3 tools/replay_digest.py > after-2.txt
    PYTHONPATH=src taskset -c 0 python3 tools/replay_digest.py > after-core0.txt
    diff before-1.txt after-1.txt   # and likewise for -2 and -core0

The first is the benchmark's setting. The second gives BLAS two threads. The
third confines the process to one core, so the large batched ops that would
otherwise run half their clips on a worker thread stay on one thread. All
three print the same lines.

The replay covers:
- 150 pretraining steps at the (8,5,5) acceptance geometry (batch 4, seed 0,
  base_lr 0.64, the 16 noise-free acceptance sprites) for tube 0.9, random
  0.9 and frame 0.875, 30 for tube 0.5, whose 96-token encoder blocks
  run half their clips on the worker thread, and 30 for tube 0.9 with
  flip_augment, whose batches draw mirrored clips: loss trace, all
  parameters, both AdamW moments;
- a 40-step fine-tune and a 40-step linear probe from the saved and reloaded
  tube checkpoint, on 4 labelled clips and again on 3 of them (batch 4, so
  batches repeat clips), and on the 4 clips evaluated on themselves, the
  transfer benchmark's call shape, and a fine-tune with weight decay 0.05,
  which each layer's lr scale multiplies: traces, accuracies, encoder
  parameters and head;
- `classify` with the first fine-tuned model on the 16 held-out clips and on
  5 of them (a batch whose halves are uneven): logits;
- `maskvid reconstruct` from that checkpoint: every PPM file it writes;
- make_mask over seeds 0-999 at (8,25) and (8,196) for each strategy;
- pos_embed_table at (8,4,4) and (8,14,14) for the encoder and decoder widths;
- gray_masked_cubes, mask_to_text and mask_heatmap for each strategy;
- masked_mse_loss on a 3-clip (B, N, C) batch of predictions against the
  sprites' normalized cubes, with one mask per clip for each strategy: the
  loss and the predictions' gradient;
- every value of the gradient suite;
- `run_ablation` on the ratio axis, values 0.5 and 0.9 under seeds 0 and 1,
  and a 0.9 cell with flip_augment (4 pretraining and 2 fine-tune steps, 8
  pretraining, 4 labelled and 8 eval clips): every row field but
  wall_seconds.

It calls only public functions whose signatures have been stable across the
refactors it checks. It takes about half a minute on two cores.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from maskvid import cli, gradsuite
from maskvid.experiments import REPORT_FIELDS, AblationSpec, run_ablation
from maskvid.masking import make_mask, mask_to_text
from maskvid.model import ModelConfig, classify, pos_embed_table
from maskvid.tensor import Param, Tape
from maskvid.training import (TrainConfig, finetune, linear_probe, load_checkpoint,
                              masked_mse_loss, pretrain, save_checkpoint)
from maskvid.video import cubify, normalize_cube_targets, synth_moving_sprites
from maskvid.viz import gray_masked_cubes, mask_heatmap

GEOMETRY = ModelConfig(dims=(8, 5, 5))
SPRITES = dict(noise_level=0.0, size=(16, 80, 80), sprite_extent=24)
CELLS = (("tube", 0.9), ("random", 0.9), ("frame", 0.875))
SPLIT_ENCODER_CELL = ("tube", 0.5)
FLIP_CELL = ("tube", 0.9)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def arrays_digest(arrays: dict) -> str:
    """Names, shapes, dtypes and bytes of a name -> array mapping, in name order."""
    return digest(*(x for name in sorted(arrays) for x in
                    (name, arrays[name].shape, str(arrays[name].dtype),
                     np.ascontiguousarray(arrays[name]).tobytes())))


def emit(name: str, value: str):
    print(f"{name} {value}", flush=True)


def replay_pretrain(dataset, name: str, strategy: str, ratio: float, steps: int,
                    flip: bool = False):
    """One pretraining cell's digests; returns its checkpoint."""
    cfg = TrainConfig(mode="pretrain", total_steps=steps, base_lr=0.64, batch_size=4,
                      mask_strategy=strategy, mask_ratio=ratio, seed=0, flip_augment=flip)
    result = pretrain(cfg, dataset, model_cfg=GEOMETRY)
    ckpt = result.checkpoint
    emit(f"pretrain/{name}/trace", digest(result.trace))
    emit(f"pretrain/{name}/params", arrays_digest(ckpt.params))
    emit(f"pretrain/{name}/adamw_m", arrays_digest(ckpt.optim_m))
    emit(f"pretrain/{name}/adamw_v", arrays_digest(ckpt.optim_v))
    return ckpt


def emit_transfer(name: str, result):
    emit(f"{name}/trace", digest(result.trace))
    emit(f"{name}/accuracy", digest(result.accuracy))
    emit(f"{name}/params", arrays_digest({n: p.value.data for n, p in
                                           result.params.params.items()}))
    emit(f"{name}/head", arrays_digest({n: p.value.data for n, p in result.head.items()}))


def replay_training(workdir: str) -> str:
    """The pretraining cells and the transfer runs; returns the tube checkpoint's path."""
    pre_ds = synth_moving_sprites(0, 16, **SPRITES)
    tube_path = os.path.join(workdir, "tube.ckpt")
    for strategy, ratio in CELLS:
        ckpt = replay_pretrain(pre_ds, strategy, strategy, ratio, 150)
        if strategy == "tube":
            save_checkpoint(ckpt, tube_path)
    strategy, ratio = SPLIT_ENCODER_CELL
    replay_pretrain(pre_ds, f"{strategy}{ratio}", strategy, ratio, 30)
    strategy, ratio = FLIP_CELL
    replay_pretrain(pre_ds, f"{strategy}{ratio}_flip", strategy, ratio, 30, flip=True)

    train_ds = synth_moving_sprites(1, 4, **SPRITES)
    eval_ds = synth_moving_sprites(2, 16, **SPRITES)
    # 3 training clips at batch 4 draw with replacement, so a batch repeats a
    # clip; "_evaltrain" passes the training set itself as the eval set
    for suffix, labelled, evaluated in (("", train_ds, eval_ds),
                                        ("_3clips", train_ds.subset([0, 1, 2]), eval_ds),
                                        ("_evaltrain", train_ds, train_ds)):
        for mode, runner in (("finetune", finetune), ("probe", linear_probe)):
            cfg = TrainConfig(mode=mode, beta2=0.999, total_steps=40, base_lr=0.256,
                              batch_size=4, weight_decay=0.0, seed=0)
            result = runner(load_checkpoint(tube_path), labelled, evaluated, cfg)
            name = mode + suffix
            emit_transfer(name, result)
            if name == "finetune":
                clips = [clip for clip, _ in eval_ds]
                for count in (16, 5):
                    logits = classify(clips[:count], result.params, result.head).data
                    emit(f"classify_{count}clips/logits",
                         digest(logits.shape, str(logits.dtype), logits.tobytes()))
    cfg = TrainConfig(mode="finetune", beta2=0.999, total_steps=40, base_lr=0.256,
                      batch_size=4, weight_decay=0.05, seed=0)
    emit_transfer("finetune_wd0.05", finetune(load_checkpoint(tube_path), train_ds, eval_ds, cfg))
    return tube_path


def replay_reconstruct(checkpoint: str, workdir: str):
    out = os.path.join(workdir, "reconstruct")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(["reconstruct", "--checkpoint", checkpoint, "--strategy", "tube",
                        "--ratio", "0.9", "--out", out])
    emit("reconstruct/exit_code", digest(code))
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            emit(f"reconstruct/{name}", digest(fh.read()))


def replay_masks():
    for strategy, ratio in CELLS:
        for dims in ((8, 25), (8, 196)):
            masks = [make_mask(strategy, dims, ratio, np.random.default_rng(seed)).mask
                     for seed in range(1000)]
            emit(f"make_mask/{strategy}/{dims[0]}x{dims[1]}", digest(np.stack(masks).tobytes()))
    for dims, widths in (((8, 4, 4), (64, 32)), ((8, 14, 14), (768, 384))):
        for width in widths:
            table = pos_embed_table(dims, width)
            emit(f"pos_embed_table/{'x'.join(map(str, dims))}/{width}",
                 digest(table.shape, str(table.dtype), table.tobytes()))


def replay_viz():
    clip = synth_moving_sprites(0, 4, **SPRITES)[0][0]
    for strategy, ratio in CELLS:
        mask = make_mask(strategy, (8, 25), ratio, np.random.default_rng(0))
        gray = gray_masked_cubes(clip, mask).pixels
        heat = mask_heatmap(mask)
        emit(f"gray_masked_cubes/{strategy}", digest(str(gray.dtype), gray.tobytes()))
        emit(f"mask_to_text/{strategy}", digest(mask_to_text(mask).encode()))
        emit(f"mask_heatmap/{strategy}", digest(heat.shape, str(heat.dtype), heat.tobytes()))


def replay_masked_loss():
    clips = [clip for clip, _ in synth_moving_sprites(0, 4, **SPRITES)][:3]
    targets = np.stack([normalize_cube_targets(cubify(clip)).values for clip in clips])
    rng = np.random.default_rng(0)
    pred = Param(rng.standard_normal(targets.shape), "pred")
    dims = (GEOMETRY.dims[0], GEOMETRY.spatial_sites)
    for strategy, ratio in CELLS:
        masks = [make_mask(strategy, dims, ratio, rng) for _ in clips]
        pred.zero_grad()
        with Tape() as tape:
            loss = masked_mse_loss(pred.value, targets, masks)
            tape.backward(loss)
        emit(f"masked_mse_loss/{strategy}/value", digest(str(loss.dtype), loss.data.tobytes()))
        emit(f"masked_mse_loss/{strategy}/pred_grad", digest(pred.grad.tobytes()))


def replay_gradsuite():
    for name, err in sorted(gradsuite.primitive_checks().items()):
        emit(f"gradsuite/{name}", digest(err))
    emit("gradsuite/mae_forward", digest(gradsuite.mae_forward_check()))
    emit("gradsuite/mae_loss", digest(gradsuite.mae_loss_check()))
    emit("gradsuite/classify", digest(gradsuite.classify_check()))


def replay_ablation():
    pretrain_cfg = TrainConfig(mode="pretrain", total_steps=4, base_lr=0.64, batch_size=4)
    finetune_cfg = TrainConfig(mode="finetune", beta2=0.999, total_steps=2, base_lr=0.256,
                               batch_size=4, weight_decay=0.0)
    rows = []
    for values, seeds, flip in (([0.5, 0.9], [0, 1], False), ([0.9], [0], True)):
        spec = AblationSpec(axis="ratio", values=values, seeds=seeds, model_cfg=GEOMETRY,
                            pretrain_cfg=replace(pretrain_cfg, flip_augment=flip),
                            finetune_cfg=finetune_cfg, pretrain_clips=8, label_clips=4,
                            eval_clips=8)
        rows += [[getattr(row, f) for f in REPORT_FIELDS if f != "wall_seconds"]
                 for row in run_ablation(spec)]
    emit("run_ablation/rows", digest(rows))


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        tube = replay_training(workdir)
        replay_reconstruct(tube, workdir)
    replay_masks()
    replay_viz()
    replay_masked_loss()
    replay_gradsuite()
    replay_ablation()
    return 0


if __name__ == "__main__":
    sys.exit(main())
