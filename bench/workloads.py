"""The benchmark's workloads: set-up, one round of public maskvid calls, checks.

A round is a fixed list of operations (public calls into maskvid); every run
repeats whole rounds. Each workload reads the program only through module
attributes at call time (``self.mv.training.pretrain``), so a traced round
goes through the tracer's wrappers and an untraced round through the
original functions.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

import numpy as np

import checks
from checks import require


@dataclass(frozen=True)
class Geometry:
    """Model shape, data sizes and step budgets of one benchmark scale."""

    dims: tuple = (8, 5, 5)          # (T', H', W') token grid: 16x80x80 clips
    d_enc: int = 64
    depth_enc: int = 4
    heads_enc: int = 4
    d_dec: int = 32
    depth_dec: int = 2
    heads_dec: int = 2
    sprite_extent: int = 24
    batch: int = 4
    ratio: float = 0.9
    pretrain_clips: int = 16
    pretrain_steps: int = 24
    label_clips: int = 4
    eval_clips: int = 64
    eval_batch: int = 16
    finetune_steps: int = 8
    ckpt_prep_steps: int = 4
    ablate_ratios: tuple = (0.5, 0.75, 0.9)
    ablate_pretrain_steps: int = 4
    ablate_finetune_steps: int = 2
    ablate_eval_clips: int = 16

    @property
    def size(self) -> tuple:
        t, h, w = self.dims
        return 2 * t, 16 * h, 16 * w

    def model_cfg(self, mv):
        return mv.model.ModelConfig(dims=tuple(self.dims), d_enc=self.d_enc,
                                    depth_enc=self.depth_enc, heads_enc=self.heads_enc,
                                    d_dec=self.d_dec, depth_dec=self.depth_dec,
                                    heads_dec=self.heads_dec)

    def n_params(self) -> int:
        return checks.count_params(self.dims, self.d_enc, self.depth_enc,
                                   self.d_dec, self.depth_dec, mlp_ratio=4)


# The acceptance geometry: (8,5,5) grid, noise-free 80x80 sprites, batch 4.
FULL = Geometry()
# A few-second scale for the self-check: 9 sites keep one visible at ratio 0.9.
TINY = Geometry(dims=(4, 3, 3), d_enc=16, depth_enc=1, heads_enc=2, d_dec=8,
                depth_dec=1, heads_dec=2, sprite_extent=12, pretrain_clips=8,
                pretrain_steps=4, eval_clips=8, eval_batch=4, finetune_steps=2,
                ckpt_prep_steps=1, ablate_pretrain_steps=2, ablate_finetune_steps=1,
                ablate_eval_clips=4)


def pretrain_cfg(mv, geom: Geometry, steps: int, seed: int):
    """The acceptance pretraining settings (AblationSpec defaults), shortened."""
    return mv.training.TrainConfig(mode="pretrain", total_steps=steps, base_lr=0.64,
                                   batch_size=geom.batch, seed=seed,
                                   mask_strategy="tube", mask_ratio=geom.ratio)


def finetune_cfg(mv, geom: Geometry, steps: int, seed: int, mode: str = "finetune"):
    return mv.training.TrainConfig(mode=mode, beta2=0.999, total_steps=steps,
                                   base_lr=0.256, batch_size=geom.batch,
                                   weight_decay=0.0, seed=seed)


def payload_bytes(path: str) -> int:
    """Bytes after the checkpoint's header/payload separator."""
    with open(path, "rb") as fh:
        blob = fh.read()
    marker = b"\n---\n"
    pos = blob.find(marker)
    require(pos >= 0, f"{path}: no header/payload separator")
    return len(blob) - pos - len(marker)


@dataclass
class Round:
    """Timings and counts of one completed round."""

    round_s: float
    train_s: float
    train_clips: int
    steps: int
    phases: dict  # phase name -> (seconds, items)
    scale: float = 1.0  # reference seconds per measured second (calibration.py)


class Workload:
    """Base: subclasses set name, ops and implement setup/round/check/summary."""

    name = ""
    ops = 1          # program calls per round

    def __init__(self, mv, geom: Geometry, seed: int, workdir: str):
        self.mv, self.geom, self.seed, self.workdir = mv, geom, seed, workdir
        self.mcfg = geom.model_cfg(mv)
        self.ops_done = 0
        self.synth_s = 0.0
        self.synth_clips = 0

    def _call(self, fn, *args, **kwargs):
        """One operation: a public program call, timed."""
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        self.ops_done += 1
        return out, time.perf_counter() - t

    def _sprites(self, seed: int, count: int):
        """Noise-free moving-sprite clips, timed for video.synth_ms_per_clip."""
        t = time.perf_counter()
        ds = self.mv.video.synth_moving_sprites(seed, count, size=self.geom.size,
                                                noise_level=0.0,
                                                sprite_extent=self.geom.sprite_extent)
        self.synth_s += time.perf_counter() - t
        self.synth_clips += count
        return ds


class PretrainTube90(Workload):
    """Pretraining at tube ratio 0.9, then a checkpoint save and load.

    Every round pretrains from scratch on the same clips for a fixed number
    of steps, saves the checkpoint and loads it back.
    """

    name = "pretrain-tube90"
    ops = 3

    def setup(self):
        g = self.geom
        self.data = self._sprites(self.seed * 1000, g.pretrain_clips)
        self.cfg = pretrain_cfg(self.mv, g, g.pretrain_steps, self.seed)
        self.path = os.path.join(self.workdir, "pretrain.ckpt")
        self.traces = []
        self.last = None  # checkpoint saved by the latest round
        self.mv.training.pretrain(replace(self.cfg, total_steps=1), self.data,
                                  model_cfg=self.mcfg)

    def round(self, r: int) -> Round:
        t0 = time.perf_counter()
        tr = self.mv.training
        result, train_s = self._call(tr.pretrain, self.cfg, self.data, model_cfg=self.mcfg)
        self._call(tr.save_checkpoint, result.checkpoint, self.path)
        self._call(tr.load_checkpoint, self.path)
        round_s = time.perf_counter() - t0
        self.traces.append(result.trace)
        self.last = result.checkpoint
        clips = self.geom.pretrain_steps * self.geom.batch
        return Round(round_s, train_s, clips, self.geom.pretrain_steps,
                     {"pretrain": (train_s, clips)})

    def summary(self) -> dict:
        """Mean reconstruction loss over the last quarter of the run's steps."""
        k = max(1, self.geom.pretrain_steps // 4)
        return {"pretrain_final_loss": float(np.mean([e[2] for e in self.traces[0][-k:]]))}

    def check(self):
        mv, g = self.mv, self.geom
        checks.check_training_trace(self.traces[0], g.pretrain_steps)
        for trace in self.traces[1:]:
            require(trace == self.traces[0], "pretraining is not bitwise repeatable")
        params = self.params()
        before = self._fixed_batch_loss(mv.model.init_mae_params(self.mcfg, seed=self.seed))
        after = self._fixed_batch_loss(params)
        checks.check_loss_fell(before, after, "pretraining")
        checks.check_masked_mse(*self.loss_case(params))
        masks, visible = self.drawn_masks(np.random.default_rng(self.seed), 64)
        checks.check_tube_masks(masks, g.ratio, visible)
        checks.check_gradients(self.gradient_pairs(params))
        checks.check_checkpoint_roundtrip(self.last, mv.training.load_checkpoint, self.path,
                                          g.n_params(), payload_bytes(self.path))

    def _fixed_batch_loss(self, params) -> float:
        """Masked MSE of params on every pretraining clip, with seed-fixed tube masks."""
        mv, t, s = self.mv, self.mcfg.dims[0], self.mcfg.spatial_sites
        rng = np.random.default_rng(self.seed)
        masks = [mv.masking.make_mask("tube", (t, s), self.geom.ratio, rng) for _ in self.data]
        grids = [mv.video.cubify(clip) for clip, _ in self.data]
        tokens = np.stack([g.tokens for g in grids]).astype(params.pos_enc.dtype)
        targets = np.stack([mv.video.normalize_cube_targets(g).values for g in grids])
        visible = np.stack([m.visible_indices for m in masks])
        pred = mv.model.mae_forward_batch(tokens, visible, params)
        return mv.training.masked_mse_loss(pred, targets.astype(tokens.dtype), masks).item()

    def params(self):
        """Model parameters at the end of the latest round."""
        mv = self.mv
        values = {n: mv.tensor.Param(a.copy(), n) for n, a in self.last.params.items()}
        return mv.model.MAEParams(values, self.mcfg)

    def _own_masks(self, count: int, rng) -> np.ndarray:
        t, s = self.mcfg.dims[0], self.mcfg.spatial_sites
        hidden = checks.round_half_up(self.geom.ratio * s)
        masks = np.zeros((count, t, s), dtype=bool)
        for m in masks:
            m[:, rng.permutation(s)[:hidden]] = True
        return masks

    def loss_case(self, params):
        """(pixels, own tube masks, predictions, masked_mse_loss) on one batch."""
        mv, g = self.mv, self.geom
        clips = [clip for clip, _ in self.data][:g.batch]
        masked = self._own_masks(len(clips), np.random.default_rng(self.seed))
        maps = [mv.masking.MaskMap(m, g.ratio, "tube") for m in masked]
        grids = [mv.video.cubify(c) for c in clips]
        tokens = np.stack([gr.tokens for gr in grids]).astype(np.float32)
        targets = np.stack([mv.video.normalize_cube_targets(gr).values for gr in grids])
        visible = np.stack([m.visible_indices for m in maps])
        pred = mv.model.mae_forward_batch(tokens, visible, params)
        loss = mv.training.masked_mse_loss(pred, targets, maps).item()
        return [c.pixels for c in clips], masked, pred.data, loss

    def drawn_masks(self, rng, count: int):
        """count masks from the program's make_mask: (K, T', S) array, visible indices."""
        t, s = self.mcfg.dims[0], self.mcfg.spatial_sites
        drawn = [self.mv.masking.make_mask("tube", (t, s), self.geom.ratio, rng)
                 for _ in range(count)]
        return np.stack([m.mask for m in drawn]), [m.visible_indices for m in drawn]

    def gradient_pairs(self, params) -> list:
        """(label, tape gradient, central difference) on a few float64 entries."""
        mv = self.mv
        p64 = params.astype(np.float64)
        clip = self.data[0][0]
        grid = mv.video.cubify(clip)
        tokens = grid.tokens.astype(np.float64)[None]
        targets = mv.video.normalize_cube_targets(grid).values.astype(np.float64)[None]
        masked = self._own_masks(1, np.random.default_rng(self.seed + 1))
        maps = [mv.masking.MaskMap(masked[0], self.geom.ratio, "tube")]
        visible = maps[0].visible_indices[None]

        def loss():
            pred = mv.model.mae_forward_batch(tokens, visible, p64)
            return mv.training.masked_mse_loss(pred, targets, maps)

        p64.zero_grad()
        with mv.tensor.Tape() as tape:
            tape.backward(loss())
        pairs = []
        # one tensor per stage whose largest gradients sit well above the
        # roundoff floor of a float64 central difference (~1e-11 here)
        for name in ("embed/b", "enc/block0/wo", "enc/norm/g", "enc2dec/w",
                     "mask_token", "dec/block0/w1", "out/w"):
            p = p64[name]
            flat, grad = p.value.data.reshape(-1), p.grad.reshape(-1)
            for i in np.argsort(-np.abs(grad))[:2]:
                numeric = checks.central_difference(lambda: loss().item(), flat, int(i))
                pairs.append((f"{name}[{int(i)}]", float(grad[i]), numeric))
        return pairs


class Transfer(Workload):
    """Fine-tune, linear-probe and evaluate one encoder from a saved checkpoint."""

    name = "transfer"
    ops = 4

    def setup(self):
        mv, g = self.mv, self.geom
        self.labelled = self._sprites(self.seed * 1000 + 1, g.label_clips)
        self.held_out = self._sprites(self.seed * 1000 + 2, g.eval_clips)
        pre = self._sprites(self.seed * 1000, g.pretrain_clips)
        result = mv.training.pretrain(pretrain_cfg(mv, g, g.ckpt_prep_steps, self.seed), pre,
                                      model_cfg=self.mcfg)
        self.path = os.path.join(self.workdir, "transfer.ckpt")
        mv.training.save_checkpoint(result.checkpoint, self.path)
        self.ft_cfg = finetune_cfg(mv, g, g.finetune_steps, self.seed)
        self.probe_cfg = finetune_cfg(mv, g, g.finetune_steps, self.seed, mode="probe")
        head = mv.model.init_head_params(self.mcfg, seed=self.seed)
        params = mv.training.params_from_checkpoint(result.checkpoint)
        mv.model.classify([c for c, _ in self.held_out][:g.eval_batch], params, head)
        self.last = None
        self.outcomes = []  # per round: both traces and accuracies

    def round(self, r: int) -> Round:
        mv, g = self.mv, self.geom
        tr = mv.training
        t0 = time.perf_counter()
        ckpt, _ = self._call(tr.load_checkpoint, self.path)
        ft, ft_s = self._call(tr.finetune, ckpt, self.labelled, self.labelled, self.ft_cfg)
        probe, probe_s = self._call(tr.linear_probe, ckpt, self.labelled, self.labelled,
                                    self.probe_cfg)
        logits, eval_s = self._call(self._evaluate, ft)
        round_s = time.perf_counter() - t0
        self.last = (ckpt, ft, probe, logits)
        self.outcomes.append((ft.trace, probe.trace, ft.accuracy, probe.accuracy))
        clips = g.finetune_steps * g.batch
        return Round(round_s, ft_s + probe_s, 2 * clips, 2 * g.finetune_steps,
                     {"finetune": (ft_s, clips), "probe": (probe_s, clips),
                      "eval": (eval_s, len(self.held_out))})

    def _evaluate(self, ft) -> np.ndarray:
        """Forward-only logits of the fine-tuned model on the held-out clips."""
        clips = [c for c, _ in self.held_out]
        b = self.geom.eval_batch
        return np.concatenate([self.mv.model.classify(clips[i:i + b], ft.params, ft.head).data
                               for i in range(0, len(clips), b)])

    def summary(self) -> dict:
        ft = self.last[1]
        trace = ft.trace
        return {"finetune_final_loss": float(np.mean([e[2] for e in trace[len(trace) // 2:]])),
                "finetune_accuracy": ft.accuracy, "probe_accuracy": self.last[2].accuracy}

    def check(self):
        mv = self.mv
        for outcome in self.outcomes[1:]:
            require(outcome == self.outcomes[0], "fine-tune or probe is not bitwise repeatable")
        ckpt, ft, probe, logits = self.last
        clips = [c for c, _ in self.labelled]
        labels = [label for _, label in self.labelled]
        for result in (ft, probe):
            checks.check_training_trace(result.trace, self.geom.finetune_steps)
            recount = mv.model.classify(clips, result.params, result.head).data
            checks.check_accuracy(recount, labels, result.accuracy)
        k = min(4, len(self.held_out))
        singles = [mv.model.classify(self.held_out[i][0], ft.params, ft.head).data
                   for i in range(k)]
        checks.check_batching(logits[:k], singles)
        encoder = {p.name for p in ft.params.encoder_params()}
        checks.check_frozen_and_trained(
            ckpt.params, {n: p.value.data for n, p in probe.params.params.items()},
            {n: p.value.data for n, p in ft.params.params.items()}, encoder)


class AblateRatio(Workload):
    """run_ablation on the ratio axis: one pretrain -> fine-tune cell per ratio."""

    name = "ablate-ratio"
    ops = 1

    def setup(self):
        mv, g = self.mv, self.geom
        ex = mv.experiments
        self.spec = ex.AblationSpec(
            axis="ratio", values=list(g.ablate_ratios), seeds=[self.seed],
            model_cfg=self.mcfg,
            pretrain_cfg=pretrain_cfg(mv, g, g.ablate_pretrain_steps, 0),
            finetune_cfg=finetune_cfg(mv, g, g.ablate_finetune_steps, 0),
            data_seed=self.seed * 1000, sprite_extent=g.sprite_extent,
            pretrain_clips=g.pretrain_clips, label_clips=g.label_clips,
            eval_clips=g.ablate_eval_clips)
        warm = self._sprites(self.seed * 1000 + 3, g.batch)
        mv.training.pretrain(pretrain_cfg(mv, g, 1, self.seed), warm, model_cfg=self.mcfg)
        self.rows = []

    def round(self, r: int) -> Round:
        g = self.geom
        t0 = time.perf_counter()
        rows, _ = self._call(self.mv.experiments.run_ablation, self.spec)
        round_s = time.perf_counter() - t0
        self.rows.append(rows)
        steps = len(rows) * (g.ablate_pretrain_steps + g.ablate_finetune_steps)
        train_s = sum(row.wall_seconds for row in rows)
        return Round(round_s, train_s, steps * g.batch, steps,
                     {"cells": (round_s, len(rows))})

    def summary(self) -> dict:
        return {"cells": [row.as_record() for row in self.rows[-1]]}

    def check(self):
        first = [(r.value, r.seed, r.accuracy, r.final_pretrain_loss) for r in self.rows[0]]
        for rows in self.rows:
            checks.check_ablation_rows(rows, self.geom.ablate_ratios, [self.seed],
                                       self.mcfg.dims, self.geom.ablate_eval_clips)
            again = [(r.value, r.seed, r.accuracy, r.final_pretrain_loss) for r in rows]
            require(again == first, "ablation cells are not bitwise repeatable across rounds")


WORKLOADS = {w.name: w for w in (PretrainTube90, Transfer, AblateRatio)}
