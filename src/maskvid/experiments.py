"""Desk-scale ablation harness: masking strategy, ratio, decoder depth, data size.

Each cell is pretrain -> finetune on the moving-sprites dataset, repeated over
seeds. Claims about orderings are made on means across seeds, never single
runs; absolute accuracies are not comparable to any large-scale result.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError
from .masking import make_mask, leakage_probe
from .model import ModelConfig
from .training import TrainConfig, _has_type, finetune, pretrain, params_from_checkpoint
from .video import clip_size, synth_moving_sprites

@dataclass
class AblationSpec:
    axis: str  # a key of AXES
    values: list
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])
    model_cfg: ModelConfig = field(default_factory=lambda: ModelConfig(dims=(8, 5, 5)))
    pretrain_cfg: TrainConfig = field(default_factory=lambda: TrainConfig(
        mode="pretrain", total_steps=2000, base_lr=0.64, batch_size=4))
    finetune_cfg: TrainConfig = field(default_factory=lambda: TrainConfig(
        mode="finetune", beta2=0.999, total_steps=200, base_lr=0.256,
        batch_size=4, weight_decay=0.0))
    data_seed: int = 0
    # noise-free sprites: with a noisy background the per-cube target
    # normalization amplifies noise into full-variance targets that a
    # desk-scale decoder cannot fit, drowning the strategy signal
    noise_level: float = 0.0
    # a 24px sprite keeps each spatial site's content stable for most of the
    # clip, which is what separates tube masking from frame and random
    sprite_extent: int = 24
    pretrain_clips: int = 16
    label_clips: int = 4
    eval_clips: int = 64
    regime: str = "same_epochs"  # same_epochs | same_iterations (dataset_fraction axis)

    def __post_init__(self):
        if len(self.values) < 1:
            raise ConfigError("ablation grid needs at least one value")
        if self.regime not in ("same_epochs", "same_iterations"):
            raise ConfigError(f"unknown regime {self.regime!r}")

    def sprites(self, offset: int, count: int):
        """count sprite clips at the spec's grid, noise and sprite extent, drawn
        with seed data_seed + offset: a cell pretrains on offset 0, fine-tunes
        on offset 1 (label_clips) and evaluates on offset 2 (eval_clips)."""
        return synth_moving_sprites(self.data_seed + offset, count,
                                    size=clip_size(self.model_cfg.dims),
                                    noise_level=self.noise_level,
                                    sprite_extent=self.sprite_extent)


@dataclass
class ReportRow:
    axis: str
    value: object
    seed: int
    accuracy: float
    final_pretrain_loss: float
    leakage: float
    visible_tokens: int
    wall_seconds: float

    def as_record(self) -> dict:
        return {f: getattr(self, f) for f in REPORT_FIELDS}


REPORT_FIELDS = tuple(f.name for f in fields(ReportRow))


def _mean_leakage(strategy: str, dims, ratio: float, n: int = 200) -> float:
    rng = np.random.default_rng(0)
    return float(np.mean([leakage_probe(make_mask(strategy, dims, ratio, rng))
                          for _ in range(n)]))


def _run_cell(spec: AblationSpec, value, seed: int, pretrain_cfg: TrainConfig,
              model_cfg: ModelConfig, pre_ds, train_ds, eval_ds) -> ReportRow:
    t0 = time.perf_counter()
    result = pretrain(pretrain_cfg, pre_ds, model_cfg=model_cfg)
    params = params_from_checkpoint(result.checkpoint)
    ft_cfg = replace(spec.finetune_cfg, seed=seed)
    ft = finetune(params, train_ds, eval_ds, ft_cfg)
    wall = time.perf_counter() - t0
    dims = (model_cfg.dims[0], model_cfg.spatial_sites)
    leak = _mean_leakage(pretrain_cfg.mask_strategy, dims, pretrain_cfg.mask_ratio)
    probe_mask = make_mask(pretrain_cfg.mask_strategy, dims,
                           pretrain_cfg.mask_ratio, np.random.default_rng(0))
    final_loss = result.trace[-1][2] if result.trace else float("nan")
    return ReportRow(spec.axis, value, seed, ft.accuracy, final_loss, leak,
                     probe_mask.n_visible, wall)


# Each axis maps one grid value to (report value, model config, pretrain
# config, pretrain clip count); the cell's seed is set afterwards.

def _strategy_cell(spec: AblationSpec, value):
    """A strategy at the spec's ratio, or a (strategy, ratio) pair (a list from JSON)."""
    pair = value if isinstance(value, (tuple, list)) else (value, spec.pretrain_cfg.mask_ratio)
    if len(pair) != 2 or not isinstance(pair[1], (int, float)) or not 0.0 <= pair[1] < 1.0:
        raise ConfigError(f"strategy values are a strategy or a (strategy, ratio in [0, 1)) "
                          f"pair, got {value!r}")
    strategy, ratio = pair
    if strategy == "frame":
        # nearest achievable ratio on this grid: whole slices, >=1 visible
        t = spec.model_cfg.dims[0]
        ratio = min(t - 1, math.floor(ratio * t + 0.5)) / t
    cfg = replace(spec.pretrain_cfg, mask_strategy=strategy, mask_ratio=ratio)
    return strategy, spec.model_cfg, cfg, spec.pretrain_clips


def _ratio_cell(spec: AblationSpec, ratio):
    """Accuracy vs masking ratio, with the encoder token count per cell."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"ratio sweep values must be in (0, 1), got {ratio}")
    cfg = replace(spec.pretrain_cfg, mask_ratio=float(ratio))
    return float(ratio), spec.model_cfg, cfg, spec.pretrain_clips


def _decoder_depth_cell(spec: AblationSpec, depth):
    if depth < 1:
        raise ConfigError(f"decoder depth must be >= 1, got {depth}")
    model_cfg = replace(spec.model_cfg, depth_dec=int(depth))
    return int(depth), model_cfg, spec.pretrain_cfg, spec.pretrain_clips


def _dataset_fraction_cell(spec: AblationSpec, fraction):
    """Pretrain on a fraction of the clips, finetune on the full labeled set.

    same_epochs keeps the epoch count fixed (fewer steps on small fractions);
    same_iterations keeps the step count fixed (more epochs on small fractions).
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"dataset fraction must be in (0, 1], got {fraction}")
    n = int(round(fraction * spec.pretrain_clips))
    n = max(4, n - n % 4)  # keep the class balance
    steps = spec.pretrain_cfg.step_budget(spec.pretrain_clips)[1]
    if spec.regime == "same_epochs":
        epochs = steps / spec.pretrain_cfg.steps_per_epoch(spec.pretrain_clips)
        steps = max(1, int(round(epochs * spec.pretrain_cfg.steps_per_epoch(n))))
    return float(fraction), spec.model_cfg, replace(spec.pretrain_cfg, total_steps=steps), n


class Axis(NamedTuple):
    cell: Callable
    defaults: list  # the grid `maskvid ablate` runs when no values are given
    value_type: type | None = None  # what each value must be (float: any number), if checked


AXES = {"strategy": Axis(_strategy_cell, ["tube", "random", "frame"]),
        "ratio": Axis(_ratio_cell, [0.5, 0.75, 0.9], float),
        "decoder_depth": Axis(_decoder_depth_cell, [1, 2, 4], int),
        "dataset_fraction": Axis(_dataset_fraction_cell, [0.25, 0.5, 1.0], float)}


def run_ablation(spec: AblationSpec) -> list[ReportRow]:
    """One pretrain -> finetune cell per (value, seed) of the spec's axis."""
    axis = AXES.get(spec.axis)
    if axis is None:
        raise ConfigError(f"unknown ablation axis {spec.axis!r}")
    for value in spec.values:
        if axis.value_type is not None and not _has_type(value, axis.value_type):
            raise ConfigError(f"ablate.values on the {spec.axis} axis must be "
                              f"{axis.value_type.__name__}s, got {value!r}")
    cells = [axis.cell(spec, value) for value in spec.values]
    train_ds = spec.sprites(1, spec.label_clips)
    eval_ds = spec.sprites(2, spec.eval_clips)
    pre_ds = {}
    rows = []
    for value, model_cfg, pretrain_cfg, n_pre in cells:
        if n_pre not in pre_ds:
            pre_ds[n_pre] = spec.sprites(0, n_pre)
        for seed in spec.seeds:
            rows.append(_run_cell(spec, value, seed, replace(pretrain_cfg, seed=seed),
                                  model_cfg, pre_ds[n_pre], train_ds, eval_ds))
    return rows


def write_report(path: str, rows: list[ReportRow]):
    """Merge rows into the CSV at path; same (axis, value, seed) overwrites."""
    records: dict[tuple, dict] = {}
    if os.path.exists(path):
        with open(path) as fh:
            for rec in csv.DictReader(fh):
                records[(rec["axis"], rec["value"], rec["seed"])] = rec
    for row in rows:
        rec = {k: str(v) for k, v in row.as_record().items()}
        records[(rec["axis"], rec["value"], rec["seed"])] = rec
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_FIELDS)
        writer.writeheader()
        for key in sorted(records):
            writer.writerow(records[key])


def summarize(rows: list[ReportRow]) -> dict:
    """Per-cell-value mean and std of accuracy."""
    by_value: dict[object, list[float]] = {}
    for row in rows:
        by_value.setdefault(row.value, []).append(row.accuracy)
    return {v: (float(np.mean(a)), float(np.std(a))) for v, a in by_value.items()}
