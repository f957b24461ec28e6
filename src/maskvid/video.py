"""Cube tokenization, target normalization, synthetic data, raw clip files.

Cubes are fixed at 2x16x16 (time x height x width), so every token is a
1536-wide vector regardless of clip geometry. Flatten order inside a cube is
(channel, time, row, col) and is frozen: checkpoints depend on it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tk
from .errors import DimensionError, GenerationError, SamplingError

CUBE_T, CUBE_H, CUBE_W = 2, 16, 16
CUBE_WIDTH = 3 * CUBE_T * CUBE_H * CUBE_W  # 1536

DIRECTIONS = ("up", "down", "left", "right")
# per-frame displacement (dy, dx) for each direction label
_VELOCITY = {"up": (-2, 0), "down": (2, 0), "left": (0, -2), "right": (0, 2)}


@dataclass
class VideoClip:
    """Pixel block (3, T, H, W) in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        c, t, h, w = self.pixels.shape
        if c != 3:
            raise DimensionError(f"clips are 3-channel, got {c}")
        if t % 2 != 0:
            raise DimensionError(f"frame count must be even, got {t}")
        if h % CUBE_H != 0 or w % CUBE_W != 0:
            raise DimensionError(f"H and W must be divisible by 16, got {h}x{w}")

    @property
    def grid_dims(self) -> tuple[int, int, int]:
        _, t, h, w = self.pixels.shape
        return t // CUBE_T, h // CUBE_H, w // CUBE_W


def clip_size(dims: tuple[int, int, int]) -> tuple[int, int, int]:
    """(T, H, W) of a clip whose cube grid is dims; the inverse of VideoClip.grid_dims."""
    tp, hp, wp = dims
    return tp * CUBE_T, hp * CUBE_H, wp * CUBE_W


@dataclass
class CubeGrid:
    """Tokenized clip: (T'*S, 1536) rows in row-major (t', h', w') order."""

    tokens: np.ndarray
    dims: tuple[int, int, int]

    def __post_init__(self):
        tp, hp, wp = self.dims
        if self.tokens.shape != (tp * hp * wp, CUBE_WIDTH):
            raise DimensionError(
                f"token matrix {self.tokens.shape} inconsistent with dims {self.dims}"
            )


@dataclass
class TargetCubes:
    """Per-cube standardized pixels plus the statistics to undo it."""

    values: np.ndarray
    means: np.ndarray
    stds: np.ndarray

    def denormalize(self, values: np.ndarray) -> np.ndarray:
        return values * self.stds[:, None] + self.means[:, None]


def _cube_tokens(pixels: np.ndarray, out: np.ndarray):
    """The cube rows of (3, T, H, W) pixels written into out, (T'*H'*W', 1536)
    in any float dtype: token-major (t', h', w'), cube-internal (channel,
    time, row, col). cubify and stack_cubes share it."""
    _, t, h, w = pixels.shape
    tp, hp, wp = t // CUBE_T, h // CUBE_H, w // CUBE_W
    x = pixels.reshape(3, tp, CUBE_T, hp, CUBE_H, wp, CUBE_W)
    out.reshape(tp, hp, wp, 3, CUBE_T, CUBE_H, CUBE_W)[...] = x.transpose(1, 3, 5, 0, 2, 4, 6)


def cubify(clip: VideoClip) -> CubeGrid:
    """Partition a clip into non-overlapping 2x16x16 cubes, flattened per token.

    The tokens are a new array, never a view of the clip."""
    dims = clip.grid_dims
    tokens = np.empty((math.prod(dims), CUBE_WIDTH), clip.pixels.dtype)
    _cube_tokens(clip.pixels, tokens)
    return CubeGrid(tokens, dims)


def decubify(grid: CubeGrid) -> VideoClip:
    """Exact inverse of cubify."""
    tp, hp, wp = grid.dims
    x = grid.tokens.reshape(tp, hp, wp, 3, CUBE_T, CUBE_H, CUBE_W)
    x = x.transpose(3, 0, 4, 1, 5, 2, 6)
    pixels = np.ascontiguousarray(x.reshape(3, *clip_size(grid.dims)))
    return VideoClip(pixels)


def _standardize(tokens: np.ndarray, out: np.ndarray, scratch: np.ndarray,
                 eps: float = 1e-6) -> tuple:
    """Each row of (N, 1536) tokens minus its mean, over its std + eps, into
    out of tokens' dtype, the deviations into float64 scratch of tokens' shape;
    returns the (means, stds). normalize_cube_targets and stack_cubes share it."""
    # float64 statistics, op for op numpy's mean and std(dtype=np.float64): with
    # float32 accumulation a constant cube has rounding noise in the numerator
    # that the eps divisor amplifies ~100x
    means = np.add.reduce(tokens, axis=1, dtype=np.float64, keepdims=True) / tokens.shape[1]
    np.subtract(tokens, means, out=scratch)
    np.multiply(scratch, scratch, out=scratch)
    stds = np.sqrt(np.add.reduce(scratch, axis=1) / tokens.shape[1]).astype(tokens.dtype)
    means = means[:, 0].astype(tokens.dtype)
    np.subtract(tokens, means[:, None], out=out)
    out /= stds[:, None] + eps
    return means, stds


def normalize_cube_targets(grid: CubeGrid, eps: float = 1e-6) -> TargetCubes:
    """Standardize each cube with its own mean and std (std + eps in the divisor)."""
    values, scratch = np.empty_like(grid.tokens), np.empty_like(grid.tokens, np.float64)
    return TargetCubes(values, *_standardize(grid.tokens, values, scratch, eps))


def stack_cubes(clips, dtype, targets: bool = False):
    """The clips' cube rows (cubify) stacked as one (B, N, 1536) array of dtype,
    and with targets also their normalized targets (normalize_cube_targets,
    statistics in each clip's own dtype) as a second such array.

    Raises DimensionError if the clips' grids differ."""
    dims = {clip.grid_dims for clip in clips}
    if len(dims) != 1:
        raise DimensionError(f"clips of one batch need one grid, got {sorted(dims)}")
    cubes = np.empty((len(clips), math.prod(dims.pop()), CUBE_WIDTH), dtype)
    values = np.empty_like(cubes) if targets else None
    # the float64 scratch of the statistics, one for each half
    scratch = np.empty((2, *cubes.shape[1:])) if targets else [None, None]

    def prepare(ix):
        here = scratch[int(isinstance(ix, slice) and ix.start > 0)]
        for i in np.arange(len(clips))[ix]:
            px = clips[i].pixels
            if values is None or px.dtype == cubes.dtype:
                _cube_tokens(px, cubes[i])
                if values is not None:
                    _standardize(cubes[i], values[i], here)
            else:  # statistics in the clip's own dtype, then cast
                tokens = np.empty(cubes.shape[1:], px.dtype)
                _cube_tokens(px, tokens)
                normed = np.empty_like(tokens)
                _standardize(tokens, normed, here)
                cubes[i], values[i] = tokens, normed

    # one unit per token entry to stack cubes, five to normalize them too
    tk._by_clips(prepare, len(clips), (5 if targets else 1) * cubes[0].size)
    return (cubes, values) if targets else cubes


@dataclass
class SpriteDataset:
    """Class-balanced moving-sprite clips with motion-direction labels."""

    clips: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    seed: int = 0
    classes: tuple = DIRECTIONS

    def __len__(self):
        return len(self.clips)

    def __getitem__(self, i):
        return self.clips[i], self.labels[i]

    def subset(self, indices) -> "SpriteDataset":
        return SpriteDataset([self.clips[i] for i in indices],
                             [self.labels[i] for i in indices],
                             seed=self.seed, classes=self.classes)


def synth_moving_sprites(seed: int, count: int, classes=DIRECTIONS,
                         size: tuple[int, int, int] = (16, 64, 64),
                         sprite_extent: int = 12, noise_level: float = 0.2) -> SpriteDataset:
    """One bright sprite translating at constant velocity over a dark noise field.

    Deterministic in `seed`; clip i uses a child seed derived from (seed, i),
    so generation can be sharded by index without changing the output.
    """
    t, h, w = size
    if count % len(classes) != 0:
        raise GenerationError(f"count {count} is not divisible by {len(classes)} classes")
    clips, labels = [], []
    for i in range(count):
        label = i % len(classes)
        direction = classes[label]
        dy, dx = _VELOCITY[direction]
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        span_y, span_x = abs(dy) * (t - 1), abs(dx) * (t - 1)
        max_y, max_x = h - sprite_extent - span_y, w - sprite_extent - span_x
        if max_y < 0 or max_x < 0:
            raise GenerationError(
                f"sprite of extent {sprite_extent} moving {direction} leaves a {h}x{w} frame"
            )
        y0 = int(rng.integers(0, max_y + 1)) + (span_y if dy < 0 else 0)
        x0 = int(rng.integers(0, max_x + 1)) + (span_x if dx < 0 else 0)
        brightness = 0.8 + 0.2 * rng.random(3)
        pixels = (noise_level * rng.random((3, t, h, w))).astype(np.float32)
        for f in range(t):
            y, x = y0 + dy * f, x0 + dx * f
            for c in range(3):
                pixels[c, f, y:y + sprite_extent, x:x + sprite_extent] = brightness[c]
        clips.append(VideoClip(pixels))
        labels.append(label)
    return SpriteDataset(clips, labels, seed=seed, classes=tuple(classes))


# -- raw clip file format ------------------------------------------------------
# Headerless little-endian float32 in (C, T, H, W) order, with a plain-text
# sidecar manifest (key=value: channels, frames, height, width).

def write_raw_clip(clip: VideoClip, path: str):
    c, t, h, w = clip.pixels.shape
    clip.pixels.astype("<f4").tofile(path)
    with open(path + ".manifest", "w") as fh:
        fh.write(f"channels={c}\nframes={t}\nheight={h}\nwidth={w}\n")


def read_raw_clip(path: str) -> VideoClip:
    manifest_path = path + ".manifest"
    if not os.path.exists(manifest_path):
        raise SamplingError(f"missing sidecar manifest {manifest_path}")
    meta = {}
    with open(manifest_path) as fh:
        for line in fh:
            key, _, val = line.partition("=")
            if key.strip():
                meta[key.strip()] = val.strip()
    keys = ("channels", "frames", "height", "width")
    for key in keys:
        if key not in meta:
            raise SamplingError(f"{manifest_path}: missing key {key!r}")
        if not meta[key].isdecimal() or int(meta[key]) < 1:
            raise SamplingError(f"{manifest_path}: {key}={meta[key]!r} is not a positive integer")
    shape = tuple(int(meta[k]) for k in keys)
    data = np.fromfile(path, dtype="<f4")
    if data.size != int(np.prod(shape)):
        raise DimensionError(
            f"raw file holds {data.size} floats, manifest implies {int(np.prod(shape))}"
        )
    return VideoClip(data.reshape(shape))
