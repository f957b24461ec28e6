"""Tube / random / frame masking and the leakage probe.

All strategies mask an exact count (round-half-up of the ratio times the
strategy's population) sampled uniformly without replacement, so token counts
are static across a batch. True Bernoulli masking would make them random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

STRATEGIES = ("tube", "random", "frame")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


@dataclass
class MaskMap:
    """Boolean field over (T', S); True means masked (in the reconstruction set)."""

    mask: np.ndarray
    ratio: float
    strategy: str
    seed: object = None

    @property
    def dims(self) -> tuple[int, int]:
        return self.mask.shape

    @property
    def n_masked(self) -> int:
        return int(self.mask.sum())

    @property
    def n_visible(self) -> int:
        return self.mask.size - self.n_masked

    @property
    def masked_indices(self) -> np.ndarray:
        """Flat indices of masked tokens, ascending (row-major over (t', s))."""
        return np.flatnonzero(self.mask.reshape(-1))

    @property
    def visible_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.mask.reshape(-1))


def _check_ratio(ratio: float):
    if not 0.0 <= ratio < 1.0:
        raise ConfigError(f"masking ratio must be in [0, 1), got {ratio}")


def tube_mask(dims: tuple[int, int], ratio: float, rng) -> MaskMap:
    """Mask round(ratio*S) spatial sites at every temporal index."""
    _check_ratio(ratio)
    t, s = dims
    gen = _rng(rng)
    n_sites = _round_half_up(ratio * s)
    sites = gen.choice(s, size=n_sites, replace=False)
    mask = np.zeros((t, s), dtype=bool)
    mask[:, sites] = True
    return MaskMap(mask, ratio, "tube", seed=rng if not isinstance(rng, np.random.Generator) else None)


def random_mask(dims: tuple[int, int], ratio: float, rng) -> MaskMap:
    """Mask round(ratio*T'*S) tokens uniformly over the whole grid."""
    _check_ratio(ratio)
    t, s = dims
    gen = _rng(rng)
    n = _round_half_up(ratio * t * s)
    flat = gen.choice(t * s, size=n, replace=False)
    mask = np.zeros(t * s, dtype=bool)
    mask[flat] = True
    return MaskMap(mask.reshape(t, s), ratio, "random",
                   seed=rng if not isinstance(rng, np.random.Generator) else None)


def frame_mask(dims: tuple[int, int], ratio: float, rng) -> MaskMap:
    """Mask round(ratio*T') whole temporal slices."""
    _check_ratio(ratio)
    t, s = dims
    gen = _rng(rng)
    n_slices = _round_half_up(ratio * t)
    slices = gen.choice(t, size=n_slices, replace=False)
    mask = np.zeros((t, s), dtype=bool)
    mask[slices, :] = True
    return MaskMap(mask, ratio, "frame",
                   seed=rng if not isinstance(rng, np.random.Generator) else None)


def make_mask(strategy: str, dims: tuple[int, int], ratio: float, rng) -> MaskMap:
    if strategy == "tube":
        return tube_mask(dims, ratio, rng)
    if strategy == "random":
        return random_mask(dims, ratio, rng)
    if strategy == "frame":
        return frame_mask(dims, ratio, rng)
    raise ConfigError(f"unknown masking strategy {strategy!r}")


def leakage_probe(mask: MaskMap) -> float:
    """Fraction of masked tokens whose spatial site is visible at some other time.

    Tube masks score exactly 0 (whole columns masked), frame masks with at
    least one visible slice score exactly 1.
    """
    masked = mask.mask
    if not masked.any():
        return 0.0
    visible_somewhere = (~masked).any(axis=0)  # per spatial site
    leaky = masked & visible_somewhere[None, :]
    return float(leaky.sum() / masked.sum())


def mask_to_text(mask: MaskMap) -> str:
    """One '#'/'.' grid per temporal slice, slices separated by blank lines."""
    t, s = mask.dims
    side = int(math.isqrt(s))
    if side * side == s:
        rows_per_slice = side
    else:
        rows_per_slice = 1
    blocks = []
    for ti in range(t):
        row = mask.mask[ti]
        chars = np.where(row, "#", ".")
        if rows_per_slice > 1:
            lines = ["".join(chars[r * side:(r + 1) * side]) for r in range(side)]
        else:
            lines = ["".join(chars)]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
