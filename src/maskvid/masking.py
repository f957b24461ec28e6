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

# the (T', S) axes each strategy draws over
_DRAWN_AXES = {"tube": (False, True), "random": (True, True), "frame": (True, False)}
STRATEGIES = tuple(_DRAWN_AXES)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    if isinstance(seed_or_rng, int) and seed_or_rng < 0:
        raise ConfigError(f"mask seed must be >= 0, got {seed_or_rng}")
    return np.random.default_rng(seed_or_rng)


@dataclass
class MaskMap:
    """Boolean field over (T', S); True means masked (in the reconstruction set)."""

    mask: np.ndarray
    ratio: float
    strategy: str

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


def make_mask(strategy: str, dims: tuple[int, int], ratio: float, rng) -> MaskMap:
    """Mask round(ratio * population) members of the strategy's population.

    The population is the S spatial sites for tube, the T'*S tokens for
    random and the T' temporal slices for frame; a drawn member is masked
    along every axis the strategy does not draw over.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown masking strategy {strategy!r}")
    if not 0.0 <= ratio < 1.0:
        raise ConfigError(f"masking ratio must be in [0, 1), got {ratio}")
    pt, ps = (n if drawn else 1 for n, drawn in zip(dims, _DRAWN_AXES[strategy]))
    members = _rng(rng).choice(pt * ps, size=_round_half_up(ratio * pt * ps), replace=False)
    population = np.zeros(pt * ps, dtype=bool)
    population[members] = True
    mask = np.broadcast_to(population.reshape(pt, ps), dims).copy()
    return MaskMap(mask, ratio, strategy)


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


def _slice_grids(mask: MaskMap) -> np.ndarray:
    """The mask as (T', rows, cols): each slice square when S is a square, else one row."""
    t, s = mask.dims
    side = math.isqrt(s)
    rows, cols = (side, side) if side * side == s else (1, s)
    return mask.mask.reshape(t, rows, cols)


def mask_to_text(mask: MaskMap) -> str:
    """One '#'/'.' grid per temporal slice, slices separated by blank lines."""
    blocks = ["\n".join("".join(row) for row in np.where(grid, "#", "."))
              for grid in _slice_grids(mask)]
    return "\n\n".join(blocks) + "\n"
