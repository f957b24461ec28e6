"""PPM image output for mask maps and reconstructions."""

from __future__ import annotations

import numpy as np

from .masking import MaskMap, _slice_grids
from .video import VideoClip, cubify, decubify


def write_ppm(path: str, image: np.ndarray):
    """Write an (H, W, 3) float array in [0, 1] as binary P6."""
    h, w, _ = image.shape
    data = (np.clip(image, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def frame_to_image(clip: VideoClip, frame: int) -> np.ndarray:
    return clip.pixels[:, frame].transpose(1, 2, 0)


def mask_heatmap(mask: MaskMap, cell: int = 8) -> np.ndarray:
    """Temporal slices side by side; masked cells dark red, visible light gray."""
    grids = _slice_grids(mask)
    t, rows, cols = grids.shape
    gap = 2
    img = np.ones((rows * cell, t * (cols * cell + gap) - gap, 3))
    for ti, block in enumerate(grids):
        tile = np.where(block[:, :, None], [0.55, 0.08, 0.08], [0.85, 0.85, 0.85])
        tile = np.repeat(np.repeat(tile, cell, axis=0), cell, axis=1)
        x0 = ti * (cols * cell + gap)
        img[:, x0:x0 + cols * cell] = tile
    return img


def gray_masked_cubes(clip: VideoClip, mask: MaskMap, gray: float = 0.5) -> VideoClip:
    """Copy of the clip with every masked cube's pixels replaced by flat gray."""
    grid = cubify(clip)
    grid.tokens[mask.masked_indices] = gray
    return decubify(grid)
