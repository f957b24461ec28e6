"""Asymmetric encoder-decoder over cube tokens.

The encoder embeds and sees only visible cubes; the decoder sees the full grid
with a shared learnable token filling masked positions, and pretraining's loss
projects to pixels only the masked rows. Positional information is a fixed 3D
separable sin/cos table added to the embedded visible cubes (encoder) and after
scattering (decoder).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tk
from .errors import ConfigError, ContractError, DimensionError
from .masking import MaskMap
from .tensor import Param, Tensor
from .video import (CUBE_WIDTH, CubeGrid, VideoClip, cubify, decubify, normalize_cube_targets,
                    stack_cubes)


@dataclass
class ModelConfig:
    dims: tuple[int, int, int] = (8, 4, 4)  # (T', H', W')
    d_enc: int = 64
    depth_enc: int = 4
    heads_enc: int = 4
    d_dec: int = 32
    depth_dec: int = 2
    heads_dec: int = 2
    mlp_ratio: int = 4
    num_classes: int = 4

    def __post_init__(self):
        if min(self.dims) < 1:
            raise ConfigError(f"model.dims entries must be >= 1, got {self.dims}")
        for name in ("d_enc", "depth_enc", "heads_enc", "d_dec", "depth_dec", "heads_dec",
                     "mlp_ratio"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name} must be >= 1, got {getattr(self, name)}")
        if self.d_enc % self.heads_enc != 0:
            raise ConfigError(f"d_enc {self.d_enc} not divisible by heads {self.heads_enc}")
        if self.d_dec % self.heads_dec != 0:
            raise ConfigError(f"d_dec {self.d_dec} not divisible by heads {self.heads_dec}")

    @property
    def n_tokens(self) -> int:
        t, h, w = self.dims
        return t * h * w

    @property
    def spatial_sites(self) -> int:
        return self.dims[1] * self.dims[2]


def vit_base_config() -> ModelConfig:
    """The 16-frame, 224x224 reference geometry: 1568 tokens at width 768."""
    return ModelConfig(dims=(8, 14, 14), d_enc=768, depth_enc=12, heads_enc=12,
                       d_dec=384, depth_dec=4, heads_dec=6, num_classes=4)


# -- positional tables -----------------------------------------------------

def _sincos_1d(positions: np.ndarray, width: int) -> np.ndarray:
    """Interleaved sin/cos codes; row for position 0 is [0, 1, 0, 1, ...]."""
    half = width // 2
    freqs = 1.0 / (10000.0 ** (np.arange(half) / half))
    angles = positions[:, None] * freqs[None, :]
    out = np.zeros((positions.shape[0], width))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def _even_split(width: int) -> tuple[int, int, int]:
    """Width split (t', h', w'): w/4 and two 3w/8 bands, rounded down to even."""
    wt = (width // 4) // 2 * 2
    wh = (3 * width // 8) // 2 * 2
    return wt, wh, wh


def pos_embed_table(dims: tuple[int, int, int], width: int) -> np.ndarray:
    """(T'*H'*W', width) table, row-major (t', h', w'), zero-padded to width."""
    t, h, w = dims
    wt, wh, ww = _even_split(width)
    et = _sincos_1d(np.arange(t), wt)
    eh = _sincos_1d(np.arange(h), wh)
    ew = _sincos_1d(np.arange(w), ww)
    table = np.zeros((t, h, w, width), dtype=np.float64)
    table[..., :wt] = et[:, None, None]
    table[..., wt:wt + wh] = eh[None, :, None]
    table[..., wt + wh:wt + wh + ww] = ew[None, None, :]
    return table.reshape(t * h * w, width)


# -- parameters --------------------------------------------------------------

class MAEParams:
    """Flat name -> Param mapping plus the constant positional tables."""

    def __init__(self, params: dict[str, Param], config: ModelConfig, dtype=np.float32):
        self.params = params
        self.config = config
        self.pos_enc = pos_embed_table(config.dims, config.d_enc).astype(dtype)
        self.pos_dec = pos_embed_table(config.dims, config.d_dec).astype(dtype)

    def __getitem__(self, name: str) -> Param:
        return self.params[name]

    def values(self):
        return self.params.values()

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def encoder_params(self) -> list[Param]:
        """Everything used by classify(): embedding + encoder blocks + final norm."""
        keep = ("embed/", "enc/")
        return [p for n, p in self.params.items() if n.startswith(keep)]

    def astype(self, dtype) -> "MAEParams":
        cast = {n: Param(p.value.data.astype(dtype), n, dtype=dtype)
                for n, p in self.params.items()}
        return MAEParams(cast, self.config, dtype=dtype)


def _stack_layout(prefix: str, width: int, depth: int, mlp_ratio: int) -> dict:
    """depth attention blocks, then a final layer norm, keyed under prefix."""
    layout = {f"{prefix}/block{i}/{k}": v for i in range(depth)
              for k, v in tk._block_layout(width, mlp_ratio).items()}
    layout.update({f"{prefix}/norm/g": ((width,), 1.0), f"{prefix}/norm/b": ((width,), 0.0)})
    return layout


def _param_layout(config: ModelConfig) -> dict:
    """Shape and fill of every MAE parameter, in init_mae_params' draw order."""
    d, dd = config.d_enc, config.d_dec
    return {"embed/w": ((CUBE_WIDTH, d), None), "embed/b": ((d,), 0.0),
            **_stack_layout("enc", d, config.depth_enc, config.mlp_ratio),
            "enc2dec/w": ((d, dd), None), "enc2dec/b": ((dd,), 0.0),
            "mask_token": ((dd,), None),
            **_stack_layout("dec", dd, config.depth_dec, config.mlp_ratio),
            "out/w": ((dd, CUBE_WIDTH), None), "out/b": ((CUBE_WIDTH,), 0.0)}


def _head_layout(config: ModelConfig) -> dict:
    """Shape and fill of the classification head's parameters."""
    d, k = config.d_enc, config.num_classes
    return {"head/norm/g": ((d,), 1.0), "head/norm/b": ((d,), 0.0),
            "head/w": ((d, k), None), "head/b": ((k,), 0.0)}


def init_mae_params(config: ModelConfig, seed: int = 0, dtype=np.float32) -> MAEParams:
    """Truncated normal (std 0.02) weights, zero biases, unit layer-norm gains."""
    params = tk._init_from_layout(_param_layout(config), np.random.default_rng(seed), dtype)
    return MAEParams(params, config, dtype=dtype)


def init_head_params(config: ModelConfig, seed: int = 0, dtype=np.float32) -> dict[str, Param]:
    """Mean-pool readout: layer-norm + linear classifier."""
    if config.num_classes < 2:
        raise ConfigError(f"classification needs >= 2 classes, got {config.num_classes}")
    return tk._init_from_layout(_head_layout(config), np.random.default_rng(seed), dtype)


# -- forward pieces -----------------------------------------------------------

def cube_embed(tokens: Tensor, params: MAEParams, rows: np.ndarray | None = None) -> Tensor:
    """Shared linear projection of raw cube rows to encoder width.

    tokens is the whole grid, or the grid rows `rows` (tokens.shape[:-1]) of
    it; the bias gradient is then summed in grid order (tk.linear).
    """
    return tk.linear(tokens, params["embed/w"].value, params["embed/b"].value, rows)


def encode(visible: Tensor, params: MAEParams) -> Tensor:
    """Encoder blocks over visible tokens, then final layer-norm."""
    if visible.shape[-2] == 0:
        raise ContractError("encoder needs at least one visible token")
    x = visible
    for i in range(params.config.depth_enc):
        x = tk.attention_block(x, params.params, f"enc/block{i}", params.config.heads_enc)
    return tk.layer_norm(x, params["enc/norm/g"].value, params["enc/norm/b"].value)


def _decoder_rows(encoded: Tensor, visible_indices: np.ndarray, params: MAEParams) -> Tensor:
    """decode up to its pixel projection: every normed decoder row."""
    cfg = params.config
    x = tk.linear(encoded, params["enc2dec/w"].value, params["enc2dec/b"].value)
    x = tk.scatter_rows(x, visible_indices, params["mask_token"].value, cfg.n_tokens)
    x = tk.add(x, Tensor(params.pos_dec))
    for i in range(cfg.depth_dec):
        x = tk.attention_block(x, params.params, f"dec/block{i}", cfg.heads_dec)
    return tk.layer_norm(x, params["dec/norm/g"].value, params["dec/norm/b"].value)


def decode(encoded: Tensor, visible_indices: np.ndarray, params: MAEParams) -> Tensor:
    """Project to decoder width, scatter with mask tokens, run decoder, project
    every grid row to pixels."""
    x = _decoder_rows(encoded, visible_indices, params)
    return tk.linear(x, params["out/w"].value, params["out/b"].value)


def reconstruct(clip: VideoClip, mask: MaskMap, params: MAEParams) -> VideoClip:
    """The clip with predicted pixels in its masked cubes, clipped to [0, 1].

    Visible cubes keep the input's pixels; predictions are mapped back to
    pixels with each cube's own target statistics.
    """
    grid = cubify(clip)
    cfg = params.config
    if grid.dims != cfg.dims:
        raise DimensionError(f"clip grid {grid.dims} != model grid {cfg.dims}")
    if mask.dims != (cfg.dims[0], cfg.spatial_sites):
        raise DimensionError(f"mask dims {mask.dims} != grid {(cfg.dims[0], cfg.spatial_sites)}")
    keep = mask.visible_indices
    pred = mae_forward_batch(grid.tokens[None].astype(params.pos_enc.dtype), keep[None], params)
    pixels = normalize_cube_targets(grid).denormalize(pred.data[0])
    pixels[keep] = grid.tokens[keep]
    return decubify(CubeGrid(np.clip(pixels, 0.0, 1.0).astype(np.float32), cfg.dims))


def _check_batch(name: str, x: np.ndarray, k: int, params: MAEParams, **indices):
    """x must be (B, k, 1536), each index array (B, K) rows of the model's N tokens."""
    n = params.config.n_tokens
    if x.ndim != 3 or x.shape[1:] != (k, CUBE_WIDTH):
        raise DimensionError(f"{name} {x.shape} are not (B, {k}, {CUBE_WIDTH}) "
                             f"on model grid {params.config.dims}")
    b = len(x)
    for key, idx in indices.items():
        if idx.ndim != 2 or len(idx) != b or (idx.size and not 0 <= idx.min() <= idx.max() < n):
            raise DimensionError(f"{key} {idx.shape} must be ({b}, K) rows in [0, {n})")


def mae_forward_batch(grids: np.ndarray, visible_indices: np.ndarray,
                      params: MAEParams) -> Tensor:
    """gather visible cubes -> cube_embed -> pos -> encode -> decode.

    grids is (B, N, 1536), visible_indices (B, N_vis). Returns the pixel
    predictions of every grid row, (B, N, 1536). Raises DimensionError on any
    other geometry or on an index outside the grid.
    """
    _check_batch("grids", grids, params.config.n_tokens, params, visible_indices=visible_indices)
    cubes = grids[np.arange(len(grids))[:, None], visible_indices]
    return decode(_encode_visible(cubes, visible_indices, params), visible_indices, params)


def _encode_visible(cubes: np.ndarray, visible_indices: np.ndarray, params: MAEParams) -> Tensor:
    """cube_embed the visible cubes -> pos -> encode."""
    embedded = tk.add(cube_embed(Tensor(cubes), params, visible_indices),
                      Tensor(params.pos_enc[visible_indices]))
    return encode(embedded, params)


def mae_loss_batch(cubes: np.ndarray, visible_indices: np.ndarray, params: MAEParams,
                   rows: np.ndarray, targets: np.ndarray) -> Tensor:
    """The mean squared error of mae_forward_batch's predictions for the grid
    rows `rows` (B, K) against targets (B, K, 1536), their normalized pixels.

    cubes is (B, N_vis, 1536), the clips' visible cubes in visible_indices'
    order; the rest of the grid never reaches the encoder. The pixel
    projection and the loss are one recorded op (tk.pixel_mse), so the
    predictions are never a tensor of their own.
    """
    _check_batch("cubes", cubes, visible_indices.shape[-1], params,
                 visible_indices=visible_indices, rows=rows)
    x = tk.gather_rows(_decoder_rows(_encode_visible(cubes, visible_indices, params),
                                     visible_indices, params), rows)
    return tk.pixel_mse(x, params["out/w"].value, params["out/b"].value, rows, targets)


def clip_features(grids: np.ndarray, params: MAEParams) -> Tensor:
    """Embed every cube of (B, N, 1536) grids, add positions, encode, mean-pool: (B, d_enc).

    A clip's features do not depend on the other clips in its batch. Raises
    DimensionError on grids of any other geometry.
    """
    _check_batch("grids", grids, params.config.n_tokens, params)
    embedded = tk.add(cube_embed(Tensor(grids), params), Tensor(params.pos_enc))
    return tk.mean_axis(encode(embedded, params), axis=-2)


def head_logits(features: Tensor, head: dict[str, Param]) -> Tensor:
    """Layer-norm, then the linear classifier: (B, d_enc) -> (B, num_classes)."""
    normed = tk.layer_norm(features, head["head/norm/g"].value, head["head/norm/b"].value)
    return tk.linear(normed, head["head/w"].value, head["head/b"].value)


def classify(clips, params: MAEParams, head: dict[str, Param]) -> Tensor:
    """head_logits of clip_features: encode all tokens, mean-pool, layer-norm, linear head.

    Accepts one VideoClip or a list; returns (num_classes,) or (B, num_classes).
    """
    single = isinstance(clips, VideoClip)
    grids = stack_cubes([clips] if single else clips, params.pos_enc.dtype)
    logits = head_logits(clip_features(grids, params), head)
    if single:
        logits = tk.reshape(logits, (params.config.num_classes,))
    return logits
