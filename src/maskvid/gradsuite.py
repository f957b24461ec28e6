"""Finite-difference verification of every primitive and the whole model.

Everything here runs in float64: central differences at h=1e-5 drown in
float32 rounding. The full-model check probes a random subset of entries per
parameter tensor so the suite stays under a minute. attention_block records
one tape entry for the whole block, so its attention and GELU kernels are
also checked alone, each wrapped here as a recorded op.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tk
from .errors import DimensionError
from .masking import make_mask
from .model import ModelConfig, init_mae_params, init_head_params, mae_forward_batch, classify
from .tensor import Param, Tensor, finite_diff_check
from .training import masked_mse_loss
from .video import VideoClip, clip_size, cubify, normalize_cube_targets


def _param(rng, shape, name) -> Param:
    return Param(rng.standard_normal(shape), name, dtype=np.float64)


def _sq_mean(y: Tensor) -> Tensor:
    return tk.mse(y, np.zeros(y.shape))


def _to_generic_point(params, rng):
    """Move params to a generic point: fan-in-scaled weights, noisy affines.

    The std-0.02 training init leaves many true gradients near 1e-8, below
    what central differences at h=1e-5 can resolve; checking at a generic
    point keeps every signal well above the noise floor.
    """
    for p in params:
        d = p.value.data
        if d.ndim == 2:
            d[:] = rng.standard_normal(d.shape) / np.sqrt(d.shape[0])
        elif p.name.endswith("/g"):
            d[:] = 1.0 + 0.1 * rng.standard_normal(d.shape)
        elif p.name == "mask_token":
            d[:] = rng.standard_normal(d.shape)
        else:
            d[:] = 0.1 * rng.standard_normal(d.shape)


def _generic_mae_params(cfg: ModelConfig, rng):
    """Float64 model params at a generic point."""
    params = init_mae_params(cfg, seed=0).astype(np.float64)
    _to_generic_point(params.values(), rng)
    return params


def kernel_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """attention_block's attention kernels alone, as one recorded op.

    q, k, v are equal-shaped (B, N, D). The clips run through tk._by_clips as
    in the block, so the kernels split where the block's would.
    """
    if q.data.ndim != 3:
        raise DimensionError(f"kernel_attention needs (B, N, D) q, k, v, got {q.shape}")
    clips, n, d = q.shape
    s, out = np.empty((clips, heads, n, n), q.dtype), np.empty_like(q.data)
    per_clip = heads * n * n
    tk._by_clips(lambda ix: tk._attend(q.data[ix], k.data[ix], v.data[ix], heads, s[ix], out[ix]),
                 clips, per_clip)

    def bwd(g):
        gs, prod = np.empty_like(s), np.empty_like(s)
        gq, gv = np.empty_like(q.data), np.empty_like(q.data)
        gk = np.empty((clips, heads, d // heads, n), q.dtype)
        tk._by_clips(lambda ix: tk._attend_grads(g[ix], q.data[ix], k.data[ix], v.data[ix], s[ix],
                                                 heads, gs[ix], prod[ix], gq[ix], gk[ix], gv[ix]),
                     clips, per_clip)
        return gq, tk._keys_grad(gk), gv

    return tk._record(Tensor(out), (q, k, v), bwd)


def kernel_gelu(x: Tensor) -> Tensor:
    """attention_block's GELU kernels alone, as one recorded op; the clips
    (first axis) run through tk._by_clips, one unit each."""
    xd = x.data
    cdf, out = np.empty_like(xd), np.empty_like(xd)
    clips = xd.shape[0] if xd.ndim else 1
    tk._by_clips(lambda ix: tk._gelu(xd[ix], cdf[ix], out[ix]), clips, 1)

    def bwd(g):
        gx = np.empty_like(xd)
        tk._by_clips(lambda ix: tk._gelu_grads(xd[ix], cdf[ix], g[ix], gx[ix]), clips, 1)
        return (gx,)

    return tk._record(Tensor(out), (x,), bwd)


def primitive_checks(seed: int = 0) -> dict[str, float]:
    """Max relative gradient error per primitive, keyed by the function's name.

    Every public maskvid.tensor function that records onto the tape has an
    entry; attention_block checks the composed block, and attention and gelu
    its kernels alone (kernel_attention, kernel_gelu).
    """
    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}

    a = _param(rng, (3, 4), "a")
    b = _param(rng, (4, 2), "b")
    bias = _param(rng, (2,), "bias")
    # and on a constant batched left operand holding grid rows, as cube_embed's
    # raw cubes
    cubes = Tensor(rng.standard_normal((2, 3, 4)))
    cube_rows = np.array([[4, 0, 2], [1, 2, 3]])
    out["linear"] = max(
        finite_diff_check(lambda: _sq_mean(tk.linear(a.value, b.value, bias.value)), [a, b, bias]),
        finite_diff_check(lambda: _sq_mean(tk.linear(cubes, b.value, bias.value)), [b, bias]),
        finite_diff_check(lambda: _sq_mean(tk.linear(cubes, b.value, bias.value, cube_rows)),
                          [b, bias]))

    x = _param(rng, (3, 4), "x")
    y = _param(rng, (4,), "y")
    out["add"] = finite_diff_check(lambda: _sq_mean(tk.add(x.value, y.value)), [x, y])
    out["gelu"] = finite_diff_check(lambda: _sq_mean(kernel_gelu(x.value)), [x])

    g = _param(rng, (4,), "gamma")
    be = _param(rng, (4,), "beta")
    out["layer_norm"] = finite_diff_check(
        lambda: _sq_mean(tk.layer_norm(x.value, g.value, be.value)), [x, g, be])

    out["reshape"] = finite_diff_check(lambda: _sq_mean(tk.reshape(x.value, (2, 6))), [x])
    out["mean_axis"] = finite_diff_check(lambda: _sq_mean(tk.mean_axis(x.value, axis=-2)), [x])

    # (B, K) indices on a batch of one clip and on a batch of two
    x1 = Param(x.value.data[None].copy(), "x1", dtype=np.float64)
    idx = np.array([[0, 2]])
    bx = _param(rng, (2, 3, 4), "bx")
    bidx = np.array([[2, 0], [1, 2]])
    out["gather_rows"] = max(
        finite_diff_check(lambda: _sq_mean(tk.gather_rows(x1.value, idx)), [x1]),
        finite_diff_check(lambda: _sq_mean(tk.gather_rows(bx.value, bidx)), [bx]))
    fill = _param(rng, (4,), "fill")
    vis = _param(rng, (1, 2, 4), "vis")
    bvis = _param(rng, (2, 2, 4), "bvis")
    out["scatter_rows"] = max(
        finite_diff_check(lambda: _sq_mean(tk.scatter_rows(vis.value, idx, fill.value, 5)),
                          [vis, fill]),
        finite_diff_check(lambda: _sq_mean(tk.scatter_rows(bvis.value, bidx, fill.value, 3)),
                          [bvis, fill]))
    targets = rng.standard_normal((2, 3, 4))
    out["mse"] = finite_diff_check(lambda: tk.mse(bx.value, targets), [bx])

    labels = np.array([1, 0, 3])
    out["cross_entropy"] = finite_diff_check(
        lambda: tk.cross_entropy(x.value, labels), [x])

    # two heads over batched (2, 3, 8) tokens
    q, k, v = (_param(rng, (2, 3, 8), n) for n in "qkv")
    out["attention"] = finite_diff_check(
        lambda: _sq_mean(kernel_attention(q.value, k.value, v.value, heads=2)), [q, k, v])

    blk = tk.init_block_params(8, "blk", rng, dtype=np.float64)
    _to_generic_point(blk.values(), rng)
    tokens = _param(rng, (1, 3, 8), "tokens")
    out["attention_block"] = finite_diff_check(
        lambda: _sq_mean(tk.attention_block(tokens.value, blk, "blk", heads=2)),
        list(blk.values()) + [tokens])

    # the pixel head and its loss on rows of a 5-row grid, rows bias included
    hx, hw, hb = _param(rng, (2, 3, 4), "hx"), _param(rng, (4, 6), "hw"), _param(rng, (6,), "hb")
    head_targets = rng.standard_normal((2, 3, 6))
    out["pixel_mse"] = finite_diff_check(
        lambda: tk.pixel_mse(hx.value, hw.value, hb.value, cube_rows, head_targets), [hx, hw, hb])
    return out


def mae_forward_check(samples_per_param: int = 4, seed: int = 0,
                      config: ModelConfig | None = None) -> float:
    """End-to-end gradient check of pretraining loss on the desk config."""
    cfg = config or ModelConfig(depth_enc=2, depth_dec=2)
    rng = np.random.default_rng(seed)
    params = _generic_mae_params(cfg, rng)
    grid = cubify(VideoClip(rng.random((3, *clip_size(cfg.dims)))))
    mask = make_mask("tube", (cfg.dims[0], cfg.spatial_sites), 0.9, rng)

    def f():
        pred = mae_forward_batch(grid.tokens[None], mask.visible_indices[None], params)
        return masked_mse_loss(pred, normalize_cube_targets(grid).values[None], [mask])

    return finite_diff_check(f, params.values(), samples_per_param=samples_per_param,
                             seed=seed)


def classify_check(samples_per_param: int = 4, seed: int = 0) -> float:
    """Gradient check of the classification path (encoder + head)."""
    cfg = ModelConfig(dims=(2, 2, 2), d_enc=16, depth_enc=2, heads_enc=2,
                      d_dec=8, depth_dec=1, heads_dec=2)
    rng = np.random.default_rng(seed)
    params = _generic_mae_params(cfg, rng)
    head = {n: Param(p.value.data.astype(np.float64), n, dtype=np.float64)
            for n, p in init_head_params(cfg, seed=seed).items()}
    head["head/w"].value.data[:] = rng.standard_normal(head["head/w"].value.shape) / 4.0
    clip = VideoClip(rng.random((3, 4, 32, 32)))

    def f():
        return tk.cross_entropy(classify(clip, params, head), np.array(2))

    checkable = params.encoder_params() + list(head.values())
    return finite_diff_check(f, checkable, samples_per_param=samples_per_param,
                             seed=seed)


def run_gradient_suite(verbose: bool = False, seed: int = 0) -> float:
    """Max relative error across primitives, the MAE forward, and classify."""
    checks = {**primitive_checks(seed), "mae_forward_batch": mae_forward_check(seed=seed),
              "classify": classify_check(seed=seed)}
    worst = 0.0
    for name, err in checks.items():
        if verbose:
            print(f"gradcheck {name}: {err:.3e}")
        worst = max(worst, err)
    return worst
