"""Tests for the encoder-decoder model: embeddings, shapes, and wiring."""

import numpy as np
import pytest

from maskvid import tensor as tk
from maskvid.errors import ConfigError, DimensionError
from maskvid.masking import make_mask
from maskvid.model import (ModelConfig, _even_split, _sincos_1d, classify, clip_features,
                           cube_embed, decode, encode, init_head_params, init_mae_params,
                           mae_forward_batch, pos_embed_table, reconstruct, vit_base_config)
from maskvid.tensor import Tensor
from maskvid.video import VideoClip, cubify, synth_moving_sprites


def _clip(cfg, seed=0):
    t, h, w = cfg.dims
    rng = np.random.default_rng(seed)
    return VideoClip(rng.random((3, 2 * t, 16 * h, 16 * w)).astype(np.float32))


# -- configuration ------------------------------------------------------------

def test_desk_config_token_budget():
    cfg = ModelConfig()
    assert cfg.dims == (8, 4, 4)
    assert cfg.n_tokens == 128
    assert cfg.spatial_sites == 16


def test_full_scale_config_matches_published_geometry():
    cfg = vit_base_config()
    assert cfg.dims == (8, 14, 14)
    assert cfg.n_tokens == 1568
    assert cfg.d_enc == 768 and cfg.depth_enc == 12
    assert cfg.d_dec == 384 and cfg.depth_dec == 4


def test_config_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        ModelConfig(d_enc=64, heads_enc=5)


# -- positional embeddings ----------------------------------------------------

def test_pos_embed_table_shape_and_determinism():
    a = pos_embed_table((8, 4, 4), 64)
    b = pos_embed_table((8, 4, 4), 64)
    assert a.shape == (128, 64)
    np.testing.assert_array_equal(a, b)


def test_pos_embed_first_row_interleaves_sin_cos_of_zero():
    # position 0 contributes sin(0)=0, cos(0)=1 interleaved in every band
    table = pos_embed_table((2, 2, 2), 16)
    row = table[0]
    nonpad = row[np.abs(row) > 0]  # padding columns are exactly zero
    np.testing.assert_array_equal(nonpad, np.ones_like(nonpad))
    np.testing.assert_array_equal(table[0, 0:2], [0.0, 1.0])


def test_pos_embed_rows_are_distinct():
    table = pos_embed_table((8, 4, 4), 64)
    # all pairwise distinct rows: positions must be distinguishable
    uniq = np.unique(np.round(table, 6), axis=0)
    assert uniq.shape[0] == table.shape[0]


def test_pos_embed_values_bounded_by_one():
    table = pos_embed_table((8, 14, 14), 768)
    assert np.abs(table).max() <= 1.0


def test_add_pos_embed_is_additive():
    # as decode adds params.pos_dec
    cfg = ModelConfig()
    table = pos_embed_table(cfg.dims, cfg.d_enc)
    x = np.zeros((128, 64), dtype=np.float32)
    out = tk.add(Tensor(x), Tensor(table.astype(np.float32))).data
    np.testing.assert_allclose(out, table, atol=1e-6)


@pytest.mark.parametrize("dims,width", [((8, 4, 4), 64), ((2, 3, 5), 32), ((8, 14, 14), 768)])
def test_pos_embed_table_rows_are_row_major_over_t_h_w(dims, width):
    t, h, w = dims
    wt, wh, ww = _even_split(width)
    et, eh, ew = (_sincos_1d(np.arange(n), k) for n, k in zip(dims, (wt, wh, ww)))
    table = pos_embed_table(dims, width)
    row = 0
    for ti in range(t):
        for hi in range(h):
            for wi in range(w):
                expect = np.zeros(width)
                expect[:wt] = et[ti]
                expect[wt:wt + wh] = eh[hi]
                expect[wt + wh:wt + wh + ww] = ew[wi]
                np.testing.assert_array_equal(table[row], expect)
                row += 1
    assert row == table.shape[0]


# -- shape conformance --------------------------------------------------------

def test_desk_forward_shapes():
    cfg = ModelConfig()
    params = init_mae_params(cfg, seed=0)
    clip = _clip(cfg)
    mask = make_mask("tube", (8, 16), 0.9, np.random.default_rng(0))
    out = mae_forward_batch(cubify(clip).tokens[None], mask.visible_indices[None], params)
    assert out.shape == (1, 128, 1536)
    assert mae_forward_batch(cubify(clip).tokens[None], mask.visible_indices[None], params,
                             mask.masked_indices[None]).shape == (1, 112, 1536)
    # rho=0.9 on 16 sites: round(14.4)=14 masked -> 2 visible sites, 16 tokens
    assert mask.n_visible == 16


def test_full_scale_forward_shapes_without_training():
    cfg = vit_base_config()
    params = init_mae_params(cfg, seed=0)
    clip = _clip(cfg)
    grid = cubify(clip)
    assert grid.tokens.shape == (1568, 1536)

    mask = make_mask("tube", (8, 196), 0.9, np.random.default_rng(0))
    assert mask.n_visible == 160  # (196-176) sites x 8 slices

    embedded = cube_embed(Tensor(grid.tokens), params)
    assert embedded.shape == (1568, 768)

    vis_idx = mask.visible_indices
    with_pos = tk.add(embedded, Tensor(params.pos_enc))
    encoded = encode(tk.gather_rows(with_pos, vis_idx), params)
    assert encoded.shape == (160, 768)

    decoded = decode(encoded, vis_idx, params)
    assert decoded.shape == (1568, 1536)


def test_encoder_only_sees_visible_tokens():
    cfg = ModelConfig()
    params = init_mae_params(cfg, seed=0)
    clip = _clip(cfg)
    mask = make_mask("tube", (8, 16), 0.9, np.random.default_rng(0))
    grid = cubify(clip)

    # altering masked-cube pixels must not change the encoder output
    hacked = grid.tokens.copy()
    hacked[mask.masked_indices] = 123.0
    vis_idx = mask.visible_indices

    def encode_visible(tokens):
        embedded = tk.add(cube_embed(Tensor(tokens), params), Tensor(params.pos_enc))
        return encode(tk.gather_rows(embedded, vis_idx), params)

    a = encode_visible(grid.tokens)
    b = encode_visible(hacked)
    np.testing.assert_array_equal(a.data, b.data)


def test_decode_places_visible_and_mask_tokens_correctly():
    cfg = ModelConfig()
    params = init_mae_params(cfg, seed=0)
    # instrument: make enc2dec identity-ish impossible, instead check the
    # scatter by marking visible rows through a constant offset
    rng = np.random.default_rng(0)
    encoded = Tensor(rng.standard_normal((16, cfg.d_enc)).astype(np.float32))
    mask = make_mask("tube", (8, 16), 0.9, np.random.default_rng(0))
    out = decode(encoded, mask.visible_indices, params)
    assert out.shape == (128, 1536)
    assert np.isfinite(out.data).all()


def test_mae_forward_batch_matches_single(tmp_path):
    cfg = ModelConfig()
    params = init_mae_params(cfg, seed=0)
    clip = _clip(cfg)
    grid = cubify(clip)
    mask = make_mask("tube", (8, 16), 0.9, np.random.default_rng(0))

    batched = mae_forward_batch(
        grid.tokens[None].repeat(2, axis=0),
        mask.visible_indices[None].repeat(2, axis=0), params)
    np.testing.assert_allclose(batched.data[0], batched.data[1], atol=1e-6)


def test_zero_mask_ratio_runs_end_to_end():
    cfg = ModelConfig()
    params = init_mae_params(cfg, seed=0)
    clip = _clip(cfg)
    mask = make_mask("random", (8, 16), 0.3, 0)
    out = mae_forward_batch(cubify(clip).tokens[None], mask.visible_indices[None], params)
    assert out.shape == (1, 128, 1536)


def test_mae_forward_rejects_geometry_mismatch():
    cfg = ModelConfig()
    params = init_mae_params(cfg, seed=0)
    clip = _clip(cfg)
    tokens = cubify(clip).tokens[None]
    mask = make_mask("tube", (8, 16), 0.9, np.random.default_rng(0))
    visible, masked = mask.visible_indices[None], mask.masked_indices[None]
    short = make_mask("tube", (4, 16), 0.9, np.random.default_rng(0))  # wrong T'
    with pytest.raises(DimensionError, match="mask dims"):
        reconstruct(clip, short, params)
    # a transposed grid has the model's token count and mask dims
    transposed = make_mask("tube", (8, 20), 0.9, np.random.default_rng(0))
    with pytest.raises(DimensionError, match="clip grid"):
        reconstruct(_clip(ModelConfig(dims=(8, 4, 5))), transposed,
                    init_mae_params(ModelConfig(dims=(8, 5, 4)), seed=0))
    bad_visible = visible.copy()
    bad_visible[0, -1] = cfg.n_tokens
    bad_rows = masked.copy()
    bad_rows[0, 0] = -1
    with pytest.raises(DimensionError, match="grids"):
        mae_forward_batch(tokens[:, :64], visible, params)  # a grid of half the tokens
    with pytest.raises(DimensionError, match="grids"):
        mae_forward_batch(tokens[0], visible, params)
    with pytest.raises(DimensionError, match="visible_indices"):
        mae_forward_batch(tokens, bad_visible, params)
    with pytest.raises(DimensionError, match="visible_indices"):
        mae_forward_batch(tokens, visible[0], params)
    with pytest.raises(DimensionError, match="rows"):
        mae_forward_batch(tokens, visible, params, bad_rows)
    with pytest.raises(DimensionError, match="grids"):
        clip_features(tokens[:, :, :768], params)


# -- classification head ------------------------------------------------------

def test_classify_returns_logits_per_class():
    cfg = ModelConfig()
    params = init_mae_params(cfg, seed=0)
    head = init_head_params(cfg, seed=0)
    logits = classify(_clip(cfg), params, head)
    assert logits.shape == (cfg.num_classes,)

    clips = [_clip(cfg, seed=i) for i in range(3)]
    logits = classify(clips, params, head)
    assert logits.shape == (3, cfg.num_classes)


def test_classify_mean_pool_is_token_order_invariant_at_uniform_pos():
    # with identical tokens everywhere, all logits rows must coincide
    cfg = ModelConfig()
    params = init_mae_params(cfg, seed=0)
    head = init_head_params(cfg, seed=0)
    pixels = np.full((3, 16, 64, 64), 0.5, dtype=np.float32)
    logits = classify([VideoClip(pixels), VideoClip(pixels)], params, head)
    np.testing.assert_allclose(logits.data[0], logits.data[1], atol=1e-6)


def test_clip_features_do_not_depend_on_batch_composition(monkeypatch):
    # the probe trains its head on features encoded once per clip, so each
    # clip's features must be the same bytes in any batch it is part of,
    # whether attention runs serially or splits the batch over two cores
    cfg = ModelConfig(dims=(8, 5, 5))
    params = init_mae_params(cfg, seed=0)
    ds = synth_moving_sprites(0, 16, size=(16, 80, 80), sprite_extent=24, noise_level=0.0)
    grids = np.stack([cubify(clip).tokens for clip, _ in ds])
    alone = [clip_features(grids[i:i + 1], params).data[0].tobytes() for i in range(16)]
    rng = np.random.default_rng(0)
    # batches of 3 and 5 clips split into uneven halves
    batches = (np.arange(16), rng.permutation(16), rng.choice(16, size=6),
               rng.choice(16, size=3, replace=False), rng.choice(16, size=5, replace=False),
               np.array([3, 3, 7, 3]))
    for floor in (tk._SPLIT_FLOOR, 0):
        monkeypatch.setattr(tk, "_SPLIT_FLOOR", floor)
        for idx in batches:
            batch = clip_features(grids[idx], params).data
            assert batch.shape == (len(idx), cfg.d_enc)
            assert [row.tobytes() for row in batch] == [alone[i] for i in idx]


def test_head_requires_at_least_two_classes():
    cfg = ModelConfig()
    with pytest.raises(ConfigError):
        init_head_params(ModelConfig(num_classes=1), seed=0)
    del cfg


def test_init_is_deterministic_in_seed():
    cfg = ModelConfig()
    a = init_mae_params(cfg, seed=4)
    b = init_mae_params(cfg, seed=4)
    for name in a.params:
        np.testing.assert_array_equal(a[name].value.data, b[name].value.data)


def test_reconstruct_keeps_visible_cubes_and_clips_predictions():
    cfg = ModelConfig()
    params = init_mae_params(cfg, seed=0)
    clip = _clip(cfg)
    mask = make_mask("tube", (8, 16), 0.9, np.random.default_rng(0))
    recon = reconstruct(clip, mask, params)
    tokens, original = cubify(recon).tokens, cubify(clip).tokens
    np.testing.assert_array_equal(tokens[mask.visible_indices], original[mask.visible_indices])
    assert recon.pixels.dtype == np.float32
    assert 0.0 <= recon.pixels.min() and recon.pixels.max() <= 1.0
    assert not np.array_equal(tokens[mask.masked_indices], original[mask.masked_indices])
