"""Tests for cube tokenization, the sprites dataset, raw clips and masked views."""

import numpy as np
import pytest

from maskvid.errors import GenerationError, SamplingError
from maskvid.masking import STRATEGIES, make_mask
from maskvid.video import (CUBE_WIDTH, DIRECTIONS, CubeGrid, VideoClip, clip_size, cubify,
                           decubify, normalize_cube_targets, read_raw_clip,
                           synth_moving_sprites, write_raw_clip)
from maskvid.viz import gray_masked_cubes


def _video(frames=64, h=64, w=64, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((3, frames, h, w)).astype(np.float32)


# -- cube tokenization --------------------------------------------------------

def test_cubify_full_scale_grid_dimensions():
    clip = VideoClip(_video(frames=16, h=224, w=224))
    grid = cubify(clip)
    assert grid.dims == (8, 14, 14)
    assert grid.tokens.shape == (8 * 14 * 14, CUBE_WIDTH)
    assert grid.tokens.shape == (1568, 1536)


@pytest.mark.parametrize("dims", [(1, 1, 1), (8, 5, 5), (8, 14, 14)])
def test_clip_size_inverts_grid_dims(dims):
    assert VideoClip(np.zeros((3, *clip_size(dims)), dtype=np.float32)).grid_dims == dims


def test_cubify_decubify_round_trip():
    clip = VideoClip(_video(frames=16, h=64, w=64))
    grid = cubify(clip)
    back = decubify(grid)
    np.testing.assert_array_equal(back.pixels, clip.pixels)


def test_cubify_tokens_of_a_one_cube_clip_do_not_share_memory_with_its_pixels():
    clip = VideoClip(_video(*clip_size((1, 1, 1))))
    grid = cubify(clip)
    assert not np.shares_memory(grid.tokens, clip.pixels)
    np.testing.assert_array_equal(grid.tokens.reshape(clip.pixels.shape), clip.pixels)


def test_cubify_tokens_are_the_transposed_reshape_byte_for_byte():
    clip = VideoClip(_video(*clip_size((8, 5, 5))))
    x = clip.pixels.reshape(3, 8, 2, 5, 16, 5, 16).transpose(1, 3, 5, 0, 2, 4, 6)
    reference = np.ascontiguousarray(x.reshape(200, CUBE_WIDTH))
    tokens = cubify(clip).tokens
    assert tokens.flags.c_contiguous and tokens.dtype == reference.dtype
    assert tokens.tobytes() == reference.tobytes()


def test_cubify_single_cube_placement():
    # one hot pixel lands in exactly one token, at the flat position
    # channel-major within the cube
    pixels = np.zeros((3, 4, 32, 32), dtype=np.float32)
    pixels[1, 2, 16, 16] = 1.0  # t'=1, h'=1, w'=1
    grid = cubify(VideoClip(pixels))
    token_idx = 1 * 4 + 1 * 2 + 1  # (t', h', w') row-major on a (2,2,2) grid
    nonzero_tokens = np.nonzero(np.abs(grid.tokens).sum(axis=1))[0]
    np.testing.assert_array_equal(nonzero_tokens, [token_idx])
    assert grid.tokens[token_idx].sum() == 1.0


def test_clip_rejects_bad_geometry():
    with pytest.raises(Exception):
        VideoClip(np.zeros((3, 15, 64, 64), dtype=np.float32))  # odd frames
    with pytest.raises(Exception):
        VideoClip(np.zeros((3, 16, 60, 64), dtype=np.float32))  # height % 16


# -- target normalization -----------------------------------------------------

def test_normalize_targets_zero_mean_unit_std():
    grid = cubify(VideoClip(_video(frames=4, h=32, w=32)))
    targets = normalize_cube_targets(grid)
    np.testing.assert_allclose(targets.values.mean(axis=1), 0.0, atol=1e-5)
    np.testing.assert_allclose(targets.values.std(axis=1), 1.0, atol=1e-3)


def test_normalize_constant_cube_maps_to_zero():
    pixels = np.full((3, 2, 16, 16), 0.7, dtype=np.float32)
    targets = normalize_cube_targets(cubify(VideoClip(pixels)))
    np.testing.assert_allclose(targets.values, 0.0, atol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cube_statistics_are_numpys_float64_mean_and_std(dtype):
    # scales far apart, constant cubes and rows read from mirrored or reversed views
    rng = np.random.default_rng(19)
    for k in range(12):
        tokens = (rng.random((int(rng.integers(1, 80)), CUBE_WIDTH)) * 10.0 ** (k % 4 - 2))
        tokens = tokens.astype(dtype)
        tokens[: len(tokens) // 3] = tokens[0, 0]
        view = [tokens, tokens[:, ::-1], tokens[::-1]][k % 3]
        targets = normalize_cube_targets(CubeGrid(view, (len(view), 1, 1)))
        means = view.mean(axis=1, dtype=np.float64).astype(dtype)
        stds = view.std(axis=1, dtype=np.float64).astype(dtype)
        assert targets.means.tobytes() == means.tobytes()
        assert targets.stds.tobytes() == stds.tobytes()


def test_denormalize_inverts_normalization():
    grid = cubify(VideoClip(_video(frames=4, h=32, w=32)))
    targets = normalize_cube_targets(grid)
    np.testing.assert_allclose(targets.denormalize(targets.values),
                               grid.tokens, atol=1e-4)


def test_two_value_cube_normalizes_to_plus_minus_one():
    pixels = np.zeros((3, 2, 16, 16), dtype=np.float32)
    pixels[..., ::2] = 1.0  # half the entries 1, half 0
    targets = normalize_cube_targets(cubify(VideoClip(pixels)))
    vals = np.unique(np.round(targets.values, 4))
    np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-3)


# -- sprites dataset ----------------------------------------------------------

def test_sprites_deterministic_and_balanced():
    a = synth_moving_sprites(seed=7, count=8)
    b = synth_moving_sprites(seed=7, count=8)
    labels = [a[i][1] for i in range(8)]
    assert sorted(labels) == [0, 0, 1, 1, 2, 2, 3, 3]
    for i in range(8):
        np.testing.assert_array_equal(a[i][0].pixels, b[i][0].pixels)


def test_sprites_label_matches_motion_direction():
    ds = synth_moving_sprites(seed=3, count=4, noise_level=0.0)
    for i in range(4):
        clip, label = ds[i]
        first, last = clip.pixels[:, 0], clip.pixels[:, -1]
        cy0, cx0 = _centroid(first)
        cy1, cx1 = _centroid(last)
        dy, dx = cy1 - cy0, cx1 - cx0
        name = DIRECTIONS[label]
        if name == "right":
            assert dx > 1 and abs(dy) < 1
        elif name == "left":
            assert dx < -1 and abs(dy) < 1
        elif name == "down":
            assert dy > 1 and abs(dx) < 1
        elif name == "up":
            assert dy < -1 and abs(dx) < 1


def _centroid(frame):
    mass = frame.sum(axis=0)
    total = mass.sum()
    ys, xs = np.mgrid[0:mass.shape[0], 0:mass.shape[1]]
    return float((ys * mass).sum() / total), float((xs * mass).sum() / total)


def test_sprites_count_must_divide_classes():
    with pytest.raises(GenerationError):
        synth_moving_sprites(seed=0, count=6)


def test_sprites_pixel_range():
    ds = synth_moving_sprites(seed=0, count=4)
    for i in range(4):
        px = ds[i][0].pixels
        assert px.min() >= 0.0 and px.max() <= 1.0


def test_sprite_index_sharding_is_stable():
    # clip i is a pure function of (seed, i): a larger dataset reproduces
    # the clips of a smaller one exactly
    small = synth_moving_sprites(seed=5, count=4)
    large = synth_moving_sprites(seed=5, count=8)
    for i in range(4):
        np.testing.assert_array_equal(small[i][0].pixels, large[i][0].pixels)


def test_subset_keeps_clip_label_pairing():
    ds = synth_moving_sprites(seed=1, count=8)
    sub = ds.subset([5, 2])
    assert len(sub) == 2
    np.testing.assert_array_equal(sub[0][0].pixels, ds[5][0].pixels)
    assert sub[0][1] == ds[5][1]
    assert sub[1][1] == ds[2][1]


# -- raw clip files -----------------------------------------------------------

def test_raw_clip_round_trip(tmp_path):
    clip = synth_moving_sprites(seed=0, count=4)[0][0]
    path = tmp_path / "clip.raw"
    write_raw_clip(clip, str(path))
    back = read_raw_clip(str(path))
    np.testing.assert_array_equal(back.pixels, clip.pixels)


def test_raw_clip_manifest_describes_geometry(tmp_path):
    clip = synth_moving_sprites(seed=0, count=4)[0][0]
    path = tmp_path / "clip.raw"
    write_raw_clip(clip, str(path))
    text = (tmp_path / "clip.raw.manifest").read_text()
    assert "frames=16" in text
    assert "height=64" in text


@pytest.mark.parametrize("key, line", [("height", None), ("height", "height=6.5"),
                                       ("frames", "frames=-16"), ("width", "width=")])
def test_raw_clip_bad_manifest_raises_sampling_error_naming_key(tmp_path, key, line):
    """A missing (line None) or non-positive-integer manifest value is named."""
    clip = synth_moving_sprites(seed=0, count=4)[0][0]
    path = tmp_path / "clip.raw"
    write_raw_clip(clip, str(path))
    manifest = tmp_path / "clip.raw.manifest"
    lines = [ln for ln in manifest.read_text().splitlines() if not ln.startswith(key + "=")]
    manifest.write_text("\n".join(lines + ([line] if line else [])) + "\n")
    with pytest.raises(SamplingError, match=key):
        read_raw_clip(str(path))


# -- masked view ------------------------------------------------------------------

@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("dims", [(1, 1, 1), (8, 4, 4)])
def test_gray_masked_cubes_grays_masked_cubes_and_keeps_visible_ones(strategy, dims):
    clip = VideoClip(_video(*clip_size(dims)))
    before = clip.pixels.copy()
    mask = make_mask(strategy, (dims[0], dims[1] * dims[2]), 0.5, np.random.default_rng(0))
    tokens, original = cubify(gray_masked_cubes(clip, mask)).tokens, cubify(clip).tokens
    assert (tokens[mask.masked_indices] == np.float32(0.5)).all()
    np.testing.assert_array_equal(tokens[mask.visible_indices], original[mask.visible_indices])
    np.testing.assert_array_equal(clip.pixels, before)  # the input is left as it was
