"""Tests for the masking strategies and the leakage probe."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskvid.errors import ConfigError
from maskvid.masking import MaskMap, leakage_probe, make_mask, mask_to_text

FULL_DIMS = (8, 196)  # full-scale token grid: 8 temporal slices x 14x14 sites


# -- exact counts -------------------------------------------------------------

def test_tube_count_is_exact_at_full_scale():
    m = make_mask("tube", FULL_DIMS, 0.9, np.random.default_rng(0))
    # round(0.9 * 196) = 176 masked sites, each masked in all 8 slices
    assert m.n_masked == 176 * 8
    per_slice = m.mask.sum(axis=1)
    np.testing.assert_array_equal(per_slice, np.full(8, 176))


def test_random_count_is_exact_at_full_scale():
    m = make_mask("random", FULL_DIMS, 0.9, np.random.default_rng(0))
    assert m.n_masked == 1411  # round(0.9 * 1568)


def test_frame_count_is_exact_at_full_scale():
    m = make_mask("frame", FULL_DIMS, 0.875, np.random.default_rng(0))
    slice_masked = m.mask.all(axis=1)
    slice_clear = ~m.mask.any(axis=1)
    assert slice_masked.sum() == 7  # round(0.875 * 8)
    assert (slice_masked | slice_clear).all()


def test_round_half_up_boundary():
    # 0.5 * 2 slices = 1.0 -> exactly 1; 0.25 * 2 = 0.5 rounds up to 1
    m = make_mask("frame", (2, 4), 0.25, np.random.default_rng(0))
    assert m.mask.all(axis=1).sum() == 1


def test_tube_mask_is_constant_across_time():
    m = make_mask("tube", (8, 16), 0.9, np.random.default_rng(1))
    for t in range(1, 8):
        np.testing.assert_array_equal(m.mask[t], m.mask[0])


def test_ratio_out_of_range_rejected():
    rng = np.random.default_rng(0)
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ConfigError):
            make_mask("tube", (8, 16), bad, rng)


def test_make_mask_dispatches_and_rejects_unknown():
    m = make_mask("tube", (8, 16), 0.9, 0)
    assert m.strategy == "tube"
    with pytest.raises(ConfigError):
        make_mask("diagonal", (8, 16), 0.9, 0)


def test_mask_determinism_under_seed():
    a = make_mask("random", FULL_DIMS, 0.9, 42)
    b = make_mask("random", FULL_DIMS, 0.9, 42)
    np.testing.assert_array_equal(a.mask, b.mask)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.sampled_from(["tube", "random", "frame"]),
       st.floats(min_value=0.0, max_value=0.99))
def test_mask_counts_property(seed, strategy, ratio):
    t, s = 8, 16
    m = make_mask(strategy, (t, s), ratio, seed)
    if strategy == "tube":
        expect = int(np.floor(ratio * s + 0.5)) * t
    elif strategy == "random":
        expect = int(np.floor(ratio * t * s + 0.5))
    else:
        expect = int(np.floor(ratio * t + 0.5)) * s
    assert m.n_masked == expect
    assert m.n_masked + m.n_visible == t * s


# -- indices ------------------------------------------------------------------

def test_masked_and_visible_indices_partition_the_grid():
    m = make_mask("random", (4, 9), 0.6, 3)
    combined = np.sort(np.concatenate([m.masked_indices, m.visible_indices]))
    np.testing.assert_array_equal(combined, np.arange(36))


# -- leakage ------------------------------------------------------------------

def test_tube_leakage_is_zero():
    for seed in range(20):
        m = make_mask("tube", FULL_DIMS, 0.9, np.random.default_rng(seed))
        assert leakage_probe(m) == 0.0


def test_frame_leakage_is_one():
    for seed in range(20):
        m = make_mask("frame", FULL_DIMS, 0.875, np.random.default_rng(seed))
        assert leakage_probe(m) == 1.0


def test_random_leakage_monte_carlo():
    # P(a masked token has a visible same-site token elsewhere) = 1 - rho^(T'-1)
    # at rho=0.9, T'=8: 1 - 0.9^7 = 0.5217
    rng = np.random.default_rng(0)
    vals = [leakage_probe(make_mask("random", FULL_DIMS, 0.9, rng)) for _ in range(200)]
    assert abs(float(np.mean(vals)) - (1.0 - 0.9 ** 7)) < 0.01


def test_leakage_empty_mask_is_zero():
    m = make_mask("random", (4, 4), 0.0, 0)
    assert m.n_masked == 0
    assert leakage_probe(m) == 0.0


def test_leakage_ordering_tube_below_random_below_frame():
    rng = np.random.default_rng(7)
    tube = np.mean([leakage_probe(make_mask("tube", FULL_DIMS, 0.9, rng)) for _ in range(20)])
    rand = np.mean([leakage_probe(make_mask("random", FULL_DIMS, 0.9, rng)) for _ in range(20)])
    frame = np.mean([leakage_probe(make_mask("frame", FULL_DIMS, 0.875, rng)) for _ in range(20)])
    assert tube < rand < frame


# -- text rendering -----------------------------------------------------------

def test_mask_to_text_char_counts():
    m = make_mask("tube", (2, 16), 0.75, np.random.default_rng(0))
    text = mask_to_text(m)
    assert text.count("#") == m.n_masked
    assert text.count(".") == m.n_visible
