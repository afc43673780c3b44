"""Encoder and pixel-unshuffle tests.

The unshuffle index law is checked by hand-evaluated examples, on
random shapes, against the channels-first unshuffle-then-flatten
written out below, by the shape rule [n, s, s, C] -> [n, (s/r)^2,
C*r*r], by multiset preservation, and by the pixel_shuffle inverse kept
in tests/per_image_oracle.py. Encoder output shapes follow config
arithmetic; input filters are verified to be exact on the 8-bit
lattice. The encoders are frozen, forward-only array code: their
tokens are ndarrays, and tests/test_model.py pins that no gradient
reaches an encoder parameter.
"""

import numpy as np
import pytest

from tilefusion.encoders import (
    Encoder,
    EncoderConfig,
    filter_pixels,
    highpass_pixels,
    lowpass_pixels,
    pixel_unshuffle,
)
from tilefusion.errors import ConfigError, DimensionError
from tilefusion.lm import LMConfig
from tilefusion.model import PipelineConfig
from tilefusion.tiling import ImageBuffer, TileSet, segment

from per_image_oracle import pixel_shuffle


def desk_cfg_a(**kw):
    base = dict(patch_size=4, embed_dim=8, depth=1, heads=2,
                grid_side=8, unshuffle_r=2)
    base.update(kw)
    return EncoderConfig(**base)


def desk_cfg_b(**kw):
    base = dict(patch_size=2, embed_dim=8, depth=1, heads=2,
                grid_side=16, unshuffle_r=4)
    base.update(kw)
    return EncoderConfig(**base)


def paper_cfg_a():
    return EncoderConfig(patch_size=14, embed_dim=8, depth=1, heads=2,
                         grid_side=32, unshuffle_r=2)


def paper_cfg_b():
    return EncoderConfig(patch_size=7, embed_dim=8, depth=1, heads=2,
                         grid_side=64, unshuffle_r=4)


def interleaved_tokens_per_tile(a, b):
    """Fused tokens per tile of an A+B post-interleave pipeline."""
    cfg = PipelineConfig(encoder_a=a, encoder_b=b,
                         lm=LMConfig(d_lm=16, layers=1, heads=2))
    return cfg.tokens_per_tile()


def gradient_tiles(h=100, w=160, tile=32):
    col = np.linspace(0.0, 1.0, w)
    px = np.broadcast_to(col[None, :, None], (h, w, 3)).copy()
    return segment(ImageBuffer(px), tile, 6)


# ---------------------------------------------------------------------------
# config arithmetic


def test_config_invariants_and_errors():
    cfg = desk_cfg_a()
    assert cfg.tile_side == 32
    assert cfg.tokens_per_tile == 16
    with pytest.raises(ConfigError):
        desk_cfg_a(grid_side=9)  # not divisible by r=2
    with pytest.raises(ConfigError):
        desk_cfg_a(embed_dim=9)  # not divisible by heads
    with pytest.raises(ConfigError):
        desk_cfg_a(depth=0)
    with pytest.raises(ConfigError):
        desk_cfg_a(input_filter="bandpass")


def test_token_budget_paper_scale():
    a, b = paper_cfg_a(), paper_cfg_b()
    assert a.tile_side == 448 and b.tile_side == 448
    assert a.grid_side == 32 and b.grid_side == 64
    assert a.tokens_per_tile == 256
    assert b.tokens_per_tile == 256
    assert interleaved_tokens_per_tile(a, b) == 512


def test_token_budget_desk_scale():
    a, b = desk_cfg_a(), desk_cfg_b()
    assert a.tokens_per_tile == 16 and b.tokens_per_tile == 16
    assert interleaved_tokens_per_tile(a, b) == 32


def test_token_budget_full_collapse():
    a = desk_cfg_a(unshuffle_r=8)
    b = desk_cfg_b(unshuffle_r=16)
    assert interleaved_tokens_per_tile(a, b) == 2


# ---------------------------------------------------------------------------
# pixel unshuffle / shuffle


def channels_first_unshuffle_rows(grid, r):
    """The channels-first unshuffle-then-flatten the encoders once ran:
    grid [n, s, s, C] turned to [n, C, s, s], unshuffled to
    [n, C*r*r, s/r, s/r] by out[n, c*r*r + dr*r + dc, i, j] =
    in[n, c, i*r + dr, j*r + dc], then flattened tile by tile in
    row-major scan to [n, (s/r)^2, C*r*r]."""
    x = grid.transpose(0, 3, 1, 2)
    n, c, s, _ = x.shape
    x = x.reshape(n, c, s // r, r, s // r, r).transpose(0, 1, 3, 5, 2, 4)
    x = x.reshape(n, c * r * r, s // r, s // r)
    return x.transpose(0, 2, 3, 1).reshape(n, (s // r) ** 2, c * r * r)


def random_grid_shapes(seed, count):
    """count random (n, s, C, r) with r dividing s."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r = int(rng.choice([1, 2, 3, 4]))
        yield (int(rng.integers(1, 5)), r * int(rng.integers(1, 5)),
               int(rng.integers(1, 6)), r)


def test_unshuffle_shape_law_example():
    out = pixel_unshuffle(np.zeros((6, 4, 4, 3)), 2)
    assert out.shape == (6, 4, 12)


def test_unshuffle_r1_is_identity():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((3, 4, 4, 5))
    out = pixel_unshuffle(g, 1)
    assert out.shape == (3, 16, 5)
    assert out.tobytes() == g.tobytes()


def test_unshuffle_hand_case():
    vals = np.array([[11.0, 22.0], [33.0, 44.0]]).reshape(1, 2, 2, 1)
    out = pixel_unshuffle(vals, 2)
    assert out.shape == (1, 1, 4)
    np.testing.assert_array_equal(out[0, 0], [11.0, 22.0, 33.0, 44.0])


def test_unshuffle_index_formula():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 6, 6, 3))
    out = pixel_unshuffle(x, 3)
    for n in range(2):
        for c in range(3):
            for dr in range(3):
                for dc in range(3):
                    for i in range(2):
                        for j in range(2):
                            assert (out[n, i * 2 + j, c * 9 + dr * 3 + dc]
                                    == x[n, i * 3 + dr, j * 3 + dc, c])


def test_unshuffle_index_law_random_shapes():
    for n, s, c, r in random_grid_shapes(9, 40):
        x = np.random.default_rng(s * c).standard_normal((n, s, s, c))
        out = pixel_unshuffle(x, r)
        m = s // r
        k, i, j, cc, dr, dc = np.meshgrid(
            np.arange(n), np.arange(m), np.arange(m), np.arange(c),
            np.arange(r), np.arange(r), indexing="ij")
        np.testing.assert_array_equal(
            out[k, i * m + j, cc * r * r + dr * r + dc],
            x[k, i * r + dr, j * r + dc, cc])


def test_unshuffle_matches_channels_first_oracle_bitwise():
    for n, s, c, r in random_grid_shapes(10, 40):
        x = np.random.default_rng(s + c).standard_normal((n, s, s, c))
        out = pixel_unshuffle(x, r)
        want = channels_first_unshuffle_rows(x, r)
        assert out.shape == want.shape
        assert out.tobytes() == np.ascontiguousarray(want).tobytes()


def test_unshuffle_preserves_multiset():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 8, 8, 2))
    out = pixel_unshuffle(x, 4)
    np.testing.assert_array_equal(np.sort(out.ravel()), np.sort(x.ravel()))


def test_shuffle_shape_law():
    assert pixel_shuffle(np.zeros((1, 4, 12)), 2).shape == (1, 4, 4, 3)


def test_shuffle_inverts_unshuffle_100_seeds():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        r = int(rng.choice([1, 2, 4]))
        n = int(rng.integers(1, 4))
        c = int(rng.integers(1, 5))
        blocks = int(rng.integers(1, 4))
        s = r * blocks
        x = rng.standard_normal((n, s, s, c))
        back = pixel_shuffle(pixel_unshuffle(x, r), r)
        assert back.tobytes() == x.tobytes()


def test_unshuffle_shape_property_random():
    for n, s, c, r in random_grid_shapes(3, 60):
        out = pixel_unshuffle(np.zeros((n, s, s, c)), r)
        assert out.shape == (n, (s // r) ** 2, c * r * r)


def test_unshuffle_divisibility_errors():
    with pytest.raises(DimensionError):
        pixel_unshuffle(np.zeros((1, 5, 5, 3)), 2)
    with pytest.raises(DimensionError):
        pixel_shuffle(np.zeros((1, 4, 5)), 2)


def test_unshuffle_grid_validation_and_scan_order():
    with pytest.raises(DimensionError):
        pixel_unshuffle(np.zeros((2, 4, 3)), 1)
    with pytest.raises(DimensionError):
        pixel_unshuffle(np.zeros((2, 4, 5, 3)), 1)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 2, 2, 3))
    rows = pixel_unshuffle(x, 1)
    assert rows.shape == (2, 4, 3)
    for t in range(2):
        for i in range(2):
            for j in range(2):
                np.testing.assert_array_equal(rows[t, i * 2 + j],
                                              x[t, i, j, :])


# ---------------------------------------------------------------------------
# input filters


def test_lowpass_keeps_block_constant_images():
    rng = np.random.default_rng(6)
    coarse = rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8)
    px = np.repeat(np.repeat(coarse, 2, axis=0), 2, axis=1) / 255.0
    out = lowpass_pixels(px, 2)
    assert out.tobytes() == px.tobytes()


def test_highpass_zeroes_block_constant_images():
    rng = np.random.default_rng(7)
    coarse = rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8)
    px = np.repeat(np.repeat(coarse, 2, axis=0), 2, axis=1) / 255.0
    out = highpass_pixels(px, 2)
    np.testing.assert_array_equal(out, np.zeros_like(px))


def test_lowpass_zeroes_zero_mean_detail():
    # 2x2 pattern +a,-a / -a,+a rides on a flat base; lowpass sees base only
    base = np.full((8, 8, 1), 128, dtype=np.int64)
    pat = np.array([[40, -40], [-40, 40]])
    detail = np.tile(pat, (4, 4))[:, :, None]
    px = (base + detail) / 255.0
    out = lowpass_pixels(px, 2)
    np.testing.assert_array_equal(out, np.full((8, 8, 1), 128 / 255.0))


def test_filters_are_bit_identical_on_equal_block_sums():
    # same per-block multiset arranged differently: lowpass cannot tell
    a = np.array([[10, 250], [250, 10]], dtype=np.int64)
    b = np.array([[250, 10], [10, 250]], dtype=np.int64)
    pa = np.tile(a, (3, 3))[:, :, None] / 255.0
    pb = np.tile(b, (3, 3))[:, :, None] / 255.0
    assert lowpass_pixels(pa, 2).tobytes() == lowpass_pixels(pb, 2).tobytes()


def test_lowpass_plus_highpass_reconstructs():
    rng = np.random.default_rng(8)
    px = rng.integers(0, 256, size=(6, 6, 3)).astype(np.float64) / 255.0
    lp = lowpass_pixels(px, 3)
    hp = highpass_pixels(px, 3)
    np.testing.assert_allclose(lp + hp, px, rtol=0, atol=1e-15)


def test_filter_block_must_divide():
    px = np.zeros((5, 6, 3))
    with pytest.raises(DimensionError):
        lowpass_pixels(px, 2)


def test_apply_input_filter_none_is_same_object():
    px = np.zeros((4, 4, 3))
    assert filter_pixels(px, "none", 2) is px


# The filters and normalization as first written: a 6-D block sum with
# two np.repeat calls, and a per-channel broadcast. The shipped ones
# must equal them byte for byte.
def oracle_block_sums(ints, b):
    *lead, h, w, c = ints.shape
    s = ints.reshape(*lead, h // b, b, w // b, b, c).sum(axis=(-4, -2))
    return np.repeat(np.repeat(s, b, axis=-3), b, axis=-2)


def oracle_lowpass(px, b):
    return oracle_block_sums(np.rint(px * 255.0), b) / (b * b * 255.0)


def oracle_highpass(px, b):
    ints = np.rint(px * 255.0)
    return (ints * float(b * b) - oracle_block_sums(ints, b)) / (b * b * 255.0)


@pytest.mark.parametrize("block", [1, 2, 4])
@pytest.mark.parametrize("shape", [(8, 8, 3), (3, 16, 8, 3), (2, 2, 8, 4, 1)],
                         ids=["image", "stack", "nested"])
def test_filters_equal_block_sum_oracle_bytewise(block, shape):
    rng = np.random.default_rng(block * 100 + len(shape))
    for _ in range(5):
        px = rng.integers(0, 256, size=shape) / 255.0
        assert lowpass_pixels(px, block).tobytes() == \
            oracle_lowpass(px, block).tobytes()
        assert highpass_pixels(px, block).tobytes() == \
            oracle_highpass(px, block).tobytes()


# ---------------------------------------------------------------------------
# encoder forward


def encode(enc, tiles):
    return enc.encode(tiles, enc.patch_rows(tiles))


def test_encode_desk_shapes():
    tiles = gradient_tiles()
    enc_a = Encoder(desk_cfg_a(), "encoderA", seed=0)
    out_a = encode(enc_a, tiles)
    assert out_a.shape == (7, 8, 8, 8)
    enc_b = Encoder(desk_cfg_b(), "encoderB", seed=1)
    out_b = encode(enc_b, tiles)
    assert out_b.shape == (7, 16, 16, 8)
    assert pixel_unshuffle(out_a, 2).shape == (7, 16, 32)
    assert pixel_unshuffle(out_b, 4).shape == (7, 16, 128)


def test_encode_rejects_wrong_tile_size():
    tiles = gradient_tiles(tile=32)
    cfg = EncoderConfig(patch_size=4, embed_dim=8, depth=1, heads=2,
                        grid_side=16, unshuffle_r=2)  # wants 64px tiles
    with pytest.raises(DimensionError):
        encode(Encoder(cfg, "encoderA", seed=0), tiles)


def test_encode_is_deterministic():
    tiles = gradient_tiles()
    a = encode(Encoder(desk_cfg_a(), "encoderA", seed=3), tiles)
    b = encode(Encoder(desk_cfg_a(), "encoderA", seed=3), tiles)
    assert a.tobytes() == b.tobytes()
    c = encode(Encoder(desk_cfg_a(), "encoderA", seed=4), tiles)
    assert a.tobytes() != c.tobytes()


def test_encoder_parameter_names_unique_and_prefixed():
    enc = Encoder(desk_cfg_a(depth=2), "encoderB", seed=0)
    names = [p.name for p in enc.parameters()]
    assert len(names) == len(set(names))
    assert all(n.startswith("encoderB.") for n in names)
    assert "encoderB.block1.attn.wq" in names


def test_encoder_filter_changes_output():
    tiles = gradient_tiles()
    plain = encode(Encoder(desk_cfg_a(), "e", seed=0), tiles)
    low = encode(Encoder(desk_cfg_a(input_filter="lowpass"), "e", seed=0),
                 tiles)
    assert plain.tobytes() != low.tobytes()


def per_tile_patch_rows(enc, tiles):
    """The embedding input built tile by tile: filter_pixels and
    (x - 0.5) / 0.5 on each tile's pixels, then stack and patchify."""
    cfg = enc.cfg
    stack = np.stack([
        (filter_pixels(p.pixels, cfg.input_filter, cfg.filter_block) - 0.5)
        / 0.5
        for p in tiles.patches])
    n, gs, ps = stack.shape[0], cfg.grid_side, cfg.patch_size
    patched = stack.reshape(n, gs, ps, gs, ps, 3).transpose(0, 1, 3, 2, 4, 5)
    return patched.reshape(n, gs * gs, ps * ps * 3)


@pytest.mark.parametrize("kind", ["none", "lowpass", "highpass"])
def test_stacked_preprocessing_equals_per_tile_bitwise(kind):
    rng = np.random.default_rng(13)
    px = rng.integers(0, 256, size=(100, 160, 3)) / 255.0
    tiles = segment(ImageBuffer(px), 32, 6)
    assert len(tiles.tiles) > 1 and tiles.thumbnail is not None
    enc = Encoder(desk_cfg_a(input_filter=kind, filter_block=4), "e", seed=0)
    got = enc.patch_rows(tiles)
    want = per_tile_patch_rows(enc, tiles)
    assert got.shape == want.shape == (tiles.patch_count, 64, 48)
    assert got.tobytes() == want.tobytes()


def oracle_normalize(px, mean, std):
    out = px - np.asarray(mean, dtype=np.float64)
    out /= np.asarray(std, dtype=np.float64)
    return out


@pytest.mark.parametrize("shape", [(4, 8, 2), (2, 16, 4), (2, 4, 1),
                                   (3, 5, 1)])
def test_normalize_equals_per_channel_oracle_bytewise(shape):
    # patch_size, grid_side, unshuffle_r: patch_rows' (x - 0.5) / 0.5 is
    # the per-channel normalization with 0.5 in every channel, at every
    # tile side
    ps, gs, r = shape
    enc = Encoder(desk_cfg_a(patch_size=ps, grid_side=gs, unshuffle_r=r),
                  "e", seed=0)
    rng = np.random.default_rng(ps * gs)
    px = rng.integers(0, 256, size=(3 * ps * gs, 2 * ps * gs, 3)) / 255.0
    tiles = segment(ImageBuffer(px), enc.cfg.tile_side, 6)
    stack = oracle_normalize(np.stack([p.pixels for p in tiles.patches]),
                             (0.5,) * 3, (0.5,) * 3)
    n = stack.shape[0]
    want = stack.reshape(n, gs, ps, gs, ps, 3).transpose(0, 1, 3, 2, 4, 5)
    want = want.reshape(n, gs * gs, ps * ps * 3)
    assert n == 7  # a 2x3 grid and its thumbnail
    assert enc.patch_rows(tiles).tobytes() == want.tobytes()


def test_encode_rejects_non_rgb_tiles():
    four = TileSet(tiles=[ImageBuffer(np.zeros((32, 32, 4)))], grid=None,
                   thumbnail=None)
    with pytest.raises(DimensionError):
        encode(Encoder(desk_cfg_a(), "e", 0), four)
