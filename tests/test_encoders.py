"""Encoder and pixel-unshuffle tests.

The unshuffle index law is checked by hand-evaluated examples, by the
shape rule [n, c*r*r, s/r, s/r], by multiset preservation, and by the
pixel_shuffle inverse kept in tests/per_image_oracle.py. Encoder output
shapes follow config arithmetic; input filters are verified to be exact
on the 8-bit lattice. The encoders are frozen, forward-only array code:
their grids hold ndarrays, and tests/test_model.py pins that no
gradient reaches an encoder parameter.
"""

import numpy as np
import pytest

from tilefusion import tensor as tz
from tilefusion.encoders import (
    Encoder,
    EncoderConfig,
    TokenGrid,
    apply_input_filter,
    highpass_pixels,
    lowpass_pixels,
    pixel_unshuffle,
)
from tilefusion.errors import ConfigError, ContractError, DimensionError
from tilefusion.lm import LMConfig
from tilefusion.model import PipelineConfig
from tilefusion.tiling import ImageBuffer, TileSet, normalize, segment

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
                         lm=LMConfig(d_lm=16, layers=1, heads=2),
                         tile_size=a.tile_side)
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


def test_unshuffle_shape_law_example():
    g = TokenGrid(np.zeros((6, 3, 4, 4)))
    out = pixel_unshuffle(g, 2)
    assert out.data.shape == (6, 12, 2, 2)


def test_unshuffle_r1_is_identity():
    rng = np.random.default_rng(0)
    g = TokenGrid(rng.standard_normal((3, 5, 4, 4)))
    out = pixel_unshuffle(g, 1)
    assert out.data.tobytes() == g.data.tobytes()


def test_unshuffle_hand_case():
    vals = np.array([[11.0, 22.0], [33.0, 44.0]]).reshape(1, 1, 2, 2)
    out = pixel_unshuffle(TokenGrid(vals), 2)
    assert out.data.shape == (1, 4, 1, 1)
    np.testing.assert_array_equal(out.data[0, :, 0, 0],
                                  [11.0, 22.0, 33.0, 44.0])


def test_unshuffle_index_formula():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 6, 6))
    out = pixel_unshuffle(TokenGrid(x), 3).data
    for n in range(2):
        for c in range(3):
            for dr in range(3):
                for dc in range(3):
                    for i in range(2):
                        for j in range(2):
                            assert (out[n, c * 9 + dr * 3 + dc, i, j]
                                    == x[n, c, i * 3 + dr, j * 3 + dc])


def test_unshuffle_preserves_multiset():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 2, 8, 8))
    out = pixel_unshuffle(TokenGrid(x), 4).data
    np.testing.assert_array_equal(np.sort(out.ravel()), np.sort(x.ravel()))


def test_shuffle_shape_law():
    g = TokenGrid(np.zeros((1, 12, 2, 2)))
    assert pixel_shuffle(g, 2).data.shape == (1, 3, 4, 4)


def test_shuffle_inverts_unshuffle_100_seeds():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        r = int(rng.choice([1, 2, 4]))
        n = int(rng.integers(1, 4))
        c = int(rng.integers(1, 5))
        blocks = int(rng.integers(1, 4))
        s = r * blocks
        x = rng.standard_normal((n, c, s, s))
        back = pixel_shuffle(pixel_unshuffle(TokenGrid(x), r), r)
        assert back.data.tobytes() == x.tobytes()


def test_unshuffle_shape_property_random():
    rng = np.random.default_rng(3)
    for _ in range(60):
        r = int(rng.choice([1, 2, 3, 4]))
        n = int(rng.integers(1, 5))
        c = int(rng.integers(1, 6))
        s = r * int(rng.integers(1, 5))
        out = pixel_unshuffle(TokenGrid(np.zeros((n, c, s, s))), r)
        assert out.data.shape == (n, c * r * r, s // r, s // r)


def test_unshuffle_divisibility_errors():
    g = TokenGrid(np.zeros((1, 3, 5, 5)))
    with pytest.raises(DimensionError):
        pixel_unshuffle(g, 2)
    h = TokenGrid(np.zeros((1, 5, 2, 2)))
    with pytest.raises(DimensionError):
        pixel_shuffle(h, 2)


def test_token_grid_validation_and_flatten_order():
    with pytest.raises(DimensionError):
        TokenGrid(np.zeros((2, 3, 4)))
    with pytest.raises(DimensionError):
        TokenGrid(np.zeros((2, 3, 4, 5)))
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 2, 2))
    flat = TokenGrid(x).flatten_tokens()
    assert flat.shape == (8, 3)
    for t in range(2):
        for i in range(2):
            for j in range(2):
                np.testing.assert_array_equal(flat[t * 4 + i * 2 + j],
                                              x[t, :, i, j])


def test_token_grid_rejects_data_that_is_not_an_array():
    with pytest.raises(ContractError):
        TokenGrid(tz.Tensor(np.zeros((2, 3, 4, 4))))
    with pytest.raises(ContractError):
        TokenGrid(np.zeros((2, 3, 4, 4)).tolist())


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
    buf = ImageBuffer(np.zeros((4, 4, 3)))
    assert apply_input_filter(buf, "none", 2) is buf


# ---------------------------------------------------------------------------
# encoder forward


def test_encode_desk_shapes():
    tiles = gradient_tiles()
    enc_a = Encoder(desk_cfg_a(), "encoderA", seed=0)
    out_a = enc_a.encode(tiles)
    assert out_a.data.shape == (7, 8, 8, 8)
    enc_b = Encoder(desk_cfg_b(), "encoderB", seed=1)
    out_b = enc_b.encode(tiles)
    assert out_b.data.shape == (7, 8, 16, 16)
    assert pixel_unshuffle(out_a, 2).data.shape == (7, 32, 4, 4)
    assert pixel_unshuffle(out_b, 4).data.shape == (7, 128, 4, 4)


def test_encode_rejects_wrong_tile_size():
    tiles = gradient_tiles(tile=32)
    cfg = EncoderConfig(patch_size=4, embed_dim=8, depth=1, heads=2,
                        grid_side=16, unshuffle_r=2)  # wants 64px tiles
    with pytest.raises(DimensionError):
        Encoder(cfg, "encoderA", seed=0).encode(tiles)


def test_encode_is_deterministic():
    tiles = gradient_tiles()
    a = Encoder(desk_cfg_a(), "encoderA", seed=3).encode(tiles)
    b = Encoder(desk_cfg_a(), "encoderA", seed=3).encode(tiles)
    assert a.data.tobytes() == b.data.tobytes()
    c = Encoder(desk_cfg_a(), "encoderA", seed=4).encode(tiles)
    assert a.data.tobytes() != c.data.tobytes()


def test_encoder_parameter_names_unique_and_prefixed():
    enc = Encoder(desk_cfg_a(depth=2), "encoderB", seed=0)
    names = [p.name for p in enc.parameters()]
    assert len(names) == len(set(names))
    assert all(n.startswith("encoderB.") for n in names)
    assert "encoderB.block1.attn.wq" in names


def test_encoder_filter_changes_output():
    tiles = gradient_tiles()
    plain = Encoder(desk_cfg_a(), "e", seed=0).encode(tiles)
    low = Encoder(desk_cfg_a(input_filter="lowpass"), "e", seed=0).encode(tiles)
    assert plain.data.tobytes() != low.data.tobytes()


def per_tile_patch_rows(enc, tiles):
    """The embedding input built tile by tile: apply_input_filter and
    tiling.normalize on each ImageBuffer, then stack and patchify."""
    cfg = enc.cfg
    filtered = TileSet(
        tiles=[apply_input_filter(t, cfg.input_filter, cfg.filter_block)
               for t in tiles.tiles],
        grid=tiles.grid,
        thumbnail=apply_input_filter(tiles.thumbnail, cfg.input_filter,
                                     cfg.filter_block),
        source_dims=tiles.source_dims,
    )
    ready = normalize(filtered, cfg.norm_mean, cfg.norm_std)
    stack = np.stack([p.pixels for p in ready.patches])
    n, gs, ps = stack.shape[0], cfg.grid_side, cfg.patch_size
    patched = stack.reshape(n, gs, ps, gs, ps, 3).transpose(0, 1, 3, 2, 4, 5)
    return patched.reshape(n, gs * gs, ps * ps * 3)


@pytest.mark.parametrize("kind", ["none", "lowpass", "highpass"])
def test_stacked_preprocessing_equals_per_tile_bitwise(kind):
    rng = np.random.default_rng(13)
    px = rng.integers(0, 256, size=(100, 160, 3)) / 255.0
    tiles = segment(ImageBuffer(px), 32, 6)
    assert len(tiles.tiles) > 1 and tiles.thumbnail is not None
    enc = Encoder(desk_cfg_a(input_filter=kind, filter_block=4,
                             norm_mean=(0.4, 0.5, 0.6),
                             norm_std=(0.2, 0.3, 0.7)), "e", seed=0)
    got = enc.patch_rows(tiles)
    want = per_tile_patch_rows(enc, tiles)
    assert got.shape == want.shape == (tiles.patch_count, 64, 48)
    assert got.tobytes() == want.tobytes()


def test_encode_rejects_bad_normalize_stats():
    tiles = gradient_tiles()
    with pytest.raises(ContractError):
        Encoder(desk_cfg_a(norm_std=(0.5, 0.0, 0.5)), "e", 0).encode(tiles)
    with pytest.raises(DimensionError):
        Encoder(desk_cfg_a(norm_mean=(0.5, 0.5)), "e", 0).encode(tiles)
    four = TileSet(tiles=[ImageBuffer(np.zeros((32, 32, 4)))], grid=None,
                   thumbnail=None)
    with pytest.raises(DimensionError):
        Encoder(desk_cfg_a(), "e", 0).encode(four)
