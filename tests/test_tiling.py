"""Tiler tests.

Grid selection is checked against a brute-force enumeration oracle and a
table of hand-frozen cases; segmentation is checked by bit-exact
reassembly of the resized image; pixmap files round-trip byte-identical.
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from tilefusion.encoders import Encoder, EncoderConfig
from tilefusion.errors import ContractError, DimensionError
from tilefusion.tiling import (
    ImageBuffer,
    TileGrid,
    candidate_grids,
    image_from_u8,
    image_to_u8,
    read_ppm,
    resize_bilinear,
    segment,
    select_grid,
    write_ppm,
)


def brute_force_grid_set(max_tiles):
    return {
        (c, r)
        for c in range(1, max_tiles + 1)
        for r in range(1, max_tiles + 1)
        if c * r <= max_tiles
    }


def gradient_image(h, w):
    """Cheap deterministic test image: horizontal ramp, 3 channels."""
    col = np.linspace(0.0, 1.0, w)
    px = np.broadcast_to(col[None, :, None], (h, w, 3)).copy()
    px[:, :, 1] = np.linspace(0.0, 1.0, h)[:, None]
    return ImageBuffer(px)


# ---------------------------------------------------------------------------
# candidate grids


def test_candidate_grids_single():
    assert candidate_grids(1) == [TileGrid(1, 1)]


def test_candidate_grids_six_matches_brute_force():
    got = candidate_grids(6)
    assert {tuple(g) for g in got} == brute_force_grid_set(6)
    assert len(got) == 14
    for pair in [(3, 2), (2, 3), (6, 1), (1, 6), (2, 2), (1, 1)]:
        assert TileGrid(*pair) in got


def test_candidate_grids_order_and_bound():
    for m in range(1, 12):
        got = candidate_grids(m)
        assert got == sorted(got, key=lambda g: (g.n_tiles, g.cols))
        assert len(got) == len(set(got))
        assert all(g.n_tiles <= m for g in got)
        assert {tuple(g) for g in got} == brute_force_grid_set(m)


def test_candidate_grids_rejects_nonpositive():
    with pytest.raises(ContractError):
        candidate_grids(0)


# ---------------------------------------------------------------------------
# grid selection


def test_select_grid_frozen_cases():
    cases = [
        ((2048, 1280, 6), (3, 2)),
        ((448, 448, 6), (1, 1)),
        ((896, 448, 6), (2, 1)),
        ((1280, 2048, 6), (2, 3)),
        ((100, 900, 6), (1, 6)),
        ((900, 100, 6), (6, 1)),
        ((448, 448, 1), (1, 1)),
        ((1000, 660, 6), (3, 2)),
    ]
    for (w, h, m), want in cases:
        assert select_grid(w, h, m) == TileGrid(*want), (w, h, m)


def test_select_grid_achieves_minimum_distance():
    rng = np.random.default_rng(7)
    for _ in range(200):
        w = int(rng.integers(1, 3000))
        h = int(rng.integers(1, 3000))
        m = int(rng.integers(1, 9))
        g = select_grid(w, h, m)
        target = math.log(w / h)
        dists = [
            abs(target - math.log(c / r))
            for (c, r) in brute_force_grid_set(m)
        ]
        assert abs(target - math.log(g.cols / g.rows)) == min(dists)
        assert g.n_tiles <= m


def test_select_grid_transposition_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(100):
        w = int(rng.integers(1, 4000))
        h = int(rng.integers(1, 4000))
        g = select_grid(h, w, 6)
        assert select_grid(w, h, 6) == TileGrid(g.rows, g.cols)


def test_select_grid_exact_ratio_prefers_smallest():
    # ratio 1 matches both (1,1) and (2,2); the single tile wins
    assert select_grid(300, 300, 6) == TileGrid(1, 1)
    # ratio 2 at max 8 matches (2,1) and (4,2)
    assert select_grid(1000, 500, 8) == TileGrid(2, 1)


def test_select_grid_rejects_bad_dims():
    with pytest.raises(DimensionError):
        select_grid(0, 5, 6)


# ---------------------------------------------------------------------------
# resize


def test_resize_identity_bit_exact():
    rng = np.random.default_rng(9)
    img = ImageBuffer(rng.random((13, 17, 3)))
    out = resize_bilinear(img, 17, 13)
    assert out.pixels.tobytes() == img.pixels.tobytes()


def test_resize_constant_stays_constant():
    img = ImageBuffer(np.full((5, 9, 3), 0.375))
    out = resize_bilinear(img, 23, 4)
    np.testing.assert_array_equal(out.pixels, np.full((4, 23, 3), 0.375))


def test_resize_checkerboard_average():
    px = np.zeros((2, 2, 1))
    px[0, 1, 0] = 1.0
    px[1, 0, 0] = 1.0
    out = resize_bilinear(ImageBuffer(px), 1, 1)
    assert out.pixels.shape == (1, 1, 1)
    assert out.pixels[0, 0, 0] == 0.5


def test_resize_shapes_and_errors():
    img = gradient_image(6, 8)
    assert resize_bilinear(img, 3, 11).pixels.shape == (11, 3, 3)
    with pytest.raises(DimensionError):
        resize_bilinear(img, 0, 4)


# ---------------------------------------------------------------------------
# segmentation


def test_segment_landscape_seven_patches():
    img = gradient_image(1280, 2048)
    ts = segment(img, 448, 6, thumbnail=True)
    assert ts.grid == TileGrid(3, 2)
    assert len(ts.tiles) == 6
    assert ts.thumbnail is not None
    assert ts.patch_count == 7
    for t in ts.tiles + [ts.thumbnail]:
        assert t.pixels.shape == (448, 448, 3)


def test_segment_two_images_fourteen_patches():
    a = segment(gradient_image(1280, 2048), 448, 6)
    b = segment(gradient_image(1280, 2048), 448, 6)
    assert a.patch_count + b.patch_count == 14


def test_segment_square_single_tile_no_thumbnail():
    ts = segment(gradient_image(448, 448), 448, 6, thumbnail=True)
    assert ts.grid == TileGrid(1, 1)
    assert len(ts.tiles) == 1
    assert ts.thumbnail is None
    assert ts.patch_count == 1


def test_segment_thumbnail_flag_off():
    ts = segment(gradient_image(100, 160), 32, 6, thumbnail=False)
    assert ts.grid == TileGrid(3, 2)
    assert ts.thumbnail is None
    assert ts.patch_count == 6


def test_segment_reassembly_bit_exact():
    img = gradient_image(100, 160)
    ts = segment(img, 32, 6)
    resized = resize_bilinear(img, ts.grid.cols * 32, ts.grid.rows * 32)
    rows = []
    for r in range(ts.grid.rows):
        row = [ts.tiles[r * ts.grid.cols + c].pixels
               for c in range(ts.grid.cols)]
        rows.append(np.concatenate(row, axis=1))
    rebuilt = np.concatenate(rows, axis=0)
    assert rebuilt.tobytes() == resized.pixels.tobytes()


def test_segment_patches_order_thumbnail_last():
    ts = segment(gradient_image(100, 160), 32, 6)
    patches = ts.patches
    assert len(patches) == 7
    assert patches[-1] is ts.thumbnail
    assert patches[:6] == ts.tiles


def test_segment_deterministic():
    a = segment(gradient_image(90, 200), 32, 6)
    b = segment(gradient_image(90, 200), 32, 6)
    assert a.grid == b.grid
    for ta, tb in zip(a.patches, b.patches):
        assert ta.pixels.tobytes() == tb.pixels.tobytes()


def test_segment_rejects_tiny_tile():
    with pytest.raises(ContractError):
        segment(gradient_image(8, 8), 1, 6)


def test_segment_tile_count_never_exceeds_max():
    rng = np.random.default_rng(10)
    for _ in range(20):
        h = int(rng.integers(8, 300))
        w = int(rng.integers(8, 300))
        m = int(rng.integers(1, 9))
        ts = segment(gradient_image(h, w), 8, m)
        assert len(ts.tiles) <= m


# ---------------------------------------------------------------------------
# normalization: Encoder.patch_rows maps segment's [0, 1] tiles to
# [-1, 1], (x - 0.5) / 0.5


def normalized_rows(img):
    enc = Encoder(EncoderConfig(patch_size=4, embed_dim=8, depth=1, heads=2,
                                grid_side=8, unshuffle_r=2), "e", seed=0)
    return enc.patch_rows(segment(img, 32, 6))


def test_normalize_constant_at_mean_is_zero():
    rows = normalized_rows(ImageBuffer(np.full((32, 96, 3), 0.5)))
    np.testing.assert_array_equal(rows, np.zeros_like(rows))


def test_normalize_arithmetic():
    rows = normalized_rows(ImageBuffer(np.full((32, 96, 3), 1.0)))
    np.testing.assert_array_equal(rows, np.ones_like(rows))


# ---------------------------------------------------------------------------
# pixmap files


def test_ppm_roundtrip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(11)
    arr = rng.integers(0, 256, size=(21, 13, 3), dtype=np.uint8)
    p1 = tmp_path / "a.ppm"
    p2 = tmp_path / "b.ppm"
    write_ppm(p1, image_from_u8(arr))
    img = read_ppm(p1)
    np.testing.assert_array_equal(image_to_u8(img), arr)
    assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0
    write_ppm(p2, img)
    assert p1.read_bytes() == p2.read_bytes()


def test_ppm_reads_header_comments(tmp_path):
    arr = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6\n# made by hand\n2 2\n255\n" + arr.tobytes())
    img = read_ppm(p)
    np.testing.assert_array_equal(image_to_u8(img), arr)


def test_ppm_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
    with pytest.raises(ContractError):
        read_ppm(p)
    p.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
    with pytest.raises(ContractError):
        read_ppm(p)
    p.write_bytes(b"P6\n4 4\n255\n" + bytes(5))
    with pytest.raises(ContractError):
        read_ppm(p)


def test_image_from_u8_requires_u8():
    with pytest.raises(ContractError):
        image_from_u8(np.zeros((2, 2, 3), dtype=np.float32))


def test_image_buffer_validation():
    with pytest.raises(DimensionError):
        ImageBuffer(np.zeros((4, 4)))
    with pytest.raises(DimensionError):
        ImageBuffer(np.zeros((0, 4, 3)))


def test_image_buffer_pixels_cannot_change_under_its_key():
    pixels = np.random.default_rng(9).random((4, 6, 3))
    img = ImageBuffer(pixels)
    key = img.content_key
    with pytest.raises(ValueError):
        img.pixels[0, 0, 0] = 0.5
    with pytest.raises(ValueError):
        pixels[0, 0, 0] = 0.5  # the array handed in is the buffer's own
    with pytest.raises(dataclasses.FrozenInstanceError):
        img.pixels = np.zeros((4, 6, 3))
    # a view is copied: writes through its base do not reach the buffer
    base = np.zeros((4, 8, 3))
    view = ImageBuffer(base[:, :6])
    view_key = view.content_key
    base[...] = 1.0
    assert not view.pixels.any() and view.content_key == view_key
    assert img.content_key == key
    assert ImageBuffer(pixels.copy()).content_key == key
    assert ImageBuffer(pixels[:, ::-1]).content_key != key


U8_SHAPES = [(1, 1, 3), (5, 3, 3), (32, 96, 3), (64, 64, 3), (7, 9, 1)]


@pytest.mark.parametrize("shape", U8_SHAPES)
def test_u8_image_reads_as_its_float_twin_bitwise(shape):
    rng = np.random.default_rng(sum(shape))
    arr = rng.integers(0, 256, shape, dtype=np.uint8)
    twin = arr.astype(np.float64) / 255.0
    img = image_from_u8(arr)
    px = img.pixels
    assert px.dtype == np.float64 and px.tobytes() == twin.tobytes()
    with pytest.raises(ValueError):
        px[0, 0, 0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        img.pixels = twin
    float_img = ImageBuffer(twin.copy())
    assert img.content_key == float_img.content_key
    key = img.content_key
    arr[...] = 255 - arr  # the caller's array stays writable and apart
    assert img.pixels.tobytes() == twin.tobytes()
    assert img.content_key == key
    assert image_from_u8(arr).content_key != key


@pytest.mark.parametrize("shape", [(32, 96, 3), (20, 50, 3), (64, 64, 3),
                                   (16, 16, 3)])
@pytest.mark.parametrize("thumbnail", [True, False])
def test_segment_of_u8_image_equals_float_twin(shape, thumbnail):
    arr = np.random.default_rng(shape[1]).integers(0, 256, shape,
                                                   dtype=np.uint8)
    a = segment(image_from_u8(arr), 16, 6, thumbnail=thumbnail)
    b = segment(ImageBuffer(arr.astype(np.float64) / 255.0), 16, 6,
                thumbnail=thumbnail)
    assert a.grid == b.grid and a.patch_count == b.patch_count
    for pa, pb in zip(a.patches, b.patches, strict=True):
        assert pa.pixels.tobytes() == pb.pixels.tobytes()


def test_image_equality_and_hash_follow_content_key():
    arr = np.random.default_rng(4).integers(0, 256, (4, 6, 3),
                                            dtype=np.uint8)
    u8 = image_from_u8(arr)
    twin = ImageBuffer(arr.astype(np.float64) / 255.0)
    other = ImageBuffer(np.zeros((4, 6, 3)))
    assert u8 == twin and hash(u8) == hash(twin)
    assert u8 != other and twin != other
    assert ImageBuffer(np.zeros((6, 4, 3))) != other  # same bytes, new shape
    assert len({u8, twin, other}) == 2
    assert u8 != "image"


def stored_bytes(img):
    """Bytes of the array that owns an image's store."""
    owner = img._data
    while owner.base is not None:
        owner = owner.base
    return owner.nbytes


def gray_u8(shape, seed):
    """A random gray uint8 plane broadcast to shape's channels."""
    plane = np.random.default_rng(seed).integers(0, 256, shape[:2] + (1,),
                                                 dtype=np.uint8)
    return np.broadcast_to(plane, shape)


@pytest.mark.parametrize("shape", [s for s in U8_SHAPES if s[2] == 3])
def test_one_plane_image_equals_its_three_plane_build_bitwise(shape,
                                                             tmp_path):
    gray = gray_u8(shape, sum(shape))
    one = image_from_u8(gray)
    full = image_from_u8(np.ascontiguousarray(gray))
    assert one._data.strides[2] == 0 and full._data.strides[2] != 0
    assert one._data.shape == full._data.shape == shape
    assert (one.height, one.width, one.channels) == shape
    px = one.pixels
    assert px.dtype == np.float64 and px.shape == shape
    assert px.tobytes() == full.pixels.tobytes()
    with pytest.raises(ValueError):
        px[0, 0, 0] = 0.5
    assert one.content_key == full.content_key
    assert one == full and hash(one) == hash(full)
    assert image_to_u8(one).tobytes() == image_to_u8(full).tobytes()
    write_ppm(tmp_path / "one.ppm", one)
    write_ppm(tmp_path / "full.ppm", full)
    assert (tmp_path / "one.ppm").read_bytes() == \
        (tmp_path / "full.ppm").read_bytes()


def test_broadcast_input_is_copied_apart_from_its_base():
    plane = np.random.default_rng(3).integers(0, 256, (4, 6, 1),
                                              dtype=np.uint8)
    img = image_from_u8(np.broadcast_to(plane, (4, 6, 3)))
    before, key = img.pixels.tobytes(), img.content_key
    plane[...] = 255 - plane  # the caller's plane stays writable and apart
    assert img.pixels.tobytes() == before and img.content_key == key
    assert img._data.base is not None and not img._data.base.flags.writeable


@pytest.mark.parametrize("build, planes", [
    (lambda: image_from_u8(np.random.default_rng(6).integers(
        0, 256, (5, 7, 3), dtype=np.uint8)), 3),
    (lambda: image_from_u8(gray_u8((5, 7, 3), 6)), 1),
    (lambda: ImageBuffer(np.random.default_rng(6).random((5, 7, 3))), 3),
], ids=["u8", "one-plane", "float"])
def test_pickled_image_is_rebuilt_read_only_with_a_fresh_key(build, planes):
    img = build()
    key = img.content_key
    copy = pickle.loads(pickle.dumps(img))
    assert "content_key" not in vars(copy)  # computed afresh on use
    assert copy._data.dtype == img._data.dtype
    assert stored_bytes(copy) == 5 * 7 * planes * copy._data.itemsize
    with pytest.raises(ValueError):
        copy._data[0, 0, 0] = 1
    assert copy.pixels.tobytes() == img.pixels.tobytes()
    assert copy.content_key == key and copy == img


def half_pixel_bilinear(px, out_w, out_h):
    """The resampling formula written out pixel by pixel."""
    h, w, _ = px.shape
    out = np.empty((out_h, out_w, px.shape[2]))
    for i in range(out_h):
        y = min(max((i + 0.5) * (h / out_h) - 0.5, 0.0), h - 1.0)
        y0 = math.floor(y)
        y1, fy = min(y0 + 1, h - 1), y - y0
        for j in range(out_w):
            x = min(max((j + 0.5) * (w / out_w) - 0.5, 0.0), w - 1.0)
            x0 = math.floor(x)
            x1, fx = min(x0 + 1, w - 1), x - x0
            top = px[y0, x0] * (1.0 - fx) + px[y0, x1] * fx
            bot = px[y1, x0] * (1.0 - fx) + px[y1, x1] * fx
            out[i, j] = top * (1.0 - fy) + bot * fy
    return out


@pytest.mark.parametrize("h, w", [(32, 32), (32, 96), (5, 3), (1, 1)])
def test_resize_to_own_size_equals_the_formula(h, w):
    rng = np.random.default_rng(h * 100 + w)
    px = rng.random((h, w, 3))
    px[0, 0] = (0.0, 1.0, 0.5)
    img = ImageBuffer(px)
    out = resize_bilinear(img, w, h)
    assert out is img
    assert out.pixels.tobytes() == half_pixel_bilinear(px, w, h).tobytes()
    stretched = resize_bilinear(img, w + 2, h + 1)
    assert stretched.pixels.tobytes() == \
        half_pixel_bilinear(px, w + 2, h + 1).tobytes()
