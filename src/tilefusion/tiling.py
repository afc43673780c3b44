"""Adaptive tiling: split an image into square tiles plus a thumbnail.

An input of arbitrary resolution is matched to the tileable grid whose
aspect ratio is closest in log space, stretched to that grid with
bilinear resampling (half-pixel centers; an image already at the grid's
size is used as it is, which the resampling would only copy), and cut
row-major into tile_size x tile_size buffers. Multi-tile sets also
carry a full-image thumbnail, appended after the tiles, so downstream
consumers keep a global view. An ImageBuffer built from 8-bit data
(image_from_u8, which the data generators and the pixmap reader use)
stores those bytes; one built from floats (tiles, resized thumbnails)
stores float64. Either way its pixels read as a float64 HWC array, an
8-bit one mapped to [0, 1] by dividing by 255.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DimensionError


class TileGrid(NamedTuple):
    cols: int
    rows: int

    @property
    def n_tiles(self) -> int:
        return self.cols * self.rows


@dataclass(frozen=True, eq=False, init=False)
class ImageBuffer:
    """An HWC image whose pixels read as a read-only float64 array.

    It stores float64 pixels, or the uint8 bytes image_from_u8 built it
    from, an eighth of their size. For the bytes, each read of pixels
    returns a fresh u8 / 255.0, bitwise the array a float build of the
    same image stores, and nothing keeps it. The stored array is
    read-only from construction on (a view of another array is copied
    first, since its base could still be written), so content_key,
    computed on first use, cannot go stale. content_key is the image's
    identity: == and hash follow it, so an 8-bit image equals its
    float twin.
    """

    _data: np.ndarray

    def __init__(self, pixels: np.ndarray):
        self._store(np.asarray(pixels, dtype=np.float64))

    def _store(self, data: np.ndarray) -> None:
        if data.ndim != 3:
            raise DimensionError(
                f"image pixels must be H x W x C, got shape {data.shape}"
            )
        h, w, _ = data.shape
        if h < 1 or w < 1:
            raise DimensionError(f"image dims must be positive, got {h}x{w}")
        if data.base is not None:
            data = data.copy()
        data.flags.writeable = False
        object.__setattr__(self, "_data", data)

    @property
    def pixels(self) -> np.ndarray:
        if self._data.dtype != np.uint8:
            return self._data
        pixels = self._data.astype(np.float64) / 255.0
        pixels.flags.writeable = False
        return pixels

    @cached_property
    def content_key(self) -> tuple:
        """(shape, sha1 of the float64 pixel bytes): equal for equal
        images, however they are stored."""
        return (self._data.shape,
                hashlib.sha1(np.ascontiguousarray(self.pixels)).digest())

    def __eq__(self, other):
        if not isinstance(other, ImageBuffer):
            return NotImplemented
        return self.content_key == other.content_key

    def __hash__(self) -> int:
        return hash(self.content_key)

    @property
    def height(self) -> int:
        return self._data.shape[0]

    @property
    def width(self) -> int:
        return self._data.shape[1]

    @property
    def channels(self) -> int:
        return self._data.shape[2]


@dataclass
class TileSet:
    """Row-major tiles of one image, with an optional trailing thumbnail."""

    tiles: list[ImageBuffer]
    grid: TileGrid
    thumbnail: ImageBuffer | None

    @property
    def patches(self) -> list[ImageBuffer]:
        """Tiles in row-major order, thumbnail last when present."""
        if self.thumbnail is None:
            return list(self.tiles)
        return list(self.tiles) + [self.thumbnail]

    @property
    def patch_count(self) -> int:
        return len(self.tiles) + (1 if self.thumbnail is not None else 0)


def candidate_grids(max_tiles: int) -> list[TileGrid]:
    """All grids with cols*rows <= max_tiles, sorted by tile count then cols."""
    if max_tiles < 1:
        raise ContractError(f"max_tiles must be >= 1, got {max_tiles}")
    grids = [
        TileGrid(cols, rows)
        for cols in range(1, max_tiles + 1)
        for rows in range(1, max_tiles // cols + 1)
    ]
    grids.sort(key=lambda g: (g.n_tiles, g.cols))
    return grids


def select_grid(width: int, height: int, max_tiles: int) -> TileGrid:
    """Pick the candidate grid whose aspect ratio is closest in log space.

    When a grid matches the image ratio exactly, the smallest such grid
    wins (larger same-ratio grids only upsample). Inexact ties go to the
    grid with more tiles, then more columns.
    """
    if width < 1 or height < 1:
        raise DimensionError(f"image dims must be positive, got {width}x{height}")
    target = math.log(width / height)
    grids = candidate_grids(max_tiles)
    dist = [abs(target - math.log(g.cols / g.rows)) for g in grids]
    best = min(dist)
    pool = [g for g, d in zip(grids, dist) if d == best]
    if best == 0.0:
        return min(pool, key=lambda g: g.n_tiles)
    return max(pool, key=lambda g: (g.n_tiles, g.cols))


def resize_bilinear(img: ImageBuffer, out_w: int, out_h: int) -> ImageBuffer:
    """Bilinear resample with half-pixel-center sampling.

    A resize to the image's own size returns img itself: every sample
    then falls on a source pixel with zero weight on its neighbours, so
    the formula would only copy the pixels (bitwise, -0.0 aside), and
    an ImageBuffer is immutable.
    """
    if out_w < 1 or out_h < 1:
        raise DimensionError(f"resize target must be positive, got {out_w}x{out_h}")
    if (out_h, out_w) == (img.height, img.width):
        return img
    src = img.pixels
    h, w = img.height, img.width
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[None, :, None]
    top = src[np.ix_(y0, x0)] * (1.0 - fx) + src[np.ix_(y0, x1)] * fx
    bot = src[np.ix_(y1, x0)] * (1.0 - fx) + src[np.ix_(y1, x1)] * fx
    return ImageBuffer(top * (1.0 - fy) + bot * fy)


def patch_count(grid: TileGrid, thumbnail: bool) -> int:
    """Patches segment cuts on this grid: its tiles, plus a thumbnail
    when the flag is on and there is more than one tile (a single tile
    already is the whole image)."""
    return grid.n_tiles + int(thumbnail and grid.n_tiles > 1)


def segment(img: ImageBuffer, tile_size: int, max_tiles: int,
            thumbnail: bool = True) -> TileSet:
    """Resize to the selected grid and split into row-major square tiles,
    appending a full-image thumbnail where patch_count counts one."""
    if tile_size < 2:
        raise ContractError(f"tile_size must be >= 2, got {tile_size}")
    grid = select_grid(img.width, img.height, max_tiles)
    resized = resize_bilinear(img, grid.cols * tile_size,
                              grid.rows * tile_size).pixels
    tiles = [
        ImageBuffer(resized[r * tile_size:(r + 1) * tile_size,
                            c * tile_size:(c + 1) * tile_size].copy())
        for r in range(grid.rows)
        for c in range(grid.cols)
    ]
    thumb = None
    if patch_count(grid, thumbnail) > grid.n_tiles:
        thumb = resize_bilinear(img, tile_size, tile_size)
    return TileSet(tiles=tiles, grid=grid, thumbnail=thumb)


# ---------------------------------------------------------------------------
# 8-bit helpers and portable pixmap files


def image_from_u8(arr: np.ndarray) -> ImageBuffer:
    """uint8 HWC array to an image that stores a copy of its bytes and
    reads as [0, 1] floats, arr / 255.0."""
    arr = np.asarray(arr)
    if arr.dtype != np.uint8:
        raise ContractError(f"expected uint8 pixels, got {arr.dtype}")
    img = ImageBuffer.__new__(ImageBuffer)
    img._store(arr.copy())
    return img


def image_to_u8(img: ImageBuffer) -> np.ndarray:
    """Float image to uint8 by scale, round-half-even, clip."""
    return np.clip(np.round(img.pixels * 255.0), 0, 255).astype(np.uint8)


_PPM_HEADER = re.compile(rb"^P6\s+(?:#.*\s+)*(\d+)\s+(?:#.*\s+)*(\d+)\s+(?:#.*\s+)*(\d+)\s")


def write_ppm(path, img: ImageBuffer) -> None:
    """Write a binary P6 pixmap (8-bit, maxval 255)."""
    if img.channels != 3:
        raise ContractError(f"pixmaps are 3-channel, image has {img.channels}")
    data = image_to_u8(img)
    with open(path, "wb") as f:
        f.write(f"P6\n{img.width} {img.height}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def read_ppm(path) -> ImageBuffer:
    """Read a binary P6 pixmap into an 8-bit image (image_from_u8)."""
    with open(path, "rb") as f:
        blob = f.read()
    m = _PPM_HEADER.match(blob)
    if m is None:
        raise ContractError(f"not a binary P6 pixmap: {path}")
    w, h, maxval = (int(m.group(i)) for i in (1, 2, 3))
    if maxval != 255:
        raise ContractError(f"only maxval 255 pixmaps supported, got {maxval}")
    body = blob[m.end():]
    need = w * h * 3
    if len(body) < need:
        raise ContractError(f"pixmap truncated: {len(body)} of {need} bytes")
    arr = np.frombuffer(body[:need], dtype=np.uint8).reshape(h, w, 3)
    return image_from_u8(arr)
