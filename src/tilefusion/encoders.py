"""Two toy patch-embedding vision transformers and pixel-unshuffle.

Each branch is a small pre-norm ViT: non-overlapping patchify, linear
embed, learned positional embeddings, depth x the unmasked block shared
with the LM (transformer.py), final layernorm, reshaped to a
channels-last spatial token grid [n_tiles, side, side, d].
Pixel unshuffle then trades spatial extent for channels, cutting the
token count by r squared per branch, and returns the [n_tiles, tokens,
channels] rows the projectors read.

Every training stage freezes both encoders, so they are forward-only
array code: encode runs on the parameters' arrays (the block through
transformer.block_forward), keeps no backward, and returns an ndarray.
No gradient ever reaches an encoder parameter; the projectors read a
branch's rows as a constant array. encode(tiles, rows) takes its input
rows, patch_rows(tiles), from the caller, which computes them once
per input whether or not it also hashes them.

The encoders are frozen at their random init, never pretrained, so no
preprocessing statistics come with them: patch_rows maps every [0, 1]
pixel to [-1, 1], (x - 0.5) / 0.5, in every branch. A branch's tiles
are tile_side = patch_size x grid_side pixels on a side, and the
pipeline cuts its tiles at that side (PipelineConfig.tile_size).

A branch may declare an input filter that keeps only the coarse 8-bit
block structure (lowpass) or only the within-block detail (highpass).
Filters run on the integer pixel lattice with a single final division,
so two images with equal block sums produce bit-identical filtered
output; the synthetic-task oracles rely on that exactness. A block sum
adds the block's b x b strided sub-grids; sums of integers are exact
in any order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import ConfigError, DimensionError, reject
from .tiling import TileSet
from .transformer import block_forward, init_block, linear

INPUT_FILTERS = ("none", "lowpass", "highpass")
IN_CHANNELS = 3  # RGB tiles


@dataclass
class EncoderConfig:
    """One branch's architecture and preprocessing."""

    patch_size: int
    embed_dim: int
    depth: int
    heads: int
    grid_side: int
    unshuffle_r: int
    input_filter: str = "none"
    filter_block: int = 2

    def __post_init__(self):
        problems = [f"{key}: must be >= 1" for key in (
            "patch_size", "embed_dim", "depth", "heads", "grid_side",
            "unshuffle_r", "filter_block") if getattr(self, key) < 1]
        if self.heads >= 1 and self.embed_dim % self.heads != 0:
            problems.append(f"heads: {self.heads} does not divide "
                            f"embed_dim {self.embed_dim}")
        if (self.unshuffle_r >= 1
                and self.grid_side % self.unshuffle_r != 0):
            problems.append(f"unshuffle_r: {self.unshuffle_r} does not "
                            f"divide grid_side {self.grid_side}")
        if self.input_filter not in INPUT_FILTERS:
            problems.append(f"input_filter: must be one of "
                            f"{INPUT_FILTERS}, got {self.input_filter!r}")
        reject(problems)

    @property
    def tile_side(self) -> int:
        """Side of the square tiles this branch reads."""
        return self.grid_side * self.patch_size

    @property
    def tokens_per_tile(self) -> int:
        """Post-unshuffle token count per tile."""
        return (self.grid_side // self.unshuffle_r) ** 2


# ---------------------------------------------------------------------------
# input filters (exact 8-bit block arithmetic)


def _block_sums(ints: np.ndarray, b: int) -> np.ndarray:
    """b x b block sums of [..., H, W, C], repeated over each block."""
    *lead, h, w, c = ints.shape
    if h % b or w % b:
        raise DimensionError(f"filter block {b} does not divide image {h}x{w}")
    # v[..., i, :, j, :] is the sub-grid of offset (i, j) in every block;
    # the sums are of integers, so exact in any order
    v = ints.reshape(*lead, h // b, b, w // b, b, c)
    s = v[..., 0, :, 0, :].copy()
    for i in range(b):
        for j in range(b):
            if i or j:
                s += v[..., i, :, j, :]
    out = np.empty_like(v)
    out[...] = s[..., None, :, None, :]
    return out.reshape(ints.shape)


def lowpass_pixels(px: np.ndarray, block: int) -> np.ndarray:
    """Replace each pixel of [..., H, W, C] by its block mean, on the u8
    lattice."""
    ints = np.rint(px * 255.0)
    return _block_sums(ints, block) / (block * block * 255.0)


def highpass_pixels(px: np.ndarray, block: int) -> np.ndarray:
    """Keep only each pixel's deviation from its block mean, on the u8
    lattice; px is [..., H, W, C]."""
    ints = np.rint(px * 255.0)
    num = ints * float(block * block) - _block_sums(ints, block)
    return num / (block * block * 255.0)


def filter_pixels(px: np.ndarray, kind: str, block: int) -> np.ndarray:
    """The input filter kind on [..., H, W, C]; "none" returns px."""
    if kind == "none":
        return px
    if kind == "lowpass":
        return lowpass_pixels(px, block)
    if kind == "highpass":
        return highpass_pixels(px, block)
    raise ConfigError(f"unknown input filter {kind!r}")


# ---------------------------------------------------------------------------
# encoder


class Encoder:
    """A toy ViT branch. Parameters are named under the given prefix."""

    def __init__(self, cfg: EncoderConfig, prefix: str, seed: int):
        self.cfg = cfg
        self.prefix = prefix
        rng = np.random.default_rng(seed)
        d = cfg.embed_dim
        t = cfg.grid_side * cfg.grid_side
        P = tz.Parameter
        self.patch_w = linear(f"{prefix}.patch_embed.w", rng,
                              cfg.patch_size ** 2 * IN_CHANNELS, d)
        self.patch_b = P(f"{prefix}.patch_embed.b", np.zeros(d))
        self.pos = P(f"{prefix}.pos", rng.standard_normal((t, d)) * 0.02)
        self.blocks = [init_block(f"{prefix}.block{i}", d, rng)
                       for i in range(cfg.depth)]
        self.norm_out_g = P(f"{prefix}.norm_out.g", np.ones(d))
        self.norm_out_b = P(f"{prefix}.norm_out.b", np.zeros(d))

    def parameters(self) -> list[tz.Parameter]:
        out = [self.patch_w, self.patch_b, self.pos]
        for blk in self.blocks:
            out.extend(blk.values())
        out.extend([self.norm_out_g, self.norm_out_b])
        return out

    def patch_rows(self, tiles: TileSet) -> np.ndarray:
        """Raw [0,1] tiles -> filter -> (x - 0.5) / 0.5 -> [n, gs * gs,
        ps * ps * C] patch rows, the embedding's input.

        Filter and normalization run once on the stacked [n, H, W, C]
        patches; elementwise and exact-integer arithmetic, they equal
        filter_pixels and the same normalization run tile by tile.
        """
        cfg = self.cfg
        side = cfg.tile_side
        patches = tiles.patches
        for p in patches:
            if p.height != side or p.width != side:
                raise DimensionError(
                    f"encoder expects {side}x{side} tiles "
                    f"(grid_side {cfg.grid_side} x patch {cfg.patch_size}), "
                    f"got {p.height}x{p.width}"
                )
            if p.channels != IN_CHANNELS:
                raise DimensionError(
                    f"encoder expects {IN_CHANNELS} channels, got {p.channels}"
                )
        stack = np.stack([p.pixels for p in patches])  # [n, H, W, C]
        stack = filter_pixels(stack, cfg.input_filter, cfg.filter_block) - 0.5
        stack /= 0.5
        gs, ps = cfg.grid_side, cfg.patch_size
        patched = stack.reshape(len(patches), gs, ps, gs, ps, IN_CHANNELS)
        patched = patched.transpose(0, 1, 3, 2, 4, 5)
        return patched.reshape(len(patches), gs * gs, ps * ps * IN_CHANNELS)

    def encode(self, tiles: TileSet, rows: np.ndarray) -> np.ndarray:
        """ViT forward of rows, patch_rows(tiles), -> [n, gs, gs, d]
        token grid, channels last, on arrays.

        The caller computes rows, once per input (Pipeline.frozen_tokens
        hashes a filtered branch's rows for its view key, then encodes
        the same array); encode checks that their shape is that of
        tiles' patch rows and reads nothing else of tiles.
        """
        cfg = self.cfg
        n, gs, ps = tiles.patch_count, cfg.grid_side, cfg.patch_size
        want = (n, gs * gs, ps * ps * IN_CHANNELS)
        if rows.shape != want:
            raise DimensionError(
                f"encoder rows must be {want} for {n} tiles, "
                f"got {rows.shape}")
        x = rows @ self.patch_w.data + self.patch_b.data + self.pos.data
        for blk in self.blocks:
            x, _ = block_forward(x, blk, cfg.heads)
        x, _, _ = tz.layernorm_forward(x, self.norm_out_g.data,
                                       self.norm_out_b.data)
        return x.reshape(n, gs, gs, cfg.embed_dim)


# ---------------------------------------------------------------------------
# pixel unshuffle


def pixel_unshuffle(grid: np.ndarray, r: int) -> np.ndarray:
    """Fold r x r spatial neighborhoods of a [n, s, s, C] grid into
    channels: [n, (s/r)^2, C*r*r] rows, tokens in row-major scan.

    out[n, i*(s/r) + j, c*r*r + dr*r + dc] = in[n, i*r + dr, j*r + dc, c]
    """
    if grid.ndim != 4 or grid.shape[1] != grid.shape[2]:
        raise DimensionError(
            f"token grid must be [n_tiles, side, side, C], got {grid.shape}")
    n, s, _, c = grid.shape
    if r < 1 or s % r != 0:
        raise DimensionError(f"side {s} not divisible by unshuffle factor {r}")
    x = grid.reshape(n, s // r, r, s // r, r, c).transpose(0, 1, 3, 5, 2, 4)
    return x.reshape(n, (s // r) ** 2, c * r * r)
