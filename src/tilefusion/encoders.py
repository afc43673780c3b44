"""Two toy patch-embedding vision transformers and pixel-unshuffle.

Each branch is a small pre-norm ViT: non-overlapping patchify, linear
embed, learned positional embeddings, depth x the unmasked block shared
with the LM (transformer.py), final layernorm, reshaped to a
channels-first spatial token grid.
Pixel unshuffle then trades spatial extent for channels, cutting the
token count by r squared per branch before projection.

A branch may declare an input filter that keeps only the coarse 8-bit
block structure (lowpass) or only the within-block detail (highpass).
Filters run on the integer pixel lattice with a single final division,
so two images with equal block sums produce bit-identical filtered
output; the synthetic-task oracles rely on that exactness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import ConfigError, DimensionError
from .tiling import ImageBuffer, TileSet, normalize
from .transformer import init_block, linear, run_block

INPUT_FILTERS = ("none", "lowpass", "highpass")


@dataclass
class EncoderConfig:
    """One branch's architecture and preprocessing."""

    patch_size: int
    embed_dim: int
    depth: int
    heads: int
    grid_side: int
    unshuffle_r: int
    norm_mean: tuple = (0.5, 0.5, 0.5)
    norm_std: tuple = (0.5, 0.5, 0.5)
    frozen: bool = False
    input_filter: str = "none"
    filter_block: int = 2

    def __post_init__(self):
        if min(self.patch_size, self.embed_dim, self.depth, self.heads,
               self.grid_side, self.unshuffle_r) < 1:
            raise ConfigError("encoder dims must all be positive")
        if self.embed_dim % self.heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}"
            )
        if self.grid_side % self.unshuffle_r != 0:
            raise ConfigError(
                f"grid_side {self.grid_side} not divisible by "
                f"unshuffle factor {self.unshuffle_r}"
            )
        if self.input_filter not in INPUT_FILTERS:
            raise ConfigError(
                f"input_filter must be one of {INPUT_FILTERS}, "
                f"got {self.input_filter!r}"
            )
        if self.filter_block < 1:
            raise ConfigError(f"filter_block must be >= 1, got {self.filter_block}")

    @property
    def tile_side(self) -> int:
        return self.grid_side * self.patch_size

    @property
    def tokens_per_tile(self) -> int:
        """Post-unshuffle token count per tile."""
        return (self.grid_side // self.unshuffle_r) ** 2


@dataclass
class TokenGrid:
    """Per-tile spatial features, channels first: [n_tiles, C, side, side]."""

    data: tz.Tensor

    def __post_init__(self):
        s = self.data.shape
        if len(s) != 4 or s[2] != s[3]:
            raise DimensionError(
                f"token grid must be [n_tiles, C, side, side], got {s}"
            )

    @property
    def n_tiles(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[1]

    @property
    def side(self) -> int:
        return self.data.shape[2]

    def flatten_tokens(self) -> tz.Tensor:
        """[n_tiles * side * side, C]: tile order, then row-major scan."""
        n, c, s, _ = self.data.shape
        moved = tz.permute(self.data, (0, 2, 3, 1))
        return tz.reshape(moved, (n * s * s, c))


# ---------------------------------------------------------------------------
# input filters (exact 8-bit block arithmetic)


def _block_sums(ints: np.ndarray, b: int) -> np.ndarray:
    h, w, c = ints.shape
    if h % b or w % b:
        raise DimensionError(f"filter block {b} does not divide image {h}x{w}")
    s = ints.reshape(h // b, b, w // b, b, c).sum(axis=(1, 3))
    return np.repeat(np.repeat(s, b, axis=0), b, axis=1)


def lowpass_pixels(px: np.ndarray, block: int) -> np.ndarray:
    """Replace each pixel by its block mean, on the u8 lattice."""
    ints = np.rint(px * 255.0)
    return _block_sums(ints, block) / (block * block * 255.0)


def highpass_pixels(px: np.ndarray, block: int) -> np.ndarray:
    """Keep only the deviation from the block mean, on the u8 lattice."""
    ints = np.rint(px * 255.0)
    num = ints * float(block * block) - _block_sums(ints, block)
    return num / (block * block * 255.0)


def apply_input_filter(buf: ImageBuffer, kind: str, block: int) -> ImageBuffer:
    if kind == "none":
        return buf
    if kind == "lowpass":
        return ImageBuffer(lowpass_pixels(buf.pixels, block))
    if kind == "highpass":
        return ImageBuffer(highpass_pixels(buf.pixels, block))
    raise ConfigError(f"unknown input filter {kind!r}")


# ---------------------------------------------------------------------------
# encoder


class Encoder:
    """A toy ViT branch. Parameters are named under the given prefix."""

    def __init__(self, cfg: EncoderConfig, prefix: str, seed: int,
                 in_channels: int = 3):
        self.cfg = cfg
        self.prefix = prefix
        self.in_channels = in_channels
        rng = np.random.default_rng(seed)
        d = cfg.embed_dim
        t = cfg.grid_side * cfg.grid_side
        P = tz.Parameter
        self.patch_w = linear(f"{prefix}.patch_embed.w", rng,
                              cfg.patch_size ** 2 * in_channels, d)
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

    def encode(self, tiles: TileSet) -> TokenGrid:
        """Raw [0,1] tiles -> filter -> normalize -> ViT -> token grid."""
        cfg = self.cfg
        side = cfg.tile_side
        for p in tiles.patches:
            if p.height != side or p.width != side:
                raise DimensionError(
                    f"encoder expects {side}x{side} tiles "
                    f"(grid_side {cfg.grid_side} x patch {cfg.patch_size}), "
                    f"got {p.height}x{p.width}"
                )
            if p.channels != self.in_channels:
                raise DimensionError(
                    f"encoder expects {self.in_channels} channels, got {p.channels}"
                )
        filtered = TileSet(
            tiles=[apply_input_filter(t, cfg.input_filter, cfg.filter_block)
                   for t in tiles.tiles],
            grid=tiles.grid,
            thumbnail=None if tiles.thumbnail is None else apply_input_filter(
                tiles.thumbnail, cfg.input_filter, cfg.filter_block),
            source_dims=tiles.source_dims,
        )
        ready = normalize(filtered, cfg.norm_mean, cfg.norm_std)
        stack = np.stack([p.pixels for p in ready.patches])  # [n, H, W, C]
        n = stack.shape[0]
        gs, ps = cfg.grid_side, cfg.patch_size
        patched = stack.reshape(n, gs, ps, gs, ps, self.in_channels)
        patched = patched.transpose(0, 1, 3, 2, 4, 5)
        flat = patched.reshape(n, gs * gs, ps * ps * self.in_channels)

        x = tz.add_rowvec(tz.matmul(tz.Tensor(flat), self.patch_w), self.patch_b)
        x = tz.add_rowvec(x, self.pos)
        for blk in self.blocks:
            x = run_block(x, blk, cfg.heads)
        x = tz.layernorm(x, self.norm_out_g, self.norm_out_b)
        spatial = tz.permute(tz.reshape(x, (n, gs, gs, cfg.embed_dim)),
                             (0, 3, 1, 2))
        return TokenGrid(spatial)


# ---------------------------------------------------------------------------
# pixel shuffle pair


def pixel_unshuffle(grid: TokenGrid, r: int) -> TokenGrid:
    """Fold r x r spatial neighborhoods into channels.

    out[n, c*r*r + dr*r + dc, i, j] = in[n, c, i*r + dr, j*r + dc]
    """
    n, c, s, _ = grid.data.shape
    if r < 1 or s % r != 0:
        raise DimensionError(f"side {s} not divisible by unshuffle factor {r}")
    x = tz.reshape(grid.data, (n, c, s // r, r, s // r, r))
    x = tz.permute(x, (0, 1, 3, 5, 2, 4))
    return TokenGrid(tz.reshape(x, (n, c * r * r, s // r, s // r)))


def pixel_shuffle(grid: TokenGrid, r: int) -> TokenGrid:
    """Exact inverse of pixel_unshuffle."""
    n, c, s, _ = grid.data.shape
    if r < 1 or c % (r * r) != 0:
        raise DimensionError(f"channels {c} not divisible by r*r = {r * r}")
    x = tz.reshape(grid.data, (n, c // (r * r), r, r, s, s))
    x = tz.permute(x, (0, 1, 4, 2, 5, 3))
    return TokenGrid(tz.reshape(x, (n, c // (r * r), s * r, s * r)))

