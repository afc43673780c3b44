"""Projectors and token-fusion strategies.

Each branch owns a two-layer GELU MLP projector into the language model
width. A fused visual sequence carries its tile layout: its tile count
and the (branch_id, count) segments every tile holds, in row order.
Per-token provenance (tile_index, branch_id, within-tile position) is
derived from that layout, so ordering laws are checkable after the fact.

Strategies:
  post-interleave  per tile: branch-A block then branch-B block, both in
                   original order, after per-branch projection
  post-channel     per aligned token pair: learned [2*d -> d] map over
                   the channel concat of the projected pair
  pre-sequence     raw per-tile sequence concat, then ONE shared projector
  pre-channel      raw channel concat, then ONE shared projector

Branch tokens are frozen encoder output after pixel unshuffle:
[n_tiles, tokens, channels] arrays, outside every graph. project and
fuse_pre read them as [n_tiles * tokens, channels] rows, tile-major,
and wrap those as a constant Tensor, so a fused sequence's graph starts
at the projectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import ConfigError, ContractError, DimensionError
from .transformer import linear

FUSION_KINDS = ("post-interleave", "post-channel", "pre-sequence", "pre-channel")


@dataclass
class VisualSequence:
    """Projected visual tokens, tile-major: every tile holds the same
    segments, each a (branch_id, count) run of rows, in row order."""

    embeddings: tz.Tensor
    n_tiles: int
    segments: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if self.embeddings.data.ndim != 2:
            raise DimensionError(
                f"embeddings must be [n_tokens, d], got {self.embeddings.shape}"
            )
        if self.n_tokens != self.n_tiles * self.per_tile:
            raise ContractError(
                f"{self.n_tokens} tokens do not fill {self.n_tiles} tiles "
                f"of {self.per_tile}"
            )
        branches = [branch for branch, _ in self.segments]
        if len(set(branches)) != len(branches):
            raise ContractError(f"a branch repeats within a tile: {branches}")

    @property
    def per_tile(self) -> int:
        return sum(count for _, count in self.segments)

    @property
    def n_tokens(self) -> int:
        return self.embeddings.shape[0]

    @property
    def width(self) -> int:
        return self.embeddings.shape[1]

    @property
    def provenance(self) -> list[tuple[int, str, int]]:
        """(tile_index, branch_id, within-tile position) of each row."""
        return [(t, branch, i) for t in range(self.n_tiles)
                for branch, count in self.segments for i in range(count)]


class Projector:
    """Two-layer GELU MLP mapping encoder channels to the LM width."""

    def __init__(self, prefix: str, in_dim: int, hidden: int, d_lm: int,
                 seed: int):
        rng = np.random.default_rng(seed)
        self.in_dim = in_dim
        self.d_lm = d_lm
        self.w1 = linear(f"{prefix}.w1", rng, in_dim, hidden)
        self.b1 = tz.Parameter(f"{prefix}.b1", np.zeros(hidden))
        self.w2 = linear(f"{prefix}.w2", rng, hidden, d_lm)
        self.b2 = tz.Parameter(f"{prefix}.b2", np.zeros(d_lm))

    def parameters(self) -> list[tz.Parameter]:
        return [self.w1, self.b1, self.w2, self.b2]

    def apply(self, rows: tz.Tensor) -> tz.Tensor:
        if rows.shape[-1] != self.in_dim:
            raise DimensionError(
                f"projector expects width {self.in_dim}, got {rows.shape[-1]}"
            )
        hidden = tz.gelu(tz.add_rowvec(tz.matmul(rows, self.w1), self.b1))
        return tz.add_rowvec(tz.matmul(hidden, self.w2), self.b2)


def project(proj: Projector, tokens: np.ndarray,
            branch_id: str) -> VisualSequence:
    """Project [n_tiles, t, C] branch tokens, preserving tile order and
    spatial scan order."""
    n, t, c = tokens.shape
    out = proj.apply(tz.Tensor(tokens.reshape(n * t, c)))
    return VisualSequence(out, n, ((branch_id, t),))


def interleave_order(n_tiles: int, ta: int, tb: int) -> np.ndarray:
    """Row order of [a; b] that puts, per tile, a's ta rows then b's tb.

    a holds n_tiles tiles of ta rows, b n_tiles tiles of tb rows, both
    tile-major; b's row i sits at n_tiles * ta + i.
    """
    tile = np.arange(n_tiles)[:, None]
    return np.concatenate([tile * ta + np.arange(ta),
                           n_tiles * ta + tile * tb + np.arange(tb)],
                          axis=1).ravel()


def fuse_post_interleave(a: VisualSequence, b: VisualSequence) -> VisualSequence:
    """Per tile: all of a's tokens, then all of b's, both in input order."""
    if a.width != b.width:
        raise DimensionError(f"width mismatch: {a.width} vs {b.width}")
    if a.n_tiles != b.n_tiles:
        raise ContractError(f"tile counts differ: {a.n_tiles} vs {b.n_tiles}")
    rows = tz.concat([a.embeddings, b.embeddings], axis=0)
    order = interleave_order(a.n_tiles, a.per_tile, b.per_tile)
    return VisualSequence(tz.embedding_lookup(rows, order), a.n_tiles,
                          a.segments + b.segments)


def fuse_post_channel(a: VisualSequence, b: VisualSequence,
                      down: tz.Tensor) -> VisualSequence:
    """Aligned channel concat followed by a learned [2d -> d] map."""
    if a.width != b.width:
        raise DimensionError(f"width mismatch: {a.width} vs {b.width}")
    if (a.n_tiles, a.per_tile) != (b.n_tiles, b.per_tile):
        raise ContractError(
            f"tile layouts differ: {a.n_tiles} tiles of {a.per_tile} vs "
            f"{b.n_tiles} tiles of {b.per_tile}"
        )
    if down.shape != (2 * a.width, a.width):
        raise DimensionError(
            f"down map must be [{2 * a.width}, {a.width}], got {down.shape}"
        )
    paired = tz.concat([a.embeddings, b.embeddings], axis=1)
    fused = tz.matmul(paired, down)
    return VisualSequence(fused, a.n_tiles, (("A+B", a.per_tile),))


def fuse_pre(a_raw: np.ndarray, b_raw: np.ndarray, kind: str,
             shared: Projector) -> VisualSequence:
    """Concatenate raw [n_tiles, t, C] post-unshuffle tokens, then one
    shared projector."""
    (n, ta, ca), (nb, tb, cb) = a_raw.shape, b_raw.shape
    if n != nb:
        raise ContractError(f"tile counts differ: {n} vs {nb}")
    if kind == "pre-sequence":
        if ca != cb:
            raise DimensionError(
                f"pre-sequence needs equal channels, got {ca} vs {cb}"
            )
        # per tile, a's tokens then b's: the post-interleave order
        rows = np.concatenate([a_raw, b_raw], axis=1).reshape(-1, ca)
        fused = shared.apply(tz.Tensor(rows))
        return VisualSequence(fused, n, (("A", ta), ("B", tb)))
    if kind == "pre-channel":
        if ta != tb:
            raise ContractError(
                f"pre-channel needs equal token counts, got {ta} vs {tb}"
            )
        rows = np.concatenate([a_raw, b_raw], axis=2).reshape(-1, ca + cb)
        fused = shared.apply(tz.Tensor(rows))
        return VisualSequence(fused, n, (("A+B", ta),))
    raise ConfigError(f"unknown pre-fusion kind {kind!r}")
