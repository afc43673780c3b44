"""Projectors and token-fusion strategies.

Each branch owns a two-layer GELU MLP projector into the language model
width. Fused visual sequences carry per-token provenance
(tile_index, branch_id, within-tile position) so ordering laws are
checkable after the fact.

Strategies:
  post-interleave  per tile: branch-A block then branch-B block, both in
                   original order, after per-branch projection
  post-channel     per aligned token pair: learned [2*d -> d] map over
                   the channel concat of the projected pair
  pre-sequence     raw per-tile sequence concat, then ONE shared projector
  pre-channel      raw channel concat, then ONE shared projector

Token grids are frozen encoder output, arrays outside every graph:
project and fuse_pre wrap their rows as a constant Tensor, so a fused
sequence's graph starts at the projectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .encoders import TokenGrid
from .errors import ConfigError, ContractError, DimensionError
from .transformer import linear

FUSION_KINDS = ("post-interleave", "post-channel", "pre-sequence", "pre-channel")


@dataclass
class VisualSequence:
    """Projected visual tokens plus provenance, one row per token."""

    embeddings: tz.Tensor
    provenance: list[tuple[int, str, int]]

    def __post_init__(self):
        if self.embeddings.data.ndim != 2:
            raise DimensionError(
                f"embeddings must be [n_tokens, d], got {self.embeddings.shape}"
            )
        if len(self.provenance) != self.embeddings.shape[0]:
            raise ContractError(
                f"provenance length {len(self.provenance)} != "
                f"{self.embeddings.shape[0]} tokens"
            )
        last: dict[tuple[int, str], int] = {}
        for tile, branch, pos in self.provenance:
            key = (tile, branch)
            if key in last and pos <= last[key]:
                raise ContractError(
                    f"within-tile positions not increasing for tile {tile} "
                    f"branch {branch}"
                )
            last[key] = pos

    @property
    def n_tokens(self) -> int:
        return self.embeddings.shape[0]

    @property
    def width(self) -> int:
        return self.embeddings.shape[1]

    def tokens_per_tile(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for tile, _, _ in self.provenance:
            counts[tile] = counts.get(tile, 0) + 1
        return counts


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


def project(proj: Projector, tokens: TokenGrid, branch_id: str) -> VisualSequence:
    """Project a token grid, preserving tile order and spatial scan order."""
    out = proj.apply(tz.Tensor(tokens.flatten_tokens()))
    per_tile = tokens.side * tokens.side
    provenance = [
        (t, branch_id, i)
        for t in range(tokens.n_tiles)
        for i in range(per_tile)
    ]
    return VisualSequence(out, provenance)


def _tile_blocks(seq: VisualSequence) -> list[tuple[int, int, int]]:
    """Contiguous (tile, start, stop) row blocks, ascending tile order.

    Requires the sequence to be tile-major (all of tile t's rows adjacent).
    """
    blocks: list[tuple[int, int, int]] = []
    seen: set[int] = set()
    i = 0
    n = seq.n_tokens
    while i < n:
        tile = seq.provenance[i][0]
        if tile in seen:
            raise ContractError(f"tokens of tile {tile} are not contiguous")
        seen.add(tile)
        j = i
        while j < n and seq.provenance[j][0] == tile:
            j += 1
        blocks.append((tile, i, j))
        i = j
    if [b[0] for b in blocks] != sorted(seen):
        raise ContractError("tiles are not in ascending order")
    return blocks


def fuse_post_interleave(a: VisualSequence, b: VisualSequence) -> VisualSequence:
    """Per tile: all of a's tokens, then all of b's, both in input order.

    A branch with no tokens at all contributes nothing; the other branch
    passes through unchanged.
    """
    if a.n_tokens == 0:
        return VisualSequence(b.embeddings, list(b.provenance))
    if b.n_tokens == 0:
        return VisualSequence(a.embeddings, list(a.provenance))
    if a.width != b.width:
        raise DimensionError(f"width mismatch: {a.width} vs {b.width}")
    blocks_a = _tile_blocks(a)
    blocks_b = _tile_blocks(b)
    if [t for t, _, _ in blocks_a] != [t for t, _, _ in blocks_b]:
        raise ContractError(
            f"tile sets differ: {[t for t, _, _ in blocks_a]} vs "
            f"{[t for t, _, _ in blocks_b]}"
        )
    # one row gather from [a; b]: b's row i sits at a.n_tokens + i
    order = []
    provenance = []
    for (tile, ia, ja), (_, ib, jb) in zip(blocks_a, blocks_b):
        order.extend(range(ia, ja))
        provenance.extend(a.provenance[ia:ja])
        order.extend(range(a.n_tokens + ib, a.n_tokens + jb))
        provenance.extend(b.provenance[ib:jb])
    rows = tz.concat([a.embeddings, b.embeddings], axis=0)
    return VisualSequence(tz.embedding_lookup(rows, order), provenance)


def fuse_post_channel(a: VisualSequence, b: VisualSequence,
                      down: tz.Tensor) -> VisualSequence:
    """Aligned channel concat followed by a learned [2d -> d] map."""
    if a.width != b.width:
        raise DimensionError(f"width mismatch: {a.width} vs {b.width}")
    if a.tokens_per_tile() != b.tokens_per_tile():
        raise ContractError(
            f"per-tile token counts differ: {a.tokens_per_tile()} vs "
            f"{b.tokens_per_tile()}"
        )
    if down.shape != (2 * a.width, a.width):
        raise DimensionError(
            f"down map must be [{2 * a.width}, {a.width}], got {down.shape}"
        )
    paired = tz.concat([a.embeddings, b.embeddings], axis=1)
    fused = tz.matmul(paired, down)
    provenance = [(tile, "A+B", pos) for tile, _, pos in a.provenance]
    return VisualSequence(fused, provenance)


def fuse_pre(a_raw: TokenGrid, b_raw: TokenGrid, kind: str,
             shared: Projector) -> VisualSequence:
    """Concatenate raw post-unshuffle features, then one shared projector."""
    if a_raw.n_tiles != b_raw.n_tiles:
        raise ContractError(
            f"tile counts differ: {a_raw.n_tiles} vs {b_raw.n_tiles}"
        )
    n = a_raw.n_tiles
    ta = a_raw.side * a_raw.side
    tb = b_raw.side * b_raw.side
    rows_a = a_raw.flatten_tokens()
    rows_b = b_raw.flatten_tokens()
    if kind == "pre-sequence":
        if a_raw.channels != b_raw.channels:
            raise DimensionError(
                f"pre-sequence needs equal channels, got "
                f"{a_raw.channels} vs {b_raw.channels}"
            )
        # per tile: a's block, then b's, as one row gather from [a; b]
        order = []
        provenance = []
        for t in range(n):
            order.extend(range(t * ta, (t + 1) * ta))
            provenance.extend((t, "A", i) for i in range(ta))
            order.extend(range(n * ta + t * tb, n * ta + (t + 1) * tb))
            provenance.extend((t, "B", i) for i in range(tb))
        rows = np.concatenate([rows_a, rows_b])
        fused = shared.apply(tz.Tensor(rows[order]))
        return VisualSequence(fused, provenance)
    if kind == "pre-channel":
        if ta != tb:
            raise ContractError(
                f"pre-channel needs equal token counts, got {ta} vs {tb}"
            )
        stacked = np.concatenate([rows_a, rows_b], axis=1)
        fused = shared.apply(tz.Tensor(stacked))
        provenance = [(t, "A+B", i) for t in range(n) for i in range(ta)]
        return VisualSequence(fused, provenance)
    raise ConfigError(f"unknown pre-fusion kind {kind!r}")
