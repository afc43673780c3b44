"""Projectors and token-fusion strategies, forward-only on arrays.

Each branch owns a two-layer GELU MLP projector into the language model
width. A fused visual sequence carries its tile layout: its tile count
and the (branch_id, count) segments every tile holds, in row order.

Strategies:
  post-interleave  per tile: branch-A block then branch-B block, both in
                   original order, after per-branch projection
  post-channel     per aligned token pair: learned [2*d -> d] map over
                   the channel concat of the projected pair
  pre-sequence     raw per-tile sequence concat, then ONE shared projector
  pre-channel      raw channel concat, then ONE shared projector

Branch tokens are frozen encoder output after pixel unshuffle:
[n_tiles, tokens, channels] arrays that no gradient reaches. project and
fuse_pre read them as [n_tiles * tokens, channels] rows, tile-major.
Every function here runs on arrays and returns a VisualSequence whose
embeddings are an ndarray and whose backward, given those embeddings'
gradient, accumulates into each projector and fusion.down parameter
that is not frozen (the branch tokens are constants, so it returns
nothing). Answering drops the backward; training calls it at the end
of the step's one backward closure (Pipeline.assemble_batch,
Pipeline.loss). The backward is derived by hand in the order of the
composed-op graph that tests/fusion_oracle.py keeps as the oracle, and
equals it bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import tensor as tz
from .errors import ConfigError, ContractError, DimensionError
from .transformer import linear

FUSION_KINDS = ("post-interleave", "post-channel", "pre-sequence", "pre-channel")


@dataclass
class VisualSequence:
    """Projected visual tokens, tile-major: every tile holds the same
    segments, each a (branch_id, count) run of rows, in row order.

    embeddings is [n_tokens, d]. backward(g), if set, takes their
    [n_tokens, d] gradient and accumulates it into the parameters that
    made them.
    """

    embeddings: np.ndarray
    n_tiles: int
    segments: tuple[tuple[str, int], ...]
    backward: Callable[[np.ndarray], None] | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.embeddings.shape) != 2:
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


def _weight_grad(w: tz.Parameter, a: np.ndarray, g: np.ndarray) -> None:
    """Accumulate a.T @ g, w's gradient in a @ w, unless w is frozen."""
    if not w.frozen:
        tz._accum(w, a.T @ g)


def _bias_grad(b: tz.Parameter, g: np.ndarray) -> None:
    """Accumulate g summed over its rows, the gradient of a row bias."""
    if not b.frozen:
        tz._accum(b, g.reshape(-1, b.shape[0]).sum(axis=0))


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

    def forward(self, rows: np.ndarray) -> tuple:
        """(output, backward) of the MLP on constant [n, in_dim] rows.

        backward(g), given the output's gradient, accumulates into each
        parameter that is not frozen.
        """
        if rows.shape[-1] != self.in_dim:
            raise DimensionError(
                f"projector expects width {self.in_dim}, got {rows.shape[-1]}"
            )
        w1, b1, w2, b2 = self.parameters()
        pre = np.matmul(rows, w1.data)
        pre += b1.data
        hidden, tanh = tz.gelu_forward(pre)
        out = np.matmul(hidden, w2.data)
        out += b2.data

        def backward(g):
            _bias_grad(b2, g)
            _weight_grad(w2, hidden, g)
            if not (w1.frozen and b1.frozen):
                g_pre = tz.gelu_backward(g @ w2.data.T, pre, tanh)
                _bias_grad(b1, g_pre)
                _weight_grad(w1, rows, g_pre)

        return out, backward


def project(proj: Projector, tokens: np.ndarray,
            branch_id: str) -> VisualSequence:
    """Project [n_tiles, t, C] branch tokens, preserving tile order and
    spatial scan order."""
    n, t, c = tokens.shape
    out, backward = proj.forward(tokens.reshape(n * t, c))
    return VisualSequence(out, n, ((branch_id, t),), backward)


def fuse_post_interleave(a: VisualSequence, b: VisualSequence) -> VisualSequence:
    """Per tile: all of a's tokens, then all of b's, both in input order."""
    if a.width != b.width:
        raise DimensionError(f"width mismatch: {a.width} vs {b.width}")
    if a.n_tiles != b.n_tiles:
        raise ContractError(f"tile counts differ: {a.n_tiles} vs {b.n_tiles}")
    n, ta, tb, d = a.n_tiles, a.per_tile, b.per_tile, a.width
    # one tile per row of the [n, ta + tb, d] view: a's block, b's block
    out = np.empty((n * (ta + tb), d))
    tiles = out.reshape(n, ta + tb, d)
    tiles[:, :ta] = a.embeddings.reshape(n, ta, d)
    tiles[:, ta:] = b.embeddings.reshape(n, tb, d)

    def backward(g):
        g = g.reshape(n, ta + tb, d)
        for seq, part in ((a, g[:, :ta]), (b, g[:, ta:])):
            if seq.backward is not None:
                seq.backward(np.ascontiguousarray(part).reshape(-1, d))

    return VisualSequence(out, n, a.segments + b.segments, backward)


def fuse_post_channel(a: VisualSequence, b: VisualSequence,
                      down: tz.Parameter) -> VisualSequence:
    """Aligned channel concat followed by a learned [2d -> d] map."""
    if a.width != b.width:
        raise DimensionError(f"width mismatch: {a.width} vs {b.width}")
    if (a.n_tiles, a.per_tile) != (b.n_tiles, b.per_tile):
        raise ContractError(
            f"tile layouts differ: {a.n_tiles} tiles of {a.per_tile} vs "
            f"{b.n_tiles} tiles of {b.per_tile}"
        )
    d = a.width
    if down.shape != (2 * d, d):
        raise DimensionError(
            f"down map must be [{2 * d}, {d}], got {down.shape}"
        )
    paired = np.concatenate([a.embeddings, b.embeddings], axis=1)
    fused = np.matmul(paired, down.data)

    def backward(g):
        g_paired = g @ down.data.T
        _weight_grad(down, paired, g)
        for seq, part in ((a, g_paired[:, :d]), (b, g_paired[:, d:])):
            if seq.backward is not None:
                seq.backward(np.ascontiguousarray(part))

    return VisualSequence(fused, a.n_tiles, (("A+B", a.per_tile),), backward)


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
        segments = (("A", ta), ("B", tb))
    elif kind == "pre-channel":
        if ta != tb:
            raise ContractError(
                f"pre-channel needs equal token counts, got {ta} vs {tb}"
            )
        rows = np.concatenate([a_raw, b_raw], axis=2).reshape(-1, ca + cb)
        segments = (("A+B", ta),)
    else:
        raise ConfigError(f"unknown pre-fusion kind {kind!r}")
    fused, backward = shared.forward(rows)
    return VisualSequence(fused, n, segments, backward)
