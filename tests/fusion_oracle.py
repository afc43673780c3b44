"""The projectors and fusion composed from tensor primitives: the oracle.

fusion.py runs the trainable image side on arrays with a hand-derived
backward, which a training step calls at the end of its one backward
closure; this is the same arithmetic built op by op, whose backward is the autograd of the
primitives. Each function takes what its fusion.py namesake takes and
returns a VisualSequence whose embeddings are a Tensor; tests compare
the two, rows and every projector and fusion.down gradient, bitwise.

provenance(seq) lists (tile_index, branch_id, within-tile position)
per row, derived from a sequence's tile layout, and interleave_order
gives the post-interleave row order as an index, which the composed
interleave gathers by.
"""

import numpy as np

from tilefusion.errors import ConfigError, ContractError, DimensionError
from tilefusion.fusion import VisualSequence

from oracle_ops import (Tensor, add_rowvec, concat, embedding_lookup, gelu,
                        matmul)


def provenance(seq):
    """(tile_index, branch_id, within-tile position) of each row."""
    return [(t, branch, i) for t in range(seq.n_tiles)
            for branch, count in seq.segments for i in range(count)]


def apply(proj, rows):
    """proj's MLP on the Tensor rows, op by op."""
    if rows.shape[-1] != proj.in_dim:
        raise DimensionError(
            f"projector expects width {proj.in_dim}, got {rows.shape[-1]}")
    hidden = gelu(add_rowvec(matmul(rows, proj.w1), proj.b1))
    return add_rowvec(matmul(hidden, proj.w2), proj.b2)


def project(proj, tokens, branch_id):
    n, t, c = tokens.shape
    out = apply(proj, Tensor(tokens.reshape(n * t, c)))
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


def fuse_post_interleave(a, b):
    if a.width != b.width:
        raise DimensionError(f"width mismatch: {a.width} vs {b.width}")
    if a.n_tiles != b.n_tiles:
        raise ContractError(f"tile counts differ: {a.n_tiles} vs {b.n_tiles}")
    rows = concat([a.embeddings, b.embeddings], axis=0)
    order = interleave_order(a.n_tiles, a.per_tile, b.per_tile)
    return VisualSequence(embedding_lookup(rows, order), a.n_tiles,
                          a.segments + b.segments)


def fuse_post_channel(a, b, down):
    if a.width != b.width:
        raise DimensionError(f"width mismatch: {a.width} vs {b.width}")
    if (a.n_tiles, a.per_tile) != (b.n_tiles, b.per_tile):
        raise ContractError("tile layouts differ")
    if down.shape != (2 * a.width, a.width):
        raise DimensionError(f"down map shape {down.shape}")
    paired = concat([a.embeddings, b.embeddings], axis=1)
    return VisualSequence(matmul(paired, down), a.n_tiles,
                          (("A+B", a.per_tile),))


def fuse_pre(a_raw, b_raw, kind, shared):
    (n, ta, ca), (nb, tb, cb) = a_raw.shape, b_raw.shape
    if n != nb:
        raise ContractError(f"tile counts differ: {n} vs {nb}")
    if kind == "pre-sequence":
        if ca != cb:
            raise DimensionError(f"pre-sequence channels {ca} vs {cb}")
        rows = np.concatenate([a_raw, b_raw], axis=1).reshape(-1, ca)
        return VisualSequence(apply(shared, Tensor(rows)), n,
                              (("A", ta), ("B", tb)))
    if kind == "pre-channel":
        if ta != tb:
            raise ContractError(f"pre-channel token counts {ta} vs {tb}")
        rows = np.concatenate([a_raw, b_raw], axis=2).reshape(-1, ca + cb)
        return VisualSequence(apply(shared, Tensor(rows)), n,
                              (("A+B", ta),))
    raise ConfigError(f"unknown pre-fusion kind {kind!r}")


def fuse_tokens(model, tokens):
    """Project, then fuse, one image's (or one stack's) branch tokens,
    op by op: Pipeline.fuse_images' oracle."""
    cfg = model.cfg
    if cfg.encoders == "A":
        return project(model.projector_a, tokens["A"], "A")
    if cfg.encoders == "B":
        return project(model.projector_b, tokens["B"], "B")
    tok_a, tok_b = tokens["A"], tokens["B"]
    if cfg.fusion == "post-interleave":
        return fuse_post_interleave(project(model.projector_a, tok_a, "A"),
                                    project(model.projector_b, tok_b, "B"))
    if cfg.fusion == "post-channel":
        return fuse_post_channel(project(model.projector_a, tok_a, "A"),
                                 project(model.projector_b, tok_b, "B"),
                                 model.down)
    return fuse_pre(tok_a, tok_b, cfg.fusion, model.projector_shared)
