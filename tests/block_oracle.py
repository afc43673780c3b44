"""The transformer block composed from tensor primitives: the oracle.

transformer.block_forward runs the block on arrays with a hand-derived
backward; this is the same block built op by op, whose backward is the
autograd of the primitives. Tests compare the two, output and
every gradient. Same arguments as transformer.block_forward; the
cache's earlier keys and values enter the graph as constants.
"""

import numpy as np

from oracle_ops import (Tensor, add, add_rowvec, concat, gelu, layernorm,
                        matmul, mul_scalar, permute, reshape, slice_axis,
                        softmax_lastdim)


def run_block(x, blk, heads, mask=None, cache=None, layer=0,
              queries_from=0):
    n, t, d = x.shape
    hd = d // heads

    def split(y, rows):  # [N, rows, d] -> [N, heads, rows, hd]
        return permute(reshape(y, (n, rows, heads, hd)), (0, 2, 1, 3))

    normed = layernorm(x, blk["norm1.g"], blk["norm1.b"])
    queries = normed
    if queries_from:
        queries = slice_axis(normed, 1, queries_from, t)
        x = slice_axis(x, 1, queries_from, t)
    q = split(matmul(queries, blk["wq"]), t - queries_from)
    k, v = (split(matmul(normed, blk[w]), t) for w in ("wk", "wv"))
    if cache is not None:
        past = cache.keys[layer].shape[2] if layer < len(cache.keys) else 0
        all_k, all_v = cache.extend(layer, k.data, v.data)
        if past:
            k = concat([Tensor(all_k[:, :, :past]), k], axis=2)
            v = concat([Tensor(all_v[:, :, :past]), v], axis=2)
    scores = mul_scalar(matmul(q, permute(k, (0, 1, 3, 2))),
                           1.0 / np.sqrt(hd))
    if mask is not None:
        scores = add(scores, Tensor(mask[:, :, queries_from:]))
    mixed = matmul(softmax_lastdim(scores), v)
    merged = reshape(permute(mixed, (0, 2, 1, 3)), (n, t - queries_from, d))
    x = add(x, matmul(merged, blk["wo"]))
    normed = layernorm(x, blk["norm2.g"], blk["norm2.b"])
    hidden = gelu(add_rowvec(matmul(normed, blk["w1"]), blk["b1"]))
    return add(x, add_rowvec(matmul(hidden, blk["w2"]), blk["b2"]))
