"""The pre-norm transformer block shared by the vision encoders and the LM.

x + attn(norm1(x)), then x + mlp(norm2(x)) with a 4d-wide GELU MLP, on
[N, T, d]: N tiles for an encoder, N sequences for the LM. Attention
takes an optional additive mask [N, heads, T, S] and an optional KVCache
whose earlier keys and values come first, so S is the cached length
plus T. Checkpoints and seeds rely on init_block's parameter names and
on its draw order: wq, wk, wv, wo, w1, w2.

block_forward runs the block on arrays and returns, beside its output, a
backward that keeps the activations it needs. The backward is derived by
hand, in the order of the composed-op graph (tests/block_oracle.py,
which it equals bitwise), accumulates into each block parameter that is
not frozen and returns x's gradient. The LM's loss chains its blocks'
backwards into the training step's one backward closure
(LanguageModel.loss, Pipeline.loss); the encoders, frozen in every
stage, and the LM's forward and decoding keep the output alone. The
formulas of layernorm, GELU and softmax are tensor.py's, shared with
the oracle's ops. The attention scores, the block's largest array
([N, heads, T, S]: 1 MB per tile in the 256-token encoder), are scaled,
masked and softmaxed in the one buffer their matmul returns, so no
second array of that size is allocated (each fresh one of that size was
page-faulted in anew, as glibc hands it back to the system on free).
queries_from (default 0) makes only rows queries_from: queries and
outputs, while keys and values still cover every row: the offset a
KVCache continuation applies from the other side. The LM's training
loss and its decode steps use it on their last block; the encoders run
every row.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tz
from .errors import DimensionError


def linear(name: str, rng, fan_in: int, fan_out: int) -> tz.Parameter:
    """A [fan_in, fan_out] weight drawn N(0, 1/fan_in)."""
    return tz.Parameter(name, rng.standard_normal((fan_in, fan_out))
                        / np.sqrt(fan_in))


def init_block(prefix: str, d: int, rng) -> dict:
    """Parameters of one block, in manifest order."""
    P = tz.Parameter
    return {
        "norm1.g": P(f"{prefix}.norm1.g", np.ones(d)),
        "norm1.b": P(f"{prefix}.norm1.b", np.zeros(d)),
        "wq": linear(f"{prefix}.attn.wq", rng, d, d),
        "wk": linear(f"{prefix}.attn.wk", rng, d, d),
        "wv": linear(f"{prefix}.attn.wv", rng, d, d),
        "wo": linear(f"{prefix}.attn.wo", rng, d, d),
        "norm2.g": P(f"{prefix}.norm2.g", np.ones(d)),
        "norm2.b": P(f"{prefix}.norm2.b", np.zeros(d)),
        "w1": linear(f"{prefix}.mlp.w1", rng, d, 4 * d),
        "b1": P(f"{prefix}.mlp.b1", np.zeros(4 * d)),
        "w2": linear(f"{prefix}.mlp.w2", rng, 4 * d, d),
        "b2": P(f"{prefix}.mlp.b2", np.zeros(d)),
    }


class KVCache:
    """Per-block keys and values, [N, heads, length, head_dim], of every
    position run so far; filled by block_forward, length kept by
    LanguageModel.decode_step.

    The cache holds plain arrays: decoding is forward-only
    array code, and block_forward's backward after a cache treats the
    earlier positions' keys and values as constants.
    """

    def __init__(self):
        self.length = 0
        self.keys: list[np.ndarray] = []
        self.values: list[np.ndarray] = []

    def extend(self, layer: int, k: np.ndarray, v: np.ndarray) -> tuple:
        """Append one call's keys and values to layer's; return all."""
        if layer < len(self.keys):
            k = np.concatenate([self.keys[layer], k], axis=2)
            v = np.concatenate([self.values[layer], v], axis=2)
            self.keys[layer], self.values[layer] = k, v
        else:
            self.keys.append(k)
            self.values.append(v)
        return k, v


def block_forward(x: np.ndarray, blk: dict, heads: int,
                  mask: np.ndarray | None = None,
                  cache: KVCache | None = None, layer: int = 0,
                  queries_from: int = 0) -> tuple:
    """One pre-norm block over the [N, T, d] array x, on arrays:
    (output, backward).

    Keys and values cover all T rows (after the cache's, if any); only
    rows queries_from: are queries, so the output is [N, T - queries_from,
    d]. mask, if given, is additive and [N, heads, T, S]; the block uses
    its rows queries_from:. layer indexes the cache. backward(g), given
    the output's gradient, accumulates into each block parameter that is
    not frozen and returns x's gradient; the encoders, which are
    frozen, keep the output alone.
    """
    n, t, d = x.shape
    hd = d // heads
    tq = t - queries_from
    if not 0 <= queries_from < t:
        raise DimensionError(f"queries_from {queries_from} outside [0, {t})")
    p = {name: w.data for name, w in blk.items()}
    scale = 1.0 / np.sqrt(hd)

    def split(y, rows):  # [N, rows, d] -> [N, heads, rows, hd]
        return y.reshape(n, rows, heads, hd).transpose(0, 2, 1, 3)

    def merge(y, rows):  # [N, heads, rows, hd] -> contiguous [N, rows, d]
        # contiguous, so every matmul below takes numpy's BLAS path, as
        # the composed graph's gradient buffers do
        return np.ascontiguousarray(y.transpose(0, 2, 1, 3)).reshape(
            n, rows, d)

    h1, xhat1, inv1 = tz.layernorm_forward(x, p["norm1.g"], p["norm1.b"])
    hq = h1[:, queries_from:]
    q = split(np.matmul(hq, p["wq"]), tq)
    k = split(np.matmul(h1, p["wk"]), t)
    v = split(np.matmul(h1, p["wv"]), t)
    if cache is not None:
        k, v = cache.extend(layer, k, v)
    scores = np.matmul(q, k.transpose(0, 1, 3, 2))
    scores *= scale
    if mask is not None:
        if mask.shape != (n, heads, t, k.shape[2]):
            raise DimensionError(f"mask {mask.shape} vs scores "
                                 f"{(n, heads, t, k.shape[2])}")
        scores += mask[:, :, queries_from:]
    attn = tz.softmax_forward(scores, out=scores)
    merged = merge(np.matmul(attn, v), tq)
    x1 = x[:, queries_from:] + np.matmul(merged, p["wo"])
    h2, xhat2, inv2 = tz.layernorm_forward(x1, p["norm2.g"], p["norm2.b"])
    pre = np.matmul(h2, p["w1"])
    pre += p["b1"]
    hidden, tanh = tz.gelu_forward(pre)
    mlp = np.matmul(hidden, p["w2"])
    mlp += p["b2"]

    def weight_grad(name, a, g):  # a: [..., fan_in], g: [..., fan_out]
        w = blk[name]
        if not w.frozen:
            tz._accum(w, a.reshape(-1, a.shape[-1]).T
                      @ g.reshape(-1, g.shape[-1]))

    def backward(g):
        weight_grad("w2", hidden, g)
        if not blk["b2"].frozen:
            tz._accum(blk["b2"], g.reshape(-1, d).sum(axis=0))
        g_pre = tz.gelu_backward(np.matmul(g, p["w2"].T), pre, tanh)
        weight_grad("w1", h2, g_pre)
        if not blk["b1"].frozen:
            tz._accum(blk["b1"], g_pre.reshape(-1, 4 * d).sum(axis=0))
        g_x1 = tz.layernorm_backward(np.matmul(g_pre, p["w1"].T), xhat2,
                                     inv2, blk["norm2.g"], blk["norm2.b"])
        g_x1 += g
        weight_grad("wo", merged, g_x1)
        g_mixed = split(np.matmul(g_x1, p["wo"].T), tq)
        g_v = np.matmul(attn.transpose(0, 1, 3, 2), g_mixed)
        g_scores = tz.softmax_backward(
            np.matmul(g_mixed, v.transpose(0, 1, 3, 2)), attn)
        g_scores *= scale
        g_q = merge(np.matmul(g_scores, k), tq)
        g_k = np.matmul(q.transpose(0, 1, 3, 2), g_scores)  # [N, h, hd, S]
        # cached positions come first and are constants
        g_k = merge(g_k[..., -t:].transpose(0, 1, 3, 2), t)
        g_v = merge(g_v[:, :, -t:], t)
        weight_grad("wq", hq, g_q)
        weight_grad("wk", h1, g_k)
        weight_grad("wv", h1, g_v)
        g_h1 = np.matmul(g_k, p["wk"].T)
        g_h1[:, queries_from:] += np.matmul(g_q, p["wq"].T)
        g_h1 += np.matmul(g_v, p["wv"].T)
        g_x = tz.layernorm_backward(g_h1, xhat1, inv1, blk["norm1.g"],
                                    blk["norm1.b"])
        g_x[:, queries_from:] += g_x1
        return g_x

    return x1 + mlp, backward

