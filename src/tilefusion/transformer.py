"""The pre-norm transformer block shared by the vision encoders and the LM.

x + attn(norm1(x)), then x + mlp(norm2(x)) with a 4d-wide GELU MLP, on
[N, T, d]: N tiles for an encoder, N sequences for the LM. Attention
takes an optional additive mask of the scores' shape [N, heads, T, S]
and an optional KVCache whose earlier keys and values come first, so S
is the cached length plus T. Checkpoints and seeds rely on init_block's
parameter names and on its draw order: wq, wk, wv, wo, w1, w2.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tz


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
    position run so far; filled by the blocks, length kept by the LM."""

    def __init__(self):
        self.length = 0
        self.keys: list[tz.Tensor] = []
        self.values: list[tz.Tensor] = []

    def extend(self, layer: int, k: tz.Tensor, v: tz.Tensor) -> tuple:
        """Append one call's keys and values to layer's; return all."""
        if layer < len(self.keys):
            k = tz.concat([self.keys[layer], k], axis=2)
            v = tz.concat([self.values[layer], v], axis=2)
            self.keys[layer], self.values[layer] = k, v
        else:
            self.keys.append(k)
            self.values.append(v)
        return k, v


def run_block(x: tz.Tensor, blk: dict, heads: int,
              mask: tz.Tensor | None = None, cache: KVCache | None = None,
              layer: int = 0) -> tz.Tensor:
    """One pre-norm block over [N, T, d]; layer indexes the cache."""
    n, t, d = x.shape
    hd = d // heads

    def split(y):  # [N, T, d] -> [N, heads, T, hd]
        return tz.permute(tz.reshape(y, (n, t, heads, hd)), (0, 2, 1, 3))

    normed = tz.layernorm(x, blk["norm1.g"], blk["norm1.b"])
    q, k, v = (split(tz.matmul(normed, blk[w])) for w in ("wq", "wk", "wv"))
    if cache is not None:
        k, v = cache.extend(layer, k, v)
    scores = tz.mul_scalar(tz.matmul(q, tz.permute(k, (0, 1, 3, 2))),
                           1.0 / np.sqrt(hd))
    if mask is not None:
        scores = tz.add(scores, mask)
    mixed = tz.matmul(tz.softmax_lastdim(scores), v)
    merged = tz.reshape(tz.permute(mixed, (0, 2, 1, 3)), (n, t, d))
    x = tz.add(x, tz.matmul(merged, blk["wo"]))
    normed = tz.layernorm(x, blk["norm2.g"], blk["norm2.b"])
    hidden = tz.gelu(tz.add_rowvec(tz.matmul(normed, blk["w1"]), blk["b1"]))
    return tz.add(x, tz.add_rowvec(tz.matmul(hidden, blk["w2"]), blk["b2"]))
