"""Decoder-only causal transformer over assembled sequences.

Pre-norm blocks, learned absolute positional embeddings, an untied
output head, and a strict causal mask applied additively (-1e30 before
softmax, which underflows to exactly zero attention weight, so prefix
logits are bit-stable under suffix edits). The loss is mean cross
entropy of logits[t] against token[t+1], restricted to positions whose
target is supervised by the loss mask. The LM owns the text embedding
table that the assembler splices from.

forward optionally takes a KVCache holding every block's keys and
values for the positions already run. The sequence is then a
continuation that starts at the cached length: its rows take positional
embeddings from there on, row i may attend to key j only when
j <= start + i (the same causal mask, offset by start), the budget check
covers start + L, and its keys and values are appended to the cache.
greedy_decode runs the prompt once into a fresh cache and then each
emitted token as a one-position continuation. Cached logits agree with
a full recompute to rounding (not bitwise: the one-row matmuls may sum
in a different order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .assembly import VOCAB_SIZE, AssembledSequence
from .errors import BudgetError, ConfigError, ContractError

NEG_INF = -1e30


@dataclass
class LMConfig:
    d_lm: int
    layers: int
    heads: int
    vocab: int = VOCAB_SIZE
    context_limit: int = 512

    def __post_init__(self):
        if min(self.d_lm, self.layers, self.heads, self.vocab) < 1:
            raise ConfigError("LM dims must all be positive")
        if self.d_lm % self.heads != 0:
            raise ConfigError(
                f"d_lm {self.d_lm} not divisible by heads {self.heads}"
            )
        if self.context_limit < 1:
            raise ConfigError(
                f"context_limit must be >= 1, got {self.context_limit}"
            )


@dataclass
class LMOutput:
    logits: tz.Tensor
    loss: tz.Tensor | None = None


class KVCache:
    """Per-block keys and values, [heads, length, head_dim], of every
    position run so far; filled by LanguageModel.forward."""

    def __init__(self):
        self.length = 0
        self.keys: list[tz.Tensor] = []
        self.values: list[tz.Tensor] = []


class LanguageModel:
    """Toy causal LM; parameters named under the "lm." prefix."""

    def __init__(self, cfg: LMConfig, seed: int):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        d = cfg.d_lm
        P = tz.Parameter

        def lin(name, fi, fo):
            return P(f"lm.{name}", rng.standard_normal((fi, fo)) / np.sqrt(fi))

        self.embed = P("lm.embed", rng.standard_normal((cfg.vocab, d)) * 0.02)
        self.pos = P("lm.pos", rng.standard_normal((cfg.context_limit, d)) * 0.02)
        self.blocks = []
        for i in range(cfg.layers):
            blk = {
                "norm1.g": P(f"lm.block{i}.norm1.g", np.ones(d)),
                "norm1.b": P(f"lm.block{i}.norm1.b", np.zeros(d)),
                "wq": lin(f"block{i}.attn.wq", d, d),
                "wk": lin(f"block{i}.attn.wk", d, d),
                "wv": lin(f"block{i}.attn.wv", d, d),
                "wo": lin(f"block{i}.attn.wo", d, d),
                "norm2.g": P(f"lm.block{i}.norm2.g", np.ones(d)),
                "norm2.b": P(f"lm.block{i}.norm2.b", np.zeros(d)),
                "w1": lin(f"block{i}.mlp.w1", d, 4 * d),
                "b1": P(f"lm.block{i}.mlp.b1", np.zeros(4 * d)),
                "w2": lin(f"block{i}.mlp.w2", 4 * d, d),
                "b2": P(f"lm.block{i}.mlp.b2", np.zeros(d)),
            }
            self.blocks.append(blk)
        self.norm_out_g = P("lm.norm_out.g", np.ones(d))
        self.norm_out_b = P("lm.norm_out.b", np.zeros(d))
        # small but nonzero: a zero head would block every gradient to
        # anything upstream, and the projector-only training stage needs
        # gradients to flow through a frozen head
        self.head = P("lm.head",
                      rng.standard_normal((d, cfg.vocab)) * 0.02)

    def parameters(self) -> list[tz.Parameter]:
        out = [self.embed, self.pos]
        for blk in self.blocks:
            out.extend(blk.values())
        out.extend([self.norm_out_g, self.norm_out_b, self.head])
        return out

    def _attend(self, x: tz.Tensor, blk, mask: tz.Tensor,
                cache: KVCache | None, i: int) -> tz.Tensor:
        L, d = x.shape
        h = self.cfg.heads
        hd = d // h

        def split(y):
            return tz.permute(tz.reshape(y, (L, h, hd)), (1, 0, 2))

        q = split(tz.matmul(x, blk["wq"]))
        k = split(tz.matmul(x, blk["wk"]))
        v = split(tz.matmul(x, blk["wv"]))
        if cache is not None:
            if i < len(cache.keys):
                k = tz.concat([cache.keys[i], k], axis=1)
                v = tz.concat([cache.values[i], v], axis=1)
                cache.keys[i], cache.values[i] = k, v
            else:
                cache.keys.append(k)
                cache.values.append(v)
        scores = tz.mul_scalar(tz.matmul(q, tz.permute(k, (0, 2, 1))),
                               1.0 / np.sqrt(hd))
        scores = tz.add(scores, tz.expand_leading(mask, h))
        attn = tz.softmax_lastdim(scores)
        mixed = tz.reshape(tz.permute(tz.matmul(attn, v), (1, 0, 2)), (L, d))
        return tz.matmul(mixed, blk["wo"])

    def forward(self, seq: AssembledSequence, with_loss: bool = True,
                cache: KVCache | None = None) -> LMOutput:
        """Logits (and loss) for seq; with a cache, seq continues it.

        The loss of a continuation covers only next-token targets inside
        the continuation itself.
        """
        L = seq.length
        start = 0 if cache is None else cache.length
        if L < 1:
            raise ContractError("cannot run the LM on an empty sequence")
        if start + L > self.cfg.context_limit:
            raise BudgetError(required=start + L,
                              available=self.cfg.context_limit)
        if seq.embeddings.shape[1] != self.cfg.d_lm:
            raise ContractError(
                f"sequence width {seq.embeddings.shape[1]} != "
                f"d_lm {self.cfg.d_lm}"
            )
        mask_np = np.where(
            np.arange(start + L)[None, :] > start + np.arange(L)[:, None],
            NEG_INF, 0.0)
        mask = tz.Tensor(mask_np)
        x = tz.add(seq.embeddings, tz.slice_axis(self.pos, 0, start,
                                                 start + L))
        for i, blk in enumerate(self.blocks):
            normed = tz.layernorm(x, blk["norm1.g"], blk["norm1.b"])
            x = tz.add(x, self._attend(normed, blk, mask, cache, i))
            normed = tz.layernorm(x, blk["norm2.g"], blk["norm2.b"])
            hidden = tz.gelu(tz.add_rowvec(tz.matmul(normed, blk["w1"]),
                                           blk["b1"]))
            x = tz.add(x, tz.add_rowvec(tz.matmul(hidden, blk["w2"]),
                                        blk["b2"]))
        if cache is not None:
            cache.length = start + L
        x = tz.layernorm(x, self.norm_out_g, self.norm_out_b)
        logits = tz.matmul(x, self.head)
        if not with_loss:
            return LMOutput(logits)
        shifted = tz.slice_axis(logits, 0, 0, L - 1)
        loss = tz.masked_cross_entropy(shifted, seq.token_ids[1:],
                                       seq.loss_mask[1:])
        return LMOutput(logits, loss)

    def greedy_decode(self, seq: AssembledSequence, max_new: int,
                      eos_id: int | None = None) -> list[int]:
        """Argmax continuation; ties go to the lowest id; stops at EOS.

        The prompt runs once into a KV cache; each emitted token but the
        last then runs as a one-position continuation of it.
        """
        if max_new < 0:
            raise ContractError(f"max_new must be >= 0, got {max_new}")
        if seq.length + max_new > self.cfg.context_limit:
            raise BudgetError(required=seq.length + max_new,
                              available=self.cfg.context_limit)
        emitted: list[int] = []
        cache = KVCache()
        current = seq
        for _ in range(max_new):
            out = self.forward(current, with_loss=False, cache=cache)
            last = out.logits.data[-1]
            next_id = int(np.argmax(last))
            emitted.append(next_id)
            if eos_id is not None and next_id == eos_id:
                break
            current = AssembledSequence(
                tz.embedding_lookup(self.embed, [next_id]), [next_id],
                [False])
        return emitted
