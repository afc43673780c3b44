"""Decoder-only causal transformer over assembled sequences.

The shared pre-norm blocks of transformer.py, learned absolute
positional embeddings, an untied output head, and a strict causal mask
applied additively (-1e30 before softmax, which underflows to exactly
zero attention weight, so prefix logits are bit-stable under suffix
edits). The loss is mean cross entropy of logits[t] against token[t+1],
restricted to positions whose target is supervised by the loss mask.
The LM owns the text embedding table that the assembler splices from.

Everything runs on arrays, through transformer.block_forward. Every
input is a SequenceBatch of B right-padded sequences, run as one
[B, L, d] batch; forward returns its [B, L, V] logits. Pads need no
mask of their own: each comes after every real position of its row, so
the causal mask already gives it zero weight, and pads carry no loss.
Padding can move a sample's logits by rounding only: a softmax row sum
over more (zero) weights may group differently.

loss(batch) is what training runs: the mean over samples of each
sample's masked loss, the masked cross entropy of forward's logits
[:, :-1] computed without the logits nothing reads. Every block but the
last must still run all L rows, as keys and values for later rows. The
last block takes queries_from = the earliest row whose next token some
sample supervises, so its queries and MLP, the final norm and the
[B, rows, V] head run on those rows only; shipped answers are one
character, so that is a few rows of L. The loss agrees with the one
taken over forward's logits to rounding (matmuls over fewer rows may
sum in another order). It returns the value and a backward that chains
the head's, the blocks' and the positional embeddings' gradients by
hand, in the order of the composed-op graph that
tests/per_image_oracle.py keeps (lm_loss), which it equals bitwise, and
ends in batch.backward; Pipeline.loss returns the whole chain as the
training step's one backward closure.

Decoding keeps no backward, and forward stays the uncached full-logit
reference that the tests decode against. decode_step(x, cache) takes
x, the [1, T, d] rows that continue a KVCache, and returns the [V]
logits of x's last row alone. Its rows take positional
embeddings from cache.length on, the budget check covers
cache.length + T, and every block appends their keys and values to the
cache. The last block runs with queries_from = T - 1, so its queries and
MLP, the final norm and the head run on one row. A one-row continuation
may attend to every cached key, so its causal mask row is all zeros and
is not built (adding zeros changes no score). greedy_decode runs a
one-row prompt as one step into a fresh cache and then each emitted
token but the last as a one-row continuation, so its budget is the
prompt length plus max_new - 1. A step's logits agree with forward's
last row to rounding (not bitwise: one-row matmuls may sum in another
order than the full recompute's); a one-row prompt, which runs every
row anyway, gives them bitwise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .assembly import VOCAB_SIZE, SequenceBatch
from .errors import BudgetError, ContractError, reject
from .transformer import KVCache, block_forward, init_block

NEG_INF = -1e30


@dataclass
class LMConfig:
    d_lm: int
    layers: int
    heads: int
    context_limit: int = 512

    def __post_init__(self):
        problems = [f"{key}: must be >= 1" for key in (
            "d_lm", "layers", "heads", "context_limit")
            if getattr(self, key) < 1]
        if self.heads >= 1 and self.d_lm % self.heads != 0:
            problems.append(
                f"heads: {self.heads} does not divide d_lm {self.d_lm}")
        reject(problems)


class LanguageModel:
    """Toy causal LM; parameters named under the "lm." prefix."""

    def __init__(self, cfg: LMConfig, seed: int):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        d = cfg.d_lm
        P = tz.Parameter
        self.embed = P("lm.embed", rng.standard_normal((VOCAB_SIZE, d)) * 0.02)
        self.pos = P("lm.pos", rng.standard_normal((cfg.context_limit, d)) * 0.02)
        self.blocks = [init_block(f"lm.block{i}", d, rng)
                       for i in range(cfg.layers)]
        self.norm_out_g = P("lm.norm_out.g", np.ones(d))
        self.norm_out_b = P("lm.norm_out.b", np.zeros(d))
        # small but nonzero: a zero head would block every gradient to
        # anything upstream, and the projector-only training stage needs
        # gradients to flow through a frozen head
        self.head = P("lm.head",
                      rng.standard_normal((d, VOCAB_SIZE)) * 0.02)

    def parameters(self) -> list[tz.Parameter]:
        out = [self.embed, self.pos]
        for blk in self.blocks:
            out.extend(blk.values())
        out.extend([self.norm_out_g, self.norm_out_b, self.head])
        return out

    def _check(self, start: int, rows: int, width: int) -> None:
        """Rows start to start + rows fit the context and are d_lm wide."""
        if rows < 1:
            raise ContractError("cannot run the LM on an empty sequence")
        if start + rows > self.cfg.context_limit:
            raise BudgetError(required=start + rows,
                              available=self.cfg.context_limit)
        if width != self.cfg.d_lm:
            raise ContractError(
                f"sequence width {width} != d_lm {self.cfg.d_lm}")

    def _causal(self, n: int, rows: int, start: int = 0) -> np.ndarray:
        """The additive [n, heads, rows, start + rows] mask of rows whose
        first is position start: row i sees key j iff j <= start + i."""
        keys = np.arange(start + rows)[None, :]
        causal = np.where(keys > start + np.arange(rows)[:, None],
                          NEG_INF, 0.0)
        # a broadcast view, not a copy: every block adds it to its scores
        return np.broadcast_to(causal, (n, self.cfg.heads, rows, start + rows))

    def _inputs(self, batch: SequenceBatch) -> tuple:
        """Checks, then (the first block's input, the causal mask)."""
        B, L = batch.token_ids.shape
        self._check(0, L, batch.embeddings.shape[2])
        return batch.embeddings + self.pos.data[:L], self._causal(B, L)

    def _head(self, x: np.ndarray) -> tuple:
        """(logits, normed rows, layernorm's xhat and inv) of rows x."""
        h, xhat, inv = tz.layernorm_forward(x, self.norm_out_g.data,
                                            self.norm_out_b.data)
        return np.matmul(h, self.head.data), h, xhat, inv

    def _run_blocks(self, x: np.ndarray, mask, queries_from: int,
                    cache: KVCache | None = None) -> tuple:
        """(output, backwards) of the blocks run in turn over x, with
        cache if given. Every block but the last takes all of its rows
        as queries, and the last takes rows queries_from on. backwards
        holds each block's backward, first block first."""
        last = len(self.blocks) - 1
        backwards = []
        for i, blk in enumerate(self.blocks):
            x, block_backward = block_forward(
                x, blk, self.cfg.heads, mask, cache, i,
                queries_from=queries_from if i == last else 0)
            backwards.append(block_backward)
        return x, backwards

    def forward(self, batch: SequenceBatch) -> np.ndarray:
        """[B, L, V] logits of every row of batch, with no cache."""
        x, mask = self._inputs(batch)
        return self._head(self._run_blocks(x, mask, 0)[0])[0]

    def loss(self, batch: SequenceBatch) -> tuple:
        """(value, backward) of the mean masked cross entropy of
        forward(batch)'s logits[:, :-1] against token_ids[:, 1:], on
        arrays, computing only the logits it reads.

        Row r's logits predict token r + 1, so the rows read start at
        first, the earliest row whose next token some sample supervises.
        The last block runs rows first: as queries, and the final norm
        and the head run on rows first to L - 2. With nothing
        supervised, first is L - 1: the loss is 0.0 and every gradient
        exactly zero. backward(g), given the loss's gradient,
        accumulates into each LM parameter that is not frozen, hands
        the [B, L, d] gradient of batch.embeddings to batch.backward and
        returns what that returns.
        """
        L = batch.token_ids.shape[1]
        x, mask = self._inputs(batch)
        read = np.flatnonzero(batch.loss_mask[:, 1:].any(axis=0))
        first = int(read[0]) if read.size else L - 1
        x, backwards = self._run_blocks(x, mask, first)
        n = L - 1 - first
        logits, h, xhat, inv = self._head(x[:, :n])
        value, ce_backward = tz.cross_entropy_forward(
            logits, batch.token_ids[:, first + 1:],
            batch.loss_mask[:, first + 1:])

        def backward(g):
            g_logits = ce_backward(g)
            g_h = np.matmul(g_logits, self.head.data.T)
            if not self.head.frozen:
                tz._accum(self.head, h.reshape(-1, h.shape[-1]).T
                          @ g_logits.reshape(-1, g_logits.shape[-1]))
            g_x = np.zeros_like(x)
            g_x[:, :n] = tz.layernorm_backward(
                g_h, xhat, inv, self.norm_out_g, self.norm_out_b)
            for block_backward in reversed(backwards):
                g_x = block_backward(g_x)
            if not self.pos.frozen:
                g_pos = np.zeros_like(self.pos.data)
                g_pos[:L] = g_x.sum(axis=0)
                tz._accum(self.pos, g_pos)
            return batch.backward(g_x)

        return value, backward

    def decode_step(self, x: np.ndarray, cache: KVCache) -> np.ndarray:
        """[V] logits of the last row of x, the [1, T, d] array of rows
        that continue cache, on arrays; x's keys and values join cache.

        A step past the context limit raises BudgetError and leaves
        cache as it was.
        """
        start, rows = cache.length, x.shape[1]
        self._check(start, rows, x.shape[2])
        x = x + self.pos.data[start:start + rows]
        # a one-row step sees every cached key: its mask row is all zeros
        mask = self._causal(1, rows, start) if rows > 1 else None
        x, _ = self._run_blocks(x, mask, rows - 1, cache)
        cache.length = start + rows
        return self._head(x)[0][0, 0]

    def greedy_decode(self, batch: SequenceBatch, max_new: int,
                      eos_id: int | None = None) -> list[int]:
        """Argmax continuation of a one-row batch; ties go to the lowest
        id; stops at EOS.

        The prompt runs as one decode_step into a fresh KV cache; each
        emitted token but the last then runs as a one-row step.
        """
        if batch.token_ids.shape[0] != 1:
            raise ContractError(
                f"greedy_decode takes one row, got {batch.token_ids.shape[0]}")
        if max_new < 0:
            raise ContractError(f"max_new must be >= 0, got {max_new}")
        # the last emitted token is never run, so decoding runs
        # batch.length + max_new - 1 positions (the prompt's, if none)
        needed = batch.length + max(max_new - 1, 0)
        if needed > self.cfg.context_limit:
            raise BudgetError(required=needed,
                              available=self.cfg.context_limit)
        emitted: list[int] = []
        cache = KVCache()
        x = batch.embeddings
        for _ in range(max_new):
            next_id = int(np.argmax(self.decode_step(x, cache)))
            emitted.append(next_id)
            if eos_id is not None and next_id == eos_id:
                break
            x = self.embed.data[next_id][None, None]
        return emitted
