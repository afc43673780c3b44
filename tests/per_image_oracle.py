"""The composed oracles of a training step and of answering.

Every function here builds its path from the Tensor ops of
tests/oracle_ops.py, whose backward is the autograd of the primitives;
its sequences and batches hold Tensor embeddings (a SequenceBatch here
may carry a Tensor where the program's holds an array).

branch_tokens(model, image) is the frozen half without the frozen-token
caches: tile, encode, unshuffle, on every call. Pipeline.frozen_tokens
must return its tokens bitwise. uncached_batch is Pipeline.assemble_batch
composed op by op on those tokens: one stacked fusion pass
(fusion_oracle.fuse_tokens) and one row gather from [visual rows;
embedding table; zero row] (splice_batch). lm_loss is LanguageModel.loss
composed from tests/block_oracle.py's blocks, and the two chained are
the bitwise reference for Pipeline.loss, value and every gradient.
pixel_shuffle is pixel_unshuffle's inverse, the oracle of its index law.

The per-image path projects and fuses each image on its own
(fusion_oracle.fuse_tokens), splices each sample from concatenated runs
of embedding lookups and visual rows (splice) into its own
AssembledSequence, and right-pads the samples into one batch by concat
(pad_batch). Pipeline.assemble_batch and Pipeline.answer must give the
same visual rows and layout bitwise, and the same batch up to stated
tolerances.

as_batch runs one AssembledSequence as a one-row SequenceBatch.
lm_forward is LanguageModel.forward composed, and reference_loss is the
LM loss taken over all of its logits, the reference for
LanguageModel.loss. arrays hands an oracle batch to the program's LM,
and lm_loss_node and uncached_loss make the program's (value, backward)
of LanguageModel.loss and of Pipeline.loss one oracle graph node, so
that one backward drives the program and the composed oracles alike. uncached_greedy decodes with no KV cache, running
LanguageModel.forward over the whole grown sequence for every token:
the reference for LanguageModel.greedy_decode and Pipeline.answer.
"""

from dataclasses import dataclass

import numpy as np

from tilefusion import assembly
from tilefusion.assembly import (
    BOS_ID,
    EOS_ID,
    IMG_CONTEXT_ID,
    PAD_ID,
    SequenceBatch,
    build_prompt,
)
from tilefusion.encoders import pixel_unshuffle
from tilefusion.errors import BudgetError, ContractError, DimensionError

from block_oracle import run_block
from fusion_oracle import fuse_tokens
from oracle_ops import (Tensor, add_rowvec, as_node, backward, concat,
                        embedding_lookup, layernorm, masked_cross_entropy,
                        matmul, mul, reshape, slice_axis, sum_all)


@dataclass
class AssembledSequence:
    """One unpadded sequence: [L, d] embeddings, [L] ids and loss mask."""

    embeddings: Tensor
    token_ids: np.ndarray
    loss_mask: np.ndarray

    def __post_init__(self):
        self.token_ids = np.asarray(self.token_ids, dtype=np.int64)
        self.loss_mask = np.asarray(self.loss_mask, dtype=bool)
        L = self.embeddings.shape[0]
        if self.token_ids.shape != (L,) or self.loss_mask.shape != (L,):
            raise DimensionError(
                f"sequence pieces disagree: {L} embeddings, "
                f"{self.token_ids.shape} ids, {self.loss_mask.shape} mask"
            )

    @property
    def length(self) -> int:
        return self.embeddings.shape[0]


def branch_tokens(model, image):
    """Each used branch's post-unshuffle [n_tiles, tokens, channels]
    tokens of image, keyed "A" and "B": tile, encode, unshuffle, with no
    cache."""
    tiles = model.segment_image(image)
    return {label: pixel_unshuffle(enc.encode(tiles, enc.patch_rows(tiles)),
                                   enc.cfg.unshuffle_r)
            for label, enc in (("A", model.encoder_a), ("B", model.encoder_b))
            if enc is not None}


def uncached_tokens(model, samples):
    """branch_tokens of every image, per sample: what run_stage passes
    Pipeline.loss, with no cache."""
    return [[branch_tokens(model, img) for img in s.images] for s in samples]


def uncached_batch(model, samples):
    """Pipeline.assemble_batch of samples on uncached_tokens, composed:
    every image's tokens stacked along the tile axis and fused in one
    pass, then splice_batch."""
    tokens = uncached_tokens(model, samples)
    flat = [t for per_sample in tokens for t in per_sample]
    rows = Tensor(np.zeros((0, model.cfg.lm.d_lm)))
    if flat:
        rows = fuse_tokens(model, {label: np.concatenate(
            [t[label] for t in flat]) for label in flat[0]}).embeddings
    encode = model.tokenizer.encode
    texts = [(encode(build_prompt(len(s.images), s.question)),
              encode(s.answer)) for s in samples]
    per_tile = model.cfg.tokens_per_tile()
    counts = [[next(iter(t.values())).shape[0] * per_tile
               for t in per_sample] for per_sample in tokens]
    return splice_batch(texts, counts, rows, model.lm.embed,
                        model.cfg.lm.context_limit)


def uncached_loss(model, samples):
    """Pipeline.loss of samples on uncached_tokens, as one graph node
    over the model's parameters."""
    return as_node(*model.loss(samples, uncached_tokens(model, samples)),
                   model.parameters())


def splice_batch(texts, visual_counts, rows, embed_table, context_limit):
    """assembly.splice_batch composed: every position, real or pad, is
    one row of [rows; embed_table; zero row], gathered by one lookup
    whose backward scatter-adds into rows and embed_table. The ids and
    loss mask, and every check, are assembly.splice_batch's."""
    layout = assembly.splice_batch(texts, visual_counts, rows.data,
                                   embed_table, context_limit)
    ids = layout.token_ids
    n_rows, d = rows.shape
    index = n_rows + ids
    visual = ids == IMG_CONTEXT_ID
    index[visual] = np.arange(n_rows)
    index[ids == PAD_ID] = n_rows + embed_table.shape[0]
    table = concat([rows, embed_table, Tensor(np.zeros((1, d)))], axis=0)
    return SequenceBatch(embedding_lookup(table, index), ids,
                         layout.loss_mask)


def pixel_shuffle(rows, r):
    """Exact inverse of pixel_unshuffle: [n, m*m, C*r*r] rows back to
    the [n, m*r, m*r, C] grid."""
    n, t, c = rows.shape
    m = int(round(t ** 0.5))
    if m * m != t:
        raise DimensionError(f"{t} tokens do not form a square grid")
    if r < 1 or c % (r * r) != 0:
        raise DimensionError(f"channels {c} not divisible by r*r = {r * r}")
    x = rows.reshape(n, m, m, c // (r * r), r, r)
    x = x.transpose(0, 1, 4, 2, 5, 3)
    return x.reshape(n, m * r, m * r, c // (r * r))


def as_batch(seq):
    """seq as a one-row SequenceBatch, by reshape."""
    return SequenceBatch(
        reshape(seq.embeddings, (1,) + seq.embeddings.shape),
        seq.token_ids[None], seq.loss_mask[None])


def lm_inputs(lm, batch):
    """The first block's input, composed, and the causal mask."""
    B, L = batch.token_ids.shape
    lm._check(0, L, batch.embeddings.shape[2])
    return (add_rowvec(batch.embeddings, slice_axis(lm.pos, 0, 0, L)),
            lm._causal(B, L))


def lm_head(lm, x):
    return matmul(layernorm(x, lm.norm_out_g, lm.norm_out_b), lm.head)


def lm_forward(lm, batch):
    """LanguageModel.forward composed: the [B, L, V] logits Tensor."""
    x, mask = lm_inputs(lm, batch)
    for blk in lm.blocks:
        x = run_block(x, blk, lm.cfg.heads, mask)
    return lm_head(lm, x)


def lm_loss(lm, batch):
    """LanguageModel.loss composed: the last block's queries and the
    head on the rows the loss reads only, from the earliest row whose
    next token some sample supervises."""
    L = batch.token_ids.shape[1]
    x, mask = lm_inputs(lm, batch)
    read = np.flatnonzero(batch.loss_mask[:, 1:].any(axis=0))
    first = int(read[0]) if read.size else L - 1
    last = len(lm.blocks) - 1
    for i, blk in enumerate(lm.blocks):
        x = run_block(x, blk, lm.cfg.heads, mask,
                      queries_from=first if i == last else 0)
    logits = lm_head(lm, slice_axis(x, 1, 0, L - 1 - first))
    return masked_cross_entropy(logits, batch.token_ids[:, first + 1:],
                                batch.loss_mask[:, first + 1:])


def reference_loss(lm, batch):
    """Mean masked cross entropy of all of lm_forward(batch)'s logits
    but the last row, against the next token."""
    logits = lm_forward(lm, batch)
    return masked_cross_entropy(
        slice_axis(logits, 1, 0, batch.length - 1),
        batch.token_ids[:, 1:], batch.loss_mask[:, 1:])


def arrays(batch):
    """An oracle batch as the array batch the program's LM takes; its
    backward runs the oracle batch's graph on the gradient it gets."""
    embeddings = batch.embeddings

    def embeddings_backward(g):
        backward(sum_all(mul(embeddings, Tensor(g))))

    return SequenceBatch(embeddings.data, batch.token_ids, batch.loss_mask,
                         embeddings_backward)


def lm_loss_node(lm, batch):
    """LanguageModel.loss of an array batch as one graph node over lm's
    parameters."""
    return as_node(*lm.loss(batch), lm.parameters())


def uncached_greedy(lm, batch, max_new, eos_id=None):
    """Argmax of the last row of lm.forward over the one-row array
    batch, grown by each emitted token, until max_new tokens or
    eos_id."""
    emitted = []
    x, ids = batch.embeddings, batch.token_ids
    for _ in range(max_new):
        grown = SequenceBatch(x, ids, np.zeros(ids.shape, dtype=bool))
        emitted.append(int(np.argmax(lm.forward(grown)[0, -1])))
        if emitted[-1] == eos_id:
            break
        x = np.concatenate([x, lm.embed.data[emitted[-1:]][None]], axis=1)
        ids = np.append(ids, [emitted[-1:]], axis=1)
    return emitted


def splice(prompt_ids, answer_ids, visual, embed_table, context_limit):
    """[BOS] + prompt + answer + [EOS], markers expanded, by concat."""
    prompt_ids = [int(i) for i in prompt_ids]
    answer_ids = [int(i) for i in answer_ids]
    markers = sum(1 for i in prompt_ids if i == IMG_CONTEXT_ID)
    if markers != len(visual):
        raise ContractError("marker count differs from visual count")
    if any(i == IMG_CONTEXT_ID for i in answer_ids):
        raise ContractError("answers must not contain image markers")
    d = embed_table.shape[1]
    for vs in visual:
        if vs.width != d:
            raise DimensionError("visual width differs from LM width")
    length = (2 + len(prompt_ids) - markers
              + sum(vs.n_tokens for vs in visual) + len(answer_ids))
    if length > context_limit:
        raise BudgetError(required=length, available=context_limit)

    token_ids = [BOS_ID]
    loss_mask = [False]
    segments = []
    run = [BOS_ID]

    def flush_run():
        if run:
            segments.append(embedding_lookup(embed_table, run))
            run.clear()

    image_index = 0
    for i in prompt_ids:
        if i == IMG_CONTEXT_ID:
            flush_run()
            vs = visual[image_index]
            segments.append(vs.embeddings)
            token_ids.extend([IMG_CONTEXT_ID] * vs.n_tokens)
            loss_mask.extend([False] * vs.n_tokens)
            image_index += 1
        else:
            run.append(i)
            token_ids.append(i)
            loss_mask.append(False)
    for i in answer_ids + [EOS_ID]:
        run.append(i)
        token_ids.append(i)
        loss_mask.append(True)
    flush_run()
    embeddings = (segments[0] if len(segments) == 1
                  else concat(segments, axis=0))
    return AssembledSequence(embeddings, np.array(token_ids),
                             np.array(loss_mask))


def pad_batch(seqs):
    """Right-pad seqs to the longest and stack them, in order."""
    if not seqs:
        raise ContractError("cannot batch zero sequences")
    L = max(s.length for s in seqs)
    d = seqs[0].embeddings.shape[1]
    ids = np.full((len(seqs), L), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(seqs), L), dtype=bool)
    parts = []
    for b, s in enumerate(seqs):
        if s.embeddings.shape[1] != d:
            raise DimensionError(
                f"sequence {b} width {s.embeddings.shape[1]} != {d}")
        ids[b, :s.length] = s.token_ids
        mask[b, :s.length] = s.loss_mask
        parts.append(s.embeddings)
        if s.length < L:
            parts.append(Tensor(np.zeros((L - s.length, d))))
    flat = parts[0] if len(parts) == 1 else concat(parts, axis=0)
    return SequenceBatch(reshape(flat, (len(seqs), L, d)), ids, mask)


def assemble(model, images, question, answer, tokens=None):
    """One sample through the per-image path; (sequence, visuals)."""
    if tokens is None:
        tokens = [branch_tokens(model, img) for img in images]
    visuals = [fuse_tokens(model, t) for t in tokens]
    seq = splice(model.tokenizer.encode(build_prompt(len(images), question)),
                 model.tokenizer.encode(answer), visuals, model.lm.embed,
                 model.cfg.lm.context_limit)
    return seq, visuals


def assemble_batch(model, samples, tokens=None):
    """pad_batch over per-sample assemble; (batch, visuals per sample)."""
    if tokens is None:
        tokens = [None] * len(samples)
    pairs = [assemble(model, s.images, s.question, s.answer, t)
             for s, t in zip(samples, tokens)]
    return pad_batch([seq for seq, _ in pairs]), [v for _, v in pairs]
