"""The per-image image side, kept as the oracle for the batched one.

branch_tokens(model, image) is the frozen half without the frozen-token
caches: tile, encode, unshuffle, on every call. Pipeline.frozen_tokens
must return its tokens bitwise, and uncached_batch is
Pipeline.assemble_batch on those tokens, the reference for training on
cached ones. pixel_shuffle is pixel_unshuffle's inverse, the oracle of
its index law.

Each image is projected and fused on its own, op by op
(fusion_oracle.fuse_tokens), each sample is spliced from concatenated
runs of embedding lookups and visual rows (splice) into its own
AssembledSequence, and the samples are right-padded into one batch by
concat (pad_batch). Pipeline.assemble_batch and Pipeline.answer must
give the same visual rows and layout bitwise, and the same batch up to
stated tolerances.

as_batch runs one AssembledSequence as a one-row SequenceBatch, and
reference_loss is the LM loss taken over all of forward's logits, the
reference for LanguageModel.loss. uncached_greedy decodes with no KV
cache, running forward over the whole grown sequence for every token:
the reference for LanguageModel.greedy_decode and Pipeline.answer.
"""

from dataclasses import dataclass

import numpy as np

from tilefusion import tensor as tz
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

from fusion_oracle import fuse_tokens
from oracle_ops import reshape


@dataclass
class AssembledSequence:
    """One unpadded sequence: [L, d] embeddings, [L] ids and loss mask."""

    embeddings: tz.Tensor
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
    return {label: pixel_unshuffle(enc.encode(tiles), enc.cfg.unshuffle_r)
            for label, enc in (("A", model.encoder_a), ("B", model.encoder_b))
            if enc is not None}


def uncached_batch(model, samples):
    """Pipeline.assemble_batch of samples on branch_tokens of every
    image."""
    return model.assemble_batch(
        samples, [[branch_tokens(model, img) for img in s.images]
                  for s in samples])


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


def reference_loss(lm, batch):
    """Mean masked cross entropy of all of lm.forward(batch)'s logits
    but the last row, against the next token."""
    logits = lm.forward(batch)
    return tz.masked_cross_entropy(
        tz.slice_axis(logits, 1, 0, batch.length - 1),
        batch.token_ids[:, 1:], batch.loss_mask[:, 1:])


def uncached_greedy(lm, batch, max_new, eos_id=None):
    """Argmax of the last row of lm.forward over the one-row batch, grown
    by each emitted token, until max_new tokens or eos_id."""
    emitted = []
    for _ in range(max_new):
        emitted.append(int(np.argmax(lm.forward(batch).data[0, -1])))
        if emitted[-1] == eos_id:
            break
        step = tz.embedding_lookup(lm.embed, [emitted[-1:]])
        batch = SequenceBatch(
            tz.concat([batch.embeddings, step], axis=1),
            np.append(batch.token_ids, [emitted[-1:]], axis=1),
            np.append(batch.loss_mask, [[False]], axis=1))
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
            segments.append(tz.embedding_lookup(embed_table, run))
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
                  else tz.concat(segments, axis=0))
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
            parts.append(tz.Tensor(np.zeros((L - s.length, d))))
    flat = parts[0] if len(parts) == 1 else tz.concat(parts, axis=0)
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
