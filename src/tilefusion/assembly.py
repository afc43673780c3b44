"""Byte tokenizer, prompt templating, and visual-token splicing.

Text is tokenized at the byte level (ids 0..255) with six specials on
top: PAD, BOS, EOS, and the image markup trio. A prompt carries one
image-context marker per image; at splice time each marker expands to
that image's full run of fused visual embeddings, giving L embedding
rows with token ids and a loss mask aligned to them. The answer span
(answer bytes plus the closing EOS) is the only region the loss mask
selects.

SequenceBatch is the one sequence type the LM takes, for training and
answering alike: B sequences right-padded to one length, [B, L, d]
embedding array with [B, L] ids and mask. splice_batch builds a whole
step's batch on arrays: each visual row, in order, goes to the next
position whose id is the image-context marker, each text position takes
its id's row of the embedding table's own array (read in place, never
copied), and a pad is a zero row. Its backward gathers the visual rows'
gradient and scatter-adds the text positions' gradient into the table.
splice, the one-row assembler that answering runs, is splice_batch of
one sample.

Overflowing the context limit is a hard error. Upstream tile capping is
the intended way to stay under budget; silent truncation would corrupt
the image markup.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import tensor as tz
from .errors import BudgetError, ContractError, DimensionError
from .fusion import VisualSequence

N_BYTES = 256
PAD_ID = 256
BOS_ID = 257
EOS_ID = 258
IMG_START_ID = 259
IMG_END_ID = 260
IMG_CONTEXT_ID = 261
VOCAB_SIZE = 262

IMG_START_TEXT = "<img>"
IMG_END_TEXT = "</img>"
IMG_CONTEXT_TEXT = "<IMG-CONTEXT>"

# Longest literal first so recognition is greedy.
_SPECIAL_LITERALS = (
    (IMG_CONTEXT_TEXT.encode("ascii"), IMG_CONTEXT_ID),
    (IMG_END_TEXT.encode("ascii"), IMG_END_ID),
    (IMG_START_TEXT.encode("ascii"), IMG_START_ID),
)

# Split on the literals, longest first: at each offset the first
# alternative that matches wins, as a left-to-right scan would pick it.
_SPECIAL_SPLIT = re.compile(b"(" + b"|".join(
    re.escape(literal) for literal, _ in _SPECIAL_LITERALS) + b")")
_LITERAL_TO_ID = dict(_SPECIAL_LITERALS)

_ID_TO_LITERAL = {
    IMG_CONTEXT_ID: IMG_CONTEXT_TEXT,
    IMG_END_ID: IMG_END_TEXT,
    IMG_START_ID: IMG_START_TEXT,
}


class ByteTokenizer:
    """Reversible byte-level tokenizer with image-markup specials."""

    def encode(self, text: str) -> list[int]:
        """UTF-8 bytes as ids 0..255, each markup literal as its id.

        The split alternates plain byte runs (even parts) with the
        literals between them (odd parts)."""
        ids: list[int] = []
        parts = _SPECIAL_SPLIT.split(text.encode("utf-8"))
        for k, part in enumerate(parts):
            if k % 2:
                ids.append(_LITERAL_TO_ID[part])
            else:
                ids.extend(part)
        return ids

    def decode(self, ids) -> str:
        out = bytearray()
        for i in ids:
            i = int(i)
            if i < N_BYTES:
                out.append(i)
            elif i in _ID_TO_LITERAL:
                out.extend(_ID_TO_LITERAL[i].encode("ascii"))
            elif i in (PAD_ID, BOS_ID, EOS_ID):
                continue
            else:
                raise ContractError(f"token id {i} outside vocabulary")
        return out.decode("utf-8", errors="replace")


def build_prompt(n_images: int, question: str) -> str:
    """One image block per frame, in order, then the question text."""
    if n_images < 0:
        raise ContractError(f"n_images must be >= 0, got {n_images}")
    block = IMG_START_TEXT + IMG_CONTEXT_TEXT + IMG_END_TEXT
    return block * n_images + question


@dataclass
class SequenceBatch:
    """B sequences padded on the right to one length L.

    embeddings [B, L, d], token_ids and loss_mask [B, L]. A pad position
    has a zero embedding row, PAD_ID and a false loss mask; under the
    LM's causal mask no real position ever attends to it. backward(g),
    if set, takes the embeddings' [B, L, d] gradient and accumulates it
    into the parameters that made them; splice_batch's returns the
    gradient of the visual rows, which Pipeline.assemble_batch hands on
    to the fused rows' backward.
    """

    embeddings: np.ndarray
    token_ids: np.ndarray
    loss_mask: np.ndarray
    backward: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        self.token_ids = np.asarray(self.token_ids, dtype=np.int64)
        self.loss_mask = np.asarray(self.loss_mask, dtype=bool)
        shape = self.embeddings.shape
        if (len(shape) != 3 or self.token_ids.shape != shape[:2]
                or self.loss_mask.shape != shape[:2]):
            raise DimensionError(
                f"sequence pieces disagree: {shape} embeddings, "
                f"{self.token_ids.shape} ids, {self.loss_mask.shape} mask"
            )

    @property
    def length(self) -> int:
        return self.embeddings.shape[1]


def splice(prompt_ids, answer_ids, visual: list[VisualSequence],
           embed_table: tz.Parameter, context_limit: int) -> SequenceBatch:
    """Assemble [BOS] + prompt + answer + [EOS] with markers expanded, as
    a one-row batch: splice_batch of one sample.

    Each image-context marker in the prompt expands to the matching
    image's visual embeddings; text positions are embedding-table rows.
    The loss mask selects the answer bytes and the closing EOS, nothing
    else. Exceeding context_limit raises a budget error.
    """
    d = embed_table.shape[1]
    for vs in visual:  # before they are stacked into splice_batch's rows
        if vs.width != d:
            raise DimensionError(
                f"visual width {vs.width} does not match LM width {d}")
    return splice_batch(
        [(prompt_ids, answer_ids)], [[vs.n_tokens for vs in visual]],
        np.concatenate([vs.embeddings for vs in visual] or [np.zeros((0, d))]),
        embed_table, context_limit)


def _layout(prompt_ids, answer_ids, counts, context_limit: int):
    """One sample's token ids, markers expanded, and its answer start.

    Marker k expands to counts[k] IMG_CONTEXT_ID positions.
    """
    prompt_ids = [int(i) for i in prompt_ids]
    tail = [int(i) for i in answer_ids] + [EOS_ID]
    markers = prompt_ids.count(IMG_CONTEXT_ID)
    if markers != len(counts):
        raise ContractError(
            f"prompt has {markers} image markers but {len(counts)} "
            "visual sequences were supplied"
        )
    if IMG_CONTEXT_ID in tail:
        raise ContractError("answers must not contain image markers")
    length = 1 + len(prompt_ids) - markers + sum(counts) + len(tail)
    if length > context_limit:
        raise BudgetError(required=length, available=context_limit)

    ids = [BOS_ID]
    images = iter(counts)
    for i in prompt_ids:
        if i == IMG_CONTEXT_ID:
            ids.extend([IMG_CONTEXT_ID] * next(images))
        else:
            ids.append(i)
    answer_start = len(ids)
    ids.extend(tail)
    return ids, answer_start


def splice_batch(texts, visual_counts, rows: np.ndarray,
                 embed_table: tz.Parameter, context_limit: int) -> SequenceBatch:
    """Splice B samples into one right-padded batch, on arrays.

    texts[b] is sample b's (prompt_ids, answer_ids); visual_counts[b]
    holds the visual row count of each of its images, in marker order.
    rows [R, d] stacks every image's visual rows, sample after sample
    and image after image, and they fill the marker positions in that
    order. A text position takes its id's row of embed_table.data; a
    pad has a zero row, PAD_ID and no loss. Each sample follows
    splice's rules (markers, loss mask, budget). The batch's backward(g)
    scatter-adds the text positions' gradient into embed_table, unless
    it is frozen, and returns the [R, d] gradient of rows.
    """
    if not texts:
        raise ContractError("cannot batch zero sequences")
    if len(visual_counts) != len(texts):
        raise ContractError(
            f"{len(texts)} samples but {len(visual_counts)} visual lists")
    table = embed_table.data
    d = table.shape[1]
    if rows.ndim != 2 or rows.shape[1] != d:
        raise DimensionError(
            f"visual rows {rows.shape} do not match LM width {d}")
    layouts = [_layout(prompt_ids, answer_ids, counts, context_limit)
               for (prompt_ids, answer_ids), counts
               in zip(texts, visual_counts)]
    taken = sum(sum(counts) for counts in visual_counts)
    if taken != rows.shape[0]:
        raise ContractError(
            f"samples take {taken} visual rows, {rows.shape[0]} were "
            "supplied")

    B = len(texts)
    L = max(len(ids) for ids, _ in layouts)
    token_ids = np.full((B, L), PAD_ID, dtype=np.int64)
    loss_mask = np.zeros((B, L), dtype=bool)
    real = np.zeros((B, L), dtype=bool)
    for b, (ids, answer_start) in enumerate(layouts):
        token_ids[b, :len(ids)] = ids
        loss_mask[b, answer_start:len(ids)] = True
        real[b, :len(ids)] = True
    visual = token_ids == IMG_CONTEXT_ID
    text = real & ~visual
    text_ids = token_ids[text]
    embeddings = np.zeros((B, L, d))
    embeddings[text] = table[text_ids]
    embeddings[visual] = rows

    def backward(g):
        if not embed_table.frozen:
            # position order, as the composed lookup's scatter-add
            g_table = np.zeros_like(table)
            np.add.at(g_table, text_ids, g[text])
            tz._accum(embed_table, g_table)
        return g[visual]

    return SequenceBatch(embeddings, token_ids, loss_mask, backward)
