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
embeddings with [B, L] ids and mask. splice_batch builds a whole step's
training batch as one row gather from [visual rows; embedding table;
zero row]: one index per position, with a scatter-add backward. splice
is the one-row assembler that answering runs: the same index (_layout),
gathered on arrays from the visual rows and the embedding table's own
array, with no graph and no copy of the table.

Overflowing the context limit is a hard error. Upstream tile capping is
the intended way to stay under budget; silent truncation would corrupt
the image markup.
"""

from __future__ import annotations

from dataclasses import dataclass

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

_ID_TO_LITERAL = {
    IMG_CONTEXT_ID: IMG_CONTEXT_TEXT,
    IMG_END_ID: IMG_END_TEXT,
    IMG_START_ID: IMG_START_TEXT,
}


class ByteTokenizer:
    """Reversible byte-level tokenizer with image-markup specials."""

    def encode(self, text: str) -> list[int]:
        raw = text.encode("utf-8")
        ids: list[int] = []
        i = 0
        while i < len(raw):
            for literal, token_id in _SPECIAL_LITERALS:
                if raw.startswith(literal, i):
                    ids.append(token_id)
                    i += len(literal)
                    break
            else:
                ids.append(raw[i])
                i += 1
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
    LM's causal mask no real position ever attends to it.
    """

    embeddings: tz.Tensor
    token_ids: np.ndarray
    loss_mask: np.ndarray

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
           embed_table: tz.Tensor, context_limit: int) -> SequenceBatch:
    """Assemble [BOS] + prompt + answer + [EOS] with markers expanded, as
    a one-row batch, on arrays.

    Each image-context marker in the prompt expands to the matching
    image's visual embeddings; text positions are embedding-table rows.
    The loss mask selects the answer bytes and the closing EOS, nothing
    else. Exceeding context_limit raises a budget error. The layout is
    splice_batch's (_layout), and so is every row, bitwise: text rows
    are gathered by id from embed_table.data in place, and each image's
    rows are copied to the run of positions where the index takes them.
    The result is a constant that records no graph.
    """
    table = embed_table.data
    d = table.shape[1]
    for vs in visual:
        if vs.width != d:
            raise DimensionError(
                f"visual width {vs.width} does not match LM width {d}")
    counts = [vs.n_tokens for vs in visual]
    index, ids, answer_start = _layout(prompt_ids, answer_ids, counts, 0,
                                       sum(counts), context_limit)
    ids = np.array(ids)
    # a text position's table row is its id; a marker's rows hold the
    # marker's embedding until its image's rows replace them
    out = table[ids]
    first = 0
    for vs, n in zip(visual, counts):
        if n:
            at = index.index(first)
            out[at:at + n] = vs.embeddings
            first += n
    loss_mask = np.zeros((1, len(ids)), dtype=bool)
    loss_mask[0, answer_start:] = True
    return SequenceBatch(tz.Tensor(out[None]), ids[None], loss_mask)


def _layout(prompt_ids, answer_ids, counts, first_row: int,
            text_row: int, context_limit: int):
    """One sample's gather index, token ids and answer start.

    Marker k takes the next counts[k] visual rows from first_row on;
    token id t takes table row text_row + t.
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

    index = [text_row + BOS_ID]
    ids = [BOS_ID]
    images = iter(counts)
    row = first_row
    for i in prompt_ids:
        if i == IMG_CONTEXT_ID:
            n = next(images)
            index.extend(range(row, row + n))
            ids.extend([IMG_CONTEXT_ID] * n)
            row += n
        else:
            index.append(text_row + i)
            ids.append(i)
    answer_start = len(ids)
    index.extend(text_row + i for i in tail)
    ids.extend(tail)
    return index, ids, answer_start


def splice_batch(texts, visual_counts, rows: tz.Tensor,
                 embed_table: tz.Tensor, context_limit: int) -> SequenceBatch:
    """Splice B samples into one right-padded batch with one row gather.

    texts[b] is sample b's (prompt_ids, answer_ids); visual_counts[b]
    holds the visual row count of each of its images, in marker order.
    rows [R, d] stacks every image's visual rows, sample after sample
    and image after image, so they are consumed in order. Every
    position, real or pad, is one row of [rows; embed_table; zero row],
    gathered in one lookup whose backward scatter-adds into rows and
    embed_table. Each sample follows splice's rules (markers, loss
    mask, budget); a pad has the zero row, PAD_ID and no loss.
    """
    if not texts:
        raise ContractError("cannot batch zero sequences")
    if len(visual_counts) != len(texts):
        raise ContractError(
            f"{len(texts)} samples but {len(visual_counts)} visual lists")
    d = embed_table.shape[1]
    if rows.data.ndim != 2 or rows.shape[1] != d:
        raise DimensionError(
            f"visual rows {rows.shape} do not match LM width {d}")
    n_rows = rows.shape[0]
    layouts = []
    first = 0
    for (prompt_ids, answer_ids), counts in zip(texts, visual_counts):
        layouts.append(_layout(prompt_ids, answer_ids, counts, first,
                               n_rows, context_limit))
        first += sum(counts)
    if first != n_rows:
        raise ContractError(
            f"samples take {first} visual rows, {n_rows} were supplied")

    B = len(texts)
    L = max(len(ids) for _, ids, _ in layouts)
    index = np.full((B, L), n_rows + embed_table.shape[0], dtype=np.int64)
    token_ids = np.full((B, L), PAD_ID, dtype=np.int64)
    loss_mask = np.zeros((B, L), dtype=bool)
    for b, (idx, ids, answer_start) in enumerate(layouts):
        index[b, :len(idx)] = idx
        token_ids[b, :len(ids)] = ids
        loss_mask[b, answer_start:len(ids)] = True
    table = tz.concat([rows, embed_table, tz.Tensor(np.zeros((1, d)))],
                      axis=0)
    return SequenceBatch(tz.embedding_lookup(table, index), token_ids,
                         loss_mask)
