"""Byte tokenizer, prompt templating, and visual-token splicing.

Text is tokenized at the byte level (ids 0..255) with six specials on
top: PAD, BOS, EOS, and the image markup trio. A prompt carries one
image-context marker per image; at splice time each marker expands to
that image's full run of fused visual embeddings, giving a single
[L x d] embedding matrix with token ids and a loss mask aligned to it.
The answer span (answer bytes plus the closing EOS) is the only region
the loss mask selects.

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

    vocab_size = VOCAB_SIZE

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
class AssembledSequence:
    """The LM-ready sequence: embeddings, aligned ids, and loss mask."""

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

    @property
    def n_visual(self) -> int:
        return int((self.token_ids == IMG_CONTEXT_ID).sum())


def splice(prompt_ids, answer_ids, visual: list[VisualSequence],
           embed_table: tz.Tensor, context_limit: int) -> AssembledSequence:
    """Assemble [BOS] + prompt + answer + [EOS] with markers expanded.

    Each image-context marker in the prompt expands to the matching
    image's visual embeddings; text positions are embedding-table rows.
    The loss mask selects the answer bytes and the closing EOS, nothing
    else. Exceeding context_limit raises a budget error.
    """
    prompt_ids = [int(i) for i in prompt_ids]
    answer_ids = [int(i) for i in answer_ids]
    markers = sum(1 for i in prompt_ids if i == IMG_CONTEXT_ID)
    if markers != len(visual):
        raise ContractError(
            f"prompt has {markers} image markers but {len(visual)} "
            "visual sequences were supplied"
        )
    if any(i == IMG_CONTEXT_ID for i in answer_ids):
        raise ContractError("answers must not contain image markers")
    d = embed_table.shape[1]
    for k, vs in enumerate(visual):
        if vs.width != d:
            raise DimensionError(
                f"visual sequence {k} width {vs.width} != LM width {d}"
            )

    visual_total = sum(vs.n_tokens for vs in visual)
    length = 2 + len(prompt_ids) - markers + visual_total + len(answer_ids)
    if length > context_limit:
        raise BudgetError(required=length, available=context_limit)

    token_ids: list[int] = []
    loss_mask: list[bool] = []
    segments: list[tz.Tensor] = []
    run: list[int] = [BOS_ID]
    loss_mask.append(False)
    token_ids.append(BOS_ID)

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
    for i in answer_ids:
        run.append(i)
        token_ids.append(i)
        loss_mask.append(True)
    run.append(EOS_ID)
    token_ids.append(EOS_ID)
    loss_mask.append(True)
    flush_run()

    embeddings = segments[0] if len(segments) == 1 else tz.concat(segments, axis=0)
    return AssembledSequence(embeddings, np.array(token_ids),
                             np.array(loss_mask))


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


def pad_batch(seqs: list[AssembledSequence]) -> SequenceBatch:
    """Right-pad seqs to the longest and stack them, in order."""
    if not seqs:
        raise ContractError("cannot batch zero sequences")
    L = max(s.length for s in seqs)
    d = seqs[0].embeddings.shape[1]
    ids = np.full((len(seqs), L), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(seqs), L), dtype=bool)
    parts: list[tz.Tensor] = []
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
    return SequenceBatch(tz.reshape(flat, (len(seqs), L, d)), ids, mask)
