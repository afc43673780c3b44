"""Assembler tests.

Tokenizer reversibility is the core property: a thousand random strings
round-trip exactly, specials are recognized greedily, and near-miss
literals fall back to plain bytes. Splicing is checked by counting laws
(visual positions, mask extent) and by order stability with tagged
visual rows.
"""

import numpy as np
import pytest

from tilefusion.assembly import (
    BOS_ID,
    EOS_ID,
    IMG_CONTEXT_ID,
    IMG_END_ID,
    IMG_START_ID,
    PAD_ID,
    VOCAB_SIZE,
    ByteTokenizer,
    SequenceBatch,
    build_prompt,
    splice,
    splice_batch,
)
from tilefusion.errors import BudgetError, ContractError, DimensionError
from tilefusion.fusion import VisualSequence

from oracle_ops import Tensor, backward, mul, sum_all
import per_image_oracle as oracle
from per_image_oracle import pad_batch

TOK = ByteTokenizer()


def visual_seq(n_tokens, width, tag_base=0.0, tensor=False):
    """One tile of tagged rows: an array, or for the per-image oracle's
    splice a Tensor that requires grad."""
    data = np.zeros((n_tokens, width))
    data[:, 0] = tag_base + np.arange(n_tokens)
    if tensor:
        data = Tensor(data, requires_grad=True)
    return VisualSequence(data, 1, (("A", n_tokens),))


def n_visual(seq):
    return int((seq.token_ids == IMG_CONTEXT_ID).sum())


def table(d=4, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal((VOCAB_SIZE, d)), requires_grad=True)


# ---------------------------------------------------------------------------
# tokenizer


def test_tokenize_empty():
    assert TOK.encode("") == []


def test_tokenize_pure_specials():
    assert TOK.encode("<img></img>") == [IMG_START_ID, IMG_END_ID]
    assert TOK.encode("<IMG-CONTEXT>") == [IMG_CONTEXT_ID]


def test_tokenize_ascii_bytes():
    assert TOK.encode("hi") == [104, 105]


def test_tokenize_mixed():
    ids = TOK.encode("a<img><IMG-CONTEXT></img>b")
    assert ids == [97, IMG_START_ID, IMG_CONTEXT_ID, IMG_END_ID, 98]


def test_near_miss_literals_stay_bytes():
    assert all(i < 256 for i in TOK.encode("<imgX"))
    assert all(i < 256 for i in TOK.encode("<IMG-CONTEX>"))
    assert all(i < 256 for i in TOK.encode("< img>"))


def test_roundtrip_1000_random_strings():
    rng = np.random.default_rng(0)
    # printable ascii minus '<' so no special literal can form by chance
    alphabet = [chr(c) for c in range(32, 127) if chr(c) != "<"]
    for _ in range(1000):
        n = int(rng.integers(0, 40))
        s = "".join(rng.choice(alphabet) for _ in range(n))
        assert TOK.decode(TOK.encode(s)) == s


def test_roundtrip_with_specials_and_unicode():
    for s in ["<img><IMG-CONTEXT></img>what?", "café <img>x</img>",
              "tile r1c2?", "<<img>>"]:
        assert TOK.decode(TOK.encode(s)) == s


def oracle_encode(text):
    """The tokenizer as first written: a left-to-right scan that tries
    each literal, longest first, at every byte offset."""
    literals = [(b"<IMG-CONTEXT>", IMG_CONTEXT_ID), (b"</img>", IMG_END_ID),
                (b"<img>", IMG_START_ID)]
    raw = text.encode("utf-8")
    ids, i = [], 0
    while i < len(raw):
        for literal, token_id in literals:
            if raw.startswith(literal, i):
                ids.append(token_id)
                i += len(literal)
                break
        else:
            ids.append(raw[i])
            i += 1
    return ids


def test_encode_equals_scan_oracle_on_random_markup():
    # whole literals, their fragments and near misses, back to back,
    # between plain and non-ASCII text
    pieces = ["<img>", "</img>", "<IMG-CONTEXT>", "<img", "</img", "<IMG-",
              "<IMG-CONTEX>", "IMG-CONTEXT>", "img>", "<", ">", "/", "<<",
              "a", "b c", "?", "é", "日本", "\u00ff", "\n", ""]
    rng = np.random.default_rng(11)
    for _ in range(2000):
        n = int(rng.integers(0, 12))
        s = "".join(pieces[k] for k in rng.integers(0, len(pieces), n))
        assert TOK.encode(s) == oracle_encode(s), s
        assert TOK.decode(TOK.encode(s)) == s


def test_encode_equals_scan_oracle_on_random_bytes_text():
    # Latin-1 text with the markup characters weighted up: many '<' and
    # near misses, which must stay plain bytes
    rng = np.random.default_rng(12)
    alphabet = "<>/-imgIMGCONTEXT" * 16 + "".join(map(chr, range(32, 256)))
    for _ in range(1000):
        n = int(rng.integers(0, 60))
        s = "".join(alphabet[k] for k in rng.integers(0, len(alphabet), n))
        assert TOK.encode(s) == oracle_encode(s), s


def test_decode_hides_structural_tokens():
    assert TOK.decode([BOS_ID, 104, 105, EOS_ID, PAD_ID]) == "hi"


def test_decode_rejects_unknown_ids():
    with pytest.raises(ContractError):
        TOK.decode([262])


# ---------------------------------------------------------------------------
# prompt templating


def test_prompt_no_images():
    assert build_prompt(0, "why?") == "why?"


def test_prompt_single_image():
    p = build_prompt(1, "safe?")
    assert p == "<img><IMG-CONTEXT></img>safe?"
    ids = TOK.encode(p)
    assert ids.count(IMG_START_ID) == 1
    assert ids.count(IMG_END_ID) == 1
    assert ids.count(IMG_CONTEXT_ID) == 1


def test_prompt_two_images_then_question():
    p = build_prompt(2, "is it safe to enter the intersection?")
    ids = TOK.encode(p)
    assert ids.count(IMG_CONTEXT_ID) == 2
    assert ids[:4] == [IMG_START_ID, IMG_CONTEXT_ID, IMG_END_ID, IMG_START_ID]
    assert p.endswith("intersection?")


def test_prompt_rejects_negative():
    with pytest.raises(ContractError):
        build_prompt(-1, "q")


# ---------------------------------------------------------------------------
# splice


def test_splice_desk_arithmetic():
    prompt = TOK.encode(build_prompt(1, "what?"))
    answer = TOK.encode("cat")
    vis = [visual_seq(224, 4)]
    seq = splice(prompt, answer, vis, table(), context_limit=512)
    want_len = 1 + 1 + 224 + 1 + 5 + 3 + 1
    assert seq.length == want_len
    assert seq.embeddings.shape == (1, want_len, 4)
    assert n_visual(seq) == 224
    visual_rows = seq.token_ids == IMG_CONTEXT_ID
    assert not seq.loss_mask[visual_rows].any()


def test_splice_mask_covers_answer_and_eos_only():
    prompt = TOK.encode(build_prompt(1, "q?"))
    answer = TOK.encode("ab")
    seq = splice(prompt, answer, [visual_seq(3, 4)], table(), 64)
    on = np.nonzero(seq.loss_mask[0])[0]
    assert list(seq.token_ids[0, on]) == [97, 98, EOS_ID]
    assert on[-1] == seq.length - 1
    assert (np.diff(on) == 1).all()
    assert seq.token_ids[0, 0] == BOS_ID and not seq.loss_mask[0, 0]


def test_splice_paper_scale_budget():
    prompt = TOK.encode(build_prompt(1, "go?"))
    answer = TOK.encode("yes")
    vis = [visual_seq(7 * 512, 2)]
    seq = splice(prompt, answer, vis, table(d=2), context_limit=8196)
    assert n_visual(seq) == 3584
    assert seq.length <= 8196


def test_splice_budget_overflow_is_hard_error():
    prompt = TOK.encode(build_prompt(1, "q"))
    answer = TOK.encode("a")
    with pytest.raises(BudgetError) as exc:
        splice(prompt, answer, [visual_seq(100, 4)], table(), context_limit=64)
    assert exc.value.required == 1 + 1 + 100 + 1 + 1 + 1 + 1
    assert exc.value.available == 64


def test_splice_pure_text():
    seq = splice(TOK.encode("ping"), TOK.encode("pong"), [], table(), 32)
    assert seq.length == 1 + 4 + 4 + 1
    assert n_visual(seq) == 0
    assert list(seq.token_ids[0]) == [BOS_ID] + TOK.encode("ping") \
        + TOK.encode("pong") + [EOS_ID]


def test_splice_marker_count_mismatch():
    prompt = TOK.encode(build_prompt(2, "q"))
    with pytest.raises(ContractError):
        splice(prompt, [97], [visual_seq(4, 4)], table(), 64)
    with pytest.raises(ContractError):
        splice(TOK.encode("q"), [97], [visual_seq(4, 4)], table(), 64)


def test_splice_rejects_marker_in_answer():
    with pytest.raises(ContractError):
        splice(TOK.encode("q"), [IMG_CONTEXT_ID], [], table(), 64)


def test_splice_rejects_width_mismatch():
    prompt = TOK.encode(build_prompt(1, "q"))
    with pytest.raises(DimensionError):
        splice(prompt, [97], [visual_seq(4, 3)], table(d=4), 64)
    prompt = TOK.encode(build_prompt(2, "q"))
    with pytest.raises(DimensionError):
        splice(prompt, [97], [visual_seq(4, 4), visual_seq(4, 3)],
               table(d=4), 64)


def test_splice_order_stability_two_images():
    prompt = TOK.encode(build_prompt(2, "q"))
    va = visual_seq(3, 4, tag_base=100.0)
    vb = visual_seq(2, 4, tag_base=200.0)
    seq = splice(prompt, [97], [va, vb], table(), 64)
    rows = np.nonzero(seq.token_ids[0] == IMG_CONTEXT_ID)[0]
    tags = seq.embeddings[0, rows, 0]
    np.testing.assert_array_equal(tags, [100.0, 101.0, 102.0, 200.0, 201.0])


def test_splice_visual_rows_carry_exact_embeddings():
    prompt = TOK.encode(build_prompt(1, "q?"))
    vs = visual_seq(5, 4, tag_base=7.0)
    seq = splice(prompt, [120], [vs], table(), 64)
    rows = np.nonzero(seq.token_ids[0] == IMG_CONTEXT_ID)[0]
    np.testing.assert_array_equal(seq.embeddings[0, rows], vs.embeddings)


def test_splice_is_splice_batch_one_row_and_records_no_graph():
    # splice, answering's assembler, is splice_batch of one sample: an
    # array batch, with no graph edge to the table
    tab = table()
    va = visual_seq(3, 4, tag_base=100.0)
    vb = visual_seq(2, 4, tag_base=200.0)
    prompt = TOK.encode(build_prompt(2, "q"))
    seq = splice(prompt, [97, 98], [va, vb], tab, 64)
    rows = np.concatenate([va.embeddings, vb.embeddings])
    want = splice_batch([(prompt, [97, 98])], [[3, 2]], rows, tab, 64)
    assert seq.embeddings.tobytes() == want.embeddings.tobytes()
    assert seq.token_ids.tobytes() == want.token_ids.tobytes()
    assert seq.loss_mask.tobytes() == want.loss_mask.tobytes()
    assert type(seq.embeddings) is np.ndarray
    assert tab.grad is None


def test_sequence_batch_validation():
    emb = np.zeros((1, 3, 2))
    with pytest.raises(DimensionError):  # ids too short
        SequenceBatch(emb, np.zeros((1, 2)), np.zeros((1, 3), dtype=bool))
    with pytest.raises(DimensionError):  # mask too short
        SequenceBatch(emb, np.zeros((1, 3)), np.zeros((1, 2), dtype=bool))
    with pytest.raises(DimensionError):  # not [B, L, d]
        SequenceBatch(np.zeros((3, 2)), np.zeros(3),
                      np.zeros(3, dtype=bool))
    batch = SequenceBatch(emb, np.zeros((1, 3)), np.zeros((1, 3)))
    assert batch.token_ids.dtype == np.int64
    assert batch.loss_mask.dtype == bool
    assert batch.length == 3


def test_splice_deterministic():
    prompt = TOK.encode(build_prompt(1, "same?"))
    a = splice(prompt, [97], [visual_seq(4, 4)], table(), 64)
    b = splice(prompt, [97], [visual_seq(4, 4)], table(), 64)
    assert a.embeddings.tobytes() == b.embeddings.tobytes()
    assert a.token_ids.tobytes() == b.token_ids.tobytes()
    assert a.loss_mask.tobytes() == b.loss_mask.tobytes()


# ---------------------------------------------------------------------------
# batching


def test_pad_batch_right_pads_with_zero_rows_and_no_loss():
    tab = table()
    short = oracle.splice(TOK.encode("ab"), [99], [], tab, 64)
    longer = oracle.splice(TOK.encode(build_prompt(1, "what?")), [97, 98],
                           [visual_seq(3, 4, tensor=True)], tab, 64)
    batch = pad_batch([short, longer])
    L = longer.length
    assert batch.embeddings.shape == (2, L, 4)
    n = short.length
    np.testing.assert_array_equal(batch.embeddings.data[0, :n],
                                  short.embeddings.data)
    np.testing.assert_array_equal(batch.embeddings.data[0, n:], 0.0)
    np.testing.assert_array_equal(batch.embeddings.data[1],
                                  longer.embeddings.data)
    assert list(batch.token_ids[0]) == list(short.token_ids) + \
        [PAD_ID] * (L - n)
    assert list(batch.loss_mask[0]) == list(short.loss_mask) + \
        [False] * (L - n)
    assert list(batch.token_ids[1]) == list(longer.token_ids)
    assert list(batch.loss_mask[1]) == list(longer.loss_mask)


def test_pad_batch_gradients_reach_each_sample_only_from_its_rows():
    tab = table()
    seqs = [oracle.splice(TOK.encode(q), [97], [], tab, 64)
            for q in ("a", "bcd")]
    batch = pad_batch(seqs)
    weights = np.random.default_rng(1).standard_normal(batch.embeddings.shape)
    backward(sum_all(mul(batch.embeddings, Tensor(weights))))
    want = np.zeros_like(tab.data)
    for b, s in enumerate(seqs):
        np.add.at(want, s.token_ids, weights[b, :s.length])
    np.testing.assert_allclose(tab.grad, want, rtol=0, atol=1e-12)


def test_pad_batch_rejects_empty_and_mixed_widths():
    with pytest.raises(ContractError):
        pad_batch([])
    a = oracle.splice([97], [], [], table(d=4), 64)
    b = oracle.splice([97], [], [], table(d=6), 64)
    with pytest.raises(DimensionError):
        pad_batch([a, b])


def batch_case():
    """Three samples: one image, pure text (padded), two images of one
    and two tiles; their rows."""
    tab = table()
    va = visual_seq(3, 4, tag_base=10.0)
    vb = visual_seq(2, 4, tag_base=20.0)
    vc = VisualSequence(visual_seq(4, 4, tag_base=30.0).embeddings, 2,
                        (("A", 2),))
    texts = [(TOK.encode(build_prompt(1, "what?")), [97, 98]),
             (TOK.encode("ab"), [99]),
             (TOK.encode(build_prompt(2, "q")), [100])]
    visuals = [[va], [], [vb, vc]]
    return tab, texts, visuals


def test_splice_batch_is_per_sample_splice_right_padded():
    tab, texts, visuals = batch_case()
    rows = np.concatenate([v.embeddings for vs in visuals for v in vs])
    counts = [[v.n_tokens for v in vs] for vs in visuals]
    batch = splice_batch(texts, counts, rows, tab, 64)
    seqs = [splice(p, a, vs, tab, 64) for (p, a), vs in zip(texts, visuals)]
    L = max(s.length for s in seqs)
    assert batch.embeddings.shape == (3, L, 4)
    for b, s in enumerate(seqs):
        n = s.length
        assert batch.embeddings[b, :n].tobytes() == \
            s.embeddings[0].tobytes()
        np.testing.assert_array_equal(batch.embeddings[b, n:], 0.0)
        assert list(batch.token_ids[b]) == list(s.token_ids[0]) + \
            [PAD_ID] * (L - n)
        assert list(batch.loss_mask[b]) == list(s.loss_mask[0]) + \
            [False] * (L - n)


def test_splice_batch_gradients_scatter_into_rows_and_table():
    # batch.backward against the composed row gather from [rows; table;
    # zero row] (oracle.splice_batch), bitwise, over pads and two images
    # of unequal tile counts
    tab, texts, visuals = batch_case()
    rows = np.concatenate([v.embeddings for vs in visuals for v in vs])
    counts = [[v.n_tokens for v in vs] for vs in visuals]
    batch = splice_batch(texts, counts, rows, tab, 64)
    weights = np.random.default_rng(2).standard_normal(batch.embeddings.shape)
    got_rows = batch.backward(weights)
    got_tab = tab.grad
    tab.zero_grad()
    rows_node = Tensor(rows, requires_grad=True)
    composed = oracle.splice_batch(texts, counts, rows_node, tab, 64)
    assert composed.embeddings.data.tobytes() == batch.embeddings.tobytes()
    backward(sum_all(mul(composed.embeddings, Tensor(weights))))
    assert got_rows.tobytes() == rows_node.grad.tobytes()
    assert got_tab.tobytes() == tab.grad.tobytes()
    # a frozen table gets nothing; the rows still do
    tab.zero_grad()
    tab.frozen = True
    assert batch.backward(weights).tobytes() == got_rows.tobytes()
    assert tab.grad is None

    want_tab = np.zeros_like(tab.data)
    want_rows = []
    for b in range(len(texts)):
        ids = batch.token_ids[b]
        text = (ids != IMG_CONTEXT_ID) & (ids != PAD_ID)
        np.add.at(want_tab, ids[text], weights[b, text])
        want_rows.append(weights[b, ids == IMG_CONTEXT_ID])
    np.testing.assert_allclose(got_tab, want_tab, rtol=0, atol=1e-12)
    # every visual row is gathered exactly once, so its gradient is exact
    assert got_rows.tobytes() == np.concatenate(want_rows).tobytes()


def test_splice_batch_rejects_bad_inputs():
    tab, texts, visuals = batch_case()
    rows = np.concatenate([v.embeddings for vs in visuals for v in vs])
    counts = [[v.n_tokens for v in vs] for vs in visuals]
    with pytest.raises(ContractError):
        splice_batch([], [], rows, tab, 64)
    with pytest.raises(ContractError):
        splice_batch(texts, counts[:2], rows, tab, 64)
    with pytest.raises(ContractError):  # rows left over
        splice_batch(texts, [[3], [], [2, 3]], rows, tab, 64)
    with pytest.raises(ContractError):  # a marker without rows
        splice_batch(texts, [[3], [], [6]], rows, tab, 64)
    with pytest.raises(DimensionError):
        splice_batch(texts, counts, rows, table(d=6), 64)
    with pytest.raises(BudgetError):
        splice_batch(texts, counts, rows, tab, 12)
