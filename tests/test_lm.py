"""Language model tests.

Causality is checked at the bit level: editing a suffix embedding must
leave every prefix logit byte-identical. Zeroing the head makes the
uniform-loss value an analytic constant, ln(vocab). The loss mask is
checked against a hand-computed cross entropy and by the all-false case
(zero loss, exactly zero gradients). A short SGD loop verifies a model
can overfit one sample and greedy-decode it back. KV-cached decode
steps are checked against uncached forwards within a stated tolerance
(1e-12 relative): one-row matmuls may round differently from a full
recompute. A one-row prompt, whose last block runs every row, must give
forward's logits bitwise, and a one-row continuation, which builds no
causal mask, must equal the same step run with its all-zero mask.
"""

import numpy as np
import pytest

from tilefusion import tensor as tz
from tilefusion.assembly import (
    BOS_ID,
    EOS_ID,
    VOCAB_SIZE,
    ByteTokenizer,
    SequenceBatch,
    build_prompt,
    splice,
)
from tilefusion.errors import (
    BudgetError,
    ConfigError,
    ContractError,
    DimensionError,
)
from tilefusion import lm as lm_module
from tilefusion.lm import KVCache, LanguageModel, LMConfig

import per_image_oracle as oracle
from oracle_ops import (Tensor, backward, concat, embedding_lookup,
                        relative_error)
from per_image_oracle import (arrays, lm_loss_node, reference_loss,
                              uncached_greedy)

TOK = ByteTokenizer()


def small_lm(d=8, layers=1, heads=2, context=64, seed=0):
    return LanguageModel(LMConfig(d_lm=d, layers=layers, heads=heads,
                                  context_limit=context), seed=seed)


def text_batch(lm, prompt_ids, answer_ids, context_limit):
    """A one-row pure-text batch from the composed training assembler
    (oracle.splice_batch), so lm.embed takes part in the graph."""
    no_rows = Tensor(np.zeros((0, lm.cfg.d_lm)))
    return oracle.splice_batch([(prompt_ids, answer_ids)], [[]], no_rows,
                               lm.embed, context_limit)


def text_sequence(lm, prompt, answer):
    return text_batch(lm, TOK.encode(prompt), TOK.encode(answer),
                      lm.cfg.context_limit)


def raw_sequence(lm, length, rng):
    """One row of random ids and their embeddings, with no loss."""
    ids = rng.integers(0, 256, size=(1, length))
    return SequenceBatch(embedding_lookup(lm.embed, ids), ids,
                         np.zeros((1, length), dtype=bool))


# ---------------------------------------------------------------------------
# config and shapes


def test_config_validation():
    with pytest.raises(ConfigError):
        LMConfig(d_lm=10, layers=1, heads=3)
    with pytest.raises(ConfigError):
        LMConfig(d_lm=8, layers=1, heads=2, context_limit=0)
    with pytest.raises(ConfigError):
        LMConfig(d_lm=8, layers=0, heads=2)


def test_single_position_logits_no_loss():
    lm = small_lm()
    rng = np.random.default_rng(0)
    seq = raw_sequence(lm, 1, rng)
    assert lm.forward(arrays(seq)).shape == (1, 1, VOCAB_SIZE)
    assert reference_loss(lm, seq).item() == 0.0


def test_logit_shape_matches_length():
    lm = small_lm()
    seq = text_sequence(lm, "hello", "world")
    assert lm.forward(arrays(seq)).shape == (1, seq.length, VOCAB_SIZE)


def test_oversize_input_is_budget_error():
    lm = small_lm(context=8)
    rng = np.random.default_rng(1)
    with pytest.raises(BudgetError):
        lm.forward(arrays(raw_sequence(lm, 9, rng)))


# ---------------------------------------------------------------------------
# loss values


def test_zero_head_loss_is_log_vocab():
    lm = small_lm(seed=3)
    lm.head.data[...] = 0.0
    seq = text_sequence(lm, "what is this?", "ans")
    loss = reference_loss(lm, seq).item()
    assert abs(loss - np.log(VOCAB_SIZE)) < 1e-9


def test_loss_matches_hand_computed_cross_entropy():
    lm = small_lm(seed=4)
    for p in lm.parameters():
        if p.name == "lm.head":
            p.data[...] = np.random.default_rng(5).standard_normal(p.shape) * 0.3
    seq = text_sequence(lm, "q", "ab")
    logits = lm.forward(arrays(seq))[0, :-1]
    targets = seq.token_ids[0, 1:]
    mask = seq.loss_mask[0, 1:]
    rows = np.nonzero(mask)[0]
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    want = -logp[rows, targets[rows]].mean()
    assert abs(reference_loss(lm, seq).item() - want) < 1e-12


def test_all_mask_false_gives_zero_loss_and_zero_grads():
    lm = small_lm(seed=6)
    rng = np.random.default_rng(7)
    seq = raw_sequence(lm, 12, rng)  # an all-false mask
    loss = reference_loss(lm, seq)
    assert loss.item() == 0.0
    backward(loss)
    for p in lm.parameters():
        if p.grad is not None:
            assert np.abs(p.grad).max() == 0.0, p.name


# ---------------------------------------------------------------------------
# LanguageModel.loss: reference_loss from the rows the loss reads


def raw_batch(lm, mask, seed):
    """Random ids and their embeddings, as one [B, L] batch."""
    mask = np.asarray(mask, dtype=bool)
    ids = np.random.default_rng(seed).integers(0, 256, size=mask.shape)
    return SequenceBatch(embedding_lookup(lm.embed, ids), ids, mask)


def loss_and_grads(lm, make_batch, loss_fn):
    for p in lm.parameters():
        p.grad = None
    loss = loss_fn(make_batch())  # a fresh graph for each backward
    backward(loss)
    return loss.item(), {p.name: p.grad for p in lm.parameters()}


def assert_loss_matches_forward(lm, mask, seed):
    def make_batch():
        return raw_batch(lm, mask, seed)

    got, got_grads = loss_and_grads(
        lm, make_batch, lambda b: lm_loss_node(lm, arrays(b)))
    want, want_grads = loss_and_grads(
        lm, make_batch, lambda b: reference_loss(lm, b))
    assert abs(got - want) <= 1e-15 * abs(want)
    for name, g in want_grads.items():
        assert relative_error(got_grads[name], g) <= 1e-12, name
    return got, got_grads


def test_loss_rejects_a_mask_shorter_than_the_ids():
    # unchecked, a short mask supervises nothing: loss 0.0, no gradient
    lm = random_head_lm(46)
    good = raw_batch(lm, [[False, False, True, True]], 47)
    with pytest.raises(DimensionError):
        lm.loss(SequenceBatch(good.embeddings, good.token_ids,
                              good.loss_mask[:, :3]))


def test_loss_of_all_false_mask_is_zero_with_zero_grads():
    lm = random_head_lm(40)
    got, grads = assert_loss_matches_forward(lm, np.zeros((3, 7)), 41)
    assert got == 0.0
    for name, g in grads.items():
        assert g is not None and not g.any(), name


def test_loss_of_one_position_sequences():
    lm = random_head_lm(42)
    got, grads = assert_loss_matches_forward(lm, [[True], [False]], 43)
    assert got == 0.0
    assert all(g is not None and not g.any() for g in grads.values())


def test_loss_of_equal_length_batch():
    lm = random_head_lm(44, layers=3)
    mask = np.zeros((3, 9), dtype=bool)
    mask[0, 7:] = True
    mask[1, 4] = mask[1, 8] = True  # the earliest read row sets the cut
    mask[2, 6:8] = True
    got, _ = assert_loss_matches_forward(lm, mask, 45)
    assert got > 0.0


# ---------------------------------------------------------------------------
# causality


def test_prefix_logits_bit_stable_under_suffix_edit():
    lm = small_lm(seed=8)
    # nonzero head so logits actually depend on the inputs
    lm.head.data[...] = np.random.default_rng(9).standard_normal(
        lm.head.shape) * 0.5
    rng = np.random.default_rng(10)
    ids = rng.integers(0, 256, size=10)
    base = lm.embed.data[ids]
    for j in [3, 7, 9]:
        bumped = base.copy()
        bumped[j] += rng.standard_normal(base.shape[1])
        seq_a = SequenceBatch(base[None], ids[None],
                              np.zeros((1, 10), dtype=bool))
        seq_b = SequenceBatch(bumped[None], ids[None],
                              np.zeros((1, 10), dtype=bool))
        la = lm.forward(seq_a)[0]
        lb = lm.forward(seq_b)[0]
        assert la[:j].tobytes() == lb[:j].tobytes(), f"prefix broke at {j}"
        assert la[j:].tobytes() != lb[j:].tobytes()


def test_attention_rows_sum_to_one_despite_mask():
    # indirect check: a one-layer model on constant embeddings produces
    # identical rows iff masked softmax renormalizes correctly
    lm = small_lm(seed=11)
    lm.head.data[...] = np.random.default_rng(12).standard_normal(
        lm.head.shape) * 0.5
    emb = np.ones((1, 5, lm.cfg.d_lm)) * 0.3
    seq = SequenceBatch(emb, np.zeros((1, 5), dtype=np.int64),
                        np.zeros((1, 5), dtype=bool))
    # constant input: position t attends over t identical values, so all
    # positions see the same mix and differ only through pos embeddings
    out = lm.forward(seq)
    assert np.isfinite(out).all()


# ---------------------------------------------------------------------------
# gradient check


def test_lm_gradient_matches_finite_differences():
    lm = small_lm(d=4, layers=1, heads=2, context=16, seed=13)
    lm.head.data[...] = np.random.default_rng(14).standard_normal(
        lm.head.shape) * 0.2
    seq_ids = TOK.encode("ab")
    ans_ids = TOK.encode("c")

    def loss_fn():
        seq = text_batch(lm, seq_ids, ans_ids, 16)
        return reference_loss(lm, seq)

    for p in lm.parameters():
        p.grad = None
    backward(loss_fn())
    for p in [lm.pos, lm.head, lm.norm_out_g,
              lm.blocks[0]["wq"], lm.blocks[0]["w1"]]:
        fd = tz.finite_difference_grad(lambda _t: loss_fn(), p)
        err = relative_error(p.grad, fd)
        assert err < 1e-4, f"{p.name}: rel err {err:.2e}"


# ---------------------------------------------------------------------------
# greedy decode


def test_greedy_zero_budget_and_empty():
    lm = small_lm()
    seq = arrays(text_sequence(lm, "q", ""))
    assert lm.greedy_decode(seq, 0) == []
    with pytest.raises(BudgetError):
        lm.greedy_decode(seq, lm.cfg.context_limit)
    with pytest.raises(ContractError):
        lm.greedy_decode(seq, -1)


def test_greedy_rejects_more_than_one_row():
    lm = small_lm()
    rng = np.random.default_rng(2)
    two = arrays(raw_batch(lm, np.zeros((2, 4)), 3))
    with pytest.raises(ContractError):
        lm.greedy_decode(two, 1)
    assert lm.greedy_decode(arrays(raw_sequence(lm, 4, rng)), 1)


def test_greedy_is_deterministic():
    lm = small_lm(seed=15)
    lm.head.data[...] = np.random.default_rng(16).standard_normal(
        lm.head.shape) * 0.5
    seq = arrays(text_sequence(lm, "abc", ""))
    a = lm.greedy_decode(seq, 5)
    b = lm.greedy_decode(arrays(text_sequence(lm, "abc", "")), 5)
    assert a == b and len(a) == 5


def test_greedy_ties_pick_lowest_id():
    lm = small_lm(seed=17)
    # zero the head: every logit equal, so argmax must return id 0
    lm.head.data[...] = 0.0
    seq = arrays(text_sequence(lm, "x", ""))
    assert lm.greedy_decode(seq, 1) == [0]


def test_overfit_one_sample_then_decode_it():
    lm = small_lm(d=16, layers=1, heads=2, context=32, seed=18)
    prompt = "2+2="
    answer = "4"
    params = lm.parameters()
    last = None
    for step in range(150):
        for p in params:
            p.grad = None
        seq = text_batch(lm, TOK.encode(prompt), TOK.encode(answer), 32)
        loss = reference_loss(lm, seq)
        backward(loss)
        for p in params:
            p.data -= 0.05 * p.grad
        last = loss.item()
    assert last < 0.05
    probe = splice(TOK.encode(prompt), [], [], lm.embed, 32)
    # drop the trailing EOS the empty answer produced; keep BOS + prompt
    trimmed = SequenceBatch(
        probe.embeddings[:, :-1],
        probe.token_ids[:, :-1],
        probe.loss_mask[:, :-1],
    )
    ids = lm.greedy_decode(trimmed, 3, eos_id=EOS_ID)
    assert TOK.decode(ids) == "4"
    assert ids[-1] == EOS_ID


# ---------------------------------------------------------------------------
# KV cache


def random_head_lm(seed, layers=2, context=64):
    lm = small_lm(d=8, layers=layers, heads=2, context=context, seed=seed)
    lm.head.data[...] = np.random.default_rng(seed + 100).standard_normal(
        lm.head.shape) * 0.5
    return lm


def one_token(lm, token_id):
    return SequenceBatch(embedding_lookup(lm.embed, [[token_id]]),
                         [[token_id]], [[False]])


def grown(seq, token_id, lm):
    step = one_token(lm, token_id)
    return SequenceBatch(
        concat([seq.embeddings, step.embeddings], axis=1),
        np.concatenate([seq.token_ids, step.token_ids], axis=1),
        np.concatenate([seq.loss_mask, step.loss_mask], axis=1))


@pytest.mark.parametrize("seed,prompt_len", [(20, 1), (21, 5), (22, 17)])
def test_cached_steps_match_uncached_forward(seed, prompt_len):
    lm = random_head_lm(seed)
    rng = np.random.default_rng(seed)
    full = raw_sequence(lm, prompt_len, rng)
    cache = KVCache()
    first = lm.decode_step(full.embeddings.data, cache)
    want = lm.forward(arrays(full))[0, -1]
    assert first.shape == (VOCAB_SIZE,)
    assert relative_error(first, want) <= 1e-12
    if prompt_len == 1:  # queries_from is 0: forward's own arithmetic
        assert first.tobytes() == want.tobytes()
    assert cache.length == prompt_len
    for token_id in rng.integers(0, 256, size=6):
        step = lm.decode_step(one_token(lm, int(token_id)).embeddings.data,
                              cache)
        full = grown(full, int(token_id), lm)
        want = lm.forward(arrays(full))[0, -1]
        assert step.shape == (VOCAB_SIZE,)
        assert relative_error(step, want) <= 1e-12
        assert cache.length == full.length


def test_cached_decode_equals_uncached_greedy_loop():
    for seed in (23, 24, 25):
        lm = random_head_lm(seed)
        seq = arrays(text_sequence(lm, f"prompt {seed}", ""))
        want = uncached_greedy(lm, seq, 8)
        assert len(want) == 8
        assert lm.greedy_decode(seq, 8) == want


def test_multi_token_continuation_matches_full_rows():
    lm = random_head_lm(26)
    rng = np.random.default_rng(27)
    seq = raw_sequence(lm, 11, rng)
    full = lm.forward(arrays(seq))[0]
    cache = KVCache()
    for a, b in ((0, 4), (4, 9), (9, 11)):
        got = lm.decode_step(seq.embeddings.data[:, a:b], cache)
        assert relative_error(got, full[b - 1]) <= 1e-12
        assert cache.length == b


def test_continuation_past_context_limit_is_budget_error():
    lm = random_head_lm(28, context=8)
    rng = np.random.default_rng(29)
    cache = KVCache()
    lm.decode_step(raw_sequence(lm, 6, rng).embeddings.data, cache)
    with pytest.raises(BudgetError):
        lm.decode_step(raw_sequence(lm, 3, rng).embeddings.data, cache)
    assert cache.length == 6
    lm.decode_step(raw_sequence(lm, 2, rng).embeddings.data, cache)
    assert cache.length == 8
    with pytest.raises(BudgetError):
        lm.decode_step(one_token(lm, 1).embeddings.data, cache)
    assert cache.length == 8


def test_one_row_step_without_mask_equals_it_with_zero_mask(monkeypatch):
    lm = random_head_lm(33, layers=3)
    prompt = raw_sequence(lm, 7, np.random.default_rng(34))
    token = one_token(lm, 65).embeddings.data

    def continuation():
        cache = KVCache()
        lm.decode_step(prompt.embeddings.data, cache)
        return lm.decode_step(token, cache)

    free = continuation()
    real = lm_module.block_forward
    masked = []

    def with_mask(x, blk, heads, mask, cache, layer, queries_from=0):
        if mask is None:  # the causal mask the step skipped: all zeros
            mask = lm._causal(1, x.shape[1], cache.length)
            assert mask.shape == (1, 2, 1, 8) and not mask.any()
            masked.append(layer)
        return real(x, blk, heads, mask, cache, layer,
                    queries_from=queries_from)

    monkeypatch.setattr(lm_module, "block_forward", with_mask)
    got = continuation()
    assert masked == [0, 1, 2]
    assert got.tobytes() == free.tobytes()


def spy_step_rows(monkeypatch):
    """The row count of every decode_step call, in order."""
    rows = []
    original = LanguageModel.decode_step

    def spy(self, x, cache):
        rows.append(x.shape[1])
        return original(self, x, cache)

    monkeypatch.setattr(LanguageModel, "decode_step", spy)
    return rows


def test_greedy_budget_counts_only_the_positions_it_runs(monkeypatch):
    # the last emitted token is never run: a 6-token prompt and 3 new
    # tokens run 6 + 2 = 8 positions, which a context of 8 holds
    lengths = spy_step_rows(monkeypatch)
    lm = random_head_lm(31, context=8)
    prompt = raw_sequence(lm, 6, np.random.default_rng(32))
    prompt = arrays(prompt)
    assert len(lm.greedy_decode(prompt, 3)) == 3
    assert lengths == [6, 1, 1]
    assert sum(lengths) == 8
    with pytest.raises(BudgetError) as err:
        lm.greedy_decode(prompt, 4)
    assert (err.value.required, err.value.available) == (9, 8)


def test_greedy_runs_prompt_once_then_one_position_per_token(monkeypatch):
    lengths = spy_step_rows(monkeypatch)
    lm = random_head_lm(30)
    seq = arrays(text_sequence(lm, "count", ""))
    emitted = lm.greedy_decode(seq, 5)
    assert len(emitted) == 5
    assert lengths == [seq.length] + [1] * 4

    # stopping at EOS: still one step per emitted token, none after
    lengths.clear()
    emitted = lm.greedy_decode(seq, 5, eos_id=emitted[2])
    assert len(emitted) == 3
    assert lengths == [seq.length, 1, 1]
