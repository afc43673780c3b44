"""The fused transformer block against its composed oracle.

transformer.block_forward runs the block on arrays with a hand-derived
backward, which the tests make one graph node (fused_block);
tests/block_oracle.py builds the same block from tensor primitives.
The two must agree bitwise, output and every gradient, with and without
a mask, with queries_from > 0, after a pre-filled KV cache, and with
some parameters frozen. Finite differences check the
fused node's gradients independently of both backward passes.
"""

import tracemalloc

import numpy as np
import pytest

import block_oracle
from oracle_ops import (Tensor, as_node, backward, mul, relative_error,
                        sum_all)
from test_tensor import assert_freed_by_refcount
from tilefusion import tensor as tz
from tilefusion.errors import DimensionError
from tilefusion.transformer import KVCache, block_forward, init_block

HEADS = 2
D = 8
NEG_INF = -1e30


def fused_block(x, blk, heads, mask=None, cache=None, layer=0,
                queries_from=0):
    """block_forward as one graph node over x and the block's
    parameters."""
    data, block_backward = block_forward(x.data, blk, heads, mask, cache,
                                         layer, queries_from)
    return as_node(data, lambda g: tz._accum(x, block_backward(g)),
                   (x,) + tuple(blk.values()))


def make_case(n, t, queries_from=0, masked=False, past=0, seed=0):
    """Fresh block parameters, input, mask, cache and output weights."""
    rng = np.random.default_rng(seed)
    blk = init_block("blk", D, rng)
    for p in blk.values():  # off the init values, so no gradient is trivial
        p.data[...] += 0.3 * rng.standard_normal(p.shape)
    x = Tensor(rng.standard_normal((n, t, D)), requires_grad=True)
    hd = D // HEADS
    cached = (rng.standard_normal((n, HEADS, past, hd)),
              rng.standard_normal((n, HEADS, past, hd)))
    mask = None
    if masked:
        causal = np.where(np.arange(past + t)[None, :]
                          > past + np.arange(t)[:, None], NEG_INF, 0.0)
        mask = np.broadcast_to(causal, (n, HEADS, t, past + t))
    weights = Tensor(rng.standard_normal((n, t - queries_from, D)))

    def cache():
        if not past:
            return None
        c = KVCache()
        c.keys.append(cached[0].copy())
        c.values.append(cached[1].copy())
        c.length = past
        return c

    def loss(block):
        out = block(x, blk, HEADS, mask, cache(), 0,
                    queries_from=queries_from)
        return sum_all(mul(out, weights)), out

    return x, blk, loss


CASES = {
    "plain": dict(n=3, t=7),
    "masked": dict(n=2, t=9, masked=True),
    "queries-from": dict(n=3, t=11, queries_from=4, masked=True),
    "queries-from-unmasked": dict(n=2, t=6, queries_from=5),
    "pre-filled-cache": dict(n=2, t=3, masked=True, past=5),
    "one-position-continuation": dict(n=1, t=1, masked=True, past=4),
}


def grads(x, blk, loss, block):
    for t in [x, *blk.values()]:
        t.grad = None
    value, out = loss(block)
    backward(value)
    return out.data, [t.grad for t in [x, *blk.values()]]


@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_block_equals_composed_oracle_bitwise(case):
    x, blk, loss = make_case(**CASES[case])
    got_out, got = grads(x, blk, loss, fused_block)
    want_out, want = grads(x, blk, loss, block_oracle.run_block)
    assert got_out.tobytes() == want_out.tobytes()
    names = ["x", *blk]
    for name, g, w in zip(names, got, want):
        assert g is not None, name
        assert g.tobytes() == w.tobytes(), name


@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_block_gradients_match_finite_differences(case):
    x, blk, loss = make_case(**CASES[case])
    _, got = grads(x, blk, loss, fused_block)
    rng = np.random.default_rng(1)
    for t, g in zip([x, *blk.values()], got):
        idx = rng.choice(t.data.size, size=min(t.data.size, 5),
                         replace=False)
        fd = tz.finite_difference_grad_at(
            lambda _t: loss(fused_block)[0], t, idx)
        assert relative_error(g.reshape(-1)[idx], fd) < 1e-4


def test_fused_block_accumulates_only_into_what_requires_grad():
    x, blk, loss = make_case(n=2, t=5, masked=True)
    left_out = [blk[k] for k in ("norm1.g", "wk", "b1", "w2")]
    for p in left_out:
        p.frozen = True
    got_out, got = grads(x, blk, loss, fused_block)
    want_out, want = grads(x, blk, loss, block_oracle.run_block)
    assert got_out.tobytes() == want_out.tobytes()
    for t, g, w in zip([x, *blk.values()], got, want):
        if any(t is p for p in left_out):
            assert g is None and w is None
        else:
            assert g.tobytes() == w.tobytes()


def test_fused_block_rejects_bad_mask_and_query_range():
    x, blk, _ = make_case(n=2, t=4)
    with pytest.raises(DimensionError):
        fused_block(x, blk, HEADS, np.zeros((2, HEADS, 3, 4)))
    for queries_from in (-1, 4):
        with pytest.raises(DimensionError):
            fused_block(x, blk, HEADS, queries_from=queries_from)


def test_fused_block_graph_freed_without_cyclic_gc():
    def build():
        _, _, loss = make_case(n=2, t=5, queries_from=2, masked=True)
        return loss(fused_block)  # (loss, the block's output node)

    assert_freed_by_refcount(build)


def test_block_forward_allocates_no_second_score_array():
    # encoder B's shape: 256 patch tokens, so the [1, 2, 256, 256]
    # scores (1 MB) are the block's largest array; scaling, softmax and
    # all must run in the buffer the score matmul returns
    rng = np.random.default_rng(5)
    t = 256
    blk = init_block("blk", D, rng)
    x = Tensor(rng.standard_normal((1, t, D)))
    for p in blk.values():
        p.frozen = True
    fused_block(x, blk, HEADS)  # warm numpy's caches outside the trace
    scores_nbytes = 1 * HEADS * t * t * 8
    tracemalloc.start()
    try:
        out = fused_block(x, blk, HEADS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (1, t, D)
    assert peak < 2 * scores_nbytes, (peak, scores_nbytes)
