"""Tensor substrate tests.

The load-bearing oracle is finite differences: every differentiable
primitive's reverse-mode gradient is checked against a central-difference
estimate on repeated random small tensors, relative error under 1e-4 at
eps=1e-5 in float64. Structural facts (shape algebra, inverse pairs,
normalization) are asserted directly. The graph and its ops are not
in src/ (it runs every path on arrays, and a training step's backward
is one closure); they are checked here as what tests/oracle_ops.py
keeps for the composed oracles and the tests.
"""

import gc
import weakref

import numpy as np
import pytest

from tilefusion import tensor as tz
from tilefusion.datagen import Sample
from tilefusion.encoders import EncoderConfig
from tilefusion.errors import ContractError, DimensionError
from tilefusion.lm import LMConfig
from tilefusion.model import Pipeline, PipelineConfig
from tilefusion.tensor import (
    Parameter,
    finite_difference_grad,
    layernorm_forward,
    softmax_forward,
)
from tilefusion.tiling import ImageBuffer

from oracle_ops import (
    OPS,
    Tensor,
    add,
    add_rowvec,
    backward,
    concat,
    embedding_lookup,
    gelu,
    layernorm,
    masked_cross_entropy,
    matmul,
    mul,
    mul_scalar,
    permute,
    relative_error,
    reshape,
    slice_axis,
    softmax_lastdim,
    sum_all,
)
from per_image_oracle import uncached_tokens

N_RANDOM_CASES = 20
FD_EPS = 1e-5
GRAD_TOL = 1e-4


def rand_tensor(rng, shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def check_grads(f, inputs):
    """Compare reverse-mode grads of scalar f(*inputs) against the oracle.

    f must be a pure function of the listed tensors. Each input is checked
    with the others held fixed.
    """
    for t in inputs:
        t.zero_grad()
    loss = f()
    backward(loss)
    for t in inputs:
        got = t.grad
        assert got is not None, "input received no gradient"
        want = finite_difference_grad(lambda _unused: f(), t, eps=FD_EPS)
        err = relative_error(got, want)
        assert err < GRAD_TOL, f"grad mismatch: rel err {err:.3e}"


# ---------------------------------------------------------------------------
# structural examples


def test_matmul_shape():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((3, 4)))
    assert matmul(a, b).shape == (2, 4)


def test_reshape_roundtrip_bit_exact():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 12)))
    back = reshape(reshape(x, (3, 4)), (1, 12))
    assert back.data.tobytes() == x.data.tobytes()


def test_permute_roundtrip_bit_exact():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((2, 3, 4)))
    back = permute(permute(x, (2, 0, 1)), (1, 2, 0))
    assert back.shape == x.shape
    assert back.data.tobytes() == x.data.tobytes()


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = Tensor(rng.standard_normal((4, 7)) * 5.0)
        p = softmax_lastdim(x)
        np.testing.assert_allclose(p.data.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        assert (p.data >= 0).all()


def test_pixelwise_ops_reject_shape_mismatch():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((3, 2)))
    with pytest.raises(DimensionError):
        add(a, b)
    with pytest.raises(DimensionError):
        mul(a, b)
    with pytest.raises(DimensionError):
        matmul(a, Tensor(np.zeros((4, 2))))


def test_parameter_flags():
    p = Parameter("lm.head", np.zeros((2, 2)))
    assert not p.frozen and p.grad is None
    q = Parameter("encoderA.embed", np.zeros(3), frozen=True)
    assert q.frozen


# ---------------------------------------------------------------------------
# backward: examples and contract


def test_backward_of_sum_is_ones():
    x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
    backward(sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_frozen_weight_does_not_block_flow():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    w = Parameter("w", rng.standard_normal((3, 4)), frozen=True)
    backward(sum_all(matmul(x, w)))
    assert w.grad is None, "a frozen parameter takes no gradient"
    want = np.ones((2, 4)) @ w.data.T
    np.testing.assert_allclose(x.grad, want, rtol=1e-12)
    assert np.abs(x.grad).max() > 0


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        backward(add(x, x))


def test_grads_accumulate_until_cleared():
    x = Tensor(np.ones(3), requires_grad=True)
    backward(sum_all(x))
    backward(sum_all(x))
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0))
    x.zero_grad()
    assert x.grad is None


def test_seed_grad_scales_gradients():
    x = Tensor(np.ones(4), requires_grad=True)
    backward(sum_all(x), seed_grad=0.25)
    np.testing.assert_array_equal(x.grad, np.full(4, 0.25))


def test_no_grad_input_stays_clean():
    x = Tensor(np.ones((2, 2)))
    y = Tensor(np.ones((2, 2)), requires_grad=True)
    backward(sum_all(mul(x, y)))
    assert x.grad is None
    np.testing.assert_array_equal(y.grad, np.ones((2, 2)))


def test_deep_chain_does_not_hit_recursion_limit():
    x = Tensor(np.ones(2), requires_grad=True)
    y = x
    for _ in range(3000):
        y = mul_scalar(y, 1.0)
    backward(sum_all(y))
    np.testing.assert_array_equal(x.grad, np.ones(2))


# ---------------------------------------------------------------------------
# finite-difference oracle sanity


def test_fd_sum_of_squares():
    x = Tensor(np.array([1.0, 2.0]))
    got = finite_difference_grad(lambda t: sum_all(mul(t, t)), x)
    np.testing.assert_allclose(got, [2.0, 4.0], rtol=0, atol=1e-6)


def test_fd_layernorm_matches_backward():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
    gamma = Tensor(rng.standard_normal(6) + 1.0, requires_grad=True)
    beta = Tensor(rng.standard_normal(6), requires_grad=True)
    backward(sum_all(layernorm(x, gamma, beta)))
    want = finite_difference_grad(
        lambda t: sum_all(layernorm(t, gamma, beta)), x, eps=FD_EPS
    )
    assert relative_error(x.grad, want) < GRAD_TOL


def test_fd_constant_function_is_zero():
    x = Tensor(np.array([3.0, -1.0, 0.5]))
    got = finite_difference_grad(lambda t: 7.0, x)
    np.testing.assert_array_equal(got, np.zeros(3))


def test_fd_rejects_bad_eps():
    with pytest.raises(ContractError):
        finite_difference_grad(lambda t: sum_all(t), Tensor(np.ones(2)), eps=0.0)


# ---------------------------------------------------------------------------
# per-primitive gradient checks against the oracle


def test_grad_matmul_2d():
    rng = np.random.default_rng(10)
    for _ in range(N_RANDOM_CASES):
        a = rand_tensor(rng, (2, 3))
        b = rand_tensor(rng, (3, 4))
        r = Tensor(rng.standard_normal((2, 4)))
        check_grads(lambda: sum_all(mul(matmul(a, b), r)), [a, b])


def test_grad_matmul_batched():
    rng = np.random.default_rng(11)
    for _ in range(N_RANDOM_CASES):
        a = rand_tensor(rng, (2, 3, 4))
        b = rand_tensor(rng, (2, 4, 2))
        r = Tensor(rng.standard_normal((2, 3, 2)))
        check_grads(lambda: sum_all(mul(matmul(a, b), r)), [a, b])


def test_grad_matmul_stacked_times_shared():
    rng = np.random.default_rng(12)
    for _ in range(N_RANDOM_CASES):
        a = rand_tensor(rng, (3, 2, 4))
        b = rand_tensor(rng, (4, 5))
        r = Tensor(rng.standard_normal((3, 2, 5)))
        check_grads(lambda: sum_all(mul(matmul(a, b), r)), [a, b])


def test_grad_add():
    rng = np.random.default_rng(13)
    for _ in range(N_RANDOM_CASES):
        a = rand_tensor(rng, (3, 4))
        b = rand_tensor(rng, (3, 4))
        r = Tensor(rng.standard_normal((3, 4)))
        check_grads(lambda: sum_all(mul(add(a, b), r)), [a, b])


def test_grad_add_rowvec():
    rng = np.random.default_rng(14)
    for _ in range(N_RANDOM_CASES):
        x = rand_tensor(rng, (2, 3, 4))
        v = rand_tensor(rng, (4,))
        r = Tensor(rng.standard_normal((2, 3, 4)))
        check_grads(lambda: sum_all(mul(add_rowvec(x, v), r)), [x, v])


def test_grad_mul():
    rng = np.random.default_rng(15)
    for _ in range(N_RANDOM_CASES):
        a = rand_tensor(rng, (4, 3))
        b = rand_tensor(rng, (4, 3))
        check_grads(lambda: sum_all(mul(a, b)), [a, b])


def test_grad_mul_scalar():
    rng = np.random.default_rng(16)
    for _ in range(N_RANDOM_CASES):
        x = rand_tensor(rng, (3, 4))
        s = float(rng.standard_normal())
        r = Tensor(rng.standard_normal((3, 4)))
        check_grads(lambda: sum_all(mul(mul_scalar(x, s), r)), [x])


def test_grad_reshape():
    rng = np.random.default_rng(17)
    for _ in range(N_RANDOM_CASES):
        x = rand_tensor(rng, (2, 6))
        r = Tensor(rng.standard_normal((3, 4)))
        check_grads(lambda: sum_all(mul(reshape(x, (3, 4)), r)), [x])


def test_grad_permute():
    rng = np.random.default_rng(18)
    for _ in range(N_RANDOM_CASES):
        x = rand_tensor(rng, (2, 3, 4))
        r = Tensor(rng.standard_normal((4, 2, 3)))
        check_grads(lambda: sum_all(mul(permute(x, (2, 0, 1)), r)), [x])


def test_grad_softmax_lastdim():
    rng = np.random.default_rng(19)
    for _ in range(N_RANDOM_CASES):
        x = rand_tensor(rng, (3, 5), scale=2.0)
        r = Tensor(rng.standard_normal((3, 5)))
        check_grads(lambda: sum_all(mul(softmax_lastdim(x), r)), [x])


def test_grad_layernorm():
    rng = np.random.default_rng(20)
    for _ in range(N_RANDOM_CASES):
        x = rand_tensor(rng, (4, 6))
        gamma = Tensor(rng.standard_normal(6) + 1.0, requires_grad=True)
        beta = rand_tensor(rng, (6,))
        r = Tensor(rng.standard_normal((4, 6)))
        check_grads(lambda: sum_all(mul(layernorm(x, gamma, beta), r)), [x, gamma, beta])


def test_grad_gelu():
    rng = np.random.default_rng(21)
    for _ in range(N_RANDOM_CASES):
        x = rand_tensor(rng, (3, 4), scale=2.0)
        r = Tensor(rng.standard_normal((3, 4)))
        check_grads(lambda: sum_all(mul(gelu(x), r)), [x])


def test_grad_embedding_lookup():
    rng = np.random.default_rng(22)
    for _ in range(N_RANDOM_CASES):
        table = rand_tensor(rng, (7, 4))
        ids = rng.integers(0, 7, size=5)
        r = Tensor(rng.standard_normal((5, 4)))
        check_grads(lambda: sum_all(mul(embedding_lookup(table, ids), r)), [table])


def test_grad_concat():
    rng = np.random.default_rng(23)
    for _ in range(N_RANDOM_CASES):
        parts = [rand_tensor(rng, (2, k)) for k in (1, 3, 2)]
        r = Tensor(rng.standard_normal((2, 6)))
        check_grads(lambda: sum_all(mul(concat(parts, axis=1), r)), parts)


def test_grad_slice():
    rng = np.random.default_rng(24)
    for _ in range(N_RANDOM_CASES):
        x = rand_tensor(rng, (4, 6))
        r = Tensor(rng.standard_normal((4, 3)))
        check_grads(lambda: sum_all(mul(slice_axis(x, 1, 1, 4), r)), [x])


def test_grad_add_rowvec_trailing_tensor():
    # positional embeddings [T, d] added to every sequence of [N, T, d]
    rng = np.random.default_rng(25)
    for _ in range(N_RANDOM_CASES):
        x = rand_tensor(rng, (5, 3, 4))
        v = rand_tensor(rng, (3, 4))
        r = Tensor(rng.standard_normal((5, 3, 4)))
        check_grads(lambda: sum_all(mul(add_rowvec(x, v), r)), [x, v])


def test_grad_masked_cross_entropy():
    rng = np.random.default_rng(26)
    for _ in range(N_RANDOM_CASES):
        logits = rand_tensor(rng, (6, 9), scale=2.0)
        targets = rng.integers(0, 9, size=6)
        mask = rng.integers(0, 2, size=6).astype(bool)
        if not mask.any():
            mask[0] = True
        check_grads(lambda: masked_cross_entropy(logits, targets, mask), [logits])


def test_grad_masked_cross_entropy_with_batch_axis():
    rng = np.random.default_rng(28)
    for _ in range(N_RANDOM_CASES):
        logits = rand_tensor(rng, (3, 6, 9), scale=2.0)
        targets = rng.integers(0, 9, size=(3, 6))
        mask = rng.integers(0, 2, size=(3, 6)).astype(bool)
        mask[0, 0] = True
        check_grads(lambda: masked_cross_entropy(logits, targets, mask), [logits])


# ---------------------------------------------------------------------------
# op-specific behavior


def test_embedding_rejects_out_of_range_ids():
    table = Tensor(np.zeros((4, 2)))
    with pytest.raises(DimensionError):
        embedding_lookup(table, [0, 4])
    with pytest.raises(DimensionError):
        embedding_lookup(table, [-1])


def test_slice_rejects_out_of_bounds():
    x = Tensor(np.zeros((3, 3)))
    with pytest.raises(DimensionError):
        slice_axis(x, 0, 1, 5)
    with pytest.raises(DimensionError):
        slice_axis(x, 1, -1, 2)


def test_permute_rejects_bad_axes():
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        permute(x, (0, 0))


def test_reshape_rejects_size_change():
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        reshape(x, (2, 4))


def test_layernorm_rejects_bad_affine_shape():
    x = Tensor(np.zeros((2, 6)))
    with pytest.raises(DimensionError):
        layernorm(x, Tensor(np.ones(5)), Tensor(np.zeros(6)))


def test_concat_rejects_incompatible_shapes():
    with pytest.raises(DimensionError):
        concat([Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2)))], axis=1)
    with pytest.raises(ContractError):
        concat([], axis=0)


def test_add_rowvec_shapes():
    x = Tensor(np.zeros((5, 3, 4)))
    assert add_rowvec(x, Tensor(np.ones(4))).shape == (5, 3, 4)
    assert add_rowvec(x, Tensor(np.ones((3, 4)))).shape == (5, 3, 4)
    assert add_rowvec(x, Tensor(np.ones((5, 3, 4)))).shape == (5, 3, 4)
    for bad in ((3,), (4, 3), (2, 3, 4), (1, 5, 3, 4)):
        with pytest.raises(DimensionError):
            add_rowvec(x, Tensor(np.zeros(bad)))
    with pytest.raises(DimensionError):
        add_rowvec(x, Tensor(np.float64(1.0)))


def test_masked_ce_empty_mask_is_zero_loss_zero_grad():
    logits = Tensor(np.random.default_rng(5).standard_normal((3, 4)),
                    requires_grad=True)
    loss = masked_cross_entropy(logits, [0, 1, 2], [False, False, False])
    assert loss.item() == 0.0
    backward(loss)
    np.testing.assert_array_equal(logits.grad, np.zeros((3, 4)))


def test_masked_ce_uniform_logits_give_log_vocab():
    v = 11
    logits = Tensor(np.zeros((4, v)))
    loss = masked_cross_entropy(logits, [1, 2, 3, 4], [True] * 4)
    np.testing.assert_allclose(loss.item(), np.log(v), rtol=0, atol=1e-12)


def test_masked_ce_batch_is_bitwise_the_chained_sample_means():
    # seven samples: 1/7 is inexact and seven sums can round by order
    rng = np.random.default_rng(27)
    for _ in range(N_RANDOM_CASES):
        data = rng.standard_normal((7, 5, 9)) * 3.0
        targets = rng.integers(0, 9, size=(7, 5))
        mask = rng.integers(0, 2, size=(7, 5)).astype(bool)
        mask[2] = False  # a sample with nothing to predict adds 0.0
        mask[:, 0] = mask[:, 0] | (np.arange(7) != 2)
        logits = Tensor(data.copy(), requires_grad=True)
        loss = masked_cross_entropy(logits, targets, mask)
        backward(loss, seed_grad=0.3)
        rows = [Tensor(data[b].copy(), requires_grad=True) for b in range(7)]
        per = [masked_cross_entropy(r, targets[b], mask[b])
               for b, r in enumerate(rows)]
        total = per[0]
        for extra in per[1:]:
            total = add(total, extra)
        want = mul_scalar(total, 1.0 / 7)
        backward(want, seed_grad=0.3)
        assert loss.data.tobytes() == want.data.tobytes()
        for b, r in enumerate(rows):
            assert logits.grad[b].tobytes() == r.grad.tobytes()
        np.testing.assert_array_equal(logits.grad[2], np.zeros((5, 9)))


def test_masked_ce_rejects_bad_shapes():
    logits = Tensor(np.zeros((3, 4)))
    with pytest.raises(DimensionError):
        masked_cross_entropy(logits, [0, 1], [True, False])
    with pytest.raises(DimensionError):
        masked_cross_entropy(Tensor(np.zeros((2, 3, 4))), [0, 1], [True, True])


def test_ops_registry_covers_contract_kinds():
    required = {
        "matmul", "add", "mul-scalar", "softmax-lastdim", "layernorm",
        "gelu", "embedding-lookup", "concat-along-axis", "slice",
    }
    assert required <= set(OPS)


# ---------------------------------------------------------------------------
# determinism


def run_fixed_graph(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    w = Parameter("w", rng.standard_normal((5, 4)))
    g = Tensor(rng.standard_normal(4) + 1.0, requires_grad=True)
    b = Tensor(rng.standard_normal(4), requires_grad=True)
    h = gelu(add_rowvec(matmul(x, w), b))
    out = layernorm(h, g, b)
    loss = masked_cross_entropy(out, [0, 1, 2], [True, True, False])
    backward(loss)
    return loss.data.tobytes() + x.grad.tobytes() + w.grad.tobytes()


def test_graph_evaluation_is_deterministic():
    assert run_fixed_graph(123) == run_fixed_graph(123)
    assert run_fixed_graph(123) != run_fixed_graph(124)


# ---------------------------------------------------------------------------
# graph lifetime: freed by reference counting, never by the cyclic GC


def graph_nodes(loss):
    """Every tensor reachable from loss through recorded edges."""
    seen = {id(loss): loss}
    stack = [loss]
    while stack:
        for child in stack.pop()._prev:
            if id(child) not in seen:
                seen[id(child)] = child
                stack.append(child)
    return list(seen.values())


def _mask(rng):
    mask = rng.integers(0, 2, size=6).astype(bool)
    mask[0] = True
    return mask


# One op output per primitive and per oracle shape op, built from the
# inputs of its gradient check above; the empty-mask cross entropy has
# its own closure.
CYCLE_CASES = {
    "matmul": lambda rng: matmul(rand_tensor(rng, (3, 2, 4)),
                                 rand_tensor(rng, (4, 5))),
    "add": lambda rng: add(rand_tensor(rng, (3, 4)), rand_tensor(rng, (3, 4))),
    "add-rowvec": lambda rng: add_rowvec(rand_tensor(rng, (2, 3, 4)),
                                         rand_tensor(rng, (4,))),
    "mul": lambda rng: mul(rand_tensor(rng, (4, 3)), rand_tensor(rng, (4, 3))),
    "mul-scalar": lambda rng: mul_scalar(rand_tensor(rng, (3, 4)), -1.5),
    "reshape": lambda rng: reshape(rand_tensor(rng, (2, 6)), (3, 4)),
    "permute": lambda rng: permute(rand_tensor(rng, (2, 3, 4)), (2, 0, 1)),
    "softmax-lastdim": lambda rng: softmax_lastdim(rand_tensor(rng, (3, 5))),
    "layernorm": lambda rng: layernorm(rand_tensor(rng, (4, 6)),
                                       rand_tensor(rng, (6,)),
                                       rand_tensor(rng, (6,))),
    "gelu": lambda rng: gelu(rand_tensor(rng, (3, 4))),
    "embedding-lookup": lambda rng: embedding_lookup(
        rand_tensor(rng, (7, 4)), rng.integers(0, 7, size=5)),
    "concat-along-axis": lambda rng: concat(
        [rand_tensor(rng, (2, k)) for k in (1, 3, 2)], axis=1),
    "slice": lambda rng: slice_axis(rand_tensor(rng, (4, 6)), 1, 1, 4),
    "add-rowvec-trailing-tensor": lambda rng: add_rowvec(
        rand_tensor(rng, (5, 3, 4)), rand_tensor(rng, (3, 4))),
    "sum": lambda rng: sum_all(rand_tensor(rng, (3, 4))),
    "masked-cross-entropy": lambda rng: masked_cross_entropy(
        rand_tensor(rng, (6, 9)), rng.integers(0, 9, size=6), _mask(rng)),
    "masked-cross-entropy-empty": lambda rng: masked_cross_entropy(
        rand_tensor(rng, (6, 9)), rng.integers(0, 9, size=6),
        np.zeros(6, dtype=bool)),
}


def assert_freed_by_refcount(build):
    """build() -> (loss, interior node). With the cyclic GC off, dropping
    the loss after backward must free the node and leave no garbage."""
    gc.collect()
    gc.disable()
    try:
        loss, node = build()
        backward(loss)
        assert node.grad is not None
        node_closure = weakref.ref(node._backward)
        del loss, node
        assert node_closure() is None, "graph node outlived its loss"
        assert gc.collect() == 0, "graph left cyclic garbage"
    finally:
        gc.enable()


def test_cycle_cases_cover_every_primitive():
    assert set(OPS) <= set(CYCLE_CASES)


@pytest.mark.parametrize("kind", sorted(CYCLE_CASES))
def test_op_graph_freed_without_cyclic_gc(kind):
    def build():
        out = CYCLE_CASES[kind](np.random.default_rng(30))
        return sum_all(mul_scalar(out, 0.5)), out

    assert_freed_by_refcount(build)


def test_pipeline_graph_freed_without_cyclic_gc():
    enc_a = EncoderConfig(patch_size=4, embed_dim=8, depth=1, heads=2,
                          grid_side=8, unshuffle_r=2)
    enc_b = EncoderConfig(patch_size=2, embed_dim=8, depth=1, heads=2,
                          grid_side=16, unshuffle_r=4)
    pipe = Pipeline(PipelineConfig(
        encoder_a=enc_a, encoder_b=enc_b,
        lm=LMConfig(d_lm=16, layers=1, heads=2, context_limit=160),
        max_tiles=6, projector_hidden=8), seed=0)
    img = ImageBuffer(np.random.default_rng(31).random((32, 64, 3)))

    samples = [Sample([img], "what?", "ab")]
    gc.collect()
    gc.disable()
    try:
        # a step's backward is one closure, run by tensor.backward
        value, step_backward = pipe.loss(samples,
                                         uncached_tokens(pipe, samples))
        tz.backward(step_backward)
        assert pipe.projector_a.w1.grad is not None
        closure = weakref.ref(step_backward)
        del value, step_backward
        assert closure() is None, "the step's closure outlived the step"
        assert gc.collect() == 0, "the step left cyclic garbage"
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# gradient accumulation: fresh buffers, exact values


def check_accumulated(f, leaves):
    """backward(f()) against the oracle; every grad in the graph is its
    own buffer with its tensor's shape and strides."""
    loss = f()
    backward(loss)
    for t in leaves:
        want = finite_difference_grad(lambda _unused: f(), t, eps=FD_EPS)
        assert relative_error(t.grad, want) < GRAD_TOL
    nodes = [n for n in graph_nodes(loss) if n.grad is not None]
    assert all(t in nodes for t in leaves)
    for n in nodes:
        assert n.grad.shape == n.data.shape
        assert n.grad.strides == n.data.strides
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            assert not np.shares_memory(a.grad, b.grad)
    return loss


def test_accumulate_add_of_a_tensor_with_itself():
    rng = np.random.default_rng(40)
    x = rand_tensor(rng, (3, 4))
    r = Tensor(rng.standard_normal((3, 4)))
    check_accumulated(lambda: sum_all(mul(add(x, x), r)), [x])


def test_accumulate_add_inputs_sharing_one_upstream_grad():
    rng = np.random.default_rng(41)
    a = rand_tensor(rng, (3, 4))
    b = rand_tensor(rng, (3, 4))
    r = Tensor(rng.standard_normal((3, 4)))
    check_accumulated(lambda: sum_all(mul(add(a, b), r)), [a, b])


def test_accumulate_through_reshape_and_permute_views():
    rng = np.random.default_rng(42)
    x = rand_tensor(rng, (2, 3, 4))
    r = Tensor(rng.standard_normal((4, 6)))

    def f():
        y = permute(x, (2, 0, 1))           # a transposed view of x
        z = add(reshape(y, (4, 6)), reshape(permute(x, (2, 0, 1)), (4, 6)))
        return sum_all(mul(z, r))

    loss = check_accumulated(f, [x])
    assert any(not n.data.flags["C_CONTIGUOUS"] for n in graph_nodes(loss))


def test_negative_zero_only_contribution_becomes_positive_zero():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    backward(sum_all(mul_scalar(x, -0.0)))
    np.testing.assert_array_equal(x.grad, np.zeros((2, 3)))
    assert not np.signbit(x.grad).any()


# ---------------------------------------------------------------------------
# array kernels against their plain formulas


def layernorm_mean_var(x, gamma, beta, eps=1e-5):
    """The two-pass formula layernorm_forward replaced: numpy's mean and
    var, a fresh array per step."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    out = xhat * gamma
    out += beta
    return out, xhat, inv


@pytest.mark.parametrize("shape", [(8, 42, 32), (1, 256, 8), (3, 5, 1)])
@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_layernorm_forward_bitwise_equals_mean_var(shape, offset):
    rng = np.random.default_rng(43)
    x = offset + rng.standard_normal(shape)
    gamma = rng.standard_normal(shape[-1])
    beta = rng.standard_normal(shape[-1])
    before = x.copy()
    got = layernorm_forward(x, gamma, beta)
    want = layernorm_mean_var(x, gamma, beta)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    assert x.tobytes() == before.tobytes()


def test_softmax_forward_in_place_equals_fresh_and_default_is_pure():
    rng = np.random.default_rng(44)
    x = rng.standard_normal((2, 3, 5, 7)) * 30.0
    x[0, 0, 0, :3] = -1e30  # masked entries, as in causal attention
    before = x.copy()
    fresh = softmax_forward(x)
    assert x.tobytes() == before.tobytes()
    assert fresh.tobytes() == softmax_forward(x.copy()).tobytes()
    buf = x.copy()
    out = softmax_forward(buf, out=buf)
    assert out is buf
    assert out.tobytes() == fresh.tobytes()
