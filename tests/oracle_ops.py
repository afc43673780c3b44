"""Tensor ops that only the test oracles and checks compose, and the
op registry.

src/ runs the transformer block, the encoders and the projectors on
arrays (the block and the projectors inside one fused node each), so it
has no graph op that moves elements between axes, no GELU or softmax
node and no elementwise add, product or full sum. The oracles still
build those paths op by op: tests/block_oracle.py splits and merges
heads by reshape and permute and scales, masks and softmaxes the
scores, tests/per_image_oracle.py reshapes a sequence into a one-row
batch, tests/fusion_oracle.py runs GELU as a node, and tests reduce
outputs to a scalar loss by mul and sum_all. So those ops live here,
built with tensor.py's _make/_accum protocol on its array formulas, and
gradient-checked in tests/test_tensor.py like every primitive. OPS
lists the differentiable primitives by the op-kind names used in
contracts; tests iterate it for gradient checks.
"""

import math

import numpy as np

from tilefusion import tensor as tz
from tilefusion.errors import DimensionError


def reshape(x, shape):
    shape = tuple(int(d) for d in shape)
    if math.prod(shape) != x.size:
        raise DimensionError(f"reshape {x.shape} -> {shape}: size mismatch")
    out = tz._make(x.data.reshape(shape), (x,))
    if out.requires_grad:
        out._backward = lambda g: tz._accum(x, g.reshape(x.shape))
    return out


def permute(x, axes):
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise DimensionError(f"permute axes {axes} invalid for shape {x.shape}")
    out = tz._make(np.transpose(x.data, axes), (x,))
    if out.requires_grad:
        inv = [0] * len(axes)
        for i, a in enumerate(axes):
            inv[a] = i
        out._backward = lambda g: tz._accum(x, np.transpose(g, inv))
    return out


def add(a, b):
    """Elementwise sum; shapes must match exactly."""
    if a.shape != b.shape:
        raise DimensionError(f"add shapes differ: {a.shape} vs {b.shape}")
    out = tz._make(a.data + b.data, (a, b))
    if out.requires_grad:
        def backward(g):
            tz._accum(a, g)
            tz._accum(b, g)
        out._backward = backward
    return out


def mul(a, b):
    """Elementwise product; shapes must match exactly."""
    if a.shape != b.shape:
        raise DimensionError(f"mul shapes differ: {a.shape} vs {b.shape}")
    out = tz._make(a.data * b.data, (a, b))
    if out.requires_grad:
        def backward(g):
            tz._accum(a, g * b.data)
            tz._accum(b, g * a.data)
        out._backward = backward
    return out


def mul_scalar(x, s):
    s = float(s)
    out = tz._make(x.data * s, (x,))
    if out.requires_grad:
        out._backward = lambda g: tz._accum(x, g * s)
    return out


def softmax_lastdim(x):
    """Softmax along the last axis (max-shifted for stability)."""
    p = tz.softmax_forward(x.data)
    out = tz._make(p, (x,))
    if out.requires_grad:
        out._backward = lambda g: tz._accum(x, tz.softmax_backward(g, p))
    return out


def sum_all(x):
    """Full reduction to a scalar."""
    out = tz._make(np.asarray(x.data.sum()), (x,))
    if out.requires_grad:
        out._backward = lambda g: tz._accum(
            x, np.full_like(x.data, float(g)))
    return out


def gelu(x):
    """GELU, tanh approximation (exact derivative of the approximation)."""
    data, t = tz.gelu_forward(x.data)
    out = tz._make(data, (x,))
    if out.requires_grad:
        out._backward = lambda g: tz._accum(
            x, tz.gelu_backward(g, x.data, t))
    return out


OPS = {
    "matmul": tz.matmul,
    "add": add,
    "add-rowvec": tz.add_rowvec,
    "mul": mul,
    "mul-scalar": mul_scalar,
    "softmax-lastdim": softmax_lastdim,
    "layernorm": tz.layernorm,
    "gelu": gelu,
    "embedding-lookup": tz.embedding_lookup,
    "concat-along-axis": tz.concat,
    "slice": tz.slice_axis,
    "sum": sum_all,
    "masked-cross-entropy": tz.masked_cross_entropy,
}
