"""The Tensor ops that the test oracles compose, and the op registry.

src/ runs every differentiable path on arrays with hand-derived
backwards (the transformer block, the projectors and fusion, the
splice, the LM's loss) and makes a training step one graph node, so it
has no graph op of its own. The oracles still build those paths op by
op: tests/block_oracle.py runs the block from matmuls, layernorms,
reshapes, permutes and a softmax node; tests/fusion_oracle.py runs the
projectors and fusion from matmuls, GELU nodes, concat and a row
lookup; tests/per_image_oracle.py splices from embedding lookups and
concats and runs the LM head and its masked cross entropy; tests reduce
outputs to a scalar loss by mul and sum_all. So those ops live here,
built with tensor.py's _make/_accum protocol on its array formulas, and
gradient-checked in tests/test_tensor.py. OPS lists the differentiable
primitives by the op-kind names used in contracts; tests iterate it for
gradient checks.

Broadcasting is deliberately restricted: ops demand equal shapes, and
adding one tensor to every leading index of another (a bias over the
trailing dim, positional embeddings over a batch) is its own primitive
(add_rowvec).
"""

import math

import numpy as np

from tilefusion import tensor as tz
from tilefusion.errors import ContractError, DimensionError


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


def matmul(a, b):
    """Matrix product. Supports 2-D x 2-D, batched (equal leading dims),
    and stacked-left x 2-D (shared weight applied to every row block)."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    if b.data.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul batch dims differ: {a.shape} @ {b.shape}")
    out = tz._make(np.matmul(a.data, b.data), (a, b))
    if out.requires_grad:
        def backward(g):
            if a.requires_grad:
                tz._accum(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
            if b.requires_grad:
                if b.data.ndim == 2 and a.data.ndim > 2:
                    k = a.shape[-1]
                    gb = a.data.reshape(-1, k).T @ g.reshape(-1, g.shape[-1])
                else:
                    gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
                tz._accum(b, gb)
        out._backward = backward
    return out


def add_rowvec(x, v):
    """Add v to x at every leading index; v has x's trailing shape.

    A 1-D v is a bias over the trailing dim; a [T, d] v adds positional
    embeddings to every sequence of an [N, T, d] batch. v's gradient sums
    g over the leading axes.
    """
    k = v.data.ndim
    if k < 1 or k > x.data.ndim or x.shape[-k:] != v.shape:
        raise DimensionError(f"add_rowvec: {x.shape} + {v.shape}")
    out = tz._make(x.data + v.data, (x, v))
    if out.requires_grad:
        def backward(g):
            tz._accum(x, g)
            tz._accum(v, g.reshape((-1,) + v.shape).sum(axis=0))
        out._backward = backward
    return out


def layernorm(x, gamma, beta, eps=tz.LN_EPS):
    """Layer normalization over the last axis with affine gain/shift."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layernorm affine shapes {gamma.shape}/{beta.shape} vs feature dim {d}"
        )
    data, xhat, inv = tz.layernorm_forward(x.data, gamma.data, beta.data, eps)
    out = tz._make(data, (x, gamma, beta))
    if out.requires_grad:
        out._backward = lambda g: tz._accum(
            x, tz.layernorm_backward(g, xhat, inv, gamma, beta))
    return out


def embedding_lookup(table, ids):
    """Gather rows of a [vocab, dim] table by integer id."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise DimensionError(f"embedding table must be 2-D, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise DimensionError(
            f"embedding id out of range [0, {table.shape[0]}): {ids.min()}..{ids.max()}"
        )
    out = tz._make(table.data[ids], (table,))
    if out.requires_grad:
        def backward(g):
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids, g)
            tz._accum(table, gt)
        out._backward = backward
    return out


def concat(tensors, axis):
    """Concatenate along an existing axis."""
    if not tensors:
        raise ContractError("concat needs at least one tensor")
    nd = tensors[0].data.ndim
    axis = axis % nd
    ref = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != nd or other[:axis] + other[axis + 1:] != ref[:axis] + ref[axis + 1:]:
            raise DimensionError(
                f"concat axis {axis}: shapes {[u.shape for u in tensors]} incompatible"
            )
    out = tz._make(np.concatenate([t.data for t in tensors], axis=axis),
                   tuple(tensors))
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        def backward(g):
            offset = 0
            idx = [slice(None)] * nd
            for t, n in zip(tensors, sizes):
                idx[axis] = slice(offset, offset + n)
                tz._accum(t, g[tuple(idx)])
                offset += n
        out._backward = backward
    return out


def slice_axis(x, axis, start, stop):
    """Contiguous slice [start, stop) along one axis."""
    nd = x.data.ndim
    axis = axis % nd
    n = x.shape[axis]
    if not (0 <= start <= stop <= n):
        raise DimensionError(f"slice [{start}:{stop}) outside axis {axis} of {x.shape}")
    idx = [slice(None)] * nd
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = tz._make(x.data[idx], (x,))
    if out.requires_grad:
        def backward(g):
            gx = np.zeros_like(x.data)
            gx[idx] = g
            tz._accum(x, gx)
        out._backward = backward
    return out


def masked_cross_entropy(logits, targets, mask):
    """Mean cross entropy of logits[i] vs targets[i] over mask-true rows
    (tensor.cross_entropy_forward, whose docstring gives the batched
    mean), as a graph node."""
    value, backward = tz.cross_entropy_forward(logits.data, targets, mask)
    out = tz._make(value, (logits,))
    if out.requires_grad:
        out._backward = lambda g: tz._accum(logits, backward(g))
    return out


OPS = {
    "matmul": matmul,
    "add": add,
    "add-rowvec": add_rowvec,
    "mul": mul,
    "mul-scalar": mul_scalar,
    "softmax-lastdim": softmax_lastdim,
    "layernorm": layernorm,
    "gelu": gelu,
    "embedding-lookup": embedding_lookup,
    "concat-along-axis": concat,
    "slice": slice_axis,
    "sum": sum_all,
    "masked-cross-entropy": masked_cross_entropy,
}
