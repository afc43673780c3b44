"""The reverse-mode graph the test oracles build, its ops, and the op
registry.

src/ runs every differentiable path on arrays with hand-derived
backwards (the transformer block, the projectors and fusion, the
splice, the LM's loss), and a training step's backward is one closure
(Pipeline.loss), so src/ has no graph of its own. The oracles still
build those paths op by op: tests/block_oracle.py runs the block from
matmuls, layernorms, reshapes, permutes and a softmax node;
tests/fusion_oracle.py runs the projectors and fusion from matmuls,
GELU nodes, concat and a row lookup; tests/per_image_oracle.py splices
from embedding lookups and concats and runs the LM head and its masked
cross entropy; tests reduce outputs to a scalar loss by mul and
sum_all. So the graph lives here: Tensor, _make and a topologically
sorted backward, with the ops built on tensor.py's _accum and array
formulas, and gradient-checked in tests/test_tensor.py. OPS lists the
differentiable primitives by the op-kind names used in contracts; tests
iterate it for gradient checks, and compare gradients with
relative_error.

A tilefusion Parameter is a leaf of these graphs as it is: a leaf, a
Tensor or a Parameter, requires grad exactly when it is not frozen, so
the graph and the program's hand-derived backwards leave out the same
parameters.

Graphs are acyclic: a node refers only to its inputs (_prev and the
closure in _backward), never to itself, so a graph is freed by
reference counting as soon as its loss is dropped. To keep it so, a
backward closure receives its output gradient as its argument
(backward calls node._backward(node.grad)) and must never capture its
output tensor.

Broadcasting is deliberately restricted: ops demand equal shapes, and
adding one tensor to every leading index of another (a bias over the
trailing dim, positional embeddings over a batch) is its own primitive
(add_rowvec).
"""

import math

import numpy as np

from tilefusion import tensor as tz
from tilefusion.errors import ContractError, DimensionError


class Tensor:
    """A float64 array plus an optional gradient and graph record.

    Tensor(data, requires_grad=True) is a leaf that takes a gradient;
    frozen is the flag _accum and the ops read, as on a Parameter.
    """

    __slots__ = ("data", "frozen", "grad", "_prev", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.frozen = not requires_grad
        self.grad = None
        self._prev = ()
        self._backward = None

    @property
    def requires_grad(self) -> bool:
        return not self.frozen

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    __float__ = item

    def zero_grad(self) -> None:
        self.grad = None


def _make(data, inputs):
    """Wrap an op result, recording graph edges iff any input requires
    grad. The caller assigns out._backward afterwards when the result
    requires grad."""
    out = Tensor(data)
    if any(not t.frozen for t in inputs):
        out.frozen = False
        out._prev = tuple(inputs)
    return out


def as_node(value, backward, inputs):
    """A program's (value, backward) pair as one graph node over inputs:
    backward(g) runs on the node's gradient and accumulates into the
    inputs itself."""
    out = _make(value, inputs)
    if out.requires_grad:
        out._backward = backward
    return out


def backward(loss, seed_grad=1.0):
    """Fill the grads of every reachable leaf that requires grad with
    d(loss)/d(leaf), times seed_grad.

    Gradients accumulate across calls; clear them between steps.
    """
    if loss.size != 1:
        raise ContractError(
            f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.frozen:
        return
    # Iterative topological sort; graphs are deep enough to overflow
    # recursion. A Parameter is a leaf: it has no _prev or _backward.
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        n, expanded = stack.pop()
        if expanded:
            topo.append(n)
            continue
        if id(n) in visited:
            continue
        visited.add(id(n))
        stack.append((n, True))
        for child in getattr(n, "_prev", ()):
            if not child.frozen and id(child) not in visited:
                stack.append((child, False))

    tz._accum(loss, np.full_like(loss.data, float(seed_grad)))
    for n in reversed(topo):
        step = getattr(n, "_backward", None)
        if step is not None and n.grad is not None:
            step(n.grad)


def reshape(x, shape):
    shape = tuple(int(d) for d in shape)
    if math.prod(shape) != x.size:
        raise DimensionError(f"reshape {x.shape} -> {shape}: size mismatch")
    out = _make(x.data.reshape(shape), (x,))
    if out.requires_grad:
        out._backward = lambda g: tz._accum(x, g.reshape(x.shape))
    return out


def permute(x, axes):
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise DimensionError(f"permute axes {axes} invalid for shape {x.shape}")
    out = _make(np.transpose(x.data, axes), (x,))
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
    out = _make(a.data + b.data, (a, b))
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
    out = _make(a.data * b.data, (a, b))
    if out.requires_grad:
        def backward(g):
            tz._accum(a, g * b.data)
            tz._accum(b, g * a.data)
        out._backward = backward
    return out


def mul_scalar(x, s):
    s = float(s)
    out = _make(x.data * s, (x,))
    if out.requires_grad:
        out._backward = lambda g: tz._accum(x, g * s)
    return out


def softmax_lastdim(x):
    """Softmax along the last axis (max-shifted for stability)."""
    p = tz.softmax_forward(x.data)
    out = _make(p, (x,))
    if out.requires_grad:
        out._backward = lambda g: tz._accum(x, tz.softmax_backward(g, p))
    return out


def sum_all(x):
    """Full reduction to a scalar."""
    out = _make(np.asarray(x.data.sum()), (x,))
    if out.requires_grad:
        out._backward = lambda g: tz._accum(
            x, np.full_like(x.data, float(g)))
    return out


def gelu(x):
    """GELU, tanh approximation (exact derivative of the approximation)."""
    data, t = tz.gelu_forward(x.data)
    out = _make(data, (x,))
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
    out = _make(np.matmul(a.data, b.data), (a, b))
    if out.requires_grad:
        def backward(g):
            if not a.frozen:
                tz._accum(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
            if not b.frozen:
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
    out = _make(x.data + v.data, (x, v))
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
    out = _make(data, (x, gamma, beta))
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
    out = _make(table.data[ids], (table,))
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
    out = _make(np.concatenate([t.data for t in tensors], axis=axis),
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
    out = _make(x.data[idx], (x,))
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
    out = _make(value, (logits,))
    if out.requires_grad:
        out._backward = lambda g: tz._accum(logits, backward(g))
    return out


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-3) -> float:
    """Max elementwise |a-b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / denom))


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
