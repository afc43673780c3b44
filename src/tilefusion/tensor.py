"""Dense f64 tensors with reverse-mode differentiation.

Every array in the package is a row-major float64 ``Tensor``. Operations
record graph edges whenever an input has ``requires_grad`` set; calling
:func:`backward` on a scalar loss fills ``grad`` buffers by walking the
recorded graph in reverse topological order. The ``frozen`` flag alone
does not cut a parameter out of the graph: only the optimizer consults
it, so a frozen parameter used outside the blocks below still receives a
gradient (gradients must flow through frozen sub-models). Inside an
:func:`outside_graph` block the listed parameters record no edges at
all; ``training.run_stage`` holds its frozen parameters there for the
whole stage, and ``Pipeline.answer`` holds every parameter there, so
greedy decoding builds no graph.

Graphs are acyclic: a node refers only to its inputs (``_prev`` and the
closure in ``_backward``), never to itself, so a step's graph is freed by
reference counting as soon as its loss is dropped, not by the cyclic
garbage collector. To keep it so, a backward closure receives its output
gradient as its argument (``backward`` calls ``node._backward(node.grad)``)
and must never capture its output tensor.

Broadcasting is deliberately restricted: elementwise ops demand equal
shapes, scalars are explicit (``mul_scalar``), and adding one tensor to
every leading index of another (a bias over the trailing dim, positional
embeddings over a batch) is its own primitive (``add_rowvec``). Explicit
shapes keep the fusion contracts downstream testable.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError


class Tensor:
    """A float64 array plus an optional gradient and graph record."""

    __slots__ = ("data", "requires_grad", "grad", "_prev", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._prev: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Thin operator sugar; the module-level functions are the canonical API.
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return mul(self, other)
        return mul_scalar(self, float(other))

    __rmul__ = __mul__


class Parameter(Tensor):
    """A named, trainable tensor. ``frozen`` excludes it from optimizer steps.

    An optimizer may hold ``data`` as a view into its own buffer, so code
    that changes a parameter's values writes them in place
    (``p.data[...] = values``) instead of rebinding ``data``.
    """

    __slots__ = ("name", "frozen")

    def __init__(self, name: str, data, frozen: bool = False):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.frozen = frozen

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape}, frozen={self.frozen})"


@contextmanager
def outside_graph(params):
    """Leave params out of every graph built inside the block.

    Gradients still flow through the ops that use them to whatever still
    requires grad upstream; only the accumulation into these leaves is
    skipped. Each parameter gets its previous ``requires_grad`` back on
    exit, also when the block raises, so blocks nest.
    """
    saved = [(p, p.requires_grad) for p in params]
    for p, _ in saved:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, flag in saved:
            p.requires_grad = flag


def _make(data: np.ndarray, inputs: Sequence[Tensor]) -> Tensor:
    """Wrap an op result, recording graph edges iff any input needs grad.

    The caller assigns ``out._backward`` afterwards when the result
    requires grad.
    """
    out = Tensor(data)
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            out._prev = tuple(inputs)
            break
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # a fresh buffer in t.data's layout, never an alias of g (add
        # hands one g to both inputs); 0.0 + g turns -0.0 into +0.0
        t.grad = np.empty_like(t.data)
        np.add(0.0, g, out=t.grad)
    else:
        t.grad += g


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
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
            if a.requires_grad:
                _accum(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
            if b.requires_grad:
                if b.data.ndim == 2 and a.data.ndim > 2:
                    k = a.shape[-1]
                    gb = a.data.reshape(-1, k).T @ g.reshape(-1, g.shape[-1])
                else:
                    gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
                _accum(b, gb)
        out._backward = backward
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; shapes must match exactly."""
    if a.shape != b.shape:
        raise DimensionError(f"add shapes differ: {a.shape} vs {b.shape}")
    out = _make(a.data + b.data, (a, b))
    if out.requires_grad:
        def backward(g):
            _accum(a, g)
            _accum(b, g)
        out._backward = backward
    return out


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
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
            _accum(x, g)
            _accum(v, g.reshape((-1,) + v.shape).sum(axis=0))
        out._backward = backward
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; shapes must match exactly."""
    if a.shape != b.shape:
        raise DimensionError(f"mul shapes differ: {a.shape} vs {b.shape}")
    out = _make(a.data * b.data, (a, b))
    if out.requires_grad:
        def backward(g):
            _accum(a, g * b.data)
            _accum(b, g * a.data)
        out._backward = backward
    return out


def mul_scalar(x: Tensor, s: float) -> Tensor:
    s = float(s)
    out = _make(x.data * s, (x,))
    if out.requires_grad:
        out._backward = lambda g: _accum(x, g * s)
    return out


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(d) for d in shape)
    # math.prod, not np.prod: this runs on every reshape, where numpy's
    # call overhead (~6 us) was most of the op's cost on small tensors
    if math.prod(shape) != x.size:
        raise DimensionError(f"reshape {x.shape} -> {shape}: size mismatch")
    out = _make(x.data.reshape(shape), (x,))
    if out.requires_grad:
        out._backward = lambda g: _accum(x, g.reshape(x.shape))
    return out


def permute(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise DimensionError(f"permute axes {axes} invalid for shape {x.shape}")
    out = _make(np.transpose(x.data, axes), (x,))
    if out.requires_grad:
        inv = [0] * len(axes)
        for i, a in enumerate(axes):
            inv[a] = i
        out._backward = lambda g: _accum(x, np.transpose(g, inv))
    return out


def softmax_lastdim(x: Tensor) -> Tensor:
    """Softmax along the last axis (max-shifted for stability)."""
    # one buffer, not three: encoder attention scores run to megabytes,
    # and each fresh transient of that size is page-faulted in anew
    p = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    np.divide(p, p.sum(axis=-1, keepdims=True), out=p)
    out = _make(p, (x,))
    if out.requires_grad:
        def backward(g):
            dot = (g * p).sum(axis=-1, keepdims=True)
            _accum(x, (g - dot) * p)
        out._backward = backward
    return out


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with affine gain/shift."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layernorm affine shapes {gamma.shape}/{beta.shape} vs feature dim {d}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = _make(xhat * gamma.data + beta.data, (x, gamma, beta))
    if out.requires_grad:
        def backward(g):
            if beta.requires_grad:
                _accum(beta, g.reshape(-1, d).sum(axis=0))
            if gamma.requires_grad:
                _accum(gamma, (g * xhat).reshape(-1, d).sum(axis=0))
            if x.requires_grad:
                gx = g * gamma.data
                m1 = gx.mean(axis=-1, keepdims=True)
                m2 = (gx * xhat).mean(axis=-1, keepdims=True)
                _accum(x, (gx - m1 - xhat * m2) * inv)
        out._backward = backward
    return out


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation (exact derivative of the approximation)."""
    # x * x * x, not x ** 3: numpy's cube calls libm pow per element
    # (3.4 ms against 0.04 ms for 44k elements with numpy 2.4)
    u = _GELU_C * (x.data + 0.044715 * (x.data * x.data * x.data))
    t = np.tanh(u)
    out = _make(0.5 * x.data * (1.0 + t), (x,))
    if out.requires_grad:
        def backward(g):
            du = _GELU_C * (1.0 + 3 * 0.044715 * x.data ** 2)
            dy = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t ** 2) * du
            _accum(x, g * dy)
        out._backward = backward
    return out


def embedding_lookup(table: Tensor, ids) -> Tensor:
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
            _accum(table, gt)
        out._backward = backward
    return out


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
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
    out = _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        def backward(g):
            offset = 0
            idx = [slice(None)] * nd
            for t, n in zip(tensors, sizes):
                idx[axis] = slice(offset, offset + n)
                _accum(t, g[tuple(idx)])
                offset += n
        out._backward = backward
    return out


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
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
            _accum(x, gx)
        out._backward = backward
    return out


def sum_all(x: Tensor) -> Tensor:
    """Full reduction to a scalar."""
    out = _make(np.asarray(x.data.sum()), (x,))
    if out.requires_grad:
        out._backward = lambda g: _accum(x, np.full_like(x.data, float(g)))
    return out


def masked_cross_entropy(logits: Tensor, targets, mask) -> Tensor:
    """Mean cross-entropy of logits[i] vs targets[i] over mask-true rows.

    Fused softmax + NLL for numerical stability; gradient is
    (softmax - onehot) / n_masked on selected rows, zero elsewhere.
    A sample whose mask selects nothing contributes a 0.0 loss (zero
    gradient). With a leading batch axis ([B, n, V] logits, [B, n]
    targets and mask) each sample's masked mean is taken on its own,
    the B means are added in sample order and the total is scaled by
    1/B: bitwise the mean of B separate calls chained through add and
    mul_scalar.
    """
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if logits.data.ndim not in (2, 3):
        raise DimensionError(
            f"cross entropy expects [n, V] or [B, n, V] logits, "
            f"got {logits.shape}")
    lead = logits.shape[:-1]
    if targets.shape != lead or mask.shape != lead:
        raise DimensionError(
            f"cross entropy rows {lead} vs targets {targets.shape}, "
            f"mask {mask.shape}"
        )
    B = logits.shape[0] if logits.data.ndim == 3 else 1
    x = logits.data.reshape((B,) + logits.shape[-2:])
    mask = mask.reshape(B, -1)
    bi, ri = np.nonzero(mask)  # selected rows, sample-major
    counts = mask.sum(axis=1)
    chosen = targets.reshape(B, -1)[bi, ri]
    rows = x[bi, ri]  # [M, V]
    shifted = rows - rows.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    picked = logp[np.arange(len(bi)), chosen]
    ends = np.cumsum(counts)
    per_sample = [-picked[e - m:e].sum() / m if m else 0.0
                  for m, e in zip(counts.tolist(), ends.tolist())]
    total = per_sample[0]
    for extra in per_sample[1:]:
        total = total + extra
    total = total * (1.0 / B)
    out = _make(np.asarray(total, dtype=np.float64), (logits,))
    if out.requires_grad:
        def backward(g):
            p = np.exp(logp)
            p[np.arange(len(bi)), chosen] -= 1.0
            gl = np.zeros_like(x)
            gl[bi, ri] = p * (float(g) * (1.0 / B) / counts[bi])[:, None]
            _accum(logits, gl.reshape(logits.shape))
        out._backward = backward
    return out


# Registry of differentiable primitives, keyed by the op-kind names used in
# contracts; tests iterate it for gradient checks.
OPS: dict[str, Callable] = {
    "matmul": matmul,
    "add": add,
    "add-rowvec": add_rowvec,
    "mul": mul,
    "mul-scalar": mul_scalar,
    "reshape": reshape,
    "permute": permute,
    "softmax-lastdim": softmax_lastdim,
    "layernorm": layernorm,
    "gelu": gelu,
    "embedding-lookup": embedding_lookup,
    "concat-along-axis": concat,
    "slice": slice_axis,
    "sum": sum_all,
    "masked-cross-entropy": masked_cross_entropy,
}


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor, seed_grad: float = 1.0) -> None:
    """Fill grads of every reachable requires_grad tensor with d(loss)/d(t).

    Gradients accumulate across calls (per-sample graphs sharing parameter
    leaves sum naturally); clear with ``zero_grad`` between steps.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    # Iterative topological sort; graphs are deep enough to overflow recursion.
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for child in node._prev:
            if child.requires_grad and id(child) not in visited:
                stack.append((child, False))

    _accum(loss, np.full_like(loss.data, float(seed_grad)))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def finite_difference_grad(f: Callable[[Tensor], Tensor], x: Tensor,
                           eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of a tensor->scalar function.

    The test oracle for every differentiable primitive; independent of the
    reverse pass (only calls f forward).
    """
    grad = finite_difference_grad_at(f, x, range(x.size), eps)
    return grad.reshape(x.shape)


def finite_difference_grad_at(f: Callable[[Tensor], Tensor], x: Tensor,
                              flat_indices, eps: float = 1e-5) -> np.ndarray:
    """Central differences at selected flat indices only.

    The oracle behind finite_difference_grad; a subset lets large
    parameter tensors be spot-checked within a time budget.
    """
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")

    def value(t: Tensor) -> float:
        out = f(t)
        return out.item() if isinstance(out, Tensor) else float(out)

    flat = x.data.reshape(-1) if x.data.flags["C_CONTIGUOUS"] else None
    if flat is None:
        raise ContractError("finite_difference_grad_at needs contiguous data")
    out = np.zeros(len(flat_indices))
    for k, i in enumerate(flat_indices):
        i = int(i)
        orig = flat[i]
        flat[i] = orig + eps
        fp = value(x)
        flat[i] = orig - eps
        fm = value(x)
        flat[i] = orig
        out[k] = (fp - fm) / (2.0 * eps)
    return out


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-3) -> float:
    """Max elementwise |a-b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / denom))
