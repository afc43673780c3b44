"""Parameters, gradient accumulation, and the array formulas the
hand-derived backwards share.

The program differentiates on plain arrays: the projectors and fusion,
the splice, the LM and its loss each run forward on arrays and return a
backward derived by hand (the frozen encoders run forward only). A
training step (``Pipeline.loss``) chains those backwards into one
closure, and :func:`backward` runs it: each link accumulates into the
parameters it reads through :func:`_accum`, and passes its input's
gradient on to the link before it. There is no graph: the closure
chain is the step's whole reverse pass.

Freezing is one flag. A frozen :class:`Parameter` takes no gradient:
``_accum`` and every backward that could skip work check ``frozen``,
and the optimizer leaves the parameter alone. Gradients still flow
*through* a frozen parameter (a frozen LM still passes gradient down to
the projectors); only the accumulation into it stops. ``Pipeline.answer``
runs forward only and touches no parameter's grad.

A step's closure refers only to what its forward computed and to the
closures of the links before it, never to itself, so it is freed by
reference counting as soon as the step drops it, not by the cyclic
garbage collector.

The array-level forward and backward formulas of layernorm, GELU,
softmax and the masked cross entropy (``*_forward``/``*_backward``) are
what the hand-derived backwards run, and what the composed ops of the
test oracles wrap, so the two run the same arithmetic. They allocate no
more than that arithmetic needs: layernorm computes the deviation from
the mean once and normalizes it in place (bitwise numpy's mean/var),
and ``softmax_forward(x, out=x)`` overwrites its input, so a caller
that owns a megabyte score array pays for no second one. The composed
ops themselves, with the reverse-mode graph engine they build on, live
in tests/oracle_ops.py.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ContractError, DimensionError


class Parameter:
    """A named float64 array of trained values, its gradient and its
    freeze flag.

    A frozen parameter takes no gradient: every backward checks the flag
    before it accumulates (:func:`_accum`), and the optimizer skips it.
    Gradients still flow through it to whatever is upstream. An
    optimizer may hold ``data`` as a view into its own buffer, so code
    that changes a parameter's values writes them in place
    (``p.data[...] = values``) instead of rebinding ``data``.
    """

    __slots__ = ("name", "data", "grad", "frozen")

    def __init__(self, name: str, data, frozen: bool = False):
        self.name = name
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.frozen = frozen

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape}, frozen={self.frozen})"


def _accum(t: Parameter, g: np.ndarray) -> None:
    """Add g to t's gradient, unless t is frozen."""
    if t.frozen:
        return
    if t.grad is None:
        # a fresh buffer in t.data's layout, never an alias of g (a
        # caller may hand one g to two inputs); 0.0 + g turns -0.0 into
        # +0.0
        t.grad = np.empty_like(t.data)
        np.add(0.0, g, out=t.grad)
    else:
        t.grad += g


# ---------------------------------------------------------------------------
# array formulas


def softmax_forward(x: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Softmax of an array along its last axis (max-shifted for stability).

    With out=x the softmax replaces x in place; by default x is left
    unchanged and the result is a fresh array.
    """
    # one buffer, not three: encoder attention scores run to megabytes,
    # and each fresh transient of that size is page-faulted in anew
    p = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(p, out=p)
    np.divide(p, p.sum(axis=-1, keepdims=True), out=p)
    return p


def softmax_backward(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Gradient of the softmax input, given its output p and output grad g."""
    dot = (g * p).sum(axis=-1, keepdims=True)
    return (g - dot) * p


LN_EPS = 1e-5


def layernorm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                      eps: float = LN_EPS) -> tuple:
    """(output, xhat, inv) of layer normalization over the last axis;
    xhat and inv = 1 / std are what layernorm_backward needs."""
    # numpy's own mean and var arithmetic (sum / d, then the sum of the
    # squared deviations / d), bitwise, with the deviation x - mu
    # computed once and normalized in place
    d = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / d
    inv = np.square(xhat).sum(axis=-1, keepdims=True) / d
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    out = xhat * gamma
    out += beta
    return out, xhat, inv


def layernorm_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                       gamma: Parameter, beta: Parameter) -> np.ndarray:
    """Accumulate gamma's and beta's gradients (those not frozen);
    return the gradient of the normalized input."""
    d = xhat.shape[-1]
    if not beta.frozen:
        _accum(beta, g.reshape(-1, d).sum(axis=0))
    if not gamma.frozen:
        _accum(gamma, (g * xhat).reshape(-1, d).sum(axis=0))
    gx = g * gamma.data
    m1 = gx.mean(axis=-1, keepdims=True)
    m2 = (gx * xhat).mean(axis=-1, keepdims=True)
    gx -= m1
    gx -= xhat * m2
    gx *= inv
    return gx


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu_forward(x: np.ndarray) -> tuple:
    """(GELU(x), tanh(u)): the tanh approximation and the tanh that
    gelu_backward reuses."""
    # x * x * x, not x ** 3: numpy's cube calls libm pow per element
    # (3.4 ms against 0.04 ms for 44k elements with numpy 2.4). Both
    # passes work in place, each step the same arithmetic as the plain
    # expression, which with a fresh temporary per step took ~1.7x as
    # long on an [8, 43, 128] input.
    u = x * x
    u *= x
    u *= 0.044715
    u += x
    u *= _GELU_C
    t = np.tanh(u, out=u)
    y = 1.0 + t
    y *= x
    y *= 0.5
    return y, t


def gelu_backward(g: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Gradient of GELU's input x, given g and gelu_forward's tanh t
    (the exact derivative of the approximation)."""
    du = x * x  # du/dx
    du *= 3 * 0.044715
    du += 1.0
    du *= _GELU_C
    dy = t * t
    np.subtract(1.0, dy, out=dy)
    dy *= x
    dy *= 0.5
    dy *= du
    np.add(1.0, t, out=du)  # du's buffer, done with, now holds 1 + t
    du *= 0.5
    dy += du
    dy *= g
    return dy


def cross_entropy_forward(logits: np.ndarray, targets, mask) -> tuple:
    """(value, backward) of the mean cross entropy of logits[i] against
    targets[i] over the mask-true rows; backward(g) returns the logits'
    gradient, g times d(value)/d(logits).

    Fused softmax + NLL for numerical stability; the gradient is
    (softmax - onehot) / n_masked on selected rows, zero elsewhere. A
    sample whose mask selects nothing contributes a 0.0 loss (zero
    gradient). With a leading batch axis ([B, n, V] logits, [B, n]
    targets and mask) each sample's masked mean is taken on its own, the
    B means are added in sample order and the total is scaled by 1/B:
    bitwise the mean of B separate calls chained through add and
    mul_scalar (tests/oracle_ops.py). value is a 0-d float64 array.
    """
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if logits.ndim not in (2, 3):
        raise DimensionError(
            f"cross entropy expects [n, V] or [B, n, V] logits, "
            f"got {logits.shape}")
    lead = logits.shape[:-1]
    if targets.shape != lead or mask.shape != lead:
        raise DimensionError(
            f"cross entropy rows {lead} vs targets {targets.shape}, "
            f"mask {mask.shape}"
        )
    B = logits.shape[0] if logits.ndim == 3 else 1
    x = logits.reshape((B,) + logits.shape[-2:])
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

    def backward(g):
        p = np.exp(logp)
        p[np.arange(len(bi)), chosen] -= 1.0
        gl = np.zeros_like(x)
        gl[bi, ri] = p * (float(g) * (1.0 / B) / counts[bi])[:, None]
        return gl.reshape(logits.shape)

    return np.asarray(total, dtype=np.float64), backward


# ---------------------------------------------------------------------------
# reverse pass


def backward(step_backward: Callable[[np.ndarray], object]) -> None:
    """Run a training step's backward closure (``Pipeline.loss``) on the
    loss's own gradient, 1.

    Each parameter the chain reads and that is not frozen gets its
    gradient added to ``grad``; gradients accumulate across calls, so
    clear them between steps.
    """
    step_backward(np.ones(()))


def finite_difference_grad(f: Callable, x, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function of x,
    anything whose ``data`` array f reads (a Parameter, or a test
    oracle's tensor); f's result must convert with float().

    The test oracle for every differentiable primitive; independent of the
    reverse pass (only calls f forward).
    """
    grad = finite_difference_grad_at(f, x, range(x.data.size), eps)
    return grad.reshape(x.data.shape)


def finite_difference_grad_at(f: Callable, x, flat_indices,
                              eps: float = 1e-5) -> np.ndarray:
    """Central differences at selected flat indices only.

    The oracle behind finite_difference_grad; a subset lets large
    parameter tensors be spot-checked within a time budget.
    """
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")

    flat = x.data.reshape(-1) if x.data.flags["C_CONTIGUOUS"] else None
    if flat is None:
        raise ContractError("finite_difference_grad_at needs contiguous data")
    out = np.zeros(len(flat_indices))
    for k, i in enumerate(flat_indices):
        i = int(i)
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f(x))
        flat[i] = orig - eps
        fm = float(f(x))
        flat[i] = orig
        out[k] = (fp - fm) / (2.0 * eps)
    return out
