"""Tensor reshape and permute, the shape ops the test oracles compose.

src/ has no graph op that moves elements between axes: the only code
that needed one, the encoders, runs on arrays outside the graph.
tests/block_oracle.py still builds the transformer block op by op (its
heads split and merge by reshape and permute), and
tests/per_image_oracle.py reshapes a sequence into a one-row batch, so
both ops live here, built with tensor.py's _make/_accum protocol and
gradient-checked in tests/test_tensor.py like every primitive.
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
