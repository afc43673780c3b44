"""Pure helpers of the benchmark: percentiles, the tail rule, names, scaling.

Nothing here touches the clock or the tilefusion package, so every
function is checked directly by test_measure.py.
"""

import math
import re

# Metric names and units as BENCHMARK.json allows them.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Tail percentiles tried from the highest down, in tenths of a percent so
# the "samples beyond" count is exact integer arithmetic.
TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.fullmatch(unit) is not None


def samples_beyond(n: int, permille: int) -> int:
    """Samples of n that lie above the given percentile (in permille)."""
    return n * (1000 - permille) // 1000


def tail_permille(n: int):
    """Highest tried percentile with at least ten samples beyond it.

    Returns the percentile in permille (950 is p95), or None when even
    the median has fewer than ten samples above it.
    """
    for pm in TAIL_PERMILLE:
        if samples_beyond(n, pm) >= MIN_BEYOND:
            return pm
    return None


def percentile_label(permille: int) -> str:
    """950 -> 'p95', 999 -> 'p99.9'."""
    whole, tenth = divmod(permille, 10)
    return f"p{whole}" if tenth == 0 else f"p{whole}.{tenth}"


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100] (numpy's default)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def scaled_n_train(full_n_train: int, full_steps: int, short_steps: int,
                   batch_size: int) -> int:
    """Training-set size that keeps visits per image when steps shrink.

    A full run visits each image full_steps * batch / full_n_train times;
    scaling n_train by short_steps / full_steps keeps that ratio. The
    result is rounded half up and never smaller than one batch, so every
    step still draws a full batch of distinct images.
    """
    if min(full_n_train, full_steps, short_steps, batch_size) <= 0:
        raise ValueError("sizes and step counts must be positive")
    n = math.floor(full_n_train * short_steps / full_steps + 0.5)
    return max(batch_size, n)
