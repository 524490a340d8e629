"""The max-over-sum order statistic of independent Erlang blocks and its constant.

The squared norm of a block of ``k`` independent standard complex
normals is Erlang(k, 1/2) distributed, which is what connects this
statistic to random-basis measurement attacks: the ratio
``max_i X_i / sum_i X_i`` over independent Erlang blocks lower-bounds
how much weight a random unit vector places on its best block.  Its
expectation is at least ``c log2(n) / sum_i k_i`` with
``c = (1 - 1/e - 1/2) / (2 log2 e) ~ 0.0457``.  The Monte Carlo estimate
of the ratio hands a draw of one chunk of trials to
:func:`~uncloneq.linalg.lane_estimate`, which owns the lanes, the chunking
and the sums.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import linalg
from .config import is_integer
from .linalg import lane_estimate

__all__ = [
    "ERLANG_MAX_CONSTANT",
    "max_over_sum_estimate",
]

#: explicit constant in the max-over-sum lower bound, (1 - 1/e - 1/2)/(2 log2 e)
ERLANG_MAX_CONSTANT = (1.0 - math.exp(-1.0) - 0.5) / (2.0 * math.log2(math.e))


def max_over_sum_estimate(
    ks: Sequence[int],
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of ``max_i X_i / sum_i X_i``.

    ``X_i`` are independent Erlang variables of shapes ``ks`` and one
    common rate, drawn as sums of exponentials.  The ratio is scale free,
    the same at every rate, so the draws are unit-rate.

    The trials run on :func:`~uncloneq.linalg.lane_estimate`: two lanes,
    each with its own spawned stream, side by side.  In a lane each trial
    takes one row of ``sum(ks)`` exponentials from the lane's stream, in
    trial order, and a chunk draws its rows at once, at most
    ``linalg.LANE_BYTES`` (512 KB) of float64 entries and at least one
    row, so memory is about ``2 max(512 KB, 8 sum(ks) bytes)`` whatever
    ``trials`` is.  The ratios are added in trial order, so the estimate
    depends on the seed and the lane count, bit for bit, but not on the
    chunk size or on how many CPUs ran the lanes.
    """
    if not is_integer(trials) or trials < 1:
        raise ValueError(f"trials must be an integer of at least 1, got {trials!r}")
    ks = list(ks)
    if not ks or not all(is_integer(k) and k >= 1 for k in ks):
        raise ValueError("all shapes must be positive integers")
    n = len(ks)
    if n == 1:
        return 1.0, 0.0
    k_total = sum(ks)
    offsets = np.cumsum([0] + ks)[:-1]

    def draw(gen: np.random.Generator, c: int) -> np.ndarray:
        rows = gen.standard_exponential((c, k_total))
        # with every shape 1 the block sums are the draws themselves
        sums = rows if k_total == n else np.add.reduceat(rows, offsets, axis=1)
        return sums.max(axis=1) / sums.sum(axis=1)

    return lane_estimate(draw, rng, trials, linalg.LANE_BYTES // (8 * k_total))
