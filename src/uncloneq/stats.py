"""Erlang distribution utilities and the max-over-sum order statistic.

The squared norm of a block of ``k`` independent standard complex
normals is Erlang(k, 1/2) distributed, which is what connects these
routines to random-basis measurement attacks: the ratio
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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .config import is_integer
from .errors import NegativeX
from .linalg import lane_estimate

__all__ = [
    "ERLANG_MAX_CONSTANT",
    "ErlangParams",
    "erlang_cdf",
    "max_over_sum_estimate",
]

#: explicit constant in the max-over-sum lower bound, (1 - 1/e - 1/2)/(2 log2 e)
ERLANG_MAX_CONSTANT = (1.0 - math.exp(-1.0) - 0.5) / (2.0 * math.log2(math.e))


@dataclass(frozen=True)
class ErlangParams:
    """Shape (positive integer) and rate (positive finite real) of an Erlang law."""

    shape: int
    rate: float

    def __post_init__(self) -> None:
        if not is_integer(self.shape) or self.shape < 1:
            raise ValueError(f"shape must be a positive integer, got {self.shape!r}")
        # NaN fails every comparison, so finiteness is checked on its own
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if not math.isfinite(self.rate):
            raise ValueError(f"rate must be finite, got {self.rate}")


def erlang_cdf(p: ErlangParams, x: float) -> float:
    """``P[X <= x] = 1 - exp(-rate x) sum_{i<k} (rate x)^i / i!``."""
    # NaN fails every comparison, so it is refused with the negatives
    if not x >= 0:
        raise NegativeX(f"x must be nonnegative, got {x}")
    k, lam = p.shape, p.rate
    z = lam * x
    if math.isinf(z):
        return 1.0
    term = 1.0
    tail = term
    for i in range(1, k):
        term *= z / i
        tail += term
    scale = math.exp(-z)
    if scale > 0.0 and math.isfinite(tail):
        return 1.0 - scale * tail
    # exp(-z) underflows to 0 or the sum overflows, so the terms are added in log space
    logs = [i * math.log(z) - math.lgamma(i + 1) for i in range(k)]
    top = max(logs)
    return 1.0 - math.exp(top - z + math.log(sum(math.exp(t - top) for t in logs)))


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
