"""Erlang distribution utilities and the max-over-sum order statistic.

The squared norm of a block of ``k`` independent standard complex
normals is Erlang(k, 1/2) distributed, which is what connects these
routines to random-basis measurement attacks: the ratio
``max_i X_i / sum_i X_i`` over independent Erlang blocks lower-bounds
how much weight a random unit vector places on its best block.  Its
expectation is at least ``c log2(n) / sum_i k_i`` with
``c = (1 - 1/e - 1/2) / (2 log2 e) ~ 0.0457``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import is_integer
from .errors import NegativeX
from .linalg import lane_map

__all__ = [
    "ERLANG_MAX_CONSTANT",
    "ErlangParams",
    "erlang_cdf",
    "max_over_sum_estimate",
]

# float64 entries of each lane's reused sample block of max_over_sum_estimate (512 KB)
_BLOCK_ENTRIES = 2**16

#: explicit constant in the max-over-sum lower bound, (1 - 1/e - 1/2)/(2 log2 e)
ERLANG_MAX_CONSTANT = (1.0 - math.exp(-1.0) - 0.5) / (2.0 * math.log2(math.e))


def _check_rate(rate: float) -> None:
    # NaN fails every comparison, so finiteness is checked on its own
    if rate <= 0:
        raise ValueError("rate must be positive")
    if not math.isfinite(rate):
        raise ValueError(f"rate must be finite, got {rate}")


@dataclass(frozen=True)
class ErlangParams:
    """Shape (positive integer) and rate (positive finite real) of an Erlang law."""

    shape: int
    rate: float

    def __post_init__(self) -> None:
        if not is_integer(self.shape) or self.shape < 1:
            raise ValueError(f"shape must be a positive integer, got {self.shape!r}")
        _check_rate(self.rate)


def erlang_cdf(p: ErlangParams, x: float) -> float:
    """``P[X <= x] = 1 - exp(-rate x) sum_{i<k} (rate x)^i / i!``."""
    # NaN fails every comparison, so it is refused with the negatives
    if not x >= 0:
        raise NegativeX(f"x must be nonnegative, got {x}")
    k, lam = p.shape, p.rate
    z = lam * x
    term = 1.0
    tail = term
    for i in range(1, k):
        term *= z / i
        tail += term
    return 1.0 - math.exp(-z) * tail


def _running_sum(start: float, terms: np.ndarray) -> float:
    """``start + terms[0] + terms[1] + ...``, added one after another.

    A sum carried over blocks this way does not depend on the block size.
    """
    return float(np.cumsum(np.concatenate(([start], terms)))[-1])


def max_over_sum_estimate(
    ks: Sequence[int],
    rate: float,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of ``max_i X_i / sum_i X_i``.

    ``X_i`` are independent Erlang(``ks[i]``, ``rate``) variables drawn
    as sums of exponentials.  The ratio is scale free: ``rate`` is
    validated but does not enter it, so the draws are unit-rate.

    The trials are split over :func:`~uncloneq.linalg.lane_map`'s two
    lanes, each with its own spawned stream, run side by side.  In a lane
    each trial takes one row of ``sum(ks)`` exponentials from the lane's
    stream, in trial order.  Each lane draws its rows into its own block,
    allocated once, of at most ``_BLOCK_ENTRIES = 2**16`` float64 entries
    (512 KB) and at least one row, so memory is about ``2 max(512 KB, 8
    sum(ks) bytes)`` whatever ``trials`` is.  A lane adds its ratios and
    their squares one after another in trial order, and the lanes' sums
    are added in lane order, so the estimate depends on the seed and the
    lane count, bit for bit, but not on the block size or on how many CPUs
    ran the lanes.
    """
    if not is_integer(trials) or trials < 1:
        raise ValueError(f"trials must be an integer of at least 1, got {trials!r}")
    ks = list(ks)
    if not ks or not all(is_integer(k) and k >= 1 for k in ks):
        raise ValueError("all shapes must be positive integers")
    _check_rate(rate)
    n = len(ks)
    if n == 1:
        return 1.0, 0.0
    k_total = sum(ks)
    offsets = np.cumsum([0] + ks)[:-1]

    def lane(gen: np.random.Generator, share: int) -> tuple[float, float]:
        block = np.empty((max(1, min(share, _BLOCK_ENTRIES // k_total)), k_total))
        acc = 0.0
        acc_sq = 0.0
        done = 0
        while done < share:
            rows = block[: min(len(block), share - done)]
            gen.standard_exponential(out=rows)
            # with every shape 1 the block sums are the draws themselves
            sums = rows if k_total == n else np.add.reduceat(rows, offsets, axis=1)
            ratios = sums.max(axis=1) / sums.sum(axis=1)
            acc = _running_sum(acc, ratios)
            acc_sq = _running_sum(acc_sq, ratios * ratios)
            done += len(rows)
        return acc, acc_sq

    acc = 0.0
    acc_sq = 0.0
    for lane_acc, lane_acc_sq in lane_map(lane, rng, trials):
        acc += lane_acc
        acc_sq += lane_acc_sq
    mean = acc / trials
    if trials == 1:
        return mean, 0.0
    var = max((acc_sq - trials * mean * mean) / (trials - 1), 0.0)
    return mean, math.sqrt(var / trials)
