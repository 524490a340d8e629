"""Numerical tolerances and size limits used by checks across the package.

All checks use absolute tolerances.  The values below are the single
source of truth; the validators read them and take no override.
"""

import numbers
from dataclasses import dataclass
from typing import Any, Sized


@dataclass(frozen=True)
class Tolerances:
    """Absolute tolerances for operator and distribution validity checks."""

    #: max-entry deviation from Hermiticity.
    herm: float = 1e-10
    #: max-entry deviation of P @ P from P for projectors.
    idempotent: float = 1e-9
    #: max-entry deviation of POVM / Kraus completeness sums from identity.
    completeness: float = 1e-9
    #: most negative admissible eigenvalue of a POVM effect.
    effect_psd: float = 1e-9
    #: max-entry bound on rho @ sigma for orthogonal-support pairs.
    orthogonal: float = 1e-9
    #: deviation of probability vectors from summing to 1.
    prob_sum: float = 1e-12
    #: eigenvalue at or below which a mode is outside an operator's support: the
    #: columns of ``QecmScheme.factor``, the projector columns of
    #: ``attacks._projectors`` and the support of ``meg._induced_game``'s ``rho_bar``.
    support_cutoff: float = 1e-10


TOL = Tolerances()

#: complex entries (256 MB) that one array, key list or lockstep stack may hold
ENTRIES_CAP = 2**24
#: complex entries (2 MB) of per-key arrays one chunk of an evaluator's keys may hold
KEY_CHUNK_ENTRIES = 2**17


def check_entries(entries: int, what: str) -> None:
    """Refuse a size above ``ENTRIES_CAP`` before anything is allocated."""
    if entries > ENTRIES_CAP:
        raise ValueError(f"{what} needs {entries} entries, more than the cap of {ENTRIES_CAP}")


def key_chunks(count: int, per_key: int) -> list[slice]:
    """Consecutive slices over ``count`` keys, ``KEY_CHUNK_ENTRIES // per_key`` keys each.

    ``per_key`` is the complex entries one key holds in a chunk; every
    slice holds at least one key, and the last may hold fewer.
    """
    step = max(1, KEY_CHUNK_ENTRIES // per_key)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def check_keys(keys: Sized) -> None:
    """Refuse an empty key list, over which no average is defined."""
    if not len(keys):
        raise ValueError("keys must hold at least one key")


def is_integer(x: Any) -> bool:
    """True for an integer; a bool or a non-integer number (1.5, 2.0) is refused, not truncated."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)
