"""Dense complex linear-algebra kernel.

Hermitian eigendecompositions, Kraus channels held as stacked factor
pairs, the contraction kernel :func:`joint_expectation` for product
measurements on a channel output, and Haar-random unitaries.
The kernel, like a channel's completeness check, contracts only the
support of the left Kraus factors, the ``s`` output rows some ``left_j``
reaches, at ``O(n s r (r + s))`` per problem for ``n`` operators of rank
``r``; a dense factor (``s = out``) costs ``O(n out² r)``.  No channel a
subcommand builds is dense: the superposition cloner reaches ``2d`` of
its ``(d+1)²`` rows and measure-and-share ``d`` of ``d²``.
States and operators are plain complex ``numpy`` arrays; the ``assert_*``
validators enforce the validity contracts with the absolute tolerances
from :mod:`uncloneq.config`, which they take no override of.

Randomness is drawn from ``numpy.random.Generator`` instances (PCG64),
which are seedable and splittable: create one with :func:`make_rng` and
derive independent worker streams with ``rng.spawn(n)`` or by passing a
distinct ``stream`` index.  A fixed ``(seed, stream)`` pair reproduces the
same outputs bit for bit.  :func:`lane_estimate` is the one Monte Carlo
driver: it splits an estimate's trials over ``_LANES = 2`` spawned streams,
runs them on threads (numpy releases the interpreter lock while it fills
arrays and in batched ``qr`` and matmul), draws each lane's trials in
chunks and adds the values and their squares in trial order, so its
output depends on the seed and the lane count, never on how many CPUs ran
the lanes.  It is independent of the chunk size only when ``draw`` reads
its stream row by row: :func:`uncloneq.attacks.random_basis_attack_estimate`
draws a chunk's ranks and then its unitaries, so its result is not.  Every
estimate sizes its chunks from the one budget ``LANE_BYTES`` (512 KB),
divided by the bytes its main array takes per trial.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .config import TOL
from .errors import DimensionMismatch, InvalidOperator, NotHermitian

Array = np.ndarray

__all__ = [
    "Array",
    "KrausChannel",
    "apply_channel",
    "assert_projector",
    "dagger",
    "haar_unitary",
    "herm_eig",
    "joint_expectation",
    "lane_estimate",
    "make_rng",
    "max_abs",
]

# complex entries (512 KB) of one chunk of joint_expectation's intermediates
_KERNEL_ENTRIES = 2**15
# independent substreams every Monte Carlo estimate splits its trials over
_LANES = 2
#: bytes (512 KB) of one lane's main array per chunk of a Monte Carlo estimate
LANE_BYTES = 2**19


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Seeded PCG64 generator; ``stream`` selects an independent substream.

    Distinct ``(seed, stream)`` pairs yield statistically independent
    streams, so parallel workers can each receive ``make_rng(seed, i)``.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(ss))


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _lane_map(
    fn: Callable[[np.random.Generator, int], Any], rng: np.random.Generator, trials: int
) -> list:
    """``fn(generator, share)`` for each of ``_LANES`` lanes; results in lane order.

    Lane ``j`` gets ``rng.spawn(_LANES)[j]`` and the contiguous share
    ``trials (j+1) // _LANES - trials j // _LANES`` of the trials; a lane
    with no share is skipped.  The first lane runs on the calling thread
    and up to ``min(_LANES, CPUs) - 1`` others on threads started and
    joined here; the calling thread runs any further lane in turn, so on
    one CPU every lane runs on it.  So long as ``fn`` shares no mutable
    state between lanes, the results depend on ``rng``, ``trials`` and
    ``_LANES`` but not on the CPU count.  An exception raised in any lane
    is re-raised here once every thread has been joined.
    """
    lanes = [
        (gen, trials * (j + 1) // _LANES - trials * j // _LANES)
        for j, gen in enumerate(rng.spawn(_LANES))
    ]
    lanes = [lane for lane in lanes if lane[1]]
    results: list = [None] * len(lanes)
    errors: list = [None] * len(lanes)

    def run(j: int) -> None:
        try:
            results[j] = fn(*lanes[j])
        except BaseException as exc:  # re-raised by the caller after the join
            errors[j] = exc

    threads = [
        threading.Thread(target=run, args=(j,))
        for j in range(1, min(len(lanes), _LANES, _cpu_count()))
    ]
    for t in threads:
        t.start()
    # lanes 1 to len(threads) run on the threads, every other lane here
    for j in range(len(lanes)):
        if j == 0 or j > len(threads):
            run(j)
    for t in threads:
        t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def lane_estimate(
    draw: Callable[[np.random.Generator, int], Array],
    rng: np.random.Generator,
    trials: int,
    chunk: int,
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of ``trials`` values from ``draw``.

    ``draw(generator, c)`` returns the ``c`` values of one chunk of trials.
    Each of :func:`_lane_map`'s lanes draws its share from its own stream
    in chunks of at most ``max(1, chunk)`` trials, so memory is one chunk
    per lane, and adds the values and their squares in trial order; the
    lanes' sums are added in lane order.  The result does not depend on
    how many CPUs ran the lanes, nor on ``chunk`` if ``draw`` reads its
    stream row by row.  One trial has standard error 0.
    """
    step = max(1, chunk)

    def lane(gen: np.random.Generator, share: int) -> tuple[float, float]:
        acc = acc_sq = 0.0
        for done in range(0, share, step):
            vals = draw(gen, min(step, share - done))
            # cumsum adds its terms one after another: one pass in trial order
            acc = float(np.cumsum(np.concatenate(([acc], vals)))[-1])
            acc_sq = float(np.cumsum(np.concatenate(([acc_sq], vals * vals)))[-1])
        return acc, acc_sq

    acc, acc_sq = map(sum, zip(*_lane_map(lane, rng, trials)))
    mean = acc / trials
    if trials == 1:
        return mean, 0.0
    var = max((acc_sq - trials * mean * mean) / (trials - 1), 0.0)
    return mean, math.sqrt(var / trials)


def dagger(a: Array) -> Array:
    """Conjugate transpose (of each matrix in a stack)."""
    return a.conj().swapaxes(-1, -2)


def max_abs(a: Array) -> float:
    """Largest entry magnitude; 0.0 for empty arrays."""
    return float(np.max(np.abs(a))) if a.size else 0.0


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------


def assert_finite(a: Array) -> None:
    if not np.all(np.isfinite(a.view(float) if np.iscomplexobj(a) else a)):
        raise InvalidOperator("array contains NaN or Inf entries")


def assert_hermitian(h: Array) -> None:
    """Check max-entry deviation of ``h`` from its conjugate transpose.

    ``h`` may be a stack of matrices; each one is checked.
    """
    assert_finite(h)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {h.shape}")
    dev = np.abs(h - dagger(h)).max(axis=(-2, -1), initial=0.0)
    if np.any(dev > TOL.herm):
        raise NotHermitian(f"Hermiticity deviation {dev.max()} exceeds {TOL.herm}")


def assert_projector(p: Array) -> None:
    """Check Hermiticity and idempotence of a projector."""
    assert_hermitian(p)
    dev = max_abs(p @ p - p)
    if dev > TOL.idempotent:
        raise InvalidOperator(f"idempotence deviation {dev} exceeds {TOL.idempotent}")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def herm_eig(h: Array) -> tuple[Array, Array]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Parameters
    ----------
    h : Array
        Hermitian matrix, or a stack of them in the last two axes (each
        checked within ``TOL.herm`` max entry deviation).

    Returns
    -------
    (eigenvalues, eigenvectors)
        Real eigenvalues sorted in descending order and the matrix whose
        columns are the matching orthonormal eigenvectors, so that
        ``h == eigenvectors @ diag(eigenvalues) @ eigenvectors.conj().T``.

    Eigenvector choice inside degenerate subspaces is an arbitrary (but
    deterministic) orthonormal basis; callers must not rely on it.
    """
    assert_hermitian(h)
    w, v = np.linalg.eigh(h)
    return w[..., ::-1].copy(), v[..., ::-1].copy()


def haar_unitary(d: int, rng: np.random.Generator, n: int | None = None) -> Array:
    """Haar-distributed random unitary of dimension ``d``, or a stack of ``n``.

    QR decomposition of a complex Ginibre matrix with the phases of the
    R diagonal absorbed into Q; a plain QR is not Haar-distributed.  With
    ``n`` given, the result has shape ``(n, d, d)`` and all ``n`` matrices
    come from one batched QR; ``haar_unitary(d, rng, 1)[0]`` equals
    ``haar_unitary(d, rng)`` for the same generator state.
    """
    if d < 1:
        raise DimensionMismatch("dimension must be at least 1")
    shape = (d, d) if n is None else (n, d, d)
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    return _haar_from_ginibre(z)


def _haar_from_ginibre(z: Array) -> Array:
    """Haar unitaries from a ``(..., d, d)`` stack of complex Ginibre matrices.

    One batched QR, then the phases of each R diagonal absorbed into Q in place.
    """
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diag / np.abs(diag))[..., None, :]
    return q


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map with factored Kraus operators.

    Operator ``j`` is ``K_j = left_j right_j†``, held as one stacked factor
    pair: ``left`` of shape ``(n, out_dim, r)`` and ``right`` of shape
    ``(n, in_dim, r)``.  A rank-one operator such as ``|ii><e_i|`` has
    ``r = 1`` (``d³`` entries for measure-and-share's ``d`` operators, not
    ``d⁴``).  Without ``right``, ``left`` is a sequence of dense
    ``(out_dim, in_dim)`` operators ``K``, held as ``left = K`` and
    ``right = I``.  Completeness ``sum_j K_j† K_j = I`` is checked within
    ``TOL.completeness``, contracting only the output rows in the support
    of ``left`` (the rows :func:`joint_expectation` contracts).
    """

    in_dim: int
    out_dim: int
    left: Array
    right: Array | None = None

    def __post_init__(self) -> None:
        if not len(self.left):
            raise InvalidOperator("a channel needs at least one Kraus operator")
        if self.right is None:
            for k in self.left:
                if k.shape != (self.out_dim, self.in_dim):
                    raise DimensionMismatch(
                        f"Kraus operator shape {k.shape} != ({self.out_dim}, {self.in_dim})"
                    )
            eye = np.eye(self.in_dim, dtype=complex)
            right = np.broadcast_to(eye, (len(self.left), self.in_dim, self.in_dim))
        else:
            right = np.asarray(self.right, dtype=complex)
        left = np.asarray(self.left, dtype=complex)
        n, r = left.shape[0], left.shape[-1]
        if left.shape != (n, self.out_dim, r) or right.shape != (n, self.in_dim, r):
            raise DimensionMismatch(
                f"Kraus factors {left.shape} and {right.shape} do not match "
                f"(n, {self.out_dim}, r) and (n, {self.in_dim}, r)"
            )
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        # sum_j right_j (left_j† left_j) right_j†, contracted over j and r at once; the
        # rows of left outside its support add exact zeros to left_j† left_j
        kept = left[:, _support(left)]
        acc = np.tensordot(right @ (dagger(kept) @ kept), right.conj(), axes=([0, 2], [0, 2]))
        dev = max_abs(acc - np.eye(self.in_dim))
        if dev > TOL.completeness:
            raise InvalidOperator(f"Kraus completeness deviation {dev}")

    def compress(self, rho: Array) -> Array:
        """Inner operators ``sigma_j = right_j† rho right_j`` of every operator.

        ``K_j rho K_j† = left_j sigma_j left_j†``.  For a stack ``(...,
        in_dim, in_dim)`` of states the result has shape ``(..., n, r, r)``.
        """
        return dagger(self.right) @ rho[..., None, :, :] @ self.right


def apply_channel(ch: KrausChannel, rho: Array) -> Array:
    """Apply a Kraus channel: ``sum_j left_j (right_j† rho right_j) left_j†``.

    ``rho`` is one state or a ``(..., in_dim, in_dim)`` stack of states.
    The sum over ``j`` and the rank index is one ``(out, n r) x (n r,
    out)`` matmul per state, so no per-operator output is formed.
    """
    if rho.ndim < 2 or rho.shape[-2:] != (ch.in_dim, ch.in_dim):
        raise DimensionMismatch(f"state shape {rho.shape} != (..., {ch.in_dim}, {ch.in_dim})")
    t = np.swapaxes(ch.left @ ch.compress(rho), -3, -2)
    t = t.reshape(*rho.shape[:-2], ch.out_dim, -1)
    left = np.swapaxes(ch.left, 0, 1).reshape(ch.out_dim, -1)
    return t @ dagger(left)


def _support(left: Array) -> Array:
    """Output rows where some left Kraus factor ``left_j`` has a nonzero entry.

    Every output row outside this support is exactly zero in every
    ``K_j``, so it adds exact zeros to any contraction over output rows.
    """
    return np.flatnonzero(left.any(axis=(0, 2)))


def _on_support(kept: Array, sigma: Array) -> Array:
    """Outputs on the support, ``rho_S = sum_j kept_j sigma_j kept_j†``, of a stack of problems.

    ``kept`` holds the ``(n, s, r)`` left Kraus factors restricted to their
    support rows ``S`` and ``sigma`` the ``(..., n, r, r)`` inner operators;
    the sum over ``j`` and the rank index is one ``(c s, n r) x (n r, s)``
    matmul, so the result is the ``(..., s, s)`` stack of ``(S, S)`` blocks.
    """
    n, s, r = kept.shape
    t = np.swapaxes(kept @ sigma, -3, -2).reshape(-1, n * r)
    kept_h = dagger(np.swapaxes(kept, 0, 1).reshape(s, n * r))
    return (t @ kept_h).reshape(sigma.shape[:-3] + (s, s))


def joint_expectation(effects: Sequence[Array], left: Array, sigma: Array) -> Array:
    """``sum_j tr((E_1 ⊗ ... ⊗ E_p) left_j sigma_j left_j†)`` for a stack of problems.

    ``effects`` holds one ``(..., d_i, d_i)`` stack per tensor factor, in
    kron order, ``left`` the ``(n, d_1 ... d_p, r)`` left Kraus factors and
    ``sigma`` the ``(..., n, r, r)`` inner operators, with the same leading
    batch shape, such as ``(keys, messages)``; returns the values in that
    shape, and raises :class:`DimensionMismatch` when the shapes disagree.
    With ``sigma = ch.compress(rho)`` this is the expectation of the
    product measurement on ``ch(rho)``.

    Only the support ``S`` of ``left`` is contracted: the output rows where
    some ``left_j`` is nonzero, ``s = |S|`` of them (``2d`` of ``(d+1)²``
    for the superposition cloner, ``d`` of ``d²`` for measure-and-share).
    Each problem's output restricted to ``S``, ``rho_S = sum_j left_{j,S}
    sigma_j left_{j,S}†``, comes from :func:`_on_support`, and the value
    is ``tr((E_1 ⊗ ... ⊗ E_p)_{S,S} rho_S)`` with the ``s x s`` block
    gathered from each effect at ``S``'s indices in its own factor, so
    neither the Kronecker product of the effects nor a full channel
    output is built.  A problem costs ``O(n s r (r + s))``; a dense factor
    (``s = out``) costs ``O(n out² r)``.  Problems run in chunks of at
    most ``_KERNEL_ENTRIES`` complex entries (at least one).
    """
    n, out, r = left.shape
    dims = tuple(e.shape[-1] for e in effects)
    if math.prod(dims) != out:
        raise DimensionMismatch(f"effect dims {dims} do not factor Kraus output dim {out}")
    batch = sigma.shape[:-3]
    if sigma.shape[-3:] != (n, r, r):
        raise DimensionMismatch(f"inner operators {sigma.shape} != (..., {n}, {r}, {r})")
    for e, d in zip(effects, dims):
        if e.shape != batch + (d, d):
            raise DimensionMismatch(
                f"effect stack {e.shape} does not match inner operators {sigma.shape}"
            )
    support = _support(left)
    s = len(support)
    kept = left[:, support]
    index = np.unravel_index(support, dims)
    effects = [e.reshape(-1, d, d) for e, d in zip(effects, dims)]
    sigma = sigma.reshape(-1, n, r, r)
    values = np.empty(len(sigma))
    # a problem's intermediates: t of s n r entries and s x s blocks
    step = max(1, _KERNEL_ENTRIES // max(1, s * (n * r + s)))
    for lo in range(0, len(sigma), step):
        hi = min(lo + step, len(sigma))
        rho_s = _on_support(kept, sigma[lo:hi])
        # the (S, S) block of E_1 ⊗ ... ⊗ E_p, one factor's block at a time, in place
        joint = effects[0][lo:hi, index[0]][:, :, index[0]].astype(complex, copy=False)
        for eff, i in zip(effects[1:], index[1:]):
            joint *= eff[lo:hi, i][:, :, i]
        values[lo:hi] = np.einsum("cab,cba->c", joint, rho_s).real
    return values.reshape(batch)
