"""Dense complex linear-algebra kernel.

Hermitian eigendecompositions, partial traces, Kraus channels, the
contraction kernel :func:`joint_expectation` for product measurements on a
channel output, pseudo-inverse square roots, and Haar-random unitaries.
States and operators are plain complex ``numpy`` arrays; the ``assert_*``
validators enforce the validity contracts with the absolute tolerances
from :mod:`uncloneq.config`, which they take no override of.

Randomness is drawn from ``numpy.random.Generator`` instances (PCG64),
which are seedable and splittable: create one with :func:`make_rng` and
derive independent worker streams with ``rng.spawn(n)`` or by passing a
distinct ``stream`` index.  A fixed ``(seed, stream)`` pair reproduces the
same outputs bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .config import TOL
from .errors import DimensionMismatch, InvalidOperator, NotHermitian

Array = np.ndarray

__all__ = [
    "Array",
    "KrausChannel",
    "apply_channel",
    "assert_density_operator",
    "assert_projector",
    "assert_unitary",
    "dagger",
    "haar_unitary",
    "herm_eig",
    "joint_expectation",
    "make_rng",
    "max_abs",
    "partial_trace",
    "pseudo_inv_sqrt",
]

# eigenvalues at or below this are outside the support of pseudo_inv_sqrt
_PSEUDO_INV_CUTOFF = 1e-14


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Seeded PCG64 generator; ``stream`` selects an independent substream.

    Distinct ``(seed, stream)`` pairs yield statistically independent
    streams, so parallel workers can each receive ``make_rng(seed, i)``.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(ss))


def dagger(a: Array) -> Array:
    """Conjugate transpose (of each matrix in a stack)."""
    return a.conj().swapaxes(-1, -2)


def max_abs(a: Array) -> float:
    """Largest entry magnitude; 0.0 for empty arrays."""
    return float(np.max(np.abs(a))) if a.size else 0.0


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------


def _require_square(a: Array) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


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


def assert_density_operator(rho: Array) -> None:
    """Check Hermiticity, positivity and unit trace of a density operator."""
    assert_hermitian(rho)
    w = np.linalg.eigvalsh(rho)
    if w[0] < -TOL.density_psd:
        raise InvalidOperator(f"smallest eigenvalue {w[0]} below -{TOL.density_psd}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TOL.trace:
        raise InvalidOperator(f"trace {tr} deviates from 1 by more than {TOL.trace}")


def assert_unitary(u: Array) -> None:
    """Check ``u @ u.conj().T == I`` within ``TOL.unitary`` (max entry deviation)."""
    assert_finite(u)
    d = _require_square(u)
    dev = max_abs(u @ dagger(u) - np.eye(d))
    if dev > TOL.unitary:
        raise InvalidOperator(f"unitarity deviation {dev} exceeds {TOL.unitary}")


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
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def partial_trace(
    op: Array, dims: tuple[int, int], keep: Literal["first", "second"]
) -> Array:
    """Trace out one tensor factor of an operator on a bipartite space.

    Parameters
    ----------
    op : Array
        Operator on a space of dimension ``dims[0] * dims[1]``.
    dims : (int, int)
        Dimensions of the two tensor factors, in kron order.
    keep : "first" or "second"
        Which factor the result acts on.
    """
    d0, d1 = dims
    n = _require_square(op)
    if n != d0 * d1:
        raise DimensionMismatch(f"operator dim {n} != {d0}*{d1}")
    four = op.reshape(d0, d1, d0, d1)
    if keep == "first":
        return np.einsum("ijkj->ik", four)
    if keep == "second":
        return np.einsum("ijil->jl", four)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators.

    Attributes
    ----------
    in_dim, out_dim : int
        Input and output dimensions.
    kraus_ops : tuple of Array
        Operators of shape ``(out_dim, in_dim)`` with
        ``sum(K.conj().T @ K) == I`` within the completeness tolerance.
    """

    in_dim: int
    out_dim: int
    kraus_ops: tuple[Array, ...]

    def __post_init__(self) -> None:
        if not self.kraus_ops:
            raise InvalidOperator("a channel needs at least one Kraus operator")
        for k in self.kraus_ops:
            if k.shape != (self.out_dim, self.in_dim):
                raise DimensionMismatch(
                    f"Kraus operator shape {k.shape} != ({self.out_dim}, {self.in_dim})"
                )
        acc = sum(dagger(k) @ k for k in self.kraus_ops)
        dev = max_abs(acc - np.eye(self.in_dim))
        if dev > TOL.completeness:
            raise InvalidOperator(f"Kraus completeness deviation {dev}")


def apply_channel(ch: KrausChannel, rho: Array) -> Array:
    """Apply a Kraus channel: ``sum(K @ rho @ K.conj().T)``."""
    n = _require_square(rho)
    if n != ch.in_dim:
        raise DimensionMismatch(f"state dim {n} != channel input dim {ch.in_dim}")
    out = np.zeros((ch.out_dim, ch.out_dim), dtype=complex)
    for k in ch.kraus_ops:
        out += k @ rho @ dagger(k)
    return out


def joint_expectation(
    effects: Sequence[Array], kraus_ops: Sequence[Array], rho: Array
) -> float:
    """``sum_K tr((E_1 ⊗ ... ⊗ E_n) K rho K†)`` without forming either product.

    The rows of ``K @ rho`` are indexed by ``(i_1, ..., i_n)`` in kron
    order, with ``d_i`` the dimension of effect ``E_i``.  Each effect is
    applied along its own index as one batched matmul over the reshape
    ``(d_1 ... d_{i-1}, d_i, rest)``, and the result is contracted with
    ``K`` in one ``vdot``.  Neither the Kronecker product of the effects
    nor the channel output ``K rho K†`` is built.
    """
    dims = tuple(e.shape[0] for e in effects)
    total = 0.0
    for k in kraus_ops:
        if math.prod(dims) != k.shape[0]:
            raise DimensionMismatch(
                f"effect dims {dims} do not factor Kraus output dim {k.shape[0]}"
            )
        t = k @ rho
        for i, eff in enumerate(effects):
            t = eff @ t.reshape(math.prod(dims[:i]), dims[i], -1)
        total += np.vdot(k, t).real
    return float(total)


def pseudo_inv_sqrt(rho: Array) -> Array:
    """Inverse square root on eigenspaces above ``1e-14``, zero elsewhere.

    ``rho`` may be a stack of matrices; each is treated on its own.
    """
    w, v = herm_eig(rho)
    inv = np.where(
        w > _PSEUDO_INV_CUTOFF, 1.0 / np.sqrt(np.maximum(w, _PSEUDO_INV_CUTOFF)), 0.0
    )
    out = (v * inv[..., None, :]) @ dagger(v)
    return (out + dagger(out)) / 2
