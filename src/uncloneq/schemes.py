"""Quantum encryption of classical messages (QECM): model and constructions.

A scheme is a triple (key sampler, encrypt, decrypt POVM) over a classical
message set ``[M]`` and a ``d``-dimensional ciphertext space.  A key's
ciphertexts are one ``(M, d, d)`` stack (:meth:`QecmScheme.ciphertexts`),
and evaluators read a list of keys as one ``(K, M, d, d)`` stack
(:meth:`QecmScheme.ciphertext_stack`), each key once.  A :class:`Povm`
holds its effects as one ``(n, d, d)`` array, and :func:`validate_effects`
checks such an array, or a ``(K, n, d, d)`` stack of one per key, in one
pass.  Provided constructions:

* :func:`haar_scheme` -- message ``m`` encrypts to a Haar-rotated
  normalized projector onto a contiguous basis block of size ``t_m``;
  the key is the pair (rank vector, Haar unitary).
* :func:`uniform_haar_scheme` -- the deterministic even split ``t = (L,
  ..., L)`` with ``d = L * M``.
* :func:`bb84_scheme` -- each message bit encoded in a key-selected
  BB84 basis after XOR with a key pad.

Also provided: correctness checking, the largest-eigenvalue statistic
used by the indistinguishability attack bound, and
:func:`scheme_from_descriptor`, which builds a scheme from a JSON
descriptor.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .config import TOL, check_entries, check_keys, is_integer, key_chunks
from .errors import DimensionMismatch, InvalidOperator, InvalidRanks
from .linalg import Array, dagger, haar_unitary, herm_eig, max_abs

__all__ = [
    "Bb84Key",
    "HaarKey",
    "Povm",
    "QecmScheme",
    "RankDistribution",
    "bb84_scheme",
    "check_correctness",
    "haar_scheme",
    "mu_statistic",
    "scheme_from_descriptor",
    "top_eigenvalue_means",
    "uniform_haar_scheme",
    "validate_effects",
]


@dataclass(frozen=True)
class Povm:
    """Positive operator-valued measure: PSD effects summing to identity.

    Any sequence of ``(dim, dim)`` effects is held as one ``(n, dim, dim)`` array,
    checked by :func:`validate_effects` when the POVM is built.
    """

    dim: int
    effects: Array

    def __post_init__(self) -> None:
        effects = [np.asarray(e, dtype=complex) for e in self.effects]
        for e in effects:
            if e.shape != (self.dim, self.dim):
                raise DimensionMismatch(f"effect shape {e.shape} != ({self.dim}, {self.dim})")
        object.__setattr__(self, "effects", np.reshape(effects, (-1, self.dim, self.dim)))
        validate_effects(self.effects)


def validate_effects(effects: Array) -> None:
    """Check a ``(..., n, d, d)`` array of POVMs, each the ``n`` effects of one measurement.

    Every effect must be Hermitian and PSD, and every measurement's effects
    must sum to the identity, within ``TOL``; :class:`InvalidOperator`
    names the worst deviation.  A stack of one POVM per key is checked in
    one pass.  Positivity is cleared by one stacked Cholesky of
    ``E + TOL.effect_psd I``; only when it fails does the smallest
    eigenvalue decide, and name the failure.
    """
    dev = max_abs(effects - dagger(effects))
    if dev > TOL.herm:
        raise InvalidOperator(f"effect Hermiticity deviation {dev}")
    herm = (effects + dagger(effects)) / 2
    try:
        np.linalg.cholesky(herm + TOL.effect_psd * np.eye(effects.shape[-1]))
    except np.linalg.LinAlgError:
        low = float(np.linalg.eigvalsh(herm)[..., :1].min(initial=0.0))
        if low < -TOL.effect_psd:
            raise InvalidOperator(f"effect eigenvalue {low} below -{TOL.effect_psd}") from None
    dev = max_abs(effects.sum(axis=-3) - np.eye(effects.shape[-1]))
    if dev > TOL.completeness:
        raise InvalidOperator(f"POVM completeness deviation {dev}")


@dataclass(frozen=True)
class RankDistribution:
    """Finite real probabilities over rank vectors ``t`` with positive entries summing to d."""

    support: tuple[tuple[int, ...], ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(is_integer(x) for t in self.support for x in t):
            raise InvalidRanks(f"ranks must be integers, got {[list(t) for t in self.support]}")
        for p in self.probabilities:
            if isinstance(p, bool) or not isinstance(p, numbers.Real) or not math.isfinite(p):
                raise InvalidRanks(f"probabilities must be finite real numbers, got {p!r}")
        support = tuple(tuple(int(x) for x in t) for t in self.support)
        probs = tuple(float(p) for p in self.probabilities)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probabilities", probs)
        if not support or len(support) != len(probs):
            raise InvalidRanks("support and probabilities must be non-empty and aligned")
        if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > TOL.prob_sum:
            raise InvalidRanks("probabilities must be nonnegative and sum to 1")
        sums = {sum(t) for t in support}
        if len(sums) != 1:
            raise InvalidRanks("all rank vectors must sum to the same dimension")
        lengths = {len(t) for t in support}
        if len(lengths) != 1:
            raise InvalidRanks("all rank vectors must have the same length")
        if any(x < 1 for t in support for x in t):
            raise InvalidRanks("ranks must be positive integers")

    @classmethod
    def deterministic(cls, t: Sequence[int]) -> "RankDistribution":
        return cls((tuple(t),), (1.0,))

    @property
    def total_dim(self) -> int:
        return sum(self.support[0])

    @property
    def message_count(self) -> int:
        return len(self.support[0])

    def sample(
        self, rng: np.random.Generator, n: int | None = None
    ) -> tuple[int, ...] | Array:
        """One rank vector, or an ``(n, M)`` array of ``n`` from one batched draw."""
        idx = rng.choice(len(self.support), size=n, p=self.probabilities)
        if n is None:
            return self.support[int(idx)]
        return np.array(self.support)[idx]


@dataclass(frozen=True)
class HaarKey:
    """Key of a Haar block scheme: a rank vector and a Haar unitary."""

    ranks: tuple[int, ...]
    unitary: Array


@dataclass(frozen=True)
class Bb84Key:
    """Key of the BB84 scheme: per-bit basis choices and a one-time pad."""

    basis_bits: tuple[int, ...]
    pad_bits: tuple[int, ...]


@dataclass(frozen=True)
class QecmScheme:
    """A QECM scheme: key sampler, encryption map and decryption POVM.

    ``encrypt(key, m)`` returns the ciphertext density operator of
    dimension ``cipher_dim``, :meth:`ciphertexts` all of a key's
    ciphertexts as one stack, and :meth:`ciphertext_stack` those of a list
    of keys; ``decrypt_povm(key)`` returns the decryption
    POVM with ``message_count`` outcomes.  Continuous-key schemes carry a
    sampler rather than an enumerable key set; schemes with finite key
    spaces may expose ``enumerate_keys`` for exact key expectations.
    Schemes that can draw many keys at once may set ``factor_sampler``;
    :meth:`sample_factors` falls back to a loop over ``key_sampler``.
    ``unitarily_invariant`` declares that the key law is invariant under
    every fixed unitary ``V``: the key's ciphertexts and their images
    ``V Enc_k(m) V†`` have the same joint law, as for the Haar block
    schemes, whose key unitary is Haar and independent of the ranks.  The
    random-basis attack (:func:`~uncloneq.attacks.random_basis_attack_estimate`)
    then skips its basis draw.
    """

    message_count: int
    cipher_dim: int
    key_sampler: Callable[[np.random.Generator], Any]
    encrypt: Callable[[Any, int], Array]
    decrypt_povm: Callable[[Any], Povm]
    enumerate_keys: Callable[[], list] | None = None
    factor_sampler: Callable[[np.random.Generator, int], tuple[Array, Array]] | None = None
    unitarily_invariant: bool = False

    def ciphertexts(self, key: Any) -> Array:
        """``encrypt(key, m)`` for every message, in order, as one complex ``(M, d, d)`` stack."""
        return np.array([self.encrypt(key, m) for m in range(self.message_count)], dtype=complex)

    def ciphertext_stack(self, keys: Sequence) -> Array:
        """:meth:`ciphertexts` of every key, in key order, as one complex ``(K, M, d, d)`` stack.

        Each key is read once.  An empty list, or a stack of more than
        ``config.ENTRIES_CAP`` entries, is refused before any key is read.
        """
        check_keys(keys)
        m, d = self.message_count, self.cipher_dim
        what = f"the ciphertexts of {len(keys)} keys ({m} x {d}^2 each)"
        check_entries(len(keys) * m * d * d, what)
        stack = np.empty((len(keys), m, d, d), dtype=complex)
        for k, key in enumerate(keys):
            stack[k] = self.ciphertexts(key)
        return stack

    def factor(self, key: Any) -> tuple[Array, Array]:
        """All ciphertexts of ``key`` as one factor ``F`` and column owners.

        ``F`` has shape ``(cipher_dim, r)`` and ``owner[j]`` is the message
        of column ``j``, with ``encrypt(key, m) == F_m F_m†`` for ``F_m``
        the columns owned by ``m``: the eigenvectors of each ciphertext
        scaled by the square roots of their eigenvalues above
        ``TOL.support_cutoff``, from one eigendecomposition of the stack.
        """
        w, v = herm_eig(self.ciphertexts(key))
        owner, col = np.nonzero(w > TOL.support_cutoff)
        return (v[owner, :, col] * np.sqrt(w[owner, col])[:, None]).T, owner

    def sample_factors(self, rng: np.random.Generator, n: int) -> tuple[Array, Array]:
        """Factors of ``n`` freshly drawn keys, stacked, with one-hot owners.

        Returns ``F`` of shape ``(n, cipher_dim, r)`` and ``S`` of shape
        ``(n, r, message_count)``: key ``j``'s :meth:`factor` sits in
        ``F[j]``, zero-padded to the widest factor ``r``, and
        ``S[j, c, m] = 1`` when column ``c`` belongs to message ``m``, so
        ``Enc_j(m) = F[j] diag(S[j, :, m]) F[j]†``.  Without a
        ``factor_sampler`` the keys come from :meth:`sample_keys`.
        """
        if self.factor_sampler is not None:
            return self.factor_sampler(rng, n)
        factors = [self.factor(key) for key in self.sample_keys(rng, n)]
        r = max(f.shape[1] for f, _ in factors)
        stacked = np.zeros((n, self.cipher_dim, r), dtype=complex)
        owners = np.zeros((n, r, self.message_count))
        for j, (f, owner) in enumerate(factors):
            stacked[j, :, : f.shape[1]] = f
            owners[j, np.arange(owner.size), owner] = 1.0
        return stacked, owners

    def sample_keys(self, rng: np.random.Generator, n: int) -> list:
        """``n`` keys from ``n`` calls of ``key_sampler``, in draw order.

        A list whose keys may hold more than ``config.ENTRIES_CAP`` entries,
        ``n cipher_dim²``, is refused before any key is drawn.
        """
        if n < 1:
            raise ValueError(f"need at least 1 key sample, got {n}")
        check_entries(n * self.cipher_dim**2, f"a list of {n} keys at d = {self.cipher_dim}")
        return [self.key_sampler(rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# Haar block schemes
# ---------------------------------------------------------------------------


def haar_scheme(M: int, d: int, tdist: RankDistribution) -> QecmScheme:
    """Haar-rotated block scheme with ranks drawn from ``tdist``.

    Encryption of ``m`` under key ``(t, u)`` is ``u P_m u†/t_m`` with
    ``P_m`` the projector onto the m-th contiguous block of size ``t_m``
    of the standard basis; decryption measures ``{u P_m u†}``.
    """
    if M < 1 or d < M:
        raise InvalidRanks(f"need d >= M >= 1, got M={M}, d={d}")
    if tdist.message_count != M or tdist.total_dim != d:
        raise InvalidRanks(
            f"rank distribution is over {tdist.message_count} messages summing to "
            f"{tdist.total_dim}, expected {M} summing to {d}"
        )

    def key_sampler(rng: np.random.Generator) -> HaarKey:
        return HaarKey(ranks=tdist.sample(rng), unitary=haar_unitary(d, rng))

    def encrypt(key: HaarKey, m: int) -> Array:
        # message m owns the contiguous column block [sum(t[:m]), sum(t[:m+1]))
        lo = sum(key.ranks[:m])
        cols = key.unitary[:, lo : lo + key.ranks[m]]
        return (cols @ dagger(cols)) / key.ranks[m]

    def factor_sampler(rng: np.random.Generator, n: int) -> tuple[Array, Array]:
        # the ranks of all n keys in one draw, then their n unitaries in one QR;
        # column c of key j belongs to the first message whose block ends past c
        t = tdist.sample(rng, n)
        u = haar_unitary(d, rng, n)
        owner = (np.arange(d)[:, None] >= np.cumsum(t, axis=1)[:, None, :]).sum(axis=2)
        scale = np.sqrt(np.take_along_axis(t, owner, axis=1))
        return u / scale[:, None, :], (owner[..., None] == np.arange(M)).astype(float)

    def decrypt_povm(key: HaarKey) -> Povm:
        blocks = np.split(key.unitary, np.cumsum(key.ranks)[:-1], axis=1)
        return Povm(dim=d, effects=np.array([cols @ dagger(cols) for cols in blocks]))

    return QecmScheme(
        message_count=M,
        cipher_dim=d,
        key_sampler=key_sampler,
        encrypt=encrypt,
        decrypt_povm=decrypt_povm,
        factor_sampler=factor_sampler,
        unitarily_invariant=True,
    )


def uniform_haar_scheme(M: int, L: int) -> QecmScheme:
    """Haar block scheme with the deterministic even split ``t = (L,...,L)``."""
    if M < 1 or L < 1:
        raise InvalidRanks("M and L must be at least 1")
    return haar_scheme(M, L * M, RankDistribution.deterministic((L,) * M))


# ---------------------------------------------------------------------------
# BB84 scheme
# ---------------------------------------------------------------------------

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _bb84_vector(key: Bb84Key, m: int, n: int) -> Array:
    # qubit i carries message bit i (most significant first), padded then rotated
    vec = np.array([1.0 + 0j])
    for i in range(n):
        bit = ((m >> (n - 1 - i)) & 1) ^ key.pad_bits[i]
        q = np.zeros(2, dtype=complex)
        q[bit] = 1.0
        if key.basis_bits[i]:
            q = _HADAMARD @ q
        vec = np.kron(vec, q)
    return vec


def bb84_scheme(n: int) -> QecmScheme:
    """BB84 encryption of ``n`` message bits.

    Key: uniform basis bits ``theta`` and pad bits ``r``; message ``m``
    encrypts to the product state with qubit ``i`` prepared as
    ``H^theta_i |m_i xor r_i>``.  Decryption measures each qubit in its
    keyed basis and strips the pad.
    """
    if n < 1:
        raise DimensionMismatch("n must be at least 1")
    d = 2**n

    def key_sampler(rng: np.random.Generator) -> Bb84Key:
        bits = rng.integers(0, 2, size=2 * n)
        return Bb84Key(tuple(int(b) for b in bits[:n]), tuple(int(b) for b in bits[n:]))

    def encrypt(key: Bb84Key, m: int) -> Array:
        v = _bb84_vector(key, m, n)
        return np.outer(v, v.conj())

    def decrypt_povm(key: Bb84Key) -> Povm:
        return Povm(dim=d, effects=tuple(encrypt(key, m) for m in range(d)))

    def enumerate_keys() -> list[Bb84Key]:
        keys = []
        for theta in range(d):
            for pad in range(d):
                tb = tuple((theta >> (n - 1 - i)) & 1 for i in range(n))
                pb = tuple((pad >> (n - 1 - i)) & 1 for i in range(n))
                keys.append(Bb84Key(tb, pb))
        return keys

    return QecmScheme(
        message_count=d,
        cipher_dim=d,
        key_sampler=key_sampler,
        encrypt=encrypt,
        decrypt_povm=decrypt_povm,
        enumerate_keys=enumerate_keys,
    )


# ---------------------------------------------------------------------------
# diagnostics and transformations
# ---------------------------------------------------------------------------


def check_correctness(e: QecmScheme, keys: Sequence) -> float:
    """Worst decryption failure over ``keys`` and all messages.

    Returns ``max_{k,m} 1 - tr(D_m^k Enc_k(m))``; 0 means the scheme is
    perfectly correct on the keys.  Uses exact traces, not sampled
    measurement outcomes.
    """
    check_keys(keys)
    worst = 0.0
    for key in keys:
        hits = np.trace(e.decrypt_povm(key).effects @ e.ciphertexts(key), axis1=1, axis2=2).real
        worst = max(worst, float((1.0 - hits).max()))
    return worst


def mu_statistic(e: QecmScheme, keys: Sequence) -> float:
    """Largest (over messages) top ciphertext eigenvalue averaged over ``keys``."""
    return float(np.max(top_eigenvalue_means(e, keys)))


def top_eigenvalue_means(e: QecmScheme, keys: Sequence) -> Array:
    """Per message, the top ciphertext eigenvalue averaged over ``keys``.

    Keys are read in chunks (:func:`config.key_chunks`), each chunk as one
    stack with one stacked ``eigvalsh``; the keys' values are added in key
    order.
    """
    check_keys(keys)
    sums = np.zeros(e.message_count)
    for chunk in key_chunks(len(keys), e.message_count * e.cipher_dim**2):
        for tops in np.linalg.eigvalsh(e.ciphertext_stack(keys[chunk]))[..., -1]:
            sums += tops
    return sums / len(keys)


def _descriptor_int(desc: dict, key: str) -> int:
    # int() keeps its message for null or non-numeric text; what it would
    # accept but is no JSON integer (1.9, true, "2") is refused as a rank is
    val = desc[key]
    n = int(val)
    if not is_integer(val):
        raise ValueError(f"descriptor key {key!r} must be an integer, got {val!r}")
    return n


def scheme_from_descriptor(desc: dict) -> QecmScheme:
    """Build a scheme from a JSON descriptor (haar / uniform_haar / bb84)."""
    kind = desc.get("type")
    if kind == "bb84":
        return bb84_scheme(_descriptor_int(desc, "n"))
    if kind == "uniform_haar":
        return uniform_haar_scheme(_descriptor_int(desc, "M"), _descriptor_int(desc, "L"))
    if kind == "haar":
        tdist = RankDistribution(
            support=tuple(tuple(t) for t, _ in desc["tdist"]),
            probabilities=tuple(p for _, p in desc["tdist"]),
        )
        return haar_scheme(_descriptor_int(desc, "M"), _descriptor_int(desc, "d"), tdist)
    raise ValueError(f"unknown scheme descriptor type {kind!r}")
