"""Explicit cloning attacks and their success-probability evaluators.

The attacks implemented here:

* the superposition cloner, the isometry sending ``|phi>`` to
  ``(|bot>|phi> + |phi>|bot>)/sqrt(2)`` with ``|bot>`` one extra ambient
  dimension;
* the projector strategy built on top of it, which simultaneously
  distinguishes a pair of orthogonal-support states with probability
  ``1/2 + lambda_max/16`` at the optimal mixing angle;
* the keyed indistinguishability attack assembled from that strategy;
* the measure-and-share attack: measure the ciphertext in a (possibly
  random) basis, broadcast the classical outcome and decode it by
  maximum likelihood.

Every receiver is a function of the key's ciphertexts: an attack's two
receiver maps take a ``(K, M, d, d)`` stack of ciphertexts, one row per
key, to a ``(K, M, d_B, d_B)`` stack of guessing effects, so a list of keys
is scored from one read of its ciphertexts.

Two success-probability functionals are provided: the uniform-message
cloning value and the two-message indistinguishability value.  Each
evaluator that averages over keys takes the key list itself, drawn by
:meth:`QecmScheme.sample_keys` or enumerated, so the keys an attack was
built on and the keys it is scored on are both named at the call site.
It walks the keys in chunks (:func:`config.key_chunks`); per chunk it
reads one ciphertext stack (:meth:`QecmScheme.ciphertext_stack`), builds
and checks each receiver's effect stack once (:func:`receiver_effects`)
and scores every (key, message) pair in one
:func:`~uncloneq.linalg.joint_expectation` call (:func:`key_success`);
the keys' values are added in key order.  The Monte Carlo value of measure-and-share
in a random basis hands a draw of one chunk of trials to
:func:`~uncloneq.linalg.lane_estimate`, which owns the lanes, the chunking
and the sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .config import TOL, check_keys, is_integer, key_chunks
from .errors import CrossCheckFailed, DimensionMismatch, NotInjective, NotOrthogonalPair
from .linalg import (
    Array,
    KrausChannel,
    dagger,
    haar_unitary,
    herm_eig,
    joint_expectation,
    lane_estimate,
)
from .schemes import QecmScheme, top_eigenvalue_means, validate_effects

__all__ = [
    "CloningAttack",
    "breidbart_basis",
    "ind_attack_build",
    "key_success",
    "projector_cloning_attack",
    "projector_strategy_closed_form",
    "projector_strategy_value",
    "measure_share_attack",
    "measure_share_ml_attack",
    "optimal_decode_for_measure_share",
    "guessing_projector",
    "pwin_ind_eval",
    "pwin_unif_eval",
    "random_basis_attack_estimate",
    "receiver_dim",
    "receiver_effects",
    "superposition_cloner",
]

# mixing weight of the projector cloning attack, where it reaches 1/2 + lambda/16
_PROJECTOR_ALPHA = 0.25


@dataclass(frozen=True)
class CloningAttack:
    """Cloning channel plus the keyed guessing effects of both receivers.

    ``bob_effects`` maps a ``(K, M, d, d)`` stack of the ciphertexts an
    attack is scored on, one row per key, to Bob's ``(K, M, d_B, d_B)``
    effect stack, and ``charlie_effects`` likewise to Charlie's, with
    ``dims = (d_B, d_C)``.
    """

    channel: KrausChannel
    bob_effects: Callable[[Array], Array]
    charlie_effects: Callable[[Array], Array]
    dims: tuple[int, int]

    def __post_init__(self) -> None:
        db, dc = self.dims
        if db * dc != self.channel.out_dim:
            raise DimensionMismatch(
                f"dims {self.dims} do not factor channel output {self.channel.out_dim}"
            )


# ---------------------------------------------------------------------------
# superposition cloner and the projector strategy
# ---------------------------------------------------------------------------


def superposition_cloner(d: int) -> KrausChannel:
    """Isometry distributing a d-dimensional input to both receivers.

    Maps ``|phi>`` to ``(|bot>_B |phi>_C + |phi>_B |bot>_C)/sqrt(2)``
    where ``|bot>`` is the extra ambient direction with index ``d``; each
    output register has dimension ``d + 1``.
    """
    if d < 1:
        raise DimensionMismatch("d must be at least 1")
    dp = d + 1
    v = np.zeros((1, dp * dp, d), dtype=complex)  # the one Kraus operator V
    j = np.arange(d)
    v[0, d * dp + j, j] = 1.0 / math.sqrt(2.0)  # |bot>_B |j>_C
    v[0, j * dp + d, j] = 1.0 / math.sqrt(2.0)  # |j>_B |bot>_C; no row of both for j < d
    return KrausChannel(in_dim=d, out_dim=dp * dp, left=v)


def _check_pairs(rho: Array, sigma: Array, alpha: float) -> None:
    # alpha in range, and each pair of two (K, d, d) stacks of the same shape orthogonal
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if sigma.shape != rho.shape:
        raise DimensionMismatch(f"shape mismatch: {rho.shape[1:]} vs {sigma.shape[1:]}")
    dev = np.abs(rho @ sigma).max(axis=(-2, -1))
    bad = np.flatnonzero(dev > TOL.orthogonal)
    if bad.size:
        raise NotOrthogonalPair(f"max |rho sigma| = {dev[bad[0]]} exceeds {TOL.orthogonal}")


def _projectors(w: Array, v: Array, alpha: float) -> Array:
    """Guessing projectors ``(K, d+1, d+1)`` from ``herm_eig`` of the states they are built for.

    Each key's kept eigenvectors are added as one masked outer product per
    column, over all keys at once and in column order, so every key's
    projector carries the bits of a sum taken for that key alone.
    """
    k, d = w.shape
    vecs = np.zeros((k, d + 1, d + 1), dtype=complex)
    vecs[:, :d, :d] = v
    phi = math.sqrt(1.0 - alpha) * vecs[:, :, 0] + math.sqrt(alpha) * np.eye(d + 1)[d]
    pi = phi[:, :, None] * phi.conj()[:, None, :]
    keep = w > TOL.support_cutoff
    for i in range(1, d):
        col = vecs[:, :, i] * keep[:, i, None]
        pi += col[:, :, None] * col.conj()[:, None, :]
    return (pi + dagger(pi)) / 2


def guessing_projector(rho: Array, sigma: Array, alpha: float) -> Array:
    """Guessing projector for an orthogonal-support state pair.

    For ``rho`` with top eigenvector ``|a_0>`` the projector is
    ``|phi><phi| + sum_{i>0, lambda_i>0} |a_i><a_i|`` on the (d+1)-dim
    ambient space, with ``|phi> = sqrt(1-alpha)|a_0> + sqrt(alpha)|bot>``.
    It annihilates every eigenvector of ``sigma`` with positive
    eigenvalue.  This is the attack's stacked construction on a stack of
    one pair.

    With a degenerate top eigenvalue the decomposition's arbitrary top
    eigenvector is used; the achieved guessing value does not depend on
    the choice.
    """
    _check_pairs(rho[None], sigma[None], alpha)
    return _projectors(*herm_eig(rho[None]), alpha)[0]


def projector_strategy_closed_form(alpha: float, lam: float) -> float:
    """Projector-strategy value ``(alpha + lam alpha (1 - 2 alpha) + 1 - alpha)/2``.

    ``lam`` is the larger top eigenvalue of the state pair; at
    ``alpha = 1/4`` this is ``1/2 + lam/16``.
    """
    return 0.5 * (alpha + lam * alpha * (1.0 - 2.0 * alpha) + 1.0 - alpha)


def _pair_effects(pairs: Array, alpha: float) -> tuple[Array, Array]:
    """Projector-strategy effects ``(K, 2, d+1, d+1)`` of a ``(K, 2, d, d)`` pair stack.

    Also returns each key's larger top eigenvalue.  ``Pi`` is built for
    the state with the larger top eigenvalue, ``rho = pairs[k, 0]`` on a
    tie, and outcome 0 votes for ``rho``: ``(Pi, I - Pi)`` or ``(I - Pi,
    Pi)``.  One batched ``eigvalsh`` of the pairs gives every key's top
    eigenvalues and orientation, and one batched :func:`herm_eig` of the
    states the projectors are built for gives the projectors.  (The
    eigenvalues of ``eigvalsh`` and ``eigh`` may differ in the last bit,
    and the two tops of an even split tie up to such bits, so orienting
    by ``eigh`` would move printed values.)  A pair whose supports overlap
    raises :class:`NotOrthogonalPair`.
    """
    _check_pairs(pairs[:, 0], pairs[:, 1], alpha)
    tops = np.linalg.eigvalsh(pairs)[..., -1]
    rows = np.arange(len(pairs))
    owner = (tops[:, 1] > tops[:, 0]).astype(int)
    pi = _projectors(*herm_eig(pairs[rows, owner]), alpha)
    effects = np.empty(pi.shape[:1] + (2,) + pi.shape[1:], dtype=complex)
    effects[rows, owner] = pi
    effects[rows, 1 - owner] = np.eye(pi.shape[-1]) - pi
    return effects, tops[rows, owner]


def projector_strategy_value(rho: Array, sigma: Array, alpha: float) -> float:
    """Simultaneous guessing value of the projector strategy.

    Feeds the equal mixture of ``rho`` and ``sigma`` through the
    superposition cloner and measures ``{Pi, 1 - Pi}`` on both sides,
    with ``Pi`` built for whichever state has the larger top eigenvalue.
    The direct two-sided trace is cross-checked against the closed form
    ``(alpha + lambda_0 alpha (1 - 2 alpha) + 1 - alpha)/2`` and returned.
    """
    if sigma.shape != rho.shape:
        raise DimensionMismatch(f"shape mismatch: {rho.shape} vs {sigma.shape}")
    pair = np.stack([rho, sigma])
    hit, lam = _pair_effects(pair[None], alpha)
    cloner = superposition_cloner(rho.shape[0])
    hits = joint_expectation((hit[0], hit[0]), cloner.left, cloner.compress(pair))
    direct = 0.5 * float(hits.sum())
    closed = projector_strategy_closed_form(alpha, float(lam[0]))
    if abs(direct - closed) > 1e-9:
        raise CrossCheckFailed(
            f"direct trace {direct} and closed form {closed} disagree beyond 1e-9"
        )
    return direct


def _projector_attack(d: int, alpha: float) -> CloningAttack:
    """Superposition cloner plus the projector strategy on both sides.

    Both maps take the ``(K, 2, d, d)`` stack of each key's pair, outcome 0
    voting for its first message and outcome 1 for its second.  Per key,
    the projector is built for whichever ciphertext has the larger top
    eigenvalue and the outcome labels are oriented to match.
    """

    def build(pairs: Array) -> Array:
        return _pair_effects(pairs, alpha)[0]

    return CloningAttack(
        channel=superposition_cloner(d),
        bob_effects=build,
        charlie_effects=build,
        dims=(d + 1, d + 1),
    )


def ind_attack_build(
    e: QecmScheme, m0: int, alpha: float, keys: Sequence
) -> tuple[CloningAttack, int, float]:
    """Indistinguishability attack from the superposition cloner.

    Picks ``m1`` as the message (other than ``m0``) with the largest top
    ciphertext eigenvalue averaged over ``keys``, then plays the
    projector strategy per key on both sides; its maps take the pair
    ``(m0, m1)`` of each key's ciphertexts, as :func:`pwin_ind_eval` hands
    it over, so outcome 0 votes for ``m0`` and outcome 1 for ``m1``.
    Returns ``(attack, m1, mu)`` with ``mu`` the largest mean over all
    messages, ``mu_statistic(e, keys)``.
    """
    if e.message_count < 2:
        raise DimensionMismatch("need at least two messages")
    means = top_eigenvalue_means(e, keys)
    mu = float(np.max(means))
    means[m0] = -np.inf
    m1 = int(np.argmax(means))
    return _projector_attack(e.cipher_dim, alpha), m1, mu


def pwin_ind_eval(
    e: QecmScheme, m0: int, m1: int, atk: CloningAttack, keys: Sequence
) -> float:
    """Success probability of an indistinguishability attack over ``keys``.

    ``(1/2) sum_b E_k tr((P_b ⊗ Q_b) N(Enc_k(m_b)))`` for the pair
    ``(m_0, m_1) = (m0, m1)``, with ``m1`` as :func:`ind_attack_build`
    returns it: the uniform-message value (:func:`pwin_unif_eval`) of the
    scheme restricted to the pair, whose ciphertexts are
    ``stack[:, [m0, m1]]`` of each chunk's stack.
    """
    if not (0 <= m0 < e.message_count and 0 <= m1 < e.message_count):
        raise DimensionMismatch(f"pair ({m0}, {m1}) is outside the {e.message_count} messages")
    if m0 == m1:
        raise NotInjective(f"the pair ({m0}, {m1}) names one message twice")
    return pwin_unif_eval(e, atk, keys, messages=[m0, m1])


# ---------------------------------------------------------------------------
# measure-and-share attacks
# ---------------------------------------------------------------------------


def measure_share_attack(d: int, basis: Array) -> KrausChannel:
    """Measure in ``basis`` and hand the classical outcome to both parties.

    Rank-one Kraus operators ``K_i = |i>_B |i>_C <e_i|`` with ``|e_i>`` the
    basis columns (``left_i = |ii>``, ``right_i = |e_i>``); the output is a
    classically correlated state on two d-dimensional registers.
    """
    if basis.shape != (d, d):
        raise DimensionMismatch(f"basis shape {basis.shape} != ({d}, {d})")
    left = np.zeros((d, d * d, 1), dtype=complex)
    left[np.arange(d), np.arange(d) * (d + 1), 0] = 1.0
    return KrausChannel(in_dim=d, out_dim=d * d, left=left, right=basis.T[:, :, None])


def _outcome_likelihoods(stack: Array, basis: Array) -> Array:
    # entry (..., i, m) holds <e_i| Enc(m) |e_i> for a (..., M, d, d) ciphertext stack
    return np.swapaxes(np.sum((dagger(basis) @ stack) * basis.T, axis=-1).real, -1, -2)


def optimal_decode_for_measure_share(stack: Array, basis: Array) -> tuple[Array, Array]:
    """Maximum-likelihood decoding of a shared measurement outcome, per key.

    ``stack`` holds each key's ciphertexts, ``(K, M, d, d)``.  Both parties
    decode outcome ``i`` of key ``k`` as the message maximizing
    ``<e_i| Enc_k(m) |e_i>`` (ties to the smallest index), read from one
    batched ``(K, d, M)`` likelihood array.  Returns the diagonal decoding
    effects both parties use, ``(K, M, d, d)``, and each key's success
    value ``(1/M) sum_i max_m <e_i| Enc_k(m) |e_i>``.
    """
    k, big_m, d = stack.shape[:3]
    probs = _outcome_likelihoods(stack, basis)
    decode = np.argmax(probs, axis=2)
    values = probs.max(axis=2).sum(axis=1) / big_m
    effects = np.zeros((k, big_m, d, d), dtype=complex)
    effects[np.arange(k)[:, None], decode, np.arange(d), np.arange(d)] = 1.0
    return effects, values


def random_basis_attack_estimate(
    e: QecmScheme, trials: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo value of measure-and-share in a Haar-random basis.

    Each trial draws a fresh key and a Haar basis ``B`` and evaluates the
    maximum-likelihood decode value; returns the sample mean and its
    standard error.  For a scheme whose key law is unitarily invariant
    (``e.unitarily_invariant``, the Haar block schemes) the basis is not
    drawn: the key unitary ``U`` is Haar and independent of the ranks, so
    ``B† U`` is Haar and independent of them too for every fixed ``B``,
    and measuring the key's ciphertexts in the standard basis has the
    trial's law.  Every other scheme (BB84, any scheme without the flag)
    draws its bases.

    The trials run on :func:`~uncloneq.linalg.lane_estimate`: two lanes,
    each with its own spawned stream, side by side, each running its trials
    in chunks of ``c`` with ``16 c d²`` bytes at most ``linalg.LANE_BYTES``
    (512 KB per complex stack per lane, at least one trial).  A chunk draws
    from its lane's stream, in this order, the ``c`` keys' stacked
    ciphertext factors ``F`` with their one-hot owner matrix ``S``
    (:meth:`QecmScheme.sample_factors`; for Haar schemes the ranks in one
    draw, then the key unitaries in one batched :func:`haar_unitary` call)
    and then, unless the scheme is unitarily invariant, ``c`` bases ``B``
    in one batched :func:`haar_unitary` call.  Every likelihood
    ``<e_i| Enc_k(m) |e_i>`` is read from ``|F|² @ S``, or ``|B† F|² @ S``
    with the bases; no ciphertext density matrix is formed.  The values and
    their squares are added in trial order as the chunks come, so memory
    does not grow with ``trials``.
    """
    if not is_integer(trials) or trials < 1:
        raise ValueError(f"trials must be an integer of at least 1, got {trials!r}")
    big_m, d = e.message_count, e.cipher_dim
    if big_m == 1:
        return 1.0, 0.0  # the single message is always decoded

    def draw(gen: np.random.Generator, c: int) -> Array:
        f, owners = e.sample_factors(gen, c)
        if not e.unitarily_invariant:
            f = dagger(haar_unitary(d, gen, c)) @ f
        probs = np.abs(f) ** 2 @ owners
        return probs.max(axis=2).sum(axis=1) / big_m

    return lane_estimate(draw, rng, trials, linalg.LANE_BYTES // (16 * d * d))


def measure_share_ml_attack(e: QecmScheme, basis: Array) -> CloningAttack:
    """Full cloning attack: measure-and-share plus per-key ML decoding."""
    d = e.cipher_dim

    def decode(stack: Array) -> Array:
        return optimal_decode_for_measure_share(stack, basis)[0]

    return CloningAttack(
        channel=measure_share_attack(d, basis),
        bob_effects=decode,
        charlie_effects=decode,
        dims=(d, d),
    )


def projector_cloning_attack(e: QecmScheme) -> CloningAttack:
    """Projector-strategy cloning attack for a two-message scheme, at ``alpha = 1/4``."""
    if e.message_count != 2:
        raise DimensionMismatch("the projector strategy guesses a binary message")
    return _projector_attack(e.cipher_dim, _PROJECTOR_ALPHA)


# ---------------------------------------------------------------------------
# success probabilities
# ---------------------------------------------------------------------------


def _checked_effects(effects: Array, shape: tuple[int, ...]) -> Array:
    # a receiver map's output: the expected stack shape, then every key's POVM
    effects = np.asarray(effects, dtype=complex)
    if effects.shape != shape:
        raise DimensionMismatch(f"receiver effect stack of shape {effects.shape}, expected {shape}")
    validate_effects(effects)
    return effects


def receiver_effects(
    bob_effects: Callable[[Array], Array],
    charlie_effects: Callable[[Array], Array],
    stack: Array,
    dims: Sequence[int],
) -> tuple[Array, Array]:
    """Bob's and Charlie's effects for a ``(K, M, d, d)`` ciphertext stack.

    Each map must return a ``(K, M, d_i, d_i)`` stack for ``dims = (d_B,
    d_C)`` (:class:`DimensionMismatch` otherwise), checked once with
    :func:`~uncloneq.schemes.validate_effects`, so every key's effects are
    Hermitian, PSD and complete.  A map both receivers share, as in every
    attack built here, is evaluated and checked once.
    """
    k, m = stack.shape[:2]
    bob = _checked_effects(bob_effects(stack), (k, m, dims[0], dims[0]))
    if charlie_effects is bob_effects and dims[0] == dims[1]:
        return bob, bob
    return bob, _checked_effects(charlie_effects(stack), (k, m, dims[1], dims[1]))


def key_success(ch: KrausChannel, stack: Array, bob: Array, charlie: Array) -> Array:
    """Per key, ``(1/M) sum_m tr((P_m ⊗ Q_m) N(Enc_k(m)))``, for a ``(K, M, d, d)`` stack.

    ``bob`` and ``charlie`` are the keys' effect stacks
    (:func:`receiver_effects`).  Every (key, message) pair is one problem
    of a single :func:`joint_expectation` call on the channel's factors,
    and each key's messages are summed on their own.
    """
    values = joint_expectation((bob, charlie), ch.left, ch.compress(stack))
    return values.sum(axis=1) / stack.shape[1]


def pwin_unif_eval(
    e: QecmScheme, atk: CloningAttack, keys: Sequence, messages: Sequence[int] | None = None
) -> float:
    """Uniform-message success probability of a cloning attack over ``keys``.

    ``(1/M) sum_m E_k tr((P_m ⊗ Q_m) N(Enc_k(m)))`` with ``E_k`` the
    mean over ``keys``: per chunk of keys, one ciphertext stack, both
    receivers' effects and one :func:`key_success` call.  With
    ``messages``, the scheme is restricted to those messages, in that
    order: the receivers and the score see ``stack[:, messages]``.
    """
    check_keys(keys)
    if atk.channel.in_dim != e.cipher_dim:
        raise DimensionMismatch("attack channel does not match the scheme dimension")
    pick = slice(None) if messages is None else list(messages)
    n, r = atk.channel.left.shape[0], atk.channel.left.shape[-1]
    per_key = e.message_count * (e.cipher_dim**2 + sum(d * d for d in atk.dims) + n * r * r)
    total = 0.0
    for chunk in key_chunks(len(keys), per_key):
        stack = e.ciphertext_stack(keys[chunk])[:, pick]
        bob, charlie = receiver_effects(atk.bob_effects, atk.charlie_effects, stack, atk.dims)
        for value in key_success(atk.channel, stack, bob, charlie):
            total += value
    return float(total / len(keys))


def receiver_dim(e: QecmScheme, ch: KrausChannel) -> int:
    """Each receiver's dimension when ``ch`` splits ``e``'s ciphertexts in two.

    Raises :class:`DimensionMismatch` when the channel input is not the
    ciphertext space or the output dimension is not a square.
    """
    if ch.in_dim != e.cipher_dim:
        raise DimensionMismatch("channel does not match the scheme dimension")
    side = math.isqrt(ch.out_dim)
    if side * side != ch.out_dim:
        raise DimensionMismatch(
            f"channel output dimension {ch.out_dim} has no symmetric B/C split"
        )
    return side


def breidbart_basis() -> Array:
    """Qubit basis bisecting the computational and Hadamard bases.

    Columns are the eigenvectors (descending eigenvalue) of
    ``|0><0| + |+><+|``; measuring in it is the optimal single
    measurement against one-qubit BB84 encryption.
    """
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    op = np.diag([1.0, 0.0]) + np.outer(plus, plus)
    _, v = herm_eig(op.astype(complex))
    return v
