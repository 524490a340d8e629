"""Monogamy-of-entanglement games and the reduction from cloning attacks.

In the game, Alice measures her register with a keyed POVM while Bob and
Charlie, who prepared the tripartite state, try to both reproduce her
outcome after learning the key.  A QECM scheme whose message-averaged
ciphertext is key independent induces such a game through
``F_m^k = (1/M) rho_bar^(-1/2) Enc_k(m)^T rho_bar^(-1/2)`` (transpose in
the eigenbasis of ``rho_bar``), and any cloning attack maps to a game
strategy through the Choi state of its channel taken with respect to
``rho_bar``.  The induced game value equals the attack's success
probability exactly; :func:`verify_reduction` checks the two evaluation
routes against each other on one key list.  The game and the reduction
check take that key list explicitly and read it once, as one ``(K, M, d,
d)`` ciphertext stack (:meth:`QecmScheme.ciphertext_stack`); the average
ciphertext, Alice's effects, the receivers' effects and both routes are
all computed from that stack.  A :class:`MegGame` holds the stack, which
is all the key tells Bob and Charlie, and Alice's ``(K, M, d, d)`` effect
stack.  Both routes walk the keys in chunks (:func:`config.key_chunks`),
one :func:`~uncloneq.linalg.joint_expectation` call per route and chunk,
and add the keys' values in key order.

A strategy holds its tripartite state in factored form: component ``j``
is ``vec(U_j left_jᵀ)``, with ``left`` the attack channel's left Kraus
factors and ``U`` its Choi factor (:func:`choi_state`).  Alice's effect
is folded into ``sigma_j = (U_j† F U_j)ᵀ``, so the game value is the
same :func:`joint_expectation` contraction as the attack's, and neither
the Choi state's density matrix nor its ``(d out, n)`` vectors are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .attacks import CloningAttack, key_success, receiver_effects
from .config import TOL, key_chunks
from .errors import DimensionMismatch, NotKeyIndependent
from .linalg import (
    Array,
    KrausChannel,
    dagger,
    herm_eig,
    joint_expectation,
    max_abs,
)
from .schemes import QecmScheme, validate_effects

__all__ = [
    "MegGame",
    "MegStrategy",
    "choi_state",
    "mean_ciphertext",
    "meg_from_qecm",
    "meg_win_prob",
    "strategy_from_attack",
    "verify_reduction",
]

# entry deviation between per-key average ciphertexts still read as key independent
_KEY_INDEPENDENCE_TOL = 1e-6


@dataclass(frozen=True)
class MegGame:
    """Finite-key monogamy game over ``K`` equally likely keys, held as stacks.

    Row ``k`` of ``ciphertexts``, ``(K, M, ...)``, is what Bob and Charlie
    learn of key ``k``: its ciphertext stack, for a game induced by a QECM.
    Row ``k`` of ``alice_effects``, ``(K, M, d_A, d_A)``, is Alice's POVM
    for that key, checked with :func:`~uncloneq.schemes.validate_effects`.
    """

    message_count: int
    alice_dim: int
    ciphertexts: Array
    alice_effects: Array

    def __post_init__(self) -> None:
        k, m, da = len(self.alice_effects), self.message_count, self.alice_dim
        if not k:
            raise DimensionMismatch("a game needs at least one key")
        if self.alice_effects.shape != (k, m, da, da) or self.ciphertexts.shape[:2] != (k, m):
            raise DimensionMismatch(
                f"Alice's effects {self.alice_effects.shape} and ciphertexts "
                f"{self.ciphertexts.shape} do not hold ({k}, {m}) rows of dimension {da}"
            )
        validate_effects(self.alice_effects)


@dataclass(frozen=True)
class MegStrategy:
    """Bob and Charlie's prepared state plus their keyed effect maps.

    The ABC state is ``sum_j |v_j><v_j|`` with ``|v_j>`` the row-major
    ``vec(u_j left_jᵀ)`` on ``A ⊗ (B ⊗ C)``: ``u`` is an ``(n, d_A, r)``
    and ``left`` an ``(n, d_B d_C, r)`` stack.  Explicit (unnormalized)
    pure components ``v_j``, each read as a ``d_A x d_B d_C`` matrix
    ``X_j``, are ``u_j = I`` and ``left_j = X_jᵀ``.  ``bob_effects`` and
    ``charlie_effects`` map a ``(K, M, ...)`` chunk of the game's
    ``ciphertexts`` to ``(K, M, d_B, d_B)`` and ``(K, M, d_C, d_C)`` effect
    stacks, as a :class:`~uncloneq.attacks.CloningAttack`'s maps do.
    """

    u: Array
    left: Array
    dims: tuple[int, int, int]
    bob_effects: Callable[[Array], Array]
    charlie_effects: Callable[[Array], Array]

    def __post_init__(self) -> None:
        da, db, dc = self.dims
        n, r = self.u.shape[0], self.u.shape[-1]
        if self.u.shape != (n, da, r) or self.left.shape != (n, db * dc, r):
            raise DimensionMismatch(
                f"factors {self.u.shape} and {self.left.shape} incompatible with dims {self.dims}"
            )


def _game_values(alice: Array, s: MegStrategy, bob: Array, charlie: Array) -> Array:
    # per key, sum_m <v| F_km ⊗ P_km ⊗ Q_km |v> with sigma_kmj = (u_j† F_km u_j)ᵀ
    sigma = np.swapaxes(dagger(s.u) @ alice[:, :, None] @ s.u, -1, -2)
    return joint_expectation((bob, charlie), s.left, sigma).sum(axis=1)


def _chunks(g: MegGame, s: MegStrategy) -> list[slice]:
    # a key's ciphertexts, Alice's and both receivers' effects and the inner operators
    n, r = s.left.shape[0], s.left.shape[-1]
    per_key = g.ciphertexts[0].size + g.message_count * (sum(d * d for d in s.dims) + n * r * r)
    return key_chunks(len(g.alice_effects), per_key)


def meg_win_prob(g: MegGame, s: MegStrategy) -> float:
    """Probability that all three parties obtain the same outcome.

    ``E_k sum_m tr((F_m^k ⊗ P_m^k ⊗ Q_m^k) rho_ABC)`` with ``E_k`` the
    mean over the game's keys.  Per chunk of keys, Alice's effects become
    the inner operators ``(u_j† F_m u_j)ᵀ`` and every (key, message) pair
    is one problem of a single :func:`joint_expectation` call on ``left``.
    """
    if s.dims[0] != g.alice_dim:
        raise DimensionMismatch("strategy A register does not match the game")
    total, weight = 0.0, 1.0 / len(g.alice_effects)
    for chunk in _chunks(g, s):
        stack = g.ciphertexts[chunk]
        bob, charlie = receiver_effects(s.bob_effects, s.charlie_effects, stack, s.dims[1:])
        for value in _game_values(g.alice_effects[chunk], s, bob, charlie):
            total += weight * value
    return float(total)


def choi_state(ch: KrausChannel, rho_bar: Array) -> Array:
    """Choi state of a channel with respect to a reference state, factored.

    The state is ``(id ⊗ N)(|Phi><Phi|)`` with ``|Phi> = sum_i
    sqrt(lambda_i) |e_i>|e_i>`` built from the eigendecomposition of
    ``rho_bar``.  Read as a ``d x d`` matrix, ``|Phi>`` is ``S = E
    sqrt(Lambda) E^T``, and ``(I ⊗ K_j)|Phi>`` is ``S K_jᵀ = U_j left_jᵀ``
    flattened row-major, with ``U_j = S conj(right_j)``.  Returns the
    ``(n, d, r)`` stack ``U``; the state is ``sum_j |v_j><v_j|`` with
    ``v_j = vec(U_j left_jᵀ)`` (see :class:`MegStrategy`).  The marginal
    on the input copy reproduces ``rho_bar`` (its transpose in its own
    eigenbasis equals itself).
    """
    d = rho_bar.shape[0]
    if ch.in_dim != d:
        raise DimensionMismatch(f"channel input {ch.in_dim} != reference dim {d}")
    w, v = herm_eig(rho_bar)
    s = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
    return s @ ch.right.conj()


def mean_ciphertext(ciphertexts: Array) -> Array:
    """Message-averaged ciphertext of a ``(K, M, d, d)`` stack, checked to be key independent.

    Raises :class:`NotKeyIndependent` when the per-key averages differ
    pairwise by more than ``1e-6`` in any entry.
    """
    stack = ciphertexts.sum(axis=1) / ciphertexts.shape[1]
    dev = max_abs(stack.max(axis=0).real - stack.min(axis=0).real) + max_abs(
        stack.imag.max(axis=0) - stack.imag.min(axis=0)
    )
    if dev > _KEY_INDEPENDENCE_TOL:
        raise NotKeyIndependent(
            f"per-key average ciphertexts differ by {dev} (> {_KEY_INDEPENDENCE_TOL})"
        )
    mean = stack.mean(axis=0)
    return (mean + dagger(mean)) / 2


def _transpose_in_basis(x: Array, basis: Array) -> Array:
    # transpose (of each matrix in a stack) with elements taken in an orthonormal basis
    return basis @ np.swapaxes(dagger(basis) @ x @ basis, -1, -2) @ dagger(basis)


def meg_from_qecm(e: QecmScheme, keys: Sequence) -> MegGame:
    """Monogamy game induced by a QECM over the key set ``keys``.

    Alice's effects are ``(1/M) rho_bar^(-1/2) Enc_k(m)^T
    rho_bar^(-1/2)`` with the transpose taken in the eigenbasis of the
    key-independent average ciphertext ``rho_bar``.  If ``rho_bar`` is
    rank deficient (eigenvalues at or below ``TOL.support_cutoff``), the
    complement of its support (which no induced strategy can populate)
    is folded into outcome 0 so the POVM is complete on the whole space.
    The keys are read once, as one stack.
    """
    stack = e.ciphertext_stack(keys)
    return _induced_game(stack, mean_ciphertext(stack))


def _induced_game(stack: Array, rho_bar: Array) -> MegGame:
    # meg_from_qecm on a read stack and its rho_bar = mean_ciphertext(stack)
    cutoff = TOL.support_cutoff
    # one eigendecomposition gives the transpose basis, the pseudo-inverse
    # square root on the support and the projector onto its complement
    w, v = herm_eig(rho_bar)
    support = w > cutoff
    inv_sqrt = (v * np.where(support, 1.0 / np.sqrt(np.maximum(w, cutoff)), 0.0)) @ dagger(v)
    inv_sqrt = (inv_sqrt + dagger(inv_sqrt)) / 2
    d, m_count = rho_bar.shape[0], stack.shape[1]
    deficiency = np.eye(d) - v[:, support] @ dagger(v[:, support])
    eff = inv_sqrt @ _transpose_in_basis(stack, v) @ inv_sqrt / m_count
    effects = (eff + dagger(eff)) / 2
    if max_abs(deficiency) > TOL.completeness:
        effects[:, 0] += deficiency
    return MegGame(message_count=m_count, alice_dim=d, ciphertexts=stack, alice_effects=effects)


def strategy_from_attack(
    e: QecmScheme, atk: CloningAttack, rho_bar: Array
) -> MegStrategy:
    """Game strategy induced by a cloning attack.

    Bob and Charlie prepare the Choi state of the attack channel with
    respect to ``rho_bar`` and keep the attack's effect maps.
    """
    return MegStrategy(
        u=choi_state(atk.channel, rho_bar),
        left=atk.channel.left,
        dims=(e.cipher_dim, atk.dims[0], atk.dims[1]),
        bob_effects=atk.bob_effects,
        charlie_effects=atk.charlie_effects,
    )


def verify_reduction(
    e: QecmScheme, atk: CloningAttack, keys: Sequence
) -> tuple[float, float, float]:
    """Game value vs. attack value on the same key list ``keys``.

    Returns ``(lhs, rhs, gap)`` where ``lhs`` is the induced monogamy
    game value of the induced strategy (:func:`meg_win_prob`), ``rhs`` the
    attack's uniform success probability
    (:func:`~uncloneq.attacks.pwin_unif_eval`), and ``gap`` their
    absolute difference (expected to vanish to numerical precision).
    The keys are read once, as one stack, and ``rho_bar``,
    the game and, per chunk of keys, the receivers' effects are built once
    from it and serve both routes.
    """
    stack = e.ciphertext_stack(keys)
    rho_bar = mean_ciphertext(stack)
    game = _induced_game(stack, rho_bar)
    s = strategy_from_attack(e, atk, rho_bar)
    lhs, rhs, weight = 0.0, 0.0, 1.0 / len(keys)
    for chunk in _chunks(game, s):
        bob, charlie = receiver_effects(s.bob_effects, s.charlie_effects, stack[chunk], atk.dims)
        game_values = _game_values(game.alice_effects[chunk], s, bob, charlie)
        attack_values = key_success(atk.channel, stack[chunk], bob, charlie)
        for game_value, attack_value in zip(game_values, attack_values):
            lhs += weight * game_value
            rhs += attack_value
    rhs /= len(keys)
    return float(lhs), float(rhs), float(abs(lhs - rhs))
