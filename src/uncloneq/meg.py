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
routes against each other on one key list.  The game, the average
ciphertext and the reduction check all take that key list explicitly,
and read each key's ciphertexts as one stack (:meth:`QecmScheme.ciphertexts`).

A strategy holds its tripartite state in factored form: component ``j``
is ``vec(U_j left_jᵀ)``, with ``left`` the attack channel's left Kraus
factors and ``U`` its Choi factor (:func:`choi_state`).  Alice's effect
is folded into ``sigma_j = (U_j† F U_j)ᵀ``, so the game value is the
same :func:`joint_expectation` contraction as the attack's, and neither
the Choi state's density matrix nor its ``(d out, n)`` vectors are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .attacks import CloningAttack, key_success, receiver_effects
from .config import TOL, check_keys
from .errors import DimensionMismatch, NotKeyIndependent
from .linalg import (
    Array,
    KrausChannel,
    dagger,
    herm_eig,
    joint_expectation,
    max_abs,
)
from .schemes import Povm, QecmScheme

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
    """Finite-key monogamy game: keyed Alice POVMs over equally likely keys."""

    message_count: int
    alice_dim: int
    keys: tuple
    alice_povm: Callable[[Any], Povm]

    def __post_init__(self) -> None:
        if not self.keys:
            raise DimensionMismatch("a game needs at least one key")


@dataclass(frozen=True)
class MegStrategy:
    """Bob and Charlie's prepared state plus their keyed POVMs.

    The ABC state is ``sum_j |v_j><v_j|`` with ``|v_j>`` the row-major
    ``vec(u_j left_jᵀ)`` on ``A ⊗ (B ⊗ C)``: ``u`` is an ``(n, d_A, r)``
    and ``left`` an ``(n, d_B d_C, r)`` stack.  Explicit (unnormalized)
    pure components ``v_j``, each read as a ``d_A x d_B d_C`` matrix
    ``X_j``, are ``u_j = I`` and ``left_j = X_jᵀ``.
    """

    u: Array
    left: Array
    dims: tuple[int, int, int]
    bob_povm: Callable[[Any], Povm]
    charlie_povm: Callable[[Any], Povm]

    def __post_init__(self) -> None:
        da, db, dc = self.dims
        n, r = self.u.shape[0], self.u.shape[-1]
        if self.u.shape != (n, da, r) or self.left.shape != (n, db * dc, r):
            raise DimensionMismatch(
                f"factors {self.u.shape} and {self.left.shape} incompatible with dims {self.dims}"
            )


def _key_game_value(
    g: MegGame, key: Any, u: Array, left: Array, bob: Array, charlie: Array
) -> float:
    # sum_m <v| F_m ⊗ P_m ⊗ Q_m |v> with sigma_mj = (u_j† F_m u_j)ᵀ
    alice = g.alice_povm(key)
    if alice.n_outcomes != g.message_count:
        raise DimensionMismatch("POVM outcome counts do not match the message set")
    sigma = np.swapaxes(dagger(u) @ alice.effects[:, None] @ u, -1, -2)
    return float(joint_expectation((bob, charlie), left, sigma).sum())


def meg_win_prob(g: MegGame, s: MegStrategy) -> float:
    """Probability that all three parties obtain the same outcome.

    ``E_k sum_m tr((F_m^k ⊗ P_m^k ⊗ Q_m^k) rho_ABC)`` with ``E_k`` the
    mean over ``g.keys``.  Per key, Alice's effects become the inner
    operators ``(u_j† F_m u_j)ᵀ`` and every message is one problem of a
    single :func:`joint_expectation` call on ``left``.
    """
    if s.dims[0] != g.alice_dim:
        raise DimensionMismatch("strategy A register does not match the game")
    total, weight = 0.0, 1.0 / len(g.keys)
    for key in g.keys:
        bob, charlie = receiver_effects(s.bob_povm, s.charlie_povm, key, g.message_count)
        total += weight * _key_game_value(g, key, s.u, s.left, bob, charlie)
    return total


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


def mean_ciphertext(e: QecmScheme, keys: Sequence) -> Array:
    """Message-averaged ciphertext, checked to be key independent.

    Raises :class:`NotKeyIndependent` when the per-key averages differ
    pairwise by more than ``1e-6`` in any entry.
    """
    check_keys(keys)
    stack = np.stack([e.ciphertexts(key).sum(axis=0) / e.message_count for key in keys])
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
    """
    return _induced_game(e, keys, mean_ciphertext(e, keys))


def _induced_game(e: QecmScheme, keys: Sequence, rho_bar: Array) -> MegGame:
    # meg_from_qecm on a reference rho_bar = mean_ciphertext(e, keys) already computed
    cutoff = TOL.support_cutoff
    # one eigendecomposition gives the transpose basis, the pseudo-inverse
    # square root on the support and the projector onto its complement
    w, v = herm_eig(rho_bar)
    support = w > cutoff
    inv_sqrt = (v * np.where(support, 1.0 / np.sqrt(np.maximum(w, cutoff)), 0.0)) @ dagger(v)
    inv_sqrt = (inv_sqrt + dagger(inv_sqrt)) / 2
    deficiency = np.eye(e.cipher_dim) - v[:, support] @ dagger(v[:, support])
    m_count = e.message_count

    def alice_povm(key: Any) -> Povm:
        eff = inv_sqrt @ _transpose_in_basis(e.ciphertexts(key), v) @ inv_sqrt / m_count
        effects = (eff + dagger(eff)) / 2
        if max_abs(deficiency) > TOL.completeness:
            effects[0] += deficiency
        return Povm(dim=e.cipher_dim, effects=effects)

    return MegGame(
        message_count=m_count, alice_dim=e.cipher_dim, keys=tuple(keys), alice_povm=alice_povm
    )


def strategy_from_attack(
    e: QecmScheme, atk: CloningAttack, rho_bar: Array
) -> MegStrategy:
    """Game strategy induced by a cloning attack.

    Bob and Charlie prepare the Choi state of the attack channel with
    respect to ``rho_bar`` and keep their original keyed POVMs.
    """
    return MegStrategy(
        u=choi_state(atk.channel, rho_bar),
        left=atk.channel.left,
        dims=(e.cipher_dim, atk.dims[0], atk.dims[1]),
        bob_povm=atk.bob_povm,
        charlie_povm=atk.charlie_povm,
    )


def verify_reduction(
    e: QecmScheme, atk: CloningAttack, keys: Sequence
) -> tuple[float, float, float]:
    """Game value vs. attack value on the same key list ``keys``.

    Returns ``(lhs, rhs, gap)`` where ``lhs`` is the induced monogamy
    game value of the induced strategy (:func:`meg_win_prob`), ``rhs`` the
    attack's uniform success probability (:func:`pwin_unif_eval`), and
    ``gap`` their absolute difference (expected to vanish to numerical
    precision).  ``rho_bar`` and each key's receiver effects are built
    once and serve both routes.
    """
    rho_bar = mean_ciphertext(e, keys)
    game = _induced_game(e, keys, rho_bar)
    s = strategy_from_attack(e, atk, rho_bar)
    lhs, rhs, weight = 0.0, 0.0, 1.0 / len(keys)
    for key in game.keys:
        bob, charlie = receiver_effects(s.bob_povm, s.charlie_povm, key, e.message_count)
        lhs += weight * _key_game_value(game, key, s.u, s.left, bob, charlie)
        rhs += key_success(e, atk.channel, key, bob, charlie)
    rhs /= len(keys)
    return lhs, rhs, abs(lhs - rhs)
