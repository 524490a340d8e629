from dataclasses import replace

import numpy as np
import pytest

from uncloneq.attacks import (
    CloningAttack,
    breidbart_basis,
    projector_cloning_attack,
    measure_share_attack,
    measure_share_ml_attack,
    optimal_decode_for_measure_share,
    superposition_cloner,
)
from uncloneq.errors import NotKeyIndependent
from uncloneq.linalg import KrausChannel, haar_unitary
from uncloneq.meg import (
    MegGame,
    MegStrategy,
    choi_state,
    mean_ciphertext,
    meg_from_qecm,
    meg_win_prob,
    strategy_from_attack,
    verify_reduction,
)
from uncloneq.schemes import (
    Povm,
    QecmScheme,
    bb84_scheme,
    uniform_haar_scheme,
    validate_effects,
)

from conftest import constant_map, rand_density
from oracles import assert_density_operator


def _basis_povm(d: int) -> Povm:
    effects = []
    for m in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[m, m] = 1.0
        effects.append(e)
    return Povm(dim=d, effects=tuple(effects))


def _factor(rho: np.ndarray) -> np.ndarray:
    # V with V V-dagger = rho, for a PSD rho
    w, v = np.linalg.eigh(rho)
    return v * np.sqrt(np.maximum(w, 0.0))


def _dense(vectors: np.ndarray) -> np.ndarray:
    return vectors @ vectors.conj().T


def _vectors(u: np.ndarray, left: np.ndarray) -> np.ndarray:
    # the explicit ABC components: column j is vec(u_j left_jᵀ), row-major
    return np.stack([(uj @ lj.T).ravel() for uj, lj in zip(u, left)], axis=1)


def _explicit(vectors: np.ndarray, dims, bob_effects, charlie_effects) -> MegStrategy:
    # a strategy from explicit components v_j: u_j = I and left_j = X_jᵀ
    n, da = vectors.shape[1], dims[0]
    left = vectors.T.reshape(n, da, -1).transpose(0, 2, 1)
    u = np.broadcast_to(np.eye(da, dtype=complex), (n, da, da))
    return MegStrategy(u, left, dims, bob_effects, charlie_effects)


def _one_key_game(alice: Povm) -> MegGame:
    # one key; the strategies here give their receivers constant effects, so
    # what the key tells them (its ciphertexts) is a placeholder
    m = len(alice.effects)
    return MegGame(
        message_count=m,
        alice_dim=alice.dim,
        ciphertexts=np.zeros((1, m, 1, 1), dtype=complex),
        alice_effects=alice.effects[None],
    )


class TestMegWinProb:
    def test_classical_copy_game(self):
        m_count = 3
        vectors = np.zeros((27, m_count), dtype=complex)
        for m in range(m_count):
            vectors[m * 9 + m * 3 + m, m] = 1 / np.sqrt(m_count)
        game = _one_key_game(_basis_povm(3))
        strategy = _explicit(
            vectors,
            dims=(3, 3, 3),
            bob_effects=constant_map(_basis_povm(3).effects),
            charlie_effects=constant_map(_basis_povm(3).effects),
        )
        assert abs(meg_win_prob(game, strategy) - 1.0) < 1e-12

    def test_uniform_povms_score_inverse_square(self, rng):
        m_count = 3
        d = 3
        rho = rand_density(d * 4, rng)  # A x (B=2) x (C=2)
        uniform = Povm(
            dim=2, effects=tuple(np.eye(2, dtype=complex) / m_count for _ in range(m_count))
        )
        game = _one_key_game(_basis_povm(d))
        strategy = _explicit(
            _factor(rho),
            dims=(d, 2, 2),
            bob_effects=constant_map(uniform.effects),
            charlie_effects=constant_map(uniform.effects),
        )
        assert abs(meg_win_prob(game, strategy) - 1.0 / m_count**2) < 1e-12

    def test_product_strategy_factorizes(self, rng):
        d = 2
        m_count = 2
        rho_a = rand_density(d, rng)
        rho_bc = rand_density(4, rng)
        vectors = np.kron(_factor(rho_a), _factor(rho_bc))
        alice = _basis_povm(d)
        bob = Povm(dim=2, effects=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
        game = _one_key_game(alice)
        strategy = _explicit(
            vectors,
            dims=(d, 2, 2),
            bob_effects=constant_map(bob.effects),
            charlie_effects=constant_map(bob.effects),
        )
        value = meg_win_prob(game, strategy)
        expected = 0.0
        rho_b = np.einsum("ijkj->ik", rho_bc.reshape(2, 2, 2, 2))
        rho_c = np.einsum("ijil->jl", rho_bc.reshape(2, 2, 2, 2))
        for m in range(m_count):
            pa = np.trace(alice.effects[m] @ rho_a).real
            # joint BC probability does not factorize in general; contract directly
            joint = np.trace(np.kron(bob.effects[m], bob.effects[m]) @ rho_bc).real
            expected += pa * joint
        assert abs(value - expected) < 1e-12
        assert rho_b.shape == rho_c.shape == (2, 2)

    def test_constant_guess_floor(self, rng):
        # constant guessing both sides achieves max_m E_k tr(F_m rho_A)
        e = uniform_haar_scheme(2, 2)
        keys = [e.key_sampler(rng) for _ in range(5)]
        game = meg_from_qecm(e, keys)
        rho_bar = mean_ciphertext(e.ciphertext_stack(keys))
        atk = projector_cloning_attack(e)
        strategy = strategy_from_attack(e, atk, rho_bar)
        rho_a = np.einsum(
            "ijkj->ik",
            _dense(_vectors(strategy.u, strategy.left)).reshape(4, 25, 4, 25),
        )
        floors = []
        for m in range(2):
            acc = 0.0
            for alice in game.alice_effects:
                acc += np.trace(alice[m] @ rho_a).real
            floors.append(acc / len(game.alice_effects))
        d_bc = atk.dims[0]
        constant = Povm(
            dim=d_bc,
            effects=(np.eye(d_bc, dtype=complex), np.zeros((d_bc, d_bc), complex)),
        )
        const_strategy = replace(
            strategy,
            bob_effects=constant_map(constant.effects),
            charlie_effects=constant_map(constant.effects),
        )
        assert abs(meg_win_prob(game, const_strategy) - floors[0]) < 1e-10


class TestChoiState:
    def test_identity_channel_maximally_mixed_reference(self):
        d = 3
        ch = KrausChannel(d, d, (np.eye(d, dtype=complex),))
        rho_bar = np.eye(d, dtype=complex) / d
        state = _dense(_vectors(choi_state(ch, rho_bar), ch.left))
        phi = np.zeros(d * d, dtype=complex)
        for i in range(d):
            phi[i * d + i] = 1.0 / np.sqrt(d)
        assert np.max(np.abs(state - np.outer(phi, phi.conj()))) < 1e-12

    def test_marginal_reproduces_reference(self, rng):
        d = 3
        g = rng.standard_normal((d * 2, d)) + 1j * rng.standard_normal((d * 2, d))
        q, _ = np.linalg.qr(g)
        ops = tuple(q[i * d : (i + 1) * d, :] for i in range(2))
        # a dense Kraus pair, and rank-one measure-and-share in a complex basis
        for ch in (KrausChannel(d, d, ops), measure_share_attack(d, haar_unitary(d, rng))):
            rho_bar = rand_density(d, rng)
            vectors = _vectors(choi_state(ch, rho_bar), ch.left)
            out = ch.out_dim
            marg = np.einsum("ijkj->ik", _dense(vectors).reshape(d, out, d, out))
            assert np.max(np.abs(marg - rho_bar)) < 1e-9

    def test_cloner_choi_is_valid_state(self):
        ch = superposition_cloner(2)
        state = _dense(_vectors(choi_state(ch, np.eye(2, dtype=complex) / 2), ch.left))
        assert state.shape == (18, 18)
        assert_density_operator(state)


class TestMegFromQecm:
    def test_uniform_haar_effects_are_projectors(self, rng):
        e = uniform_haar_scheme(2, 2)
        keys = [e.key_sampler(rng) for _ in range(4)]
        game = meg_from_qecm(e, keys)
        for effects in game.alice_effects:
            povm = Povm(dim=4, effects=effects)
            validate_effects(povm.effects)
            for m, eff in enumerate(povm.effects):
                w = np.sort(np.linalg.eigvalsh(eff))[::-1]
                # rank-L projector spectrum, matching the decrypt effect
                assert np.allclose(w[:2], 1.0, atol=1e-8)
                assert np.allclose(w[2:], 0.0, atol=1e-8)

    def test_bb84_effects_equal_keyed_basis_projectors(self):
        e = bb84_scheme(1)
        keys = e.enumerate_keys()
        game = meg_from_qecm(e, keys)
        for key, effects in zip(keys, game.alice_effects):
            povm = Povm(dim=2, effects=effects)
            decrypt = e.decrypt_povm(key)
            for m in range(2):
                # real ciphertexts: the eigenbasis transpose is a no-op
                assert np.max(np.abs(povm.effects[m] - decrypt.effects[m])) < 1e-8

    def test_key_dependent_average_rejected(self):
        # two keys occupy disjoint subspaces, so the average moves with the key
        def encrypt(key, m):
            e = np.zeros((4, 4), dtype=complex)
            e[2 * key + m, 2 * key + m] = 1.0
            return e

        def decrypt_povm(key):
            effects = []
            for m in range(2):
                eff = np.zeros((4, 4), dtype=complex)
                eff[2 * key + m, 2 * key + m] = 1.0
                eff[2 * (1 - key) + m, 2 * (1 - key) + m] = 1.0
                effects.append(eff)
            return Povm(dim=4, effects=tuple(effects))

        blocky = QecmScheme(
            message_count=2,
            cipher_dim=4,
            key_sampler=lambda rng: int(rng.integers(0, 2)),
            encrypt=encrypt,
            decrypt_povm=decrypt_povm,
        )
        with pytest.raises(NotKeyIndependent):
            meg_from_qecm(blocky, [0, 1])

    def test_rank_deficient_average_supported(self, rng):
        # pad a qubit scheme into d=3; the average misses one direction
        base = uniform_haar_scheme(2, 1)

        def encrypt(key, m):
            padded = np.zeros((3, 3), dtype=complex)
            padded[:2, :2] = base.encrypt(key, m)
            return padded

        e = QecmScheme(
            message_count=2,
            cipher_dim=3,
            key_sampler=base.key_sampler,
            encrypt=encrypt,
            decrypt_povm=lambda key: None,  # the game never decrypts
        )
        keys = [e.key_sampler(rng) for _ in range(3)]
        game = meg_from_qecm(e, keys)
        for effects in game.alice_effects:
            validate_effects(Povm(dim=3, effects=effects).effects)


class TestStrategyFromAttack:
    def test_choi_strategy_trace_one(self, rng):
        e = uniform_haar_scheme(2, 1)
        keys = [e.key_sampler(rng) for _ in range(3)]
        rho_bar = mean_ciphertext(e.ciphertext_stack(keys))
        atk = projector_cloning_attack(e)
        strategy = strategy_from_attack(e, atk, rho_bar)
        assert abs(np.trace(_dense(_vectors(strategy.u, strategy.left))).real - 1.0) < 1e-9
        assert strategy.dims == (2, 3, 3)

    def test_measure_share_choi_is_classical(self, rng):
        e = uniform_haar_scheme(2, 1)
        keys = [e.key_sampler(rng) for _ in range(3)]
        rho_bar = mean_ciphertext(e.ciphertext_stack(keys))
        atk = measure_share_ml_attack(e, np.eye(2, dtype=complex))
        strategy = strategy_from_attack(e, atk, rho_bar)
        # BC part is diagonal in the shared-outcome basis
        state = _dense(_vectors(strategy.u, strategy.left)).reshape(2, 4, 2, 4)
        bc = np.einsum("ijil->jl", state)
        off = bc - np.diag(np.diag(bc))
        assert np.max(np.abs(off)) < 1e-12


class TestVerifyReduction:
    def test_trivial_constant_attack(self, rng):
        e = uniform_haar_scheme(2, 2)
        d = e.cipher_dim
        constant = Povm(
            dim=d, effects=(np.eye(d, dtype=complex), np.zeros((d, d), complex))
        )
        atk = CloningAttack(
            channel=measure_share_attack(d, np.eye(d, dtype=complex)),
            bob_effects=constant_map(constant.effects),
            charlie_effects=constant_map(constant.effects),
            dims=(d, d),
        )
        lhs, rhs, gap = verify_reduction(e, atk, e.sample_keys(rng, 5))
        assert abs(rhs - 0.5) < 1e-10
        assert gap < 1e-12

    def test_cloner_attack_small(self, rng):
        e = uniform_haar_scheme(2, 2)
        keys = [e.key_sampler(rng) for _ in range(8)]
        lhs, rhs, gap = verify_reduction(e, projector_cloning_attack(e), keys)
        assert abs(rhs - 0.53125) < 1e-9
        assert gap < 1e-8

    @pytest.mark.parametrize("basis", ["identity", "haar"])
    def test_measure_share_at_d32(self, basis, rng):
        # rank-one Kraus factors and their Choi factor at d = 32; both routes
        # also meet the per-key maximum-likelihood decode value
        e = uniform_haar_scheme(2, 16)
        b = np.eye(32, dtype=complex) if basis == "identity" else haar_unitary(32, rng)
        keys = e.sample_keys(rng, 3)
        lhs, rhs, gap = verify_reduction(e, measure_share_ml_attack(e, b), keys)
        decoded = np.mean(optimal_decode_for_measure_share(e.ciphertext_stack(keys), b)[1])
        assert gap < 1e-8
        assert abs(rhs - decoded) < 1e-12

    def test_breidbart_measure_share(self):
        e = bb84_scheme(1)
        atk = measure_share_ml_attack(e, breidbart_basis())
        lhs, rhs, gap = verify_reduction(e, atk, e.enumerate_keys())
        assert abs(rhs - (0.5 + 0.5 / np.sqrt(2.0))) < 1e-12
        assert gap < 1e-8

    def test_each_key_povm_is_built_once_for_both_routes(self, rng):
        e = uniform_haar_scheme(2, 2)
        keys = e.sample_keys(rng, 4)
        atk = measure_share_ml_attack(e, np.eye(4, dtype=complex))
        calls = []

        def counted(stack):
            # the keys (rows) of each stack the stacked map is called on
            calls.extend(range(len(stack)))
            return atk.bob_effects(stack)

        shared = replace(atk, bob_effects=counted, charlie_effects=counted)
        verify_reduction(e, shared, keys)
        assert len(calls) == len(keys)
        # two maps are two POVMs per key
        split = replace(atk, bob_effects=counted, charlie_effects=lambda stack: counted(stack))
        calls.clear()
        verify_reduction(e, split, keys)
        assert len(calls) == 2 * len(keys)
