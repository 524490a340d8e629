import inspect
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from uncloneq.attacks import (
    CloningAttack,
    breidbart_basis,
    ind_attack_build,
    projector_cloning_attack,
    projector_strategy_value,
    measure_share_attack,
    measure_share_ml_attack,
    optimal_decode_for_measure_share,
    guessing_projector,
    pwin_ind_eval,
    pwin_unif_eval,
    random_basis_attack_estimate,
    superposition_cloner,
)
from uncloneq import attacks, linalg, schemes
from uncloneq.attacks import _outcome_likelihoods
from uncloneq.errors import DimensionMismatch, NotOrthogonalPair
from uncloneq.linalg import (
    KrausChannel,
    apply_channel,
    assert_projector,
    dagger,
    haar_unitary,
    herm_eig,
    make_rng,
)
from uncloneq.schemes import (
    HaarKey,
    Povm,
    QecmScheme,
    RankDistribution,
    bb84_scheme,
    check_correctness,
    haar_scheme,
    mu_statistic,
    uniform_haar_scheme,
    validate_effects,
)
from uncloneq.meg import meg_from_qecm, verify_reduction
from uncloneq.optimize import pwin_unif_seesaw

from conftest import constant_map, orthogonal_support_pair, padded_scheme
from oracles import ErlangParams, erlang_cdf, expurgate_scheme

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)


class TestSuperpositionCloner:
    def test_scalar_input_normalized(self):
        v = superposition_cloner(1).left[0]
        out = v[:, 0]
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_qubit_overlap(self):
        v = superposition_cloner(2).left[0]
        out = v[:, 0]  # V|0>
        bot_zero = np.zeros(9)
        bot_zero[2 * 3 + 0] = 1.0  # |bot>|0>
        assert abs(np.vdot(bot_zero, out) - 1 / math.sqrt(2)) < 1e-12

    def test_isometry(self):
        for d in (1, 2, 5):
            v = superposition_cloner(d).left[0]
            assert np.max(np.abs(dagger(v) @ v - np.eye(d))) < 1e-12

    @pytest.mark.parametrize("d", range(1, 7))
    def test_equals_the_factor_built_entry_by_entry(self, d):
        dp = d + 1
        looped = np.zeros((1, dp * dp, d), dtype=complex)
        for j in range(d):
            looped[0, d * dp + j, j] += 1.0 / math.sqrt(2.0)
            looped[0, j * dp + d, j] += 1.0 / math.sqrt(2.0)
        assert np.array_equal(superposition_cloner(d).left, looped)


class TestPiProjector:
    def test_pure_pair_matrix_elements(self):
        alpha = 0.25
        pi = guessing_projector(KET0, KET1, alpha)
        assert_projector(pi)
        a0 = np.zeros(3, dtype=complex)
        a0[:2] = herm_eig(KET0)[1][:, 0]
        bot = np.array([0, 0, 1], dtype=complex)
        assert abs(np.vdot(bot, pi @ bot) - alpha) < 1e-12
        assert abs(np.vdot(a0, pi @ a0) - (1 - alpha)) < 1e-12
        assert abs(np.vdot(a0, pi @ bot) - math.sqrt(alpha * (1 - alpha))) < 1e-12
        # rank-1 rho contributes only |phi><phi|
        assert abs(np.trace(pi).real - 1.0) < 1e-12

    def test_alpha_zero_collapses_to_support(self):
        pi = guessing_projector(KET0, KET1, 0.0)
        bot = np.array([0, 0, 1], dtype=complex)
        assert np.linalg.norm(pi @ bot) < 1e-12

    def test_annihilates_sigma_support(self):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        sigma = np.diag([0.0, 0.0, 1.0]).astype(complex)
        pi = guessing_projector(rho, sigma, 0.25)
        assert_projector(pi)
        sig_vec = np.array([0, 0, 1, 0], dtype=complex)
        assert np.linalg.norm(pi @ sig_vec) < 1e-12

    def test_annihilates_sigma_support_random(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 7))
            r1 = int(rng.integers(1, d))
            r2 = int(rng.integers(1, d - r1 + 1))
            rho, sigma = orthogonal_support_pair(d, r1, r2, rng)
            pi = guessing_projector(rho, sigma, 0.25)
            assert_projector(pi)
            w, v = herm_eig(sigma)
            for i in range(r2):
                vec = np.zeros(d + 1, dtype=complex)
                vec[:d] = v[:, i]
                assert np.linalg.norm(pi @ vec) < 1e-9

    def test_rejects_overlapping_supports(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        with pytest.raises(NotOrthogonalPair):
            guessing_projector(KET0, plus, 0.25)

    def test_degenerate_top_flag(self):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        sigma = np.diag([0.0, 0.0, 1.0]).astype(complex)
        guessing_projector(rho, sigma, 0.25)  # a degenerate top is tolerated

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            guessing_projector(KET0, KET1, 1.5)


class TestLemma1Value:
    def test_pure_orthogonal_quarter(self):
        assert abs(projector_strategy_value(KET0, KET1, 0.25) - 9 / 16) < 1e-9

    def test_alpha_zero_is_half(self):
        assert abs(projector_strategy_value(KET0, KET1, 0.0) - 0.5) < 1e-9

    def test_flat_rank_two(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        sigma = np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex)
        assert abs(projector_strategy_value(rho, sigma, 0.25) - 0.53125) < 1e-9

    def test_swap_orientation(self):
        # whichever argument holds the larger top eigenvalue drives the value
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        sigma = np.diag([0.0, 0.0, 1.0]).astype(complex)
        assert abs(projector_strategy_value(sigma, rho, 0.25) - 9 / 16) < 1e-9
        assert abs(projector_strategy_value(rho, sigma, 0.25) - 9 / 16) < 1e-9

    @pytest.mark.parametrize(
        "rho, sigma, owner",
        [
            (np.diag([0.5, 0.5, 0.0]), np.diag([0.0, 0.0, 1.0]), 1),
            (np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]), 0),
        ],
        ids=["sigma-larger", "tie-to-rho"],
    )
    def test_attack_and_value_orient_the_pair_alike(self, rho, sigma, owner, monkeypatch):
        # the projector belongs to the state with the larger top eigenvalue,
        # rho on a tie, in the strategy value and in the attack's effects:
        # each projector is built from that state's eigendecomposition
        pair = (rho.astype(complex), sigma.astype(complex))
        built_for = []
        projectors = attacks._projectors

        def recording(w, v, alpha):
            built_for.append((w, v))
            return projectors(w, v, alpha)

        monkeypatch.setattr(attacks, "_projectors", recording)
        e = QecmScheme(
            message_count=2,
            cipher_dim=3,
            key_sampler=lambda rng: 0,
            encrypt=lambda key, m: pair[m],
            decrypt_povm=lambda key: None,
        )
        atk = projector_cloning_attack(e)
        effects = atk.bob_effects(e.ciphertext_stack([0]))[0]
        value = projector_strategy_value(*pair, 0.25)
        assert len(built_for) == 2
        w_own, v_own = herm_eig(pair[owner][None])
        assert all(np.array_equal(w, w_own) and np.array_equal(v, v_own) for w, v in built_for)
        pi = guessing_projector(pair[owner], pair[1 - owner], 0.25)
        assert np.array_equal(effects[owner], pi)
        assert np.array_equal(effects[1 - owner], np.eye(4) - pi)
        assert abs(pwin_unif_eval(e, atk, [0]) - value) < 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 0.125, 0.25, 0.5, 1.0])
    def test_closed_form_agreement(self, alpha, rng):
        # projector_strategy_value cross-checks direct trace vs closed form internally
        for _ in range(5):
            rho, sigma = orthogonal_support_pair(4, 2, 1, rng)
            val = projector_strategy_value(rho, sigma, alpha)
            lam = max(np.linalg.eigvalsh(rho)[-1], np.linalg.eigvalsh(sigma)[-1])
            closed = 0.5 * (alpha + lam * alpha * (1 - 2 * alpha) + 1 - alpha)
            assert abs(val - closed) < 1e-9

    def test_lower_bound_random_pairs(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 9))
            r1 = int(rng.integers(1, d))
            r2 = int(rng.integers(1, d - r1 + 1))
            rho, sigma = orthogonal_support_pair(d, r1, r2, rng)
            lam = max(np.linalg.eigvalsh(rho)[-1], np.linalg.eigvalsh(sigma)[-1])
            assert projector_strategy_value(rho, sigma, 0.25) >= 0.5 + lam / 16 - 1e-9


class TestIndAttack:
    def test_bb84_single_bit(self):
        e = bb84_scheme(1)
        keys = e.enumerate_keys()
        atk, m1, mu = ind_attack_build(e, 0, 0.25, keys)
        assert m1 == 1
        assert abs(mu - 1.0) < 1e-12
        val = pwin_ind_eval(e, 0, m1, atk, keys)
        assert abs(val - 9 / 16) < 1e-9

    def test_uniform_haar_rank_two(self, rng):
        e = uniform_haar_scheme(2, 2)
        keys = [e.key_sampler(rng) for _ in range(8)]
        atk, m1, _ = ind_attack_build(e, 0, 0.25, keys)
        val = pwin_ind_eval(e, 0, m1, atk, keys)
        assert abs(val - 0.53125) < 1e-9

    def test_m1_prefers_largest_eigenvalue(self, rng):
        e = haar_scheme(3, 4, RankDistribution.deterministic((1, 1, 2)))
        keys = [e.key_sampler(rng) for _ in range(4)]
        _, m1, _ = ind_attack_build(e, 0, 0.25, keys)
        assert m1 == 1  # the remaining rank-1 message

    def test_swap_reaches_mu_bound(self, rng):
        # m0 carries the low-eigenvalue ciphertext; the per-key swap must
        # still deliver 1/2 + mu/16 with mu driven by the other message
        e = haar_scheme(2, 3, RankDistribution.deterministic((2, 1)))
        keys = [e.key_sampler(rng) for _ in range(6)]
        atk, m1, mu = ind_attack_build(e, 0, 0.25, keys)
        val = pwin_ind_eval(e, 0, m1, atk, keys)
        assert mu == mu_statistic(e, keys)
        assert abs(mu - 1.0) < 1e-10
        assert val >= 0.5 + mu / 16 - 1e-9

    def test_mu_bound_with_random_rank_vector(self, rng):
        # per-key values fluctuate when the rank split itself is random
        e = haar_scheme(2, 4, RankDistribution(((1, 3), (2, 2)), (0.5, 0.5)))
        keys = [e.key_sampler(rng) for _ in range(24)]
        atk, m1, _ = ind_attack_build(e, 0, 0.25, keys)
        per_key = np.array([pwin_ind_eval(e, 0, m1, atk, [k]) for k in keys])
        assert per_key.std() > 0  # genuinely key dependent
        stderr = per_key.std(ddof=1) / math.sqrt(len(keys))
        mu = mu_statistic(e, keys)
        assert per_key.mean() >= 0.5 + mu / 16 - 3 * stderr - 1e-12

    def test_trivial_attack_scores_half(self, rng):
        e = uniform_haar_scheme(2, 1)
        # discard-and-prepare channel: measure, then hand both parties |0>
        ops = []
        for j in range(2):
            k = np.zeros((9, 2), dtype=complex)
            k[0, j] = 1.0
            ops.append(k)
        ch = KrausChannel(2, 9, tuple(ops))
        guess_zero = Povm(dim=3, effects=(np.eye(3, dtype=complex), np.zeros((3, 3), complex)))
        lazy = CloningAttack(
            channel=ch,
            bob_effects=constant_map(guess_zero.effects),
            charlie_effects=constant_map(guess_zero.effects),
            dims=(3, 3),
        )
        val = pwin_ind_eval(e, 0, 1, lazy, e.sample_keys(rng, 3))
        assert abs(val - 0.5) < 1e-12


class TestMeasureShare:
    def test_standard_basis_on_basis_state(self):
        ch = measure_share_attack(2, np.eye(2, dtype=complex))
        out = apply_channel(ch, KET0)
        target = np.zeros((4, 4), dtype=complex)
        target[0, 0] = 1.0
        assert np.max(np.abs(out - target)) < 1e-12

    def test_kraus_completeness_random_basis(self, rng):
        basis = haar_unitary(4, rng)
        ch = measure_share_attack(4, basis)
        assert ch.left.shape == (4, 16, 1)  # rank one: d^3 entries, not d^4
        acc = sum(dagger(k) @ k for k in ch.left @ dagger(ch.right))
        assert np.max(np.abs(acc - np.eye(4))) < 1e-12

    def test_ml_decode_aligned_basis(self, rng):
        e = uniform_haar_scheme(2, 1)
        key = e.key_sampler(rng)
        effects, values = optimal_decode_for_measure_share(e.ciphertext_stack([key]), key.unitary)
        assert abs(values[0] - 1.0) < 1e-10
        validate_effects(Povm(dim=2, effects=effects[0]).effects)

    def test_ml_decode_haar_basis_expectation(self):
        # orthogonal pure qubit pair vs a random basis: E max(X, 1-X) = 3/4
        e = uniform_haar_scheme(2, 1)
        gen = make_rng(314)
        n = 20_000
        acc = 0.0
        for _ in range(n):
            key = e.key_sampler(gen)
            basis = haar_unitary(2, gen)
            acc += optimal_decode_for_measure_share(e.ciphertexts(key)[None], basis)[1][0]
        assert abs(acc / n - 0.75) < 0.01

    def test_ml_decode_uninformative_ciphertexts(self):
        flat = QecmScheme(
            message_count=2,
            cipher_dim=3,
            key_sampler=lambda rng: 0,
            encrypt=lambda key, m: np.eye(3, dtype=complex) / 3,
            decrypt_povm=lambda key: Povm(
                dim=3, effects=(np.eye(3, dtype=complex), np.zeros((3, 3), complex))
            ),
        )
        _, values = optimal_decode_for_measure_share(
            flat.ciphertext_stack([0]), np.eye(3, dtype=complex)
        )
        assert abs(values[0] - 0.5) < 1e-12


def _mixed_rank_scheme() -> QecmScheme:
    # key 1: pure basis states; key 2: two flat rank-two blocks; the
    # factors of one batch then have different column counts
    def encrypt(key, m):
        diag = np.zeros(4)
        diag[m * key : (m + 1) * key] = 1.0 / key
        return np.diag(diag).astype(complex)

    return QecmScheme(
        message_count=2,
        cipher_dim=4,
        key_sampler=lambda rng: int(rng.integers(1, 3)),
        encrypt=encrypt,
        decrypt_povm=lambda key: None,
    )


_EVEN_4X2 = RankDistribution.deterministic((2, 2, 2, 2))
_TWO_SUPPORT = RankDistribution(((1, 1, 4), (3, 2, 1)), (0.5, 0.5))


def _haar_keys(tdist: RankDistribution, d: int):
    # the Haar factor_sampler's draw order: every key's ranks, then every unitary
    def draw(rng, n):
        ranks = tdist.sample(rng, n)
        unitaries = haar_unitary(d, rng, n)
        return [HaarKey(tuple(int(x) for x in t), u) for t, u in zip(ranks, unitaries)]

    return draw


def _looped(e: QecmScheme):
    # schemes without a factor_sampler draw their keys one key_sampler call at a time
    return e, lambda rng, n: [e.key_sampler(rng) for _ in range(n)]


class TestRandomBasisEstimate:
    def test_qubit_pure_pair(self):
        e = uniform_haar_scheme(2, 1)
        mean, stderr = random_basis_attack_estimate(e, 20_000, make_rng(7))
        assert abs(mean - 0.75) < 0.01
        assert stderr < 0.002

    def test_single_message_is_one(self, rng):
        e = uniform_haar_scheme(1, 3)
        mean, stderr = random_basis_attack_estimate(e, 50, rng)
        assert mean == 1.0
        assert stderr < 1e-12

    def test_guessing_floor(self, rng):
        for e in (bb84_scheme(2), uniform_haar_scheme(2, 2)):
            mean, stderr = random_basis_attack_estimate(e, 2000, rng)
            assert mean >= 1.0 / e.message_count - 3 * stderr

    @pytest.mark.parametrize(
        "make",
        [
            lambda: (uniform_haar_scheme(4, 2), _haar_keys(_EVEN_4X2, 8)),
            lambda: (haar_scheme(3, 6, _TWO_SUPPORT), _haar_keys(_TWO_SUPPORT, 6)),
            lambda: _looped(bb84_scheme(2)),
            lambda: _looped(padded_scheme(uniform_haar_scheme(2, 2), 6)),
            lambda: _looped(expurgate_scheme(uniform_haar_scheme(4, 1), 2, lambda key, m: 3 - m)),
            pytest.param(lambda: _looped(_mixed_rank_scheme()), id="_mixed_rank_scheme"),
        ],
    )
    def test_stacked_likelihoods_match_dense(self, make, rng):
        # sample_factors and a replay of its key draws from the same seed
        e, draw_keys = make()
        f, owners = e.sample_factors(make_rng(5), 12)
        keys = draw_keys(make_rng(5), 12)
        assert f.shape[:2] == (12, e.cipher_dim)
        assert owners.shape == (12, f.shape[2], e.message_count)
        bases = haar_unitary(e.cipher_dim, rng, len(keys))
        dense = np.stack([_outcome_likelihoods(e.ciphertexts(k), b) for k, b in zip(keys, bases)])
        assert np.max(np.abs(np.abs(dagger(bases) @ f) ** 2 @ owners - dense)) < 1e-12

    def test_haar_factor_sampler_rebuilds_ciphertexts(self):
        e = haar_scheme(3, 6, _TWO_SUPPORT)
        f, owners = e.sample_factors(make_rng(9), 10)
        keys = _haar_keys(_TWO_SUPPORT, 6)(make_rng(9), 10)
        assert {key.ranks for key in keys} == set(_TWO_SUPPORT.support)
        for j, key in enumerate(keys):
            for m in range(3):
                rebuilt = (f[j] * owners[j, :, m]) @ dagger(f[j])
                assert np.max(np.abs(rebuilt - e.encrypt(key, m))) < 1e-12

    def test_estimate_matches_dense_oracle_across_chunks(self):
        # a Haar chunk holds LANE_BYTES // (16 d²) trials, and each lane's
        # share of 1.5 chunks takes two; each lane replays its own spawned
        # stream, and each chunk draws its ranks, then its key unitaries and
        # no bases: the likelihoods are read in the standard basis
        e = uniform_haar_scheme(2, 16)
        chunk = linalg.LANE_BYTES // (16 * 32 * 32)
        trials = 3 * chunk
        mean, stderr = random_basis_attack_estimate(e, trials, make_rng(41))
        draw_keys = _haar_keys(RankDistribution.deterministic((16, 16)), 32)
        vals = []
        for gen in make_rng(41).spawn(2):
            for c in (chunk, trials // 2 - chunk):
                for key in draw_keys(gen, c):
                    probs = _outcome_likelihoods(e.ciphertexts(key), np.eye(32))
                    vals.append(probs.max(axis=1).sum() / 2)
        vals = np.array(vals)
        assert abs(mean - vals.mean()) < 1e-12
        assert abs(stderr - vals.std(ddof=1) / math.sqrt(trials)) < 1e-12

    def test_bb84_estimate_matches_dense_oracle_across_chunks(self):
        # BB84 has no unitarily invariant key law: each chunk draws its keys
        # one key_sampler call at a time, then its bases in one batched draw
        e = bb84_scheme(4)
        chunk = linalg.LANE_BYTES // (16 * 16 * 16)
        trials = 3 * chunk
        mean, stderr = random_basis_attack_estimate(e, trials, make_rng(43))
        vals = []
        for gen in make_rng(43).spawn(2):
            for c in (chunk, trials // 2 - chunk):
                keys = [e.key_sampler(gen) for _ in range(c)]
                for key, basis in zip(keys, haar_unitary(16, gen, c)):
                    probs = _outcome_likelihoods(e.ciphertexts(key), basis)
                    vals.append(probs.max(axis=1).sum() / 16)
        vals = np.array(vals)
        assert abs(mean - vals.mean()) < 1e-12
        assert abs(stderr - vals.std(ddof=1) / math.sqrt(trials)) < 1e-12

    def test_basis_folds_into_a_haar_key(self, rng):
        # the two-draw value of key (t, U) in basis B is the one-draw value,
        # in the standard basis, of key (t, B† U), whose unitary is Haar too
        e = haar_scheme(3, 6, _TWO_SUPPORT)
        keys = _haar_keys(_TWO_SUPPORT, 6)(rng, 10)
        for key, basis in zip(keys, haar_unitary(6, rng, 10)):
            two = _outcome_likelihoods(e.ciphertexts(key), basis)
            turned = HaarKey(key.ranks, dagger(basis) @ key.unitary)
            one = _outcome_likelihoods(e.ciphertexts(turned), np.eye(6))
            assert np.max(np.abs(two - one)) < 1e-12
            assert abs(two.max(axis=1).sum() - one.max(axis=1).sum()) < 1e-12

    @pytest.mark.parametrize(
        "make, per_trial",
        [
            pytest.param(lambda: uniform_haar_scheme(2, 2), 1, id="uniform_haar"),
            pytest.param(lambda: haar_scheme(3, 6, _TWO_SUPPORT), 1, id="haar-two-support"),
            pytest.param(lambda: bb84_scheme(2), 1, id="bb84"),
            pytest.param(lambda: padded_scheme(uniform_haar_scheme(2, 2), 6), 2, id="padded"),
        ],
    )
    def test_haar_draws_per_chunk(self, make, per_trial, monkeypatch):
        # a unitarily invariant scheme draws its keys' unitaries in one call
        # per chunk and no basis; every other scheme draws one basis stack per
        # chunk, after its keys (padded Haar keys draw one unitary each)
        e = make()
        monkeypatch.setattr(linalg, "LANE_BYTES", 16 * e.cipher_dim**2 * 5)
        calls = {"schemes": [], "attacks": []}
        for name, module in (("schemes", schemes), ("attacks", attacks)):

            def counted(d, rng, n=None, _calls=calls[name]):
                _calls.append(1 if n is None else n)
                return haar_unitary(d, rng, n)

            monkeypatch.setattr(module, "haar_unitary", counted)
        trials = 23  # lane shares of 11 and 12, three chunks of at most 5 each
        random_basis_attack_estimate(e, trials, make_rng(3))
        drawn = sum(calls["schemes"]) + sum(calls["attacks"])
        assert drawn == per_trial * trials
        chunks = [1, 2, 5, 5, 5, 5]
        if e.unitarily_invariant:
            assert sorted(calls["schemes"]) == chunks and not calls["attacks"]
        else:
            assert sorted(calls["attacks"]) == chunks

    def test_memory_does_not_grow_with_trials(self, monkeypatch):
        # chunks of 1024 qubit trials; 200 000 trials held at once would add 1.6 MB
        monkeypatch.setattr(linalg, "LANE_BYTES", 2**16)
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 1)  # the lanes run in turn
        e = uniform_haar_scheme(2, 1)
        random_basis_attack_estimate(e, 3000, make_rng(0))  # numpy's lazy set-up

        def peak(trials):
            tracemalloc.start()
            try:
                random_basis_attack_estimate(e, trials, make_rng(1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(200_000) <= 1.1 * peak(2_000)

    def test_memory_of_threaded_lanes_is_one_chunk_each(self, monkeypatch):
        # lanes side by side hold at most one chunk each
        monkeypatch.setattr(linalg, "LANE_BYTES", 2**16)
        e = uniform_haar_scheme(2, 1)
        random_basis_attack_estimate(e, 3000, make_rng(0))  # numpy's lazy set-up

        def peak(trials):
            tracemalloc.start()
            try:
                random_basis_attack_estimate(e, trials, make_rng(1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with monkeypatch.context() as m:
            m.setattr(linalg, "_cpu_count", lambda: 1)
            serial = peak(2_000)
        assert peak(200_000) <= 1.1 * linalg._LANES * serial

    @pytest.mark.parametrize("big_m", [16, 32])
    def test_one_lane_holds_a_few_chunk_stacks(self, big_m, monkeypatch):
        # one lane's Haar chunk holds complex stacks of LANE_BYTES (512 KB)
        # each: the Ginibre draw, its QR and the factor; six bound them all
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 1)  # the lanes run in turn
        e = uniform_haar_scheme(big_m, 1)
        random_basis_attack_estimate(e, 200, make_rng(0))  # numpy's lazy set-up
        tracemalloc.start()
        try:
            random_basis_attack_estimate(e, 4000, make_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * linalg.LANE_BYTES

    def test_refuses_non_integer_trials(self):
        with pytest.raises(ValueError, match="integer"):
            random_basis_attack_estimate(uniform_haar_scheme(2, 1), 2.5, make_rng(0))

    @pytest.mark.parametrize("big_m, L, seed", [(16, 1, 301), (4, 2, 302)])
    def test_agrees_with_erlang_law(self, big_m, L, seed):
        # a Haar row's squared overlaps with the M blocks of L columns are
        # M i.i.d. Erlang(L) draws over their sum, so the attack's mean is
        # E[max_m X_m / sum_m X_m] = (1/d) int_0^inf (1 - F_L(x)^M) dx
        attack, s_attack = random_basis_attack_estimate(
            uniform_haar_scheme(big_m, L), 10_000, make_rng(seed)
        )
        law = ErlangParams(L, 1.0)
        tail, _ = integrate.quad(lambda x: 1.0 - erlang_cdf(law, x) ** big_m, 0, np.inf)
        exact = tail / (big_m * L)
        if L == 1:
            assert abs(exact - sum(1 / k for k in range(1, big_m + 1)) / big_m) < 1e-12
        assert abs(attack - exact) <= 4 * s_attack


class TestPwinUnif:
    def test_send_to_bob_scores_one_over_m(self, rng):
        e = uniform_haar_scheme(2, 2)
        d = e.cipher_dim
        ket0 = np.zeros(3, dtype=complex)
        ket0[0] = 1.0
        kraus = np.kron(np.eye(d, dtype=complex), ket0[:, None])
        ch = KrausChannel(d, d * 3, (kraus,))
        zero_guess = Povm(
            dim=3, effects=(np.eye(3, dtype=complex), np.zeros((3, 3), complex))
        )
        atk = CloningAttack(
            channel=ch,
            # the decryption POVM: each effect u P_m u† is L = 2 times its ciphertext
            bob_effects=lambda stack: 2 * stack,
            charlie_effects=constant_map(zero_guess.effects),
            dims=(d, 3),
        )
        val = pwin_unif_eval(e, atk, e.sample_keys(rng, 6))
        assert abs(val - 0.5) < 1e-10

    def test_constant_guess_scores_one_over_m(self, rng):
        e = uniform_haar_scheme(4, 1)
        d = e.cipher_dim
        ch = measure_share_attack(d, np.eye(d, dtype=complex))
        constant = Povm(
            dim=d,
            effects=(np.eye(d, dtype=complex),)
            + tuple(np.zeros((d, d), complex) for _ in range(3)),
        )
        atk = CloningAttack(
            channel=ch,
            bob_effects=constant_map(constant.effects),
            charlie_effects=constant_map(constant.effects),
            dims=(d, d),
        )
        assert abs(pwin_unif_eval(e, atk, e.sample_keys(rng, 5)) - 0.25) < 1e-10

    def test_bb84_breidbart_value(self):
        e = bb84_scheme(1)
        keys = e.enumerate_keys()
        atk = measure_share_ml_attack(e, breidbart_basis())
        val = pwin_unif_eval(e, atk, keys)
        assert abs(val - (0.5 + 0.5 / math.sqrt(2))) < 1e-9

    def test_relabeling_invariance(self, rng):
        e = uniform_haar_scheme(2, 1)
        keys = [e.key_sampler(rng) for _ in range(4)]
        atk = projector_cloning_attack(e)
        perm = [1, 0]
        flipped = QecmScheme(
            message_count=2,
            cipher_dim=2,
            key_sampler=e.key_sampler,
            encrypt=lambda key, m: e.encrypt(key, perm[m]),
            decrypt_povm=e.decrypt_povm,
        )

        def permuted_effects(stack):
            # the attack's effects for the original labels, relabeled
            return atk.bob_effects(stack[:, perm])[:, perm]

        relabeled = CloningAttack(
            channel=atk.channel,
            bob_effects=permuted_effects,
            charlie_effects=permuted_effects,
            dims=atk.dims,
        )
        v0 = pwin_unif_eval(e, atk, keys)
        v1 = pwin_unif_eval(flipped, relabeled, keys)
        assert abs(v0 - v1) < 1e-12

    def test_dimension_mismatch(self, rng):
        e = uniform_haar_scheme(2, 2)
        atk = projector_cloning_attack(uniform_haar_scheme(2, 1))
        with pytest.raises(DimensionMismatch):
            pwin_unif_eval(e, atk, e.sample_keys(rng, 2))


class TestBreidbartBasis:
    def test_bisects_both_bases(self):
        b = breidbart_basis()
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
        c2 = math.cos(math.pi / 8) ** 2
        assert abs(abs(b[0, 0]) ** 2 - c2) < 1e-12
        assert abs(abs(np.vdot(plus, b[:, 0])) ** 2 - c2) < 1e-12


_KEY_AVERAGING_EVALUATORS = [
    ind_attack_build,
    pwin_ind_eval,
    pwin_unif_eval,
    check_correctness,
    mu_statistic,
    meg_from_qecm,
    verify_reduction,
    pwin_unif_seesaw,
]


@pytest.mark.parametrize("evaluator", _KEY_AVERAGING_EVALUATORS, ids=lambda f: f.__name__)
def test_key_averaging_evaluator_takes_one_required_key_list(evaluator):
    # the keys an attack is built and scored on are the caller's, never a count
    # drawn again inside; the benchmark tracer reads ``keys`` from bound arguments
    params = inspect.signature(evaluator).parameters
    assert "key_samples" not in params
    # the seesaw's rng draws its restarts, never keys (test_each_key_is_read_once counts them)
    assert "rng" not in params or evaluator is pwin_unif_seesaw
    assert params["keys"].default is inspect.Parameter.empty


@pytest.mark.parametrize("evaluator", _KEY_AVERAGING_EVALUATORS, ids=lambda f: f.__name__)
def test_key_averaging_evaluator_refuses_an_empty_key_list(evaluator):
    # no average is defined over no keys, and none may be reported
    e = bb84_scheme(1)
    atk, m1, _ = ind_attack_build(e, 0, 0.25, e.enumerate_keys())
    given = {"e": e, "m0": 0, "m1": m1, "alpha": 0.25, "atk": atk, "ch": atk.channel, "keys": []}
    given["rng"], given["restarts"] = make_rng(0), 1
    params = inspect.signature(evaluator).parameters
    args = {name: given[name] for name, p in params.items() if p.default is p.empty}
    with pytest.raises(ValueError, match="keys"):
        evaluator(**args)
