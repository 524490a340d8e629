import numpy as np
import pytest

from uncloneq.errors import (
    DimensionMismatch,
    InvalidOperator,
    InvalidRanks,
    NotInjective,
)
from uncloneq.linalg import make_rng
from uncloneq.schemes import (
    Bb84Key,
    Povm,
    QecmScheme,
    RankDistribution,
    bb84_scheme,
    check_correctness,
    haar_scheme,
    mu_statistic,
    scheme_from_descriptor,
    uniform_haar_scheme,
    validate_effects,
)

from conftest import padded_scheme
from oracles import assert_density_operator, expurgate_scheme

KET_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


class TestHaarScheme:
    def test_orthogonal_pure_pair(self, rng):
        e = haar_scheme(2, 2, RankDistribution.deterministic((1, 1)))
        key = e.key_sampler(rng)
        c0, c1 = e.encrypt(key, 0), e.encrypt(key, 1)
        for c in (c0, c1):
            w = np.linalg.eigvalsh(c)
            assert abs(w[-1] - 1.0) < 1e-10 and abs(w[:-1]).max() < 1e-10
        assert abs(np.trace(c0 @ c1)) < 1e-12

    def test_full_block_is_maximally_mixed(self, rng):
        e = haar_scheme(1, 3, RankDistribution.deterministic((3,)))
        for _ in range(5):
            key = e.key_sampler(rng)
            assert np.max(np.abs(e.encrypt(key, 0) - np.eye(3) / 3)) < 1e-12

    def test_correctness_many_keys(self, rng):
        e = haar_scheme(4, 8, RankDistribution.deterministic((2, 2, 2, 2)))
        assert check_correctness(e, e.sample_keys(rng, 100)) < 1e-9

    def test_ciphertexts_and_povms_valid(self, rng):
        e = haar_scheme(3, 5, RankDistribution(((1, 2, 2), (2, 2, 1)), (0.5, 0.5)))
        for _ in range(5):
            key = e.key_sampler(rng)
            povm = e.decrypt_povm(key)
            validate_effects(povm.effects)
            for m in range(3):
                assert_density_operator(e.encrypt(key, m))

    def test_same_key_ciphertexts_orthogonal(self, rng):
        e = haar_scheme(3, 6, RankDistribution.deterministic((1, 2, 3)))
        key = e.key_sampler(rng)
        for m in range(3):
            for mp in range(m + 1, 3):
                overlap = abs(np.trace(e.encrypt(key, m) @ e.encrypt(key, mp)))
                assert overlap < 1e-9

    def test_invalid_ranks_rejected(self):
        with pytest.raises(InvalidRanks):
            haar_scheme(2, 3, RankDistribution.deterministic((1, 1)))
        with pytest.raises(InvalidRanks):
            RankDistribution.deterministic((2, 0))
        with pytest.raises(InvalidRanks):
            RankDistribution(((1, 1), (2, 1)), (0.5, 0.5))
        with pytest.raises(InvalidRanks):
            RankDistribution(((1, 1),), (0.7,))

    @pytest.mark.parametrize("support", [((1, 1.5),), ((True, 2),), ((1.0, 1),)])
    def test_non_integer_ranks_rejected(self, support):
        # int() would truncate 1.5 to 1 and read True as 1
        with pytest.raises(InvalidRanks):
            RankDistribution(support, (1.0,))


class TestUniformHaarScheme:
    def test_small_cases(self, rng):
        e = uniform_haar_scheme(2, 1)
        assert (e.message_count, e.cipher_dim) == (2, 2)
        e22 = uniform_haar_scheme(2, 2)
        assert (e22.message_count, e22.cipher_dim) == (2, 4)
        key = e22.key_sampler(rng)
        for m in range(2):
            w = np.sort(np.linalg.eigvalsh(e22.encrypt(key, m)))[::-1]
            assert np.allclose(w, [0.5, 0.5, 0.0, 0.0], atol=1e-10)

    def test_flat_spectrum_general(self, rng):
        e = uniform_haar_scheme(3, 2)
        key = e.key_sampler(rng)
        for m in range(3):
            w = np.sort(np.linalg.eigvalsh(e.encrypt(key, m)))[::-1]
            assert np.allclose(w[:2], 0.5, atol=1e-10)
            assert np.allclose(w[2:], 0.0, atol=1e-10)


class TestBb84Scheme:
    def test_single_bit_states(self):
        e = bb84_scheme(1)
        assert (e.message_count, e.cipher_dim) == (2, 2)
        k00 = Bb84Key((0,), (0,))
        assert np.allclose(e.encrypt(k00, 0), np.diag([1, 0]))
        k11 = Bb84Key((1,), (1,))
        assert np.allclose(e.encrypt(k11, 0), np.outer(KET_MINUS, KET_MINUS.conj()))

    def test_perfect_correctness_all_keys(self):
        e = bb84_scheme(1)
        assert check_correctness(e, e.enumerate_keys()) < 1e-12
        e2 = bb84_scheme(2)
        assert check_correctness(e2, e2.enumerate_keys()) < 1e-12

    def test_key_enumeration_count(self):
        assert len(bb84_scheme(2).enumerate_keys()) == 16

    def test_sampled_keys_are_valid(self, rng):
        e = bb84_scheme(2)
        key = e.key_sampler(rng)
        validate_effects(e.decrypt_povm(key).effects)

    def test_sample_keys_draws_from_the_key_sampler_in_order(self):
        e = bb84_scheme(2)
        gen = make_rng(3)
        assert e.sample_keys(make_rng(3), 5) == [e.key_sampler(gen) for _ in range(5)]
        with pytest.raises(ValueError):
            e.sample_keys(gen, 0)


class TestCheckCorrectness:
    def test_corrupted_decoder_scores_uniform_guess(self, rng):
        base = uniform_haar_scheme(4, 2)
        eye_share = Povm(
            dim=8, effects=tuple(np.eye(8, dtype=complex) / 4 for _ in range(4))
        )
        broken = QecmScheme(
            message_count=4,
            cipher_dim=8,
            key_sampler=base.key_sampler,
            encrypt=base.encrypt,
            decrypt_povm=lambda key: eye_share,
        )
        assert abs(check_correctness(broken, broken.sample_keys(rng, 5)) - 0.75) < 1e-12


class TestExpurgateScheme:
    def test_identity_relabeling_is_noop(self, rng):
        e = uniform_haar_scheme(2, 2)
        exp = expurgate_scheme(e, 2, lambda key, m: m)
        key = e.key_sampler(rng)
        for m in range(2):
            assert np.max(np.abs(exp.encrypt(key, m) - e.encrypt(key, m))) < 1e-12

    def test_keep_first_two_messages(self, rng):
        e = uniform_haar_scheme(4, 1)
        exp = expurgate_scheme(e, 2, lambda key, m: m)
        assert (exp.message_count, exp.cipher_dim) == (2, 4)
        assert check_correctness(exp, exp.sample_keys(rng, 20)) < 1e-9

    def test_collision_detected(self, rng):
        e = uniform_haar_scheme(4, 1)
        exp = expurgate_scheme(e, 2, lambda key, m: 0)
        with pytest.raises(NotInjective):
            exp.encrypt(e.key_sampler(rng), 1)

    def test_low_rank_selection_bound(self, rng):
        # keeping the M' lowest-rank ciphertexts caps the kept ranks at d/(M-M')
        tdist = RankDistribution(((1, 1, 2, 4), (1, 2, 2, 3), (1, 1, 1, 5)), (0.4, 0.3, 0.3))
        e = haar_scheme(4, 8, tdist)
        mprime = 2

        def keep_lowest(key, m):
            order = np.argsort(key.ranks, kind="stable")
            return int(order[m])

        exp = expurgate_scheme(e, mprime, keep_lowest)
        cap = e.cipher_dim / (e.message_count - mprime)
        for _ in range(10):
            key = e.key_sampler(rng)
            for m in range(mprime):
                rank = int(np.sum(np.linalg.eigvalsh(exp.encrypt(key, m)) > 1e-9))
                assert rank <= cap
        assert check_correctness(exp, exp.sample_keys(rng, 10)) < 1e-9

    def test_expurgation_value_inequality(self, rng):
        # (M'/M) pwin(e') <= pwin(e) for the scheme pair, via seesaw estimates
        from uncloneq.attacks import superposition_cloner
        from uncloneq.optimize import pwin_unif_seesaw

        e = uniform_haar_scheme(4, 1)
        exp = expurgate_scheme(e, 2, lambda key, m: m)
        keys = [e.key_sampler(rng) for _ in range(3)]
        ch = superposition_cloner(4)
        rng = make_rng(5)
        full, se_full = pwin_unif_seesaw(e, ch, keys, rng, 2)
        part, se_part = pwin_unif_seesaw(exp, ch, keys, rng, 2)
        slack = 3.0 * (se_full + se_part) + 1e-6
        assert 0.5 * part <= full + slack


class TestMuStatistic:
    def test_pure_ciphertexts(self):
        e = bb84_scheme(1)
        assert abs(mu_statistic(e, e.enumerate_keys()) - 1.0) < 1e-12

    def test_flat_rank_two(self, rng):
        e = uniform_haar_scheme(2, 2)
        assert abs(mu_statistic(e, e.sample_keys(rng, 10)) - 0.5) < 1e-10

    def test_rank_one_haar(self, rng):
        e = uniform_haar_scheme(2, 1)
        assert abs(mu_statistic(e, e.sample_keys(rng, 10)) - 1.0) < 1e-10


class TestSerialization:
    @pytest.mark.parametrize(
        "desc",
        [
            {"type": "bb84", "n": 2},
            {"type": "uniform_haar", "M": 2, "L": 2},
            {"type": "haar", "M": 2, "d": 3, "tdist": [[[1, 2], 0.5], [[2, 1], 0.5]]},
        ],
    )
    def test_roundtrip(self, desc, rng):
        # the built scheme has the descriptor's message count and dimension
        e = scheme_from_descriptor(desc)
        expected = {"bb84": (4, 4), "uniform_haar": (2, 4), "haar": (2, 3)}[desc["type"]]
        assert (e.message_count, e.cipher_dim) == expected
        assert check_correctness(e, e.sample_keys(rng, 5)) < 1e-9

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            scheme_from_descriptor({"type": "caesar"})


class TestPovm:
    def test_rejects_incomplete(self):
        with pytest.raises(InvalidOperator):
            Povm(dim=2, effects=(np.eye(2, dtype=complex) * 0.5,))

    def test_rejects_negative_effect(self):
        with pytest.raises(InvalidOperator):
            Povm(
                dim=2,
                effects=(np.diag([1.5, 1.0]).astype(complex), np.diag([-0.5, 0.0]).astype(complex)),
            )

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Povm(dim=3, effects=(np.eye(2, dtype=complex),))

    @pytest.mark.parametrize("low, ok", [(-2e-9, False), (-5e-10, True)])
    def test_effect_psd_threshold(self, low, ok):
        # the stacked check keeps the -TOL.effect_psd = -1e-9 threshold
        effects = (np.diag([1.0 - low, 0.5]).astype(complex), np.diag([low, 0.5]).astype(complex))
        if ok:
            Povm(dim=2, effects=effects)
        else:
            with pytest.raises(InvalidOperator):
                Povm(dim=2, effects=effects)

    @pytest.mark.parametrize("wrap", [tuple, list, np.array], ids=["tuple", "list", "array"])
    def test_effects_are_held_as_one_array(self, wrap):
        effects = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        povm = Povm(dim=2, effects=wrap(effects))
        assert isinstance(povm.effects, np.ndarray)
        assert povm.effects.shape == (2, 2, 2) and povm.effects.dtype == complex
        assert np.array_equal(povm.effects, effects)
        assert len(povm.effects) == 2


def _two_point_haar():
    tdist = RankDistribution(support=((1, 1, 4), (3, 2, 1)), probabilities=(0.5, 0.5))
    return haar_scheme(3, 6, tdist)


class TestFactor:
    @pytest.mark.parametrize(
        "make, closed_form",
        [
            (lambda: uniform_haar_scheme(4, 2), True),
            (_two_point_haar, True),
            (lambda: bb84_scheme(2), False),
            (lambda: padded_scheme(uniform_haar_scheme(2, 2), 6), False),
            (lambda: expurgate_scheme(uniform_haar_scheme(4, 1), 2, lambda key, m: 3 - m), False),
        ],
    )
    def test_factor_rebuilds_every_ciphertext(self, make, closed_form, rng):
        e = make()
        assert (e.factor_sampler is not None) == closed_form
        ranks_seen = set()
        for _ in range(8):
            key = e.key_sampler(rng)
            ranks_seen.add(getattr(key, "ranks", None))
            f, owner = e.factor(key)
            assert f.shape == (e.cipher_dim, owner.size)
            for m in range(e.message_count):
                cols = f[:, owner == m]
                assert np.max(np.abs(cols @ cols.conj().T - e.encrypt(key, m))) < 1e-12
        if make is _two_point_haar:
            assert ranks_seen == {(1, 1, 4), (3, 2, 1)}

    @pytest.mark.parametrize(
        "make",
        [
            lambda: uniform_haar_scheme(4, 2),
            _two_point_haar,
            lambda: bb84_scheme(2),
            lambda: expurgate_scheme(uniform_haar_scheme(4, 1), 2, lambda key, m: 3 - m),
            lambda: padded_scheme(uniform_haar_scheme(2, 2), 6),
        ],
        ids=["uniform_haar:4,2", "two_point_haar", "bb84:2", "expurgated", "padded"],
    )
    def test_ciphertexts_stack_every_encryption(self, make, rng):
        e = make()
        for _ in range(4):
            key = e.key_sampler(rng)
            stack = e.ciphertexts(key)
            assert stack.dtype == complex
            assert stack.shape == (e.message_count, e.cipher_dim, e.cipher_dim)
            for m in range(e.message_count):
                assert np.array_equal(stack[m], e.encrypt(key, m))

    def test_default_keeps_only_the_support(self):
        flat = QecmScheme(
            message_count=2,
            cipher_dim=3,
            key_sampler=lambda rng: 0,
            encrypt=lambda key, m: np.diag([1.0, 0.0, 0.0] if m == 0 else [0.0, 0.5, 0.5]).astype(complex),
            decrypt_povm=lambda key: None,
        )
        f, owner = flat.factor(0)
        assert f.shape == (3, 3) and list(owner) == [0, 1, 1]
