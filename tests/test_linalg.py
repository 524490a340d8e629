import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from uncloneq import linalg
from uncloneq.attacks import measure_share_attack, superposition_cloner
from uncloneq.errors import DimensionMismatch, InvalidOperator, NotHermitian
from uncloneq.linalg import (
    KrausChannel,
    apply_channel,
    dagger,
    haar_unitary,
    herm_eig,
    joint_expectation,
    lane_estimate,
    make_rng,
)

from conftest import rand_hermitian, rand_density
from oracles import assert_density_operator, assert_unitary

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
KET0 = np.array([1, 0], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


class TestHermEig:
    def test_diagonal(self):
        w, _ = herm_eig(np.diag([0.25, 0.75]).astype(complex))
        assert np.allclose(w, [0.75, 0.25])

    def test_plus_projector(self):
        w, v = herm_eig(np.outer(PLUS, PLUS))
        assert np.allclose(w, [1.0, 0.0])
        # top eigenvector equals |+> up to a global phase
        overlap = abs(np.vdot(PLUS, v[:, 0]))
        assert abs(overlap - 1.0) < 1e-12

    def test_zero_matrix(self):
        w, _ = herm_eig(np.zeros((3, 3), dtype=complex))
        assert np.allclose(w, 0.0)

    def test_reconstruction_random(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 17))
            h = rand_hermitian(d, rng)
            w, v = herm_eig(h)
            assert np.all(np.diff(w) <= 1e-12)
            recon = (v * w) @ dagger(v)
            assert np.max(np.abs(h - recon)) < 1e-9
            assert np.max(np.abs(dagger(v) @ v - np.eye(d))) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_stack_matches_each_slice(self, rng):
        hs = np.stack([rand_hermitian(4, rng) for _ in range(5)])
        w, v = herm_eig(hs)
        for h, ws, vs in zip(hs, w, v):
            w1, v1 = herm_eig(h)
            assert np.array_equal(ws, w1) and np.array_equal(vs, v1)

    def test_stack_checks_every_slice(self, rng):
        hs = np.stack([rand_hermitian(3, rng) for _ in range(4)])
        hs[2, 0, 1] += 1e-6
        with pytest.raises(NotHermitian):
            herm_eig(hs)


class TestHaarUnitary:
    def test_dim_one_is_phase(self, rng):
        u = haar_unitary(1, rng)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitarity(self, rng):
        for d in (2, 3, 5, 8):
            assert_unitary(haar_unitary(d, rng))

    def test_twirl_of_projector_is_maximally_mixed(self, rng):
        d, n = 4, 10_000
        proj = np.zeros((d, d), dtype=complex)
        proj[0, 0] = 1.0
        acc = np.zeros((d, d), dtype=complex)
        for _ in range(n):
            u = haar_unitary(d, rng)
            acc += u @ proj @ dagger(u)
        assert np.max(np.abs(acc / n - np.eye(d) / d)) < 0.02

    def test_matrix_element_moment(self):
        # E|<0|U|0>|^2 = 1/d; Beta(1, d-1) variance gives the MC error bar
        d, n = 4, 100_000
        gen = make_rng(99)
        vals = np.empty(n)
        for i in range(n):
            vals[i] = abs(haar_unitary(d, gen)[0, 0]) ** 2
        stderr = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.0 / d) < 3 * stderr

    def test_distinct_seeds_distinct_outputs(self):
        u1 = haar_unitary(3, make_rng(1))
        u2 = haar_unitary(3, make_rng(2))
        assert np.max(np.abs(u1 - u2)) > 1e-3

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16, 33])
    def test_stack_of_one_is_the_single_draw(self, d):
        for seed in range(3):
            single = haar_unitary(d, make_rng(seed))
            assert np.array_equal(single, haar_unitary(d, make_rng(seed), 1)[0])

    def test_stacked_draws_are_unitary_and_distinct(self, rng):
        us = haar_unitary(5, rng, 6)
        assert us.shape == (6, 5, 5)
        for u in us:
            assert_unitary(u)
        assert np.max(np.abs(us[0] - us[1])) > 1e-3


class TestPartialTrace:
    def test_post_query_counterexample_marginal(self):
        from uncloneq import o2h

        psi = o2h.build_counterexample_state()
        oracle = o2h.oracle_unitary(1, 0)
        psi1 = np.kron(oracle, oracle) @ psi
        # the first register's marginal: trace out the second 4-dim factor
        marg = np.einsum("ijkj->ik", np.outer(psi1, psi1.conj()).reshape(4, 4, 4, 4))
        evals = np.linalg.eigvalsh(marg)
        assert abs(np.trace(marg).real - 1.0) < 1e-12
        assert np.sum(evals > 1e-12) == 2


def _random_channel(d_out: int, d_in: int, n_kraus: int, rng) -> KrausChannel:
    # isometry columns from a QR split give a valid Kraus set
    g = rng.standard_normal((d_out * n_kraus, d_in)) + 1j * rng.standard_normal(
        (d_out * n_kraus, d_in)
    )
    q, _ = np.linalg.qr(g)
    ops = tuple(q[i * d_out : (i + 1) * d_out, :] for i in range(n_kraus))
    return KrausChannel(d_in, d_out, ops)


def _random_rank_one(d_out: int, d_in: int, n_kraus: int, rng) -> tuple[KrausChannel, list]:
    # K_j = |a_j><b_j| with unit a_j and the b_j the columns of a co-isometry,
    # so sum_j K_j† K_j = sum_j |b_j><b_j| = I; returned with its dense operators
    n = n_kraus * d_in
    q, _ = np.linalg.qr(rng.standard_normal((n, d_in)) + 1j * rng.standard_normal((n, d_in)))
    b = q.conj()
    a = rng.standard_normal((n, d_out)) + 1j * rng.standard_normal((n, d_out))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    ch = KrausChannel(d_in, d_out, left=a[:, :, None], right=b[:, :, None])
    return ch, [np.outer(a[j], b[j].conj()) for j in range(n)]


class TestChannels:
    def test_identity_channel(self, rng):
        ch = KrausChannel(2, 2, (np.eye(2, dtype=complex),))
        rho = rand_density(2, rng)
        assert np.allclose(apply_channel(ch, rho), rho)

    def test_superposition_cloner_on_scalar_input(self):
        from uncloneq.attacks import superposition_cloner

        ch = superposition_cloner(1)
        out = apply_channel(ch, np.eye(1, dtype=complex))
        target = np.zeros(4, dtype=complex)
        target[1] = target[2] = 1 / np.sqrt(2)  # (|0 bot> + |bot 0>)/sqrt(2)
        assert np.max(np.abs(out - np.outer(target, target.conj()))) < 1e-12

    def test_measure_share_on_maximally_mixed(self):
        from uncloneq.attacks import measure_share_attack

        d = 3
        ch = measure_share_attack(d, np.eye(d, dtype=complex))
        out = apply_channel(ch, np.eye(d, dtype=complex) / d)
        target = np.zeros((9, 9), dtype=complex)
        for i in range(d):
            target[i * d + i, i * d + i] = 1 / d
        assert np.max(np.abs(out - target)) < 1e-12

    def test_trace_and_psd_preserved(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            ch = _random_channel(d, d, int(rng.integers(1, 4)), rng)
            out = apply_channel(ch, rand_density(d, rng))
            assert abs(np.trace(out).real - 1.0) < 1e-9
            assert np.linalg.eigvalsh(out)[0] > -1e-9

    def test_incomplete_kraus_rejected(self):
        with pytest.raises(InvalidOperator):
            KrausChannel(2, 2, (np.eye(2, dtype=complex) * 0.5,))
        with pytest.raises(InvalidOperator):
            KrausChannel(2, 2, left=np.ones((1, 2, 1)), right=np.ones((1, 2, 1)))

    def test_incomplete_sparse_kraus_rejected(self):
        # the check runs on the cloner's support rows only, with the same bound and message
        short = superposition_cloner(4).left * 0.99
        with pytest.raises(InvalidOperator, match="Kraus completeness deviation"):
            KrausChannel(4, 25, short)

    def test_rank_one_matches_dense_kraus_sum(self, rng):
        for d_out, d_in in ((4, 2), (9, 3), (3, 5)):
            ch, ops = _random_rank_one(d_out, d_in, 2, rng)
            rho = rand_density(d_in, rng)
            dense = sum(k @ rho @ dagger(k) for k in ops)
            assert np.max(np.abs(apply_channel(ch, rho) - dense)) < 1e-12
            assert ch.left.shape == (2 * d_in, d_out, 1)

    def test_stack_of_states_matches_each_state(self, rng):
        ch = _random_channel(2, 3, 2, rng)
        rho = np.array([[rand_density(3, rng) for _ in range(4)] for _ in range(2)])
        out = apply_channel(ch, rho)
        assert out.shape == (2, 4, 2, 2)
        for i in range(2):
            for j in range(4):
                assert np.array_equal(out[i, j], apply_channel(ch, rho[i, j]))
        with pytest.raises(DimensionMismatch):
            apply_channel(ch, rho[..., :2])


def _dense_joint_expectation(effects, kraus_ops, rho) -> float:
    # reference route: Kronecker product of the effects against the full output
    joint = effects[0]
    for eff in effects[1:]:
        joint = np.kron(joint, eff)
    out = sum(k @ rho @ dagger(k) for k in kraus_ops)
    return float(np.trace(joint @ out).real)


def _joint(effects, ch: KrausChannel, rho) -> float:
    # the stacked kernel on a stack of one problem
    sigma = ch.compress(rho[None])
    return float(joint_expectation([e[None] for e in effects], ch.left, sigma)[0])


def _rank_one_on(rows, d_out: int, d_in: int, n_kraus: int, rng) -> tuple[KrausChannel, list]:
    # _random_rank_one with every left factor supported on the given output rows only
    ch, _ = _random_rank_one(len(rows), d_in, n_kraus, rng)
    left = np.zeros((len(ch.left), d_out, 1), dtype=complex)
    left[:, rows] = ch.left
    return _with_dense_ops(KrausChannel(d_in, d_out, left=left, right=ch.right))


def _with_dense_ops(ch: KrausChannel) -> tuple[KrausChannel, list]:
    return ch, [lf @ dagger(rf) for lf, rf in zip(ch.left, ch.right)]


def _assert_matches_dense(ch: KrausChannel, kraus, dims, rng) -> None:
    for _ in range(4):
        effects = [rand_density(d, rng) for d in dims]  # complex, not symmetric
        rho = rand_density(ch.in_dim, rng)
        value = _joint(effects, ch, rho)
        assert abs(value - _dense_joint_expectation(effects, kraus, rho)) < 1e-12


class TestJointExpectation:
    @pytest.mark.parametrize("dims", [(5,), (2, 3), (3, 2, 4)])
    @pytest.mark.parametrize("n_kraus", [1, 3])
    def test_matches_dense_route(self, dims, n_kraus, rng):
        d_out = int(np.prod(dims))
        for d_in in (1, 3, 4):
            dense = _random_channel(d_out, d_in, n_kraus, rng)
            rank_one = _random_rank_one(d_out, d_in, n_kraus, rng)
            for ch, kraus in ((dense, dense.left), rank_one):  # dense: right = I
                for _ in range(5):
                    effects = [rand_density(d, rng) for d in dims]  # PSD, norm <= 1
                    rho = rand_density(d_in, rng)
                    value = _joint(effects, ch, rho)
                    assert abs(value - _dense_joint_expectation(effects, kraus, rho)) < 1e-12

    def test_stacked_problems_in_any_chunking(self, rng, monkeypatch):
        # each problem has its own effects and state; chunks of one give the same values
        ch, kraus = _random_rank_one(6, 3, 2, rng)
        effects = [np.stack([rand_density(d, rng) for _ in range(5)]) for d in (2, 3)]
        rhos = np.stack([rand_density(3, rng) for _ in range(5)])
        values = joint_expectation(effects, ch.left, ch.compress(rhos))
        for p in range(5):
            expected = _dense_joint_expectation([e[p] for e in effects], kraus, rhos[p])
            assert abs(values[p] - expected) < 1e-12
        monkeypatch.setattr(linalg, "_KERNEL_ENTRIES", 1)
        chunked = joint_expectation(effects, ch.left, ch.compress(rhos))
        assert np.max(np.abs(chunked - values)) < 1e-15

    def test_dimension_mismatch(self, rng):
        ch = _random_channel(6, 2, 1, rng)
        with pytest.raises(DimensionMismatch):
            _joint([np.eye(2), np.eye(2)], ch, rand_density(2, rng))

    @pytest.mark.parametrize("rows", [5, 1, 3])
    def test_effect_stack_of_another_length_is_refused(self, rows, rng):
        # a longer stack is not cut, a single row not broadcast, a shorter one not misread
        ch, _ = _random_rank_one(6, 3, 2, rng)
        sigma = ch.compress(np.stack([rand_density(3, rng) for _ in range(4)]))
        effects = [np.stack([rand_density(d, rng) for _ in range(rows)]) for d in (2, 3)]
        with pytest.raises(DimensionMismatch, match=r"\(%d, 2, 2\).*\(4, 6, 1, 1\)" % rows):
            joint_expectation(effects, ch.left, sigma)

    def test_inner_operators_of_another_shape_are_refused(self, rng):
        # (4, 1, 6, 1) holds as many entries as (4, 6, 1, 1) but is not n = 6 operators
        ch, _ = _random_rank_one(6, 3, 2, rng)
        sigma = ch.compress(np.stack([rand_density(3, rng) for _ in range(4)]))
        effects = [np.stack([rand_density(d, rng) for _ in range(4)]) for d in (2, 3)]
        with pytest.raises(DimensionMismatch, match=r"\(4, 1, 6, 1\).*\(\.\.\., 6, 1, 1\)"):
            joint_expectation(effects, ch.left, np.swapaxes(sigma, 1, 2))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_superposition_cloner(self, d, rng):
        _assert_matches_dense(*_with_dense_ops(superposition_cloner(d)), (d + 1, d + 1), rng)

    def test_measure_share_in_a_random_basis(self, rng):
        ch = measure_share_attack(4, haar_unitary(4, rng))
        _assert_matches_dense(*_with_dense_ops(ch), (4, 4), rng)

    def test_single_row_support(self, rng):
        _assert_matches_dense(*_rank_one_on([4], 6, 3, 2, rng), (2, 3), rng)

    def test_support_with_interior_holes(self, rng):
        _assert_matches_dense(*_rank_one_on([0, 2, 3, 5], 6, 3, 2, rng), (2, 3), rng)

    def test_zero_kraus_operator_next_to_nonzero_ones(self, rng):
        ch, _ = _rank_one_on([1, 4], 6, 3, 2, rng)
        left = np.concatenate([np.zeros((1, 6, 1)), ch.left])
        right = np.concatenate([np.ones((1, 3, 1)), ch.right])
        zero_first = KrausChannel(3, 6, left=left, right=right)
        _assert_matches_dense(*_with_dense_ops(zero_first), (2, 3), rng)

    def test_three_tensor_factors(self, rng):
        _assert_matches_dense(*_rank_one_on([1, 5, 6, 10], 12, 3, 2, rng), (2, 3, 2), rng)

    def test_empty_support_gives_zero(self, rng):
        effects = [np.stack([rand_density(d, rng) for _ in range(3)]) for d in (2, 3)]
        sigma = np.stack([rand_density(1, rng)[None] for _ in range(3)]).repeat(2, axis=1)
        values = joint_expectation(effects, np.zeros((2, 6, 1)), sigma)
        assert values.shape == (3,) and np.all(values == 0.0)

    def test_chunking_does_not_move_values(self, rng, monkeypatch):
        ch = superposition_cloner(3)
        effects = [np.stack([rand_density(4, rng) for _ in range(5)]) for _ in range(2)]
        sigma = ch.compress(np.stack([rand_density(3, rng) for _ in range(5)]))
        values = joint_expectation(effects, ch.left, sigma)
        monkeypatch.setattr(linalg, "_KERNEL_ENTRIES", 1)
        chunked = joint_expectation(effects, ch.left, sigma)
        assert np.max(np.abs(chunked - values)) < 1e-15

    def test_no_full_output_intermediate(self, rng):
        # the d = 64 cloner reaches 128 of its 4225 output rows; one problem's
        # (4225 x 64) product with its inner operator alone would take 4.3 MB
        ch = superposition_cloner(64)
        effects = [rand_density(65, rng)[None] for _ in range(2)]
        sigma = ch.compress(rand_density(64, rng)[None])
        tracemalloc.start()
        try:
            joint_expectation(effects, ch.left, sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestReproducibility:
    def test_same_seed_same_bytes(self):
        a = haar_unitary(5, make_rng(1234))
        b = haar_unitary(5, make_rng(1234))
        assert a.tobytes() == b.tobytes()

    def test_streams_are_independent(self):
        a = haar_unitary(4, make_rng(5, stream=0))
        b = haar_unitary(4, make_rng(5, stream=1))
        assert np.max(np.abs(a - b)) > 1e-3


class TestLaneMap:
    @pytest.mark.parametrize("trials", [1, 2, 7])
    def test_lanes_get_spawned_streams_and_contiguous_shares(self, trials):
        got = linalg._lane_map(lambda gen, share: (share, gen.random()), make_rng(3), trials)
        shares = [trials * (j + 1) // 2 - trials * j // 2 for j in range(2)]
        want = [
            (share, gen.random())
            for share, gen in zip(shares, make_rng(3).spawn(2))
            if share
        ]
        assert linalg._LANES == 2
        assert got == want

    @pytest.mark.parametrize("cpus, on_caller", [(1, [True, True]), (2, [True, False])])
    def test_first_lane_runs_on_the_caller(self, cpus, on_caller, monkeypatch):
        monkeypatch.setattr(linalg, "_cpu_count", lambda: cpus)
        caller = threading.get_ident()
        got = linalg._lane_map(lambda gen, share: threading.get_ident() == caller, make_rng(3), 4)
        assert got == on_caller

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("failing", [0, 1])
    def test_lane_exception_reaches_the_caller_after_the_join(self, cpus, failing, monkeypatch):
        # with 3 trials lane 0 has a share of 1 and lane 1 a share of 2
        monkeypatch.setattr(linalg, "_cpu_count", lambda: cpus)
        finished = []

        def fn(gen, share):
            if share - 1 == failing:
                raise RuntimeError(f"lane {failing}")
            time.sleep(0.05)
            finished.append(share)

        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"lane {failing}"):
            linalg._lane_map(fn, make_rng(3), 3)
        assert finished == [2 - failing]
        assert threading.active_count() == before


def _two_reads(gen, c):
    # reads its stream chunk by chunk, so a replay must chunk the same way
    return gen.random(c) + gen.standard_normal(c) ** 2


class TestLaneEstimate:
    @pytest.mark.parametrize(
        "trials, chunk, chunks",
        [
            (1, 100, [[], [1]]),  # the first lane's share, 1 // 2, is empty
            (7, 100, [[3], [4]]),
            (7, 1, [[1] * 3, [1] * 4]),
            (7, 0, [[1] * 3, [1] * 4]),  # a chunk holds at least one trial
            (11, 4, [[4, 1], [4, 2]]),  # shares of 5 and 6 split unevenly
        ],
    )
    def test_matches_a_replay_of_the_spawned_lanes(self, trials, chunk, chunks):
        calls = []

        def draw(gen, c):
            calls.append(c)
            return _two_reads(gen, c)

        mean, stderr = lane_estimate(draw, make_rng(8), trials, chunk)
        assert sorted(calls) == sorted(c for lane in chunks for c in lane)
        vals = np.concatenate(
            [_two_reads(gen, c) for gen, lane in zip(make_rng(8).spawn(2), chunks) for c in lane]
        )
        assert abs(mean - vals.mean()) < 1e-12
        if trials == 1:
            assert stderr == 0.0
        else:
            assert abs(stderr - vals.std(ddof=1) / math.sqrt(trials)) < 1e-12


class TestValidators:
    def test_density_operator_checks(self, rng):
        assert_density_operator(rand_density(4, rng))
        with pytest.raises(InvalidOperator):
            assert_density_operator(np.diag([0.6, 0.6]).astype(complex))
        with pytest.raises(InvalidOperator):
            assert_density_operator(np.diag([1.5, -0.5]).astype(complex))

    def test_projector_checks(self):
        linalg.assert_projector(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(InvalidOperator):
            linalg.assert_projector(np.diag([0.5, 0.0]).astype(complex))

    def test_rejects_nonfinite(self):
        bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        with pytest.raises(InvalidOperator):
            linalg.assert_hermitian(bad)
