import contextlib
import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from uncloneq.attacks import (
    projector_cloning_attack,
    receiver_dim,
    measure_share_attack,
    optimal_decode_for_measure_share,
    superposition_cloner,
)
from uncloneq import optimize
from uncloneq.cli import _mean_stderr, main
from uncloneq.errors import CrossCheckFailed, DimensionMismatch, InvalidOperator, NotHermitian
from uncloneq.linalg import KrausChannel, apply_channel, dagger, haar_unitary, herm_eig, make_rng
from uncloneq.optimize import discriminate, pwin_unif_seesaw
from uncloneq.schemes import bb84_scheme, uniform_haar_scheme, validate_effects

from conftest import constant_map, rand_density
from oracles import brute_force_pguess_qubit, random_projective_povm, seesaw_run

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


class TestHelstrom:
    def test_orthogonal_pure(self):
        res = discriminate([0.5 * KET0, 0.5 * KET1])
        assert abs(res.value - 1.0) < 1e-12

    def test_identical_states(self, rng):
        rho = rand_density(3, rng)
        res = discriminate([0.3 * rho, 0.7 * rho])
        assert abs(res.value - 0.7) < 1e-12

    def test_zero_versus_plus(self):
        res = discriminate([0.5 * KET0, 0.5 * PLUS])
        target = 0.5 + 0.5 / math.sqrt(2)
        assert abs(res.value - target) < 1e-12
        achieved = 0.5 * np.trace(res.effects[0] @ KET0).real + 0.5 * np.trace(
            res.effects[1] @ PLUS
        ).real
        assert abs(achieved - target) < 1e-10

    def test_unitary_conjugation_invariance(self, rng):
        for _ in range(10):
            rho0, rho1 = rand_density(3, rng), rand_density(3, rng)
            p = float(rng.random())
            u = haar_unitary(3, rng)
            v0 = discriminate([p * rho0, (1 - p) * rho1]).value
            v1 = discriminate(
                [p * u @ rho0 @ dagger(u), (1 - p) * u @ rho1 @ dagger(u)]
            ).value
            assert abs(v0 - v1) < 1e-10

    def test_unachieved_value_is_cross_check_failure(self, monkeypatch):
        # a trace-norm value the projector does not reach is an invariant failure
        def shifted_eig(h):
            w, v = herm_eig(h)
            return w + np.eye(w.shape[-1])[0] * 1e-6, v

        monkeypatch.setattr(optimize, "herm_eig", shifted_eig)
        with pytest.raises(CrossCheckFailed):
            discriminate([0.5 * KET0, 0.5 * PLUS])

    def test_single_outcome_is_identity(self, rng):
        rho = rand_density(3, rng)
        res = discriminate([rho])
        assert abs(res.value - 1.0) < 1e-12
        assert np.array_equal(res.effects[0], np.eye(3))


class TestDiscriminationFixedPoint:
    def test_matches_helstrom_on_qubit_pairs(self, rng):
        # the closed form against the fixed point started from the PGM
        for _ in range(20):
            rho0, rho1 = rand_density(2, rng), rand_density(2, rng)
            p = float(rng.random())
            gs = [p * rho0, (1 - p) * rho1]
            hv = discriminate(gs).value
            stack = np.array(gs)[None]
            fv = optimize._fixed_point(stack, optimize._pgm(stack))[0][0]
            assert abs(hv - fv) < 1e-6

    def test_three_orthogonal_pure_states(self):
        states = [np.zeros((3, 3), dtype=complex) for _ in range(3)]
        for i in range(3):
            states[i][i, i] = 1.0
        res = discriminate([s / 3 for s in states])
        assert abs(res.value - 1.0) < 1e-9
        assert res.converged

    def test_identical_states_floor(self, rng):
        rho = rand_density(3, rng)
        res = discriminate([rho / 3] * 3)
        assert abs(res.value - 1 / 3) < 1e-9

    def test_floor_replaces_a_stuck_iteration(self, rng):
        # started on the least likely label, the iteration never leaves it
        rho = rand_density(3, rng)
        zero = np.zeros((3, 3), dtype=complex)
        res = discriminate([0.6 * rho, 0.2 * rho, 0.2 * rho], init=[zero, np.eye(3), zero])
        assert abs(res.value - 0.6) < 1e-12
        assert np.array_equal(res.effects[0], np.eye(3))
        assert res.converged

    def test_povm_valid_after_each_iteration(self, rng, monkeypatch):
        gs = [0.25 * rand_density(3, rng) for _ in range(4)]
        for iters in (1, 2, 5, 25):
            monkeypatch.setattr(optimize, "_FP_ITERS", iters)
            res = discriminate(gs)
            validate_effects(res.effects)

    def test_stacked_problems_each_get_their_solo_result(self, monkeypatch):
        # a kernel folded in by QR, a one-sweep convergence and a constant-guess
        # floor, solved as one stack, each equal to discriminate on its own
        rng = make_rng(9)
        support = haar_unitary(6, rng)[:, :4]
        low_rank = [p * support @ rand_density(4, rng) @ dagger(support) for p in (0.5, 0.3, 0.2)]
        rho = rand_density(6, rng)
        blocks = [np.diag(np.repeat(np.eye(3)[x], 2)).astype(complex) for x in range(3)]
        zero = np.zeros((6, 6), dtype=complex)
        problems = [
            (low_rank, random_projective_povm(6, 3, rng)),
            ([b / 6 for b in blocks], blocks),
            ([0.6 * rho, 0.2 * rho, 0.2 * rho], [zero, np.eye(6), zero]),
        ]
        # the rows each QR fold runs on: only the first problem has a kernel
        folded, qr = [], np.linalg.qr

        def record(a, mode="reduced"):
            folded.append(len(a))
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", record)
        vals, effects, converged = optimize._discriminate(
            np.array([gs for gs, _ in problems]), np.array([init for _, init in problems])
        )
        monkeypatch.setattr(np.linalg, "qr", qr)
        assert folded and set(folded) == {1}
        for i, (gs, init) in enumerate(problems):
            solo = discriminate(gs, init)
            assert vals[i] == solo.value
            assert np.array_equal(effects[i], solo.effects)
            assert converged[i] == solo.converged
        assert converged[1:].tolist() == [True, True]
        assert vals[1] == pytest.approx(1.0, abs=1e-12) and vals[2] == pytest.approx(0.6, abs=1e-12)

    def test_start_of_another_shape_is_refused(self):
        gs = [np.eye(3, dtype=complex) / 9] * 3
        with pytest.raises(DimensionMismatch):
            discriminate(gs, init=[np.eye(3), np.zeros((3, 3))])

    def test_start_that_is_not_a_povm_is_refused(self):
        gs = [np.eye(3, dtype=complex) / 9] * 3
        with pytest.raises(InvalidOperator):
            discriminate(gs, init=[2 * np.eye(3), -np.eye(3), np.zeros((3, 3))])

    def test_value_at_least_best_prior(self, rng):
        for _ in range(10):
            probs = rng.dirichlet(np.ones(3))
            res = discriminate([float(p) * rand_density(4, rng) for p in probs])
            assert res.value >= max(probs) - 1e-9


def _inv_sqrt_and_kernel(b):
    # T^-1/2 from a dense eigh of T = sum_x b_x b_x†, and its eigenvectors' kernel columns
    t = (b @ dagger(b)).sum(axis=1)
    w, v = np.linalg.eigh((t + dagger(t)) / 2)
    keep = w > optimize._KERNEL_CUTOFF * w.sum(axis=1, keepdims=True)
    inv = (v * np.where(keep, 1 / np.sqrt(np.where(keep, w, 1.0)), 0.0)[:, None]) @ dagger(v)
    return inv, v * ~keep[:, None]


def _oracle_effects(b, g):
    # T^-1/2 X_x T^-1/2, the kernel projector added to the outcome whose G_x it scores highest
    inv, kernel = _inv_sqrt_and_kernel(b)
    effects = inv[:, None] @ b @ dagger(b) @ inv[:, None]
    proj = kernel @ dagger(kernel)
    best = np.argmax(np.einsum("pab,pxba->px", proj, g).real, axis=1)
    effects[np.arange(len(b)), best] += proj
    return effects


def _dense_order_step(b, g):
    # the step in another product order: T^-1/2 from a dense eigh, applied to each b_x
    inv, kernel = _inv_sqrt_and_kernel(b)
    out = inv[:, None] @ b
    for i in np.flatnonzero(np.abs(kernel).sum(axis=(1, 2)) > 0):
        x = np.argmax(np.einsum("ab,xba->x", kernel[i] @ dagger(kernel[i]), g[i]).real)
        joined = np.concatenate([out[i, x], kernel[i]], axis=-1)
        out[i, x] = dagger(np.linalg.qr(dagger(joined), mode="r"))
    return out


def _report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return np.array([[float(row["value"]), float(row["stderr"])]
                     for row in csv.DictReader(io.StringIO(out.getvalue()))])


class TestSqrtMeasurement:
    """The square-root measurement step against a dense eigh oracle."""

    def _check(self, b, g, expected=None):
        a = optimize._sqrt_measurement(b, g)
        effects = a @ dagger(a)
        assert np.max(np.abs(effects - _oracle_effects(b, g))) < 1e-12
        assert np.max(np.abs(effects.sum(axis=1) - np.eye(b.shape[-1]))) < 1e-12
        if expected is not None:
            assert np.max(np.abs(effects - expected)) < 1e-12

    def test_maximally_mixed(self):
        # the d rows of a Haar unitary, one d-column block per outcome: T = I / d
        d, n = 3, 3
        rows = haar_unitary(n * d, make_rng(2))[:d] / np.sqrt(d)
        b = np.moveaxis(rows.reshape(d, n, d), 1, 0)[None]
        g = np.stack([np.eye(d, dtype=complex) / n] * n)[None]
        self._check(b, g, d * b @ dagger(b))

    def test_rank_deficient_diagonal(self):
        # T = diag(1/2, 1/2, 0): its kernel joins the outcome whose G_x lives there
        b = np.zeros((1, 3, 3, 3), dtype=complex)
        b[0, 0, 0, 0] = b[0, 1, 1, 1] = np.sqrt(0.5)
        g = np.array([[np.diag([0.5, 0, 0.1]), np.diag([0, 0.3, 0]), np.diag([0, 0, 0.4])]])
        self._check(b, g.astype(complex), np.eye(3)[None, :, None] * np.eye(3)[None, :, :, None])

    def test_rank_one_plus(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        minus = np.eye(2) - plus
        b = np.zeros((1, 2, 2, 2), dtype=complex)
        b[0, 0, :, 0] = np.sqrt(0.5)
        g = np.array([[plus / 2, minus / 2]])
        self._check(b, g, np.array([[plus, minus]]))

    def test_stack_matches_each_slice(self, rng):
        # problems with and without a kernel, stacked: each equals its solo run bit for bit
        iso = haar_unitary(3, rng)[:, :2]
        full = np.stack([rand_density(3, rng) / 3 for _ in range(3)])
        low = np.stack([iso @ rand_density(2, rng) @ dagger(iso) / 3 for _ in range(3)])
        g = np.stack([full, low, full[::-1]])
        b = optimize._factors(g)
        self._check(b, g)
        out = optimize._sqrt_measurement(b, g)
        for i in range(len(g)):
            assert np.array_equal(out[i], optimize._sqrt_measurement(b[i : i + 1], g[i : i + 1])[0])

    @pytest.mark.parametrize("seed", ["17", "644865884"])
    def test_every_iterate_is_a_povm(self, seed, monkeypatch):
        # the measure-and-share argv whose fixed point once stopped on a non-PSD iterate
        step, lows, devs = optimize._sqrt_measurement, [], []

        def record(b, g):
            a = step(b, g)
            effects = a @ dagger(a)
            lows.append(np.linalg.eigvalsh(effects).min())
            devs.append(np.abs(effects.sum(axis=1) - np.eye(b.shape[-1])).max())
            return a

        monkeypatch.setattr(optimize, "_sqrt_measurement", record)
        _report(["seesaw", "--scheme", "uniform_haar:3,2", "--channel", "measure_share",
                 "--trials", "6", "--seed", seed])
        assert lows and min(lows) >= -1e-12 and max(devs) <= 1e-12

    @pytest.mark.parametrize(
        "argv",
        [
            ["seesaw", "--scheme", "haar:2-1-1", "--channel", "cloner", "--trials", "3",
             "--seed", "119"],
            ["conjecture-scan", "--M", "3", "--d", "6", "--trials", "3", "--seed", "17"],
            ["conjecture-scan", "--M", "3", "--d", "6", "--trials", "3", "--seed", "125"],
        ],
        ids=["haar-2-1-1-seed-119", "scan-M3-d6-seed-17", "scan-M3-d6-seed-125"],
    )
    def test_report_does_not_depend_on_the_product_order(self, argv, monkeypatch):
        values = _report(argv)
        monkeypatch.setattr(optimize, "_sqrt_measurement", _dense_order_step)
        assert np.max(np.abs(_report(argv) - values)) < 1e-10


def _random_qubit_pair(rng) -> tuple[np.ndarray, np.ndarray]:
    return rand_density(4, rng), rand_density(4, rng)


def _identity_to_bob(d: int) -> KrausChannel:
    # Bob keeps the d-dimensional input, Charlie gets |0>
    ket0 = np.eye(d, 1, dtype=complex)
    return KrausChannel(d, d * d, (np.kron(np.eye(d, dtype=complex), ket0),))


class TestSeesaw:
    def test_perfectly_distinguishable_product(self):
        s0 = np.kron(KET0, KET0)
        s1 = np.kron(KET1, KET1)
        assert abs(seesaw_run([s0, s1], make_rng(0), 1).value - 1.0) < 1e-9

    def test_cloner_ensemble_with_warm_start(self):
        e = bb84_scheme(1)
        key = e.enumerate_keys()[0]
        atk = projector_cloning_attack(e)
        (value,) = pwin_unif_seesaw(
            e, atk.channel, [key], [make_rng(1)], 2, warm_start=atk.bob_effects
        )
        assert value >= 9 / 16 - 1e-6

    def test_uninformative_charlie_floor(self, rng):
        # Bob holds a copy of the label, Charlie sees nothing: floor is 1/2
        sigma = rand_density(2, rng)
        pair = [np.kron(KET0, sigma), np.kron(KET1, sigma)]
        assert seesaw_run(pair, make_rng(2), 2).value >= 0.5 - 1e-9

    def test_trajectory_monotone_and_bounded(self, rng):
        for i in range(20):
            res = seesaw_run(_random_qubit_pair(rng), make_rng(1000 + i), 3)
            diffs = np.diff(res.trajectory)
            assert np.all(diffs >= -1e-10)
            assert res.value == res.trajectory[-1]
            assert 0.5 - 1e-9 <= res.value <= 1 + 1e-9
            assert res.iterations_used == len(res.trajectory)

    def test_warm_start_dimension_checked(self, rng):
        # a warm map whose effects are not Charlie's side is refused by receiver_effects
        e = uniform_haar_scheme(2, 1)
        ch = measure_share_attack(2, np.eye(2, dtype=complex))
        bad = constant_map((np.eye(3, dtype=complex), np.zeros((3, 3), complex)))
        with pytest.raises(DimensionMismatch):
            pwin_unif_seesaw(e, ch, e.sample_keys(rng, 2), [make_rng(1)] * 2, 1, warm_start=bad)

    def test_config_validation(self):
        e = uniform_haar_scheme(2, 1)
        ch = superposition_cloner(2)
        keys = e.sample_keys(make_rng(0), 2)
        with pytest.raises(ValueError, match="restarts"):
            pwin_unif_seesaw(e, ch, keys, [make_rng(0)] * 2, 0)
        # a generator short of the keys would leave a key without restarts
        with pytest.raises(ValueError, match="one generator per key"):
            pwin_unif_seesaw(e, ch, keys, [make_rng(0)], 1)

    def test_starts_are_warm_then_constant_guess_then_restarts(self):
        # the constant guess is message 0, which pins a start's value to at least 1/M
        rng = make_rng(3)
        warm = np.array([random_projective_povm(3, 4, rng) for _ in range(2)])
        starts = optimize._starts(4, 3, warm, [make_rng(4)] * 2, 3)
        assert starts.shape == (2, 5, 4, 3, 3)
        assert np.array_equal(starts[:, 0], warm)
        assert np.array_equal(starts[:, 1, 0], np.broadcast_to(np.eye(3), (2, 3, 3)))
        assert not starts[:, 1, 1:].any()
        # one batch of restarts reads the generator key by key, as one Haar draw per restart does
        oracle = make_rng(4)
        for k in range(2):
            for t in range(2, 5):
                assert np.array_equal(starts[k, t], random_projective_povm(3, 4, oracle))
        for start in starts.reshape(-1, 4, 3, 3):
            validate_effects(start)


class TestPwinUnifSeesaw:
    def test_bb84_cloner_reaches_lemma_value(self):
        e = bb84_scheme(1)
        keys = e.enumerate_keys()
        atk = projector_cloning_attack(e)

        def warm(stack):
            return atk.bob_effects(stack)

        mean, stderr = _mean_stderr(
            pwin_unif_seesaw(
                e, superposition_cloner(2), keys, [make_rng(3)] * len(keys), 1, warm_start=warm
            )
        )
        assert mean >= 9 / 16 - 3 * stderr - 1e-9

    def test_measure_share_matches_classical_decode(self, rng):
        e = uniform_haar_scheme(2, 1)
        keys = [e.key_sampler(rng) for _ in range(3)]
        basis = np.eye(2, dtype=complex)
        ch = measure_share_attack(2, basis)

        def warm(stack):
            return optimal_decode_for_measure_share(stack, basis)[0]

        mean = pwin_unif_seesaw(e, ch, keys, [make_rng(4)] * 3, 2, warm_start=warm).mean()
        classical = float(
            np.mean(optimal_decode_for_measure_share(e.ciphertext_stack(keys), basis)[1])
        )
        assert abs(mean - classical) < 1e-6

    @pytest.mark.parametrize("channel", ["cloner", "measure_share"])
    def test_lockstep_equals_keys_in_sequence(self, channel):
        # five Haar keys as one stack give the per-key seesaw values in sequence
        if channel == "cloner":
            e, ch, warm = uniform_haar_scheme(3, 1), superposition_cloner(3), None
        else:
            e, basis = uniform_haar_scheme(2, 2), np.eye(4, dtype=complex)
            ch = measure_share_attack(4, basis)

            def warm(stack):
                return optimal_decode_for_measure_share(stack, basis)[0]

        keys = e.sample_keys(make_rng(7), 5)
        vals = pwin_unif_seesaw(e, ch, keys, [make_rng(8)] * 5, 2, warm_start=warm)
        # one key per call, every call drawing its restarts from one shared generator
        rng = make_rng(8)
        one = [pwin_unif_seesaw(e, ch, [key], [rng], 2, warm_start=warm)[0] for key in keys]
        assert np.array_equal(vals, one)

    @pytest.mark.parametrize("channel", ["cloner", "measure_share", "identity_to_bob"])
    def test_chunk_build_equals_per_key_ensembles(self, channel):
        # the blocks, put back at their (Bob, Charlie) rows, are apply_channel's dense
        # outputs / M, zero off the support; Bob keeps the ciphertext under
        # identity_to_bob, so a B/C mix-up shows
        e = uniform_haar_scheme(2, 2)
        if channel == "cloner":
            ch = superposition_cloner(4)
        elif channel == "measure_share":
            ch = measure_share_attack(4, np.eye(4, dtype=complex))
        else:
            ch = _identity_to_bob(4)
        keys = e.sample_keys(make_rng(12), 3)
        stack = e.ciphertext_stack(keys)
        side = receiver_dim(e, ch)
        rho, bob, charlie = optimize._chunk_matrices(ch, stack, side)
        support = bob * side + charlie
        assert rho.shape == (len(keys), e.message_count, len(support), len(support))
        assert np.array_equal(support, np.flatnonzero(ch.left.any(axis=(0, 2))))
        dense = apply_channel(ch, stack) / e.message_count
        placed = np.zeros_like(dense)
        placed[..., support[:, None], support[None, :]] = rho
        assert np.max(np.abs(placed - dense)) < 1e-15
        # each key of the chunk as its own stack of one
        for k, key in enumerate(keys):
            one = optimize._chunk_matrices(ch, e.ciphertext_stack([key]), side)[0]
            assert np.array_equal(rho[k], one[0])

    @pytest.mark.parametrize(
        "m, side, value, stderr",
        [
            (2, 2, 0.5530747374249071, 0.03285141168537035),
            (3, 3, 0.3745280471028696, 0.009579056999075698),
            (2, 3, 0.5246168356832916, 0.0242545812118959),
        ],
    )
    def test_dense_random_channel_keeps_the_dense_values(self, m, side, value, stderr):
        # two dense Kraus operators cut from a Haar isometry reach every output row, so
        # the support blocks are the whole states; the values are those of the dense
        # (d+1)^4 layout the seesaw ran on before it ran on the support
        e = uniform_haar_scheme(m, 1)
        rng = make_rng(21)
        d = e.cipher_dim
        v = haar_unitary(2 * side * side, rng)[:, :d]
        ch = KrausChannel(d, side * side, tuple(v.reshape(2, side * side, d)))
        assert ch.left.any(axis=(0, 2)).all()
        keys = e.sample_keys(rng, 4)
        got = _mean_stderr(pwin_unif_seesaw(e, ch, keys, [make_rng(22)] * 4, 2))
        assert got == pytest.approx((value, stderr), abs=1e-12, rel=0)

    def test_chunk_build_checks_hermiticity(self, rng):
        # a non-Hermitian channel output is refused
        e = uniform_haar_scheme(2, 1)
        skew = replace(e, encrypt=lambda key, m: np.array([[0.5, 0.1], [0.0, 0.5]], complex))
        ch = superposition_cloner(2)
        keys = e.sample_keys(rng, 2)
        with pytest.raises(NotHermitian):
            optimize._chunk_matrices(ch, skew.ciphertext_stack(keys), 3)

    def test_output_without_symmetric_split_is_rejected(self, rng):
        # a 2 x 3 output has no equal B/C halves (receiver_dim)
        e = uniform_haar_scheme(2, 1)
        ch = KrausChannel(2, 6, (np.kron(np.eye(2, dtype=complex), np.eye(3, 1, dtype=complex)),))
        with pytest.raises(DimensionMismatch):
            pwin_unif_seesaw(e, ch, e.sample_keys(rng, 2), [make_rng(5)] * 2, 1)

    def test_identity_to_bob_floor(self, rng):
        e = uniform_haar_scheme(2, 1)
        ch = _identity_to_bob(2)
        rng = make_rng(5)
        mean = pwin_unif_seesaw(e, ch, e.sample_keys(rng, 3), [rng] * 3, 2).mean()
        assert mean >= 0.5 - 1e-9


def _slow_grid_max(rho0, rho1, grid: int) -> float:
    # direct enumeration of all candidate pairs; oracle for the fast path
    cands = [np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)]
    for t in np.linspace(0, np.pi, grid):
        for ph in np.linspace(0, 2 * np.pi, grid, endpoint=False):
            v = np.array([np.cos(t / 2), np.exp(1j * ph) * np.sin(t / 2)])
            cands.append(np.outer(v, v.conj()))
    eye = np.eye(2)
    best = -1.0
    for p_eff in cands:
        for q_eff in cands:
            val = (
                0.5 * np.trace(np.kron(p_eff, q_eff) @ rho0).real
                + 0.5 * np.trace(np.kron(eye - p_eff, eye - q_eff) @ rho1).real
            )
            best = max(best, val)
    return best


class TestBruteForce:
    def test_orthogonal_product_ensemble(self):
        s0 = np.kron(KET0, KET0)
        s1 = np.kron(KET1, KET1)
        grid = 200
        assert abs(brute_force_pguess_qubit(s0, s1, grid) - 1.0) < 2.0 / grid

    def test_identical_states(self):
        mixed = np.eye(4, dtype=complex) / 4
        assert abs(brute_force_pguess_qubit(mixed, mixed, 200) - 0.5) < 1e-9

    def test_matches_direct_enumeration(self, rng):
        for _ in range(4):
            pair = _random_qubit_pair(rng)
            for grid in (5, 9):
                fast = brute_force_pguess_qubit(*pair, grid)
                slow = _slow_grid_max(*pair, grid)
                assert abs(fast - slow) < 1e-12

    def test_charlie_trivial_reduces_to_helstrom(self, rng):
        # Charlie's marginal carries nothing; optimum is Bob-side Helstrom
        rho0 = np.kron(rand_density(2, rng), np.eye(2, dtype=complex) / 2)
        rho1 = np.kron(rand_density(2, rng), np.eye(2, dtype=complex) / 2)
        brute = brute_force_pguess_qubit(rho0, rho1, 200)
        seesaw = seesaw_run([rho0, rho1], make_rng(6), 6).value
        assert abs(brute - seesaw) < 5e-3

    def test_agreement_with_seesaw(self, rng):
        for i in range(5):
            pair = _random_qubit_pair(rng)
            sv = seesaw_run(pair, make_rng(50 + i), 6).value
            bv = brute_force_pguess_qubit(*pair, 200)
            assert abs(sv - bv) < 5e-3

    def test_input_validation(self, rng):
        good = _random_qubit_pair(rng)
        with pytest.raises(ValueError):
            brute_force_pguess_qubit(*good, 2)
        with pytest.raises(DimensionMismatch):
            brute_force_pguess_qubit(rand_density(6, rng), rand_density(6, rng), 10)
