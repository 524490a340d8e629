"""Acceptance suite: every headline value and inequality at its stated tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s`` or on
failure) and then asserts, so the suite doubles as a human-readable
report of the reproduced results.
"""

import math
import time

import numpy as np
import pytest

from uncloneq.attacks import (
    breidbart_basis,
    ind_attack_build,
    projector_cloning_attack,
    projector_strategy_value,
    measure_share_ml_attack,
    pwin_ind_eval,
    pwin_unif_eval,
    random_basis_attack_estimate,
)
from uncloneq.linalg import make_rng
from uncloneq.meg import verify_reduction
from uncloneq.o2h import extraction_probability, simo2h_rhs, simo2h_success
from uncloneq.optimize import pwin_unif_seesaw
from uncloneq.schemes import bb84_scheme, mu_statistic, uniform_haar_scheme
from uncloneq.stats import max_over_sum_estimate

from conftest import orthogonal_support_pair, rand_density
from oracles import brute_force_pguess_qubit, seesaw_run

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)


_T0 = 0.0


@pytest.fixture(autouse=True)
def _stopwatch():
    global _T0
    _T0 = time.perf_counter()
    yield


def _report(criterion: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    elapsed = time.perf_counter() - _T0
    print(f"ACCEPTANCE {criterion:02d} [{verdict}] {label}: {detail} ({elapsed:.1f}s)")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_projector_strategy_exact_value():
    value = projector_strategy_value(KET0, KET1, 0.25)
    ok = abs(value - 0.5625) <= 1e-9
    _report(1, "pure orthogonal pair value", ok, f"value={value!r} target=0.5625 tol=1e-9")


def test_criterion_02_projector_strategy_bound_property():
    gen = make_rng(202)
    worst_margin = math.inf
    worst_gap = 0.0
    for i in range(200):
        d = int(gen.integers(2, 9))
        r_rho = int(gen.integers(1, d))
        r_sigma = int(gen.integers(1, d - r_rho + 1))
        rho, sigma = orthogonal_support_pair(d, r_rho, r_sigma, gen, gap=1e-6)
        lam = max(np.linalg.eigvalsh(rho)[-1], np.linalg.eigvalsh(sigma)[-1])
        value = projector_strategy_value(rho, sigma, 0.25)  # cross-checks trace vs closed form
        closed = 0.5 * (0.25 + lam * 0.25 * 0.5 + 0.75)
        worst_margin = min(worst_margin, value - (0.5 + lam / 16.0))
        worst_gap = max(worst_gap, abs(value - closed))
    ok = worst_margin >= -1e-9 and worst_gap <= 1e-9
    _report(
        2,
        "200 random orthogonal-support pairs",
        ok,
        f"worst bound margin={worst_margin:.3e} worst closed-form gap={worst_gap:.3e}",
    )


def test_criterion_03_bb84_indistinguishability_attack():
    e = bb84_scheme(1)
    keys = e.enumerate_keys()
    mu = mu_statistic(e, keys)
    atk, m1, _ = ind_attack_build(e, 0, 0.25, keys)
    value = pwin_ind_eval(e, 0, m1, atk, keys)
    ok = abs(value - 0.5625) <= 1e-9 and abs(mu - 1.0) <= 1e-12
    _report(3, "single-bit conjugate-coding attack", ok, f"value={value!r} mu={mu!r}")


def test_criterion_04_oracle_guessing_counterexample():
    success = simo2h_success()
    extraction = extraction_probability()
    rhs = simo2h_rhs(1, 1, 1, 0.0)
    ok = abs(success - 0.5625) <= 1e-9 and abs(extraction) <= 1e-12 and rhs == 4.5
    _report(
        4,
        "two-party oracle counterexample",
        ok,
        f"success={success!r} extraction={extraction!r} rhs={rhs!r}",
    )


def test_criterion_05_bb84_breidbart_attack_value():
    e = bb84_scheme(1)
    keys = e.enumerate_keys()
    atk = measure_share_ml_attack(e, breidbart_basis())
    value = pwin_unif_eval(e, atk, keys)
    target = 0.5 + 0.5 / math.sqrt(2.0)
    ok = abs(value - target) <= 1e-9
    _report(5, "intermediate-basis attack on single-bit scheme", ok, f"value={value!r}")


def test_criterion_06_random_basis_attack_closed_form_instance():
    e = uniform_haar_scheme(2, 1)
    mean, stderr = random_basis_attack_estimate(e, 100_000, make_rng(206))
    ok = abs(mean - 0.75) <= 0.01
    _report(6, "random-basis attack on qubit pair", ok, f"mean={mean:.5f} stderr={stderr:.5f}")


def test_criterion_07_random_basis_attack_inequalities():
    details = []
    ok = True
    for i, (m_count, d) in enumerate([(4, 4), (8, 8), (16, 16)]):
        e = uniform_haar_scheme(m_count, d // m_count)
        mean, stderr = random_basis_attack_estimate(e, 20_000, make_rng(207, stream=i))
        rhs = 0.02285 * (math.log2(m_count) - 1.0) / d
        floor = 1.0 / m_count
        ok = ok and mean >= rhs - 3 * stderr and mean >= floor - 3 * stderr
        details.append(f"(M={m_count},d={d}): {mean:.4f}>=max({rhs:.5f},{floor:.5f})")
    _report(7, "dimension-rank inequality", ok, "; ".join(details))


def test_criterion_08_erlang_max_over_sum():
    mean2, stderr2 = max_over_sum_estimate([1, 1], 100_000, make_rng(208))
    ok = abs(mean2 - 0.75) <= 0.005
    details = [f"n=2: {mean2:.4f}~0.75"]
    for n in (4, 64, 1024):
        mean, stderr = max_over_sum_estimate([1] * n, 100_000, make_rng(208, stream=n))
        bound = 0.0457 * math.log2(n) / n
        ok = ok and mean >= bound - 3 * stderr
        details.append(f"n={n}: {mean:.5f}>={bound:.5f}")
    _report(8, "max-over-sum constant", ok, "; ".join(details))


def test_criterion_09_seesaw_soundness():
    # monotone trajectories on 50 seeded runs
    gen = make_rng(209)
    monotone = True
    for i in range(50):
        pair = (rand_density(4, gen), rand_density(4, gen))
        res = seesaw_run(pair, make_rng(209, stream=i), 2)
        monotone = monotone and bool(np.all(np.diff(res.trajectory) >= -1e-10))

    # warm-started run on the cloner ensemble reaches the projector value
    e = bb84_scheme(1)
    key = e.enumerate_keys()[0]
    atk = projector_cloning_attack(e)
    (warm_value,) = pwin_unif_seesaw(
        e, atk.channel, [key], [make_rng(209, stream=99)], 2, warm_start=atk.bob_effects
    )
    warm_ok = warm_value >= 0.5625 - 1e-6

    # oracle agreement on 10 seeded qubit-pair ensembles
    worst = 0.0
    gen = make_rng(209, stream=7)
    for i in range(10):
        pair = (rand_density(4, gen), rand_density(4, gen))
        sv = seesaw_run(pair, make_rng(209, stream=100 + i), 8).value
        bv = brute_force_pguess_qubit(*pair, 200)
        worst = max(worst, abs(sv - bv))
    oracle_ok = worst <= 5e-3

    ok = monotone and warm_ok and oracle_ok
    _report(
        9,
        "seesaw soundness",
        ok,
        f"monotone={monotone} warm_value={warm_value:.6f} worst_oracle_gap={worst:.2e}",
    )


def test_criterion_10_monogamy_game_reduction():
    details = []
    ok = True
    e22 = uniform_haar_scheme(2, 2)
    keys22 = [e22.key_sampler(make_rng(210)) for _ in range(50)]
    bb = bb84_scheme(1)
    keys_bb = bb.enumerate_keys()
    cases = [
        ("uniform_haar(2,2)+cloner", e22, projector_cloning_attack(e22), keys22),
        (
            "uniform_haar(2,2)+measure_share",
            e22,
            measure_share_ml_attack(e22, np.eye(4, dtype=complex)),
            keys22,
        ),
        ("bb84(1)+cloner", bb, projector_cloning_attack(bb), keys_bb),
        (
            "bb84(1)+measure_share",
            bb,
            measure_share_ml_attack(bb, np.eye(2, dtype=complex)),
            keys_bb,
        ),
    ]
    for label, scheme, atk, keys in cases:
        _, _, gap = verify_reduction(scheme, atk, keys)
        ok = ok and gap < 1e-8
        details.append(f"{label}: gap={gap:.2e}")
    _report(10, "monogamy-game reduction", ok, "; ".join(details))
