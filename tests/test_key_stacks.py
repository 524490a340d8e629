"""Key lists as ciphertext stacks: one read per key, every key's effects on its own key.

The oracle here scores one key at a time with dense matrices: the channel
output ``sum_j K_j Enc_k(m) K_j†`` and the trace of ``np.kron(P_m, Q_m)``
against it, with the receivers' effects built from that key's ciphertexts
alone (a stack of one).  The evaluators score every key of a chunk at once,
so a stack that pairs one key's effects with another key's ciphertexts
moves their values away from the oracle.
"""

import dataclasses

import numpy as np
import pytest

from uncloneq import config
from uncloneq.attacks import (
    CloningAttack,
    measure_share_attack,
    measure_share_ml_attack,
    optimal_decode_for_measure_share,
    projector_cloning_attack,
    pwin_ind_eval,
    pwin_unif_eval,
    superposition_cloner,
)
from uncloneq.errors import DimensionMismatch, InvalidOperator
from uncloneq.linalg import KrausChannel, dagger, haar_unitary, make_rng
from uncloneq.meg import verify_reduction
from uncloneq.optimize import pwin_unif_seesaw
from uncloneq.schemes import top_eigenvalue_means, uniform_haar_scheme

KEYS = 7


@pytest.fixture
def small_chunks(monkeypatch):
    # two keys per chunk of the attack and game routes (540 and 648 entries
    # a key for uniform_haar:3,2 under a two-operator dense channel)
    monkeypatch.setattr(config, "KEY_CHUNK_ENTRIES", 1400)


def _keyed_attack(d: int, rng: np.random.Generator) -> tuple[CloningAttack, list]:
    # a dense two-operator channel and receivers whose effects depend on the key:
    # Bob decodes by likelihoods in a Haar basis, Charlie in the standard one
    iso = haar_unitary(2 * d * d, rng)[:, :d]
    channel = KrausChannel(d, d * d, (iso[: d * d], iso[d * d :]))
    basis = haar_unitary(d, rng)
    calls = []

    def bob(stack):
        calls.append(len(stack))
        return optimal_decode_for_measure_share(stack, basis)[0]

    def charlie(stack):
        return optimal_decode_for_measure_share(stack, np.eye(d, dtype=complex))[0]

    return CloningAttack(channel, bob, charlie, (d, d)), calls


def dense_success(atk: CloningAttack, ciphertexts: np.ndarray) -> float:
    """``(1/M) sum_m tr((P_m ⊗ Q_m) N(Enc_k(m)))`` of one key, from dense matrices."""
    bob = atk.bob_effects(ciphertexts[None])[0]
    charlie = atk.charlie_effects(ciphertexts[None])[0]
    ops = atk.channel.left @ dagger(atk.channel.right)
    total = 0.0
    for c, p, q in zip(ciphertexts, bob, charlie):
        out = sum(k @ c @ dagger(k) for k in ops)
        total += np.trace(np.kron(p, q) @ out).real
    return total / len(ciphertexts)


def _setup():
    e = uniform_haar_scheme(3, 2)
    rng = make_rng(17)
    keys = e.sample_keys(rng, KEYS)
    atk, calls = _keyed_attack(e.cipher_dim, rng)
    return e, keys, atk, calls


def test_pwin_unif_eval_matches_the_per_key_oracle(small_chunks):
    e, keys, atk, calls = _setup()
    value = pwin_unif_eval(e, atk, keys)
    assert len(calls) > 1  # the keys span more than one chunk
    oracle = np.mean([dense_success(atk, e.ciphertexts(key)) for key in keys])
    assert abs(value - oracle) < 1e-12


def test_pwin_ind_eval_matches_the_per_key_oracle(small_chunks):
    e, keys, atk, calls = _setup()
    value = pwin_ind_eval(e, 2, 0, atk, keys)
    assert len(calls) > 1
    oracle = np.mean([dense_success(atk, e.ciphertexts(key)[[2, 0]]) for key in keys])
    assert abs(value - oracle) < 1e-12


def test_both_reduction_routes_match_the_per_key_oracle(small_chunks):
    e, keys, atk, calls = _setup()
    lhs, rhs, _ = verify_reduction(e, atk, keys)
    assert len(calls) > 1
    oracle = np.mean([dense_success(atk, e.ciphertexts(key)) for key in keys])
    assert abs(lhs - oracle) < 1e-12
    assert abs(rhs - oracle) < 1e-12


def _counting(e):
    # e with every encrypt call counted, as the benchmark tracer wraps it
    calls = []

    def encrypt(key, m):
        calls.append(m)
        return e.encrypt(key, m)

    return dataclasses.replace(e, encrypt=encrypt), calls


def _cloner_seesaw(e, keys):
    warm = projector_cloning_attack(e).bob_effects
    ch = superposition_cloner(e.cipher_dim)
    return pwin_unif_seesaw(e, ch, keys, make_rng(5), 1, warm_start=warm)


def _measure_share_seesaw(e, keys):
    basis = np.eye(e.cipher_dim, dtype=complex)

    def warm(stack):
        return optimal_decode_for_measure_share(stack, basis)[0]

    ch = measure_share_attack(e.cipher_dim, basis)
    return pwin_unif_seesaw(e, ch, keys, make_rng(5), 1, warm)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda e, keys: pwin_unif_eval(e, projector_cloning_attack(e), keys),
        lambda e, keys: pwin_ind_eval(e, 1, 0, projector_cloning_attack(e), keys),
        lambda e, keys: verify_reduction(e, projector_cloning_attack(e), keys),
        lambda e, keys: verify_reduction(e, measure_share_ml_attack(e, np.eye(4)), keys),
        top_eigenvalue_means,
        _cloner_seesaw,
        _measure_share_seesaw,
    ],
    ids=[
        "pwin_unif_eval",
        "pwin_ind_eval",
        "verify_reduction-cloner",
        "verify_reduction-measure_share",
        "top_eigenvalue_means",
        "pwin_unif_seesaw-cloner",
        "pwin_unif_seesaw-measure_share",
    ],
)
@pytest.mark.parametrize("chunked", [False, True], ids=["one-chunk", "small-chunks"])
def test_each_key_is_read_once(evaluate, chunked, monkeypatch):
    # K keys of M messages cost exactly K M encryptions, however the keys are chunked
    if chunked:
        monkeypatch.setattr(config, "KEY_CHUNK_ENTRIES", 1)
    e, calls = _counting(uniform_haar_scheme(2, 2))
    keys = e.sample_keys(make_rng(11), 5)
    evaluate(e, keys)
    assert len(calls) == len(keys) * e.message_count


def _faulty(atk: CloningAttack, fault: str):
    # the attack's effects, with key 2 of the stack broken
    def bob(stack):
        effects = np.array(atk.bob_effects(stack))
        if fault == "negative":
            # a Hermitian, trace-free shift between two effects: the sum stays I
            shift = np.zeros_like(effects[2, 0])
            shift[0, 1] = shift[1, 0] = 0.05
            effects[2, 0] += shift
            effects[2, 1] -= shift
        elif fault == "incomplete":
            effects[2] *= 0.5
        elif fault == "short":
            effects = effects[:-1]
        else:
            effects = effects[..., :-1, :-1]
        return effects

    return dataclasses.replace(atk, bob_effects=bob)


@pytest.mark.parametrize(
    "fault, error, match",
    [
        ("negative", InvalidOperator, "eigenvalue"),
        ("incomplete", InvalidOperator, "completeness"),
        ("short", DimensionMismatch, "shape"),
        ("narrow", DimensionMismatch, "shape"),
    ],
)
@pytest.mark.parametrize("route", [pwin_unif_eval, verify_reduction], ids=lambda f: f.__name__)
def test_a_bad_effect_stack_is_refused(fault, error, match, route):
    e = uniform_haar_scheme(2, 2)
    keys = e.sample_keys(make_rng(3), 5)
    atk = _faulty(measure_share_ml_attack(e, np.eye(4, dtype=complex)), fault)
    with pytest.raises(error, match=match):
        route(e, atk, keys)
