"""Shared random-instance helpers for the test suite."""

import numpy as np
import pytest

from uncloneq.linalg import dagger, haar_unitary, make_rng
from uncloneq.schemes import QecmScheme


def rand_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + dagger(g)) / 2


def rand_density(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    r = rank if rank is not None else d
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ dagger(g)
    return m / np.trace(m).real


def spectrum_with_gap(rank: int, rng: np.random.Generator, gap: float = 1e-6) -> np.ndarray:
    """Positive weights summing to 1, sorted descending, top gap enforced."""
    while True:
        w = np.sort(rng.standard_exponential(rank))[::-1]
        w /= w.sum()
        if rank == 1 or w[0] - w[1] >= gap:
            return w


def orthogonal_support_pair(
    d: int, r_rho: int, r_sigma: int, rng: np.random.Generator, gap: float = 1e-6
) -> tuple[np.ndarray, np.ndarray]:
    """Random density pair with disjoint supports and nondegenerate tops."""
    assert r_rho + r_sigma <= d
    basis = haar_unitary(d, rng)
    w_rho = spectrum_with_gap(r_rho, rng, gap)
    w_sigma = spectrum_with_gap(r_sigma, rng, gap)
    cols_rho = basis[:, :r_rho]
    cols_sigma = basis[:, r_rho : r_rho + r_sigma]
    rho = (cols_rho * w_rho) @ dagger(cols_rho)
    sigma = (cols_sigma * w_sigma) @ dagger(cols_sigma)
    return rho, sigma


def constant_map(effects):
    """A receiver map that gives every key of a ciphertext stack the same effects."""
    effects = np.asarray(effects, dtype=complex)
    return lambda stack: np.broadcast_to(effects, (len(stack),) + effects.shape)


def padded_scheme(e: QecmScheme, d: int) -> QecmScheme:
    """``e`` with its ciphertexts zero-padded into ``d`` dimensions.

    The ciphertexts span only the first ``e.cipher_dim`` basis vectors, so
    the factors of the padded scheme have more rows than nonzero ones.
    """
    iso = np.eye(d, e.cipher_dim, dtype=complex)
    return QecmScheme(
        message_count=e.message_count,
        cipher_dim=d,
        key_sampler=e.key_sampler,
        encrypt=lambda key, m: iso @ e.encrypt(key, m) @ dagger(iso),
        decrypt_povm=lambda key: None,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng(20240517)
