"""Reference implementations the tests check the library against.

None of these is reached by a subcommand: the unitary and density-operator
validators, the qubit grid oracle, the single-ensemble entry to the
seesaw, the seesaw's random restarts one POVM at a time, the paper's
expurgation of a scheme to a smaller message set, and the Erlang law the
random-basis Monte Carlo is checked against.
"""

import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple
from unittest import mock

import numpy as np

from uncloneq import optimize
from uncloneq.config import is_integer
from uncloneq.errors import DimensionMismatch, InvalidOperator, NotInjective, UncloneqError
from uncloneq.linalg import (
    KrausChannel,
    assert_finite,
    assert_hermitian,
    dagger,
    haar_unitary,
    max_abs,
)
from uncloneq.schemes import Povm, QecmScheme

# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

# most negative admissible eigenvalue, and trace deviation from 1, of a density operator
_DENSITY_TOL = 1e-10
# max-entry deviation of U U-dagger from the identity
_UNITARY_TOL = 1e-9


def _require_square(a: np.ndarray) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


def assert_density_operator(rho: np.ndarray) -> None:
    """Check Hermiticity, positivity and unit trace of a density operator."""
    assert_hermitian(rho)
    w = np.linalg.eigvalsh(rho)
    if w[0] < -_DENSITY_TOL:
        raise InvalidOperator(f"smallest eigenvalue {w[0]} below -{_DENSITY_TOL}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > _DENSITY_TOL:
        raise InvalidOperator(f"trace {tr} deviates from 1 by more than {_DENSITY_TOL}")


def assert_unitary(u: np.ndarray) -> None:
    """Check ``u @ u.conj().T == I`` within ``_UNITARY_TOL`` (max entry deviation)."""
    assert_finite(u)
    d = _require_square(u)
    dev = max_abs(u @ dagger(u) - np.eye(d))
    if dev > _UNITARY_TOL:
        raise InvalidOperator(f"unitarity deviation {dev} exceeds {_UNITARY_TOL}")

# ---------------------------------------------------------------------------
# the seesaw on one ensemble
# ---------------------------------------------------------------------------


class SeesawRun(NamedTuple):
    """Best start's value and sweep count, and the run's value after each sweep."""

    value: float
    trajectory: np.ndarray
    iterations_used: int


def seesaw_run(states, rng: np.random.Generator, restarts: int) -> SeesawRun:
    """The seesaw on one uniform ensemble of joint states, on the path the CLI runs.

    ``states`` is an ``(M, D, D)`` stack of joint states on ``B ⊗ C`` with
    both sides ``sqrt(D)``-dimensional, each label of probability ``1/M``.
    An identity channel on the joint space, whose support is every row,
    takes them in as a ``(1, M, D, D)`` stack to ``_chunk_matrices``,
    ``_starts`` gives Charlie's starts (the constant guess and
    ``restarts`` restarts, drawn from ``rng``) and ``_seesaw`` runs them.
    ``_seesaw`` keeps only each start's last value, so the trajectory
    reruns it from the same starts with ``optimize._SEESAW_ITERS`` cut to
    k = 1, 2, ... sweeps: a run cut at k sweeps repeats the first k sweeps
    of the full run and returns its best start's value after them.
    """
    states = np.asarray(states, dtype=complex)
    m, dim = states.shape[:2]
    side = math.isqrt(dim)
    identity = KrausChannel(dim, dim, (np.eye(dim, dtype=complex),))
    rho, *rows = optimize._chunk_matrices(identity, states[None], side)
    starts = optimize._starts(m, side, None, [rng], restarts)

    def run() -> tuple[float, int]:
        # _seesaw updates Charlie's effects in the start stack it is given
        value, sweeps = optimize._seesaw(rho, rows, (side, side), starts.copy())
        return float(value[0]), int(sweeps[0])

    value, sweeps = run()
    trajectory = []
    for k in range(1, sweeps + 1):
        with mock.patch.object(optimize, "_SEESAW_ITERS", k):
            trajectory.append(run()[0])
    return SeesawRun(value, np.array(trajectory), sweeps)


def random_projective_povm(dim: int, n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Haar-rotated rank patterns: outcome x projects onto the columns ``i = x mod n``.

    Outcomes beyond ``dim`` get zero effects.  The oracle of the seesaw's
    random restarts, which draw one such POVM per restart.
    """
    u = haar_unitary(dim, rng)
    effects = []
    for x in range(n):
        cols = u[:, [i for i in range(dim) if i % n == x]]
        effects.append(cols @ dagger(cols) if cols.shape[1] else np.zeros((dim, dim), complex))
    return effects


# ---------------------------------------------------------------------------
# brute-force oracle for qubit pairs
# ---------------------------------------------------------------------------


_PAULIS = np.stack(
    [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
)


def _bloch_grid(grid: int) -> np.ndarray:
    # theta mesh includes both poles; phi mesh spans the circle half-open
    theta, phi = np.meshgrid(
        np.linspace(0.0, np.pi, grid),
        np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False),
        indexing="ij",
    )
    sin_t = np.sin(theta).ravel()
    return np.stack(
        [sin_t * np.cos(phi).ravel(), sin_t * np.sin(phi).ravel(), np.cos(theta).ravel()],
        axis=1,
    )


def _max_linear_on_grid(w: np.ndarray, grid: int) -> np.ndarray:
    """Exact ``max_n w . n`` over the theta-phi Bloch grid, row-wise in w.

    The azimuthal factor of ``w . n(theta, phi)`` is maximized at the
    phi-grid point nearest ``atan2(w_y, w_x)`` independently of theta,
    which collapses the remaining polar scan to the theta-grid point
    nearest the resulting optimal angle.
    """
    wx, wy, wz = w[:, 0], w[:, 1], w[:, 2]
    wxy = np.hypot(wx, wy)
    step_phi = 2.0 * np.pi / grid
    phi_star = np.mod(np.arctan2(wy, wx), 2.0 * np.pi)
    delta = np.abs(phi_star - np.round(phi_star / step_phi) * step_phi)
    planar = wxy * np.cos(delta)
    step_theta = np.pi / (grid - 1)
    theta_star = np.arctan2(planar, wz)
    theta = np.clip(np.round(theta_star / step_theta), 0, grid - 1) * step_theta
    return wz * np.cos(theta) + planar * np.sin(theta)


def _pauli_vector(h: np.ndarray) -> np.ndarray:
    return np.array([float(np.trace(s @ h).real) for s in _PAULIS[1:]])


def brute_force_pguess_qubit(rho0: np.ndarray, rho1: np.ndarray, grid: int) -> float:
    """Grid-search oracle over products of projective qubit measurements.

    For two equally likely states on a qubit pair, each side's outcome-0
    effect ranges over rank-1 projectors on a ``grid`` polar by ``grid``
    azimuthal Bloch mesh (poles included) plus the two trivial binary
    POVMs; returns the exact maximum of the objective over all candidate
    pairs.  In Bloch coordinates the objective is multi-affine, so the
    best partner grid point for each candidate is found in closed form
    rather than by pairwise enumeration.  Within ``O(1/grid)`` of the
    projective optimum.
    """
    if rho0.shape != (4, 4) or rho1.shape != (4, 4):
        raise DimensionMismatch(f"oracle needs qubit pairs, got {rho0.shape} and {rho1.shape}")
    if grid < 4:
        raise ValueError("grid must be at least 4")
    p0 = p1 = 0.5
    d4 = (p0 * rho0 + p1 * rho1).reshape(2, 2, 2, 2)
    rho0_4 = rho0.reshape(2, 2, 2, 2)
    rho1_4 = rho1.reshape(2, 2, 2, 2)
    r0b = _pauli_vector(np.einsum("ijkj->ik", rho0_4))
    r0c = _pauli_vector(np.einsum("ijil->jl", rho0_4))
    r1b = _pauli_vector(np.einsum("ijkj->ik", rho1_4))
    r1c = _pauli_vector(np.einsum("ijil->jl", rho1_4))

    # objective(P, Q) = tr((P ⊗ Q) D) + p1 (1 - tr(P rho1_B) - tr(Q rho1_C));
    # in Bloch coordinates: c0 + ga.na + gb.nb + na^T G nb
    weights = np.einsum("mik,njl,klij->mn", _PAULIS, _PAULIS, d4).real / 4.0
    c0 = weights[0, 0]
    ga = weights[1:, 0] - p1 * r1b / 2.0
    gb = weights[0, 1:] - p1 * r1c / 2.0
    gmat = weights[1:, 1:]

    points = _bloch_grid(grid)
    row_best = _max_linear_on_grid(points @ gmat + gb[None, :], grid)
    best = float(np.max(c0 + points @ ga + row_best))

    # one side trivial (outcome-0 effect I or 0), other side on the grid
    def half_max(r: np.ndarray) -> float:
        return float(_max_linear_on_grid(r[None, :] / 2.0, grid)[0])

    best = max(best, p0 * (0.5 + half_max(r0b)), p0 * (0.5 + half_max(r0c)))
    best = max(best, p1 * (0.5 + half_max(-r1b)), p1 * (0.5 + half_max(-r1c)))
    # both sides trivial: constant joint guesses
    return max(best, p0, p1)


# ---------------------------------------------------------------------------
# expurgation
# ---------------------------------------------------------------------------


def expurgate_scheme(
    e: QecmScheme, mprime: int, phi: Callable[[Any, int], int]
) -> QecmScheme:
    """Restrict to ``mprime`` messages through keyed relabelings ``phi``.

    ``phi(key, m)`` must be injective on ``range(mprime)`` for every key;
    encryption of ``m`` becomes encryption of ``phi(key, m)`` and
    decryption inverts the relabeling.  Decryption outcomes outside the
    image of ``phi`` are mapped to message 0 (they cannot occur for
    honestly encrypted messages).
    """
    if not 1 <= mprime <= e.message_count:
        raise DimensionMismatch(f"mprime must be in [1, {e.message_count}]")

    def image(key: Any) -> list[int]:
        targets = [phi(key, m) for m in range(mprime)]
        if len(set(targets)) != mprime:
            raise NotInjective(f"phi collides on key {key!r}: {targets}")
        if any(not 0 <= t < e.message_count for t in targets):
            raise DimensionMismatch("phi maps outside the message set")
        return targets

    def encrypt(key: Any, m: int) -> np.ndarray:
        return e.encrypt(key, image(key)[m])

    def decrypt_povm(key: Any) -> Povm:
        targets = image(key)
        base = e.decrypt_povm(key).effects
        effects = base[targets]
        effects[0] += np.delete(base, targets, axis=0).sum(axis=0)
        return Povm(dim=e.cipher_dim, effects=effects)

    return QecmScheme(
        message_count=mprime,
        cipher_dim=e.cipher_dim,
        key_sampler=e.key_sampler,
        encrypt=encrypt,
        decrypt_povm=decrypt_povm,
        enumerate_keys=e.enumerate_keys,
    )


# ---------------------------------------------------------------------------
# the Erlang law
# ---------------------------------------------------------------------------


class NegativeX(UncloneqError):
    """Distribution evaluated at a negative argument."""


@dataclass(frozen=True)
class ErlangParams:
    """Shape (positive integer) and rate (positive finite real) of an Erlang law."""

    shape: int
    rate: float

    def __post_init__(self) -> None:
        if not is_integer(self.shape) or self.shape < 1:
            raise ValueError(f"shape must be a positive integer, got {self.shape!r}")
        # NaN fails every comparison, so finiteness is checked on its own
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if not math.isfinite(self.rate):
            raise ValueError(f"rate must be finite, got {self.rate}")


def erlang_cdf(p: ErlangParams, x: float) -> float:
    """``P[X <= x] = 1 - exp(-rate x) sum_{i<k} (rate x)^i / i!``."""
    # NaN fails every comparison, so it is refused with the negatives
    if not x >= 0:
        raise NegativeX(f"x must be nonnegative, got {x}")
    k, lam = p.shape, p.rate
    z = lam * x
    if math.isinf(z):
        return 1.0
    term = 1.0
    tail = term
    for i in range(1, k):
        term *= z / i
        tail += term
    scale = math.exp(-z)
    if scale > 0.0 and math.isfinite(tail):
        return 1.0 - scale * tail
    # exp(-z) underflows to 0 or the sum overflows, so the terms are added in log space
    logs = [i * math.log(z) - math.lgamma(i + 1) for i in range(k)]
    top = max(logs)
    return 1.0 - math.exp(top - z + math.log(sum(math.exp(t - top) for t in logs)))
