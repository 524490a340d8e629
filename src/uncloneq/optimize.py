"""Lower bounds on simultaneous guessing probabilities.

Two separated parties each measure their half of a (classically labeled)
joint state and win when both recover the label.  The seesaw here
alternates exact single-party best responses: with one side's POVM fixed,
the other side faces an ordinary minimum-error discrimination problem,
which :func:`discriminate` solves exactly for two outcomes (Helstrom) and
by an operator fixed-point iteration otherwise.  Every iterate is a feasible product measurement, so
all reported values are certified lower bounds.

A grid search over products of projective qubit measurements is included
as an independent cross-check oracle for 2-outcome qubit-pair ensembles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .attacks import GuessingEnsemble, ensemble_from_scheme_key
from .config import TOL
from .errors import CrossCheckFailed, DimensionMismatch
from .linalg import (
    Array,
    KrausChannel,
    dagger,
    haar_unitary,
    herm_eig,
    pseudo_inv_sqrt,
)
from .schemes import Povm, QecmScheme

__all__ = [
    "DiscriminationResult",
    "SeesawConfig",
    "SeesawResult",
    "brute_force_pguess_qubit",
    "discriminate",
    "pwin_unif_seesaw",
    "seesaw_pguess",
]

# fixed-point budget of one single-party solve, and of the seesaw around it
_FP_ITERS = 300
_FP_EPS = 1e-12
_SEESAW_ITERS = 500
_SEESAW_EPS = 1e-9


def _herm(a: Array) -> Array:
    return (a + dagger(a)) / 2


# ---------------------------------------------------------------------------
# single-party discrimination
# ---------------------------------------------------------------------------


def _sub_objective(gs: Sequence[Array], effects: Sequence[Array]) -> float:
    return float(sum(np.trace(e @ g).real for e, g in zip(effects, gs)))


def _pgm(gs: Sequence[Array], dim: int) -> list[Array]:
    # square-root measurement of the (possibly subnormalized) operators
    total = _herm(sum(gs))
    scale = float(np.trace(total).real)
    if scale < 1e-30:
        effects = [np.zeros((dim, dim), dtype=complex) for _ in gs]
        effects[0] = np.eye(dim, dtype=complex)
        return effects
    inv = pseudo_inv_sqrt(total / scale, cutoff=1e-14) / math.sqrt(scale)
    effects = [_herm(inv @ g @ inv) for g in gs]
    comp = _herm(np.eye(dim) - sum(effects))
    j = int(np.argmax([np.trace(g).real for g in gs]))
    effects[j] = effects[j] + comp
    return effects


def _fixed_point(
    gs: Sequence[Array], effects: Sequence[Array]
) -> tuple[float, list[Array], bool]:
    """Operator fixed-point ascent for max_POVM sum_x tr(P_x G_x).

    Runs at most ``_FP_ITERS`` sweeps and stops once a sweep gains less
    than ``_FP_EPS``.  Tracks the best feasible iterate so the returned
    value never drops below the starting one.  An iterate with an effect
    eigenvalue below ``-TOL.effect_psd`` is not a POVM: it ends the
    iteration unadopted (``pseudo_inv_sqrt`` of a near-singular ``r`` can
    amplify a rounding error in one effect into a negative eigenvalue).
    """
    dim = gs[0].shape[0]
    effects = [np.asarray(e, dtype=complex) for e in effects]
    cur = _sub_objective(gs, effects)
    best_val, best_eff = cur, effects
    converged = False
    for _ in range(_FP_ITERS):
        r = _herm(sum(g @ e @ g for g, e in zip(gs, effects)))
        scale = float(np.trace(r).real)
        if scale < 1e-30:
            converged = True
            break
        inv = pseudo_inv_sqrt(r / scale, cutoff=1e-14) / math.sqrt(scale)
        new = [_herm(inv @ g @ e @ g @ inv) for g, e in zip(gs, effects)]
        comp = _herm(np.eye(dim) - sum(new))
        gains = [float(np.trace(comp @ g).real) for g in gs]
        j = int(np.argmax(gains))
        new[j] = new[j] + comp
        if np.linalg.eigvalsh(np.stack(new))[:, 0].min() < -TOL.effect_psd:
            break
        val = _sub_objective(gs, new)
        if val > best_val:
            best_val, best_eff = val, new
        if val - cur < _FP_EPS:
            converged = True
            break
        effects, cur = new, val
    return best_val, best_eff, converged


class DiscriminationResult(NamedTuple):
    """Value, effects and convergence flag of :func:`discriminate`."""

    value: float
    effects: list[Array]
    converged: bool


def discriminate(
    gs: Sequence[Array], init: Sequence[Array] | None = None
) -> DiscriminationResult:
    """Minimum-error POVM for ``max sum_x tr(P_x G_x)``, ``G_x = p_x rho_x``.

    One outcome: the identity.  Two outcomes: the Helstrom projector onto
    the positive part of ``G_0 - G_1``, whose value
    ``(tr(G_0 + G_1) + ||G_0 - G_1||_1)/2`` is checked against the value
    the projector achieves (:class:`CrossCheckFailed` if they differ).
    Three or more: the fixed-point iteration from ``init`` (default: the
    square-root measurement), never below the constant-guess floor
    ``max_x tr(G_x)``.  ``converged`` is false when the iteration ran out
    of sweeps or stopped at an iterate that is not a POVM.
    """
    if not gs:
        raise ValueError("need at least one operator to discriminate")
    dim = gs[0].shape[0]
    if len(gs) == 1:
        return DiscriminationResult(
            float(np.trace(gs[0]).real), [np.eye(dim, dtype=complex)], True
        )
    if len(gs) == 2:
        w, v = herm_eig(_herm(gs[0] - gs[1]))
        pos = v[:, w > 0]
        eff0 = _herm(pos @ dagger(pos))
        effects = [eff0, np.eye(dim) - eff0]
        value = 0.5 * (float(np.trace(gs[0] + gs[1]).real) + float(np.abs(w).sum()))
        # the trace-norm value and the achieved value must agree (exact algebra);
        # tr(E G) is vdot(E, G) because both effects are exactly Hermitian
        achieved = float(np.vdot(effects[0], gs[0]).real + np.vdot(effects[1], gs[1]).real)
        if abs(achieved - value) > 1e-10:
            raise CrossCheckFailed(f"Helstrom value {value} not achieved ({achieved})")
        return DiscriminationResult(value, effects, True)
    val, effects, converged = _fixed_point(gs, list(init) if init is not None else _pgm(gs, dim))
    traces = [float(np.trace(g).real) for g in gs]
    floor_idx = int(np.argmax(traces))
    if val < traces[floor_idx]:
        effects = [np.zeros((dim, dim), dtype=complex) for _ in gs]
        effects[floor_idx] = np.eye(dim, dtype=complex)
        val, converged = traces[floor_idx], True
    return DiscriminationResult(val, effects, converged)


# ---------------------------------------------------------------------------
# seesaw over product measurements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeesawConfig:
    """Settings for the alternating product-measurement optimization."""

    rng: np.random.Generator
    restarts: int = 1
    #: initial Charlie POVMs tried before random restarts kick in
    warm_starts: tuple[Povm, ...] = ()

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


@dataclass(frozen=True)
class SeesawResult:
    """Outcome of one seesaw optimization (best restart)."""

    value: float
    bob_povm: Povm
    charlie_povm: Povm
    iterations_used: int
    trajectory: tuple[float, ...]
    converged: bool


def _random_projective_povm(dim: int, n: int, rng: np.random.Generator) -> list[Array]:
    # Haar-rotated rank patterns; outcomes beyond dim get zero effects
    u = haar_unitary(dim, rng)
    effects = []
    for x in range(n):
        cols = u[:, [i for i in range(dim) if i % n == x]]
        effects.append(cols @ dagger(cols) if cols.shape[1] else np.zeros((dim, dim), complex))
    return effects


def _objective(
    ps: Sequence[float],
    rhos4: Sequence[Array],
    p_eff: Sequence[Array],
    q_eff: Sequence[Array],
) -> float:
    return float(
        sum(
            p * np.einsum("ik,jl,klij->", pe, qe, r4).real
            for p, pe, qe, r4 in zip(ps, p_eff, q_eff, rhos4)
        )
    )


def seesaw_pguess(ens: GuessingEnsemble, cfg: SeesawConfig) -> SeesawResult:
    """Alternating lower bound on the simultaneous guessing probability.

    Each sweep fixes Charlie's POVM, reduces Bob's side to a single-party
    discrimination of the conditional operators
    ``p_x tr_C((I ⊗ Q_x) rho_x)`` and solves it, then does the same for
    Charlie.  The trajectory of objective values is nondecreasing and
    every iterate is feasible, so the result is a lower bound.

    Starting points tried, best result returned: every POVM in
    ``cfg.warm_starts``, the constant-guess POVM for the likeliest label
    (which pins the value to at least ``max_x p_x``), and
    ``cfg.restarts`` Haar-random projective POVMs.
    """
    n = ens.n_outcomes
    db, dc = ens.dims
    ps = [p for p, _ in ens.entries]
    rhos4 = [s.reshape(db, dc, db, dc) for _, s in ens.entries]

    constant_guess = [np.zeros((dc, dc), dtype=complex) for _ in range(n)]
    constant_guess[int(np.argmax(ps))] = np.eye(dc, dtype=complex)

    best: SeesawResult | None = None
    for r in range(len(cfg.warm_starts) + 1 + cfg.restarts):
        if r < len(cfg.warm_starts):
            start = cfg.warm_starts[r]
            if start.dim != dc or start.n_outcomes != n:
                raise DimensionMismatch("warm start does not match the ensemble")
            q_eff: list[Array] = list(start.effects)
        elif r == len(cfg.warm_starts):
            q_eff = list(constant_guess)
        else:
            q_eff = _random_projective_povm(dc, n, cfg.rng)
        p_eff: list[Array] | None = None
        trajectory: list[float] = []
        converged = False
        for _ in range(_SEESAW_ITERS):
            cond_b = [
                _herm(p * np.einsum("ja,iakj->ik", q, r4))
                for p, q, r4 in zip(ps, q_eff, rhos4)
            ]
            p_eff = discriminate(cond_b, init=p_eff).effects
            cond_c = [
                _herm(p * np.einsum("ia,ajil->jl", pe, r4))
                for p, pe, r4 in zip(ps, p_eff, rhos4)
            ]
            q_eff = discriminate(cond_c, init=q_eff).effects
            trajectory.append(_objective(ps, rhos4, p_eff, q_eff))
            if len(trajectory) >= 2 and trajectory[-1] - trajectory[-2] < _SEESAW_EPS:
                converged = True
                break
        result = SeesawResult(
            value=trajectory[-1],
            bob_povm=Povm(db, tuple(p_eff)),
            charlie_povm=Povm(dc, tuple(q_eff)),
            iterations_used=len(trajectory),
            trajectory=tuple(trajectory),
            converged=converged,
        )
        if best is None or result.value > best.value:
            best = result
    assert best is not None
    return best


def pwin_unif_seesaw(
    e: QecmScheme,
    ch: KrausChannel,
    key_samples: int,
    cfg: SeesawConfig,
    warm_start: Callable[[QecmScheme, Any], Sequence[Povm]] | None = None,
    keys: Sequence | None = None,
) -> tuple[float, float]:
    """Seesaw estimate of the uniform-message success for a fixed channel.

    With the cloning channel fixed, the per-key POVM optimizations
    decouple, so this averages per-key seesaw values over sampled keys.
    ``warm_start(e, key)`` may supply per-key initial Charlie POVMs.
    Returns the sample mean and standard error of a statistical lower
    bound estimate.
    """
    key_list = e.keys_for(key_samples, cfg.rng, keys)
    vals = np.empty(len(key_list))
    for i, key in enumerate(key_list):
        ens = ensemble_from_scheme_key(e, key, ch)
        sub_cfg = cfg
        if warm_start is not None:
            ws = tuple(warm_start(e, key)) + cfg.warm_starts
            sub_cfg = replace(cfg, warm_starts=ws)
        vals[i] = seesaw_pguess(ens, sub_cfg).value
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return mean, stderr


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


def _bloch_grid(grid: int) -> Array:
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


def _max_linear_on_grid(w: Array, grid: int) -> Array:
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


def _pauli_vector(h: Array) -> Array:
    return np.array([float(np.trace(s @ h).real) for s in _PAULIS[1:]])


def brute_force_pguess_qubit(ens: GuessingEnsemble, grid: int) -> float:
    """Grid-search oracle over products of projective qubit measurements.

    For a 2-outcome ensemble on a qubit pair, each side's outcome-0
    effect ranges over rank-1 projectors on a ``grid`` polar by ``grid``
    azimuthal Bloch mesh (poles included) plus the two trivial binary
    POVMs; returns the exact maximum of the objective over all candidate
    pairs.  In Bloch coordinates the objective is multi-affine, so the
    best partner grid point for each candidate is found in closed form
    rather than by pairwise enumeration.  Within ``O(1/grid)`` of the
    projective optimum; intended purely as a cross-check oracle.
    """
    if ens.dims != (2, 2):
        raise DimensionMismatch(f"oracle needs qubit pairs, got dims {ens.dims}")
    if ens.n_outcomes != 2:
        raise DimensionMismatch("oracle handles 2-outcome ensembles only")
    if grid < 4:
        raise ValueError("grid must be at least 4")
    (p0, rho0), (p1, rho1) = ens.entries
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
    def half_max(r: Array) -> float:
        return float(_max_linear_on_grid(r[None, :] / 2.0, grid)[0])

    best = max(best, p0 * (0.5 + half_max(r0b)), p0 * (0.5 + half_max(r0c)))
    best = max(best, p1 * (0.5 + half_max(-r1b)), p1 * (0.5 + half_max(-r1c)))
    # both sides trivial: constant joint guesses
    return max(best, p0, p1)
