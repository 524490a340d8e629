"""Lower bounds on simultaneous guessing probabilities.

Two separated parties each measure their half of a (classically labeled)
joint state and win when both recover the label.  The seesaw here
alternates exact single-party best responses: with one side's POVM fixed,
the other side faces an ordinary minimum-error discrimination problem,
which is solved exactly for two outcomes (Helstrom) and by an operator
fixed-point iteration otherwise.  Every iterate is a feasible product
measurement, so all reported values are certified lower bounds.

The solver works on stacks of problems.  Operators and effects are
``(P, n, d, d)`` arrays, one row per problem; the Helstrom branch is one
batched eigendecomposition, and the fixed point and the seesaw run all
problems in lockstep while each keeps its own stop rule, best iterate and
constant-guess floor; every iterate is a POVM by construction, held as
Gram factors ``P_x = A_x A_x†``.  :func:`discriminate` is the stacked
solver on a stack of one problem.

:func:`pwin_unif_seesaw` is the one way into the seesaw.  It takes its
key list explicitly, with uniform messages, and stacks every (key, start)
pair of a chunk of keys.  Each chunk's keys are read as one
``(K, M, d, d)`` ciphertext stack, which goes through the channel at once
(:func:`_chunk_matrices`) and serves the warm start, and a chunk holds at
most ``_CHUNK_ENTRIES`` complex entries of per-key matrices and lockstep
rows (at least one key).  A single key's ensemble, and one chunk's
lockstep stack, may each need at most ``config.ENTRIES_CAP`` entries
(:func:`seesaw_stack_entries` refuses larger sizes before anything is
drawn).  The stacked seesaw hands back one row per key: its best start's
value and both receivers' effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .attacks import receiver_dim, receiver_effects
from .config import check_entries, check_keys
from .errors import CrossCheckFailed, DimensionMismatch
from .linalg import (
    Array,
    KrausChannel,
    apply_channel,
    assert_hermitian,
    dagger,
    haar_unitary,
    herm_eig,
)
from .schemes import QecmScheme, validate_effects

__all__ = [
    "DiscriminationResult",
    "SeesawConfig",
    "discriminate",
    "pwin_unif_seesaw",
    "seesaw_stack_entries",
]

# fixed-point budget of one single-party solve, and of the seesaw around it
_FP_ITERS = 300
_FP_EPS = 1e-12
_SEESAW_ITERS = 500
_SEESAW_EPS = 1e-9
# complex entries one chunk of keys may hold (2 MB, at least one key): each
# key's per-key matrices plus its starts' lockstep rows, as _chunk_keys counts
_CHUNK_ENTRIES = 2**17
# eigenvalues of T / tr T at or below this span the kernel of a square-root measurement's T
_KERNEL_CUTOFF = 1e-14


def _herm(a: Array) -> Array:
    return (a + dagger(a)) / 2


def _traces(a: Array) -> Array:
    # real traces of a stack of matrices
    return np.trace(a, axis1=-2, axis2=-1).real


def _pair_traces(a: Array, b: Array) -> Array:
    # tr(A B) for matching stacks of matrices
    return (a * np.swapaxes(b, -1, -2)).sum(axis=(-2, -1)).real


def _rows(keep: Array, *stacks: Array) -> tuple[Array, ...]:
    # the rows of each stack where the boolean mask ``keep`` holds
    return stacks if keep.all() else tuple(a[keep] for a in stacks)


def _eye_at(shape: tuple[int, ...], dim: int, idx: Array) -> Array:
    # stack of effect sets, each the identity at outcome idx[p] and zero elsewhere
    out = np.zeros(shape + (dim, dim), dtype=complex)
    out[np.arange(shape[0]), idx] = np.eye(dim)
    return out


# ---------------------------------------------------------------------------
# single-party discrimination, stacked
# ---------------------------------------------------------------------------


def _factors(e: Array) -> Array:
    # a factor A_x of each PSD operator, E_x = A_x A_x†, rounding below zero clipped
    w, v = herm_eig(_herm(e))
    return v * np.sqrt(np.maximum(w, 0.0))[..., None, :]


def _sqrt_measurement(b: Array, g: Array) -> Array:
    """Factors of the square-root measurement of ``X_x = b_x b_x†``, per problem.

    ``b`` is a ``(P, n, d, d)`` stack of factors, ``g`` the operators
    ``G_x``.  Outcome x gets ``T^-1/2 b_x``, ``T = sum_x X_x``: block x of
    ``U W†`` for the stacked factor ``[b_0 | ... | b_{n-1}] = U S W†``, over
    the singular values with ``s² / tr T`` above ``_KERNEL_CUTOFF``.  The
    rest of ``U`` spans the kernel of ``T``; it joins the outcome whose
    ``G_x`` it scores highest, folded back to ``d`` columns by one thin QR
    run only on the problems that have a kernel.  Every effect is a Gram
    matrix, PSD by construction, and as ``U`` and ``W`` are orthonormal the
    effects sum to the identity to rounding (``T^-1/2`` from an eigh of
    ``T`` would amplify rounding by ``tr T / s²``).
    """
    p, n, dim, k = b.shape
    u, s, wh = np.linalg.svd(np.moveaxis(b, 1, 2).reshape(p, dim, n * k), full_matrices=False)
    keep = s**2 > _KERNEL_CUTOFF * (s**2).sum(axis=1, keepdims=True)
    out = np.moveaxis(((u * keep[:, None, :]) @ wh).reshape(p, dim, n, k), 2, 1)
    rows = np.flatnonzero(~keep.all(axis=1))
    if rows.size:
        kernel = u[rows] * ~keep[rows, None, :]
        x = np.argmax(_pair_traces((kernel @ dagger(kernel))[:, None], g[rows]), axis=1)
        joined = np.concatenate([out[rows, x], kernel], axis=-1)
        out[rows, x] = dagger(np.linalg.qr(dagger(joined), mode="r"))
    return out


def _pgm(gs: Array) -> Array:
    # factors of the square-root measurement of each problem's (possibly subnormalized) operators
    return _sqrt_measurement(_factors(gs), gs)


def _fixed_point(gs: Array, a: Array) -> tuple[Array, Array, Array]:
    """Operator fixed-point ascent for max_POVM sum_x tr(P_x G_x), per problem.

    ``gs`` is a ``(P, n, d, d)`` stack and ``a`` the factors of each
    problem's start, ``P_x = A_x A_x†``; returns the values, effects and
    convergence flags of all P problems.  A sweep is the Ježek–Řeháček–
    Fiurášek update ``P_x <- r^-1/2 G_x P_x G_x r^-1/2``, run as
    ``A <- _sqrt_measurement(G A, G)``, so every iterate is a POVM.  Each
    problem runs at most ``_FP_ITERS`` sweeps and stops once a sweep gains
    less than ``_FP_EPS`` or its ``r`` vanishes: ``converged`` is false only
    when the sweeps ran out.  The best iterate is tracked, so no returned
    value drops below the starting one.
    """
    effects = a @ dagger(a)
    cur = _pair_traces(effects, gs).sum(axis=1)
    best_val, best_eff = cur.copy(), effects
    converged = np.zeros(len(gs), dtype=bool)
    live = np.arange(len(gs))
    g = gs
    for _ in range(_FP_ITERS):
        if not live.size:
            break
        b = g @ a
        vanished = (np.abs(b) ** 2).sum(axis=(1, 2, 3)) < 1e-30
        converged[live[vanished]] = True
        live, g, cur, b = _rows(~vanished, live, g, cur, b)
        a = _sqrt_measurement(b, g)
        new = a @ dagger(a)
        val = _pair_traces(new, g).sum(axis=1)
        better = val > best_val[live]
        best_val[live[better]] = val[better]
        best_eff[live[better]] = new[better]
        done = val - cur < _FP_EPS
        converged[live[done]] = True
        live, g, a, cur = _rows(~done, live, g, a, val)
    return best_val, best_eff, converged


def _discriminate(gs: Array, init: Array | None) -> tuple[Array, Array, Array]:
    # values, effects and convergence flags of a (P, n, d, d) stack; see discriminate
    p, n, dim = gs.shape[:3]
    if n == 1:
        return _traces(gs[:, 0]), _eye_at((p, 1), dim, np.zeros(p, dtype=int)), np.ones(p, bool)
    if n == 2:
        w, v = herm_eig(_herm(gs[:, 0] - gs[:, 1]))
        pos = v * (w > 0)[:, None, :]
        eff0 = _herm(pos @ dagger(pos))
        effects = np.stack([eff0, np.eye(dim) - eff0], axis=1)
        value = 0.5 * (_traces(gs[:, 0] + gs[:, 1]) + np.abs(w).sum(axis=1))
        # the trace-norm value and the achieved value must agree (exact algebra)
        achieved = _pair_traces(effects, gs).sum(axis=1)
        bad = np.flatnonzero(np.abs(achieved - value) > 1e-10)
        if bad.size:
            i = bad[0]
            raise CrossCheckFailed(f"Helstrom value {value[i]} not achieved ({achieved[i]})")
        return value, effects, np.ones(p, bool)
    val, effects, converged = _fixed_point(gs, _pgm(gs) if init is None else _factors(init))
    traces = _traces(gs)
    top = np.argmax(traces, axis=1)
    floor = traces[np.arange(p), top]
    low = val < floor
    if low.any():
        effects[low] = _eye_at((int(low.sum()), n), dim, top[low])
        val[low], converged[low] = floor[low], True
    return val, effects, converged


class DiscriminationResult(NamedTuple):
    """Value, effects and convergence flag of :func:`discriminate`."""

    value: float
    effects: Array
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
    ``max_x tr(G_x)``.  ``converged`` is false only when the iteration ran
    out of sweeps.  An ``init`` of another shape than ``gs`` raises
    :class:`DimensionMismatch`, and one that is not a POVM
    :class:`~uncloneq.errors.InvalidOperator`
    (:func:`~uncloneq.schemes.validate_effects`).  The effects come back as
    one ``(n, d, d)`` array.  This is the stacked solver run on a stack of
    one problem.
    """
    if not len(gs):
        raise ValueError("need at least one operator to discriminate")
    stack = np.asarray(gs, dtype=complex)[None]
    start = None
    if init is not None:
        start = np.asarray(init, dtype=complex)[None]
        if start.shape != stack.shape:
            raise DimensionMismatch(f"start {start.shape[1:]} != operators {stack.shape[1:]}")
        validate_effects(start)
    val, effects, converged = _discriminate(stack, start)
    return DiscriminationResult(float(val[0]), effects[0], bool(converged[0]))


# ---------------------------------------------------------------------------
# seesaw over product measurements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeesawConfig:
    """Settings for the alternating product-measurement optimization."""

    rng: np.random.Generator
    restarts: int = 1

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


def _random_projective_povm(dim: int, n: int, rng: np.random.Generator) -> list[Array]:
    # Haar-rotated rank patterns; outcomes beyond dim get zero effects
    u = haar_unitary(dim, rng)
    effects = []
    for x in range(n):
        cols = u[:, [i for i in range(dim) if i % n == x]]
        effects.append(cols @ dagger(cols) if cols.shape[1] else np.zeros((dim, dim), complex))
    return effects


def _starts(n: int, dc: int, warm: Sequence[Array], cfg: SeesawConfig) -> Array:
    """Charlie's start POVMs for one key, as an ``(S, n, dc, dc)`` stack.

    The key's ensemble has ``n`` equally likely labels and Charlie's side
    has dimension ``dc``.  Every ``(n, dc, dc)`` effect array in ``warm``,
    then the constant guess of label 0 (which pins the value to at least
    ``1/n``), then ``cfg.restarts`` Haar-random projective POVMs drawn
    from ``cfg.rng``.
    """
    constant = np.zeros((n, dc, dc), dtype=complex)
    constant[0] = np.eye(dc)
    randoms = [_random_projective_povm(dc, n, cfg.rng) for _ in range(cfg.restarts)]
    return np.stack(list(warm) + [constant] + randoms)


def _chunk_matrices(ch: KrausChannel, stack: Array, side: int) -> Array:
    """Per-key matrices of a chunk's ``(K, M, d, d)`` ciphertext stack under uniform messages.

    The whole stack goes through :func:`linalg.apply_channel` at once and
    the output states ``rho_kx = N(Enc_k(x))`` on ``B ⊗ C``, both sides
    ``side``-dimensional, are checked Hermitian once.  One layout copy,
    scaled by ``1/M``, gives ``out[k, x, (i,k'), (j,a)] = rho_kx[(i,a),(k',j)] / M``.
    The chunk's states are as large as its matrices.
    """
    k, m = stack.shape[:2]
    states = apply_channel(ch, stack)
    assert_hermitian(states)
    view = np.moveaxis(states.reshape(k, m, side, side, side, side), 3, 5)
    return np.multiply(view, 1.0 / m, order="C").reshape(k, m, side * side, side * side)


def _seesaw(bmat: Array, dims: tuple[int, int], starts: Array) -> tuple[Array, ...]:
    """Lockstep seesaw of every (key, start) pair; the best start's row per key.

    ``bmat[k]`` holds key k's ensemble as :func:`_chunk_matrices` lays
    it out, and ``starts[k, s]`` is Charlie's start POVM ``s`` for key k.
    With ``B = bmat[k, x]``, Bob's conditional operator
    ``tr_C((I ⊗ Q_x) rho_x) / M`` is ``B vec(Q_x)`` and Charlie's
    ``tr_B((P_x ⊗ I) rho_x) / M`` is ``(Bᵀ vec(P_xᵀ))ᵀ``: one batched
    matmul per side and sweep for all problems.  Each problem stops on
    its own once a sweep gains less than ``_SEESAW_EPS``.
    Returns each key's best start: values, Bob's and Charlie's effect
    stacks, sweep counts, convergence flags, and trajectories as the
    columns of a ``(_SEESAW_ITERS, keys)`` array, zero past each count.
    """
    db, dc = dims
    keys, per_key, n = starts.shape[:3]

    def conditional(mat: Array, eff: Array, d_in: int, d_out: int) -> Array:
        # mat_kx vec(eff_px) for every problem, as (keys, starts, n, d_out, d_out)
        cols = eff.reshape(keys, per_key, n, d_in * d_in).transpose(0, 2, 3, 1)
        return (mat @ cols).transpose(0, 3, 1, 2).reshape(keys, per_key, n, d_out, d_out)

    total = keys * per_key
    q_eff = starts.reshape(total, n, dc, dc).astype(complex)
    p_eff = np.zeros((total, n, db, db), dtype=complex)
    # sweep-major, so only the rows of sweeps that ran are ever touched
    trajectory = np.zeros((_SEESAW_ITERS, total))
    sweeps = np.zeros(total, dtype=int)
    converged = np.zeros(total, dtype=bool)
    live = np.arange(total)
    for sweep in range(_SEESAW_ITERS):
        cond_b = conditional(bmat, q_eff, dc, db).reshape(total, n, db, db)[live]
        p_init = None if sweep == 0 else p_eff[live]
        p_eff[live] = _discriminate(_herm(cond_b), p_init)[1]
        p_t = np.swapaxes(p_eff, -1, -2)
        cond_c = conditional(np.swapaxes(bmat, -1, -2), p_t, db, dc)
        cond_c = np.swapaxes(cond_c, -1, -2).reshape(total, n, dc, dc)[live]
        val, q_eff[live], _ = _discriminate(_herm(cond_c), q_eff[live])
        trajectory[sweep, live] = val
        sweeps[live] = sweep + 1
        if sweep:
            done = val - trajectory[sweep - 1, live] < _SEESAW_EPS
            converged[live[done]] = True
            live = live[~done]
            if not live.size:
                break
    values = trajectory[sweeps - 1, np.arange(total)]
    best = np.arange(keys) * per_key + np.argmax(values.reshape(keys, per_key), axis=1)
    return (
        values[best], p_eff[best], q_eff[best], sweeps[best], converged[best], trajectory[:, best]
    )


def _chunk_keys(message_count: int, out_dim: int, starts: int) -> int:
    """Keys per lockstep chunk of :func:`pwin_unif_seesaw`, at least one.

    A key with ``starts`` starts costs its ensemble, ``M out_dim²``
    complex entries of per-key matrices, plus ``starts`` rows of the
    lockstep stack, each a ``_SEESAW_ITERS`` trajectory row and Bob's and
    Charlie's effect stacks (``2 M out_dim``).  Raises ``ValueError`` when
    one key's ensemble is above ``config.ENTRIES_CAP``.
    """
    entries = message_count * out_dim * out_dim
    check_entries(entries, f"one key's seesaw ensemble ({message_count} x {out_dim}^2)")
    per_key = entries + starts * (_SEESAW_ITERS + 2 * message_count * out_dim)
    return max(1, _CHUNK_ENTRIES // per_key)


def seesaw_stack_entries(
    message_count: int, out_dim: int, keys: int, restarts: int, warm: bool
) -> int:
    """Entries of the largest lockstep stack :func:`pwin_unif_seesaw` builds.

    One chunk holds ``min(keys, c)`` keys, ``c`` the keys per chunk, times
    the starts per key: the warm start when ``warm``, the constant guess
    and ``restarts`` restarts.  Each start holds a ``_SEESAW_ITERS``
    trajectory row and Bob's and Charlie's effect stacks, ``2 M out_dim``
    entries.  Raises ``ValueError`` when ``restarts`` is below 1, or when one
    key's ensemble or this stack is above ``config.ENTRIES_CAP``, so a size
    that cannot fit in memory, an oversize restart count included, is
    refused before any channel is built or key is drawn.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    starts = int(warm) + 1 + restarts
    chunk = min(keys, _chunk_keys(message_count, out_dim, starts))
    entries = chunk * starts * (_SEESAW_ITERS + 2 * message_count * out_dim)
    check_entries(entries, f"one chunk's seesaw stack of {chunk} keys x {starts} starts")
    return entries


def pwin_unif_seesaw(
    e: QecmScheme,
    ch: KrausChannel,
    keys: Sequence,
    cfg: SeesawConfig,
    warm_start: Callable[[Array], Array] | None = None,
) -> tuple[float, float]:
    """Seesaw estimate of the uniform-message success for a fixed channel.

    With the cloning channel fixed, the per-key POVM optimizations
    decouple, so this averages per-key seesaw values over ``keys``.
    ``warm_start``, when given, maps a chunk's ``(K, M, d, d)`` ciphertext
    stack to Charlie's first start for each of its keys, a ``(K, M, side,
    side)`` effect stack checked as a receiver's effects are
    (:func:`~uncloneq.attacks.receiver_effects`).  Keys are solved in
    chunks of at most ``_CHUNK_ENTRIES`` entries of per-key matrices and
    lockstep rows, every (key, start) pair of a chunk as one lockstep
    stack.  Each chunk's keys are read once, as one stack
    (:func:`_chunk_matrices`); restarts are drawn from ``cfg.rng`` key by
    key.  Returns the sample mean and standard error of a statistical
    lower bound estimate.
    """
    check_keys(keys)
    n = e.message_count
    chunk = _chunk_keys(n, ch.out_dim, int(warm_start is not None) + 1 + cfg.restarts)
    side = receiver_dim(e, ch)
    vals = []
    for lo in range(0, len(keys), chunk):
        stack = e.ciphertext_stack(keys[lo : lo + chunk])
        bmat = _chunk_matrices(ch, stack, side)
        if warm_start is None:
            warm = [()] * len(stack)
        else:
            warm = [(w,) for w in receiver_effects(warm_start, warm_start, stack, (side, side))[0]]
        starts = [_starts(n, side, w, cfg) for w in warm]
        vals.append(_seesaw(bmat, (side, side), np.stack(starts))[0])
    vals = np.concatenate(vals)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return mean, stderr
