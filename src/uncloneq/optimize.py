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
``(K, M, d, d)`` ciphertext stack, which serves the warm start and goes
through the channel at once on the channel's support
(:func:`_chunk_matrices`): only the ``s`` output rows some Kraus operator
reaches (``2d`` of ``(d+1)²`` for the superposition cloner, ``d`` of
``d²`` for measure-and-share) are held, as ``(K, M, s, s)`` blocks, and
both receivers' conditional operators are formed from them by a gather
and a one-hot contraction.  Keys are walked by :func:`config.key_chunks`
like every other evaluator's, with one per-key count
(:func:`seesaw_key_entries`): a key's support blocks and its lockstep
rows, each at most ``config.ENTRIES_CAP`` entries.  Each (key, start)
pair keeps only its last value and sweep count, and the stacked seesaw
hands back its best start's pair per key.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .attacks import receiver_dim, receiver_effects
from .config import check_entries, check_keys, key_chunks
from .errors import CrossCheckFailed, DimensionMismatch
from .linalg import (
    Array,
    KrausChannel,
    _haar_from_ginibre,
    _on_support,
    _support,
    assert_hermitian,
    dagger,
    herm_eig,
)
from .schemes import QecmScheme, validate_effects

__all__ = [
    "DiscriminationResult",
    "discriminate",
    "pwin_unif_seesaw",
    "seesaw_key_entries",
]

# fixed-point budget of one single-party solve, and of the seesaw around it
_FP_ITERS = 300
_FP_EPS = 1e-12
_SEESAW_ITERS = 500
_SEESAW_EPS = 1e-9
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


def _starts(
    n: int, dc: int, warm: Array | None, keys: int, rng: np.random.Generator, restarts: int
) -> Array:
    """Charlie's start POVMs for each of ``keys`` keys, as a ``(keys, S, n, dc, dc)`` stack.

    Each key's ensemble has ``n`` equally likely labels and Charlie's side
    has dimension ``dc``.  Per key: its ``(n, dc, dc)`` effects in the
    ``(keys, n, dc, dc)`` stack ``warm``, when given, then the constant
    guess of label 0 (which pins the value to at least ``1/n``), then
    ``restarts`` Haar-random projective POVMs, whose outcome x projects
    onto the columns ``i = x mod n`` of a Haar unitary (a zero effect for
    ``x >= dc``).  All restarts come from one draw of ``rng`` that reads
    it key by key and restart by restart, each unitary's real then
    imaginary part, as one :func:`~uncloneq.linalg.haar_unitary` call per
    restart would.
    """
    g = rng.standard_normal((keys * restarts, 2, dc, dc))
    u = _haar_from_ginibre(g[:, 0] + 1j * g[:, 1])
    randoms = np.zeros((keys * restarts, n, dc, dc), dtype=complex)
    for x in range(min(n, dc)):
        cols = u[:, :, x::n]
        randoms[:, x] = cols @ dagger(cols)
    constant = np.zeros((keys, 1, n, dc, dc), dtype=complex)
    constant[:, 0, 0] = np.eye(dc)
    firsts = [constant] if warm is None else [warm[:, None], constant]
    return np.concatenate(firsts + [randoms.reshape(keys, restarts, n, dc, dc)], axis=1)


def _chunk_matrices(ch: KrausChannel, stack: Array, side: int) -> tuple[Array, Array, Array]:
    """A chunk's ``(K, M, d, d)`` ciphertext stack under the channel, on its support.

    The support ``S`` is the ``s`` output rows of ``B ⊗ C``, both sides
    ``side``-dimensional, that some left Kraus factor reaches; every other
    entry of an output state is zero.  Returns the ``(K, M, s, s)`` blocks
    ``rho_S / M`` of the output states ``rho_kx = N(Enc_k(x))``, each
    formed by :func:`linalg._on_support` and checked Hermitian, and each
    support row's Bob and Charlie index ``(b(S), c(S)) = divmod(S, side)``.
    """
    support = _support(ch.left)
    rho = _on_support(ch.left[:, support], ch.compress(stack))
    assert_hermitian(rho)
    rho *= 1.0 / stack.shape[1]
    return (rho, *divmod(support, side))


def _seesaw(
    rho: Array, rows: tuple[Array, Array], dims: tuple[int, int], starts: Array
) -> tuple[Array, Array]:
    """Lockstep seesaw of every (key, start) pair; the best start's value and sweeps per key.

    ``rho[k]`` holds key k's ``(M, s, s)`` support blocks and ``rows`` the
    support rows' Bob and Charlie indices ``(b(S), c(S))``, as
    :func:`_chunk_matrices` gives them; ``starts[k, t]`` is Charlie's start
    POVM ``t`` for key k; ``_seesaw`` takes ``starts`` over as Charlie's
    effect stack and overwrites it with each problem's final effects.
    Bob's conditional operator ``tr_C((I ⊗ Q_x) rho_x) / M`` is
    ``Pᵀ (rho_S ∘ Qᵀ[c(S), c(S)]) P``, with ``P`` the one-hot
    ``(s, side)`` map of ``b(S)``, and Charlie's is the mirror image: a
    gather, a product and two matmuls per side and sweep, over every live
    (key, start, outcome).  Each problem keeps its last
    value and sweep count, and stops on its own once a sweep gains less
    than ``_SEESAW_EPS`` over the one before, or after ``_SEESAW_ITERS``
    sweeps.  Returns each key's best start: its value and sweep count.
    """
    db, dc = dims
    keys, per_key, n = starts.shape[:3]
    b_rows, c_rows = rows
    fold_b = (b_rows[:, None] == np.arange(db)).astype(complex)
    fold_c = (c_rows[:, None] == np.arange(dc)).astype(complex)

    total = keys * per_key
    rho_t = np.swapaxes(rho, -1, -2)

    def conditional(eff: Array, live: Array, gather: Array, fold: Array) -> Array:
        # foldᵀ (rho_x ∘ eff_xᵀ[gather, gather]) fold for every live problem and outcome x,
        # as foldᵀ ((rho_xᵀ ∘ eff_x[gather, gather]) fold)ᵀ
        s, dim = fold.shape
        h = eff.take(gather, axis=-2).take(gather, axis=-1)
        h *= rho_t[live // per_key]
        half = np.swapaxes((h.reshape(-1, s) @ fold).reshape(-1, s, dim), 1, 2)
        return (half.reshape(-1, s) @ fold).reshape(len(live), n, dim, dim)

    q_eff = starts.reshape(total, n, dc, dc)
    p_eff = np.zeros((total, n, db, db), dtype=complex)
    values = np.full(total, -np.inf)
    sweeps = np.zeros(total, dtype=int)
    live = np.arange(total)
    for sweep in range(_SEESAW_ITERS):
        cond_b = conditional(q_eff[live], live, c_rows, fold_b)
        p_init = None if sweep == 0 else p_eff[live]
        p_eff[live] = p = _discriminate(_herm(cond_b), p_init)[1]
        cond_c = conditional(p, live, b_rows, fold_c)
        val, q_eff[live], _ = _discriminate(_herm(cond_c), q_eff[live])
        gained = val - values[live] >= _SEESAW_EPS
        values[live] = val
        sweeps[live] += 1
        live = live[gained]
        if not live.size:
            break
    best = np.arange(keys) * per_key + np.argmax(values.reshape(keys, per_key), axis=1)
    return values[best], sweeps[best]


def seesaw_key_entries(
    message_count: int, side: int, support: int, restarts: int, warm: bool
) -> int:
    """Complex entries one key holds in a lockstep chunk of :func:`pwin_unif_seesaw`.

    A key has the warm start when ``warm``, the constant guess and
    ``restarts`` restarts.  It holds its ``M s²`` entries of support blocks
    (``s = support`` output rows, each receiver ``side``-dimensional) and
    one lockstep row per start: Bob's and Charlie's effect stacks
    (``2 M side²``), and its conditional's gathered block beside the key's
    blocks copied to it (``2 M s²``).  Raises ``ValueError`` when
    ``restarts`` is below 1, or when either part is above
    ``config.ENTRIES_CAP``, so a size that cannot fit in memory is refused
    before any channel is built or key is drawn.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    starts = int(warm) + 1 + restarts
    blocks = message_count * support * support
    check_entries(blocks, f"one key's seesaw support blocks ({message_count} x {support}^2)")
    rows = starts * 2 * message_count * (side * side + support * support)
    check_entries(rows, f"one key's seesaw stack of {starts} starts")
    return blocks + rows


def pwin_unif_seesaw(
    e: QecmScheme,
    ch: KrausChannel,
    keys: Sequence,
    rng: np.random.Generator,
    restarts: int,
    warm_start: Callable[[Array], Array] | None = None,
) -> tuple[float, float]:
    """Seesaw estimate of the uniform-message success for a fixed channel.

    With the cloning channel fixed, the per-key POVM optimizations
    decouple, so this averages per-key seesaw values over ``keys``.
    ``warm_start``, when given, maps a chunk's ``(K, M, d, d)`` ciphertext
    stack to Charlie's first start for each of its keys, a ``(K, M, side,
    side)`` effect stack checked as a receiver's effects are
    (:func:`~uncloneq.attacks.receiver_effects`).  Keys are solved in
    the chunks of :func:`config.key_chunks`, each key counted by
    :func:`seesaw_key_entries`, every (key, start) pair of a chunk as one
    lockstep stack.  Each chunk's keys are read once, as one stack
    (:func:`_chunk_matrices`); ``restarts`` restarts per key, at least
    one, are drawn from ``rng`` key by key.  Returns the sample mean and
    standard error of a statistical lower bound estimate.
    """
    check_keys(keys)
    n = e.message_count
    side = receiver_dim(e, ch)
    per_key = seesaw_key_entries(n, side, len(_support(ch.left)), restarts, warm_start is not None)
    vals = []
    for chunk in key_chunks(len(keys), per_key):
        stack = e.ciphertext_stack(keys[chunk])
        rho, *rows = _chunk_matrices(ch, stack, side)
        warm = None
        if warm_start is not None:
            warm = receiver_effects(warm_start, warm_start, stack, (side, side))[0]
        starts = _starts(n, side, warm, len(stack), rng, restarts)
        vals.append(_seesaw(rho, rows, (side, side), starts)[0])
    vals = np.concatenate(vals)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return mean, stderr
