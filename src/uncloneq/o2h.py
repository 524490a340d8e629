"""Two-party oracle-guessing counterexample and the simultaneous-O2H bound.

Two non-communicating parties share a fixed four-qubit state, each query
a one-bit random function ``H`` once, and each measure a fixed binary
projective measurement to guess ``H(0)``.  The construction here makes
both succeed with probability 9/16 while a computational-basis
measurement of the two query registers never returns ``(0, 0)``, so the
query-extraction probability is exactly zero.

Register layout is ``(B_query, B_out, C_query, C_out)``, so basis index
``8 b_q + 4 b_o + 2 c_q + c_o`` in the 16-dimensional joint space.  Each
side's 4-dimensional space splits as ``span{|0,0>, |0,1>}`` (the oracle
answer lives here) plus ``|1,+>`` and ``|1,->``; the guessing projector
acts on the first three directions.

Everything in this module is deterministic; no randomness is involved.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .attacks import guessing_projector
from .linalg import Array, dagger

__all__ = [
    "build_counterexample_state",
    "extraction_probability",
    "oracle_unitary",
    "side_embedding",
    "side_measurement",
    "simo2h_rhs",
    "simo2h_success",
]

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def build_counterexample_state() -> Array:
    """Shared input state ``(|0,0>_B |1,+>_C + |1,+>_B |0,0>_C)/sqrt(2)``."""
    zero_zero = np.zeros(4, dtype=complex)
    zero_zero[0] = 1.0  # |0>|0>
    one_plus = np.zeros(4, dtype=complex)
    one_plus[2] = _SQRT_HALF  # |1>|0>
    one_plus[3] = _SQRT_HALF  # |1>|1>
    psi = _SQRT_HALF * (np.kron(zero_zero, one_plus) + np.kron(one_plus, zero_zero))
    return psi


def oracle_unitary(h0: int, h1: int) -> Array:
    """Query unitary ``|x>|y> -> |x>|y xor H(x)>`` on one side's two qubits."""
    table = (int(h0) & 1, int(h1) & 1)
    op = np.zeros((4, 4), dtype=complex)
    for x in range(2):
        for y in range(2):
            op[2 * x + (y ^ table[x]), 2 * x + y] = 1.0
    return op


def side_embedding() -> Array:
    """Isometry from the 3-dim guessing space into one side's two qubits.

    Columns map the answer directions ``|0,0>``, ``|0,1>`` and the extra
    ambient direction to ``|1,+>``; the fourth direction ``|1,->`` of the
    side space is untouched by the guessing projector.
    """
    w = np.zeros((4, 3), dtype=complex)
    w[0, 0] = 1.0
    w[1, 1] = 1.0
    w[2, 2] = _SQRT_HALF
    w[3, 2] = _SQRT_HALF
    return w


def side_measurement() -> tuple[Array, Array]:
    """Binary projective measurement each party uses to guess ``H(0)``.

    Outcome ``b`` projector: outcome 0 is the guessing projector built at
    ``alpha = 1/4`` for the orthogonal pair ``|0,0>`` vs ``|0,1>`` with
    the extra direction embedded as ``|1,+>``; outcome 1 is its
    complement.
    """
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    pi_small = guessing_projector(rho, sigma, 0.25)
    w = side_embedding()
    pi0 = w @ pi_small @ dagger(w)
    return pi0, np.eye(4, dtype=complex) - pi0


def simo2h_success() -> float:
    """Probability that both parties output ``H(0)``, averaged over ``H``.

    Each side queries once (identity post-processing), then measures the
    fixed binary projector pair; success on table ``H`` is
    ``||(pi^{H(0)} ⊗ pi^{H(0)}) (O^H ⊗ O^H) |psi>||^2``.  Evaluates to
    exactly 9/16.
    """
    psi = build_counterexample_state()
    measurement = side_measurement()
    total = 0.0
    for h0, h1 in product((0, 1), repeat=2):
        oracle = oracle_unitary(h0, h1)
        after = np.kron(oracle, oracle) @ psi
        proj = np.kron(measurement[h0], measurement[h0])
        total += float(np.vdot(proj @ after, proj @ after).real)
    return total / 4.0


def extraction_probability() -> float:
    """Probability that measuring both query registers returns ``(0, 0)``.

    With a single query per side there is nothing to average over: this
    is the weight of the shared input state on ``B_query = C_query = 0``,
    which vanishes by construction.
    """
    psi = build_counterexample_state()
    zero = np.diag([1.0, 0.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    proj = np.kron(np.kron(zero, eye), np.kron(zero, eye))
    out = proj @ psi
    return float(np.vdot(out, out).real)


def simo2h_rhs(n: int, q_b: int, q_c: int, m_val: float) -> float:
    """Right-hand side of the simultaneous one-way-to-hiding bound.

    ``9 / 2^n + (3 q_B q_C + 2) q_B q_C sqrt(M)`` for ``n`` output bits,
    per-party query counts and extraction probability ``m_val``.
    """
    if m_val < 0:
        raise ValueError("the extraction probability must be nonnegative")
    return 9.0 / 2.0**n + (3.0 * q_b * q_c + 2.0) * q_b * q_c * math.sqrt(m_val)
