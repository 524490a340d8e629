from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncloneq.attacks import superposition_cloner
from uncloneq.linalg import assert_projector
from uncloneq.o2h import (
    build_counterexample_state,
    extraction_probability,
    oracle_unitary,
    side_embedding,
    side_measurement,
    simo2h_rhs,
    simo2h_success,
)

from oracles import assert_unitary


def _index(bq, bo, cq, co):
    return 8 * bq + 4 * bo + 2 * cq + co


class TestCounterexampleState:
    def test_normalized(self):
        psi = build_counterexample_state()
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_amplitudes(self):
        psi = build_counterexample_state()
        assert abs(psi[_index(0, 0, 1, 0)] - 0.5) < 1e-12
        assert abs(psi[_index(0, 0, 1, 1)] - 0.5) < 1e-12
        assert abs(psi[_index(1, 0, 0, 0)] - 0.5) < 1e-12
        assert abs(psi[_index(1, 1, 0, 0)] - 0.5) < 1e-12
        assert abs(psi[_index(0, 0, 0, 0)]) < 1e-12


class TestOracleUnitary:
    def test_zero_function_is_identity(self):
        assert np.allclose(oracle_unitary(0, 0), np.eye(4))

    def test_table_lookup(self):
        oracle = oracle_unitary(1, 0)
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        ket01 = np.array([0, 1, 0, 0], dtype=complex)
        assert np.allclose(oracle @ ket00, ket01)

    def test_unitary_and_self_inverse(self):
        for h0, h1 in product((0, 1), repeat=2):
            oracle = oracle_unitary(h0, h1)
            assert_unitary(oracle)
            assert np.allclose(oracle @ oracle, np.eye(4))


class TestMeasurement:
    def test_completeness_and_projectivity(self):
        pi0, pi1 = side_measurement()
        assert np.max(np.abs(pi0 + pi1 - np.eye(4))) < 1e-12
        assert_projector(pi0)
        assert_projector(pi1)

    def test_unused_direction(self):
        # |1,-> is untouched by the guessing projector
        pi0, _ = side_measurement()
        minus = np.array([0, 0, 1, -1], dtype=complex) / np.sqrt(2)
        assert np.linalg.norm(pi0 @ minus) < 1e-12


class TestSuccess:
    def test_value(self):
        assert abs(simo2h_success() - 0.5625) < 1e-9

    def test_trivial_measurement_scores_half(self):
        psi = build_counterexample_state()
        measurement = (np.eye(4, dtype=complex), np.zeros((4, 4), dtype=complex))
        total = 0.0
        for h0, h1 in product((0, 1), repeat=2):
            oracle = oracle_unitary(h0, h1)
            after = np.kron(oracle, oracle) @ psi
            out = np.kron(measurement[h0], measurement[h0]) @ after
            total += np.vdot(out, out).real
        assert abs(total / 4 - 0.5) < 1e-12

    def test_second_table_entry_is_irrelevant(self):
        # the |1,+> branch is invariant under the query, so H(1) never matters
        psi = build_counterexample_state()
        pi = side_measurement()
        for h0 in (0, 1):
            vals = []
            for h1 in (0, 1):
                oracle = oracle_unitary(h0, h1)
                after = np.kron(oracle, oracle) @ psi
                out = np.kron(pi[h0], pi[h0]) @ after
                vals.append(np.vdot(out, out).real)
            assert abs(vals[0] - vals[1]) < 1e-12

    def test_post_query_state_is_cloner_output(self):
        # (O^H ⊗ O^H)|psi> equals the superposition cloner applied to |0>|H(0)>
        psi = build_counterexample_state()
        v = superposition_cloner(2).left[0]
        w = side_embedding()
        lift = np.kron(w, w)
        for h0, h1 in product((0, 1), repeat=2):
            after = np.kron(oracle_unitary(h0, h1), oracle_unitary(h0, h1)) @ psi
            phi = np.zeros(2, dtype=complex)
            phi[h0] = 1.0
            assert np.max(np.abs(after - lift @ (v @ phi))) < 1e-12


class TestExtraction:
    def test_counterexample_never_extracts(self):
        assert abs(extraction_probability()) < 1e-12

    def test_projector_on_aligned_and_antialigned_states(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        eye = np.eye(2, dtype=complex)
        proj = np.kron(np.kron(zero, eye), np.kron(zero, eye))
        aligned = np.zeros(16, dtype=complex)
        aligned[_index(0, 0, 0, 0)] = 1.0
        assert abs(np.linalg.norm(proj @ aligned) ** 2 - 1.0) < 1e-12
        swapped = np.zeros(16, dtype=complex)
        swapped[_index(0, 0, 1, 0)] = 1 / np.sqrt(2)
        swapped[_index(1, 0, 0, 0)] = 1 / np.sqrt(2)
        assert np.linalg.norm(proj @ swapped) < 1e-12


class TestRhs:
    def test_single_query_single_bit(self):
        assert simo2h_rhs(1, 1, 1, 0.0) == 4.5

    def test_no_queries(self):
        assert simo2h_rhs(3, 0, 0, 0.7) == 1.125

    def test_unit_extraction(self):
        assert simo2h_rhs(1, 1, 1, 1.0) == 9.5

    def test_rejects_negative_extraction(self):
        with pytest.raises(ValueError):
            simo2h_rhs(1, 1, 1, -0.1)

    def test_monotone_in_extraction(self):
        vals = [simo2h_rhs(2, 2, 3, m) for m in (0.0, 0.25, 0.5, 1.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @given(
        n=st.integers(min_value=1, max_value=40),
        q_b=st.integers(min_value=0, max_value=50),
        q_c=st.integers(min_value=0, max_value=50),
        m_val=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bound_floor_property(self, n, q_b, q_c, m_val):
        # never drops below the oracle-free term, grows with extraction
        val = simo2h_rhs(n, q_b, q_c, m_val)
        assert val >= 9.0 / 2.0**n
        assert simo2h_rhs(n, q_b, q_c, 0.0) == 9.0 / 2.0**n
