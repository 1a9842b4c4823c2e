"""Coherence-order decomposition and spectral observability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qparity import (
    COHERENCE_ORDERS,
    DensityMatrix,
    Parity,
    StateVector,
    classify,
    coherence_order,
    decompose_coherences,
    density_from_state,
    enumerate_functions,
    magnetization_classifies_parity,
    observability,
    run_even_odd,
    spin1_indistinguishability_check,
    threshold_separates,
    transverse_magnetization,
)
from qparity.reports import all_reports

INV_SQRT2 = 1.0 / np.sqrt(2.0)

RHO_EVEN = DensityMatrix(
    0.5 * np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
)
RHO_ODD = DensityMatrix(
    0.5 * np.array([[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]])
)


def final_density(f):
    return density_from_state(run_even_odd(f).final_state)


class TestCoherenceOrder:
    def test_reference_entries(self):
        assert coherence_order(0, 1) == 1  # |00><01|
        assert coherence_order(1, 2) == 0  # |01><10|
        assert coherence_order(0, 3) == 2  # |00><11|

    def test_antisymmetric(self):
        for i in range(4):
            for j in range(4):
                assert coherence_order(i, j) == -coherence_order(j, i)

    def test_range(self):
        orders = {coherence_order(i, j) for i in range(4) for j in range(4)}
        assert orders == set(COHERENCE_ORDERS)


class TestDecomposeCoherences:
    def test_even_density_has_only_zero_and_single_quantum_weight(self):
        decomposition = decompose_coherences(RHO_EVEN)
        for order in (-2, 2):
            assert np.max(np.abs(decomposition.orders[order])) == 0
        assert np.max(np.abs(decomposition.orders[1])) == pytest.approx(0.5)
        assert np.max(np.abs(decomposition.orders[-1])) == pytest.approx(0.5)

    def test_odd_density_is_pure_zero_quantum(self):
        decomposition = decompose_coherences(RHO_ODD)
        for order in (-2, -1, 1, 2):
            assert np.max(np.abs(decomposition.orders[order])) == 0
        assert np.max(np.abs(decomposition.orders[0])) == pytest.approx(0.5)

    def test_maximally_mixed_is_diagonal_order_zero(self):
        decomposition = decompose_coherences(DensityMatrix(np.eye(4) / 4))
        for order in (-2, -1, 1, 2):
            assert np.max(np.abs(decomposition.orders[order])) == 0
        np.testing.assert_allclose(decomposition.orders[0], np.eye(4) / 4, atol=0)

    def test_components_resum_for_all_circuit_outputs(self):
        for f in enumerate_functions():
            rho = final_density(f)
            decomposition = decompose_coherences(rho)
            np.testing.assert_allclose(
                decomposition.total(), rho.entries, atol=1e-12, err_msg=f.to_string()
            )

    def test_hermitian_symmetry_of_components(self):
        for f in enumerate_functions():
            decomposition = decompose_coherences(final_density(f))
            for order in (1, 2):
                np.testing.assert_allclose(
                    decomposition.orders[order],
                    decomposition.orders[-order].conj().T,
                    atol=1e-12,
                )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_resum_on_random_two_qubit_densities(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho = density_from_state(StateVector(raw / np.linalg.norm(raw)))
        decomposition = decompose_coherences(rho)
        np.testing.assert_allclose(decomposition.total(), rho.entries, atol=1e-12)

    def test_rejects_single_qubit_density(self):
        with pytest.raises(ValueError, match="two-qubit"):
            decompose_coherences(DensityMatrix(np.eye(2) / 2))


class TestObservability:
    def test_even_density_produces_a_line(self):
        report = observability(RHO_EVEN)
        assert report.observable_line
        assert report.single_quantum_weight == pytest.approx(1.0, abs=1e-12)
        assert report.zero_quantum_weight == pytest.approx(0.0, abs=1e-12)
        assert report.transverse_magnetization_q2 == pytest.approx(0.5, abs=1e-12)

    def test_odd_density_is_silent(self):
        report = observability(RHO_ODD)
        assert not report.observable_line
        assert report.single_quantum_weight == pytest.approx(0.0, abs=1e-12)
        assert report.zero_quantum_weight == pytest.approx(1.0, abs=1e-12)
        assert report.transverse_magnetization_q2 == pytest.approx(0.0, abs=1e-12)

    def test_populations_are_not_counted_as_zero_quantum_weight(self):
        report = observability(DensityMatrix(np.eye(4) / 4))
        assert report.zero_quantum_weight == 0
        assert not report.observable_line

    def test_first_spin_carries_no_signal_either_way(self):
        for f in enumerate_functions():
            rho = final_density(f)
            assert transverse_magnetization(rho, 1) == pytest.approx(0.0, abs=1e-12)

    def test_line_appears_exactly_for_even_functions(self):
        for f in enumerate_functions():
            report = observability(final_density(f))
            even = classify(f).parity is Parity.EVEN
            assert report.observable_line == even, f.to_string()
            expected = 0.5 if even else 0.0
            assert report.transverse_magnetization_q2 == pytest.approx(
                expected, abs=1e-12
            )


class TestParityReadout:
    def test_first_spin_cannot_distinguish(self):
        assert spin1_indistinguishability_check(all_reports()) is True

    def test_second_spin_threshold_classifies_perfectly(self):
        assert magnetization_classifies_parity(all_reports(), 2, 0.25) is True

    def test_no_threshold_works_on_first_spin(self):
        reports = all_reports()
        for threshold in (-0.1, 0.0, 0.1, 0.25, 0.4):
            assert magnetization_classifies_parity(reports, 1, threshold) is False

    @pytest.mark.parametrize("qubit", [0, 3, True, 1.0, 2.0])
    def test_qubit_must_be_the_int_1_or_2(self, qubit):
        with pytest.raises(ValueError, match="qubit must be 1 or 2"):
            magnetization_classifies_parity(all_reports(), qubit, 0.25)

    def test_a_missing_parity_family_classifies_nothing(self):
        even_reports = [r for r in all_reports() if r.function.ones() % 2 == 0]
        assert len(even_reports) == 8
        assert magnetization_classifies_parity([], 2, 0.25) is False
        assert magnetization_classifies_parity(even_reports, 1, -1.0) is False

    def test_threshold_separates_needs_a_gap(self):
        assert threshold_separates([0.0, 0.0], [0.5, 0.6])
        assert threshold_separates([0.5], [0.0])
        assert not threshold_separates([0.0], [0.0])
        assert not threshold_separates([0.0, 0.5], [0.25])
        assert not threshold_separates([], [0.5])
