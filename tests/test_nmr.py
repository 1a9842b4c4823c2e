"""Coherence-order decomposition and spectral observability."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qparity import (
    COHERENCE_ORDERS,
    Parity,
    classify,
    coherence_order,
    enumerate_functions,
    magnetization_classifies_parity,
    run_even_odd,
    spin1_indistinguishability_check,
    threshold_separates,
)
from qparity.linalg import density_from_state_stack, partial_trace_stack
from qparity.nmr import decompose_coherences_stack, observability_stack
from qparity.reports import all_reports

INV_SQRT2 = 1.0 / np.sqrt(2.0)
NAN = float("nan")

# Stacks of one density matrix each.
RHO_EVEN = 0.5 * np.array([[[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]])
RHO_ODD = 0.5 * np.array([[[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]]])
MIXED = (np.eye(4) / 4)[None]


def final_density(f):
    return density_from_state_stack(run_even_odd(f).final_state.amplitudes[None])


def decompose(rhos):
    """Each order's component of the decomposition of a stack of one."""
    return {k: v[0] for k, v in decompose_coherences_stack(rhos).items()}


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

    @pytest.mark.parametrize("i, j", [(5, 0), (0, 4), (-1, 0), (True, 0), (0, 1.0), (0, "1")])
    def test_indices_must_be_the_int_0_to_3(self, i, j):
        with pytest.raises(ValueError, match="entry indices must be 0..3"):
            coherence_order(i, j)


class TestDecomposeCoherences:
    def test_even_density_has_only_zero_and_single_quantum_weight(self):
        orders = decompose(RHO_EVEN)
        for order in (-2, 2):
            assert np.max(np.abs(orders[order])) == 0
        assert np.max(np.abs(orders[1])) == pytest.approx(0.5)
        assert np.max(np.abs(orders[-1])) == pytest.approx(0.5)

    def test_odd_density_is_pure_zero_quantum(self):
        orders = decompose(RHO_ODD)
        for order in (-2, -1, 1, 2):
            assert np.max(np.abs(orders[order])) == 0
        assert np.max(np.abs(orders[0])) == pytest.approx(0.5)

    def test_maximally_mixed_is_diagonal_order_zero(self):
        orders = decompose(MIXED)
        for order in (-2, -1, 1, 2):
            assert np.max(np.abs(orders[order])) == 0
        np.testing.assert_allclose(orders[0], np.eye(4) / 4, atol=0)

    def test_components_resum_for_all_circuit_outputs(self):
        for f in enumerate_functions():
            rho = final_density(f)
            orders = decompose_coherences_stack(rho)
            np.testing.assert_allclose(
                sum(orders.values()), rho, atol=1e-12, err_msg=f.to_string()
            )

    def test_hermitian_symmetry_of_components(self):
        for f in enumerate_functions():
            orders = decompose(final_density(f))
            for order in (1, 2):
                np.testing.assert_allclose(
                    orders[order],
                    orders[-order].conj().T,
                    atol=1e-12,
                )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_resum_on_random_two_qubit_densities(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho = density_from_state_stack((raw / np.linalg.norm(raw))[None])
        orders = decompose_coherences_stack(rho)
        np.testing.assert_allclose(sum(orders.values()), rho, atol=1e-12)

    def test_rejects_single_qubit_density(self):
        with pytest.raises(ValueError, match="two-qubit"):
            decompose_coherences_stack((np.eye(2) / 2)[None])


class TestObservability:
    def test_even_density_produces_a_line(self):
        (report,) = observability_stack(RHO_EVEN)
        assert report.observable_line
        assert report.single_quantum_weight == pytest.approx(1.0, abs=1e-12)
        assert report.zero_quantum_weight == pytest.approx(0.0, abs=1e-12)
        assert report.transverse_magnetization_q2 == pytest.approx(0.5, abs=1e-12)

    def test_odd_density_is_silent(self):
        (report,) = observability_stack(RHO_ODD)
        assert not report.observable_line
        assert report.single_quantum_weight == pytest.approx(0.0, abs=1e-12)
        assert report.zero_quantum_weight == pytest.approx(1.0, abs=1e-12)
        assert report.transverse_magnetization_q2 == pytest.approx(0.0, abs=1e-12)

    def test_magnetizations_equal_the_partial_trace_bit_for_bit(self):
        # observability_stack reads each magnetization from the two density entries that
        # sum to the reduced matrix's off-diagonal entry, not from the partial trace.
        rng = np.random.default_rng(20000)
        g = rng.standard_normal((20000, 4, 4)) + 1j * rng.standard_normal((20000, 4, 4))
        rhos = g @ g.conj().swapaxes(1, 2)
        rhos /= rhos.trace(axis1=1, axis2=2).real[:, None, None]
        readout = observability_stack(rhos)
        for qubit in (1, 2):
            reduced = partial_trace_stack(rhos, qubit)
            assert np.array_equal(readout.columns[f"transverse_magnetization_q{qubit}"],
                                  np.abs(reduced[:, 0, 1]))

    def test_populations_are_not_counted_as_zero_quantum_weight(self):
        (report,) = observability_stack(MIXED)
        assert report.zero_quantum_weight == 0
        assert not report.observable_line

    def test_first_spin_carries_no_signal_either_way(self):
        for f in enumerate_functions():
            (report,) = observability_stack(final_density(f))
            assert report.transverse_magnetization_q1 == pytest.approx(0.0, abs=1e-12)

    def test_line_appears_exactly_for_even_functions(self):
        for f in enumerate_functions():
            (report,) = observability_stack(final_density(f))
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

    @pytest.mark.parametrize("values_a", [[0.0, NAN], [NAN, 0.0]])
    def test_a_nan_separates_nothing_in_either_order(self, values_a):
        # min and max depend on argument order when a NaN is present.
        assert threshold_separates(values_a, [0.5]) is False
        assert threshold_separates([0.5], values_a) is False

    @pytest.mark.parametrize("values_a, values_b", [
        ([0.0, 0.1], [0.5, 0.6]), ([0.5], [0.0]), ([0.0], [0.0]), ([0.0, 0.5], [0.25]),
        ([], [0.5]), ([0.0, NAN], [0.5]), ([0.5], [NAN, 0.0]),
    ])
    def test_arrays_give_the_answers_of_lists(self, values_a, values_b):
        # The emptiness test once asked an array for its truth value, which numpy refuses.
        expected = threshold_separates(values_a, values_b)
        got = threshold_separates(np.array(values_a, dtype=float), np.array(values_b))
        assert got is expected

    def test_a_nan_magnetization_decides_no_readout(self):
        def with_nan(bits, field):
            return [
                dataclasses.replace(r, observability=dataclasses.replace(
                    r.observability, **{field: NAN})) if r.function.to_string() == bits else r
                for r in all_reports()
            ]

        assert magnetization_classifies_parity(
            with_nan("0001", "transverse_magnetization_q2"), 2, 0.25) is False
        assert spin1_indistinguishability_check(
            with_nan("0000", "transverse_magnetization_q1")) is False
