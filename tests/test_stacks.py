"""The stacked analyses: every row of a stack equals the stack of one bitwise,
and stacks are validated like the constructors validate one matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qparity.linalg
from qparity import DensityMatrix, enumerate_functions, run_all_checks, run_even_odd
from qparity.algorithms import Sweep
from qparity.entanglement import analyze_pure_state_stack, is_idempotent_stack
from qparity.linalg import density_from_state_stack, partial_trace_stack, purity_stack
from qparity.nmr import (
    CoherenceDecomposition,
    decompose_coherences_stack,
    observability_stack,
    transverse_magnetization_stack,
)
from qparity.reports import all_reports


def random_amplitudes(rng, n):
    raw = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def random_mixed_densities(rng, n, rank=3):
    weights = rng.random((n, rank))
    weights /= weights.sum(axis=1, keepdims=True)
    vectors = random_amplitudes(rng, n * rank).reshape(n, rank, 4)
    rhos = np.einsum("nk,nki,nkj->nij", weights, vectors, vectors.conj())
    return (rhos + rhos.conj().swapaxes(1, 2)) / 2  # Hermitian to the last bit


def assert_stacked_equals_stack_of_one(amplitudes, rhos):
    ones = [amplitudes[i:i + 1] for i in range(len(amplitudes))]
    assert analyze_pure_state_stack(amplitudes) == [analyze_pure_state_stack(a)[0] for a in ones]
    projectors = density_from_state_stack(amplitudes)
    for a, projector in zip(ones, projectors):
        assert np.array_equal(projector, density_from_state_stack(a)[0])
    for stack in (projectors, rhos):
        matrices = [stack[i:i + 1] for i in range(len(stack))]
        assert observability_stack(stack) == [observability_stack(m)[0] for m in matrices]
        decomposition = decompose_coherences_stack(stack)
        for i, m in enumerate(matrices):
            one = decompose_coherences_stack(m)
            for order, component in decomposition.orders.items():
                assert np.array_equal(component[i], one.orders[order][0])
        for qubit in (1, 2):
            reduced = partial_trace_stack(stack, qubit)
            magnetizations = transverse_magnetization_stack(stack, qubit)
            reduced_ones = [partial_trace_stack(m, qubit) for m in matrices]
            assert list(purity_stack(reduced)) == [purity_stack(r)[0] for r in reduced_ones]
            assert list(is_idempotent_stack(reduced)) == [
                is_idempotent_stack(r)[0] for r in reduced_ones
            ]
            for i, m in enumerate(matrices):
                assert np.array_equal(reduced[i], reduced_ones[i][0])
                assert magnetizations[i] == transverse_magnetization_stack(m, qubit)[0]


@given(st.integers(1, 16), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_stacks_equal_the_stack_of_one(n, seed):
    rng = np.random.default_rng(seed)
    assert_stacked_equals_stack_of_one(random_amplitudes(rng, n), random_mixed_densities(rng, n))


def test_circuit_final_states_equal_the_stack_of_one():
    finals = np.array([run_even_odd(f).final_state.amplitudes for f in enumerate_functions()])
    assert_stacked_equals_stack_of_one(finals, density_from_state_stack(finals))


def test_empty_stacks():
    empty = np.empty((0, 4), dtype=complex)
    assert analyze_pure_state_stack(empty) == []
    assert observability_stack(density_from_state_stack(empty)) == []


class TestStackValidation:
    """A stack is validated once, with the DensityMatrix constructor's messages."""

    def test_unnormalized_row_is_rejected(self):
        amplitudes = random_amplitudes(np.random.default_rng(1), 3)
        amplitudes[1] *= 1.1
        with pytest.raises(ValueError, match="trace differs from 1"):
            density_from_state_stack(amplitudes)

    def test_non_finite_row_is_rejected(self):
        amplitudes = random_amplitudes(np.random.default_rng(2), 3)
        amplitudes[2, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            density_from_state_stack(amplitudes)

    @pytest.mark.parametrize("factor, message", [(1.1, "not normalized"), (np.nan, "finite")])
    def test_entanglement_analysis_checks_its_input(self, factor, message):
        amplitudes = random_amplitudes(np.random.default_rng(6), 3)
        amplitudes[1, 0] *= factor
        with pytest.raises(ValueError, match=message):
            analyze_pure_state_stack(amplitudes)

    def test_entanglement_analysis_leaves_the_input_writable(self):
        amplitudes = random_amplitudes(np.random.default_rng(7), 3)
        analyze_pure_state_stack(amplitudes)
        assert amplitudes.flags.writeable

    def test_non_hermitian_matrix_is_rejected(self):
        rhos = np.repeat(np.eye(4, dtype=complex)[None] / 4, 2, axis=0)
        rhos[1, 0, 2] = 0.1  # <00|rho|10>: survives tracing out qubit 2
        with pytest.raises(ValueError, match="not Hermitian"):
            partial_trace_stack(rhos, 1)

    def test_wrong_shapes_are_rejected(self):
        with pytest.raises(ValueError, match="two-qubit"):
            analyze_pure_state_stack(np.ones((2, 2)) / np.sqrt(2))
        with pytest.raises(ValueError, match="two-qubit"):
            partial_trace_stack(np.eye(2)[None] / 2, 1)
        with pytest.raises(ValueError, match="two-qubit"):
            observability_stack(np.eye(2)[None] / 2)

    def test_stacks_are_read_only(self):
        projectors = density_from_state_stack(random_amplitudes(np.random.default_rng(3), 2))
        for stack in (projectors, partial_trace_stack(projectors, 2)):
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 1.0


def test_sweeps_construct_no_density_matrix(monkeypatch):
    # Derived densities are validated once per stack, not wrapped one by one.
    honest = qparity.linalg.DensityMatrix.__init__
    calls = 0

    def counting_init(self, entries):
        nonlocal calls
        calls += 1
        honest(self, entries)

    monkeypatch.setattr(qparity.linalg.DensityMatrix, "__init__", counting_init)
    all_reports()
    assert run_all_checks().passed
    assert calls == 0


STACK_FORMS = {
    "partial_trace_stack": lambda rhos: partial_trace_stack(rhos, 1),
    "purity_stack": purity_stack,
    "is_idempotent_stack": is_idempotent_stack,
    "decompose_coherences_stack": decompose_coherences_stack,
    "observability_stack": observability_stack,
    "transverse_magnetization_stack": lambda rhos: transverse_magnetization_stack(rhos, 1),
}


def one_sided(rhos):
    rhos[1, 0, 1] = 0.1  # <00|rho|01>: traced out by keeping qubit 1


def one_sided_double_quantum(rhos):
    rhos[1, 0, 3] = 0.1  # <00|rho|11>: traced out by keeping either qubit


def non_finite(rhos):
    rhos[0, 2, 2] = np.nan


def off_trace(rhos):
    rhos[1] *= 1.1


@pytest.mark.parametrize("name", sorted(STACK_FORMS))
@pytest.mark.parametrize(
    "fault, message",
    [
        (one_sided, "not Hermitian"),
        (one_sided_double_quantum, "not Hermitian"),
        (non_finite, "finite"),
        (off_trace, "trace differs from 1"),
    ],
)
def test_stack_forms_check_their_input(name, fault, message):
    rhos = random_mixed_densities(np.random.default_rng(4), 3)
    fault(rhos)
    with pytest.raises(ValueError, match=message):
        STACK_FORMS[name](rhos)


def same_result(a, b) -> bool:
    if isinstance(a, CoherenceDecomposition):
        return a.orders.keys() == b.orders.keys() and all(
            np.array_equal(a.orders[k], b.orders[k]) for k in a.orders
        )
    return a == b if isinstance(a, Sweep) else np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(STACK_FORMS))
def test_stack_forms_take_a_nested_list(name):
    rhos = random_mixed_densities(np.random.default_rng(10), 3)
    assert same_result(STACK_FORMS[name](rhos.tolist()), STACK_FORMS[name](rhos))


@pytest.mark.parametrize("name", sorted(STACK_FORMS))
def test_stack_forms_reject_a_bare_matrix(name):
    # Neither a plain matrix nor a checked one is a stack; each would give a 0-d result.
    rho = random_mixed_densities(np.random.default_rng(11), 1)[0]
    for matrix in (rho, DensityMatrix(rho).entries):
        with pytest.raises(ValueError, match=r"\(n, d, d\) stack"):
            STACK_FORMS[name](matrix)


@pytest.mark.parametrize("name", sorted(STACK_FORMS))
def test_stack_forms_leave_the_input_writable(name):
    rhos = random_mixed_densities(np.random.default_rng(5), 3)
    STACK_FORMS[name](rhos)
    assert rhos.flags.writeable


def test_arrays_derived_from_a_checked_stack_are_plain():
    checked = density_from_state_stack(random_amplitudes(np.random.default_rng(8), 3))
    assert type(checked) is np.ndarray
    for derived in (np.abs(checked), checked * 1.0, np.linalg.eigvalsh(checked), checked[1:],
                    checked.conj().swapaxes(1, 2)):
        assert type(derived) is np.ndarray


@pytest.mark.parametrize("name", sorted(STACK_FORMS))
def test_only_the_checked_stack_itself_skips_the_check(name, monkeypatch):
    checked = density_from_state_stack(random_amplitudes(np.random.default_rng(9), 3))
    with pytest.raises(ValueError, match="trace differs from 1"):
        STACK_FORMS[name](checked * 1.1)
    honest = qparity.linalg._check_densities
    calls = []
    monkeypatch.setattr(qparity.linalg, "_check_densities", lambda a: calls.append(a) or honest(a))
    for stack in (checked, np.asarray(checked), checked[1:], checked.view(), checked + 0.0):
        calls.clear()
        STACK_FORMS[name](stack)
        assert any(a is stack for a in calls) == (stack is not checked)
