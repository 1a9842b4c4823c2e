"""Acceptance suite: the eight headline guarantees, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``)
and enforces its stated tolerance exactly; nothing here is calibrated after
the fact.
"""

import functools

import numpy as np
import pytest

from qparity import (
    DJVerdict,
    Parity,
    StateVector,
    UnitaryOperator,
    build_oracle,
    classical_min_queries,
    classify,
    enumerate_functions,
    hadamard,
    hadamard_both,
    identity,
    run_deutsch_jozsa_2bit,
    run_even_odd,
    spin1_indistinguishability_check,
    tensor_product,
)
from qparity.entanglement import analyze_pure_state_stack, is_idempotent_stack
from qparity.linalg import density_from_state_stack, partial_trace_stack, purity_stack
from qparity.nmr import decompose_coherences_stack, observability_stack
from qparity.oracles import separable_signs
from qparity.reports import all_reports

INV_SQRT2 = 1.0 / np.sqrt(2.0)
QUARTER_AMP = 1.0 / (2.0 * np.sqrt(2.0))


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")

        return wrapper

    return decorate


def sign_pair(f):
    o = f.outputs
    return 1 - 2 * (o[0] ^ o[1]), 1 - 2 * (o[2] ^ o[3])


def final_states():
    return {f: run_even_odd(f).final_state for f in enumerate_functions()}


def is_separable(f) -> bool:
    """The separability rule on the diagonal of f's oracle: the stack of one."""
    return bool(separable_signs(np.diagonal(build_oracle(f).entries)[None])[0])


def density(s: StateVector) -> np.ndarray:
    """|s><s| as a density stack of one."""
    return density_from_state_stack(s.amplitudes[None])


@criterion(1, "class table: histogram, parity, separability and DJ columns")
def test_criterion_1_class_table():
    functions = enumerate_functions()
    histogram = {ones: 0 for ones in range(5)}
    for f in functions:
        histogram[f.ones()] += 1
    assert histogram == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}

    by_class = {
        ones: [f for f in functions if f.ones() == ones] for ones in range(5)
    }
    expected_parity = [Parity.EVEN, Parity.ODD, Parity.EVEN, Parity.ODD, Parity.EVEN]
    expected_separable = [True, False, True, False, True]
    expected_dj = [
        DJVerdict.CONSTANT,
        DJVerdict.NEITHER,
        DJVerdict.BALANCED,
        DJVerdict.NEITHER,
        DJVerdict.CONSTANT,
    ]
    for ones, members in by_class.items():
        for f in members:
            assert classify(f).parity is expected_parity[ones], f.to_string()
            assert is_separable(f) is expected_separable[ones], f.to_string()
            assert run_deutsch_jozsa_2bit(f) is expected_dj[ones], f.to_string()


@criterion(2, "final states match the two-query circuit formula (1e-12)")
def test_criterion_2_final_state_formulas():
    for f, final in final_states().items():
        a, b = sign_pair(f)
        expected = np.array(
            [(a + b) * QUARTER_AMP, 2 * QUARTER_AMP, (a - b) * QUARTER_AMP, 0.0]
        )
        assert np.max(np.abs(final.amplitudes - expected)) <= 1e-12, f.to_string()
        if classify(f).parity is Parity.EVEN:
            pattern = StateVector([a * INV_SQRT2, INV_SQRT2, 0, 0])
        else:
            pattern = StateVector([0, INV_SQRT2, a * INV_SQRT2, 0])
        # Equal up to a global phase: |<final|pattern>| = 1 within 1e-12.
        inner = np.vdot(final.amplitudes, pattern.amplitudes)
        assert abs(abs(inner) - 1.0) <= 1e-12, f.to_string()


@criterion(3, "density and reduced matrices take their closed forms (1e-12)")
def test_criterion_3_density_and_reduced_matrices():
    for f, final in final_states().items():
        a, _ = sign_pair(f)
        rho = density(final)
        expected = np.zeros((4, 4))
        if classify(f).parity is Parity.EVEN:
            expected[0, 0] = expected[1, 1] = 0.5
            expected[0, 1] = expected[1, 0] = 0.5 * a
        else:
            expected[1, 1] = expected[2, 2] = 0.5
            expected[1, 2] = expected[2, 1] = 0.5 * a
        assert np.max(np.abs(rho[0] - expected)) <= 1e-12, f.to_string()

        reduced = partial_trace_stack(rho, 2)
        if classify(f).parity is Parity.EVEN:
            expected2 = 0.5 * np.array([[1.0, a], [a, 1.0]])
            assert np.max(np.abs(reduced[0] - expected2)) <= 1e-12
            assert purity_stack(reduced)[0] == pytest.approx(1.0, abs=1e-12)
            assert is_idempotent_stack(reduced)[0]
        else:
            assert np.max(np.abs(reduced[0] - 0.5 * np.eye(2))) <= 1e-12
            assert purity_stack(reduced)[0] == pytest.approx(0.5, abs=1e-12)
            assert not is_idempotent_stack(reduced)[0]


@criterion(4, "concurrence 1 for odd and 0 for even finals; separability = even")
def test_criterion_4_entanglement_correspondence():
    for f, final in final_states().items():
        even = classify(f).parity is Parity.EVEN
        concurrence = analyze_pure_state_stack(final.amplitudes[None])[0].concurrence
        expected = 0.0 if even else 1.0
        assert abs(concurrence - expected) <= 1e-10, f.to_string()
        assert is_separable(f) == even, f.to_string()


@criterion(5, "sign-matched even/odd final states overlap with magnitude 0.5")
def test_criterion_5_nonorthogonal_overlap():
    finals = final_states()
    pairs = 0
    for fe, even_final in finals.items():
        if classify(fe).parity is not Parity.EVEN:
            continue
        for fo, odd_final in finals.items():
            if classify(fo).parity is not Parity.ODD:
                continue
            if sign_pair(fe)[0] != sign_pair(fo)[0]:
                continue
            pairs += 1
            inner = np.vdot(even_final.amplitudes, odd_final.amplitudes)
            assert abs(abs(inner) - 0.5) <= 1e-12
    assert pairs == 32  # 8 even x 8 odd, half of them sign-matched


@criterion(6, "spectral line iff even, with the expected magnetizations")
def test_criterion_6_nmr_observability():
    for f, final in final_states().items():
        even = classify(f).parity is Parity.EVEN
        (report,) = observability_stack(density(final))
        assert report.observable_line == even, f.to_string()
        expected = 0.5 if even else 0.0
        assert abs(report.transverse_magnetization_q2 - expected) <= 1e-12
    assert spin1_indistinguishability_check(all_reports()) is True


@criterion(7, "two quantum queries beat the classical minimum of four")
def test_criterion_7_query_separation():
    for f in enumerate_functions():
        assert run_even_odd(f).oracle_calls == 2, f.to_string()
    classical = classical_min_queries(lambda f: classify(f).parity)
    assert classical == 4
    assert 2 < classical


@criterion(8, "randomized property suites (unitarity, re-sum, purity relation)")
def test_criterion_8_property_suites():
    rng = np.random.default_rng(20260809)

    # 1000 random gate sequences: products stay unitary and states stay
    # normalized, both within 1e-12.
    h = hadamard()
    alphabet = [tensor_product(h, identity()), tensor_product(identity(), h), hadamard_both()]
    alphabet += [build_oracle(f) for f in enumerate_functions()]
    for _ in range(1000):
        length = int(rng.integers(1, 11))
        product = np.eye(4, dtype=complex)
        state = StateVector([1.0, 0.0, 0.0, 0.0])
        for _ in range(length):
            op = alphabet[int(rng.integers(len(alphabet)))]
            product = op.entries @ product
            state = StateVector(op.entries @ state.amplitudes)
            assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) <= 1e-12
        defect = np.max(np.abs(product.conj().T @ product - np.eye(4)))
        assert defect <= 1e-12
        UnitaryOperator(product)  # constructor re-checks unitarity

    # Coherence components re-sum for all 16 final density matrices.
    for f in enumerate_functions():
        rho = density(run_even_odd(f).final_state)
        decomposition = decompose_coherences_stack(rho)
        assert np.max(np.abs(decomposition.total() - rho)) <= 1e-12

    # Purity/concurrence relation on 1000 random pure two-qubit states.
    for _ in range(1000):
        raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        s = StateVector(raw / np.linalg.norm(raw))
        report = analyze_pure_state_stack(s.amplitudes[None])[0]
        relation = 1.0 - report.concurrence**2 / 2.0
        assert abs(report.reduced_purity_q1 - relation) <= 1e-10
        assert abs(report.reduced_purity_q2 - relation) <= 1e-10
