"""Core linear algebra: constructor invariants, gates as matrix products and the
one-matrix cases of the density stacks."""

import ast
import itertools
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qparity import (
    DEFAULT_TOL,
    DensityMatrix,
    StateVector,
    UnitaryOperator,
    hadamard,
    hadamard_both,
    identity,
    tensor_product,
)
from qparity.linalg import (
    _deviation,
    density_from_state_stack,
    partial_trace_stack,
    purity_stack,
    validated_state_stack,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)

# Rank-one projectors of (|00> + |01>)/sqrt(2) and (|01> - |10>)/sqrt(2),
# expanded by hand.
RHO_EVEN_PLUS = 0.5 * np.array(
    [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=complex
)
RHO_ODD_MINUS = 0.5 * np.array(
    [[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]], dtype=complex
)


# Hadamard, identity, X, Z and the phase gate diag(1, i).
ONE_QUBIT_GATES = [
    INV_SQRT2 * np.array([[1, 1], [1, -1]]),
    np.eye(2),
    np.array([[0, 1], [1, 0]]),
    np.diag([1, -1]),
    np.diag([1, 1j]),
]


def state(*amps) -> StateVector:
    return StateVector(np.array(amps, dtype=complex))


def basis(bits: str) -> StateVector:
    """Computational basis state for a bit string, e.g. "01"."""
    return StateVector(np.eye(2 ** len(bits))[int(bits, 2)])


def hadamard_first() -> UnitaryOperator:
    """H (x) I: Hadamard on qubit 1 only."""
    return tensor_product(hadamard(), identity())


def apply_gate(gate: UnitaryOperator, s: StateVector) -> StateVector:
    return StateVector(gate.entries @ s.amplitudes)


def projector(s: StateVector) -> np.ndarray:
    """|s><s|: the density stack of one state, as one matrix."""
    return density_from_state_stack(s.amplitudes[None])[0]


def reduced(rho, keep_qubit: int) -> np.ndarray:
    """The partial-trace stack of one matrix, as one matrix."""
    return partial_trace_stack(np.asarray(rho)[None], keep_qubit)[0]


def overlap_matrix(*states: StateVector) -> np.ndarray:
    """<a|b> for every pair of the states, from the stack they form as arrays."""
    stack = np.array(states)
    return stack.conj() @ stack.T


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector([1.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            StateVector([np.nan, 0.0])
        with pytest.raises(ValueError, match="finite"):
            StateVector([complex(0, np.inf), 0.0])

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="d of 2 or 4"):
            StateVector([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="d of 2 or 4"):
            StateVector([1.0])

    def test_amplitudes_are_read_only(self):
        s = basis("00")
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_basis_labels_order(self):
        assert basis("00").basis_labels() == ("00", "01", "10", "11")

    def test_equal_amplitudes_compare_and_hash_equal(self):
        a, b = state(0.6, 0.0, 0.0, 0.8), state(0.6, -0.0, 0.0, 0.8)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != state(0.6, 0.0, 0.0, -0.8)
        assert a != state(-0.6, 0.0, 0.0, -0.8)  # a global phase is a different state here
        assert basis("0") != basis("00")
        assert a != a.amplitudes


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix([[0.5, 0.5], [-0.5, 0.5]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix([[1.0, 0.0], [0.0, 1.0]])


class TestUnitaryOperator:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            UnitaryOperator([[1.0, 1.0], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            UnitaryOperator([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_hadamard_is_self_inverse(self):
        h = hadamard()
        np.testing.assert_allclose(h.entries @ h.entries, np.eye(2), atol=1e-12)

    def test_library_operators_are_unitary(self):
        two_qubit_identity = UnitaryOperator(np.eye(4))
        for op in (hadamard(), identity(), two_qubit_identity, hadamard_first(), hadamard_both()):
            defect = np.max(np.abs(op.entries.conj().T @ op.entries - np.eye(len(op.entries))))
            assert defect < 1e-12


NOT_NORMALIZED = "state vector is not normalized: |sum(|a|^2) - 1| = 5.000e-01 > 1.000e-12"
NOT_HERMITIAN = "density matrix is not Hermitian: max deviation 2.500e-01 > 1.000e-12"
OFF_TRACE = "density matrix trace differs from 1 by 2.500e-01 > 1.000e-12"


@pytest.mark.parametrize("construct, entries, message", [
    (StateVector, [0.5, 0.5], NOT_NORMALIZED),
    (validated_state_stack, [[1.0, 0.0], [0.5, 0.5]], NOT_NORMALIZED),
    (DensityMatrix, [[0.5, 0.25], [0.0, 0.5]], NOT_HERMITIAN),
    (purity_stack, [[[0.5, 0.25], [0.0, 0.5]]], NOT_HERMITIAN),
    (DensityMatrix, [[0.5, 0.0], [0.0, 0.25]], OFF_TRACE),
    (purity_stack, [[[0.5, 0.0], [0.0, 0.25]]], OFF_TRACE),
    (UnitaryOperator, [[1.0, 0.0], [0.0, 0.5]],
     "operator is not unitary: max |U^dagger U - I| = 7.500e-01 > 1.000e-12"),
])
def test_construction_checks_state_the_deviation_and_the_tolerance(construct, entries, message):
    # Each whole message: the check, its largest deviation and DEFAULT_TOL.
    with pytest.raises(ValueError) as raised:
        construct(entries)
    assert str(raised.value) == message


@pytest.mark.parametrize("construct, entries, message", [
    # conj(a) a overflows at a = 1e200 + 1e200i, and its imaginary part is inf - inf, a NaN.
    (UnitaryOperator, [[1e200 + 1e200j, 0.0], [0.0, 1.0]], "not unitary: max .* = inf > "),
    # Finite entries whose trace overflows, to inf or NaN by the order of the sum.
    (DensityMatrix, np.diag([1e308, 1e308, -1e308, -1e308]), "differs from 1 by inf > "),
])
def test_a_deviation_that_overflows_fails_its_check(construct, entries, message):
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=message):
        construct(entries)


class TestDeviation:
    # Row 1 holds a NaN, row 0 a 0.5.
    ACTUAL = np.array([[[0.0, 0.5], [0.0, 0.0]], [[0.0, 0.0], [np.nan, 0.0]]])

    @pytest.mark.parametrize("rows, worst", [
        (0, np.inf), (1, [0.5, np.inf]), (2, [[0.5, 0.0], [0.0, np.inf]]),
    ])
    def test_nan_reads_as_infinite(self, rows, worst):
        np.testing.assert_array_equal(_deviation(self.ACTUAL, 0.0, rows), worst)

    def test_empty_stack_reads_zero(self):
        assert _deviation(np.ones((0, 4)), 1.0, rows=0) == 0.0
        assert _deviation(np.ones((0, 4)), 1.0).shape == (0,)
        assert validated_state_stack(np.ones((0, 4), complex)).shape == (0, 4)

    def test_is_defined_once(self):
        assert [p.name for p in SOURCES if "def _deviation(" in p.read_text()] == ["linalg.py"]


class TestTensorProduct:
    def test_hadamard_with_identity(self):
        # Kronecker product expanded by hand: H acts on the most significant
        # qubit, so the 2x2 identity blocks are scaled by H's entries.
        expected = INV_SQRT2 * np.array(
            [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]], dtype=complex
        )
        np.testing.assert_allclose(hadamard_first().entries, expected, atol=1e-12)

    def test_identity_with_identity(self):
        result = tensor_product(identity(), identity())
        np.testing.assert_allclose(result.entries, np.eye(4), atol=1e-12)

    def test_sign_diagonal_factors(self):
        a = UnitaryOperator(np.diag([1.0, -1.0]))
        b = UnitaryOperator(np.diag([1.0, 1.0]))
        result = tensor_product(a, b)
        np.testing.assert_allclose(
            np.diagonal(result.entries), [1, 1, -1, -1], atol=1e-12
        )

    @given(st.lists(st.sampled_from(ONE_QUBIT_GATES), min_size=4, max_size=4))
    def test_mixed_product_rule_on_one_qubit_factors(self, factors):
        # (A (x) B)(C (x) D) = AC (x) BD.
        a, b, c, d = (UnitaryOperator(m) for m in factors)
        left = tensor_product(a, b).entries @ tensor_product(c, d).entries
        right = tensor_product(UnitaryOperator(a.entries @ c.entries),
                               UnitaryOperator(b.entries @ d.entries))
        assert np.max(np.abs(left - right.entries)) < 1e-12


def unitarity_defect(m: np.ndarray) -> float:
    return float(np.abs(m.conj().T @ m - np.eye(len(m))).max())


ANGLES = st.floats(-np.pi, np.pi)


def one_qubit_unitary(alpha, beta, gamma, theta) -> UnitaryOperator:
    """e^(i alpha) [[e^(i beta) c, e^(i gamma) s], [-e^(-i gamma) s, e^(-i beta) c]]."""
    c, s = np.cos(theta), np.sin(theta)
    return UnitaryOperator(np.exp(1j * alpha) * np.array(
        [[np.exp(1j * beta) * c, np.exp(1j * gamma) * s],
         [-np.exp(-1j * gamma) * s, np.exp(-1j * beta) * c]]))


class TestTensorProductIsKron:
    """The broadcast product forms exactly the entries ``np.kron`` forms."""

    # H, I and Z = diag(1, -1), every pair.
    @pytest.mark.parametrize("a, b", itertools.product(ONE_QUBIT_GATES[:2] + ONE_QUBIT_GATES[3:4],
                                                       repeat=2))
    def test_hadamard_identity_and_z(self, a, b):
        a, b = UnitaryOperator(a), UnitaryOperator(b)
        assert np.array_equal(tensor_product(a, b).entries, np.kron(a.entries, b.entries))

    @given(st.tuples(ANGLES, ANGLES, ANGLES, ANGLES), st.tuples(ANGLES, ANGLES, ANGLES, ANGLES))
    def test_drawn_unitaries(self, first, second):
        a, b = one_qubit_unitary(*first), one_qubit_unitary(*second)
        assert np.array_equal(tensor_product(a, b).entries, np.kron(a.entries, b.entries))

    def test_result_is_read_only(self):
        result = tensor_product(hadamard(), identity())
        with pytest.raises(ValueError):
            result.entries[0, 0] = 0.0

    def test_product_of_passing_factors_is_still_checked(self):
        # Each factor passes just under the tolerance, but the defects compound: the
        # product is not trusted because its factors were valid.
        scaled = UnitaryOperator(hadamard().entries * (1.0 + 3.5e-13))
        assert unitarity_defect(scaled.entries) < DEFAULT_TOL
        assert unitarity_defect(np.kron(scaled.entries, scaled.entries)) > DEFAULT_TOL
        with pytest.raises(ValueError, match="not unitary"):
            tensor_product(scaled, scaled)


class TestApply:
    """Gates applied to basis states as matrix products."""

    def test_hadamard_on_zero(self):
        result = apply_gate(hadamard(), basis("0"))
        np.testing.assert_allclose(result.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-12)

    def test_hadamard_on_one(self):
        result = apply_gate(hadamard(), basis("1"))
        np.testing.assert_allclose(result.amplitudes, [INV_SQRT2, -INV_SQRT2], atol=1e-12)

    def test_identity_fixes_basis_state(self):
        result = apply_gate(UnitaryOperator(np.eye(4)), basis("01"))
        np.testing.assert_allclose(result.amplitudes, [0, 1, 0, 0], atol=0)

    def test_hadamard_both_gives_uniform_superposition(self):
        result = apply_gate(hadamard_both(), basis("00"))
        np.testing.assert_allclose(result.amplitudes, [0.5, 0.5, 0.5, 0.5], atol=1e-12)


class TestDensityFromState:
    def test_even_superposition_projector(self):
        rho = projector(state(INV_SQRT2, INV_SQRT2, 0, 0))
        np.testing.assert_allclose(rho, RHO_EVEN_PLUS, atol=1e-12)

    def test_basis_state_projector(self):
        rho = projector(basis("00"))
        np.testing.assert_allclose(rho, np.diag([1, 0, 0, 0]), atol=0)

    def test_odd_superposition_projector(self):
        rho = projector(state(0, INV_SQRT2, -INV_SQRT2, 0))
        np.testing.assert_allclose(rho, RHO_ODD_MINUS, atol=1e-12)

    def test_projector_is_idempotent(self):
        rho = projector(state(0.5, 0.5, 0.5, 0.5))
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-11)


class TestPartialTrace:
    def test_even_reduced_second_qubit(self):
        np.testing.assert_allclose(
            reduced(RHO_EVEN_PLUS, 2), 0.5 * np.array([[1, 1], [1, 1]]), atol=1e-12
        )

    def test_odd_reduced_second_qubit_is_maximally_mixed(self):
        np.testing.assert_allclose(reduced(RHO_ODD_MINUS, 2), 0.5 * np.eye(2), atol=1e-12)

    def test_product_state_reduced_first_qubit(self):
        np.testing.assert_allclose(reduced(projector(basis("01")), 1), np.diag([1, 0]), atol=0)

    def test_invalid_qubit_index(self):
        rho = projector(basis("00"))
        # Only the int 1 or 2: True, 1.0 and 2.0 compare equal to them.
        for keep_qubit in (3, 0, True, 1.0, 2.0):
            with pytest.raises(ValueError, match="keep_qubit"):
                reduced(rho, keep_qubit)

    def test_requires_two_qubits(self):
        with pytest.raises(ValueError, match="two-qubit"):
            reduced(np.eye(2) / 2, 1)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_trace_preserved_on_random_states(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho = projector(StateVector(raw / np.linalg.norm(raw)))
        for qubit in (1, 2):
            trace = np.trace(reduced(rho, qubit))
            assert abs(trace - 1.0) < 1e-12

    def test_block_sums_equal_the_einsum_bit_for_bit(self):
        # The reference is the index contraction over [n, i1, i2, j1, j2] that the block sums
        # replaced. The two differ only where both addends are -0.0 (the contraction starts
        # from +0.0), which no random density has; uint64 views tell every other zero sign.
        rng = np.random.default_rng(29)
        g = rng.standard_normal((20000, 4, 4)) + 1j * rng.standard_normal((20000, 4, 4))
        rhos = g @ g.conj().swapaxes(1, 2)
        rhos /= rhos.trace(axis1=1, axis2=2).real[:, None, None]
        blocks = rhos.reshape(-1, 2, 2, 2, 2)
        for qubit, subscripts in ((1, "nakbk->nab"), (2, "nkakb->nab")):
            expected = np.einsum(subscripts, blocks)
            assert np.array_equal(partial_trace_stack(rhos, qubit).view(np.uint64),
                                  expected.view(np.uint64))


class TestPurity:
    def test_maximally_mixed_qubit(self):
        assert purity_stack((np.eye(2) / 2)[None])[0] == pytest.approx(0.5, abs=1e-12)

    def test_pure_basis_state(self):
        assert purity_stack(np.diag([1.0, 0.0])[None])[0] == pytest.approx(1.0, abs=1e-12)

    def test_even_reduced_state_is_pure(self):
        # The reduced matrix (1/2)[[1,1],[1,1]] squares to itself, so its
        # purity is its trace, which is 1.
        reduced_even = partial_trace_stack(RHO_EVEN_PLUS[None], 2)
        assert purity_stack(reduced_even)[0] == pytest.approx(1.0, abs=1e-12)


class TestOverlap:
    """Inner products as the Gram matrix of a stack of states."""

    def test_even_and_odd_circuit_outputs(self):
        # <(s*00 + 01)/sqrt2 | (t*10 + 01)/sqrt2> = 1/2 for any signs s, t:
        # only the shared |01> component survives.
        for s in (1, -1):
            for t in (1, -1):
                even = state(s * INV_SQRT2, INV_SQRT2, 0, 0)
                odd = state(0, INV_SQRT2, t * INV_SQRT2, 0)
                assert overlap_matrix(even, odd)[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_self_overlap_is_one(self):
        s = state(0.5, 0.5j, -0.5, 0.5j)
        assert overlap_matrix(s)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_states(self):
        assert overlap_matrix(basis("00"), basis("11"))[0, 1] == 0

    def test_conjugates_left_argument(self):
        a = state(INV_SQRT2, 1j * INV_SQRT2)
        b = basis("1")
        assert overlap_matrix(a, b)[0, 1] == pytest.approx(-1j * INV_SQRT2, abs=1e-12)


class TestStatesEqual:
    """Equality up to a global phase: |<a|b>| = 1 within 1e-12."""

    def test_global_phase_ignored(self):
        s = state(0.5, 0.5, 0.5, 0.5)
        phase = np.exp(1j * 0.7)
        assert abs(abs(overlap_matrix(s, StateVector(phase * s.amplitudes))[0, 1]) - 1.0) <= 1e-12

    def test_distinct_states_differ(self):
        assert not abs(abs(overlap_matrix(basis("00"), basis("01"))[0, 1]) - 1.0) <= 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_norm_preserved_under_gate_sequences(seed, length):
    rng = np.random.default_rng(seed)
    ops = [hadamard_first(), hadamard_both(), UnitaryOperator(np.eye(4))]
    s = basis("00")
    for _ in range(length):
        s = apply_gate(ops[rng.integers(len(ops))], s)
        assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1.0) < 1e-12


SOURCES = sorted((pathlib.Path(__file__).parents[1] / "src" / "qparity").glob("*.py"))


def test_every_tolerance_is_stated_once_in_the_linalg_table():
    # The table is linalg's module-level NAME = <float> assignments; any other
    # float literal below 1e-3 is a tolerance stated outside it.
    table, strays = {}, []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        in_table = set()
        if path.name == "linalg.py":
            for node in tree.body:
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, float)
                ):
                    table[node.targets[0].id] = node.value.value
                    in_table.add(node.value)
        strays += [
            f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and type(node.value) is float
            and 0.0 < node.value < 1e-3
            and node not in in_table
        ]
    assert len(SOURCES) > 5
    assert strays == []
    assert table == {
        "DEFAULT_TOL": 1e-12,
        "IDEMPOTENCY_TOL": 1e-11,
        "ZERO_FLOOR": 1e-10,
        "DISPLAY_FLOOR": 1e-9,
    }
