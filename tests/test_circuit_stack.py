"""The stacked circuit sweeps: every step equals a gate-by-gate run of
validated matrix-vector products, oracles come from one sign stack, each
sweep's steps are validated once, as ``StateVector`` validates one state, and
the report sweep reads Deutsch-Jozsa off the even/odd run bit for bit."""

import re

import numpy as np
import pytest

import qparity.algorithms
import qparity.gates
import qparity.linalg
from qparity import (
    DJVerdict,
    StateVector,
    UnitaryOperator,
    build_oracle,
    enumerate_functions,
    hadamard,
    hadamard_both,
    identity,
    run_all_checks,
    tensor_product,
)
from qparity.algorithms import (
    DJ_BALANCED_CUT,
    DJ_CONSTANT_CUT,
    _circuit_steps,
    run_deutsch_jozsa_sweep,
    run_even_odd_sweep,
)
from qparity.cli import main
from qparity.linalg import validated_state_stack
from qparity.oracles import oracle_signs
from qparity.reports import all_reports
from test_mutants import flipped_oracle_sign, swapped_gates


ZERO_ZERO = StateVector([1.0, 0.0, 0.0, 0.0])


def hadamard_second():
    """I (x) H: Hadamard on qubit 2 only."""
    return tensor_product(identity(), hadamard())


def reference_steps(f):
    """The even/odd circuit on f, one validated state per gate."""
    h12, h2, oracle = hadamard_both(), hadamard_second(), build_oracle(f)
    steps = [ZERO_ZERO]
    for gate in (h12, oracle, h2, oracle, h12):
        steps.append(StateVector(gate.entries @ steps[-1].amplitudes))
    return steps


def reference_dj_verdict(f):
    h12 = hadamard_both()
    final = ZERO_ZERO.amplitudes
    for gate in (h12, build_oracle(f), h12):
        final = StateVector(gate.entries @ final).amplitudes
    magnitude = abs(final[0])
    if magnitude > DJ_CONSTANT_CUT:
        return DJVerdict.CONSTANT
    if magnitude < DJ_BALANCED_CUT:
        return DJVerdict.BALANCED
    return DJVerdict.NEITHER


def test_every_step_equals_the_gate_by_gate_route():
    # Values must match exactly; signed zeros may differ, and `==` ignores them.
    functions = enumerate_functions()
    swept = run_even_odd_sweep(functions, hadamard_both(), hadamard_second())
    for f, result in zip(functions, swept):
        reference = reference_steps(f)
        assert len(result.per_step_states) == len(reference) == 6
        for swept, expected in zip(result.per_step_states, reference):
            assert np.all(swept.amplitudes == expected.amplitudes), f.to_string()


def test_dj_verdicts_equal_the_one_query_route():
    functions = enumerate_functions()
    expected = [reference_dj_verdict(f) for f in functions]
    assert run_deutsch_jozsa_sweep(functions, hadamard_both()) == expected


def test_dj_final_states_are_h12_on_the_even_odd_run():
    # The even/odd circuit opens with DJ's first two steps, H12 and the oracle, so one
    # more H12 on its step-2 states gives the separate DJ circuit's final states, bit for bit.
    functions = enumerate_functions()
    h12, h2 = qparity.gates.even_odd_gates()
    steps = run_even_odd_sweep(functions, h12, h2).columns["per_step_states"]
    reused = (h12.entries @ steps[:, 2, :, None])[..., 0]
    separate = _circuit_steps(oracle_signs(functions), (h12, None, h12))[:, -1]
    assert reused.tobytes() == separate.tobytes()


def skewed_hadamard(monkeypatch):
    # H with its lower row negated: the even/odd readout still passes, but H12 is wrong.
    monkeypatch.setattr(qparity.gates, "hadamard",
                        lambda: UnitaryOperator(np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)))


@pytest.mark.parametrize("fault", [flipped_oracle_sign, skewed_hadamard], ids=lambda m: m.__name__)
def test_report_dj_column_equals_the_dj_sweep_under_a_fault(fault, monkeypatch):
    # A fault in the circuits' sign rows or gates reaches the DJ verdicts read off the
    # even/odd run as it reaches the separate DJ circuit on the same gates.
    functions = enumerate_functions()
    honest = run_deutsch_jozsa_sweep(functions, hadamard_both())
    fault(monkeypatch)
    expected = run_deutsch_jozsa_sweep(functions, qparity.gates.even_odd_gates()[0])
    assert expected != honest
    assert list(all_reports().columns["dj_verdict"]) == expected


def test_swapped_gates_leave_no_dj_verdict(monkeypatch):
    # With I (x) H where H (x) H belongs, no even/odd final state matches a parity pattern,
    # so the report sweep raises before it reads DJ, as it did when it ran DJ apart.
    swapped_gates(monkeypatch)
    with pytest.raises(RuntimeError, match="neither parity pattern"):
        all_reports()


def test_flipped_oracle_sign_fails_verification(capsys, monkeypatch):
    # One wrong sign in one function's oracle row must fail that function alone.
    honest = qparity.algorithms.oracle_signs

    def flip_0110(functions):
        functions = tuple(functions)
        signs = honest(functions)
        for row, f in zip(signs, functions):
            if f.to_string() == "0110":
                row[0] = -row[0]
        return signs

    monkeypatch.setattr(qparity.algorithms, "oracle_signs", flip_0110)
    code = main(["verify"])
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert code == 1
    assert any(line.startswith("FAIL final_state_sign_law: 0110: ") for line in failed)
    assert set(re.findall(r"\b[01]{4}\b", "\n".join(failed))) == {"0110"}
    assert lines[-1] == "15/16 functions verified, classical_min_queries=4"


def test_sweeps_build_no_state_vector_and_one_oracle_per_probe(monkeypatch):
    # The circuits' states are rows of one validated stack, and their oracles
    # are sign rows; only verify's oracle_properties probe builds oracles.
    honest_init = qparity.linalg.StateVector.__init__
    state_inits = 0

    def counting_init(self, amplitudes):
        nonlocal state_inits
        state_inits += 1
        honest_init(self, amplitudes)

    honest_build = qparity.oracles.build_oracle
    oracle_builds = {}
    for name, module in list(vars(qparity).items()):
        if getattr(module, "build_oracle", None) is honest_build:
            def counting_build(f, where=name):
                oracle_builds[where] = oracle_builds.get(where, 0) + 1
                return honest_build(f)

            monkeypatch.setattr(module, "build_oracle", counting_build)
    monkeypatch.setattr(qparity.linalg.StateVector, "__init__", counting_init)
    all_reports()
    assert run_all_checks().passed
    assert state_inits == 0
    assert oracle_builds == {"verification": 16}


def test_a_final_state_on_both_readout_components_has_no_verdict():
    # (Ry(pi/4) (x) I)^2 |00> = (|00> + |10>)/sqrt(2) for every function, as the two
    # oracle queries cancel: both components are above the cut, so neither pattern holds.
    c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
    h12 = tensor_product(UnitaryOperator([[c, -s], [s, c]]), identity())
    h2 = tensor_product(identity(), identity())
    with pytest.raises(RuntimeError, match="matches neither parity pattern"):
        run_even_odd_sweep(enumerate_functions(), h12, h2)


class TestStateStackValidation:
    """``validated_state_stack`` checks with ``StateVector``'s messages."""

    def stack(self):
        rows = np.array([[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5]], dtype=complex)
        return np.repeat(rows[:, None, :], 3, axis=1)  # (2 runs, 3 steps, 4)

    def test_non_finite_row_has_the_state_vector_message(self):
        steps = self.stack()
        steps[1, 2, 3] = np.nan
        with pytest.raises(ValueError) as one:
            StateVector(steps[1, 2])
        with pytest.raises(ValueError, match="finite") as stacked:
            validated_state_stack(steps)
        assert str(stacked.value) == str(one.value)

    def test_unnormalized_row_has_the_state_vector_message(self):
        steps = self.stack()
        steps[0, 1] *= 1.1
        with pytest.raises(ValueError) as one:
            StateVector(steps[0, 1])
        with pytest.raises(ValueError, match="not normalized") as stacked:
            validated_state_stack(steps)
        assert str(stacked.value) == str(one.value)

    def test_last_axis_obeys_the_shape_rule(self):
        # As StateVector([1, 0, 0]) raises, so does a stack of such rows, whatever its rank.
        for rows in (np.array([1, 0, 0], complex), np.full((2, 8), 8**-0.5, complex),
                     np.full((2, 6, 3), 3**-0.5, complex)):
            with pytest.raises(ValueError, match="d of 2 or 4"):
                validated_state_stack(rows)

    def test_stack_is_returned_read_only(self):
        steps = validated_state_stack(self.stack())
        with pytest.raises(ValueError):
            steps[0, 0, 0] = 0.0

    def test_every_per_step_state_is_read_only(self):
        for result in run_even_odd_sweep(enumerate_functions(), hadamard_both(), hadamard_second()):
            assert result.final_state is result.per_step_states[-1]
            for state in result.per_step_states:
                assert state.amplitudes.shape == (4,)
                with pytest.raises(ValueError):
                    state.amplitudes[0] = 0.0
