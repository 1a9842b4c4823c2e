"""The report sweep: all 16 reports from one sweep equal the per-function
reports, and compare equal to them, the sweep reads the gate pair built at
import and builds no gate, and the class summary names what keeps it from a row."""

import dataclasses

import pytest

import qparity.gates
from qparity import DJVerdict, TruthTable, classification_report, enumerate_functions, run_even_odd
from qparity.reports import all_reports, class_summary_rows, classification_report_sweep


def amplitude_bytes(report):
    return [state.amplitudes.tobytes() for state in report.circuit.per_step_states]


def test_sweep_equals_one_report_per_function():
    swept = all_reports()
    single = [classification_report(f) for f in enumerate_functions()]
    assert len(swept) == len(single) == 16
    for a, b in zip(swept, single):
        assert a.function == b.function
        assert a.function_class == b.function_class
        assert a.oracle_separable == b.oracle_separable
        assert a.dj_verdict is b.dj_verdict
        assert a.circuit.verdict is b.circuit.verdict
        assert a.circuit.oracle_calls == b.circuit.oracle_calls
        assert a.circuit.final_state is a.circuit.per_step_states[-1]
        assert amplitude_bytes(a) == amplitude_bytes(b)
        assert a.entanglement == b.entanglement
        assert a.observability == b.observability


def test_equal_reports_compare_equal():
    # A report's states compare by their amplitudes, so two runs of the same
    # sweep are equal, and so are a function's report and its sweep of one.
    assert all_reports() == all_reports()
    for f in enumerate_functions():
        single, swept = classification_report(f), classification_report_sweep((f,))[0]
        assert single == swept and hash(single) == hash(swept), f.to_string()


def test_sweep_constructs_no_gate(monkeypatch):
    # A sweep reads the gate pair built at import; the single-function paths
    # build their own, one Hadamard per circuit.
    honest = qparity.gates.hadamard
    calls = 0

    def counting_hadamard():
        nonlocal calls
        calls += 1
        return honest()

    monkeypatch.setattr(qparity.gates, "hadamard", counting_hadamard)
    f = enumerate_functions()[6]
    for run, expected in ((all_reports, 0), (lambda: classification_report(f), 2),
                          (lambda: run_even_odd(f), 1)):
        calls = 0
        run()
        assert calls == expected


def test_the_shared_pair_is_read_only():
    for gate in qparity.gates.EVEN_ODD_GATES:
        with pytest.raises(ValueError):
            gate.entries[0, 0] = -gate.entries[0, 0]


def test_class_summary_names_an_empty_class_and_a_split_one():
    # A class no report falls in has no row to summarize; it is not "not homogeneous".
    one = classification_report_sweep([TruthTable.from_string("0001")])
    with pytest.raises(ValueError, match=r"^class \[0,4\] has no report$"):
        class_summary_rows(one)
    split = list(all_reports())
    split[1] = dataclasses.replace(split[1], dj_verdict=DJVerdict.BALANCED)  # 0001 of class [1,3]
    with pytest.raises(ValueError, match=r"^class \[1,3\] is not homogeneous$"):
        class_summary_rows(split)
    assert class_summary_rows(all_reports())[1] == {
        "class": "[1,3]", "count": 4, "parity": "odd", "oracle": "entangling", "dj": "neither"}
