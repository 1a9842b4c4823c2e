"""The report sweep: all 16 reports from one sweep equal the per-function
reports, and the sweep builds its gates once."""

import qparity.gates
from qparity import classification_report, enumerate_functions, run_even_odd
from qparity.reports import all_reports


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


def test_sweep_builds_gates_once(monkeypatch):
    # A sweep builds one gate set from one Hadamard; the single-function paths
    # build their own, one Hadamard per circuit.
    honest = qparity.gates.hadamard
    calls = 0

    def counting_hadamard():
        nonlocal calls
        calls += 1
        return honest()

    monkeypatch.setattr(qparity.gates, "hadamard", counting_hadamard)
    f = enumerate_functions()[6]
    for run, expected in ((all_reports, 1), (lambda: classification_report(f), 2),
                          (lambda: run_even_odd(f), 1)):
        calls = 0
        run()
        assert calls == expected
