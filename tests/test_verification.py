"""The checks of ``qparity verify``: per-function attribution of injected
faults, and concurrent use."""

import dataclasses
import sys
import threading

import pytest

import qparity.reports
import qparity.verification
from qparity import StateVector, run_all_checks, to_canonical_json
from qparity.cli import main
from qparity.oracles import Parity, classify
from qparity.reports import all_reports, report_to_jsonable


def negate_final_state(report):
    final = StateVector(-report.circuit.final_state.amplitudes)
    steps = report.circuit.per_step_states[:-1] + (final,)
    circuit = dataclasses.replace(report.circuit, final_state=final, per_step_states=steps)
    return dataclasses.replace(report, circuit=circuit)


def halve_concurrence(report):
    return dataclasses.replace(
        report, entanglement=dataclasses.replace(report.entanglement, concurrence=0.5)
    )


def quarter_q2_magnetization(report):
    return dataclasses.replace(
        report,
        observability=dataclasses.replace(
            report.observability, transverse_magnetization_q2=0.25
        ),
    )


# Expected output recorded before the checks became array probes.
FAULTS = {
    "1100": (
        negate_final_state,
        ["FAIL final_state_sign_law: 1100: final state deviates from sign law by 1.414e+00"],
    ),
    "0111": (
        halve_concurrence,
        [
            "FAIL entanglement_correspondence: 0111: concurrence 0.5 != 1.0; "
            "0111: purity/concurrence relation violated"
        ],
    ),
    "0000": (
        quarter_q2_magnetization,
        [
            "FAIL nmr_observability: 0000: qubit-2 magnetization 0.25 != 0.5",
            "FAIL spin_readout_separation: qubit-2 magnetization threshold 0.25 "
            "fails to classify parity",
        ],
    ),
}


def verify_with(fault, capsys, monkeypatch) -> tuple[int, list[str], str]:
    """Run ``qparity verify`` on the sweep's reports passed through ``fault``;
    returns the exit code, the FAIL lines and the summary line."""
    honest = qparity.verification.classification_report_sweep
    monkeypatch.setattr(
        qparity.verification,
        "classification_report_sweep",
        lambda functions: [fault(r) for r in honest(functions)],
    )
    code = main(["verify"])
    lines = capsys.readouterr().out.splitlines()
    return code, [line for line in lines if line.startswith("FAIL")], lines[-1]


@pytest.mark.parametrize("bits", sorted(FAULTS))
def test_one_function_fault_is_attributed_to_it(bits, capsys, monkeypatch):
    fault, expected_failures = FAULTS[bits]
    code, failed, summary = verify_with(
        lambda r: fault(r) if r.function.to_string() == bits else r, capsys, monkeypatch
    )
    assert code == 1
    assert failed == expected_failures
    assert summary == "15/16 functions verified, classical_min_queries=4"


@pytest.mark.parametrize("bits", sorted(FAULTS))
def test_one_function_fault_is_caught_with_qparity_tolerance_set(bits, capsys, monkeypatch):
    # No command reads the variable; it once set verify's tolerance, and at 1e6
    # let every fault pass.
    monkeypatch.setenv("QPARITY_TOLERANCE", "1e6")
    fault, expected_failures = FAULTS[bits]
    code, failed, summary = verify_with(
        lambda r: fault(r) if r.function.to_string() == bits else r, capsys, monkeypatch
    )
    assert code == 1
    assert failed == expected_failures
    assert summary == "15/16 functions verified, classical_min_queries=4"


def set_field(record, field, value):
    """A fault that sets one field of a report's ``record`` (its entanglement or
    observability analysis) to ``value``."""

    def fault(report):
        analysis = dataclasses.replace(getattr(report, record), **{field: value})
        return dataclasses.replace(report, **{record: analysis})

    return fault


NAN = float("nan")
# A NaN once passed every rule, since it compares false with any tolerance, and
# the coherence weights that classify and table print had no rule at all.
FIELD_FAULTS = {
    ("0000", "entanglement", "concurrence", NAN): [
        "FAIL entanglement_correspondence: 0000: concurrence nan != 0.0; "
        "0000: purity/concurrence relation violated"
    ],
    ("0110", "entanglement", "reduced_purity_q1", NAN): [
        "FAIL entanglement_correspondence: 0110: reduced purities of the two qubits disagree"
    ],
    ("0011", "entanglement", "schmidt_coefficients", (NAN, 0.0)): [
        "FAIL schmidt_coefficients: 0011: schmidt coefficients (nan, 0.0) != (1.0, 0.0)"
    ],
    ("0001", "observability", "transverse_magnetization_q2", NAN): [
        "FAIL nmr_observability: 0001: qubit-2 magnetization nan != 0.0",
        "FAIL spin_readout_separation: qubit-2 magnetization threshold 0.25 fails to classify "
        "parity; 0001: qubit-2 magnetization nan cannot be read out",
    ],
    ("0000", "observability", "transverse_magnetization_q1", NAN): [
        "FAIL nmr_observability: 0000: qubit-1 magnetization nan != 0",
        "FAIL spin_readout_separation: 0000: qubit-1 magnetization nan cannot be read out",
    ],
    ("0000", "observability", "single_quantum_weight", NAN): [
        "FAIL nmr_observability: 0000: single-quantum weight nan != 1.0"
    ],
    ("0000", "observability", "single_quantum_weight", 5.0): [
        "FAIL nmr_observability: 0000: single-quantum weight 5.0 != 1.0"
    ],
    ("0111", "observability", "zero_quantum_weight", NAN): [
        "FAIL nmr_observability: 0111: zero-quantum weight nan != 1.0"
    ],
    ("1001", "observability", "zero_quantum_weight", 5.0): [
        "FAIL nmr_observability: 1001: zero-quantum weight 5.0 != 0.0"
    ],
}


@pytest.mark.parametrize("bits, record, field, value", list(FIELD_FAULTS), ids=repr)
def test_one_wrong_field_is_attributed_to_its_function(
    bits, record, field, value, capsys, monkeypatch
):
    fault = set_field(record, field, value)
    code, failed, summary = verify_with(
        lambda r: fault(r) if r.function.to_string() == bits else r, capsys, monkeypatch
    )
    assert code == 1
    assert failed == FIELD_FAULTS[bits, record, field, value]
    assert summary == "15/16 functions verified, classical_min_queries=4"


def test_cancelling_schmidt_formula_is_caught(capsys, monkeypatch):
    # The pair sqrt((1 +- sqrt(1 - C^2))/2) gave every odd function, 1.4e-8
    # from 1/sqrt(2) because 1 - C^2 cancels at C = 1 - 8e-16.
    cancelled = (0.7071067951253074, 0.7071067672477874)

    def cancelling(report):
        if not report.entanglement.is_entangled:
            return report
        entanglement = dataclasses.replace(report.entanglement, schmidt_coefficients=cancelled)
        return dataclasses.replace(report, entanglement=entanglement)

    code, failed, summary = verify_with(cancelling, capsys, monkeypatch)
    note = f"schmidt coefficients {cancelled} != (0.7071067811865476, 0.7071067811865476)"
    first_four = "; ".join(f"{bits}: {note}" for bits in ("0001", "0010", "0100", "0111"))
    assert code == 1
    assert failed == [f"FAIL schmidt_coefficients: {first_four}; and 4 more"]
    assert summary == "8/16 functions verified, classical_min_queries=4"


def test_misshapen_final_state_fails_the_checks_that_read_it(capsys, monkeypatch):
    def one_qubit_final(report):
        if report.function.to_string() != "0110":
            return report
        circuit = dataclasses.replace(report.circuit, final_state=StateVector([1.0, 0.0]))
        return dataclasses.replace(report, circuit=circuit)

    code, failed, summary = verify_with(one_qubit_final, capsys, monkeypatch)
    readers = ["final_state_sign_law", "final_state_patterns", "density_matrix_forms",
               "reduced_density_forms", "even_odd_overlap", "coherence_resum"]
    assert code == 1
    assert [line.split(":")[0] for line in failed] == [f"FAIL {name}" for name in readers]
    assert all(": 0000: check raised ValueError(" in line for line in failed)
    assert summary == "0/16 functions verified, classical_min_queries=4"


def test_probe_rule_missing_a_row_fails_its_check(capsys, monkeypatch):
    # Only the qubit-1 trace rule reads the short stack, so its mask misses
    # the last function; a rule must cover every report or the check fails.
    honest = qparity.verification.partial_trace_stack
    monkeypatch.setattr(
        qparity.verification,
        "partial_trace_stack",
        lambda rhos, keep: honest(rhos, keep)[:-1] if keep == 1 else honest(rhos, keep),
    )
    code = main(["verify"])
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert code == 1
    assert len(failed) == 1 and failed[0].startswith("FAIL reduced_density_forms: 0000: check raised")
    assert lines[-1] == "0/16 functions verified, classical_min_queries=4"


def test_parity_flipped_classify_is_blamed_on_classify(capsys, monkeypatch):
    # The expectations and the readout's even/odd split come from the
    # truth-table bits, not from classify, so a wrong classify fails the class
    # rule alone, and the physics checks keyed by the bits pass.
    def flipped(f):
        c = classify(f)
        parity = Parity.ODD if c.parity is Parity.EVEN else Parity.EVEN
        return dataclasses.replace(c, parity=parity)

    for module in (qparity.reports, qparity.verification):
        monkeypatch.setattr(module, "classify", flipped)
    code = main(["verify"])
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert code == 1
    assert [line.split(":")[0] for line in failed] == ["FAIL function_enumeration"]
    assert failed[0] == (
        "FAIL function_enumeration: "
        "0000: classify gives [0,4] odd, the ANF and W give [0,4] even; "
        "0001: classify gives [1,3] even, the ANF and W give [1,3] odd; "
        "0010: classify gives [1,3] even, the ANF and W give [1,3] odd; "
        "0011: classify gives [2,2] odd, the ANF and W give [2,2] even; and 12 more"
    )
    for name in ("separability_parity_theorem", "circuit_verdicts", "entanglement_correspondence",
                 "schmidt_coefficients", "nmr_observability", "spin_readout_separation"):
        assert f"ok   {name}" in lines
    assert lines[-1] == "0/16 functions verified, classical_min_queries=4"


RAISED = "check raised RuntimeError('injected fault')"


@pytest.mark.parametrize(
    "modules, analysis_failed, enumeration_note",
    [
        (("verification",), False, f"0000: {RAISED}; 0001: {RAISED}; 0010: {RAISED}; "
         f"0011: {RAISED}; and 12 more"),
        # With the reports' classify raising too, no report is left to fail.
        (("verification", "reports"), True, RAISED),
    ],
    ids=["probes", "probes-and-analysis"],
)
def test_raising_probe_fails_its_check_without_a_crash(
    modules, analysis_failed, enumeration_note, capsys, monkeypatch
):
    # function_enumeration and query_separation call classify themselves.
    def broken(f):
        raise RuntimeError("injected fault")

    for module in modules:
        monkeypatch.setattr(getattr(qparity, module), "classify", broken)
    code = main(["verify"])
    lines = capsys.readouterr().out.splitlines()
    failed = [line.split(":")[0] for line in lines if line.startswith("FAIL")]
    assert code == 1
    assert len(lines) == 19
    if analysis_failed:
        # With no report left, no check passes vacuously: all 18 fail, and the
        # 15 that found nothing else say that they had nothing to check.
        assert failed == [line.split(":")[0] for line in lines[:-1]]
        assert [line for line in lines if line.endswith(": no report to check")] == lines[2:-2]
    else:
        assert failed == ["FAIL function_enumeration", "FAIL query_separation"]
    assert lines[1] == f"FAIL function_enumeration: {enumeration_note}"
    assert lines[-1] == "0/16 functions verified, classical_min_queries=?"


def snapshot():
    reports = to_canonical_json([report_to_jsonable(r) for r in all_reports()])
    outcome = run_all_checks()
    return reports, outcome


def test_concurrent_sweeps_equal_a_serial_run():
    serial = snapshot()
    results, errors = [], []

    def work():
        try:
            for _ in range(20):
                results.append(snapshot())
        except Exception as exc:  # surfaced below; a thread cannot fail the test
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 80
    assert all(result == serial for result in results)
    assert serial[1].passed
