"""The checks of ``qparity verify``: per-function attribution of injected
faults, the certificate of the classical query counts, and concurrent use."""

import dataclasses
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qparity.reports
import qparity.verification
from qparity import (
    StateVector, classical_min_queries, constant_balanced_promise_functions, run_all_checks,
    to_canonical_json,
)
from qparity.cli import main
from qparity.linalg import ZERO_FLOOR
from qparity.oracles import Parity, classify, enumerate_functions
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


# The check that reads each number or flag field of a report. np.array(..., dtype=float)
# once parsed "0.5" as 0.5, and a column holding "False" compared unequal to every flag,
# so a report that the JSON writer refuses passed every check.
STR_READERS = {
    **dict.fromkeys(["entanglement.concurrence", "entanglement.is_entangled",
                     "entanglement.reduced_purity_q1", "entanglement.reduced_purity_q2"],
                    "entanglement_correspondence"),
    "entanglement.schmidt_coefficients": "schmidt_coefficients",
    **dict.fromkeys([f"observability.{field}" for field in (
        "observable_line", "transverse_magnetization_q1", "transverse_magnetization_q2",
        "single_quantum_weight", "zero_quantum_weight")], "nmr_observability"),
    "oracle_separable": "separability_parity_theorem",
}


def with_str_in_row_0(sweep, path):
    """A copy of a report sweep whose row 0 holds the repr of its value at the dotted
    ``path`` (of each member, for a tuple)."""
    head, _, rest = path.partition(".")
    columns = dict(sweep.columns)
    if rest:
        columns[head] = with_str_in_row_0(columns[head], rest)
    else:
        value, *others = columns[head]
        columns[head] = [tuple(map(repr, value)) if type(value) is tuple else repr(value), *others]
    return type(sweep)(sweep.row_type, columns)


@pytest.mark.parametrize("path", list(STR_READERS))
def test_a_number_or_flag_given_as_a_str_fails_its_function(path, capsys, monkeypatch):
    honest = qparity.verification.classification_report_sweep
    monkeypatch.setattr(qparity.verification, "classification_report_sweep",
                        lambda functions: with_str_in_row_0(honest(functions), path))
    code = main(["verify", "--json"])
    out, err = capsys.readouterr()
    payload = json.loads(out)
    failed = [c["name"] for c in payload["checks"] if not c["passed"]]
    assert (code, err) == (1, "")
    if "magnetization" in path:
        # The readout check fails too: that row cannot be read out, and neither rule reads it.
        assert failed == [STR_READERS[path], "spin_readout_separation"]
    else:
        assert failed == [STR_READERS[path]]
    assert payload["summary"]["functions_verified"] == 15


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


def honest_densities() -> np.ndarray:
    """A writable copy of the density stack that verify checks, one row per function."""
    finals = np.array([r.circuit.final_state.amplitudes for r in all_reports()])
    return qparity.verification.density_from_state_stack(finals).copy()


def density_check_with(rhos, monkeypatch):
    """The ``density_matrix_forms`` result of a verify run whose density stack is ``rhos``."""
    monkeypatch.setattr(qparity.verification, "density_from_state_stack", lambda amps: rhos)
    (check,) = [c for c in run_all_checks().checks if c.name == "density_matrix_forms"]
    return check


@pytest.mark.parametrize("scale", [1e-13, 1e-12, 1e-11, 1e-10, 1e-9])
def test_eigenvalue_rule_flags_the_rows_the_full_call_does(scale, monkeypatch):
    # The rule calls eigvalsh only on the rows that are more than ZERO_FLOOR / 8 from their
    # projector; on every row it must flag what eigvalsh of the whole stack flags. Half the
    # perturbations are indefinite, half positive semidefinite, each with a non-Hermitian
    # part of 1e-13 that eigvalsh, reading one triangle, does not see.
    honest, bits = honest_densities(), [f"{k:04b}" for k in range(16)]
    rng = np.random.default_rng(int(-np.log10(scale)))
    flagged = []
    for k in range(16):
        for positive in (False, True):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            e = g @ g.conj().T / 8 if positive else (g + g.conj().T) / 4
            rhos = honest.copy()
            rhos[k] += scale * e + 1e-13 * rng.standard_normal((4, 4))
            expected = np.linalg.eigvalsh(rhos).min(axis=1) < -ZERO_FLOOR
            detail = density_check_with(rhos, monkeypatch).detail
            assert [f"{b}: density matrix has a negative eigenvalue" in detail
                    for b in bits] == expected.tolist()
            flagged.append(expected[k])
    # Below 1e-10 no row has an eigenvalue below -ZERO_FLOOR. At 1e-9 the rule calls eigvalsh
    # on every perturbed row: some indefinite ones have one, no positive one does.
    if scale < 1e-10:
        assert not any(flagged)
    if scale == 1e-9:
        assert any(flagged)
    assert not any(flagged[1::2])


def test_density_fault_with_a_negative_eigenvalue_fails(monkeypatch):
    # |11> is orthogonal to every final state, so 0110's matrix gets the eigenvalue -2e-10.
    rhos = honest_densities()
    rhos[6, 3, 3] -= 2e-10
    check = density_check_with(rhos, monkeypatch)
    assert not check.passed
    assert check.detail == ("0110: density matrix deviates by 2.000e-10; "
                            "0110: density matrix has a negative eigenvalue")


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


def test_array_note_values_print_as_their_tolist_entries(capsys, monkeypatch):
    # A failing row's values are read from array columns only when its note is written;
    # numpy 2 writes a scalar's repr as np.float64(0.5), so each must print as the entry
    # of the array's tolist() does: the purity by its repr, the expected one by str.
    honest, seen = qparity.verification.purity_stack, []

    def halved_last_purity(rhos):
        seen.append(honest(rhos) * np.r_[np.ones(15), 0.5])
        return seen[-1]

    monkeypatch.setattr(qparity.verification, "purity_stack", halved_last_purity)
    code = main(["verify"])
    lines = capsys.readouterr().out.splitlines()
    (purities,) = seen
    assert repr(purities[15]) != repr(purities.tolist()[15])
    note = f"1111: qubit-2 reduced purity {purities.tolist()[15]!r} != 1.0"
    assert code == 1
    assert [line for line in lines if line.startswith("FAIL")] == [
        f"FAIL reduced_density_forms: {note}"]
    assert "np." not in "".join(lines)


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


def mask(functions) -> int:
    """Truth tables as a bit mask, bit k for the bits of k, as ``_certificate`` reads them."""
    tables = 0
    for f in functions:
        tables |= 1 << int(f.to_string(), 2)
    return tables


def certify(label, pool=None) -> tuple[tuple[int, int], int]:
    """The certificate's bounds for a 0/1 ``label`` on ``pool`` (all 16 tables by default),
    and the exhaustive search's count."""
    pool = enumerate_functions() if pool is None else pool
    bounds = qparity.verification._certificate(mask(f for f in pool if label(f)), mask(pool))
    return bounds, classical_min_queries(label, pool)


def moebius(labels: int) -> list[int]:
    """The coefficients of a label's multilinear polynomial, by inclusion-exclusion over
    the subsets T of each monomial S (as bit masks), independently of ``verify``."""
    return [sum((-1) ** bin(s ^ t).count("1") * (labels >> t & 1) for t in range(16) if t & s == t)
            for s in range(16)]


def test_parity_certificates_are_tight():
    # Beals et al.: exact quantum algorithms need deg/2 queries; the x1x2x3x4
    # coefficient -8 makes parity's degree 4, so the circuit's 2 calls are optimal.
    odd = lambda f: classify(f).parity is Parity.ODD
    odd_tables = mask(filter(odd, enumerate_functions()))
    assert moebius(odd_tables)[15] == -8
    assert qparity.verification._degree(odd_tables) == 4
    # Both bounds are the exhaustive search's answer: every strategy needs all 4 points.
    assert certify(odd) == ((4, 4), 4)


@pytest.mark.parametrize("bit", range(4))
def test_certificates_of_one_output_bit(bit):
    # A label that is one output bit has degree 1, and one query decides it.
    label = lambda f: f.outputs[bit]
    tables = mask(filter(label, enumerate_functions()))
    assert [k for k, c in enumerate(moebius(tables)) if c] == [8 >> bit]
    assert qparity.verification._degree(tables) == 1
    assert certify(label) == ((1, 1), 1)


def test_degree_of_every_label_is_its_moebius_degree():
    # All 2^16 labels; the transform is linear, so each is a sum of the one-table labels'.
    labels = np.arange(1 << 16)[:, None] >> np.arange(16) & 1
    coefficients = labels @ np.array([moebius(1 << t) for t in range(16)])
    sizes = np.array([bin(s).count("1") for s in range(16)])
    expected = np.where(coefficients != 0, sizes, 0).max(axis=1)
    assert [qparity.verification._degree(ones) for ones in range(1 << 16)] == expected.tolist()


def test_promise_and_constant_certificates_are_tight():
    # Under the promise, two points answered 0 leave 0000 and a balanced table; three decide.
    promise = constant_balanced_promise_functions()
    assert certify(lambda f: f.ones() in (0, 4), promise) == ((3, 3), 3)
    assert certify(lambda f: True) == ((0, 0), 0)
    # f(00) and f(01): an adversary answering 0 stops after one point, one answering 1 after two.
    assert certify(lambda f: f.outputs[0] & f.outputs[1]) == ((2, 2), 2)


def address(f) -> int:
    """f(00) ? f(01) : f(10): two adaptive queries decide it, but no two fixed points do."""
    return f.outputs[1] if f.outputs[0] else f.outputs[2]


@given(st.lists(st.sampled_from(enumerate_functions()), max_size=16),
       st.lists(st.integers(0, 1), min_size=16, max_size=16))
@settings(max_examples=200, deadline=None)
def test_certificate_bounds_the_search(pool, labels):
    (lower, upper), search = certify(lambda f: labels[int(f.to_string(), 2)], pool)
    assert lower <= search <= upper


def majority(f) -> int:
    """The majority of f(00), f(01), f(10): of degree 3, and two answers alike stop an adversary."""
    return int(sum(f.outputs[:3]) >= 2)


@pytest.mark.parametrize("label, search, note", [
    (address, 2, "quantum circuits used {2} oracle calls, expected 1"),
    # Degree 3 asks 2 quantum queries, which the lower bound 2 does not separate.
    (majority, 3, "no quantum/classical separation"),
], ids=["address", "majority"])
def test_split_certificate_fails_the_summary_count(label, search, note, capsys, monkeypatch):
    # A classify whose parity is ``label``: verify cannot certify a count.
    assert certify(label) == ((2, 3), search)
    honest = qparity.verification.classify
    monkeypatch.setattr(qparity.verification, "classify", lambda f: dataclasses.replace(
        honest(f), parity=Parity.ODD if label(f) else Parity.EVEN))
    code = main(["verify"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if not line.startswith("ok ")] == [
        f"FAIL query_separation: classical parity queries in [2, 3], expected 4; {note}",
        "16/16 functions verified, classical_min_queries=?",
    ]


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
