"""Mutation tests of ``qparity verify`` (DeMillo, Lipton & Sayward, "Hints on
test data selection", IEEE Computer 11(4), 1978): each mutant plants one fault
in the program that ``verify`` checks, and ``verify`` must exit 1, fail exactly
the checks that see the fault and lower ``functions_verified`` by the functions
it affects. Faults enter only through explicit points: the gates the sweeps are
given, ``qparity.verification.classification_report_sweep``, or a public name.
No private name is patched."""

import dataclasses
import json

import numpy as np
import pytest

import qparity.algorithms
import qparity.gates
import qparity.reports
import qparity.verification
from qparity import DJVerdict, TruthTable, UnitaryOperator
from qparity.algorithms import CircuitSweep, Sweep
from qparity.cli import main
from qparity.nmr import COHERENCE_ORDERS


def swapped_gates(monkeypatch):
    # The even/odd circuit runs I (x) H where it should run H (x) H, and back.
    honest = qparity.gates.even_odd_gates
    monkeypatch.setattr(qparity.gates, "even_odd_gates", lambda: honest()[::-1])


def flipped_oracle_sign(monkeypatch):
    # The circuits query 0110's oracle with its |11> sign flipped, i.e. 0111's oracle.
    honest = qparity.algorithms.oracle_signs

    def signs(functions):
        functions = tuple(functions)
        rows = honest(functions).copy()
        for k, f in enumerate(functions):
            if f == TruthTable.from_string("0110"):
                rows[k, 3] *= -1
        return rows

    monkeypatch.setattr(qparity.algorithms, "oracle_signs", signs)


def mislabelled_dj_verdict(monkeypatch):
    # The DJ readout calls the constant 1111, whose DJ final state is -|00>, balanced.
    honest = qparity.reports.dj_readout

    def readout(finals):
        return [DJVerdict.BALANCED if row == [-1, 0, 0, 0] else v
                for row, v in zip(np.round(finals.real).tolist(), honest(finals))]

    monkeypatch.setattr(qparity.reports, "dj_readout", readout)


def shifted_coherence_mask(monkeypatch):
    # Component k holds the entries of order k + 1: every mask is one order off.
    honest = qparity.verification.decompose_coherences_stack

    def decompose(rhos):
        orders = honest(rhos)
        zero = 0.0 * orders[0]
        return {k: orders.get(k + 1, zero) for k in COHERENCE_ORDERS}

    monkeypatch.setattr(qparity.verification, "decompose_coherences_stack", decompose)


def search_skipping_a_point(monkeypatch):
    # The promise pool keeps only the tables with f(11) = 0, as if f(11) were learned free.
    honest = qparity.verification.constant_balanced_promise_functions
    monkeypatch.setattr(qparity.verification, "constant_balanced_promise_functions",
                        lambda: [f for f in honest() if f.outputs[3] == 0])


def three_oracle_calls(monkeypatch):
    # Every circuit claims a third oracle call, which no longer meets the bound.
    honest = qparity.verification.classification_report_sweep

    def sweep(functions):
        return [dataclasses.replace(r, circuit=dataclasses.replace(r.circuit, oracle_calls=3))
                for r in honest(functions)]

    monkeypatch.setattr(qparity.verification, "classification_report_sweep", sweep)


def sign_flipped_hadamard(monkeypatch):
    honest = qparity.gates.hadamard
    monkeypatch.setattr(qparity.gates, "hadamard",
                        lambda: UnitaryOperator(-honest().entries))


def misclassified_function(monkeypatch):
    # The reports' classify puts 0110 in class [3,1], the class of 0111.
    honest = qparity.reports.classify
    wrong = {TruthTable.from_string("0110"): TruthTable.from_string("0111")}
    monkeypatch.setattr(qparity.reports, "classify", lambda f: honest(wrong.get(f, f)))


def phase_gate_oracle(monkeypatch):
    # verify's oracle for 1001 carries i at |11>: unitary and diagonal, but not self-inverse.
    honest = qparity.verification.build_oracle

    def oracle(f):
        entries = honest(f).entries
        if f == TruthTable.from_string("1001"):
            entries = entries @ np.diag([1, 1, 1, 1j])
        return UnitaryOperator(entries)

    monkeypatch.setattr(qparity.verification, "build_oracle", oracle)


def flipped_separability_row(monkeypatch):
    # The minor rule calls 1011's oracle separable.
    honest = qparity.reports.separable_signs

    def separable(diagonals):
        rows = honest(diagonals).copy()
        rows[(np.asarray(diagonals) == [-1, 1, -1, -1]).all(axis=1)] ^= True
        return rows

    monkeypatch.setattr(qparity.reports, "separable_signs", separable)


def off_norm_first_step(monkeypatch):
    # The state after the first H (x) H of 1110's circuit has norm^2 1 + 1e-9; the
    # final state is untouched.
    honest = qparity.verification.classification_report_sweep

    def sweep(functions):
        reports = honest(functions)
        circuits = reports.columns["circuit"]
        steps = np.array(circuits.columns["per_step_states"])
        bits = [f.to_string() for f in reports.columns["function"]]
        steps[bits.index("1110"), 1] *= np.sqrt(1 + 1e-9)
        circuits = CircuitSweep(circuits.row_type, {**circuits.columns, "per_step_states": steps})
        return Sweep(reports.row_type, {**reports.columns, "circuit": circuits})

    monkeypatch.setattr(qparity.verification, "classification_report_sweep", sweep)


def sweep_failing_only_whole(monkeypatch):
    # The report sweep raises whenever it is given more than one function, so every
    # function's analysis succeeds alone and only the 16-function sweep fails.
    honest = qparity.verification.classification_report_sweep

    def sweep(functions):
        functions = tuple(functions)
        if len(functions) > 1:
            raise RuntimeError("injected fault")
        return honest(functions)

    monkeypatch.setattr(qparity.verification, "classification_report_sweep", sweep)


def sweep_rows(pick):
    """A mutant whose report sweep is ``pick`` of the honest sweep's 16 reports."""

    def inject(monkeypatch):
        honest = qparity.verification.classification_report_sweep
        monkeypatch.setattr(qparity.verification, "classification_report_sweep",
                            lambda functions: pick(honest(functions)[:]))

    inject.__name__ = pick.__name__
    return inject


@sweep_rows
def dropped_last_function(reports):
    # 1111 has no report.
    return reports[:15]


@sweep_rows
def repeated_first_function(reports):
    # 1111 has no report and 0000 has two.
    return reports[:15] + reports[:1]


@sweep_rows
def reversed_sweep(reports):
    # Every function has its one report, in descending order.
    return reports[::-1]


@sweep_rows
def unnamed_function(reports):
    # 0110's report names no function: it is checked as missing, not as a crash.
    reports[6] = dataclasses.replace(reports[6], function=None)
    return reports


# mutant: (failing checks in order, functions_verified)
EVERY_CHECK = [
    "function_analysis", "function_enumeration", "oracle_properties", "separability_parity_theorem",
    "circuit_verdicts", "step_normalization", "final_state_sign_law", "final_state_patterns",
    "density_matrix_forms", "reduced_density_forms", "entanglement_correspondence",
    "schmidt_coefficients", "even_odd_overlap", "nmr_observability", "coherence_resum",
    "dj_verdicts", "spin_readout_separation", "query_separation",
]
MUTANTS = {
    # No final state matches a parity pattern, so every analysis raises.
    swapped_gates: (EVERY_CHECK, 0),
    flipped_oracle_sign: (
        ["circuit_verdicts", "final_state_sign_law", "final_state_patterns",
         "density_matrix_forms", "reduced_density_forms", "entanglement_correspondence",
         "schmidt_coefficients", "even_odd_overlap", "nmr_observability", "dj_verdicts",
         "spin_readout_separation"],
        15,
    ),
    mislabelled_dj_verdict: (["dj_verdicts"], 15),
    shifted_coherence_mask: (["coherence_resum"], 0),
    search_skipping_a_point: (["query_separation"], 16),
    three_oracle_calls: (["circuit_verdicts", "query_separation"], 0),
    sign_flipped_hadamard: (["final_state_sign_law"], 0),
    misclassified_function: (["function_enumeration"], 15),
    phase_gate_oracle: (["oracle_properties"], 15),
    flipped_separability_row: (["separability_parity_theorem"], 15),
    off_norm_first_step: (["step_normalization"], 15),
    dropped_last_function: (["function_enumeration"], 15),
    repeated_first_function: (["function_enumeration"], 14),
    reversed_sweep: (["function_enumeration"], 16),
    unnamed_function: (["function_enumeration"], 15),
    # The reports checked are sound, but not the sweep that table prints from.
    sweep_failing_only_whole: (["function_analysis"], 0),
}


@pytest.mark.parametrize("mutant", list(MUTANTS), ids=lambda m: m.__name__)
def test_verify_kills_the_mutant(mutant, capsys, monkeypatch):
    mutant(monkeypatch)
    expected_failures, verified = MUTANTS[mutant]
    code = main(["verify", "--json"])
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert (code, err) == (1, "")
    assert [c["name"] for c in payload["checks"] if not c["passed"]] == expected_failures
    assert payload["summary"]["functions_verified"] == verified


def test_every_check_is_killed_by_a_mutant():
    # Each check has a mutant that it alone, or with a few others, kills, so no
    # check is covered only by a mutant that fails them all.
    killed = {name for failures, _ in MUTANTS.values() for name in failures}
    assert killed == set(EVERY_CHECK)
    selective = {name for failures, _ in MUTANTS.values() if failures != EVERY_CHECK
                 for name in failures}
    assert selective == set(EVERY_CHECK)
