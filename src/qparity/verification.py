"""Self-verification suite: every library-level invariant, run exhaustively.

One classification report is built per two-bit function, by the same sweep
that ``qparity table`` prints from. Each named check sweeps those 16 reports
(or the relevant global property) and reports pass/fail with a short
expected-vs-actual note on failure. The CLI ``verify`` command renders these
results and exits nonzero if anything fails. Checks trap exceptions, so a
broken build degrades to failed checks instead of a crash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algorithms import (
    DJVerdict,
    classical_min_queries,
    constant_balanced_promise_functions,
)
from .entanglement import is_idempotent
from .linalg import DEFAULT_TOL, density_from_state, overlap, partial_trace, purity
from .nmr import (
    decompose_coherences,
    magnetization_classifies_parity,
    spin1_indistinguishability_check,
)
from .oracles import Parity, TruthTable, build_oracle, classify, enumerate_functions
from .reports import (
    ClassificationReport,
    classification_report,
    classification_report_sweep,
)

_QUARTER_AMP = 1.0 / (2.0 * math.sqrt(2.0))

# Correctly computed states and reduced matrices deviate from their exact
# values by rounding errors of up to a few 1e-15, so a check tolerance must
# stay well above that: at 1e-15, correct results fail reduced_density_forms
# for 8 of the 16 functions.
MIN_TOLERANCE = 1e-13


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationOutcome:
    checks: list[CheckResult]
    functions_verified: int
    total_functions: int
    classical_queries: int | None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary_line(self) -> str:
        queries = "?" if self.classical_queries is None else self.classical_queries
        return (
            f"{self.functions_verified}/{self.total_functions} functions verified, "
            f"classical_min_queries={queries}"
        )


def _final_state_numerators(f: TruthTable) -> np.ndarray:
    """The closed form of the even/odd circuit's final state, times 2*sqrt(2).

    The final amplitudes are ((a+b), 2, (a-b), 0)/(2*sqrt(2)) with
    a = (-1)^(f(00) xor f(01)) and b = (-1)^(f(10) xor f(11)). Keeping the
    integer numerators makes every expectation derived from them exact.
    """
    o = f.outputs
    a, b = 1 - 2 * (o[0] ^ o[1]), 1 - 2 * (o[2] ^ o[3])
    return np.array([a + b, 2, a - b, 0], dtype=float)


def _check(name: str, notes: list[str]) -> CheckResult:
    detail = "; ".join(notes[:4])
    if len(notes) > 4:
        detail += f"; and {len(notes) - 4} more"
    return CheckResult(name=name, passed=not notes, detail=detail)


def _is_even(report: ClassificationReport) -> bool:
    return report.function_class.parity is Parity.EVEN


def run_all_checks(tol: float = DEFAULT_TOL) -> VerificationOutcome:
    """Run every named check, comparing computed values with ``tol``.

    Raises ValueError unless ``tol`` is finite and at least ``MIN_TOLERANCE``.
    """
    if not (math.isfinite(tol) and tol >= MIN_TOLERANCE):
        raise ValueError(f"tolerance must be finite and at least {MIN_TOLERANCE:g}, got {tol!r}")
    functions = enumerate_functions()
    reports: list[ClassificationReport] = []
    failed_functions: set[str] = set()
    checks: list[CheckResult] = []

    build_notes = []
    try:
        reports = classification_report_sweep(functions)
    except Exception:
        # Rerun one function at a time so each failure names its function.
        for f in functions:
            try:
                reports.append(classification_report(f))
            except Exception as exc:
                failed_functions.add(f.to_string())
                build_notes.append(f"{f.to_string()}: analysis raised {exc!r}")
    checks.append(_check("function_analysis", build_notes))

    def sweep(name: str, probe) -> None:
        notes = []
        for report in reports:
            bits = report.function.to_string()
            try:
                msgs = [f"{bits}: {msg}" for msg in probe(report)]
            except Exception as exc:
                msgs = [f"{bits}: check raised {exc!r}"]
            if msgs:
                failed_functions.add(bits)
            notes.extend(msgs)
        checks.append(_check(name, notes))

    # Enumeration structure: counts per class and parity split.
    notes = []
    bit_strings = [f.to_string() for f in functions]
    if len(set(bit_strings)) != 16 or bit_strings != sorted(bit_strings):
        notes.append(f"enumeration: expected 16 distinct ascending tables, got {bit_strings}")
    histogram = {ones: sum(1 for f in functions if f.ones() == ones) for ones in range(5)}
    if histogram != {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}:
        notes.append(f"enumeration: class histogram {histogram} != {{1,4,6,4,1}}")
    even_count = sum(1 for f in functions if classify(f).parity is Parity.EVEN)
    if even_count != 8:
        notes.append(f"enumeration: expected 8 even functions, found {even_count}")
    checks.append(_check("function_enumeration", notes))

    def probe_oracle(report):
        m = build_oracle(report.function).entries
        msgs = []
        if np.max(np.abs(m - np.diag(np.diagonal(m)))) > tol:
            msgs.append("oracle is not diagonal")
        if np.max(np.abs(m @ m - np.eye(4))) > tol:
            msgs.append("oracle is not self-inverse")
        expected_diag = [(-1.0) ** b for b in report.function.outputs]
        if np.max(np.abs(np.diagonal(m) - expected_diag)) > tol:
            msgs.append(f"oracle diagonal {np.diagonal(m).tolist()} != {expected_diag}")
        return msgs

    sweep("oracle_properties", probe_oracle)

    def probe_separability(report):
        separable, even = report.oracle_separable, _is_even(report)
        return [] if separable == even else [f"separable={separable} but even={even}"]

    sweep("separability_parity_theorem", probe_separability)

    def probe_verdict(report):
        circuit = report.circuit
        msgs = []
        expected = Parity.EVEN if _is_even(report) else Parity.ODD
        if circuit.verdict is not expected:
            msgs.append(f"expected verdict {expected.value}, got {circuit.verdict.value}")
        if circuit.oracle_calls != 2:
            msgs.append(f"expected 2 oracle calls, counted {circuit.oracle_calls}")
        if len(circuit.per_step_states) != 6:
            msgs.append(f"expected 6 per-step states, got {len(circuit.per_step_states)}")
        return msgs

    sweep("circuit_verdicts", probe_verdict)

    def probe_norms(report):
        msgs = []
        for i, state in enumerate(report.circuit.per_step_states):
            err = abs(float(np.sum(np.abs(state.amplitudes) ** 2)) - 1.0)
            if err > tol:
                msgs.append(f"step {i} norm error {err:.3e}")
        return msgs

    sweep("step_normalization", probe_norms)

    def probe_sign_law(report):
        expected = _final_state_numerators(report.function) * _QUARTER_AMP
        err = float(np.max(np.abs(report.circuit.final_state.amplitudes - expected)))
        if err > tol:
            return [f"final state deviates from sign law by {err:.3e}"]
        return []

    sweep("final_state_sign_law", probe_sign_law)

    def probe_pattern(report):
        # Equality up to a global phase, a weaker route than the sign law.
        pattern = _final_state_numerators(report.function) * _QUARTER_AMP
        inner = float(abs(np.vdot(pattern, report.circuit.final_state.amplitudes)))
        if abs(inner - 1.0) > tol:
            return [f"|overlap with expected pattern| = {inner!r} != 1"]
        return []

    sweep("final_state_patterns", probe_pattern)

    def probe_density(report):
        v = _final_state_numerators(report.function)
        rho = density_from_state(report.circuit.final_state)
        msgs = []
        err = float(np.max(np.abs(rho.entries - np.outer(v, v) / 8.0)))
        if err > tol:
            msgs.append(f"density matrix deviates by {err:.3e}")
        if not rho.is_positive_semidefinite():
            msgs.append("density matrix has a negative eigenvalue")
        return msgs

    sweep("density_matrix_forms", probe_density)

    def probe_reduced(report):
        m = _final_state_numerators(report.function).reshape(2, 2)  # [qubit 1, qubit 2]
        expected2 = m.T @ m / 8.0
        expected_purity = float(np.trace(expected2 @ expected2))
        expected_idempotent = bool(np.array_equal(expected2 @ expected2, expected2))
        rho = density_from_state(report.circuit.final_state)
        reduced1, reduced2 = partial_trace(rho, 1), partial_trace(rho, 2)
        msgs = []
        err = float(np.max(np.abs(reduced2.entries - expected2)))
        if err > tol:
            msgs.append(f"qubit-2 reduced matrix deviates by {err:.3e}")
        p = purity(reduced2)
        if abs(p - expected_purity) > tol:
            msgs.append(f"qubit-2 reduced purity {p!r} != {expected_purity}")
        if is_idempotent(reduced2) != expected_idempotent:
            msgs.append(f"qubit-2 reduced idempotency != {expected_idempotent}")
        trace_err = abs(complex(np.trace(reduced1.entries)) - 1.0)
        if trace_err > tol:
            msgs.append(f"qubit-1 reduced trace off by {trace_err:.3e}")
        return msgs

    sweep("reduced_density_forms", probe_reduced)

    def probe_entanglement(report):
        ent, even = report.entanglement, _is_even(report)
        expected_c = 0.0 if even else 1.0
        msgs = []
        if abs(ent.concurrence - expected_c) > 1e-10:
            msgs.append(f"concurrence {ent.concurrence!r} != {expected_c}")
        if ent.is_entangled == even:
            msgs.append(f"is_entangled={ent.is_entangled} but even={even}")
        relation = 1.0 - ent.concurrence**2 / 2.0
        if abs(ent.reduced_purity_q2 - relation) > 1e-10:
            msgs.append("purity/concurrence relation violated")
        if abs(ent.reduced_purity_q1 - ent.reduced_purity_q2) > 1e-10:
            msgs.append("reduced purities of the two qubits disagree")
        return msgs

    sweep("entanglement_correspondence", probe_entanglement)

    notes = []
    even_finals = [r.circuit.final_state for r in reports if _is_even(r)]
    odd_finals = [r.circuit.final_state for r in reports if not _is_even(r)]
    for e in even_finals:
        for o in odd_finals:
            value = abs(overlap(e, o))
            if abs(value - 0.5) > tol:
                notes.append(f"overlap: |<even|odd>| = {value!r} != 0.5")
    checks.append(_check("even_odd_overlap", notes))

    def probe_nmr(report):
        obs, even = report.observability, _is_even(report)
        msgs = []
        if obs.observable_line != even:
            msgs.append(f"observable_line={obs.observable_line} but even={even}")
        expected_tm2 = 0.5 if even else 0.0
        if abs(obs.transverse_magnetization_q2 - expected_tm2) > tol:
            msgs.append(
                f"qubit-2 magnetization {obs.transverse_magnetization_q2!r} != {expected_tm2}"
            )
        if abs(obs.transverse_magnetization_q1) > tol:
            msgs.append(
                f"qubit-1 magnetization {obs.transverse_magnetization_q1!r} != 0"
            )
        return msgs

    sweep("nmr_observability", probe_nmr)

    def probe_coherence(report):
        rho = density_from_state(report.circuit.final_state)
        decomposition = decompose_coherences(rho)
        msgs = []
        err = float(np.max(np.abs(decomposition.total() - rho.entries)))
        if err > tol:
            msgs.append(f"coherence components re-sum off by {err:.3e}")
        for order in (1, 2):
            sym = float(
                np.max(
                    np.abs(
                        decomposition.orders[order]
                        - decomposition.orders[-order].conj().T
                    )
                )
            )
            if sym > tol:
                msgs.append(f"order +-{order} components are not conjugate transposes")
        return msgs

    sweep("coherence_resum", probe_coherence)

    def probe_dj(report):
        ones = report.function.ones()
        if ones in (0, 4):
            expected = DJVerdict.CONSTANT
        elif ones == 2:
            expected = DJVerdict.BALANCED
        else:
            expected = DJVerdict.NEITHER
        if report.dj_verdict is not expected:
            return [f"DJ verdict {report.dj_verdict.value} != {expected.value}"]
        return []

    sweep("dj_verdicts", probe_dj)

    notes = []
    try:
        if not spin1_indistinguishability_check(reports):
            notes.append("spin-1 readout unexpectedly separates even from odd")
        if not magnetization_classifies_parity(reports, 2, 0.25):
            notes.append("qubit-2 magnetization threshold 0.25 fails to classify parity")
    except Exception as exc:
        notes.append(f"spin readout checks raised {exc!r}")
    checks.append(_check("spin_readout_separation", notes))

    notes = []
    classical_queries: int | None = None
    try:
        classical_queries = classical_min_queries(lambda f: classify(f).parity)
        if classical_queries != 4:
            notes.append(f"classical parity queries = {classical_queries}, expected 4")
        promise_queries = classical_min_queries(
            lambda f: classify(f).ones in (0, 4),
            constant_balanced_promise_functions(),
        )
        if promise_queries != 3:
            notes.append(f"classical promise queries = {promise_queries}, expected 3")
        quantum_calls = {r.circuit.oracle_calls for r in reports}
        if quantum_calls != {2}:
            notes.append(f"quantum circuits used {quantum_calls} oracle calls, expected 2")
        elif classical_queries is not None and not 2 < classical_queries:
            notes.append("no quantum/classical separation")
    except Exception as exc:
        notes.append(f"query counting raised {exc!r}")
    checks.append(_check("query_separation", notes))

    return VerificationOutcome(
        checks=checks,
        functions_verified=16 - len(failed_functions),
        total_functions=16,
        classical_queries=classical_queries,
    )
