"""Self-verification suite: every library-level invariant, run exhaustively.

One classification report is built per two-bit function, by the same sweep
that ``qparity table`` prints from. Each named check covers those 16 reports
(or a global property) and notes expected-vs-actual for each failing
function; ``qparity verify`` prints the results and exits nonzero on any
failure. Every expectation comes from each function's truth-table bits by
one exact route (``_algebra``), never from ``classify``, which is checked
like the rest. The per-function checks are array probes over the sweep's
columns (one density stack, one eigvalsh call, one even-by-odd overlap
product), each applying the library function it checks to the whole stack; a
list of reports, as the per-function fallback gives, is read column by column.
One runner runs every check after the analysis and traps exceptions, so a
broken build degrades to failed checks instead of a crash: a probe that raises
fails its check for every function. Every comparison is at a constant of the
``linalg`` tolerance table, and a NaN is within none of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algorithms import (
    DJVerdict, Sweep, _column, classical_min_queries, constant_balanced_promise_functions
)
from .entanglement import is_idempotent_stack
from .linalg import (
    DEFAULT_TOL, ZERO_FLOOR, density_from_state_stack, partial_trace_stack, purity_stack,
)
from .nmr import (
    decompose_coherences_stack, magnetization_classifies_parity, spin1_indistinguishability_check
)
from .oracles import Parity, build_oracle, classify, enumerate_functions
from .reports import ClassificationReport, classification_report, classification_report_sweep

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


def _algebra(outputs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact route to every expectation, from rows of bits (f(00), f(01), f(10), f(11)).
    By the Moebius transform f = c0 ^ c1 x2 ^ c2 x1 ^ c12 x1 x2, so the oracle
    (-1)^c0 (Z^c2 (x) Z^c1) CZ^c12 entangles iff c12 = 1, the parity. Returns c12, the
    Walsh sum W = sum_x (-1)^f(x) = 4 - 2 ones (4 times DJ's |00> amplitude) and the final
    states times 2 sqrt(2), ((a+b), 2, (a-b), 0) with a = (-1)^c1 and b = (-1)^(c1 ^ c12)."""
    c1 = outputs[:, 0] ^ outputs[:, 1]
    c12 = c1 ^ outputs[:, 2] ^ outputs[:, 3]
    walsh = (1 - 2 * outputs).sum(axis=1)
    a, b = 1 - 2 * c1, 1 - 2 * (c1 ^ c12)
    numerators = np.stack([a + b, np.full_like(a, 2), a - b, np.zeros_like(a)], axis=1)
    return c12, walsh, numerators.astype(float)


def _check(name: str, notes: list[str]) -> CheckResult:
    detail = "; ".join(notes[:4])
    if len(notes) > 4:
        detail += f"; and {len(notes) - 4} more"
    return CheckResult(name=name, passed=not notes, detail=detail)


def _deviation(actual, expected) -> np.ndarray:
    """Largest entrywise |actual - expected| in each row of a stack, with NaN as
    infinity, so that a rule's ``deviation > tol`` fails it rather than pass it."""
    diff = np.abs(np.asarray(actual) - expected)
    worst = diff.max(axis=tuple(range(1, diff.ndim))) if diff.ndim > 1 else diff
    return np.where(np.isnan(worst), np.inf, worst)


def run_all_checks() -> VerificationOutcome:
    """Run every named check, comparing at the tolerances of the ``linalg`` table."""
    functions = enumerate_functions()
    reports: Sweep | list[ClassificationReport] = []
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

    column = functools.partial(_column, reports)
    tables = column("function")
    bits = [f.to_string() for f in tables]
    outputs = np.array([f.outputs for f in tables], dtype=int).reshape(-1, 4)
    c12, walsh, numerators = _algebra(outputs)
    even, expected_finals = c12 == 0, numerators / math.sqrt(8.0)
    parity = [Parity.EVEN.value if e else Parity.ODD.value for e in even]
    expected_rho = numerators[:, :, None] * numerators[:, None, :] / 8.0
    m = numerators.reshape(-1, 2, 2)  # [function, qubit 1, qubit 2]
    expected2 = m.swapaxes(1, 2) @ m / 8.0  # qubit 2's reduced matrix
    # Stacked by the first probe that reads them, so a misshapen state fails checks.
    finals = functools.cache(lambda: np.asarray(column("circuit.final_state")).reshape(-1, 4))
    densities = functools.cache(lambda: density_from_state_stack(finals()))
    classical_queries: int | None = None

    def sweep(name: str):
        """Run the decorated probe now as check ``name``. Its items are notes on
        the whole sweep (``str``) and rules (mask, template, *columns), each mask
        with one row per report: function i gets the note ``template.format(
        column[i], ...)`` of each rule with mask[i] true, in rule order, and only
        those notes are formatted. A probe that raises fails it for every function,
        and with no report at all the check fails rather than pass vacuously."""

        def run(probe) -> None:
            whole, per_function = [], [[] for _ in bits]
            try:
                for rule in probe():
                    if isinstance(rule, str):
                        whole.append(rule)
                        continue
                    mask, t, *columns = rule
                    if len(mask) != len(bits):
                        raise ValueError(f"rule {t!r} has {len(mask)} rows, not {len(bits)}")
                    for i in np.flatnonzero(mask).tolist():
                        per_function[i].append(t.format(*(c[i] for c in columns)))
            except Exception as exc:
                # With no report to fail, the whole sweep carries the note.
                raised = f"check raised {exc!r}"
                whole, per_function = [] if bits else [raised], [[raised]] * len(bits)
            if not (bits or whole):
                whole = ["no report to check"]  # every analysis raised; nothing was examined
            failed_functions.update(b for b, msgs in zip(bits, per_function) if msgs)
            notes = whole + [f"{b}: {msg}" for b, msgs in zip(bits, per_function) for msg in msgs]
            checks.append(_check(name, notes))

        return run

    @sweep("function_enumeration")
    def probe_enumeration():
        bit_strings = [f.to_string() for f in functions]
        if len(set(bit_strings)) != 16 or bit_strings != sorted(bit_strings):
            yield f"enumeration: expected 16 distinct ascending tables, got {bit_strings}"
        histogram = {ones: sum(1 for f in functions if f.ones() == ones) for ones in range(5)}
        if histogram != {ones: math.comb(4, ones) for ones in range(5)}:
            yield f"enumeration: class histogram {histogram} != {{1,4,6,4,1}}"
        even_count = sum(1 for f in functions if classify(f).parity is Parity.EVEN)
        if even_count != 8:
            yield f"enumeration: expected 8 even functions, found {even_count}"
        got = [f"{c.label} {c.parity.value}" for c in column("function_class")]
        want = [f"[{(4 - w) // 2},{(4 + w) // 2}] {p}" for w, p in zip(walsh.tolist(), parity)]
        yield np.array(got) != want, "classify gives {}, the ANF and W give {}", got, want

    @sweep("oracle_properties")
    def probe_oracle():
        m = np.array([build_oracle(f).entries for f in tables]).reshape(-1, 4, 4)
        diag = np.diagonal(m, axis1=1, axis2=2)
        expected = (-1.0) ** outputs
        return [
            (_deviation(m, diag[:, :, None] * np.eye(4)) > DEFAULT_TOL, "oracle is not diagonal"),
            (_deviation(m @ m, np.eye(4)) > DEFAULT_TOL, "oracle is not self-inverse"),
            (_deviation(diag, expected) > DEFAULT_TOL, "oracle diagonal {} != {}", diag.tolist(),
             expected.tolist()),
        ]

    @sweep("separability_parity_theorem")
    def probe_separability():
        separable = column("oracle_separable")
        return [(np.array(separable) != even, "separable={} but even={}", separable, even)]

    @sweep("circuit_verdicts")
    def probe_verdict():
        verdicts = [v.value for v in column("circuit.verdict")]
        calls = column("circuit.oracle_calls")
        steps = [len(states) for states in column("circuit.per_step_states")]
        return [
            (np.array(verdicts) != parity, "expected verdict {}, got {}", parity, verdicts),
            (np.array(calls) != 2, "expected 2 oracle calls, counted {}", calls),
            (np.array(steps) != 6, "expected 6 per-step states, got {}", steps),
        ]

    @sweep("step_normalization")
    def probe_norms():
        steps = np.asarray(column("circuit.per_step_states")).reshape(-1, 6, 4)
        errors = [_deviation(norms, 1.0) for norms in np.sum(np.abs(steps) ** 2, axis=2).T]
        return [(e > DEFAULT_TOL, f"step {k} norm error {{:.3e}}", e) for k, e in enumerate(errors)]

    @sweep("final_state_sign_law")
    def probe_sign_law():
        err = _deviation(finals(), expected_finals)
        return [(err > DEFAULT_TOL, "final state deviates from sign law by {:.3e}", err)]

    @sweep("final_state_patterns")
    def probe_pattern():
        # Equality up to a global phase, a weaker route than the sign law.
        inner = np.abs(np.sum(expected_finals * finals(), axis=1))
        return [(_deviation(inner, 1.0) > DEFAULT_TOL,
                 "|overlap with expected pattern| = {!r} != 1", inner.tolist())]

    @sweep("density_matrix_forms")
    def probe_density():
        rhos = densities()
        err = _deviation(rhos, expected_rho)
        return [
            (err > DEFAULT_TOL, "density matrix deviates by {:.3e}", err),
            (np.linalg.eigvalsh(rhos).min(axis=1) < -ZERO_FLOOR,
             "density matrix has a negative eigenvalue"),
        ]

    @sweep("reduced_density_forms")
    def probe_reduced():
        expected_purity = 1.0 - c12 / 2.0  # 1 - C^2/2 at C = c12
        rhos = densities()
        reduced1, reduced2 = partial_trace_stack(rhos, 1), partial_trace_stack(rhos, 2)
        err = _deviation(reduced2, expected2)
        purities = purity_stack(reduced2)
        trace_err = _deviation(np.trace(reduced1, axis1=1, axis2=2), 1.0)
        return [
            (err > DEFAULT_TOL, "qubit-2 reduced matrix deviates by {:.3e}", err),
            (_deviation(purities, expected_purity) > DEFAULT_TOL,
             "qubit-2 reduced purity {!r} != {}", purities.tolist(), expected_purity),
            (is_idempotent_stack(reduced2) != even, "qubit-2 reduced idempotency != {}", even),
            (trace_err > DEFAULT_TOL, "qubit-1 reduced trace off by {:.3e}", trace_err),
        ]

    @sweep("entanglement_correspondence")
    def probe_entanglement():
        concurrence = column("entanglement.concurrence")
        entangled = column("entanglement.is_entangled")
        c, expected_c = np.array(concurrence), c12.astype(float)
        purity1 = np.array(column("entanglement.reduced_purity_q1"))
        purity2 = np.array(column("entanglement.reduced_purity_q2"))
        return [
            (_deviation(c, expected_c) > ZERO_FLOOR, "concurrence {!r} != {}", concurrence,
             expected_c),
            (np.array(entangled) == even, "is_entangled={} but even={}", entangled, even),
            (_deviation(purity2, 1.0 - c**2 / 2.0) > ZERO_FLOOR,
             "purity/concurrence relation violated"),
            (_deviation(purity1, purity2) > ZERO_FLOOR,
             "reduced purities of the two qubits disagree"),
        ]

    @sweep("schmidt_coefficients")
    def probe_schmidt():
        pairs = column("entanglement.schmidt_coefficients")
        expected = np.sqrt(np.stack([2 - c12, c12], axis=1) / 2.0)  # (1 +- sqrt(1-C^2))/2, C=c12
        err = _deviation(np.array(pairs).reshape(-1, 2), expected)
        expected_pairs = [tuple(e) for e in expected.tolist()]
        return [(err > DEFAULT_TOL, "schmidt coefficients {!r} != {!r}", pairs, expected_pairs)]

    @sweep("even_odd_overlap")
    def probe_overlap():
        overlaps = np.abs(finals()[even].conj() @ finals()[~even].T).ravel().tolist()
        return [f"overlap: |<even|odd>| = {v!r} != 0.5"
                for v in overlaps if not abs(v - 0.5) <= DEFAULT_TOL]

    @sweep("nmr_observability")
    def probe_nmr():
        line = column("observability.observable_line")
        # Sums of |rho_ij| over the entries of coherence order popcount(j) - popcount(i)
        # +-1, and over the off-diagonal ones of order 0: (1, 0) if even, (0, 1) if odd.
        popcount = np.array([0, 1, 1, 2])
        order = popcount[None, :] - popcount[:, None]
        single, zero = (np.abs(expected_rho)[:, mask].sum(axis=1)
                        for mask in (np.abs(order) == 1, (order == 0) & ~np.eye(4, dtype=bool)))
        rules = {  # field: (note template, expected value)
            "transverse_magnetization_q2": ("qubit-2 magnetization {!r} != {}",
                                            np.abs(expected2[:, 0, 1])),
            "transverse_magnetization_q1": ("qubit-1 magnetization {!r} != 0", np.zeros(len(bits))),
            "single_quantum_weight": ("single-quantum weight {!r} != {}", single),
            "zero_quantum_weight": ("zero-quantum weight {!r} != {}", zero),
        }
        actual = {field: column(f"observability.{field}") for field in rules}
        return [(np.array(line) != even, "observable_line={} but even={}", line, even)] + [
            (_deviation(actual[field], want) > DEFAULT_TOL, t, actual[field], want)
            for field, (t, want) in rules.items()
        ]

    @sweep("coherence_resum")
    def probe_coherence():
        rhos = densities()
        decomposition = decompose_coherences_stack(rhos)
        orders = decomposition.orders
        err = _deviation(decomposition.total(), rhos)
        return [(err > DEFAULT_TOL, "coherence components re-sum off by {:.3e}", err)] + [
            (_deviation(orders[order], orders[-order].conj().swapaxes(1, 2)) > DEFAULT_TOL,
             f"order +-{order} components are not conjugate transposes")
            for order in (1, 2)
        ]

    @sweep("dj_verdicts")
    def probe_dj():
        by_walsh = (DJVerdict.BALANCED, DJVerdict.NEITHER, DJVerdict.CONSTANT)  # |W| = 0, 2, 4
        expected = [by_walsh[abs(w) // 2].value for w in walsh.tolist()]
        verdicts = [v.value for v in column("dj_verdict")]
        return [(np.array(verdicts) != expected, "DJ verdict {} != {}", verdicts, expected)]

    @sweep("spin_readout_separation")
    def probe_spin_readout():
        if not spin1_indistinguishability_check(reports):
            yield "spin-1 readout unexpectedly separates even from odd"
        # With no report, the runner's "no report to check" says why the check fails.
        if reports and not magnetization_classifies_parity(reports, 2, 0.25):
            yield "qubit-2 magnetization threshold 0.25 fails to classify parity"

    @sweep("query_separation")
    def probe_queries():
        nonlocal classical_queries
        classical_queries = classical_min_queries(lambda f: classify(f).parity)
        if classical_queries != 4:
            yield f"classical parity queries = {classical_queries}, expected 4"
        promise_queries = classical_min_queries(
            lambda f: classify(f).ones in (0, 4),
            constant_balanced_promise_functions(),
        )
        if promise_queries != 3:
            yield f"classical promise queries = {promise_queries}, expected 3"
        quantum_calls = set(column("circuit.oracle_calls"))
        if quantum_calls != {2}:
            yield f"quantum circuits used {quantum_calls} oracle calls, expected 2"
        elif not 2 < classical_queries:
            yield "no quantum/classical separation"

    return VerificationOutcome(
        checks=checks,
        functions_verified=16 - len(failed_functions),
        total_functions=16,
        classical_queries=classical_queries,
    )
