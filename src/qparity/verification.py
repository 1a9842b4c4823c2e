"""Self-verification suite: every library-level invariant, run exhaustively.

One report is built per two-bit function by the sweep that ``qparity table``
prints from, whose functions must be the 16 tables once each, in order (a report
whose function is not a truth table counts as missing); a function is verified
when it has one report and no failure. Each named check covers the 16
reports (or a global property) and notes expected-vs-actual for each failing function.
Every expectation comes from one integer table over the truth-table bits (``_algebra``),
never from ``classify``, which is checked like the rest. Each check is a probe that reads
the sweep's columns (each read once, or a list of reports column by column) and applies
the library form it checks to the whole stack; a probe that raises fails its check for
every function. Every deviation is measured by ``linalg._deviation`` and compared at a
constant of its tolerance table, so a NaN is within none of them.
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
    DEFAULT_TOL, ZERO_FLOOR, _deviation, density_from_state_stack, partial_trace_stack, purity_stack
)
from .nmr import (
    decompose_coherences_stack, magnetization_classifies_parity, spin1_indistinguishability_check
)
from .oracles import Parity, TruthTable, build_oracle, classify, enumerate_functions
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
        verified = f"{self.functions_verified}/{self.total_functions} functions verified"
        return f"{verified}, classical_min_queries={queries}"


def _algebra(outputs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The exact route to every expectation, in integers, from rows of bits (f(00), f(01),
    f(10), f(11)). By the Moebius transform f = c0 ^ c1 x2 ^ c2 x1 ^ c12 x1 x2, so the
    oracle (-1)^c0 (Z^c2 (x) Z^c1) CZ^c12 entangles iff c12 = 1, the parity. Returns c12,
    the Walsh sum W = sum_x (-1)^f(x) = 4 - 2 ones (4 times DJ's |00> amplitude), the final
    states times 2 sqrt(2), n = ((a+b), 2, (a-b), 0) with a = (-1)^c1, b = (-1)^(c1 ^ c12),
    and, times 8, the density matrices n n^T, qubit 2's reduced matrices M^T M (M = n as
    [qubit 1, qubit 2]) and the sums of |n_i n_j| over the entries of coherence order
    popcount(j) - popcount(i) = +-1 and over the off-diagonal ones of order 0."""
    c1 = outputs[:, 0] ^ outputs[:, 1]
    c12 = c1 ^ outputs[:, 2] ^ outputs[:, 3]
    a, b = 1 - 2 * c1, 1 - 2 * (c1 ^ c12)
    n = np.stack([a + b, np.full_like(a, 2), a - b, np.zeros_like(a)], axis=1)
    rho, m = n[:, :, None] * n[:, None, :], n.reshape(-1, 2, 2)
    order = np.subtract.outer(*[_POINTS[:4].sum(axis=1)] * 2).T  # popcount(j) - popcount(i)
    single, zero = (np.abs(rho)[:, mask].sum(axis=1)
                    for mask in (np.abs(order) == 1, (order == 0) & ~np.eye(4, dtype=bool)))
    return c12, 4 - 2 * outputs.sum(axis=1), n, rho, m.swapaxes(1, 2) @ m, single, zero


_PLACES = np.array([8, 4, 2, 1])  # the bits (f(00), f(01), f(10), f(11)) as a binary number
_POINTS = (np.arange(16)[:, None] & _PLACES > 0).astype(int)  # row k: the bits of k
_TABLE = (_POINTS, *_algebra(_POINTS))  # row k: every expectation for the bits of k
# Entry (S, T) is (-1)^(|S| - |T|) for T a subset of S; row k: the points one bit from k.
_MOBIUS = functools.reduce(np.kron, [np.array([[1, 0], [-1, 1]])] * 4)
_NEIGHBOURS = np.arange(16)[:, None] ^ _PLACES


def _query_certificates(labels: np.ndarray) -> tuple[int, int]:
    """Query lower bounds for a 0/1 label of the 16 truth tables (k for the bits of k):
    the degree of its multilinear polynomial (Moebius transform), of which an exact
    quantum algorithm needs half (Beals et al., J. ACM 48(4), 2001), and its sensitivity,
    which bounds deterministic classical ones (Nisan, SIAM J. Comput. 20(6), 1991)."""
    degree = _POINTS.sum(axis=1)[_MOBIUS @ labels != 0].max(initial=0)
    return int(degree), int((labels[_NEIGHBOURS] != labels[:, None]).sum(axis=1).max())


def _once(read):
    """``read`` memoized for one run. A read that raises keeps nothing, so it raises again."""
    memo = {}
    return lambda *key: memo[key] if key in memo else memo.setdefault(key, read(*key))


def _check(name: str, notes: list[str]) -> CheckResult:
    more = f"; and {len(notes) - 4} more" if len(notes) > 4 else ""
    return CheckResult(name=name, passed=not notes, detail="; ".join(notes[:4]) + more)


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

    # Each column and stack is read once, so one that cannot be read fails each check reading it.
    column = _once(functools.partial(_column, reports))
    # A report whose function is not a truth table names no function, so it is checked as missing.
    unread = [f"report {k}: function {f!r} is not a truth table"
              for k, f in enumerate(column("function")) if not isinstance(f, TruthTable)]
    if unread:
        reports = [r for r in reports if isinstance(r.function, TruthTable)]
        column = _once(functools.partial(_column, reports))
    codes = np.array([f.outputs for f in column("function")], dtype=int).reshape(-1, 4) @ _PLACES
    bits = [format(code, "04b") for code in codes.tolist()]
    outputs, c12, walsh, numerators, rho8, reduced8, single8, zero8 = (e[codes] for e in _TABLE)
    even, expected_finals = c12 == 0, numerators / math.sqrt(8.0)
    parities = [Parity.EVEN if e else Parity.ODD for e in even.tolist()]
    finals = _once(lambda: np.asarray(column("circuit.final_state")).reshape(-1, 4))
    densities = _once(lambda: density_from_state_stack(finals()))
    labels = _once(lambda: [classify(f) for f in functions])
    enumerated = _once(lambda: np.array([f.outputs for f in functions]).reshape(-1, 4))
    classical_queries: int | None = None

    def check(probe) -> None:
        """Run ``probe`` now as the check of its name: its notes on the whole sweep (``str``),
        then for each function i, ``template.format(column[i], ...)`` of each of its rules
        (mask, template, *columns) with mask[i] true. The masks are tested as one array."""
        whole, notes, rules = [], [], []
        try:
            for item in probe():
                (whole if isinstance(item, str) else rules).append(item)
            try:
                masks = np.array([r[0] for r in rules], bool).reshape(len(rules), len(bits))
            except ValueError:  # name the first rule with a row too many or too few
                mask, t, *_ = next(r for r in rules if len(r[0]) != len(bits))
                raise ValueError(f"rule {t!r} has {len(mask)} rows, not {len(bits)}") from None
            for i, k in zip(*masks.T.nonzero()) if np.count_nonzero(masks) else ():
                _, t, *columns = rules[k]  # by function, then in rule order
                notes.append(f"{bits[i]}: {t.format(*(c[i] for c in columns))}")
                failed_functions.add(bits[i])
        except Exception as exc:
            # With no report to fail, the whole sweep carries the note.
            raised = f"check raised {exc!r}"
            whole, notes = [] if bits else [raised], [f"{b}: {raised}" for b in bits]
            failed_functions.update(bits)
        if not (bits or whole):
            whole = ["no report to check"]  # every analysis raised; nothing was examined
        checks.append(_check(probe.__name__, whole + notes))

    @check
    def function_enumeration():
        if (enumerated() @ _PLACES).tolist() != list(range(16)):
            got = [f.to_string() for f in functions]
            yield f"enumeration: expected 16 distinct ascending tables, got {got}"
        yield from unread
        # The first check: so far only the analyses that raised have failed their functions.
        if codes.tolist() != sorted({*range(16)} - {int(b, 2) for b in failed_functions}):
            yield f"coverage: expected each of the 16 tables once, in order, got {bits}"
        histogram = dict(enumerate(np.bincount(enumerated().sum(axis=1), minlength=5).tolist()))
        if histogram != {ones: math.comb(4, ones) for ones in range(5)}:
            yield f"enumeration: class histogram {histogram} != {{1,4,6,4,1}}"
        if (even_count := sum(c.parity is Parity.EVEN for c in labels())) != 8:
            yield f"enumeration: expected 8 even functions, found {even_count}"
        got, ones = column("function_class"), ((4 - walsh) // 2).tolist()
        want = list(zip(ones, [4 - k for k in ones], parities))
        yield ([(c.ones, c.zeros, c.parity) != w for c, w in zip(got, want)],
               "classify gives {0.label} {0.parity.value}, the ANF and W give "
               "[{1[0]},{1[1]}] {1[2].value}", got, want)

    @check
    def oracle_properties():
        m = np.array([build_oracle(f).entries for f in column("function")]).reshape(-1, 4, 4)
        diag, signs = m.diagonal(axis1=1, axis2=2), 1.0 - 2.0 * outputs
        off_diagonal, self_inverse = _deviation(
            [m - diag[:, :, None] * np.eye(4), m @ m - np.eye(4)], 0.0, rows=2) > DEFAULT_TOL
        return [(off_diagonal, "oracle is not diagonal"),
                (self_inverse, "oracle is not self-inverse"),
                (_deviation(diag, signs) > DEFAULT_TOL, "oracle diagonal {} != {}", diag.tolist(),
                 signs.tolist())]

    @check
    def separability_parity_theorem():
        separable = column("oracle_separable")
        return [(np.array(separable) != even, "separable={} but even={}", separable, even)]

    @check
    def circuit_verdicts():
        verdicts, calls = column("circuit.verdict"), column("circuit.oracle_calls")
        counts = [len(states) for states in column("circuit.per_step_states")]
        return [([v is not p for v, p in zip(verdicts, parities)],
                 "expected verdict {.value}, got {.value}", parities, verdicts),
                (np.array(calls) != 2, "expected 2 oracle calls, counted {}", calls),
                (np.array(counts) != 6, "expected 6 per-step states, got {}", counts)]

    @check
    def step_normalization():
        steps = np.asarray(column("circuit.per_step_states")).reshape(-1, 6, 4)
        errors = _deviation((np.abs(steps) ** 2).sum(axis=2).T, 1.0, rows=2)
        return [(e > DEFAULT_TOL, f"step {k} norm error {{:.3e}}", e) for k, e in enumerate(errors)]

    @check
    def final_state_sign_law():
        err = _deviation(finals(), expected_finals)
        return [(err > DEFAULT_TOL, "final state deviates from sign law by {:.3e}", err)]

    @check
    def final_state_patterns():
        # Equality up to a global phase, a weaker route than the sign law.
        inner = np.abs((expected_finals * finals()).sum(axis=1))
        return [(_deviation(inner, 1.0) > DEFAULT_TOL,
                 "|overlap with expected pattern| = {!r} != 1", inner.tolist())]

    @check
    def density_matrix_forms():
        err = _deviation(densities(), rho8 / 8.0)
        return [(err > DEFAULT_TOL, "density matrix deviates by {:.3e}", err),
                (np.linalg.eigvalsh(densities()).min(axis=1) < -ZERO_FLOOR,
                 "density matrix has a negative eigenvalue")]

    @check
    def reduced_density_forms():
        expected_purity = 1.0 - c12 / 2.0  # 1 - C^2/2 at C = c12
        reduced1, reduced2 = (partial_trace_stack(densities(), k) for k in (1, 2))
        err, purities = _deviation(reduced2, reduced8 / 8.0), purity_stack(reduced2)
        trace_err = _deviation(reduced1.trace(axis1=1, axis2=2), 1.0)
        return [(err > DEFAULT_TOL, "qubit-2 reduced matrix deviates by {:.3e}", err),
                (_deviation(purities, expected_purity) > DEFAULT_TOL,
                 "qubit-2 reduced purity {!r} != {}", purities.tolist(), expected_purity),
                (is_idempotent_stack(reduced2) != even, "qubit-2 reduced idempotency != {}", even),
                (trace_err > DEFAULT_TOL, "qubit-1 reduced trace off by {:.3e}", trace_err)]

    @check
    def entanglement_correspondence():
        concurrence, entangled, purity1, purity2 = (column(f"entanglement.{field}") for field in (
            "concurrence", "is_entangled", "reduced_purity_q1", "reduced_purity_q2"))
        c, p1, p2 = np.array([concurrence, purity1, purity2], dtype=float).reshape(3, -1)
        bad = _deviation([c, p2, p1], [c12, 1.0 - c**2 / 2.0, p2], rows=2) > ZERO_FLOOR
        return [(bad[0], "concurrence {!r} != {}", concurrence, c12 * 1.0),
                (np.array(entangled) == even, "is_entangled={} but even={}", entangled, even),
                (bad[1], "purity/concurrence relation violated"),
                (bad[2], "reduced purities of the two qubits disagree")]

    @check
    def schmidt_coefficients():
        pairs = column("entanglement.schmidt_coefficients")
        expected = np.sqrt(np.stack([2 - c12, c12]) / 2.0)  # (1 +- sqrt(1-C^2))/2, C=c12
        return [(_deviation(np.array(pairs).reshape(-1, 2), expected.T) > DEFAULT_TOL,
                 "schmidt coefficients {!r} != ({!r}, {!r})", pairs, *expected.tolist())]

    @check
    def even_odd_overlap():
        overlaps = np.abs(finals()[even].conj() @ finals()[~even].T).ravel()
        for v in overlaps[_deviation(overlaps, 0.5) > DEFAULT_TOL].tolist():
            yield f"overlap: |<even|odd>| = {v!r} != 0.5"

    @check
    def nmr_observability():
        line = column("observability.observable_line")
        actual = [column(f"observability.{field}") for field in (
            "transverse_magnetization_q2", "transverse_magnetization_q1", "single_quantum_weight",
            "zero_quantum_weight")]
        want = np.abs([reduced8[:, 0, 1], 0 * single8, single8, zero8]) / 8.0
        bad = _deviation(np.array(actual, dtype=float).reshape(4, -1), want, rows=2) > DEFAULT_TOL
        templates = ("qubit-2 magnetization {!r} != {}", "qubit-1 magnetization {!r} != 0",
                     "single-quantum weight {!r} != {}", "zero-quantum weight {!r} != {}")
        return [(np.array(line) != even, "observable_line={} but even={}", line, even)] + [
            *zip(bad, templates, actual, want)]

    @check
    def coherence_resum():
        orders = decompose_coherences_stack(densities())
        err = _deviation(sum(orders.values()), densities())
        transposes = _deviation([orders[1], orders[2]], [
            orders[-k].conj().swapaxes(1, 2) for k in (1, 2)], rows=2) > DEFAULT_TOL
        return [(err > DEFAULT_TOL, "coherence components re-sum off by {:.3e}", err)] + [
            (bad, f"order +-{k} components are not conjugate transposes")
            for k, bad in zip((1, 2), transposes)]

    @check
    def dj_verdicts():
        by_walsh = (DJVerdict.BALANCED, DJVerdict.NEITHER, DJVerdict.CONSTANT)  # |W| = 0, 2, 4
        expected, verdicts = [by_walsh[abs(w) // 2] for w in walsh.tolist()], column("dj_verdict")
        return [([v is not e for v, e in zip(verdicts, expected)],
                 "DJ verdict {.value} != {.value}", verdicts, expected)]

    @check
    def spin_readout_separation():
        m = [column(f"observability.transverse_magnetization_q{q}") for q in (1, 2)]
        unread = np.isnan(np.array(m, dtype=float).reshape(2, -1))
        # A NaN is read by neither rule, and the check fails on it without claiming a split.
        if not unread[0].any() and not spin1_indistinguishability_check(reports):
            yield "spin-1 readout unexpectedly separates even from odd"
        # With no report, the runner's "no report to check" says why the check fails.
        if reports and not magnetization_classifies_parity(reports, 2, 0.25):
            yield "qubit-2 magnetization threshold 0.25 fails to classify parity"
        for q, values in enumerate(m, start=1):
            yield unread[q - 1], f"qubit-{q} magnetization {{!r}} cannot be read out", values

    @check
    def query_separation():
        # Certified from the parity labels: sensitivity 4 of 4 points is the classical count.
        nonlocal classical_queries
        odd = np.bincount(enumerated() @ _PLACES, [c.parity is Parity.ODD for c in labels()], 16)
        degree, classical_queries = _query_certificates(odd)
        if classical_queries != 4:
            yield f"classical parity queries = {classical_queries}, expected 4"
        by_function = dict(zip(functions, labels()))
        promise_queries = classical_min_queries(
            lambda f: by_function[f].ones in (0, 4), constant_balanced_promise_functions())
        if promise_queries != 3:
            yield f"classical promise queries = {promise_queries}, expected 3"
        quantum_queries, quantum_calls = (degree + 1) // 2, set(column("circuit.oracle_calls"))
        if quantum_calls != {quantum_queries}:
            yield f"quantum circuits used {quantum_calls} oracle calls, expected {quantum_queries}"
        elif not quantum_queries < classical_queries:
            yield "no quantum/classical separation"

    return VerificationOutcome(
        checks=checks,
        functions_verified=len({b for b in bits if bits.count(b) == 1} - failed_functions),
        total_functions=16,
        classical_queries=classical_queries,
    )
