"""Per-function reports and deterministic JSON serialization.

Complex numbers serialize as two-element [re, im] arrays. JSON output is
canonical: keys sorted, two-space indent, floats in Python's shortest
round-trip form, so parsing and re-serializing reproduces the bytes. They
are ``json.dumps(data, indent=2, sort_keys=True)``'s, written in one pass.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .algorithms import (
    AlgorithmResult, DJVerdict, run_deutsch_jozsa_2bit, run_deutsch_jozsa_sweep, run_even_odd,
    run_even_odd_sweep,
)
from .entanglement import EntanglementReport, analyze_pure_state_stack
from .linalg import StateVector, density_from_state_stack
from .nmr import ObservabilityReport, observability_stack
from .oracles import (
    FunctionClass, TruthTable, classify, enumerate_functions, oracle_signs, separable_signs
)

CLASS_ORDER = (0, 1, 2, 3, 4)  # number of ones, i.e. [0,4] .. [4,0]
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json spells them


@dataclass(frozen=True)
class ClassificationReport:
    """Everything the toolkit knows about one two-bit Boolean function.

    ``circuit`` is the even/odd circuit run that the entanglement and
    observability analyses of its final state were taken from.
    """

    function: TruthTable
    function_class: FunctionClass
    oracle_separable: bool
    dj_verdict: DJVerdict
    circuit: AlgorithmResult
    entanglement: EntanglementReport
    observability: ObservabilityReport


def _assemble_reports(
    functions: Sequence[TruthTable],
    circuits: Sequence[AlgorithmResult],
    dj_verdicts: Sequence[DJVerdict],
) -> list[ClassificationReport]:
    """Bundle the reports, analysing all final states and oracle signs as stacks."""
    finals = np.array([c.final_state.amplitudes for c in circuits]).reshape(len(circuits), 4)
    entanglements = analyze_pure_state_stack(finals)
    observabilities = observability_stack(density_from_state_stack(finals))
    separable = separable_signs(oracle_signs(functions)).tolist()
    return [
        ClassificationReport(f, classify(f), sep, dj, c, e, o)
        for f, sep, dj, c, e, o in zip(
            functions, separable, dj_verdicts, circuits, entanglements, observabilities
        )
    ]


def classification_report_sweep(
    functions: Iterable[TruthTable],
) -> list[ClassificationReport]:
    """Run every analysis for each function and bundle the results, in the
    order of ``functions``. The even/odd circuits and the DJ tests run as one
    sweep each, building their gates once, and the entanglement and
    observability analyses take all the final states as one stack."""
    functions = tuple(functions)
    return _assemble_reports(
        functions, run_even_odd_sweep(functions), run_deutsch_jozsa_sweep(functions)
    )


def classification_report(f: TruthTable) -> ClassificationReport:
    """Run every analysis for one function and bundle the results: the report
    :func:`classification_report_sweep` gives for ``f``, assembled as a stack
    of one from :func:`run_even_odd` and :func:`run_deutsch_jozsa_2bit`, the
    sweeps of one."""
    (report,) = _assemble_reports((f,), (run_even_odd(f),), (run_deutsch_jozsa_2bit(f),))
    return report


def _json_value(x) -> float | bool | list:
    """JSON form of a number, a bool or a tuple of numbers.

    The + 0.0 normalizes IEEE negative zero so serialized zeros are stable.
    """
    if isinstance(x, bool):
        return x
    if isinstance(x, tuple):
        return [_json_value(v) for v in x]
    return float(x) + 0.0


def _fields_to_jsonable(record) -> dict:
    return {f.name: _json_value(getattr(record, f.name)) for f in dataclasses.fields(record)}


def complex_pair(z: complex) -> list[float]:
    return [_json_value(z.real), _json_value(z.imag)]


def state_to_jsonable(s: StateVector) -> dict:
    return {
        "basis": list(s.basis_labels()),
        "amplitudes": [complex_pair(a) for a in s.amplitudes],
    }


def report_to_jsonable(r: ClassificationReport) -> dict:
    return {
        "function": r.function.to_string(),
        "class": r.function_class.label,
        "ones": r.function_class.ones,
        "zeros": r.function_class.zeros,
        "parity": r.function_class.parity.value,
        "oracle_separable": r.oracle_separable,
        "dj_verdict": r.dj_verdict.value,
        "circuit_verdict": r.circuit.verdict.value,
        "oracle_calls": r.circuit.oracle_calls,
        "final_state": state_to_jsonable(r.circuit.final_state),
        "entanglement": _fields_to_jsonable(r.entanglement),
        "observability": _fields_to_jsonable(r.observability),
    }


def all_reports() -> list[ClassificationReport]:
    """The reports of all 16 functions, in enumeration order, from one sweep."""
    return classification_report_sweep(enumerate_functions())


def class_summary_rows(reports: list[ClassificationReport]) -> list[dict]:
    """One row per class [0,4] .. [4,0]: count, parity, oracle nature, DJ status.

    Raises ValueError if members of a class ever disagree on a column; the
    summary is derived from the per-function reports, not hardcoded.
    """
    rows = []
    for ones in CLASS_ORDER:
        members = [r for r in reports if r.function_class.ones == ones]
        parities = {r.function_class.parity for r in members}
        separabilities = {r.oracle_separable for r in members}
        dj_verdicts = {r.dj_verdict for r in members}
        if len(parities) != 1 or len(separabilities) != 1 or len(dj_verdicts) != 1:
            raise ValueError(f"class [{ones},{4 - ones}] is not homogeneous")
        rows.append(
            {
                "class": f"[{ones},{4 - ones}]",
                "count": len(members),
                "parity": parities.pop().value,
                "oracle_separable": separabilities.pop(),
                "dj_verdict": dj_verdicts.pop().value,
            }
        )
    return rows


def _canonical(x, indent: str) -> str:
    """JSON text of ``x`` after ``indent``, a newline and the outer spaces."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or isinstance(x, bool):
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _NON_FINITE.get(text := float.__repr__(x), text)
    inner = indent + "  "
    if isinstance(x, (list, tuple)):
        items = [_canonical(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(x, dict):
        items = [encode_basestring_ascii(k) + ": " + _canonical(x[k], inner) for k in sorted(x)]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def to_canonical_json(data) -> str:
    """Serialize as ``json.dumps(data, indent=2, sort_keys=True)`` would, so
    loads/dumps is byte-stable. ``data`` nests str-keyed dicts, lists, tuples,
    str, int, float (NaN and infinities too), bool and None; anything else,
    unlike in ``json`` a non-``str`` key too, raises TypeError."""
    return _canonical(data, "\n")
