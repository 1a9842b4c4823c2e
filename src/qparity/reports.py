"""Per-function reports and deterministic JSON serialization.

A sweep keeps its reports as columns (a ``Sweep``), builds a
``ClassificationReport`` only for a row asked for, and its JSON is written one
column per field, as is one report's. Complex numbers serialize as
two-element [re, im] arrays. JSON output is canonical: keys sorted, two-space
indent, floats in Python's shortest round-trip form, so parsing and
re-serializing reproduces the bytes. They are ``json.dumps(data, indent=2,
sort_keys=True)``'s, written in one pass.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import gates
from .algorithms import (
    AlgorithmResult, DJVerdict, Sweep, _column, run_deutsch_jozsa_2bit, run_deutsch_jozsa_sweep,
    run_even_odd, run_even_odd_sweep,
)
from .entanglement import EntanglementReport, analyze_pure_state_stack
from .linalg import StateVector, density_from_state_stack
from .nmr import ObservabilityReport, observability_stack
from .oracles import (
    FunctionClass, TruthTable, classify, enumerate_functions, oracle_signs, separable_signs
)

CLASS_ORDER = (0, 1, 2, 3, 4)  # number of ones, i.e. [0,4] .. [4,0]
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json spells them
_JSON_KINDS = (str, bool, int, float, list, tuple, dict, type(None))  # a bool is an int: bool first
_EXACT_JSON_KINDS = frozenset(_JSON_KINDS)


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
    functions: tuple[TruthTable, ...],
    circuits: Sequence[AlgorithmResult],
    dj_verdicts: Sequence[DJVerdict],
) -> Sweep:
    """Analyse all final states and oracle signs as stacks, keeping the results as columns."""
    finals = np.asarray(_column(circuits, "final_state"))
    return Sweep(ClassificationReport, {
        "function": functions,
        "function_class": tuple(classify(f) for f in functions),
        "oracle_separable": tuple(separable_signs(oracle_signs(functions)).tolist()),
        "dj_verdict": tuple(dj_verdicts),
        "circuit": circuits,
        "entanglement": analyze_pure_state_stack(finals),
        "observability": observability_stack(density_from_state_stack(finals)),
    })


def classification_report_sweep(functions: Iterable[TruthTable]) -> Sweep:
    """Run every analysis for each function and keep the results as columns,
    in the order of ``functions``. The even/odd circuits and the DJ tests run
    as one sweep each on one gate set, and the entanglement and observability
    analyses take all the final states as one stack."""
    functions = tuple(functions)
    h12, h2 = gates.even_odd_gates()
    return _assemble_reports(
        functions, run_even_odd_sweep(functions, h12, h2), run_deutsch_jozsa_sweep(functions, h12)
    )


def classification_report(f: TruthTable) -> ClassificationReport:
    """Run every analysis for one function and bundle the results: the report
    :func:`classification_report_sweep` gives for ``f``, assembled as a stack
    of one from :func:`run_even_odd` and :func:`run_deutsch_jozsa_2bit`, the
    sweeps of one."""
    return _assemble_reports((f,), (run_even_odd(f),), (run_deutsch_jozsa_2bit(f),))[0]


def states_to_jsonable(states: Sequence[StateVector] | np.ndarray) -> list[dict]:
    """One JSON object per state of a sequence or a stack of amplitudes: its basis
    labels and amplitudes, complex ones as [re, im]."""
    amps = np.asarray(states)
    basis = [format(i, f"0{amps.shape[-1] // 2}b") for i in range(amps.shape[-1])]
    pairs = (np.stack([amps.real, amps.imag], axis=-1) + 0.0).tolist()
    return [{"basis": basis, "amplitudes": p} for p in pairs]


def _records_to_jsonable(reports: Sequence[ClassificationReport], name: str, cls) -> list[dict]:
    """The ``name`` records (of type ``cls``) of the reports as JSON objects: bools
    as they are, numbers and tuples of them as floats, IEEE negative zero made
    positive by the + 0.0 so serialized zeros are stable."""
    fields = [f.name for f in dataclasses.fields(cls)]
    columns = [np.asarray(_column(reports, f"{name}.{field}")) for field in fields]
    columns = [(c if c.dtype == bool else c + 0.0).tolist() for c in columns]
    return [dict(zip(fields, row)) for row in zip(*columns)]


def reports_to_jsonable(reports: Sequence[ClassificationReport]) -> list[dict]:
    """One JSON object per report, of a sweep or of any sequence of reports,
    written from one column per field."""
    column = functools.partial(_column, reports)
    classes = column("function_class")
    entries = {
        "function": [f.to_string() for f in column("function")],
        "class": [c.label for c in classes],
        "ones": [c.ones for c in classes],
        "zeros": [c.zeros for c in classes],
        "parity": [c.parity.value for c in classes],
        "oracle_separable": column("oracle_separable"),
        "dj_verdict": [v.value for v in column("dj_verdict")],
        "circuit_verdict": [v.value for v in column("circuit.verdict")],
        "oracle_calls": column("circuit.oracle_calls"),
        "final_state": states_to_jsonable(column("circuit.final_state")),
        "entanglement": _records_to_jsonable(reports, "entanglement", EntanglementReport),
        "observability": _records_to_jsonable(reports, "observability", ObservabilityReport),
    }
    return [dict(zip(entries, row)) for row in zip(*entries.values())]


def report_to_jsonable(r: ClassificationReport) -> dict:
    """The JSON object :func:`reports_to_jsonable` writes for one report."""
    return reports_to_jsonable((r,))[0]


def all_reports() -> Sweep:
    """The reports of all 16 functions, in enumeration order, from one sweep."""
    return classification_report_sweep(enumerate_functions())


def class_summary_rows(reports: Sequence[ClassificationReport]) -> list[dict]:
    """One row per class [0,4] .. [4,0], as ``table --json`` writes it: count,
    parity, oracle nature ("separable" or "entangling") and DJ status.

    Raises ValueError if members of a class ever disagree on a column; the
    summary is derived from the per-function reports, not hardcoded.
    """
    columns = [_column(reports, f) for f in ("function_class", "oracle_separable", "dj_verdict")]
    rows = []
    for ones in CLASS_ORDER:
        members = [(c.parity, sep, dj) for c, sep, dj in zip(*columns) if c.ones == ones]
        if len(set(members)) != 1:
            raise ValueError(f"class [{ones},{4 - ones}] is not homogeneous")
        parity, separable, dj = members[0]
        oracle = "separable" if separable else "entangling"
        rows.append({"class": f"[{ones},{4 - ones}]", "count": len(members),
                     "parity": parity.value, "oracle": oracle, "dj": dj.value})
    return rows


def _canonical(x, indent: str) -> str:
    """JSON text of ``x`` after ``indent``, a newline and the outer spaces. A value of a
    JSON type is told by its exact type; one of a subclass, such as a str or int enum or
    numpy's float64, by ``isinstance``, as ``json`` tells it."""
    kind = type(x)
    if kind not in _EXACT_JSON_KINDS:
        kind = next((k for k in _JSON_KINDS if isinstance(x, k)), None)
    if kind is float:
        return _NON_FINITE.get(text := float.__repr__(x), text)
    if kind is str:
        return encode_basestring_ascii(x)
    if x is None or kind is bool:
        return "null" if x is None else "true" if x else "false"
    if kind is int:
        return int.__repr__(x)
    inner = indent + "  "
    if kind is list or kind is tuple:
        items = [_canonical(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if kind is dict:
        items = [encode_basestring_ascii(k) + ": " + _canonical(x[k], inner) for k in sorted(x)]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def to_canonical_json(data) -> str:
    """Serialize as ``json.dumps(data, indent=2, sort_keys=True)`` would, so
    loads/dumps is byte-stable. ``data`` nests str-keyed dicts, lists, tuples,
    str, int, float (NaN and infinities too), bool and None; anything else,
    unlike in ``json`` a non-``str`` key too, raises TypeError."""
    return _canonical(data, "\n")
