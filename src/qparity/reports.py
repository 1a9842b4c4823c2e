"""Per-function reports and deterministic JSON serialization.

A sweep keeps its reports as columns (a ``Sweep``), builds a
``ClassificationReport`` only for a row asked for, and is written as JSON from
its columns, as is one report. Complex numbers serialize as [re, im] arrays.
JSON output is canonical, the bytes of ``json.dumps(data, indent=2,
sort_keys=True)``: keys sorted, two-space indent, floats in Python's shortest
round-trip form, so parsing and re-serializing reproduces the bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import gates, oracles
from .algorithms import (
    AlgorithmResult, DJVerdict, Sweep, _column, dj_readout, run_deutsch_jozsa_2bit, run_even_odd,
    run_even_odd_sweep,
)
from .entanglement import EntanglementReport, _analyze
from .linalg import StateVector, _basis_labels, density_from_state_stack, validated_state_stack
from .nmr import ObservabilityReport, observability_stack
from .oracles import (
    FunctionClass, TruthTable, classify, enumerate_functions, oracle_signs, separable_signs
)

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json spells them
_JSON_KINDS = (str, bool, int, float, list, tuple, dict, type(None))  # a bool is an int: bool first
_EXACT_JSON_KINDS = frozenset(_JSON_KINDS)
_SCALARS = {  # the JSON text of a scalar, by its JSON type
    float: lambda x: _NON_FINITE.get(text := float.__repr__(x), text), int: int.__repr__,
    str: encode_basestring_ascii, bool: {True: "true", False: "false"}.get,
    type(None): {None: "null"}.get,
}


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
    """Analyse all final states (rows of checked stacks) and oracle signs as stacks,
    keeping the results as columns."""
    finals = np.asarray(_column(circuits, "final_state"))
    return Sweep(ClassificationReport, {
        "function": functions,
        "function_class": tuple(classify(f) for f in functions),
        "oracle_separable": tuple(separable_signs(oracle_signs(functions)).tolist()),
        "dj_verdict": tuple(dj_verdicts),
        "circuit": circuits,
        "entanglement": _analyze(finals),
        "observability": observability_stack(density_from_state_stack(finals)),
    })


def classification_report_sweep(functions: Iterable[TruthTable]) -> Sweep:
    """Run every analysis for each function and keep the results as columns,
    in the order of ``functions``. The even/odd circuits run as one sweep, and each DJ
    test is one more H12 on its run's state after H12 and the oracle; the entanglement
    and observability analyses take all the even/odd final states as one stack."""
    functions = tuple(functions)
    h12, h2 = gates.even_odd_gates()
    circuits = run_even_odd_sweep(functions, h12, h2)
    dj_finals = (h12.entries @ circuits.columns["per_step_states"][:, 2, :, None])[..., 0]
    return _assemble_reports(functions, circuits, dj_readout(validated_state_stack(dj_finals)))


def classification_report(f: TruthTable) -> ClassificationReport:
    """Run every analysis for one function and bundle the results: the report
    :func:`classification_report_sweep` gives for ``f``, assembled as a stack
    of one from :func:`run_even_odd` and :func:`run_deutsch_jozsa_2bit`, the
    sweeps of one."""
    return _assemble_reports((f,), (run_even_odd(f),), (run_deutsch_jozsa_2bit(f),))[0]


def states_to_jsonable(states: Sequence[StateVector] | np.ndarray) -> list[dict]:
    """One JSON object per state of a sequence or a stack of amplitudes: its basis
    labels and amplitudes, complex ones as [re, im]."""
    amps = np.ascontiguousarray(states, dtype=np.complex128)
    basis = list(_basis_labels(amps.shape[-1]))
    pairs = (amps.view(np.float64) + 0.0).reshape(*amps.shape, 2).tolist()
    return [{"basis": basis, "amplitudes": p} for p in pairs]


def _records_to_jsonable(reports: Sequence[ClassificationReport], name: str, cls) -> list[dict]:
    """The ``name`` records (of type ``cls``) of the reports as JSON objects: a column
    of bools as it is, numbers and tuples of them as floats, IEEE negative zero made
    positive by the + 0.0 so serialized zeros are stable."""
    fields = [f.name for f in dataclasses.fields(cls)]
    columns = [_column(reports, f"{name}.{field}") for field in fields]
    columns = [c if all(type(v) is bool for v in c) else
               [[x + 0.0 for x in v] if type(v) is tuple else v + 0.0 for v in c] for c in columns]
    return [dict(zip(fields, row)) for row in zip(*columns)]


def reports_to_jsonable(reports: Sequence[ClassificationReport]) -> list[dict]:
    """One JSON object per report, of a sweep or of any sequence of reports,
    written from one column per field."""
    column = functools.partial(_column, reports)
    columns = zip(
        column("function"), column("function_class"), column("oracle_separable"),
        column("dj_verdict"), column("circuit.verdict"), column("circuit.oracle_calls"),
        states_to_jsonable(column("circuit.final_state")),
        _records_to_jsonable(reports, "entanglement", EntanglementReport),
        _records_to_jsonable(reports, "observability", ObservabilityReport),
    )
    return [
        {"function": f.to_string(), "class": c.label, "ones": c.ones, "zeros": c.zeros,
         "parity": c.parity.value, "oracle_separable": separable, "dj_verdict": dj.value,
         "circuit_verdict": verdict.value, "oracle_calls": calls, "final_state": state,
         "entanglement": entanglement, "observability": observability}
        for f, c, separable, dj, verdict, calls, state, entanglement, observability in columns
    ]


def report_to_jsonable(r: ClassificationReport) -> dict:
    """The JSON object :func:`reports_to_jsonable` writes for one report."""
    return reports_to_jsonable((r,))[0]


# The dotted JSON path of each scalar of a report's object but its function and final state: the
# column it is read from. A dot sorts below every character of a key, as ``_write`` nests them.
_REPORT_COLUMNS = {
    "class": "function_class.label", "ones": "function_class.ones", "zeros": "function_class.zeros",
    "parity": "function_class.parity.value", "oracle_separable": "oracle_separable",
    "dj_verdict": "dj_verdict.value", "circuit_verdict": "circuit.verdict.value",
    "oracle_calls": "circuit.oracle_calls", **{f"{r}.{f.name}": f"{r}.{f.name}" for r, cls in (
        ("entanglement", EntanglementReport), ("observability", ObservabilityReport))
        for f in dataclasses.fields(cls)},
}


@functools.cache
def _report_layout(indent: str, d: int, shape: tuple) -> str:
    """A report's JSON object after ``indent`` as ``_write`` lays it out, a %s slot per scalar."""
    template = {"final_state": {"basis": list(_basis_labels(d)), "amplitudes": [["\0", "\0"]] * d}}
    for path, slot in shape:
        name, _, key = path.rpartition(".")
        (template.setdefault(name, {}) if name else template)[key] = slot
    return _json(template, indent).replace("%", "%%").replace('"\\u0000"', "%s")


def _report_texts(reports: Sequence[ClassificationReport], indent: str) -> list[str]:
    """Each report's JSON text after ``indent``, as ``_write`` writes its dict form, from the
    columns: each distinct number formatted once as x + 0.0, other scalars by their column's kind,
    one % fill per report; other kinds go through the dict form (a None or a str: TypeError)."""
    amps = np.ascontiguousarray(_column(reports, "circuit.final_state"), dtype=np.complex128)
    floats, texts, shape = {"final_state": amps.view(np.float64).T.tolist()}, {}, []
    fields = {"function": [f.to_string() for f in _column(reports, "function")],
              **{path: _column(reports, source) for path, source in _REPORT_COLUMNS.items()}}
    for path, values in fields.items():
        kinds, record, slot = set(map(type, values)), "." in path, "\0"
        if kinds == {bool} or not record and len(kinds) == 1 and kinds <= _SCALARS.keys():
            texts[path] = [list(map(_SCALARS[kinds.pop()], values))]
        elif record and tuple not in kinds:
            floats[path] = [values]
        elif record and kinds == {tuple} and len(lengths := set(map(len, values))) == 1:
            slot, floats[path] = ("\0",) * lengths.pop(), list(zip(*values))
        else:
            break
        shape.append((path, slot))
    numbers = list(itertools.chain.from_iterable(itertools.chain.from_iterable(floats.values())))
    if len(shape) < len(fields) or not set(map(type, numbers)) <= {float, int, bool}:
        return [_json(r, indent) for r in reports_to_jsonable(reports)]
    text = {v: _SCALARS[float](v + 0.0) for v in dict.fromkeys(numbers)}  # 0.0, -0.0 share a text
    texts |= {path: [list(map(text.__getitem__, c)) for c in cs] for path, cs in floats.items()}
    layout = _report_layout(indent, amps.shape[-1], tuple(shape))
    return [layout % row for row in zip(*(c for path in sorted(texts) for c in texts[path]))]


def all_reports() -> Sweep:
    """The reports of all 16 functions, in enumeration order, from one sweep."""
    return classification_report_sweep(enumerate_functions())


def class_summary_rows(reports: Sequence[ClassificationReport]) -> list[dict]:
    """One row per class [0,4] .. [4,0] of the table ``classify`` returns from, as ``table
    --json`` writes it: count, parity, oracle nature ("separable" or "entangling") and DJ status.
    Raises ValueError if a report's class is not in the table, or a class has no report, members
    that disagree on a column or a class other than the table's; rows come from the reports."""
    columns = [_column(reports, f) for f in ("function_class", "oracle_separable", "dj_verdict")]
    groups, stray, rows = {c.ones: [] for c in oracles._CLASSES}, [], []
    for member in zip(*columns):
        groups.get(member[0].ones, stray).append(member)
    if stray:
        raise ValueError(f"class {stray[0][0].label} is not one of the five")
    for c in oracles._CLASSES:
        if not (members := groups[c.ones]) or members.count(members[0]) != len(members):
            fault = "is not homogeneous" if members else "has no report"
            raise ValueError(f"class {c.label} {fault}")
        reported, separable, dj = members[0]
        if reported is not c and reported != c:  # classify returns c itself; dataclass == is slow
            raise ValueError(f"class {c.label} is reported as {reported}")
        rows.append({"class": c.label, "count": len(members), "parity": c.parity.value,
                     "oracle": "separable" if separable else "entangling", "dj": dj.value})
    return rows


def _write(x, indent: str, append) -> None:
    """Append the JSON text of ``x`` after ``indent``, a newline and the outer spaces. A JSON
    type is told by the exact type, a subclass's (a str or int enum, numpy's float64) by
    ``isinstance`` as in ``json``; a container formats its scalars, a report its columns."""
    kind = type(x)
    if kind not in _EXACT_JSON_KINDS:
        kind = next((k for k in _JSON_KINDS if isinstance(x, k)), None)
    if kind is not list and kind is not tuple and kind is not dict:
        if kind is not None:
            return append(_SCALARS[kind](x))
        if isinstance(x, ClassificationReport):
            return append(_report_texts((x,), indent)[0])
        if not (isinstance(x, Sweep) and x.row_type is ClassificationReport):
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
        rows = _report_texts(x, indent + "  ")
        return append(f"[{indent}  " + f",{indent}  ".join(rows) + f"{indent}]" if rows else "[]")
    inner = indent + "  "
    head, sep = ("{" if kind is dict else "[") + inner, "," + inner
    if not x:
        append("{}" if kind is dict else "[]")
    elif kind is dict:
        for k in sorted(x):
            append(head + encode_basestring_ascii(k) + ": ")
            head, v = sep, x[k]
            if (t := type(v)) is float:  # the most frequent child, formatted here
                append(_NON_FINITE.get(text := float.__repr__(v), text))
            else:
                append(form(v)) if (form := _SCALARS.get(t)) else _write(v, inner, append)
        append(indent + "}")
    else:
        for v in x:
            append(head)
            head = sep
            if (t := type(v)) is float:
                append(_NON_FINITE.get(text := float.__repr__(v), text))
            else:
                append(form(v)) if (form := _SCALARS.get(t)) else _write(v, inner, append)
        append(indent + "]")


def _json(x, indent: str) -> str:
    """The JSON text ``_write`` writes for ``x`` after ``indent``."""
    _write(x, indent, (fragments := []).append)
    return "".join(fragments)


def to_canonical_json(data) -> str:
    """Serialize as ``json.dumps(data, indent=2, sort_keys=True)`` would, so
    loads/dumps is byte-stable. ``data`` nests str-keyed dicts, lists, tuples,
    str, int, float (NaN and infinities too), bool and None, and report sweeps and
    reports, written from their columns as their :func:`reports_to_jsonable` form;
    anything else, unlike in ``json`` a non-``str`` key too, raises TypeError."""
    return _json(data, "\n")
