"""Independent correctness checker for qparity outputs.

Every expected answer is derived here from the four truth-table bits alone;
this module never imports qparity (or numpy). Checks read named fields, so
outputs that gain new fields still pass, while a wrong verdict, class, count
or amplitude fails. Each ``check_*`` function returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

ALL_BITS = tuple(format(i, "04b") for i in range(16))
BASIS = ("00", "01", "10", "11")
CLASS_COUNTS = {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
ORACLE_CALLS = 2
TRACE_STEPS = 6
CLASSICAL_MIN_QUERIES = 4
AMPLITUDE_TOL = 1e-12  # exact JSON floats
TEXT_AMPLITUDE_TOL = 1e-6  # text output rounds to 6 significant digits
CONCURRENCE_TOL = 1e-10

_R = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Expected:
    """What every qparity output must say about one function."""

    ones: int
    parity: str  # "even" or "odd"
    separable: bool
    dj: str  # "constant", "balanced" or "neither"
    amplitudes: tuple[complex, complex, complex, complex]

    @property
    def label(self) -> str:
        return f"[{self.ones},{4 - self.ones}]"

    @property
    def even(self) -> bool:
        return self.parity == "even"


def expected(bits: str) -> Expected:
    """Closed forms from the bits: class [k,4-k], parity k % 2, separable iff
    even, DJ from k, and final state (s|00>+|01>)/sqrt(2) for even or
    (s|10>+|01>)/sqrt(2) for odd, with s = (-1)^(f00 xor f01)."""
    if len(bits) != 4 or set(bits) - {"0", "1"}:
        raise ValueError(f"not a 4-bit truth table: {bits!r}")
    f = [int(c) for c in bits]
    k = sum(f)
    even = k % 2 == 0
    s = -1.0 if f[0] ^ f[1] else 1.0
    if even:
        amps = (s * _R, _R, 0.0, 0.0)
    else:
        amps = (0.0, _R, s * _R, 0.0)
    dj = "constant" if k in (0, 4) else "balanced" if k == 2 else "neither"
    return Expected(
        ones=k,
        parity="even" if even else "odd",
        separable=even,
        dj=dj,
        amplitudes=tuple(complex(a) for a in amps),
    )


def _field(problems: list[str], doc, path: str, want) -> None:
    value = doc
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            problems.append(f"missing field {path}")
            return
        value = value[key]
    if value != want or type(value) is not type(want):
        problems.append(f"{path} = {value!r}, expected {want!r}")


def _amplitude_problems(where: str, amps, exp: Expected, tol: float) -> list[str]:
    try:
        values = [complex(a) for a in amps]
    except (TypeError, ValueError):
        return [f"{where}: amplitudes are not numbers"]
    if len(values) != 4:
        return [f"{where}: {len(values)} amplitudes, expected 4"]
    err = max(abs(v - e) for v, e in zip(values, exp.amplitudes))
    if not err <= tol:
        return [f"{where}: deviates from the closed form by {err:.3e}"]
    return []


def _json_state_problems(where: str, state, exp: Expected) -> list[str]:
    if not isinstance(state, dict):
        return [f"{where}: missing state"]
    if state.get("basis") != list(BASIS):
        return [f"{where}: basis {state.get('basis')!r}"]
    pairs = state.get("amplitudes")
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 for p in pairs
    ):
        return [f"{where}: amplitudes are not [re, im] pairs"]
    return _amplitude_problems(where, [complex(re, im) for re, im in pairs], exp, AMPLITUDE_TOL)


def check_classify_json(bits: str, doc) -> list[str]:
    """A ``classify --json`` document (also each entry of ``table --json``)."""
    exp = expected(bits)
    p: list[str] = []
    _field(p, doc, "function", bits)
    _field(p, doc, "class", exp.label)
    _field(p, doc, "ones", exp.ones)
    _field(p, doc, "zeros", 4 - exp.ones)
    _field(p, doc, "parity", exp.parity)
    _field(p, doc, "oracle_separable", exp.separable)
    _field(p, doc, "dj_verdict", exp.dj)
    _field(p, doc, "circuit_verdict", exp.parity)
    _field(p, doc, "oracle_calls", ORACLE_CALLS)
    _field(p, doc, "entanglement.is_entangled", not exp.even)
    _field(p, doc, "observability.observable_line", exp.even)
    if isinstance(doc, dict):
        p += _json_state_problems("final_state", doc.get("final_state"), exp)
        concurrence = (doc.get("entanglement") or {}).get("concurrence")
        want = 0.0 if exp.even else 1.0
        if not isinstance(concurrence, (int, float)) or not abs(concurrence - want) <= CONCURRENCE_TOL:
            p.append(f"entanglement.concurrence = {concurrence!r}, expected {want}")
    return p


def check_run_json(bits: str, doc) -> list[str]:
    """A ``run <f> --trace --json`` document."""
    exp = expected(bits)
    p: list[str] = []
    _field(p, doc, "function", bits)
    _field(p, doc, "class", exp.label)
    _field(p, doc, "verdict", exp.parity)
    _field(p, doc, "oracle_calls", ORACLE_CALLS)
    if not isinstance(doc, dict):
        return p
    p += _json_state_problems("final_state", doc.get("final_state"), exp)
    trace = doc.get("trace")
    if not isinstance(trace, list) or len(trace) != TRACE_STEPS:
        n = len(trace) if isinstance(trace, list) else None
        return p + [f"trace has {n} steps, expected {TRACE_STEPS}"]
    if [step.get("step") for step in trace] != list(range(TRACE_STEPS)):
        p.append("trace steps are not numbered 0..5")
    first = (trace[0].get("state") or {}).get("amplitudes")
    if first != [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]:
        p.append(f"trace step 0 is not |00>: {first!r}")
    p += _json_state_problems("trace step 5", trace[-1].get("state"), exp)
    return p


def check_run_result(bits: str, result: dict) -> list[str]:
    """An in-process ``run_even_odd`` result, flattened to plain data:
    verdict, oracle_calls, steps (number of per-step states), amplitudes."""
    exp = expected(bits)
    p: list[str] = []
    _field(p, result, "verdict", exp.parity)
    _field(p, result, "oracle_calls", ORACLE_CALLS)
    _field(p, result, "steps", TRACE_STEPS)
    return p + _amplitude_problems("final state", result.get("amplitudes", ()), exp, AMPLITUDE_TOL)


def check_dj(bits: str, verdict: str) -> list[str]:
    want = expected(bits).dj
    return [] if verdict == want else [f"dj verdict {verdict!r}, expected {want!r}"]


def _text_fields(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def _text_state(text: str) -> list[complex] | None:
    """Parse e.g. "-0.707107|00> + 0.707107|01>" into four amplitudes."""
    amps = [0j] * 4
    tokens = text.replace(" + ", " +").replace(" - ", " -").split()
    for token in tokens:
        coefficient, sep, ket = token.partition("|")
        if not sep or ket[-1:] != ">" or ket[:-1] not in BASIS:
            return None
        try:
            amps[BASIS.index(ket[:-1])] = complex(float(coefficient))
        except ValueError:
            return None
    return amps


_DJ_TEXT = {"constant": "Constant", "balanced": "Balanced", "neither": "------"}


def check_classify_text(bits: str, text: str) -> list[str]:
    """The text form of ``classify <f>``."""
    exp = expected(bits)
    fields = _text_fields(text)
    wants = {
        "function": bits,
        "class": exp.label,
        "parity": exp.parity.capitalize(),
        "oracle": "Separable" if exp.separable else "Entangling",
        "dj": _DJ_TEXT[exp.dj],
        "circuit verdict": exp.parity.capitalize(),
        "oracle calls": str(ORACLE_CALLS),
        "entangled": "no" if exp.even else "yes",
        "concurrence": "0" if exp.even else "1",
        "observable line": "yes" if exp.even else "no",
    }
    p = [
        f"{key}: {fields.get(key)!r}, expected {want!r}"
        for key, want in wants.items()
        if fields.get(key) != want
    ]
    amps = _text_state(fields.get("final state", ""))
    if amps is None:
        return p + [f"final state unreadable: {fields.get('final state')!r}"]
    return p + _amplitude_problems("final state", amps, exp, TEXT_AMPLITUDE_TOL)


def check_dj_text(bits: str, text: str) -> list[str]:
    """The text form of ``dj <f>``."""
    exp = expected(bits)
    fields = _text_fields(text)
    wants = {"function": bits, "class": exp.label, "dj verdict": _DJ_TEXT[exp.dj]}
    return [
        f"{key}: {fields.get(key)!r}, expected {want!r}"
        for key, want in wants.items()
        if fields.get(key) != want
    ]


def check_table_json(doc) -> list[str]:
    """``table --json``: class rows with counts 1/4/6/4/1, and all 16 functions."""
    if not isinstance(doc, dict):
        return ["table output is not an object"]
    p: list[str] = []
    rows = doc.get("classes")
    if not isinstance(rows, list) or len(rows) != 5:
        p.append("classes: expected 5 rows")
    else:
        for k, row in enumerate(rows):
            exp = expected("1" * k + "0" * (4 - k))
            _field(p, row, "class", exp.label)
            _field(p, row, "count", CLASS_COUNTS[k])
            _field(p, row, "parity", exp.parity)
            _field(p, row, "oracle", "separable" if exp.separable else "entangling")
            _field(p, row, "dj", exp.dj)
    functions = doc.get("functions")
    if not isinstance(functions, list):
        return p + ["functions: missing"]
    seen = [f.get("function") if isinstance(f, dict) else None for f in functions]
    if sorted(map(str, seen)) != list(ALL_BITS):
        return p + [f"functions: expected all 16 tables, got {seen!r}"]
    for entry in functions:
        p += [f"{entry['function']}: {msg}" for msg in check_classify_json(entry["function"], entry)]
    return p


def check_verify_json(doc) -> list[str]:
    """``verify --json``: passed, every check passed, 16/16, classical 4."""
    p: list[str] = []
    _field(p, doc, "passed", True)
    _field(p, doc, "summary.functions_verified", 16)
    _field(p, doc, "summary.total_functions", 16)
    _field(p, doc, "summary.classical_min_queries", CLASSICAL_MIN_QUERIES)
    checks = doc.get("checks") if isinstance(doc, dict) else None
    if not isinstance(checks, list) or not checks:
        p.append("checks: missing")
    else:
        p += [f"check {c.get('name')!r} failed" for c in checks if c.get("passed") is not True]
    return p


def check_cli(argv: list[str], returncode: int, stdout: str, stderr: str) -> list[str]:
    """One CLI command: exit 0, nothing on stderr, and a correct stdout."""
    p: list[str] = []
    if returncode != 0:
        p.append(f"exit code {returncode}")
    if stderr:
        p.append(f"stderr: {stderr.strip()[:200]!r}")
    command = argv[0]
    try:
        if command == "classify":
            p += check_classify_text(argv[1], stdout)
        elif command == "run":
            p += check_run_json(argv[1], json.loads(stdout))
        elif command == "dj":
            p += check_dj_text(argv[1], stdout)
        elif command == "table":
            p += check_table_json(json.loads(stdout))
        elif command == "verify":
            p += check_verify_json(json.loads(stdout))
        else:
            p.append(f"no check for command {command!r}")
    except json.JSONDecodeError as exc:
        p.append(f"stdout is not JSON: {exc}")
    return p
