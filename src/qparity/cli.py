"""Command-line interface.

Commands: ``classify``, ``run``, ``dj``, ``table``, ``verify``. All results
go to stdout; diagnostics go to stderr. Exit codes: 0 success, 1
verification failure, 2 usage error. The environment variable
``QPARITY_TOLERANCE`` sets the tolerance of the checks of ``verify``
(default 1e-12). Every command rejects a value that is not finite or is below
1e-13 as a usage error; no other command reads it, and no verdict depends on
it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .algorithms import (
    STEP_LABELS,
    DJVerdict,
    run_deutsch_jozsa_2bit,
    run_even_odd,
)
from .linalg import DEFAULT_TOL, StateVector
from .oracles import MALFORMED_TABLE_MESSAGE, TruthTable, classify
from .reports import (
    all_reports,
    class_summary_rows,
    classification_report,
    report_to_jsonable,
    state_to_jsonable,
    to_canonical_json,
)
from .verification import MIN_TOLERANCE, run_all_checks

TOLERANCE_ENV_VAR = "QPARITY_TOLERANCE"

USAGE_ERROR = 2


def _truth_table_argument(text: str) -> TruthTable:
    try:
        return TruthTable.from_string(text)
    except ValueError:
        raise argparse.ArgumentTypeError(MALFORMED_TABLE_MESSAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qparity",
        description=(
            "Classify two-bit Boolean functions as even or odd by exact "
            "simulation of a two-qubit circuit, and inspect the oracle, "
            "entanglement and spectral-readout structure behind the verdict."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, function_arg=False, trace=False):
        sub = commands.add_parser(name, help=help_text)
        if function_arg:
            sub.add_argument(
                "function",
                type=_truth_table_argument,
                help="truth table as 4 bits f(00)f(01)f(10)f(11), e.g. 0001",
            )
        if trace:
            sub.add_argument(
                "--trace",
                action="store_true",
                help="print the state after every gate",
            )
        sub.add_argument(
            "--json", action="store_true", help="emit canonical JSON instead of text"
        )
        return sub

    add("classify", "full report for one function", function_arg=True)
    add("run", "run the even/odd circuit on one function", function_arg=True, trace=True)
    add("dj", "one-query constant-vs-balanced test", function_arg=True)
    add("table", "summary table over all 16 functions")
    add("verify", "run the exhaustive self-check suite")
    return parser


def format_float(x: float) -> str:
    text = f"{x + 0.0:.6g}"
    return "0" if text == "-0" else text


def format_state(s: StateVector) -> str:
    """Render a state as a signed sum of kets, e.g. 0.707107|01> - 0.707107|10>."""
    parts: list[str] = []
    for label, amp in zip(s.basis_labels(), s.amplitudes):
        if abs(amp) <= 1e-9:
            continue
        if abs(amp.imag) <= 1e-9:
            value = amp.real
            sign = "-" if value < 0 else "+"
            coefficient = format_float(abs(value))
        else:
            sign = "+"
            coefficient = f"({format_float(amp.real)}{amp.imag:+.6g}j)"
        parts.append((sign, f"{coefficient}|{label}>"))
    if not parts:
        return "0"
    first_sign, first_term = parts[0]
    text = ("-" if first_sign == "-" else "") + first_term
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text


def _dj_status_text(verdict: DJVerdict) -> str:
    if verdict is DJVerdict.NEITHER:
        return "------"
    return verdict.value.capitalize()


def _print_classify(args: argparse.Namespace) -> int:
    report = classification_report(args.function)
    if args.json:
        print(to_canonical_json(report_to_jsonable(report)))
        return 0
    ent, obs = report.entanglement, report.observability
    lines = [
        f"function: {report.function.to_string()}",
        f"class: {report.function_class.label}",
        f"parity: {report.function_class.parity.value.capitalize()}",
        f"oracle: {'Separable' if report.oracle_separable else 'Entangling'}",
        f"dj: {_dj_status_text(report.dj_verdict)}",
        f"circuit verdict: {report.circuit.verdict.value.capitalize()}",
        f"oracle calls: {report.circuit.oracle_calls}",
        f"final state: {format_state(report.circuit.final_state)}",
        f"concurrence: {format_float(ent.concurrence)}",
        f"entangled: {'yes' if ent.is_entangled else 'no'}",
        "schmidt coefficients: "
        + ", ".join(format_float(v) for v in ent.schmidt_coefficients),
        f"reduced purity q1: {format_float(ent.reduced_purity_q1)}",
        f"reduced purity q2: {format_float(ent.reduced_purity_q2)}",
        f"observable line: {'yes' if obs.observable_line else 'no'}",
        f"single-quantum weight: {format_float(obs.single_quantum_weight)}",
        f"zero-quantum weight: {format_float(obs.zero_quantum_weight)}",
        f"transverse magnetization q1: {format_float(obs.transverse_magnetization_q1)}",
        f"transverse magnetization q2: {format_float(obs.transverse_magnetization_q2)}",
    ]
    print("\n".join(lines))
    return 0


def _print_run(args: argparse.Namespace) -> int:
    result = run_even_odd(args.function)
    if args.json:
        payload = {
            "function": args.function.to_string(),
            "class": classify(args.function).label,
            "verdict": result.verdict.value,
            "oracle_calls": result.oracle_calls,
            "final_state": state_to_jsonable(result.final_state),
        }
        if args.trace:
            payload["trace"] = [
                {"step": i, "gate": label, "state": state_to_jsonable(state)}
                for i, (label, state) in enumerate(
                    zip(STEP_LABELS, result.per_step_states)
                )
            ]
        print(to_canonical_json(payload))
        return 0
    print(f"function: {args.function.to_string()}")
    print(f"class: {classify(args.function).label}")
    if args.trace:
        for i, (label, state) in enumerate(zip(STEP_LABELS, result.per_step_states)):
            print(f"step {i} {label:<8} {format_state(state)}")
    print(f"verdict: {result.verdict.value.capitalize()}")
    print(f"oracle calls: {result.oracle_calls}")
    print(f"final state: {format_state(result.final_state)}")
    return 0


def _print_dj(args: argparse.Namespace) -> int:
    verdict = run_deutsch_jozsa_2bit(args.function)
    if args.json:
        payload = {
            "function": args.function.to_string(),
            "class": classify(args.function).label,
            "verdict": verdict.value,
            "oracle_calls": 1,
        }
        print(to_canonical_json(payload))
        return 0
    print(f"function: {args.function.to_string()}")
    print(f"class: {classify(args.function).label}")
    print(f"dj verdict: {_dj_status_text(verdict)}")
    return 0


def _print_table(args: argparse.Namespace) -> int:
    reports = all_reports()
    rows = class_summary_rows(reports)
    if args.json:
        payload = {
            "classes": [
                {
                    "class": row["class"],
                    "count": row["count"],
                    "parity": row["parity"],
                    "oracle": "separable" if row["oracle_separable"] else "entangling",
                    "dj": row["dj_verdict"],
                }
                for row in rows
            ],
            "functions": [report_to_jsonable(r) for r in reports],
        }
        print(to_canonical_json(payload))
        return 0
    print(f"{'class':<7} {'count':>5}  {'nature':<6} {'oracle':<11} dj")
    for row in rows:
        oracle = "Separable" if row["oracle_separable"] else "Entangling"
        dj = _dj_status_text(DJVerdict(row["dj_verdict"]))
        print(
            f"{row['class']:<7} {row['count']:>5}  "
            f"{row['parity'].capitalize():<6} {oracle:<11} {dj}"
        )
    print(f"{'total':<7} {sum(row['count'] for row in rows):>5}")
    return 0


def _print_verify(args: argparse.Namespace) -> int:
    outcome = run_all_checks(args.tolerance)
    if args.json:
        payload = {
            "passed": outcome.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in outcome.checks
            ],
            "summary": {
                "functions_verified": outcome.functions_verified,
                "total_functions": outcome.total_functions,
                "classical_min_queries": outcome.classical_queries,
            },
        }
        print(to_canonical_json(payload))
        return 0 if outcome.passed else 1
    for check in outcome.checks:
        if check.passed:
            print(f"ok   {check.name}")
        else:
            print(f"FAIL {check.name}: {check.detail}")
    print(outcome.summary_line())
    return 0 if outcome.passed else 1


_HANDLERS = {
    "classify": _print_classify,
    "run": _print_run,
    "dj": _print_dj,
    "table": _print_table,
    "verify": _print_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR

    args.tolerance = DEFAULT_TOL
    raw_tolerance = os.environ.get(TOLERANCE_ENV_VAR)
    if raw_tolerance is not None:
        try:
            args.tolerance = float(raw_tolerance)
        except ValueError:
            print(
                f"error: {TOLERANCE_ENV_VAR} must be a number, got {raw_tolerance!r}",
                file=sys.stderr,
            )
            return USAGE_ERROR
        if not (math.isfinite(args.tolerance) and args.tolerance >= MIN_TOLERANCE):
            print(
                f"error: {TOLERANCE_ENV_VAR} must be finite and at least "
                f"{MIN_TOLERANCE:g}, got {raw_tolerance!r}",
                file=sys.stderr,
            )
            return USAGE_ERROR

    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
