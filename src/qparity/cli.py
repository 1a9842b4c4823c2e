"""Command-line interface.

Commands: ``classify``, ``run``, ``dj``, ``table``, ``verify``. All results
go to stdout; diagnostics go to stderr. Exit codes: 0 success, 1
verification failure, 2 usage error, 3 internal error (an exception escaped
a command; its traceback goes to stderr), 141 stdout closed by its reader
(nothing is printed; a shell reports a process killed by SIGPIPE so), the
help text included. No command reads the environment: ``verify`` compares at
the constants of the ``linalg`` tolerance table.

The argument parser is built once, when this module is imported, and only
read afterwards, so ``main`` may be called repeatedly and concurrently in
one process.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .algorithms import (
    STEP_LABELS,
    DJVerdict,
    run_deutsch_jozsa_2bit,
    run_even_odd,
)
from .linalg import DISPLAY_FLOOR, StateVector
from .oracles import MALFORMED_TABLE_MESSAGE, TruthTable, classify
from .reports import (
    all_reports,
    class_summary_rows,
    classification_report,
    report_to_jsonable,
    reports_to_jsonable,
    states_to_jsonable,
    to_canonical_json,
)
from .verification import run_all_checks

USAGE_ERROR = 2
INTERNAL_ERROR = 3
CLOSED_STDOUT = 141  # 128 + SIGPIPE


def _truth_table_argument(text: str) -> TruthTable:
    try:
        return TruthTable.from_string(text)
    except ValueError:
        raise argparse.ArgumentTypeError(MALFORMED_TABLE_MESSAGE)


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own writer drops an OSError, and with it a closed stdout.
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qparity",
        description=(
            "Classify two-bit Boolean functions as even or odd by exact "
            "simulation of a two-qubit circuit, and inspect the oracle, "
            "entanglement and spectral-readout structure behind the verdict."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler, function_arg=False, trace=False):
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
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

    add("classify", "full report for one function", _print_classify, function_arg=True)
    add("run", "run the even/odd circuit on one function", _print_run,
        function_arg=True, trace=True)
    add("dj", "one-query constant-vs-balanced test", _print_dj, function_arg=True)
    add("table", "summary table over all 16 functions", _print_table)
    add("verify", "run the exhaustive self-check suite", _print_verify)
    return parser


def format_float(x: float) -> str:
    return f"{x + 0.0:.6g}"


def format_state(s: StateVector) -> str:
    """Render a state as a signed sum of kets, e.g. 0.707107|01> - 0.707107|10>."""
    parts: list[str] = []
    for label, amp in zip(s.basis_labels(), s.amplitudes):
        if abs(amp) <= DISPLAY_FLOOR:
            continue
        if abs(amp.imag) <= DISPLAY_FLOOR:
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
        states = states_to_jsonable(result.per_step_states)
        payload = {
            "function": args.function.to_string(),
            "class": classify(args.function).label,
            "verdict": result.verdict.value,
            "oracle_calls": result.oracle_calls,
            "final_state": states[-1],
        }
        if args.trace:
            payload["trace"] = [
                {"step": i, "gate": label, "state": state}
                for i, (label, state) in enumerate(zip(STEP_LABELS, states))
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
        print(to_canonical_json({"classes": rows, "functions": reports_to_jsonable(reports)}))
        return 0
    print(f"{'class':<7} {'count':>5}  {'nature':<6} {'oracle':<11} dj")
    for row in rows:
        dj = _dj_status_text(DJVerdict(row["dj"]))
        print(
            f"{row['class']:<7} {row['count']:>5}  "
            f"{row['parity'].capitalize():<6} {row['oracle'].capitalize():<11} {dj}"
        )
    print(f"{'total':<7} {sum(row['count'] for row in rows):>5}")
    return 0


def _print_verify(args: argparse.Namespace) -> int:
    outcome = run_all_checks()
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


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _PARSER.parse_args(argv)
        except SystemExit as exc:  # argparse is done: help printed, or a usage error
            code = exc.code if isinstance(exc.code, int) else USAGE_ERROR
        else:
            code = args.handler(args)
        if hasattr(sys.stdout, "flush"):  # a bare writer passed in as stdout has none
            sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so that flushing what is still buffered at exit cannot fail.
        with open(os.devnull, "w") as devnull, contextlib.suppress(OSError, ValueError):
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return CLOSED_STDOUT
    except Exception:
        import traceback  # here, so that only a failing command pays for the import

        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
