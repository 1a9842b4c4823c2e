"""Command-line interface.

Commands: ``classify``, ``run``, ``dj``, ``table``, ``verify``. Each handler
returns its output and exit code; ``main`` is the one writer of stdout, as
canonical JSON under ``--json`` and text lines otherwise (the parser writes only
``--help``). Diagnostics go to stderr. Exit codes: 0 success, 1 verification
failure, 2 usage error, 3 internal error (an exception escaped a command; its
traceback goes to stderr), 141 stdout closed by its reader or never open
(nothing is printed; a shell reports a process killed by SIGPIPE so), the help
text included. No command reads the environment: ``verify`` compares at the
constants of the ``linalg`` tolerance table.

The argument parser is built once, when this module is imported, and only
read afterwards, so ``main`` may be called repeatedly and concurrently in
one process. ``verify`` imports ``verification`` when it runs, so no other
command compiles it. The process entry freezes the collector once ``main``
has returned, so interpreter exit does not walk the objects the imports made;
``main`` leaves the collector as its caller set it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
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
    ClassificationReport,
    all_reports,
    class_summary_rows,
    classification_report,
    states_to_jsonable,
    to_canonical_json,
)

USAGE_ERROR = 2
INTERNAL_ERROR = 3
CLOSED_STDOUT = 141  # 128 + SIGPIPE


def _truth_table_argument(text: str) -> TruthTable:
    try:
        return TruthTable.from_string(text)
    except ValueError:
        raise argparse.ArgumentTypeError(MALFORMED_TABLE_MESSAGE)


def _stdout():
    if sys.stdout is None:  # fd 1 was not open at start: nothing can reach a reader
        raise BrokenPipeError
    return sys.stdout


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own writer drops an OSError, and with it a closed stdout.
        (file or _stdout()).write(self.format_help())


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

    add("classify", "full report for one function", _classify, function_arg=True)
    add("run", "run the even/odd circuit on one function", _run, function_arg=True, trace=True)
    add("dj", "one-query constant-vs-balanced test", _dj, function_arg=True)
    add("table", "summary table over all 16 functions", _table)
    add("verify", "run the exhaustive self-check suite", _verify)
    return parser


def format_float(x: float) -> str:
    return f"{x + 0.0:.6g}"


def format_state(s: StateVector) -> str:
    """Render a unit-norm state as a signed sum of kets, e.g. 0.707107|01> - 0.707107|10>."""
    text = ""
    for label, amp in zip(s.basis_labels(), s.amplitudes):
        if abs(amp) <= DISPLAY_FLOOR:
            continue
        if abs(amp.imag) <= DISPLAY_FLOOR:
            sign = "-" if amp.real < 0 else "+"
            coefficient = format_float(abs(amp.real))
        else:
            sign = "+"
            coefficient = f"({format_float(amp.real)}{amp.imag:+.6g}j)"
        text += f" {sign} {coefficient}|{label}>"
    return text[3:] if text[1] == "+" else "-" + text[3:]  # the first sign has no spaces


def _dj_status_text(verdict: DJVerdict) -> str:
    if verdict is DJVerdict.NEITHER:
        return "------"
    return verdict.value.capitalize()


def _header(f: TruthTable) -> dict:
    """The fields ``run`` and ``dj`` begin with, as JSON keys and as text lines."""
    return {"function": f.to_string(), "class": classify(f).label}


def _text(fields: dict) -> list[str]:
    return [f"{name}: {value}" for name, value in fields.items()]


def _classify(args: argparse.Namespace) -> tuple[ClassificationReport | list[str], int]:
    report = classification_report(args.function)
    if args.json:
        return report, 0
    ent, obs = report.entanglement, report.observability
    return [
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
    ], 0


def _run(args: argparse.Namespace) -> tuple[dict | list[str], int]:
    result = run_even_odd(args.function)
    header = _header(args.function)
    if args.json:
        states = states_to_jsonable(result.per_step_states)
        payload = {
            **header,
            "verdict": result.verdict.value,
            "oracle_calls": result.oracle_calls,
            "final_state": states[-1],
        }
        if args.trace:
            payload["trace"] = [
                {"step": i, "gate": label, "state": state}
                for i, (label, state) in enumerate(zip(STEP_LABELS, states))
            ]
        return payload, 0
    lines = _text(header)
    if args.trace:
        for i, (label, state) in enumerate(zip(STEP_LABELS, result.per_step_states)):
            lines.append(f"step {i} {label:<8} {format_state(state)}")
    return lines + [
        f"verdict: {result.verdict.value.capitalize()}",
        f"oracle calls: {result.oracle_calls}",
        f"final state: {format_state(result.final_state)}",
    ], 0


def _dj(args: argparse.Namespace) -> tuple[dict | list[str], int]:
    verdict = run_deutsch_jozsa_2bit(args.function)
    header = _header(args.function)
    if args.json:
        return {**header, "verdict": verdict.value, "oracle_calls": 1}, 0
    return _text(header) + [f"dj verdict: {_dj_status_text(verdict)}"], 0


def _table(args: argparse.Namespace) -> tuple[dict | list[str], int]:
    reports = all_reports()
    rows = class_summary_rows(reports)
    if args.json:
        return {"classes": rows, "functions": reports}, 0
    lines = [f"{'class':<7} {'count':>5}  {'nature':<6} {'oracle':<11} dj"]
    lines += [
        f"{row['class']:<7} {row['count']:>5}  {row['parity'].capitalize():<6} "
        f"{row['oracle'].capitalize():<11} {_dj_status_text(DJVerdict(row['dj']))}"
        for row in rows
    ]
    return lines + [f"{'total':<7} {sum(row['count'] for row in rows):>5}"], 0


def _verify(args: argparse.Namespace) -> tuple[dict | list[str], int]:
    from .verification import run_all_checks  # here, so that only verify compiles the module

    outcome = run_all_checks()
    code = 0 if outcome.passed else 1
    if args.json:
        return {
            "passed": outcome.passed,
            "checks": [vars(c) for c in outcome.checks],
            "summary": {
                "functions_verified": outcome.functions_verified,
                "total_functions": outcome.total_functions,
                "classical_min_queries": outcome.classical_queries,
            },
        }, code
    lines = [
        f"ok   {c.name}" if c.passed else f"FAIL {c.name}: {c.detail}"
        for c in outcome.checks
    ]
    return lines + [outcome.summary_line()], code


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _PARSER.parse_args(argv)
        except SystemExit as exc:  # argparse is done: help printed, or a usage error
            code = exc.code if isinstance(exc.code, int) else USAGE_ERROR
        else:
            output, code = args.handler(args)
            print(to_canonical_json(output) if args.json else "\n".join(output), file=_stdout())
        if hasattr(sys.stdout, "flush"):  # a bare writer passed in as stdout has none
            sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so that flushing what is still buffered at exit cannot fail.
        # A bare writer, or a stdout that was never open, has no descriptor to point there.
        with open(os.devnull, "w") as devnull, contextlib.suppress(OSError, ValueError, AttributeError):
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return CLOSED_STDOUT
    except Exception:
        import traceback  # here, so that only a failing command pays for the import

        traceback.print_exc()
        return INTERNAL_ERROR


def _exit() -> None:
    """The process entry, of ``python -m qparity.cli`` and of the ``qparity`` script."""
    code = main()
    gc.freeze()  # so the collections at interpreter exit skip every object made so far
    sys.exit(code)


if __name__ == "__main__":
    _exit()
