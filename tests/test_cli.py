"""Command-line behavior: output formats, exit codes, JSON stability."""

import argparse
import collections
import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
import threading

import pytest

import qparity.cli
import qparity.gates
import qparity.reports
from qparity import DJVerdict, FunctionClass, Parity, UnitaryOperator, to_canonical_json
from qparity.cli import build_parser, main

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_canonical_roundtrip(text):
    """Parsing the emitted JSON and re-serializing must reproduce the bytes."""
    assert text.endswith("\n")
    body = text[:-1]
    assert to_canonical_json(json.loads(body)) == body


class TestClassify:
    def test_odd_function_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "0001")
        assert code == 0
        assert "class: [1,3]" in out
        assert "parity: Odd" in out
        assert "oracle: Entangling" in out
        assert "dj: ------" in out
        assert "oracle calls: 2" in out

    def test_constant_function_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "0000")
        assert code == 0
        assert "class: [0,4]" in out
        assert "parity: Even" in out
        assert "oracle: Separable" in out
        assert "dj: Constant" in out

    def test_malformed_function_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "classify", "001")
        assert code == 2
        assert "truth table must be 4 bits" in err

    def test_missing_function_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "classify")
        assert code == 2

    def test_json_report_contents_and_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "0001", "--json")
        assert code == 0
        assert_canonical_roundtrip(out)
        data = json.loads(out)
        assert data["class"] == "[1,3]"
        assert data["parity"] == "odd"
        assert data["oracle_separable"] is False
        assert data["dj_verdict"] == "neither"
        assert data["oracle_calls"] == 2
        assert data["entanglement"]["concurrence"] == pytest.approx(1.0, abs=1e-10)
        assert data["observability"]["observable_line"] is False
        amplitudes = data["final_state"]["amplitudes"]
        assert amplitudes[0] == [0.0, 0.0]
        assert amplitudes[1][0] == pytest.approx(2**-0.5, abs=1e-12)


class TestRun:
    def test_plain_run(self, capsys):
        code, out, _ = run_cli(capsys, "run", "0000")
        assert code == 0
        assert "verdict: Even" in out
        assert "oracle calls: 2" in out
        assert "step" not in out

    def test_trace_lists_all_six_steps(self, capsys):
        code, out, _ = run_cli(capsys, "run", "1000", "--trace")
        assert code == 0
        steps = [line for line in out.splitlines() if line.startswith("step")]
        assert len(steps) == 6
        labels = [line.split()[2] for line in steps]
        assert labels == ["initial", "H12", "Uf", "H2", "Uf", "H12"]
        assert "verdict: Odd" in out

    def test_json_trace_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "run", "0110", "--trace", "--json")
        assert code == 0
        assert_canonical_roundtrip(out)
        data = json.loads(out)
        assert data["verdict"] == "even"
        assert [entry["gate"] for entry in data["trace"]] == [
            "initial",
            "H12",
            "Uf",
            "H2",
            "Uf",
            "H12",
        ]


class TestDeutschJozsaCommand:
    @pytest.mark.parametrize(
        "bits,verdict", [("0000", "Constant"), ("1100", "Balanced"), ("1000", "------")]
    )
    def test_text_verdicts(self, capsys, bits, verdict):
        code, out, _ = run_cli(capsys, "dj", bits)
        assert code == 0
        assert f"dj verdict: {verdict}" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "dj", "0011", "--json")
        assert code == 0
        assert_canonical_roundtrip(out)
        data = json.loads(out)
        assert data["verdict"] == "balanced"
        assert data["oracle_calls"] == 1


class TestTable:
    def test_text_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        assert re.search(r"\[2,2\]\s+6\s+Even\s+Separable\s+Balanced", out)
        assert re.search(r"\[1,3\]\s+4\s+Odd\s+Entangling\s+------", out)
        assert re.search(r"total\s+16", out)

    def test_rejects_function_argument(self, capsys):
        code, _, _ = run_cli(capsys, "table", "0000")
        assert code == 2

    def test_json_structure_and_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--json")
        assert code == 0
        assert_canonical_roundtrip(out)
        data = json.loads(out)
        assert len(data["classes"]) == 5
        assert len(data["functions"]) == 16
        assert [row["count"] for row in data["classes"]] == [1, 4, 6, 4, 1]
        assert [row["parity"] for row in data["classes"]] == [
            "even",
            "odd",
            "even",
            "odd",
            "even",
        ]
        assert [row["dj"] for row in data["classes"]] == [
            "constant",
            "neither",
            "balanced",
            "neither",
            "constant",
        ]
        assert sum(row["count"] for row in data["classes"]) == 16

    @pytest.mark.parametrize("fault", ["outside_the_five", "every_parity_flipped"])
    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_class_unlike_the_table_prints_nothing(self, fault, json_flag, capsys, monkeypatch):
        # The summary takes its classes from the table classify returns from, so a
        # report whose class is not one of its five, or differs from it, is an error.
        honest = qparity.reports.classify

        def relabelled(f):
            c = honest(f)
            if fault == "outside_the_five":
                return FunctionClass(5, -1, Parity.EVEN) if f.to_string() == "0011" else c
            return dataclasses.replace(c, parity=Parity.ODD if c.parity is Parity.EVEN
                                       else Parity.EVEN)

        monkeypatch.setattr(qparity.reports, "classify", relabelled)
        code, out, err = run_cli(capsys, "table", *json_flag)
        assert (code, out) == (3, "")
        assert err.rstrip().splitlines()[-1].startswith("ValueError: class ")


class TestVerify:
    def test_pristine_build_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert out.strip().splitlines()[-1] == (
            "16/16 functions verified, classical_min_queries=4"
        )
        assert "FAIL" not in out

    def test_json_output_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--json")
        assert code == 0
        assert_canonical_roundtrip(out)
        data = json.loads(out)
        assert data["passed"] is True
        assert all(check["passed"] for check in data["checks"])
        assert data["summary"]["classical_min_queries"] == 4
        assert data["summary"]["functions_verified"] == 16

    def test_rejects_function_argument(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "0000")
        assert code == 2

    def test_flipped_hadamard_sign_fails_verification(self, capsys, monkeypatch):
        # Mutation sanity check: poison the Hadamard and the self-check
        # suite must notice and exit 1.
        import numpy as np

        def flipped():
            return UnitaryOperator(
                np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
            )

        monkeypatch.setattr(qparity.gates, "hadamard", flipped)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "FAIL" in out

    def test_checks_the_reports_that_table_prints(self, capsys, monkeypatch):
        # A wrong DJ verdict in one function's report must surface in verify,
        # attributed to that function and to the DJ check alone. The readout
        # tells 1100 by its DJ final state, -|10> (0011's is +|10>).
        import numpy as np

        honest = qparity.reports.dj_readout

        def mislabel_1100(finals):
            return [
                DJVerdict.CONSTANT if row == [0, 0, -1, 0] else verdict
                for row, verdict in zip(np.round(finals.real).tolist(), honest(finals))
            ]

        monkeypatch.setattr(qparity.reports, "dj_readout", mislabel_1100)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert failed == ["FAIL dj_verdicts: 1100: DJ verdict constant != balanced"]
        assert out.splitlines()[-1] == "15/16 functions verified, classical_min_queries=4"

    def test_raising_analysis_is_attributed_to_its_function(self, capsys, monkeypatch):
        # An analysis that raises for one function fails that function alone,
        # not the whole sweep. (0110 and 1001 share a final state, so the
        # fault goes into a step that sees the function itself.)
        honest = qparity.reports.classify

        def raise_for_0110(f):
            if f.to_string() == "0110":
                raise RuntimeError("injected fault")
            return honest(f)

        monkeypatch.setattr(qparity.reports, "classify", raise_for_0110)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert failed == [
            "FAIL function_analysis: 0110: analysis raised RuntimeError('injected fault')"
        ]
        assert out.splitlines()[-1] == "15/16 functions verified, classical_min_queries=4"


class TestToleranceOverride:
    def test_tolerance_never_changes_a_verdict(self, capsys, monkeypatch):
        # QPARITY_TOLERANCE once set verify's tolerance. No command reads it
        # now, whatever its value: the output is the golden one, byte for byte.
        argvs = [["verify"], ["verify", "--json"], ["dj", "1100"], ["classify", "0110", "--json"]]
        for value in ("abc", "nan", "1e-20", "1e6"):
            monkeypatch.setenv("QPARITY_TOLERANCE", value)
            for argv in argvs:
                golden = golden_entry(*argv)
                assert (value, *run_cli(capsys, *argv)) == (
                    value, golden["exit_code"], golden["stdout"], ""
                )


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv", [["table", "--json"], ["dj", "1100"], ["--help"], ["classify", "--help"]]
    )
    def test_closed_stdout_exits_141_quietly(self, argv):
        # The read end closes before the command writes, as in `qparity ... | head -c 0`.
        # Unbuffered, the first write fails; buffered, the flush after it does.
        src = os.path.dirname(os.path.dirname(os.path.abspath(qparity.cli.__file__)))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                done = subprocess.run(
                    [sys.executable, "-m", "qparity.cli", *argv],
                    stdout=write_end,
                    stderr=subprocess.PIPE,
                    env={**env, **unbuffered, "PYTHONPATH": src},
                    timeout=120,
                )
            finally:
                os.close(write_end)
            assert (unbuffered, done.returncode, done.stderr) == (unbuffered, 141, b"")

    @pytest.mark.parametrize(
        "argv, code",
        [pytest.param(argv, code, id=" ".join(argv)) for argv, code in [
            (["table"], 141), (["verify", "--json"], 141), (["--help"], 141),
            (["classify", "--help"], 141), (["classify", "01x1"], 2)]],
    )
    def test_stdout_not_open_exits_141_quietly(self, argv, code):
        # As `qparity table >&-`: fd 1 is closed before the interpreter starts, so
        # sys.stdout is None. A usage error writes only to stderr and stays one.
        src = os.path.dirname(os.path.dirname(os.path.abspath(qparity.cli.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "qparity.cli", *argv],
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
            preexec_fn=functools.partial(os.close, 1),
            timeout=120,
        )
        assert done.returncode == code
        if code == 141:
            assert done.stderr == b""
        else:
            assert b"truth table must be 4 bits" in done.stderr

    def test_bare_writer_whose_reader_closed_exits_141(self, capsys, monkeypatch):
        # A writer with neither fileno nor flush, like _PerThreadStream, whose reader is gone.
        class Closed:
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", Closed())
        codes = [main(argv) for argv in (["table"], ["verify", "--json"], ["--help"])]
        assert (codes, capsys.readouterr().err) == ([141] * 3, "")

    def test_internal_error_exits_3_with_its_traceback(self, capsys, monkeypatch):
        def broken(f):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(qparity.cli, "classification_report", broken)
        code, out, err = run_cli(capsys, "classify", "0001")
        assert code == 3
        assert out == ""
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith("RuntimeError: injected fault\n")

    def test_a_command_that_raises_prints_nothing(self, capsys, monkeypatch):
        # run's function and class lines come before its trace; the failing trace
        # takes them back, so no part of an answer reaches stdout.
        def broken(state):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(qparity.cli, "format_state", broken)
        code, out, err = run_cli(capsys, "run", "0110", "--trace")
        assert (code, out) == (3, "")
        assert err.endswith("RuntimeError: injected fault\n")


class TestUsage:
    def test_no_command_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_unknown_command_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [[*command, *form] for command in (["classify", "0110"], ["run", "0110", "--trace"],
                                       ["dj", "0110"], ["table"], ["verify"])
     for form in ([], ["--json"])],
    ids=" ".join,
)
def test_handlers_return_what_main_prints(capsys, argv):
    # A handler writes nothing; main prints its output, as JSON or as lines, once.
    args = build_parser().parse_args(argv)
    output, code = args.handler(args)
    assert capsys.readouterr() == ("", "")
    print(to_canonical_json(output) if args.json else "\n".join(output))
    assert (code, capsys.readouterr().out, "") == run_cli(capsys, *argv)


PARSE_EXITS = [
    [],
    ["frobnicate"],
    ["classify"],
    ["classify", "01x1"],
    ["run", "0001", "--bogus"],
    ["table", "extra"],
    ["--help"],
    ["classify", "--help"],
]


@functools.cache
def golden_entry(*argv):
    with open(GOLDEN_PATH) as fh:
        return next(entry for entry in json.load(fh) if entry["argv"] == list(argv))


class _PerThreadStream:
    """A text stream that keeps each thread's writes apart. ``print`` writes a
    line and its newline in two calls, so in one shared stream another
    thread's output could land in the middle of a line."""

    def __init__(self):
        self.writes = collections.defaultdict(list)

    def write(self, text):
        self.writes[threading.current_thread()].append(text)
        return len(text)

    def text(self, thread):
        return "".join(self.writes[thread])


class TestSharedParser:
    def test_main_builds_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        argvs = [
            ["classify", "0110"],
            ["run", "0110", "--trace"],
            ["dj", "0110"],
            ["table", "--json"],
            ["verify", "--json"],
            ["dj", "01x1"],
            ["--help"],
        ]
        assert [main(argv) for argv in argvs] == [0, 0, 0, 0, 0, 2, 0]
        assert built == []

    @pytest.mark.parametrize("argv", PARSE_EXITS, ids=lambda argv: " ".join(argv) or "none")
    def test_shared_parser_matches_a_fresh_one(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        shared = run_cli(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        fresh = capsys.readouterr()
        assert shared == (exc.value.code, fresh.out, fresh.err)
        # A failed parse leaves nothing behind for the next call.
        golden = golden_entry("classify", "0110", "--json")
        assert run_cli(capsys, *golden["argv"]) == (golden["exit_code"], golden["stdout"], "")

    def test_concurrent_main_calls_equal_a_serial_run(self, monkeypatch):
        argvs = [["dj", format(i % 16, "04b")] for i in range(50)]
        argvs.insert(25, ["dj", "01x1"])
        stdout, stderr = _PerThreadStream(), _PerThreadStream()
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "stderr", stderr)

        def run_all():
            return [main(argv) for argv in argvs]

        serial_codes = run_all()
        main_thread = threading.current_thread()
        results, errors = {}, []

        def work():
            try:
                results[threading.current_thread()] = run_all()
            except Exception as exc:  # surfaced below; a thread cannot fail the test
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert serial_codes.count(2) == 1 and serial_codes.count(0) == 50
        assert [results[t] for t in threads] == [serial_codes] * 4
        for stream in (stdout, stderr):
            serial = stream.text(main_thread)
            assert [stream.text(t) for t in threads] == [serial] * 4
        assert "truth table must be 4 bits" in stderr.text(main_thread)

    def test_concurrent_batch_pairs_equal_a_serial_run(self, monkeypatch):
        # The table + verify pair of the batch path shares the oracle table,
        # the parser and the JSON writer between threads.
        argvs = [["table", "--json"], ["verify", "--json"]] * 5
        stdout, stderr = _PerThreadStream(), _PerThreadStream()
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "stderr", stderr)
        serial_codes = [main(argv) for argv in argvs]
        main_thread = threading.current_thread()
        results, errors = {}, []

        def work():
            try:
                results[threading.current_thread()] = [main(argv) for argv in argvs]
            except Exception as exc:  # surfaced below; a thread cannot fail the test
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert serial_codes == [0] * 10
        assert [results[t] for t in threads] == [serial_codes] * 4
        serial = stdout.text(main_thread)
        assert serial.count('"functions_verified": 16') == 5
        assert [stdout.text(t) for t in threads] == [serial] * 4
        assert [stderr.text(t) for t in [main_thread, *threads]] == [""] * 5
