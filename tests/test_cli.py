"""Command-line behavior: output formats, exit codes, JSON stability."""

import contextlib
import functools
import io
import json
import os
import re
import threading
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qparity.cli
import qparity.gates
import qparity.linalg
import qparity.reports
from qparity import (
    DJVerdict,
    StateVector,
    UnitaryOperator,
    enumerate_functions,
    run_all_checks,
    to_canonical_json,
)
from qparity.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


VERDICT_COMMANDS = [
    argv
    for f in enumerate_functions()
    for argv in (["dj", f.to_string()], ["classify", f.to_string(), "--json"])
]


@functools.cache
def untuned_verdict_outputs():
    with mock.patch.dict(os.environ):
        os.environ.pop("QPARITY_TOLERANCE", None)
        return [stdout_of(argv) for argv in VERDICT_COMMANDS]


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
        # attributed to that function and to the DJ check alone.
        honest = qparity.reports.run_deutsch_jozsa_sweep

        def mislabel_1100(functions):
            functions = tuple(functions)
            return [
                DJVerdict.CONSTANT if f.to_string() == "1100" else verdict
                for f, verdict in zip(functions, honest(functions))
            ]

        monkeypatch.setattr(qparity.reports, "run_deutsch_jozsa_sweep", mislabel_1100)
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
    def test_invalid_value_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QPARITY_TOLERANCE", "not-a-number")
        code, _, err = run_cli(capsys, "verify")
        assert code == 2
        assert "QPARITY_TOLERANCE" in err

    def test_non_positive_value_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QPARITY_TOLERANCE", "-1e-9")
        code, _, _ = run_cli(capsys, "verify")
        assert code == 2

    def test_looser_tolerance_still_verifies(self, capsys, monkeypatch):
        monkeypatch.setenv("QPARITY_TOLERANCE", "1e-9")
        code, _, _ = run_cli(capsys, "verify")
        assert code == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_is_a_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("QPARITY_TOLERANCE", value)
        code, out, err = run_cli(capsys, "dj", "1100")
        assert code == 2
        assert out == ""
        assert "QPARITY_TOLERANCE" in err

    @pytest.mark.parametrize("value", ["1e-14", "5e-16", "5e-324"])
    def test_value_below_rounding_level_is_a_usage_error(self, capsys, monkeypatch, value):
        # Such a tolerance would reject correctly rounded gates and states.
        monkeypatch.setenv("QPARITY_TOLERANCE", value)
        code, out, err = run_cli(capsys, "verify")
        assert code == 2
        assert out == ""
        assert "QPARITY_TOLERANCE" in err
        assert "at least 1e-13" in err

    @given(st.floats(min_value=1e-12, max_value=1e6))
    @example(0.6)
    @example(3.0)
    @settings(max_examples=10, deadline=None)
    def test_tolerance_never_changes_a_verdict(self, tolerance):
        with mock.patch.dict(os.environ, {"QPARITY_TOLERANCE": repr(tolerance)}):
            tuned = [stdout_of(argv) for argv in VERDICT_COMMANDS]
        assert tuned == untuned_verdict_outputs()

    def test_default_restored_after_command(self, capsys, monkeypatch):
        monkeypatch.setenv("QPARITY_TOLERANCE", "1e-6")
        before = qparity.linalg.DEFAULT_TOL
        run_cli(capsys, "classify", "0000")
        assert qparity.linalg.DEFAULT_TOL == before

    def test_override_does_not_reach_other_threads(self, capsys, monkeypatch):
        entered, release = threading.Event(), threading.Event()

        def paused_run_all_checks(*args):
            entered.set()
            release.wait(timeout=60)
            return run_all_checks(*args)

        monkeypatch.setattr(qparity.cli, "run_all_checks", paused_run_all_checks)
        monkeypatch.setenv("QPARITY_TOLERANCE", "1e6")
        codes = []
        worker = threading.Thread(target=lambda: codes.append(main(["verify"])))
        worker.start()
        try:
            assert entered.wait(timeout=60)
            # The command's loose tolerance must not loosen validation here.
            with pytest.raises(ValueError, match="not normalized"):
                StateVector([1.0, 1.0])
        finally:
            release.set()
            worker.join(timeout=60)
        assert codes == [0]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e-15])
    def test_check_tolerance_is_validated(self, value):
        with pytest.raises(ValueError, match="at least 1e-13"):
            run_all_checks(value)


class TestUsage:
    def test_no_command_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_unknown_command_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2
