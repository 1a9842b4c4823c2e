"""Self-tests of the benchmark. None of them gates on a timing.

Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

import qparity  # noqa: E402
from qparity import algorithms, cli, reports  # noqa: E402


def cli_output(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def classify_doc(bits: str) -> dict:
    f = qparity.TruthTable.from_string(bits)
    return json.loads(reports.to_canonical_json(reports.report_to_jsonable(reports.classification_report(f))))


def run_result(bits: str) -> dict:
    r = algorithms.run_even_odd(qparity.TruthTable.from_string(bits))
    return {
        "verdict": r.verdict.value,
        "oracle_calls": r.oracle_calls,
        "steps": len(r.per_step_states),
        "amplitudes": r.final_state.amplitudes.tolist(),
    }


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# --- the checker accepts every correct output ---------------------------------


@pytest.mark.parametrize("bits", checker.ALL_BITS)
def test_checker_accepts_every_function(bits):
    assert checker.check_classify_json(bits, classify_doc(bits)) == []
    assert checker.check_run_result(bits, run_result(bits)) == []
    dj = algorithms.run_deutsch_jozsa_2bit(qparity.TruthTable.from_string(bits))
    assert checker.check_dj(bits, dj.value) == []
    for argv in (["classify", bits], ["run", bits, "--trace", "--json"], ["dj", bits]):
        assert checker.check_cli(argv, *cli_output(argv)) == [], argv


@pytest.mark.parametrize("argv", [["table", "--json"], ["verify", "--json"]])
def test_checker_accepts_sweeps(argv):
    assert checker.check_cli(argv, *cli_output(argv)) == []


def test_checker_ignores_added_fields():
    doc = classify_doc("0111")
    doc["timings"] = {"total_s": 0.1}
    doc["entanglement"]["negativity"] = 0.5
    assert checker.check_classify_json("0111", doc) == []


def test_checker_never_imports_qparity():
    code = "import sys, checker; sys.exit(any(m.split('.')[0] in ('qparity', 'numpy') for m in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], cwd=BENCH_DIR).returncode == 0


def test_expected_closed_forms():
    assert [checker.expected(b).ones for b in checker.ALL_BITS].count(2) == 6
    e = checker.expected("0110")  # even, s = (-1)^(0 xor 1) = -1
    assert (e.label, e.parity, e.separable, e.dj) == ("[2,2]", "even", True, "balanced")
    assert e.amplitudes[0].real < 0 < e.amplitudes[1].real
    o = checker.expected("1000")
    assert (o.parity, o.separable, o.dj) == ("odd", False, "neither")
    assert o.amplitudes[0] == 0 and o.amplitudes[2].real < 0


# --- the checker catches injected faults --------------------------------------


def test_fault_flipped_verdict():
    doc = classify_doc("0001")
    doc["circuit_verdict"] = "even"
    assert checker.check_classify_json("0001", doc)
    flat = run_result("0001")
    flat["verdict"] = "even"
    assert checker.check_run_result("0001", flat)
    assert checker.check_dj("1100", "constant")
    code, out, err = cli_output(["dj", "1100"])
    assert checker.check_cli(["dj", "1100"], code, out.replace("Balanced", "Constant"), err)
    code, out, err = cli_output(["classify", "0011"])
    assert checker.check_cli(["classify", "0011"], code, out.replace("parity: Even", "parity: Odd"), err)


def test_fault_sign_flipped_amplitude():
    doc = classify_doc("0100")
    re, im = doc["final_state"]["amplitudes"][1]
    doc["final_state"]["amplitudes"][1] = [-re, im]
    assert checker.check_classify_json("0100", doc)
    flat = run_result("0100")
    flat["amplitudes"][2] = -flat["amplitudes"][2]
    assert checker.check_run_result("0100", flat)
    code, out, err = cli_output(["run", "0100", "--trace", "--json"])
    run_doc = json.loads(out)
    run_doc["trace"][-1]["state"]["amplitudes"][2][0] *= -1
    assert checker.check_cli(["run", "0100", "--trace", "--json"], code, json.dumps(run_doc), err)
    code, out, err = cli_output(["classify", "0100"])
    text = out.replace("final state: 0.707107|01> - ", "final state: 0.707107|01> + ")
    assert text != out
    assert checker.check_cli(["classify", "0100"], code, text, err)


def test_fault_nonzero_exit_and_stderr():
    code, out, err = cli_output(["table", "--json"])
    assert checker.check_cli(["table", "--json"], 1, out, err)
    assert checker.check_cli(["table", "--json"], None, out, err)
    assert checker.check_cli(["table", "--json"], code, out, "warning: something\n")
    assert checker.check_cli(["table", "--json"], code, "", err)


def test_fault_verify_not_passed():
    code, out, err = cli_output(["verify", "--json"])
    doc = json.loads(out)
    doc["passed"] = False
    assert checker.check_cli(["verify", "--json"], code, json.dumps(doc), err)
    doc = json.loads(out)
    doc["summary"]["functions_verified"] = 15
    assert checker.check_cli(["verify", "--json"], code, json.dumps(doc), err)


def test_fault_raising_op_is_counted():
    class Raising:
        def body(self, kind, bits):
            raise ValueError("class [2,2] is not homogeneous")

    seconds, out = worker.attempt(Raising(), "pair", "0000")
    assert isinstance(out, ValueError) and seconds >= 0
    assert worker.problems(Raising(), "pair", "0000", out) == [f"raised {out!r}"]


def test_fault_wrong_table_count():
    code, out, err = cli_output(["table", "--json"])
    doc = json.loads(out)
    doc["classes"][2]["count"] = 5
    assert checker.check_cli(["table", "--json"], code, json.dumps(doc), err)


# --- op streams and tracing ----------------------------------------------------


@pytest.mark.parametrize("workload", sorted(worker.KINDS))
def test_streams_are_seeded_with_equal_shares(workload):
    def take(seed, n=30):
        stream = worker.blocks(workload, seed)
        return [op for _ in range(n) for op in next(stream)]

    assert take(7) == take(7)
    ops = take(7)
    kinds = worker.KINDS[workload]
    assert all(sum(k == kind for k, _ in ops) == 30 for kind in kinds)
    if len(kinds) > 1:
        assert take(7) != take(8)


def test_tracer_wraps_from_imports_and_restores():
    original = reports.run_even_odd
    tracer = Tracer()
    tracer.install()
    try:
        assert reports.run_even_odd is not original
        assert reports.run_even_odd is algorithms.run_even_odd is qparity.run_even_odd
        with tracer.span("op.test"):
            reports.classification_report(qparity.TruthTable.from_string("0001"))
    finally:
        tracer.uninstall()
    assert reports.run_even_odd is original
    assert not hasattr(qparity.UnitaryOperator.__init__, "__wrapped__")
    summary = tracer.summary()
    assert summary["algorithms.run_even_odd"]["calls"] == 1
    assert summary["reports.classification_report"]["calls"] == 1
    assert summary["linalg.UnitaryOperator.__init__"]["calls"] > 0
    root = summary["op.test"]
    assert sum(v["self_ns"] for v in summary.values()) == pytest.approx(root["total_ns"])


def test_tracer_self_time_is_duration_minus_children():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(1000)), "m.inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "m.outer")
    outer()
    duration, own = tracer.self_times()
    assert list(tracer.parent) == [-1, 0, 0, 0]
    assert own[0] == duration[0] - sum(duration[1:])
    assert list(own[1:]) == list(duration[1:])


# --- the whole benchmark -------------------------------------------------------


def run_benchmark(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", sorted(worker.KINDS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_schema_is_complete(workload, trace):
    done = run_benchmark(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = spec()["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in listed
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    for m in listed:
        assert f"{workload} {m['name']} = " in done.stdout
    assert done.stdout.startswith("environment ")


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_benchmark(str(tmp_path), "--workload", "calls", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
