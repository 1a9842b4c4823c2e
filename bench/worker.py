"""One workload in one fresh interpreter; prints one JSON line of raw results.

``bench/run.py`` starts this script once per measured run (and a few more
times with ``--setup-only``), so set-up time and peak memory belong to the
workload alone. Run from the repository root:

    python3 bench/worker.py --workload calls --seed 1 --seconds 10 --trace 0

Workloads, all single-client closed loops (the next op starts only after the
previous one has finished):

* ``cli``: a seeded, shuffled stream with equal shares of ``classify <f>``,
  ``run <f> --trace --json``, ``dj <f>``, ``table --json`` and
  ``verify --json``, each one ``python -m qparity.cli`` subprocess. Only
  here do interpreter start, imports and argument parsing show.
* ``calls``: a seeded, shuffled in-process stream with equal shares of the
  ``classify --json`` path, ``run_even_odd`` and ``run_deutsch_jozsa_2bit``
  on random functions: the warm single-function library path.
* ``batch``: in-process ``cli.main(["table", "--json"])`` then
  ``cli.main(["verify", "--json"])`` as one op: the all-16 sweep path.

With ``--trace 1`` the op stream runs in-process twice, first untraced and
then traced (``cli`` goes through ``cli.main`` instead of subprocesses), and
the per-layer numbers come from the traced half. Loops stop only at the end
of a shuffled block, so every kind keeps its exact share and per-op call
counts repeat exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from time import perf_counter

import checker
from reference import CpuReference, ProcessReference
from tracer import ROOT_LAYER, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

KINDS = {
    "cli": ("classify", "run", "dj", "table", "verify"),
    "calls": ("classify_json", "run_even_odd", "dj"),
    "batch": ("pair",),
}
# The five commands of the end-to-end CLI measurement, also used for set-up.
FIXED_COMMANDS = (
    ["classify", "0001"],
    ["run", "0001", "--trace", "--json"],
    ["dj", "1100"],
    ["table", "--json"],
    ["verify", "--json"],
)
OP_TIMEOUT_S = 60
MAX_FAILURES_SHOWN = 5
PARSE_ROUNDS, PARSE_REPEATS = 5, 10
LAYERS = ("cli", "reports", "gates", "linalg", "oracles", "algorithms", "entanglement", "nmr", "verification")
COUNTED = {
    "reports.to_canonical_json.calls_per_op": "reports.to_canonical_json",
    "gates.calls_per_op": "gates.",
    "linalg.UnitaryOperator.init_per_op": "linalg.UnitaryOperator.__init__",
    "linalg.StateVector.init_per_op": "linalg.StateVector.__init__",
    "linalg.DensityMatrix.init_per_op": "linalg.DensityMatrix.__init__",
    "oracles.build_oracle.calls_per_op": "oracles.build_oracle",
    "algorithms.run_even_odd.calls_per_op": "algorithms.run_even_odd",
    "nmr.parity_magnetization_values.calls_per_op": "nmr.parity_magnetization_values",
}


def blocks(workload: str, seed: int):
    """Endless op stream from the seed, as shuffled blocks holding each kind once."""
    rng = random.Random(seed)
    while True:
        block = list(KINDS[workload])
        rng.shuffle(block)
        yield [(kind, format(rng.randrange(16), "04b")) for kind in block]


def cli_argv(kind: str, bits: str) -> list[str]:
    return {
        "classify": ["classify", bits],
        "run": ["run", bits, "--trace", "--json"],
        "dj": ["dj", bits],
        "table": ["table", "--json"],
        "verify": ["verify", "--json"],
    }[kind]


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "QPARITY_TOLERANCE"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_cli_subprocess(argv: list[str]):
    """One ``python -m qparity.cli`` command; returns (returncode, stdout, stderr)."""
    try:
        done = subprocess.run(
            [sys.executable, "-m", "qparity.cli", *argv],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {OP_TIMEOUT_S} s"
    return done.returncode, done.stdout, done.stderr


def import_qparity(with_cli: bool):
    """Import qparity from this checkout's ``src`` and return its package."""
    sys.path.insert(0, SRC)
    package = importlib.import_module("qparity.cli" if with_cli else "qparity")
    qparity = sys.modules["qparity"]
    if not os.path.abspath(qparity.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"qparity was imported from {qparity.__file__}, not from {SRC}")
    return package


class InProcess:
    """Op bodies and output checks for the in-process loops."""

    def __init__(self, workload: str):
        self.workload = workload
        TruthTable = sys.modules["qparity.oracles"].TruthTable
        self.tables = {bits: TruthTable.from_string(bits) for bits in checker.ALL_BITS}

    def main_captured(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sys.modules["qparity.cli"].main(argv)
        return code, out.getvalue(), err.getvalue()

    def body(self, kind: str, bits: str):
        # Look functions up through their modules on every call, so the
        # tracer's wrappers are used while it is installed.
        if self.workload == "cli":
            return self.main_captured(cli_argv(kind, bits))
        if self.workload == "batch":
            return (
                self.main_captured(["table", "--json"]),
                self.main_captured(["verify", "--json"]),
            )
        f = self.tables[bits]
        if kind == "classify_json":
            reports = sys.modules["qparity.reports"]
            return reports.to_canonical_json(
                reports.report_to_jsonable(reports.classification_report(f))
            )
        algorithms = sys.modules["qparity.algorithms"]
        if kind == "run_even_odd":
            return algorithms.run_even_odd(f)
        return algorithms.run_deutsch_jozsa_2bit(f)

    def check(self, kind: str, bits: str, out) -> list[str]:
        if self.workload == "cli":
            return checker.check_cli(cli_argv(kind, bits), *out)
        if self.workload == "batch":
            table, verify = out
            return checker.check_cli(["table", "--json"], *table) + checker.check_cli(
                ["verify", "--json"], *verify
            )
        if kind == "classify_json":
            return checker.check_classify_json(bits, json.loads(out))
        if kind == "run_even_odd":
            flat = {
                "verdict": out.verdict.value,
                "oracle_calls": out.oracle_calls,
                "steps": len(out.per_step_states),
                "amplitudes": out.final_state.amplitudes.tolist(),
            }
            return checker.check_run_result(bits, flat)
        return checker.check_dj(bits, out.value)


class Subprocess:
    """Op bodies and output checks for the ``cli`` subprocess loop."""

    def body(self, kind: str, bits: str):
        return run_cli_subprocess(cli_argv(kind, bits))

    def check(self, kind: str, bits: str, out) -> list[str]:
        return checker.check_cli(cli_argv(kind, bits), *out)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)[:300]}")


def attempt(ops, kind: str, bits: str, span=contextlib.nullcontext()):
    """Run one op; returns (seconds taken, its output or the exception it raised)."""
    t0 = perf_counter()
    try:
        with span:
            out = ops.body(kind, bits)
    except Exception as exc:  # a failing op is counted, not fatal
        out = exc
    return perf_counter() - t0, out


def problems(ops, kind: str, bits: str, out) -> list[str]:
    if isinstance(out, Exception):
        return [f"raised {out!r}"]
    try:
        return ops.check(kind, bits, out)
    except (ValueError, TypeError, AttributeError) as exc:
        return [f"unreadable output: {exc!r}"]


def loop(
    ops,
    stream,
    seconds: float,
    tally: Tally,
    tracer: Tracer | None = None,
    reference: CpuReference | ProcessReference | None = None,
) -> tuple[list[float], list[float]]:
    """Closed loop over whole blocks until ``seconds`` have passed.

    Returns the raw op latencies in s and, with a reference, the speed
    factor of each op: the reference sample taken next after it.
    """
    latencies: list[float] = []
    factors: list[float] = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        for kind, bits in next(stream):
            span = tracer.span(f"{ROOT_LAYER}.{kind}") if tracer else contextlib.nullcontext()
            seconds_taken, out = attempt(ops, kind, bits, span)
            latencies.append(seconds_taken)
            tally.record(f"{kind} {bits}", problems(ops, kind, bits, out))
            if reference and reference.due():
                factors += [reference.factor()] * (len(latencies) - len(factors))
    if reference and len(factors) < len(latencies):
        factors += [reference.factor()] * (len(latencies) - len(factors))
    return latencies, factors


def warm_up_ops(workload: str) -> list[tuple[str, str]]:
    if workload == "calls":
        return [(kind, bits) for kind in KINDS["calls"] for bits in checker.ALL_BITS]
    if workload == "batch":
        return [("pair", "0000")]
    return [(kind, "0110") for kind in KINDS["cli"]]


def set_up_in_process(workload: str, tally: Tally):
    """Import qparity and warm every op kind up; returns (ops, seconds taken)."""
    t0 = perf_counter()
    import_qparity(with_cli=workload != "calls")
    ops = InProcess(workload)
    warm = [(kind, bits, attempt(ops, kind, bits)[1]) for kind, bits in warm_up_ops(workload)]
    seconds = perf_counter() - t0
    for kind, bits, out in warm:
        tally.record(f"warm-up {kind} {bits}", problems(ops, kind, bits, out))
    return ops, seconds


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, as numpy's default method."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def latency_stats(latencies: list[float], factors: list[float]) -> dict[str, float]:
    """Raw and speed-scaled op counts, op time and latency percentiles."""
    stats = {"ops": len(latencies)}
    scaled = [t * f for t, f in zip(latencies, factors)]
    for prefix, values in (("raw_", latencies), ("", scaled)):
        stats[prefix + "op_time_s"] = sum(values)
        stats[prefix + "p50_ms"] = percentile(values, 50) * 1e3
        stats[prefix + "p90_ms"] = percentile(values, 90) * 1e3
    return stats


def parse_us() -> float:
    """Median time of ``build_parser().parse_args(argv)`` over the five fixed commands."""
    cli = import_qparity(with_cli=True)
    rounds = []
    for _ in range(PARSE_ROUNDS):
        t0 = perf_counter()
        for _ in range(PARSE_REPEATS):
            for argv in FIXED_COMMANDS:
                cli.build_parser().parse_args(argv)
        rounds.append((perf_counter() - t0) / (PARSE_REPEATS * len(FIXED_COMMANDS)))
    return sorted(rounds)[len(rounds) // 2] * 1e6


def layer_metrics(
    tracer: Tracer, untraced: tuple[list[float], list[float]], traced: tuple[list[float], list[float]]
) -> dict[str, float]:
    """Per-op counts and self times of each layer from the traced half.

    Times are scaled by the traced half's overall speed factor, so layer
    self times still sum to ``trace.op_us``.
    """
    summary = tracer.summary()
    latencies, factors = traced
    ops = len(latencies)
    scaled_op_time = sum(t * f for t, f in zip(latencies, factors))
    us_per_op = scaled_op_time / sum(latencies) * 1e-3 / ops

    def total(field: str, prefix: str) -> float:
        return sum(v[field] for k, v in summary.items() if k.startswith(prefix))

    metrics = {f"{layer}.self_us_per_op": total("self_ns", layer + ".") * us_per_op for layer in LAYERS}
    metrics["algorithms.classical_min_queries.self_us_per_op"] = (
        total("self_ns", "algorithms.classical_min_queries") * us_per_op
    )
    metrics.update({name: total("calls", prefix) / ops for name, prefix in COUNTED.items()})
    root_total = total("total_ns", ROOT_LAYER + ".")
    metrics["trace.op_us"] = root_total * us_per_op
    metrics["trace.attributed_ratio"] = 1.0 - total("self_ns", ROOT_LAYER + ".") / root_total
    u_latencies, u_factors = untraced
    untraced_mean = sum(t * f for t, f in zip(u_latencies, u_factors)) / len(u_latencies)
    metrics["trace.overhead_ratio"] = scaled_op_time / ops / untraced_mean
    return metrics


def measure_subprocess_cli(seed: int, seconds: float, tally: Tally) -> dict:
    """The ``cli`` workload untraced: set-up invocations, then the timed loop."""
    reference = ProcessReference(ROOT)
    result: dict = {"setup_s": [], "setup_scaled_s": []}
    for command in FIXED_COMMANDS:
        t0 = perf_counter()
        out = run_cli_subprocess(command)
        setup_s = perf_counter() - t0
        result["setup_s"].append(setup_s)
        result["setup_scaled_s"].append(setup_s * reference.factor())
        tally.record(f"set-up {' '.join(command)}", checker.check_cli(command, *out))
    result.update(latency_stats(*loop(Subprocess(), blocks("cli", seed), seconds, tally, reference=reference)))
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return result


def measure_in_process(workload: str, seed: int, seconds: float, trace: int, setup_only: bool, tally: Tally) -> dict:
    ops, setup_s = set_up_in_process(workload, tally)
    result: dict = {"setup_s": [setup_s]}
    if setup_only:
        return result
    if trace == 0:
        result.update(latency_stats(*loop(ops, blocks(workload, seed), seconds, tally, reference=CpuReference())))
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return result
    untraced = loop(ops, blocks(workload, seed), seconds / 2, tally, reference=CpuReference())
    tracer = Tracer()
    tracer.install()
    try:
        traced = loop(ops, blocks(workload, seed), seconds / 2, tally, tracer, CpuReference())
    finally:
        tracer.uninstall()
    result["layers"] = layer_metrics(tracer, untraced, traced)
    result["layers"]["cli.parse_us"] = parse_us()
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.npz")
    tracer.save(spans)
    result["spans_file"] = os.path.relpath(spans, ROOT)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(KINDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tally = Tally()
    if args.workload == "cli" and args.trace == 0 and not args.setup_only:
        result = measure_subprocess_cli(args.seed, args.seconds, tally)
    else:
        result = measure_in_process(args.workload, args.seed, args.seconds, args.trace, args.setup_only, tally)
    result["attempted"] = tally.attempted
    result["failed"] = len(tally.failures)
    result["failures"] = tally.failures[:MAX_FAILURES_SHOWN]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
