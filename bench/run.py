"""qparity benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root:

    python3 bench/run.py --workload cli --seed 1 --seconds 20 --trace 0
    python3 bench/run.py            # every workload, untraced and traced

Each measured run starts ``bench/worker.py`` in a fresh interpreter. With
``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer ones. Every op's output is checked by
``bench/checker.py``; a failed check makes ``correct`` false. The floors
(bare interpreter, ``import numpy``, ``import qparity``) and an environment
record are printed before the result; the last line of stdout is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from time import perf_counter

from reference import ProcessReference

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("cli", "calls", "batch")
SETUP_REPEATS = 5  # set-up samples per run; setup_s is their median
FLOOR_REPEATS = 3
WORKER_TIMEOUT_S = 150


def median(values: list[float]) -> float:
    xs = sorted(values)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def python(code: str) -> str:
    env = {k: v for k, v in os.environ.items() if k != "QPARITY_TOLERANCE"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    if done.returncode != 0:
        raise RuntimeError(f"python -c {code!r} failed: {done.stderr.strip()}")
    return done.stdout


def floors() -> dict[str, float]:
    """Costs qparity does not own, and its own import after numpy's."""
    timed_import = "import time{pre}; t = time.perf_counter(); import {mod}; print(time.perf_counter() - t)"
    interpreter, numpy_import, qparity_import = [], [], []
    for _ in range(FLOOR_REPEATS):
        t0 = perf_counter()
        python("pass")
        interpreter.append(perf_counter() - t0)
        numpy_import.append(float(python(timed_import.format(pre="", mod="numpy"))))
        qparity_import.append(float(python(timed_import.format(pre=", numpy", mod="qparity"))))
    return {
        "floor.interpreter_ms": median(interpreter) * 1e3,
        "floor.numpy_import_ms": median(numpy_import) * 1e3,
        "import.qparity_ms": median(qparity_import) * 1e3,
    }


def environment(seed: int) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = done.stdout.strip() or commit
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool = False) -> dict:
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker {workload} failed:\n{done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, units: dict[str, str]) -> tuple[dict, dict[str, dict]]:
    """One run of one workload; returns (raw tallies, metrics with ``units``)."""
    floor = floors()
    if trace:
        raw = worker(workload, seed, seconds, 1)
        values = {**floor, **raw["layers"]}
        return raw, {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    if workload == "cli":
        # The cli worker times its own set-up invocations against its reference.
        raw = worker(workload, seed, seconds, 0)
        setup, setup_scaled = raw["setup_s"], raw["setup_scaled_s"]
    else:
        # Fresh set-up-only workers, then the measured one, each followed by
        # a process reference sample that scales its set-up time.
        reference = ProcessReference(ROOT)
        runs, setup_scaled = [], []
        for i in range(SETUP_REPEATS):
            runs.append(worker(workload, seed, seconds, 0, setup_only=i < SETUP_REPEATS - 1))
            setup_scaled.append(runs[-1]["setup_s"][0] * reference.factor())
        raw = runs[-1]
        setup = [r["setup_s"][0] for r in runs]
        # Set-up-only workers check their warm-up outputs too.
        for key in ("attempted", "failed", "failures"):
            raw[key] = sum((r[key] for r in runs), [] if key == "failures" else 0)
    values = {
        "setup_s": median(setup_scaled),
        "ops_per_s": raw["ops"] / raw["op_time_s"],
        "latency_p50_ms": raw["p50_ms"],
        "latency_p90_ms": raw["p90_ms"],
        "peak_rss_mib": raw["peak_rss_mib"],
    }
    raw["floors"] = floor
    raw["unscaled"] = {
        "setup_s": median(setup),
        "ops_per_s": raw["ops"] / raw["raw_op_time_s"],
        "latency_p50_ms": raw["raw_p50_ms"],
        "latency_p90_ms": raw["raw_p90_ms"],
    }
    return raw, {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this trace mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: 0, or both with --workload all)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "qparity", "__init__.py")):
        print(f"error: no qparity sources under {SRC}; run from a qparity checkout", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (args.trace,) if args.trace is not None else ((0, 1) if args.workload == "all" else (0,))
    env = environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))

    combined: dict[str, dict] = {}
    attempted = failed = 0
    for workload in workloads:
        for trace in traces:
            try:
                raw, metrics = measure(workload, args.seed, args.seconds, trace, metric_units(trace))
            except (RuntimeError, subprocess.SubprocessError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            attempted += raw["attempted"]
            failed += raw["failed"]
            if "floors" in raw:
                print(f"floors {workload} " + json.dumps(raw["floors"], sort_keys=True))
                print(f"unscaled {workload} " + json.dumps(raw["unscaled"], sort_keys=True))
            if "spans_file" in raw:
                print(f"spans {workload} {raw['spans_file']}")
            for failure in raw["failures"]:
                print(f"FAILED {workload}: {failure}")
            for name, m in metrics.items():
                print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
            prefix = "" if len(workloads) == 1 else f"{workload}."
            combined.update({prefix + name: m for name, m in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
