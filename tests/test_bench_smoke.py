"""Smoke test of the benchmark's in-process entry points.

Runs ``bench/worker.py`` briefly for each workload and checks every answer
with ``bench/checker.py``: ``calls`` and ``batch`` call
``classification_report``, ``report_to_jsonable``, ``TruthTable.from_string``,
``run_even_odd`` and ``cli.main`` in-process; ``cli`` runs each of the five
commands as a real ``python -m qparity.cli`` subprocess, so an import-time
failure or an output difference that only the command line shows fails here.
No assertion depends on a timing.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["calls", "batch", "cli"])
def test_worker_runs_and_every_op_passes(workload):
    done = subprocess.run(
        [
            sys.executable,
            os.path.join("bench", "worker.py"),
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "0.3",
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]
