"""The command as a process: ``python -m qparity.cli`` in a fresh interpreter.

The benchmark's ``cli`` workload times exactly this path, so its outputs are
pinned here byte for byte against ``golden_cli.json``. The process entry freezes
the collector after ``main`` returns and ``verify`` imports ``verification`` when
it runs; these tests pin that the other commands and ``import qparity`` leave the
module unloaded, and that ``main`` called in-process leaves the collector alone.
"""

import gc
import json
import os
import subprocess
import sys

import pytest

import qparity.cli
from qparity.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(qparity.cli.__file__)))
GOLDEN_PATH = os.path.join(ROOT, "tests", "golden_cli.json")
BENCH_COMMANDS = [
    ["classify", "0001"],
    ["run", "0001", "--trace", "--json"],
    ["dj", "1100"],
    ["table", "--json"],
    ["verify", "--json"],
]
# Runs the module as ``python -m`` does, then reports what the process held at exit.
ENTRY_PROBE = """
import gc, runpy, sys
sys.argv[0] = "qparity"
try:
    runpy.run_module("qparity.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, "qparity.verification" in sys.modules, gc.get_freeze_count() > 0,
          file=sys.stderr)
"""
CONCURRENT_VERIFY = """
import collections, json, sys, threading
from qparity.cli import main

class PerThread:
    def __init__(self):
        self.writes = collections.defaultdict(list)
    def write(self, text):
        self.writes[threading.current_thread()].append(text)
        return len(text)

loaded_before = "qparity.verification" in sys.modules
sys.stdout = out = PerThread()
start, codes = threading.Barrier(4), {}

def work():
    start.wait()
    codes[threading.current_thread()] = main(["verify", "--json"])

threads = [threading.Thread(target=work) for _ in range(4)]
sys.setswitchinterval(1e-6)
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=100)
sys.stdout = sys.__stdout__
print(json.dumps([loaded_before, [t.is_alive() for t in threads],
                  [[codes.get(t), "".join(out.writes[t])] for t in threads]]))
"""


def python(*args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )


def golden(argv):
    with open(GOLDEN_PATH) as fh:
        return next(entry for entry in json.load(fh) if entry["argv"] == argv)


@pytest.mark.parametrize("argv", BENCH_COMMANDS, ids=" ".join)
def test_bench_command_as_a_process_matches_golden(argv):
    done = python("-m", "qparity.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (0, golden(argv)["stdout"], "")


def test_usage_error_as_a_process_exits_2():
    done = python("-m", "qparity.cli", "classify", "01x1")
    assert (done.returncode, done.stdout) == (2, "")
    assert "truth table must be 4 bits" in done.stderr


def test_import_qparity_leaves_verification_unloaded():
    done = python("-c", "import sys, qparity; print('qparity.verification' in sys.modules)")
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("argv, loaded", [
    (["classify", "0001"], False),
    (["dj", "1100"], False),
    (["verify", "--json"], True),
], ids=lambda x: " ".join(x) if isinstance(x, list) else str(x))
def test_only_verify_loads_verification_and_the_entry_freezes(argv, loaded):
    done = python("-c", ENTRY_PROBE, *argv)
    assert done.stdout == golden(argv)["stdout"]
    assert done.stderr == f"0 {loaded} True\n"


def test_lazy_names_resolve_to_the_verification_module():
    done = python("-c", "import qparity; f = qparity.run_all_checks; import qparity.verification as v; "
                        "print(f is v.run_all_checks, qparity.CheckResult is v.CheckResult)")
    assert (done.returncode, done.stdout, done.stderr) == (0, "True True\n", "")


def test_star_import_binds_all_of_all_in_a_fresh_interpreter():
    done = python("-c", "import qparity; ns = {}; exec('from qparity import *', ns); "
                        "print(sorted(set(qparity.__all__) - set(ns)))")
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_concurrent_first_verify_calls_agree():
    # Four threads of a fresh interpreter race to import verification at their first verify.
    done = python("-c", CONCURRENT_VERIFY)
    assert (done.returncode, done.stderr) == (0, "")
    loaded_before, alive, results = json.loads(done.stdout)
    assert (loaded_before, alive) == (False, [False] * 4)
    assert results == [[0, golden(["verify", "--json"])["stdout"]]] * 4


def test_main_in_process_leaves_the_collector_alone(capsys):
    enabled = gc.isenabled()
    assert main(["verify", "--json"]) == 0
    assert '"passed": true' in capsys.readouterr().out
    assert (gc.get_freeze_count(), gc.isenabled()) == (0, enabled)


def test_one_exit_function_serves_both_process_entries():
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        assert '\n[project.scripts]\nqparity = "qparity.cli:_exit"\n' in fh.read()
    with open(qparity.cli.__file__) as fh:
        assert fh.read().endswith('\nif __name__ == "__main__":\n    _exit()\n')
