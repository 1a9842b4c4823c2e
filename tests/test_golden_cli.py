"""Golden CLI outputs: byte-identical stdout and the same exit code.

``golden_cli.json`` holds stdout and the exit code of 132 invocations: for
each of the 16 functions ``classify``, ``run``, ``run --trace`` and ``dj``,
each as text and ``--json``, plus ``table`` and ``verify`` in both forms.
Regenerate it only when an output change is intended:

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os

import pytest

from qparity.cli import TOLERANCE_ENV_VAR, main

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")


def invocations() -> list[list[str]]:
    per_function = (["classify"], ["run"], ["run", "--trace"], ["dj"])
    argvs = [
        [command[0], format(i, "04b"), *command[1:]]
        for i in range(16)
        for command in per_function
    ]
    argvs += [["table"], ["verify"]]
    return [argv + extra for argv in argvs for extra in ([], ["--json"])]


def capture(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden() -> list[dict]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_file_covers_every_invocation(golden):
    assert [entry["argv"] for entry in golden] == invocations()


@pytest.mark.parametrize(
    "index,argv", enumerate(invocations()), ids=[" ".join(a) for a in invocations()]
)
def test_output_matches_golden(index, argv, golden, monkeypatch):
    monkeypatch.delenv(TOLERANCE_ENV_VAR, raising=False)
    assert capture(argv) == golden[index]


if __name__ == "__main__":
    os.environ.pop(TOLERANCE_ENV_VAR, None)
    records = [capture(argv) for argv in invocations()]
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
