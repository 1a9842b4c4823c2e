"""Golden CLI outputs: byte-identical stdout and the same exit code.

``golden_cli.json`` holds stdout and the exit code of 132 invocations: for
each of the 16 functions ``classify``, ``run``, ``run --trace`` and ``dj``,
each as text and ``--json``, plus ``table`` and ``verify`` in both forms.
Regenerate it only when an output change is intended:

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import math
import os

import pytest

from qparity import to_canonical_json
from qparity.cli import main

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
def test_output_matches_golden(index, argv, golden):
    assert capture(argv) == golden[index]


# The golden file before the Schmidt coefficients were computed without
# cancellation, and the values it held for every odd function.
PRE_SCHMIDT_CORRECTION_SHA256 = "59b487f447ca66a27e14c40dc900d15af64b54594e93310f0577490b7493028c"
PRE_SCHMIDT_CORRECTION_ODD_PAIR = [0.7071067951253074, 0.7071067672477874]


def undo_schmidt_correction(entry: dict, corrected: list[float]) -> dict:
    """The entry as it was before the correction. Appends each corrected
    Schmidt value to ``corrected`` after checking it is closer to 1/sqrt(2)."""
    argv, stdout = entry["argv"], entry["stdout"]
    if argv == ["verify"]:
        stdout = stdout.replace("ok   schmidt_coefficients\n", "")
    elif argv == ["verify", "--json"]:
        data = json.loads(stdout)
        data["checks"] = [c for c in data["checks"] if c["name"] != "schmidt_coefficients"]
        stdout = to_canonical_json(data) + "\n"
    elif argv[0] in ("classify", "table") and "--json" in argv:
        data = json.loads(stdout)
        for record in data["functions"] if argv[0] == "table" else [data]:
            if record["parity"] == "odd":
                pair = record["entanglement"]["schmidt_coefficients"]
                for new, old in zip(pair, PRE_SCHMIDT_CORRECTION_ODD_PAIR):
                    assert abs(new - math.sqrt(0.5)) < abs(old - math.sqrt(0.5))
                    corrected.append(new)
                record["entanglement"]["schmidt_coefficients"] = PRE_SCHMIDT_CORRECTION_ODD_PAIR
        stdout = to_canonical_json(data) + "\n"
    return {**entry, "stdout": stdout}


def test_schmidt_correction_changed_only_the_schmidt_values(golden):
    # Undoing the correction must give back the earlier file byte for byte:
    # only the 32 odd-function Schmidt values and the new check's entry in
    # the two verify invocations changed; text output did not.
    corrected: list[float] = []
    restored = [undo_schmidt_correction(entry, corrected) for entry in golden]
    restored_bytes = (json.dumps(restored, indent=1) + "\n").encode()
    assert hashlib.sha256(restored_bytes).hexdigest() == PRE_SCHMIDT_CORRECTION_SHA256
    assert len(corrected) == 32


if __name__ == "__main__":
    records = [capture(argv) for argv in invocations()]
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
