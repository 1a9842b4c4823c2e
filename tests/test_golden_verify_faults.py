"""Golden failure output of ``qparity verify``: for every injected report fault
of ``test_verification.py`` (``FAULTS``, ``FIELD_FAULTS``) and every mutant of
``test_mutants.py``, stdout and the exit code of ``verify`` and ``verify
--json`` stay byte-identical. The tests there assert what each fault must fail;
this file pins every line ``verify`` prints about it. Regenerate it only when an
output change is intended:

    PYTHONPATH=src python3 tests/test_golden_verify_faults.py
"""

import contextlib
import io
import json
import os

import pytest

import qparity.verification
from qparity.cli import main
from test_mutants import MUTANTS
from test_verification import FAULTS, FIELD_FAULTS, set_field

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden_verify_faults.json"
)


def report_fault(bits, fault):
    """A mutant that passes the report of ``bits`` through ``fault``."""

    def inject(monkeypatch):
        honest = qparity.verification.classification_report_sweep
        monkeypatch.setattr(
            qparity.verification,
            "classification_report_sweep",
            lambda functions: [
                fault(r) if r.function.to_string() == bits else r for r in honest(functions)
            ],
        )

    return inject


def cases() -> dict:
    """Every fault by name: a function that plants it through a monkeypatch."""
    named = {f"{bits}: {fault.__name__}": report_fault(bits, fault)
             for bits, (fault, _) in sorted(FAULTS.items())}
    for bits, record, field, value in FIELD_FAULTS:
        name = f"{bits}: {record}.{field} = {value!r}"
        named[name] = report_fault(bits, set_field(record, field, value))
    named.update((mutant.__name__, mutant) for mutant in MUTANTS)
    return named


def capture(inject) -> list[dict]:
    records = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        inject(monkeypatch)
        for argv in (["verify"], ["verify", "--json"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            records.append({"argv": argv, "exit_code": code, "stdout": out.getvalue()})
    return records


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_file_covers_every_fault(golden):
    assert list(golden) == list(cases())


@pytest.mark.parametrize("name", list(cases()))
def test_verify_output_matches_golden(name, golden):
    records = capture(cases()[name])
    assert [r["exit_code"] for r in records] == [1, 1]
    assert records == golden[name]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({name: capture(inject) for name, inject in cases().items()}, fh, indent=1)
        fh.write("\n")
