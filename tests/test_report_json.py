"""Reports written from their columns: ``to_canonical_json`` takes a report sweep
or a report as it is, the package's one report writer. This file keeps the dict
form each report's JSON object was first written from, ``reports_to_jsonable``, as
its reference: the writer must give that form's bytes in every case the column
layout fits, and raise ``TypeError`` naming the field where it does not, or where
the dict form raises."""

import dataclasses
import functools
import math

import numpy as np
import pytest

import qparity.cli
from qparity import classification_report, enumerate_functions, to_canonical_json
from qparity.algorithms import _column
from qparity.entanglement import EntanglementReport
from qparity.nmr import ObservabilityReport
from qparity.reports import (
    ClassificationReport, all_reports, classification_report_sweep, report_to_jsonable,
    states_to_jsonable,
)


def records_to_jsonable(reports, name, cls):
    """The ``name`` records (of type ``cls``) of the reports as JSON objects: a column
    of bools as it is, numbers and tuples of them as floats, IEEE negative zero made
    positive by the + 0.0 so serialized zeros are stable."""
    fields = [f.name for f in dataclasses.fields(cls)]
    columns = [_column(reports, f"{name}.{field}") for field in fields]
    columns = [c if all(type(v) is bool for v in c) else
               [[x + 0.0 for x in v] if type(v) is tuple else v + 0.0 for v in c] for c in columns]
    return [dict(zip(fields, row)) for row in zip(*columns)]


def reports_to_jsonable(reports):
    """The reference: one JSON object per report, of a sweep or of any sequence of
    reports, written from one column per field."""
    column = functools.partial(_column, reports)
    columns = zip(
        column("function"), column("function_class"), column("oracle_separable"),
        column("dj_verdict"), column("circuit.verdict"), column("circuit.oracle_calls"),
        states_to_jsonable(column("circuit.final_state")),
        records_to_jsonable(reports, "entanglement", EntanglementReport),
        records_to_jsonable(reports, "observability", ObservabilityReport),
    )
    return [
        {"function": f.to_string(), "class": c.label, "ones": c.ones, "zeros": c.zeros,
         "parity": c.parity.value, "oracle_separable": separable, "dj_verdict": dj.value,
         "circuit_verdict": verdict.value, "oracle_calls": calls, "final_state": state,
         "entanglement": entanglement, "observability": observability}
        for f, c, separable, dj, verdict, calls, state, entanglement, observability in columns
    ]


SPECIALS = (math.nan, math.inf, -math.inf, -0.0, 5e-324)  # the last one is subnormal
RECORD_FIELDS = [f"{name}.{f.name}" for name, cls in (
    ("entanglement", EntanglementReport), ("observability", ObservabilityReport))
    for f in dataclasses.fields(cls)]
BOOL_FIELDS = ["entanglement.is_entangled", "observability.observable_line"]
FLOAT_FIELDS = [path for path in RECORD_FIELDS if path not in BOOL_FIELDS]


def replaced(sweep, path, values):
    """A copy of a sweep whose column at the dotted ``path`` is ``values``."""
    head, _, rest = path.partition(".")
    columns = dict(sweep.columns)
    columns[head] = replaced(columns[head], rest, values) if rest else values
    return type(sweep)(sweep.row_type, columns)


def column(sweep, path):
    head, _, rest = path.partition(".")
    return column(sweep.columns[head], rest) if rest else sweep.columns[head]


def with_row(sweep, path, row, value):
    values = list(column(sweep, path))
    values[row] = value
    return replaced(sweep, path, values)


def both(x, nest):
    """The new route's text and the dict form's, at the top (``classify``) or one level
    down, in a list of a dict (``table``)."""
    single = isinstance(x, ClassificationReport)
    reference = reports_to_jsonable([x])[0] if single else reports_to_jsonable(x)
    if nest:
        x, reference = {"functions": [x]}, {"functions": [reference]}
    return to_canonical_json(x), to_canonical_json(reference)


def special_sweep():
    """All 16 reports with NaN, +-inf, -0.0 and a subnormal in every float column."""
    sweep = all_reports()
    for path in FLOAT_FIELDS:
        values = list(column(sweep, path))
        for k in range(len(SPECIALS)):
            a, b = SPECIALS[k], SPECIALS[(k + 1) % len(SPECIALS)]
            values[3 * k] = (a, b) if type(values[3 * k]) is tuple else a
        sweep = replaced(sweep, path, values)
    amps = np.array(column(sweep, "circuit.final_state"))
    for k in range(len(SPECIALS)):
        amps[k, 3 - k % 4] = complex(SPECIALS[k], SPECIALS[(k + 2) % len(SPECIALS)])
        amps[15 - k, k % 4] = complex(-0.0, SPECIALS[k])
    amps[0, 0] = complex(-0.0, -0.0)  # the first float written: no 0.0 comes before this -0.0
    return replaced(sweep, "circuit.final_state", amps)


@pytest.mark.parametrize("nest", [False, True], ids=["classify-indent", "table-indent"])
class TestSameBytesAsTheDictForm:
    def test_all_reports(self, nest):
        new, reference = both(all_reports(), nest)
        assert new == reference
        assert '"entanglement": {' in new and '"is_entangled": true' in new

    @pytest.mark.parametrize("k", range(16))
    def test_each_single_report(self, nest, k):
        new, reference = both(all_reports()[k], nest)
        assert new == reference

    def test_plain_list_of_reports(self, nest):
        reports = list(all_reports())
        new, reference = both(reports, nest)
        assert new == reference
        assert type(reports) is list and len(reports) == 16

    def test_non_finite_signed_zero_and_subnormal_in_every_float_column(self, nest):
        sweep = special_sweep()
        new, reference = both(sweep, nest)
        assert new == reference
        for text in ("NaN", "Infinity", "-Infinity", "5e-324"):
            assert text in new
        assert "-0.0" not in new  # -0.0 is written 0.0, as the dict form writes it
        for k in (0, 7, 15):
            new, reference = both(sweep[k], nest)
            assert new == reference

    def test_mixed_numbers_and_bools_are_floats_and_bools_stay_bools(self, nest):
        sweep = all_reports()
        sweep = with_row(sweep, "entanglement.concurrence", 0, True)  # a bool among floats
        sweep = with_row(sweep, "observability.zero_quantum_weight", 1, 2)  # an int
        sweep = with_row(sweep, "entanglement.is_entangled", 2, 0.5)  # a float among bools
        sweep = with_row(sweep, "entanglement.schmidt_coefficients", 3, (1, False))
        new, reference = both(sweep, nest)
        assert new == reference
        assert '"concurrence": 1.0' in new and '"is_entangled": 0.5' in new
        assert '"observable_line": true' in new

    def test_columns_the_layout_does_not_fit(self, nest):
        # A tuple of another length, a scalar among tuples, a scalar of another kind among
        # the top-level fields: no layout fits the sweep, so the writer names the field and
        # the kinds it holds. The row alone is a column of one kind, written as the dict form.
        sweep = all_reports()
        for path, row, value, message in [
            ("entanglement.schmidt_coefficients", 4, (0.5, 0.25, 0.125),
             "entanglement.schmidt_coefficients holds ['tuple']"),
            ("entanglement.schmidt_coefficients", 5, 0.5,
             "entanglement.schmidt_coefficients holds ['float', 'tuple']"),
            ("circuit.oracle_calls", 6, None, "oracle_calls holds ['NoneType', 'int']"),
            ("oracle_separable", 7, 1, "oracle_separable holds ['bool', 'int']"),
        ]:
            changed = with_row(sweep, path, row, value)
            with pytest.raises(TypeError) as raised:
                to_canonical_json({"functions": changed} if nest else changed)
            assert str(raised.value) == f"report field {message}"
            new, reference = both(changed[row], nest)
            assert new == reference
        triples = replaced(sweep, "entanglement.schmidt_coefficients", [(0.5,) * 3] * 16)
        new, reference = both(triples, nest)
        assert new == reference and '"schmidt_coefficients": [\n' in new


@pytest.mark.parametrize("value", [None, "0.5"], ids=["None", "str"])
@pytest.mark.parametrize("path", RECORD_FIELDS)
def test_none_or_str_in_a_number_column_raises_as_the_dict_form_does(path, value):
    # np.asarray([None, 1.0], dtype=float) is [nan, 1.0] and float("0.5") is 0.5: a writer
    # that converted the columns so would print a confident NaN or number.
    sweep = all_reports()
    bad = [with_row(sweep, path, 9, value)]
    if path == "entanglement.schmidt_coefficients":
        bad.append(with_row(sweep, path, 9, (0.5, value)))
    for changed in bad:
        with pytest.raises(TypeError):
            reports_to_jsonable(changed)
        with pytest.raises(TypeError):
            to_canonical_json({"functions": changed})
        with pytest.raises(TypeError):
            to_canonical_json(changed[9])


@pytest.mark.parametrize("path", ["entanglement.concurrence", "observability.observable_line",
                                  "entanglement.schmidt_coefficients", "circuit.oracle_calls"])
def test_table_json_with_a_none_exits_3_and_prints_nothing(capsys, monkeypatch, path):
    broken = with_row(all_reports(), path, 5, None)
    monkeypatch.setattr(qparity.cli, "all_reports", lambda: broken)
    code = qparity.cli.main(["table", "--json"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert f"TypeError: report field {path.removeprefix('circuit.')} holds ['NoneType', " in err


@pytest.mark.parametrize("f", enumerate_functions(), ids=lambda f: f.to_string())
def test_classify_json_writes_what_the_benchmark_classify_op_writes(capsys, f):
    # The benchmark's in-process classify op writes to_canonical_json(report_to_jsonable(...)).
    bits = f.to_string()
    assert report_to_jsonable(report := classification_report(f)) is report
    assert qparity.cli.main(["classify", bits, "--json"]) == 0
    assert capsys.readouterr().out == to_canonical_json(report_to_jsonable(report)) + "\n"


def test_an_empty_sweep_is_an_empty_list():
    empty = classification_report_sweep(())
    assert to_canonical_json(empty) == "[]"
    assert to_canonical_json({"functions": empty}) == '{\n  "functions": []\n}'


def test_other_sweeps_and_objects_are_not_json():
    circuits = all_reports().columns["circuit"]
    for x in (circuits, [circuits], {"a": circuits[0]}, enumerate_functions()[0]):
        with pytest.raises(TypeError, match="not JSON serializable"):
            to_canonical_json(x)
