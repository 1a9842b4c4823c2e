"""Reports written from their columns: ``to_canonical_json`` takes a report sweep
or a report as it is, and must give the bytes of its dict form,
``reports_to_jsonable``/``report_to_jsonable``, in every case that form can be
written, and raise where that form raises."""

import dataclasses
import math

import numpy as np
import pytest

import qparity.cli
from qparity import enumerate_functions, to_canonical_json
from qparity.entanglement import EntanglementReport
from qparity.nmr import ObservabilityReport
from qparity.reports import (
    ClassificationReport, all_reports, report_to_jsonable, reports_to_jsonable,
)

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
    reference = report_to_jsonable(x) if single else reports_to_jsonable(x)
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
        # A tuple of another length, a scalar among tuples, a scalar of another kind
        # among the top-level fields: written as the dict form writes them.
        sweep = all_reports()
        for path, row, value in [("entanglement.schmidt_coefficients", 4, (0.5, 0.25, 0.125)),
                                 ("entanglement.schmidt_coefficients", 5, 0.5),
                                 ("circuit.oracle_calls", 6, None),
                                 ("oracle_separable", 7, 1)]:
            changed = with_row(sweep, path, row, value)
            new, reference = both(changed, nest)
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
                                  "entanglement.schmidt_coefficients"])
def test_table_json_with_a_none_exits_3_and_prints_nothing(capsys, monkeypatch, path):
    broken = with_row(all_reports(), path, 5, None)
    monkeypatch.setattr(qparity.cli, "all_reports", lambda: broken)
    code = qparity.cli.main(["table", "--json"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert "TypeError" in err


def test_other_sweeps_and_objects_are_not_json():
    circuits = all_reports().columns["circuit"]
    for x in (circuits, [circuits], {"a": circuits[0]}, enumerate_functions()[0]):
        with pytest.raises(TypeError, match="not JSON serializable"):
            to_canonical_json(x)
