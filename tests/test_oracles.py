"""Truth tables, phase oracles and the separability criterion."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qparity.linalg
from qparity import (
    Parity,
    TruthTable,
    UnitaryOperator,
    build_oracle,
    classify,
    enumerate_functions,
    run_all_checks,
)
from qparity.oracles import oracle_signs, separable_signs
from qparity.reports import all_reports


def table(bits: str) -> TruthTable:
    return TruthTable.from_string(bits)


def separable(oracle: UnitaryOperator) -> bool:
    """The separability rule on the diagonal of one oracle: the stack of one."""
    return bool(separable_signs(np.diagonal(oracle.entries)[None])[0])


class TestTruthTable:
    def test_round_trip(self):
        assert table("0110").to_string() == "0110"
        assert table("0110").outputs == (0, 1, 1, 0)

    def test_evaluate_uses_input_point_order(self):
        f = table("0001")
        assert [f.evaluate(p) for p in range(4)] == [0, 0, 0, 1]

    def test_evaluate_rejects_bad_point(self):
        with pytest.raises(ValueError, match="0..3"):
            table("0001").evaluate(4)
        with pytest.raises(ValueError, match="0..3"):
            table("0001").evaluate(True)
        with pytest.raises(ValueError, match="0..3"):
            table("0001").evaluate(1.0)

    @pytest.mark.parametrize("bad", ["001", "00011", "002a", "", "01x1"])
    def test_malformed_strings_rejected(self, bad):
        with pytest.raises(ValueError, match="4 bits"):
            TruthTable.from_string(bad)

    def test_malformed_tuples_rejected(self):
        with pytest.raises(ValueError):
            TruthTable((0, 1))
        with pytest.raises(ValueError):
            TruthTable((0, 1, 2, 0))
        with pytest.raises(ValueError):
            TruthTable((True, False, False, True))
        with pytest.raises(ValueError):
            TruthTable([0, 1, 1, 0])
        with pytest.raises(ValueError):
            TruthTable(np.array([0, 1, 1, 0]))
        with pytest.raises(ValueError):
            TruthTable((1.0, 0, 0, 1))
        with pytest.raises(ValueError):
            TruthTable((0, 1, 1, 0.0))


class TestBuildOracle:
    def test_single_one_gives_single_sign_flip(self):
        oracle = build_oracle(table("0001"))
        np.testing.assert_allclose(oracle.entries, np.diag([1, 1, 1, -1]), atol=0)

    def test_constant_zero_gives_identity(self):
        oracle = build_oracle(table("0000"))
        np.testing.assert_allclose(oracle.entries, np.eye(4), atol=0)

    def test_balanced_function_flips_last_two(self):
        oracle = build_oracle(table("0011"))
        np.testing.assert_allclose(oracle.entries, np.diag([1, 1, -1, -1]), atol=0)

    def test_all_oracles_diagonal_and_self_inverse(self):
        for f in enumerate_functions():
            m = build_oracle(f).entries
            assert np.max(np.abs(m - np.diag(np.diagonal(m)))) == 0
            np.testing.assert_allclose(m @ m, np.eye(4), atol=1e-12)


class TestOracleTable:
    """The 16 oracles are built and validated once, at import, and shared."""

    def test_every_oracle_equals_a_fresh_build_and_is_read_only(self):
        for f in enumerate_functions():
            shared = build_oracle(f).entries
            fresh = UnitaryOperator(np.diag(oracle_signs((f,))[0])).entries
            assert shared.dtype == fresh.dtype and shared.tobytes() == fresh.tobytes()
            assert not shared.flags.writeable
            with pytest.raises(ValueError):
                shared[0, 0] = -shared[0, 0]

    def test_repeated_calls_return_the_same_object(self):
        for f in enumerate_functions():
            oracle = build_oracle(f)
            assert build_oracle(f) is oracle
            assert build_oracle(table(f.to_string())) is oracle

    def test_verify_constructs_only_the_reports_gates(self, monkeypatch):
        honest_init = qparity.linalg.UnitaryOperator.__init__
        inits = 0

        def counting_init(self, entries):
            nonlocal inits
            inits += 1
            honest_init(self, entries)

        # The sweep reads its gates from the pair built at import, and verify builds
        # no operator of its own: its oracles are the shared table.
        monkeypatch.setattr(qparity.linalg.UnitaryOperator, "__init__", counting_init)
        all_reports()
        report_inits, inits = inits, 0
        assert run_all_checks().passed
        assert (report_inits, inits) == (0, 0)


class TestClassify:
    @pytest.mark.parametrize(
        "bits,ones,zeros,parity",
        [
            ("0000", 0, 4, Parity.EVEN),
            ("1000", 1, 3, Parity.ODD),
            ("1100", 2, 2, Parity.EVEN),
            ("1110", 3, 1, Parity.ODD),
            ("1111", 4, 0, Parity.EVEN),
        ],
    )
    def test_class_and_parity(self, bits, ones, zeros, parity):
        c = classify(table(bits))
        assert (c.ones, c.zeros, c.parity) == (ones, zeros, parity)
        assert c.label == f"[{ones},{zeros}]"

    @given(st.permutations([0, 1, 1, 0]))
    def test_parity_invariant_under_output_permutation(self, outputs):
        assert classify(TruthTable(tuple(outputs))).parity is Parity.EVEN

    @given(st.permutations([1, 0, 0, 0]))
    def test_odd_parity_invariant_under_output_permutation(self, outputs):
        assert classify(TruthTable(tuple(outputs))).parity is Parity.ODD


class TestSeparability:
    def test_single_sign_flip_is_entangling(self):
        assert not separable(build_oracle(table("0001")))

    def test_balanced_block_flip_is_separable(self):
        assert separable(build_oracle(table("0011")))

    def test_identity_is_separable(self):
        assert separable(build_oracle(table("0000")))

    def test_separability_coincides_with_even_parity(self):
        # The criterion itself never looks at parity (it checks the 2x2
        # minor of the diagonal), so this correspondence is a theorem, not
        # a tautology.
        for f in enumerate_functions():
            assert separable(build_oracle(f)) == (classify(f).parity is Parity.EVEN), f.to_string()

    def test_exactly_half_the_oracles_are_entangling(self):
        entangling = [
            f for f in enumerate_functions() if not separable(build_oracle(f))
        ]
        assert len(entangling) == 8


class TestEnumerateFunctions:
    def test_sixteen_distinct_in_ascending_order(self):
        functions = enumerate_functions()
        strings = [f.to_string() for f in functions]
        assert len(functions) == 16
        assert strings == sorted(set(strings))

    def test_eight_even_eight_odd(self):
        parities = [classify(f).parity for f in enumerate_functions()]
        assert parities.count(Parity.EVEN) == 8
        assert parities.count(Parity.ODD) == 8

    def test_class_histogram(self):
        histogram = {}
        for f in enumerate_functions():
            histogram[f.ones()] = histogram.get(f.ones(), 0) + 1
        assert histogram == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
