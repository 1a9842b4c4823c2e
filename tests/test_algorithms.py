"""Even/odd circuit, the one-query constant-vs-balanced circuit, and the
classical decision-tree baseline.

The classical query counts are cross-checked against two independent
references: a direct existence recursion over bounded-depth strategies, and
(for the parity lower bound) a combinatorial argument enumerating every
possible three-point answer pattern.
"""

from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qparity.algorithms
from qparity import (
    DJVerdict,
    Parity,
    STEP_LABELS,
    classical_min_queries,
    classify,
    constant_balanced_promise_functions,
    enumerate_functions,
    run_deutsch_jozsa_2bit,
    run_even_odd,
    StateVector,
    TruthTable,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)
QUARTER_AMP = 1.0 / (2.0 * np.sqrt(2.0))


def table(bits: str) -> TruthTable:
    return TruthTable.from_string(bits)


def sign_pair(f: TruthTable) -> tuple[int, int]:
    o = f.outputs
    return 1 - 2 * (o[0] ^ o[1]), 1 - 2 * (o[2] ^ o[3])


# -- independent references for the classical query counts ---


def strategy_exists(functions, label, depth) -> bool:
    """Whether some adaptive strategy of at most `depth` queries labels every
    function correctly: plain existence recursion, no memoization."""
    if len({label(f) for f in functions}) <= 1:
        return True
    if depth == 0:
        return False
    return any(
        strategy_exists([f for f in functions if f.evaluate(q) == 0], label, depth - 1)
        and strategy_exists([f for f in functions if f.evaluate(q) == 1], label, depth - 1)
        for q in range(4)
    )


def min_queries_by_existence(functions, label, max_depth=4):
    for depth in range(max_depth + 1):
        if strategy_exists(list(functions), label, depth):
            return depth
    raise AssertionError(f"no strategy found up to depth {max_depth}")


class TestRunEvenOdd:
    def test_constant_zero_function(self):
        result = run_even_odd(table("0000"))
        assert result.verdict is Parity.EVEN
        assert result.oracle_calls == 2
        np.testing.assert_allclose(
            result.final_state.amplitudes, [INV_SQRT2, INV_SQRT2, 0, 0], atol=1e-12
        )

    def test_constant_zero_intermediate_states(self):
        # Hand-traced: uniform superposition after the first double Hadamard,
        # unchanged by the identity oracle, then (|00> + |10>)/sqrt(2) after
        # the single-qubit Hadamard recombines the second qubit.
        steps = run_even_odd(table("0000")).per_step_states
        np.testing.assert_allclose(steps[0].amplitudes, [1, 0, 0, 0], atol=0)
        np.testing.assert_allclose(steps[1].amplitudes, [0.5] * 4, atol=1e-12)
        np.testing.assert_allclose(steps[2].amplitudes, [0.5] * 4, atol=1e-12)
        np.testing.assert_allclose(
            steps[3].amplitudes, [INV_SQRT2, 0, INV_SQRT2, 0], atol=1e-12
        )

    def test_single_one_function_is_odd(self):
        result = run_even_odd(table("1000"))
        assert result.verdict is Parity.ODD
        np.testing.assert_allclose(
            result.final_state.amplitudes, [0, INV_SQRT2, -INV_SQRT2, 0], atol=1e-12
        )

    def test_result_structure(self):
        result = run_even_odd(table("0110"))
        assert len(result.per_step_states) == len(STEP_LABELS)
        assert result.final_state is result.per_step_states[-1]
        assert result.oracle_calls == 2

    def test_verdict_matches_parity_for_all_functions(self):
        for f in enumerate_functions():
            result = run_even_odd(f)
            assert result.verdict is classify(f).parity, f.to_string()
            assert result.oracle_calls == 2

    def test_final_amplitudes_follow_sign_law(self):
        # Closed form of the circuit output: amplitudes
        # ((a+b)/2sqrt2, 2/2sqrt2, (a-b)/2sqrt2, 0) where a and b are the
        # sign parities of the first and second output pairs.
        for f in enumerate_functions():
            a, b = sign_pair(f)
            expected = np.array(
                [(a + b) * QUARTER_AMP, 2 * QUARTER_AMP, (a - b) * QUARTER_AMP, 0.0]
            )
            np.testing.assert_allclose(
                run_even_odd(f).final_state.amplitudes,
                expected,
                atol=1e-12,
                err_msg=f.to_string(),
            )

    def test_final_state_patterns_up_to_global_phase(self):
        for f in enumerate_functions():
            a, _ = sign_pair(f)
            if classify(f).parity is Parity.EVEN:
                pattern = StateVector([a * INV_SQRT2, INV_SQRT2, 0, 0])
            else:
                pattern = StateVector([0, INV_SQRT2, a * INV_SQRT2, 0])
            # Equal up to a global phase: |<final|pattern>| = 1 within 1e-12.
            inner = np.vdot(run_even_odd(f).final_state.amplitudes, pattern.amplitudes)
            assert abs(abs(inner) - 1.0) <= 1e-12, f.to_string()

    def test_every_step_stays_normalized(self):
        for f in enumerate_functions():
            for step in run_even_odd(f).per_step_states:
                assert abs(np.sum(np.abs(step.amplitudes) ** 2) - 1.0) < 1e-12


class TestDeutschJozsa:
    @pytest.mark.parametrize("bits", ["0000", "1111"])
    def test_constant_functions(self, bits):
        assert run_deutsch_jozsa_2bit(table(bits)) is DJVerdict.CONSTANT

    @pytest.mark.parametrize("bits", ["1100", "0110", "1010", "0101", "1001", "0011"])
    def test_balanced_functions(self, bits):
        assert run_deutsch_jozsa_2bit(table(bits)) is DJVerdict.BALANCED

    @pytest.mark.parametrize("bits", ["1000", "0111", "0010", "1101"])
    def test_functions_outside_the_promise(self, bits):
        assert run_deutsch_jozsa_2bit(table(bits)) is DJVerdict.NEITHER

    def test_verdict_by_class_for_all_functions(self):
        for f in enumerate_functions():
            expected = {
                0: DJVerdict.CONSTANT,
                2: DJVerdict.BALANCED,
                4: DJVerdict.CONSTANT,
            }.get(f.ones(), DJVerdict.NEITHER)
            assert run_deutsch_jozsa_2bit(f) is expected, f.to_string()


class TestClassicalMinQueries:
    def test_parity_needs_all_four_points(self):
        parity = lambda f: classify(f).parity
        assert classical_min_queries(parity) == 4

    def test_parity_lower_bound_by_answer_pattern_enumeration(self):
        # After any three distinct queries, the two functions still
        # consistent with the answers differ only at the unqueried point,
        # so they have opposite parities; no strategy of depth three can
        # ever finish. This enumerates all point sets and answer patterns.
        for points in combinations(range(4), 3):
            for answers in product((0, 1), repeat=3):
                consistent = [
                    f
                    for f in enumerate_functions()
                    if all(f.evaluate(p) == a for p, a in zip(points, answers))
                ]
                assert {classify(f).parity for f in consistent} == {
                    Parity.EVEN,
                    Parity.ODD,
                }

    def test_parity_agrees_with_existence_search(self):
        parity = lambda f: classify(f).parity
        assert min_queries_by_existence(enumerate_functions(), parity) == 4

    def test_constant_vs_balanced_promise_needs_three(self):
        promise = constant_balanced_promise_functions()
        assert len(promise) == 8
        is_constant = lambda f: f.ones() in (0, 4)
        expected = min_queries_by_existence(promise, is_constant)
        assert expected == 3
        assert classical_min_queries(is_constant, promise) == 3

    def test_constant_property_needs_no_queries(self):
        assert classical_min_queries(lambda f: "same") == 0

    def test_single_point_property_needs_one_query(self):
        assert classical_min_queries(lambda f: f.evaluate(0)) == 1

    @given(
        st.lists(st.sampled_from(enumerate_functions()), max_size=16, unique=True),
        st.lists(st.integers(0, 2), min_size=16, max_size=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_existence_search_on_random_pools(self, pool, labels):
        label = lambda f: labels[int(f.to_string(), 2)]
        assert classical_min_queries(label, pool) == min_queries_by_existence(pool, label)

    @given(
        st.lists(st.lists(st.sampled_from(enumerate_functions()), max_size=16),
                 min_size=2, max_size=3),
        st.lists(st.integers(0, 2), min_size=16, max_size=16),
    )
    @example(  # one label partition, pools one and two queries deep: the pool is in the key
        [[TruthTable.from_string(b) for b in pool] for pool in (
            ["0000", "1111", "1110"], ["0000", "1000", "0100"])],
        [int(k in (4, 8, 14, 15)) for k in range(16)],
    )
    @settings(max_examples=100, deadline=None)
    def test_memoized_search_equals_the_uncached_one(self, pools, labels):
        # ``renamed`` gives every class other values but keeps the partition, so it reads
        # ``label``'s memo entry; each pool is searched again after the others.
        label = lambda f: labels[int(f.to_string(), 2)]
        renamed = lambda f: ("class", 2 - label(f))
        search = qparity.algorithms._min_depth
        with mock.patch.object(qparity.algorithms, "_min_depth", search.__wrapped__):
            uncached = [classical_min_queries(label, pool) for pool in pools]
        for _ in range(2):
            for pool, expected in zip(pools, uncached):
                assert classical_min_queries(label, pool) == expected
                hits = search.cache_info().hits
                assert classical_min_queries(renamed, pool) == expected
                assert search.cache_info().hits == hits + 1

    def test_quantum_classical_separation(self):
        quantum_calls = {run_even_odd(f).oracle_calls for f in enumerate_functions()}
        assert quantum_calls == {2}
        assert classical_min_queries(lambda f: classify(f).parity) == 4
