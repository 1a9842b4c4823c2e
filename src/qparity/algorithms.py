"""Quantum circuits for classifying two-bit Boolean functions, plus the
classical query-count baseline they are measured against.

The main circuit decides whether a function is even or odd with two oracle
queries. A deterministic classical strategy needs all four input points, a
fact :func:`classical_min_queries` establishes by exhaustive search over
adaptive decision trees.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from enum import Enum

from . import gates
from .linalg import StateVector, UnitaryOperator, apply, basis_state
from .oracles import Parity, TruthTable, build_oracle, enumerate_functions

STEP_LABELS = ("initial", "H12", "Uf", "H2", "Uf", "H12")

# The decisive components carry amplitude 1/sqrt(2) (about 0.707) or 0, so a
# 0.5 cutoff separates them with a wide margin.
VERDICT_AMPLITUDE_THRESHOLD = 0.5

# The one-query test leaves |<00|final>| at 1 (constant), 1/2 (one or three
# ones) or 0 (balanced); cuts halfway between those values decide with
# margins far above rounding, whatever the comparison tolerance.
DJ_CONSTANT_CUT = 0.75
DJ_BALANCED_CUT = 0.25


class DJVerdict(Enum):
    CONSTANT = "constant"
    BALANCED = "balanced"
    NEITHER = "neither"


@dataclass(frozen=True)
class AlgorithmResult:
    """Outcome of one even/odd circuit run.

    ``per_step_states`` holds the initial state followed by the state after
    each of the five gates, in order; its last entry is ``final_state``.
    """

    final_state: StateVector
    verdict: Parity
    oracle_calls: int
    per_step_states: tuple[StateVector, ...]


def run_even_odd_sweep(functions: Iterable[TruthTable]) -> list[AlgorithmResult]:
    """Classify each function as even or odd with two oracle queries.

    Starting from |00>, the circuit applies a Hadamard to both qubits, the
    phase oracle, a Hadamard to the second qubit alone, the oracle again,
    and a final Hadamard to both qubits. The result is
    (s|00> + |01>)/sqrt(2) for even functions and (s|10> + |01>)/sqrt(2)
    for odd ones, where the sign s is (-1)^(f(00) xor f(01)). The verdict
    is read off from which of the |00> or |10> components carries the
    nonzero amplitude.

    The Hadamard gates are built once and shared by every run; the results
    follow the order of ``functions``.
    """
    h12, h2 = gates.hadamard_both(), gates.hadamard_second()
    return [_run_even_odd_with(f, h12, h2) for f in functions]


def _run_even_odd_with(
    f: TruthTable, h12: UnitaryOperator, h2: UnitaryOperator
) -> AlgorithmResult:
    oracle = build_oracle(f)
    sequence = ((h12, False), (oracle, True), (h2, False), (oracle, True), (h12, False))
    state = basis_state("00")
    steps = [state]
    calls = 0
    for operator, is_oracle_call in sequence:
        state = apply(operator, state)
        steps.append(state)
        calls += int(is_oracle_call)
    amplitudes = state.amplitudes
    if abs(amplitudes[0]) > VERDICT_AMPLITUDE_THRESHOLD:
        verdict = Parity.EVEN
    elif abs(amplitudes[2]) > VERDICT_AMPLITUDE_THRESHOLD:
        verdict = Parity.ODD
    else:
        raise RuntimeError(
            "final state matches neither parity pattern; "
            f"amplitudes {amplitudes.tolist()}"
        )
    return AlgorithmResult(
        final_state=state,
        verdict=verdict,
        oracle_calls=calls,
        per_step_states=tuple(steps),
    )


def run_even_odd(f: TruthTable) -> AlgorithmResult:
    """The even/odd circuit of :func:`run_even_odd_sweep` on one function."""
    (result,) = run_even_odd_sweep((f,))
    return result


def run_deutsch_jozsa_sweep(functions: Iterable[TruthTable]) -> list[DJVerdict]:
    """Constant-vs-balanced test with a single oracle query per function.

    Applies Hadamards on both qubits, the phase oracle once, and Hadamards
    again, starting from |00>. The |00> amplitude is the mean of (-1)^f(x),
    so the function is reported constant when its magnitude is 1, balanced
    when it vanishes, and neither when it is 1/2 (functions with one or
    three ones sit outside the promise).

    The Hadamard gate is built once and shared by every run; the verdicts
    follow the order of ``functions``.
    """
    h12 = gates.hadamard_both()
    return [_run_deutsch_jozsa_with(f, h12) for f in functions]


def _run_deutsch_jozsa_with(f: TruthTable, h12: UnitaryOperator) -> DJVerdict:
    state = basis_state("00")
    for operator in (h12, build_oracle(f), h12):
        state = apply(operator, state)
    magnitude = abs(state.amplitudes[0])
    if magnitude > DJ_CONSTANT_CUT:
        return DJVerdict.CONSTANT
    if magnitude < DJ_BALANCED_CUT:
        return DJVerdict.BALANCED
    return DJVerdict.NEITHER


def run_deutsch_jozsa_2bit(f: TruthTable) -> DJVerdict:
    """The one-query test of :func:`run_deutsch_jozsa_sweep` on one function."""
    (verdict,) = run_deutsch_jozsa_sweep((f,))
    return verdict


def constant_balanced_promise_functions() -> list[TruthTable]:
    """The 8 functions that are constant or balanced (0, 2 or 4 ones)."""
    return [f for f in enumerate_functions() if f.ones() in (0, 2, 4)]


def classical_min_queries(
    label: Callable[[TruthTable], object],
    functions: Iterable[TruthTable] | None = None,
) -> int:
    """Minimum worst-case query count of any deterministic classical strategy.

    ``label`` assigns each candidate function the value the strategy must
    determine. A strategy is an adaptive decision tree: it picks an input
    point, learns the function's output bit there, and may choose the next
    point based on the answer. The search is exhaustive and exact, by
    minimax recursion over the set of functions still consistent with the
    answers seen so far. ``functions`` defaults to all 16 two-bit functions.
    """
    pool = tuple(enumerate_functions() if functions is None else functions)
    # Candidate sets are bitmasks over pool positions: bit k stands for pool[k].
    label_masks: dict[object, int] = {}
    for k, f in enumerate(pool):
        value = label(f)
        label_masks[value] = label_masks.get(value, 0) | 1 << k
    zero_masks = [
        sum(1 << k for k, f in enumerate(pool) if f.evaluate(point) == 0)
        for point in range(4)
    ]
    memo: dict[int, int] = {}

    def depth(candidates: int) -> int:
        cached = memo.get(candidates)
        if cached is not None:
            return cached
        if sum(1 for mask in label_masks.values() if candidates & mask) <= 1:
            return 0
        best: int | None = None
        for zeros in zero_masks:
            answers_zero = candidates & zeros
            answers_one = candidates & ~zeros
            if not answers_zero or not answers_one:
                continue  # uninformative point: every candidate agrees here
            cost = 1 + max(depth(answers_zero), depth(answers_one))
            if best is None or cost < best:
                best = cost
        # A mixed-label set always contains two functions differing at some
        # point, so at least one informative split exists.
        assert best is not None
        memo[candidates] = best
        return best

    return depth((1 << len(pool)) - 1)
