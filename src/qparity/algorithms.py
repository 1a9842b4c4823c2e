"""Quantum circuits for classifying two-bit Boolean functions, plus the
classical query-count baseline they are measured against.

The main circuit decides whether a function is even or odd with two oracle
queries. A deterministic classical strategy needs all four input points, a
fact :func:`classical_min_queries` establishes by exhaustive search over
adaptive decision trees. Each sweep simulates all its functions as one array.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import gates
from .linalg import StateVector, UnitaryOperator, validated_state_stack
from .oracles import Parity, TruthTable, enumerate_functions, oracle_signs

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


class Sweep(Sequence):
    """Results kept as columns: ``columns`` maps each field of ``row_type``, in
    any order, to its column (states as amplitude stacks); ``sweep[k]`` builds
    row k, each field from its column by name, and a slice gives a list of rows."""

    __slots__ = ("row_type", "columns")

    def __init__(self, row_type: type, columns: dict):
        self.row_type, self.columns = row_type, columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def __getitem__(self, k: int | slice):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        return self._row(k)

    def _row(self, k: int):
        return self.row_type(**{name: column[k] for name, column in self.columns.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


class CircuitSweep(Sweep):
    """Circuit runs, whose row k wraps the rows of ``per_step_states[k]`` as its states."""

    __slots__ = ()

    def _row(self, k: int) -> AlgorithmResult:
        c = self.columns
        states = tuple(StateVector._trusted(row) for row in c["per_step_states"][k])
        return AlgorithmResult(states[-1], c["verdict"][k], c["oracle_calls"][k], states)


def _column(records: Sequence, path: str):
    """Field ``path`` (dotted, e.g. ``"circuit.verdict"``) of every record: a
    column of a :class:`Sweep`, or read off each record of any other sequence."""
    if not isinstance(records, Sweep):
        return list(map(operator.attrgetter(path), records))
    head, _, rest = path.partition(".")
    return _column(records.columns[head], rest) if rest else records.columns[head]


def _circuit_steps(signs: np.ndarray, sequence: tuple[UnitaryOperator | None, ...]) -> np.ndarray:
    """Every state, from |00> on, of one circuit run per row of an (n, 4) sign
    stack, as one validated (n, len(sequence) + 1, 4) stack: each gate acts as
    ``gate @ state``, rounding as one matrix-vector product does bit for bit, and
    each ``None`` queries the oracle, multiplying each state by its row of signs."""
    state = np.zeros(signs.shape, dtype=np.complex128)
    state[:, 0] = 1.0
    steps = [state]
    for gate in sequence:
        state = state * signs if gate is None else (gate.entries @ state[..., None])[..., 0]
        steps.append(state)
    return validated_state_stack(np.stack(steps, axis=1))


def run_even_odd_sweep(
    functions: Iterable[TruthTable], h12: UnitaryOperator, h2: UnitaryOperator
) -> CircuitSweep:
    """Classify each function as even or odd with two oracle queries.

    Starting from |00>, the circuit applies ``h12``, a Hadamard on both
    qubits, the phase oracle, ``h2``, a Hadamard on the second qubit alone,
    the oracle again, and ``h12`` again. The result is
    (s|00> + |01>)/sqrt(2) for even functions and (s|10> + |01>)/sqrt(2)
    for odd ones, where the sign s is (-1)^(f(00) xor f(01)). The verdict
    is read off from which one of the |00> and |10> components alone carries
    the nonzero amplitude. All functions run as one stack, kept as columns;
    the rows follow the order of ``functions``.
    """
    sequence = (h12, None, h2, None, h12)
    steps = _circuit_steps(oracle_signs(functions), sequence)
    verdicts = tuple(  # one test of every final state: |00> alone is even, |10> alone odd
        Parity.EVEN if even > odd else Parity.ODD if odd > even else None
        for even, odd in (np.abs(steps[:, -1, ::2]) > VERDICT_AMPLITUDE_THRESHOLD).tolist()
    )
    if None in verdicts:
        raise RuntimeError(
            "final state matches neither parity pattern; "
            f"amplitudes {steps[verdicts.index(None), -1].tolist()}"
        )
    return CircuitSweep(AlgorithmResult, {
        "final_state": steps[:, -1],
        "verdict": verdicts,
        "oracle_calls": (sequence.count(None),) * len(steps),
        "per_step_states": steps,
    })


def run_even_odd(f: TruthTable) -> AlgorithmResult:
    """The even/odd circuit of :func:`run_even_odd_sweep` on one function and its own gates."""
    return run_even_odd_sweep((f,), *gates.even_odd_gates())[0]


def run_deutsch_jozsa_sweep(
    functions: Iterable[TruthTable], h12: UnitaryOperator
) -> list[DJVerdict]:
    """Constant-vs-balanced test with a single oracle query per function.

    Applies ``h12``, a Hadamard on both qubits, the phase oracle once, and
    ``h12`` again, starting from |00>. The |00> amplitude is the mean of (-1)^f(x),
    so the function is reported constant when its magnitude is 1, balanced
    when it vanishes, and neither when it is 1/2 (functions with one or
    three ones sit outside the promise). All functions run as one stack; the
    verdicts follow the order of ``functions``.
    """
    return dj_readout(_circuit_steps(oracle_signs(functions), (h12, None, h12))[:, -1])


def dj_readout(finals: np.ndarray) -> list[DJVerdict]:
    """The verdict of each DJ final state, a row of an (n, 4) stack, by its |00> magnitude."""
    return [
        DJVerdict.CONSTANT if m > DJ_CONSTANT_CUT else
        DJVerdict.BALANCED if m < DJ_BALANCED_CUT else DJVerdict.NEITHER
        for m in np.abs(finals[:, 0]).tolist()
    ]


def run_deutsch_jozsa_2bit(f: TruthTable) -> DJVerdict:
    """The one-query test of :func:`run_deutsch_jozsa_sweep` on one function and its own H (x) H."""
    (verdict,) = run_deutsch_jozsa_sweep((f,), gates.hadamard_both())
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
    answers seen so far, memoized per pool and label partition (``label`` still
    runs on every function). ``functions`` defaults to all 16 two-bit functions.
    """
    pool = tuple(enumerate_functions() if functions is None else functions)
    # Candidate sets are bitmasks over pool positions: bit k stands for pool[k].
    labels = [label(f) for f in pool]
    label_masks: dict[object, int] = {}
    for k, value in enumerate(labels):
        label_masks[value] = label_masks.get(value, 0) | 1 << k
    same_label = tuple(label_masks[value] for value in labels)  # pool[k]'s label class
    zero_masks = [sum(1 << k for k, f in enumerate(pool) if not f.outputs[x]) for x in range(4)]
    return _min_depth(same_label, tuple(zero_masks))


@functools.lru_cache(maxsize=64)
def _min_depth(same_label: tuple[int, ...], zero_masks: tuple[int, ...]) -> int:
    """The search of :func:`classical_min_queries` by label-class and per-point zero bitmasks."""
    @functools.cache  # every candidate set, pure ones included
    def depth(candidates: int) -> int:
        lowest = (candidates & -candidates).bit_length() - 1
        if not candidates & ~same_label[lowest]:
            return 0  # every candidate shares the label of the lowest one
        best: int | None = None
        for zeros in zero_masks:
            answers_zero = candidates & zeros
            answers_one = candidates & ~zeros
            if not answers_zero or not answers_one:
                continue  # uninformative point: every candidate agrees here
            cost = 1 + depth(answers_zero)
            if best is not None and cost >= best:
                continue  # the other branch can only raise this split's cost
            cost = max(cost, 1 + depth(answers_one))
            if best is None or cost < best:
                best = cost
        # A mixed-label set always contains two functions differing at some
        # point, so at least one informative split exists.
        assert best is not None
        return best

    return depth((1 << len(same_label)) - 1) if same_label else 0
