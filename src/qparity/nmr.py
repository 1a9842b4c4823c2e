"""Coherence-order decomposition and spectral observability of two-qubit states.

Each basis state gets a total magnetic quantum number m = (number of 0 bits
- number of 1 bits)/2, taking the 0 bit as spin-up. A density-matrix entry
(i, j) then has coherence order m(i) - m(j), an integer between -2 and +2
for two qubits. Only single-quantum terms (order +-1) produce a spectral
line; zero-quantum off-diagonal terms and multiples of the identity are
silent. The sign convention for m is irrelevant to anything here, which
depends on |order| alone. The analyses run on (n, 4, 4) stacks of density
matrices; one matrix is the stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from .algorithms import Sweep, _column
from .linalg import ZERO_FLOOR, _densities, _partial_trace, partial_trace_stack

if TYPE_CHECKING:
    from .reports import ClassificationReport

COHERENCE_ORDERS = (-2, -1, 0, 1, 2)


def coherence_order(i: int, j: int) -> int:
    """Coherence order m(i) - m(j) of two-qubit density-matrix entry (i, j).

    With m(basis index) = 1 - popcount(index), the difference simplifies to
    popcount(j) - popcount(i). Both indices must be the int 0..3.
    """
    if any(type(k) is not int or k not in (0, 1, 2, 3) for k in (i, j)):
        raise ValueError(f"entry indices must be 0..3, got ({i!r}, {j!r})")
    return bin(j).count("1") - bin(i).count("1")


# Entry (i, j) holds coherence_order(i, j).
_ORDER_MATRIX = np.array([[coherence_order(i, j) for j in range(4)] for i in range(4)])
_ORDER_MATRIX.setflags(write=False)


@dataclass(frozen=True)
class CoherenceDecomposition:
    """Split of a 4x4 matrix by coherence order.

    ``orders`` maps each order in -2..+2 to the matrix holding exactly the
    entries of that order (zero elsewhere). The components sum back to the
    original matrix, and for Hermitian input the order +p component is the
    conjugate transpose of the order -p one.
    """

    orders: dict[int, np.ndarray]

    def total(self) -> np.ndarray:
        return sum(self.orders.values())


def decompose_coherences_stack(rhos) -> CoherenceDecomposition:
    """Assign every entry of an (n, 4, 4) stack of two-qubit density matrices,
    checked as ``DensityMatrix`` checks one unless a stacked form made it, to its
    coherence order; each component is an (n, 4, 4) stack too."""
    rhos = _densities(rhos)
    if rhos.shape[1:] != (4, 4):
        raise ValueError("coherence decomposition expects a two-qubit density matrix")
    orders = {k: np.where(_ORDER_MATRIX == k, rhos, 0.0 + 0.0j) for k in COHERENCE_ORDERS}
    return CoherenceDecomposition(orders=orders)


@dataclass(frozen=True)
class ObservabilityReport:
    """Which spectral features a two-qubit density matrix produces.

    ``single_quantum_weight`` sums |entry| over coherence orders +-1;
    ``zero_quantum_weight`` sums |entry| over off-diagonal order-0 terms
    (populations excluded, since they are not coherences). A line appears
    in the spectrum exactly when single-quantum weight is present.
    ``transverse_magnetization_qk`` is the magnitude of the off-diagonal
    element of qubit k's reduced density matrix.
    """

    observable_line: bool
    single_quantum_weight: float
    zero_quantum_weight: float
    transverse_magnetization_q1: float
    transverse_magnetization_q2: float


def transverse_magnetization_stack(rhos, qubit: int) -> np.ndarray:
    """Off-diagonal magnitude of one qubit's reduced density matrix, for every
    matrix of an (n, 4, 4) stack, checked by :func:`partial_trace_stack`: the
    size of that spin's single-quantum coherence, hence of its contribution to
    the spectrum. Subtracting any multiple of the identity (which carries no
    signal) would not change it."""
    return np.abs(partial_trace_stack(rhos, qubit)[:, 0, 1])


def _weight(components: np.ndarray) -> np.ndarray:
    """Sum of |entry| over each matrix of an (n, 4, 4) stack."""
    return np.abs(components).reshape(len(components), 16).sum(axis=1)


def observability_stack(rhos) -> Sweep:
    """Spectral observability summaries of an (n, 4, 4) stack of two-qubit
    density matrices, checked as ``DensityMatrix`` checks one unless a stacked
    form made it, as report columns, one report per matrix."""
    rhos = _densities(rhos)
    orders = decompose_coherences_stack(rhos).orders
    single = (_weight(orders[1]) + _weight(orders[-1])).tolist()
    zero_quantum = _weight(np.where(np.eye(4, dtype=bool), 0.0 + 0.0j, orders[0])).tolist()
    m1, m2 = (np.abs(_partial_trace(rhos, qubit)[:, 0, 1]).tolist() for qubit in (1, 2))
    return Sweep(ObservabilityReport, {
        "observable_line": [s > ZERO_FLOOR for s in single],
        "single_quantum_weight": single,
        "zero_quantum_weight": zero_quantum,
        "transverse_magnetization_q1": m1,
        "transverse_magnetization_q2": m2,
    })


def threshold_separates(values_a: Sequence[float], values_b: Sequence[float]) -> bool:
    """Whether some cut point puts the two value families on opposite sides.

    Requires a gap of more than ``ZERO_FLOOR`` between the families; two
    empty or overlapping families, or any NaN, cannot be separated.
    """
    if not values_a or not values_b or np.isnan([*values_a, *values_b]).any():
        return False
    return (
        min(values_b) - max(values_a) > ZERO_FLOOR
        or min(values_a) - max(values_b) > ZERO_FLOOR
    )


def parity_magnetization_values(
    reports: Sequence[ClassificationReport], qubit: int
) -> tuple[list[float], list[float]]:
    """Transverse magnetization of one qubit across the reports' final states.

    Returns the values as (even-function family, odd-function family) by the
    truth table's ones count, read from each report's observability analysis.
    """
    if type(qubit) is not int or qubit not in (1, 2):
        raise ValueError(f"qubit must be 1 or 2, got {qubit!r}")
    families: tuple[list[float], list[float]] = ([], [])
    values = _column(reports, f"observability.transverse_magnetization_q{qubit}")
    for f, value in zip(_column(reports, "function"), values):
        # Below the detection floor there is no signal; a NaN stays NaN.
        families[f.ones() % 2].append(0.0 if value <= ZERO_FLOOR else value)
    return families


def magnetization_classifies_parity(
    reports: Sequence[ClassificationReport], qubit: int, threshold: float
) -> bool:
    """Whether "transverse magnetization above threshold" predicts parity.

    Predicts even when the chosen qubit's magnetization exceeds the
    threshold; true iff both parities occur and the rule holds for every
    report, which no NaN does. Over all 16 functions, qubit 2 with threshold
    0.25 classifies perfectly (even 1/2, odd 0); no threshold works on qubit 1.
    """
    even, odd = parity_magnetization_values(reports, qubit)
    if not even or not odd:
        return False
    return all(v > threshold for v in even) and all(v <= threshold for v in odd)


def spin1_indistinguishability_check(reports: Sequence[ClassificationReport]) -> bool:
    """True iff no threshold on qubit 1's transverse magnetization separates
    the even from the odd functions among the reports.

    Over all 16 functions both families give exactly zero magnetization on
    qubit 1, so the value sets coincide and no observable spectral line
    distinguishes them there. A NaN shows nothing either way: False.
    """
    even, odd = parity_magnetization_values(reports, 1)
    return not (np.isnan([*even, *odd]).any() or threshold_separates(even, odd))
