"""Coherence-order decomposition and spectral observability of two-qubit states.

Each basis state gets a total magnetic quantum number m = (number of 0 bits
- number of 1 bits)/2, taking the 0 bit as spin-up. A density-matrix entry
(i, j) then has coherence order m(i) - m(j), an integer between -2 and +2
for two qubits. Only single-quantum terms (order +-1) produce a spectral
line; zero-quantum off-diagonal terms and multiples of the identity are
silent. The sign convention for m is irrelevant to anything here, which
depends on |order| alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from .linalg import DensityMatrix, partial_trace
from .oracles import Parity

if TYPE_CHECKING:
    from .reports import ClassificationReport

COHERENCE_ORDERS = (-2, -1, 0, 1, 2)

OBSERVABLE_THRESHOLD = 1e-10


def coherence_order(i: int, j: int) -> int:
    """Coherence order m(i) - m(j) of two-qubit density-matrix entry (i, j).

    With m(basis index) = 1 - popcount(index), the difference simplifies to
    popcount(j) - popcount(i).
    """
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


def decompose_coherences(rho: DensityMatrix) -> CoherenceDecomposition:
    """Assign every entry of a two-qubit density matrix to its coherence order."""
    if rho.num_qubits != 2:
        raise ValueError("coherence decomposition expects a two-qubit density matrix")
    m = rho.entries
    components = {
        order: np.where(_ORDER_MATRIX == order, m, 0.0 + 0.0j) for order in COHERENCE_ORDERS
    }
    return CoherenceDecomposition(orders=components)


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


def transverse_magnetization(rho: DensityMatrix, qubit: int) -> float:
    """Off-diagonal magnitude of one qubit's reduced density matrix.

    This is the size of that spin's single-quantum coherence, hence of its
    contribution to the spectrum; subtracting any multiple of the identity
    (which carries no signal) would not change it.
    """
    reduced = partial_trace(rho, qubit)
    return float(abs(reduced.entries[0, 1]))


def observability(rho: DensityMatrix) -> ObservabilityReport:
    """Spectral observability summary of a two-qubit density matrix."""
    decomposition = decompose_coherences(rho)
    single = float(
        np.sum(np.abs(decomposition.orders[1])) + np.sum(np.abs(decomposition.orders[-1]))
    )
    order_zero = decomposition.orders[0]
    zero_quantum = float(np.sum(np.abs(order_zero - np.diag(np.diagonal(order_zero)))))
    return ObservabilityReport(
        observable_line=single > OBSERVABLE_THRESHOLD,
        single_quantum_weight=single,
        zero_quantum_weight=zero_quantum,
        transverse_magnetization_q1=transverse_magnetization(rho, 1),
        transverse_magnetization_q2=transverse_magnetization(rho, 2),
    )


def threshold_separates(values_a: Sequence[float], values_b: Sequence[float]) -> bool:
    """Whether some cut point puts the two value families on opposite sides.

    Requires a gap of more than ``OBSERVABLE_THRESHOLD`` between the
    families; two empty or overlapping families cannot be separated.
    """
    if not values_a or not values_b:
        return False
    return (
        min(values_b) - max(values_a) > OBSERVABLE_THRESHOLD
        or min(values_a) - max(values_b) > OBSERVABLE_THRESHOLD
    )


def parity_magnetization_values(
    reports: Sequence[ClassificationReport], qubit: int
) -> tuple[list[float], list[float]]:
    """Transverse magnetization of one qubit across the reports' final states.

    Returns the values grouped as (even-function family, odd-function
    family), read from each report's observability analysis.
    """
    if qubit not in (1, 2):
        raise ValueError(f"qubit must be 1 or 2, got {qubit!r}")
    even_values: list[float] = []
    odd_values: list[float] = []
    for report in reports:
        obs = report.observability
        value = (
            obs.transverse_magnetization_q1
            if qubit == 1
            else obs.transverse_magnetization_q2
        )
        if value <= OBSERVABLE_THRESHOLD:
            value = 0.0  # below the detection floor there is no signal
        if report.function_class.parity is Parity.EVEN:
            even_values.append(value)
        else:
            odd_values.append(value)
    return even_values, odd_values


def magnetization_classifies_parity(
    reports: Sequence[ClassificationReport], qubit: int, threshold: float
) -> bool:
    """Whether "transverse magnetization above threshold" predicts parity.

    Predicts even when the chosen qubit's magnetization exceeds the
    threshold; true iff that rule is correct for every report. Over all 16
    functions, qubit 2 with threshold 0.25 classifies perfectly (even gives
    1/2, odd gives 0); no threshold works on qubit 1.
    """
    even_values, odd_values = parity_magnetization_values(reports, qubit)
    return all(v > threshold for v in even_values) and all(
        v <= threshold for v in odd_values
    )


def spin1_indistinguishability_check(reports: Sequence[ClassificationReport]) -> bool:
    """True iff no threshold on qubit 1's transverse magnetization separates
    the even from the odd functions among the reports.

    Over all 16 functions both families give exactly zero magnetization on
    qubit 1, so the value sets coincide and no observable spectral line
    distinguishes them there.
    """
    even_values, odd_values = parity_magnetization_values(reports, 1)
    return not threshold_separates(even_values, odd_values)
