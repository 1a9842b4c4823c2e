"""Gate constructors for the two-qubit circuits.

Each call builds fresh operators. No gate is built at import or kept across
calls: that would speed the single-function calls past the benchmark's memory
bound until its harness is fixed (ROADMAP item 1), and its tracer test pins a
report to constructing a gate. The circuit sweeps take their gates as
arguments, so a report sweep builds one set from one ``hadamard()``.
"""

from __future__ import annotations

import numpy as np

from .linalg import UnitaryOperator, tensor_product

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def hadamard() -> UnitaryOperator:
    """Single-qubit Hadamard, its own inverse: maps |0> and |1> to the
    equal-weight superpositions (|0> + |1>)/sqrt(2) and (|0> - |1>)/sqrt(2)."""
    return UnitaryOperator(_INV_SQRT2 * np.array([[1.0, 1.0], [1.0, -1.0]]))


def identity() -> UnitaryOperator:
    """Single-qubit identity."""
    return UnitaryOperator(np.eye(2))


def hadamard_both() -> UnitaryOperator:
    """Hadamard on both qubits: H (x) H."""
    h = hadamard()
    return tensor_product(h, h)


def even_odd_gates() -> tuple[UnitaryOperator, UnitaryOperator]:
    """The even/odd circuit's gates H (x) H and I (x) H, from one Hadamard."""
    h = hadamard()
    return tensor_product(h, h), tensor_product(identity(), h)
