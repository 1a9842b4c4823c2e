"""Gate constructors for the two-qubit circuits.

These are functions rather than module-level constants so each call builds a
fresh operator; the indirection keeps composite gates consistent with
``hadamard()`` even if it is replaced under test. Each circuit sweep builds
its gates once and applies each one to the whole (n, 4) stack of states, as
``gate @ state`` per row.
"""

from __future__ import annotations

import numpy as np

from .linalg import UnitaryOperator, tensor_product

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def hadamard() -> UnitaryOperator:
    """Single-qubit Hadamard, its own inverse: maps |0> and |1> to the
    equal-weight superpositions (|0> + |1>)/sqrt(2) and (|0> - |1>)/sqrt(2)."""
    return UnitaryOperator(_INV_SQRT2 * np.array([[1.0, 1.0], [1.0, -1.0]]))


def identity(num_qubits: int = 1) -> UnitaryOperator:
    """Identity on the given number of qubits."""
    return UnitaryOperator(np.eye(2**num_qubits))


def hadamard_first() -> UnitaryOperator:
    """Hadamard on qubit 1 only: H (x) I."""
    return tensor_product(hadamard(), identity())


def hadamard_second() -> UnitaryOperator:
    """Hadamard on qubit 2 only: I (x) H."""
    return tensor_product(identity(), hadamard())


def hadamard_both() -> UnitaryOperator:
    """Hadamard on both qubits: H (x) H."""
    return tensor_product(hadamard(), hadamard())
