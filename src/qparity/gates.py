"""Gate constructors for the two-qubit circuits.

Each constructor builds fresh operators on every call. The report sweep, run by
``table`` and ``verify`` alone, reads ``EVEN_ODD_GATES``, one read-only pair built and
validated at import. The single-function runs still build their own: reading the pair there
made ``calls`` 1.3x faster, so its peak RSS, which grows with the benchmark's op count, rose
past its 5% bound (ROADMAP item 1). Products are formed by broadcasting (``tensor_product``),
and every gate is validated once.
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


# The report sweep's H (x) H and I (x) H; ``UnitaryOperator`` freezes their entries.
EVEN_ODD_GATES = even_odd_gates()
