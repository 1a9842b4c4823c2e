"""Entanglement analysis for two-qubit pure states.

For amplitudes (a, b, c, d) in basis order |00>, |01>, |10>, |11>, the
concurrence is 2|ad - bc|: zero exactly for product states, one for
maximally entangled states. The Schmidt coefficients are the singular
values of the 2x2 amplitude matrix [[a, b], [c, d]]; for a normalized state
they follow in closed form from the concurrence alone, so no general SVD is
needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linalg import (
    DensityMatrix,
    IDEMPOTENCY_TOL,
    StateVector,
    density_from_state,
    partial_trace,
    purity,
)

import numpy as np

ENTANGLEMENT_THRESHOLD = 1e-10


@dataclass(frozen=True)
class EntanglementReport:
    """Entanglement measures of a two-qubit pure state.

    ``schmidt_coefficients`` are in descending order with squares summing
    to one; ``concurrence`` equals twice their product. The two reduced
    purities agree for any pure bipartite state.
    """

    concurrence: float
    schmidt_coefficients: tuple[float, float]
    is_entangled: bool
    reduced_purity_q1: float
    reduced_purity_q2: float


def analyze_pure_state(s: StateVector) -> EntanglementReport:
    """Concurrence, Schmidt coefficients and reduced purities of a state.

    The reduced purities are computed independently, via the partial trace
    of |s><s|, rather than from the Schmidt coefficients; agreement between
    the two routes is a consistency check the tests rely on.
    """
    if s.num_qubits != 2:
        raise ValueError("entanglement analysis expects a two-qubit state")
    a, b, c, d = (complex(z) for z in s.amplitudes)
    concurrence = 2.0 * abs(a * d - b * c)
    # Singular values of [[a, b], [c, d]] for a unit-norm state: the squares
    # solve t^2 - t + |ad - bc|^2 = 0.
    spread = math.sqrt(max(0.0, 1.0 - concurrence**2))
    lam1 = math.sqrt((1.0 + spread) / 2.0)
    lam2 = math.sqrt(max(0.0, (1.0 - spread)) / 2.0)
    rho = density_from_state(s)
    return EntanglementReport(
        concurrence=concurrence,
        schmidt_coefficients=(lam1, lam2),
        is_entangled=concurrence > ENTANGLEMENT_THRESHOLD,
        reduced_purity_q1=purity(partial_trace(rho, 1)),
        reduced_purity_q2=purity(partial_trace(rho, 2)),
    )


def is_idempotent(rho: DensityMatrix) -> bool:
    """True iff rho^2 = rho entrywise within ``IDEMPOTENCY_TOL``, i.e. rho is a
    pure-state projector."""
    m = rho.entries
    return bool(np.max(np.abs(m @ m - m)) <= IDEMPOTENCY_TOL)
