"""Entanglement analysis for two-qubit pure states.

For amplitudes (a, b, c, d) in basis order |00>, |01>, |10>, |11>, the amplitude matrix
M = [[a, b], [c, d]] holds the state: the concurrence is 2|det M| = 2|ad - bc|, zero
exactly for product states and one for maximally entangled states. The reduced matrices
of qubits 1 and 2, M M^dagger = [[aa* + bb*, ac* + bd*], [ca* + db*, cc* + dd*]] and
M^T conj(M) = [[aa* + cc*, ab* + cd*], [ba* + dc*, bb* + dd*]], are formed entry by
entry, and each purity tr r^2 as (r00 r00 + r01 r10) + (r10 r01 + r11 r11). The Schmidt
coefficients, M's singular values, follow in closed form from the qubit-1 reduced matrix
and |ad - bc| (Nielsen & Chuang, sec. 2.5; Wootters, PRL 80, 2245, 1998), so no general
SVD is needed. The analyses run on stacks of states; one state is the stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithms import Sweep
from .linalg import (
    IDEMPOTENCY_TOL, ZERO_FLOOR, _STATES, _densities, _deviation, _shaped, validated_state_stack
)


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


def analyze_pure_state_stack(amplitudes) -> Sweep:
    """Concurrence, Schmidt coefficients and reduced purities of a two-qubit
    amplitude stack (the ``linalg`` shape rule), checked as ``StateVector`` checks one, as
    report columns, one report per row. The reduced purities come from the
    reduced matrices M M^dagger and M^T conj(M), independently of the
    concurrence's det M; agreement between the two routes is a consistency
    check the tests rely on."""
    return _analyze(validated_state_stack(_shaped(amplitudes, _STATES, (4,)).copy()))


def _analyze(amps: np.ndarray) -> Sweep:
    """The analysis of an (n, 4) amplitude stack that is already checked."""
    (a, b, c, d), (a_, b_, c_, d_) = amps.T, amps.conj().T
    aa, bb, cc, dd = a * a_, b * b_, c * c_, d * d_
    concurrence = 2.0 * np.abs(a * d - b * c)
    reduced1 = (aa + bb, a * c_ + b * d_, c * a_ + d * b_, cc + dd)  # r00, r01, r10, r11
    reduced2 = (aa + cc, a * b_ + c * d_, b * a_ + d * c_, bb + dd)
    # The squared Schmidt coefficients are the eigenvalues (1 +- spread)/2 of
    # the trace-normalized reduced matrix [[p, q], [q*, 1 - p]], with
    # spread = hypot(2p - 1, 2|q|), and lam1 * lam2 = |ad - bc|. Unlike
    # sqrt(1 - C^2) near C = 1, neither step cancels.
    norm = (reduced1[0] + reduced1[3]).real
    p, q = reduced1[0].real / norm, np.abs(reduced1[1]) / norm
    lam1 = np.sqrt((1.0 + np.hypot(2.0 * p - 1.0, 2.0 * q)) / 2.0)
    lam2 = concurrence / (2.0 * norm * lam1)
    purity1, purity2 = (((r00 * r00 + r01 * r10) + (r10 * r01 + r11 * r11)).real
                        for r00, r01, r10, r11 in (reduced1, reduced2))
    concurrence = concurrence.tolist()
    return Sweep(EntanglementReport, {
        "concurrence": concurrence,
        "schmidt_coefficients": list(zip(lam1.tolist(), lam2.tolist())),
        "is_entangled": [c > ZERO_FLOOR for c in concurrence],
        "reduced_purity_q1": purity1.tolist(),
        "reduced_purity_q2": purity2.tolist(),
    })


def is_idempotent_stack(rhos) -> np.ndarray:
    """Whether rho^2 = rho entrywise within ``IDEMPOTENCY_TOL`` for every
    matrix of an (n, d, d) stack, checked as ``DensityMatrix`` checks one unless
    a stacked form made it, i.e. which are pure-state projectors."""
    rhos = _densities(rhos)
    return _deviation(rhos @ rhos, rhos) <= IDEMPOTENCY_TOL
