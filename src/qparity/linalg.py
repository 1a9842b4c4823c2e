"""Dense complex linear algebra for small multi-qubit systems.

Basis convention: qubit 1 is the most significant bit of the basis index,
so for two qubits the amplitude order is |00>, |01>, |10>, |11>. All
arithmetic is double-precision complex; validity checks run at construction
time and fail fast with ValueError.

``DEFAULT_TOL`` is the entrywise tolerance of every constructor's validation
and of ``states_equal``. It and the other tolerances below are constants:
nothing rebinds them, so validation is the same in every thread. Only the
checks of ``qparity verify`` take a tolerance as an argument.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-12
PSD_TOL = 1e-10
IDEMPOTENCY_TOL = 1e-11
MAX_QUBITS = 12


def _to_complex_array(data, what: str) -> np.ndarray:
    arr = np.array(data, dtype=np.complex128)
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ValueError(f"{what} must have finite entries (no NaN or infinity)")
    return arr


def _qubit_count(dim: int, what: str) -> int:
    n = (dim - 1).bit_length()
    if dim < 2 or dim != 2**n:
        raise ValueError(f"{what} dimension {dim} is not a power of two >= 2")
    if n > MAX_QUBITS:
        raise ValueError(f"{what} exceeds the {MAX_QUBITS}-qubit cap")
    return n


class StateVector:
    """Normalized pure state over the computational basis.

    The amplitude array has length 2**num_qubits and satisfies
    sum(|a_i|^2) = 1 within tolerance. Instances are immutable; the
    underlying numpy array is marked read-only.
    """

    __slots__ = ("_amplitudes", "_num_qubits")

    def __init__(self, amplitudes):
        arr = _to_complex_array(amplitudes, "state vector")
        if arr.ndim != 1:
            raise ValueError("state vector must be one-dimensional")
        self._num_qubits = _qubit_count(arr.shape[0], "state vector")
        norm_error = abs(float(np.sum(np.abs(arr) ** 2)) - 1.0)
        if norm_error > DEFAULT_TOL:
            raise ValueError(
                f"state vector is not normalized: |sum(|a|^2) - 1| = {norm_error:.3e}"
                f" > {DEFAULT_TOL:.3e}"
            )
        arr.setflags(write=False)
        self._amplitudes = arr

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    def basis_labels(self) -> tuple[str, ...]:
        n = self._num_qubits
        return tuple(format(i, f"0{n}b") for i in range(2**n))

    def __repr__(self) -> str:
        terms = ", ".join(
            f"{label}: {amp:.6g}"
            for label, amp in zip(self.basis_labels(), self._amplitudes)
            if abs(amp) > 1e-9
        )
        return f"StateVector({terms})"


class DensityMatrix:
    """Hermitian, trace-one operator on an n-qubit register.

    Hermiticity and unit trace are enforced at construction. Positive
    semidefiniteness is checked on demand through
    :meth:`is_positive_semidefinite` since it requires an eigendecomposition.
    """

    __slots__ = ("_entries", "_num_qubits")

    def __init__(self, entries):
        arr = _to_complex_array(entries, "density matrix")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("density matrix must be square")
        self._num_qubits = _qubit_count(arr.shape[0], "density matrix")
        hermiticity_error = float(np.max(np.abs(arr - arr.conj().T)))
        if hermiticity_error > DEFAULT_TOL:
            raise ValueError(
                f"density matrix is not Hermitian: max deviation {hermiticity_error:.3e}"
                f" > {DEFAULT_TOL:.3e}"
            )
        trace_error = abs(complex(np.trace(arr)) - 1.0)
        if trace_error > DEFAULT_TOL:
            raise ValueError(
                f"density matrix trace differs from 1 by {trace_error:.3e} > {DEFAULT_TOL:.3e}"
            )
        arr.setflags(write=False)
        self._entries = arr

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues in ascending order."""
        return np.linalg.eigvalsh(self._entries)

    def is_positive_semidefinite(self) -> bool:
        return bool(np.all(self.eigenvalues() >= -PSD_TOL))

    def __repr__(self) -> str:
        return f"DensityMatrix(num_qubits={self._num_qubits})"


class UnitaryOperator:
    """Complex square matrix U with U^dagger U = I within tolerance."""

    __slots__ = ("_entries", "_num_qubits")

    def __init__(self, entries):
        arr = _to_complex_array(entries, "operator")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("operator must be square")
        self._num_qubits = _qubit_count(arr.shape[0], "operator")
        defect = float(np.max(np.abs(arr.conj().T @ arr - np.eye(arr.shape[0]))))
        if defect > DEFAULT_TOL:
            raise ValueError(
                f"operator is not unitary: max |U^dagger U - I| = {defect:.3e} > {DEFAULT_TOL:.3e}"
            )
        arr.setflags(write=False)
        self._entries = arr

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    def __repr__(self) -> str:
        return f"UnitaryOperator(num_qubits={self._num_qubits})"


def basis_state(bits: str) -> StateVector:
    """Computational basis state for a classical bit string, e.g. "00"."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"invalid basis label {bits!r}: expected a nonempty 0/1 string")
    amplitudes = np.zeros(2 ** len(bits), dtype=np.complex128)
    amplitudes[int(bits, 2)] = 1.0
    return StateVector(amplitudes)


def tensor_product(a: UnitaryOperator, b: UnitaryOperator) -> UnitaryOperator:
    """Kronecker product a (x) b.

    The left factor addresses the more significant qubits, matching the
    basis convention above: for 2x2 factors, entry ((x1 x2), (y1 y2)) of the
    result is a[x1, y1] * b[x2, y2].
    """
    return UnitaryOperator(np.kron(a.entries, b.entries))


def compose(a: UnitaryOperator, b: UnitaryOperator) -> UnitaryOperator:
    """Matrix product a @ b, i.e. the operator that applies b first, then a."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"cannot compose operators on {a.num_qubits} and {b.num_qubits} qubits"
        )
    return UnitaryOperator(a.entries @ b.entries)


def apply(u: UnitaryOperator, s: StateVector) -> StateVector:
    """Apply an operator to a state: returns u @ s as a new StateVector."""
    if u.num_qubits != s.num_qubits:
        raise ValueError(
            f"operator acts on {u.num_qubits} qubits but state has {s.num_qubits}"
        )
    return StateVector(u.entries @ s.amplitudes)


def density_from_state(s: StateVector) -> DensityMatrix:
    """Rank-one projector |s><s| of a pure state."""
    amps = s.amplitudes
    return DensityMatrix(np.outer(amps, amps.conj()))


def partial_trace(rho: DensityMatrix, keep_qubit: int) -> DensityMatrix:
    """Reduced density matrix of one qubit of a two-qubit state.

    ``keep_qubit`` is 1 (the most significant bit of the basis index) or 2;
    the other qubit is traced out. The result is a 2x2 density matrix with
    the trace preserved.
    """
    if rho.num_qubits != 2:
        raise ValueError("partial_trace expects a two-qubit density matrix")
    if keep_qubit not in (1, 2):
        raise ValueError(f"keep_qubit must be 1 or 2, got {keep_qubit!r}")
    blocks = rho.entries.reshape(2, 2, 2, 2)  # [i1, i2, j1, j2]
    if keep_qubit == 1:
        reduced = np.einsum("akbk->ab", blocks)
    else:
        reduced = np.einsum("kakb->ab", blocks)
    return DensityMatrix(reduced)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); equals 1 for pure states, 1/dim for the maximally mixed state."""
    m = rho.entries
    return float(np.real(np.trace(m @ m)))


def overlap(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b>."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"cannot take overlap of states on {a.num_qubits} and {b.num_qubits} qubits"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def states_equal(a: StateVector, b: StateVector) -> bool:
    """Equality up to a global phase: |<a|b>| = 1 within ``DEFAULT_TOL``.

    A global phase has no observable consequence, so two normalized states
    are considered the same exactly when the magnitude of their overlap is 1.
    """
    if a.num_qubits != b.num_qubits:
        return False
    return abs(abs(overlap(a, b)) - 1.0) <= DEFAULT_TOL
