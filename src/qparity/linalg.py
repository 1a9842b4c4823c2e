"""Dense complex linear algebra for one- and two-qubit registers.

Basis convention: qubit 1 is the most significant bit of the basis index,
so for two qubits the amplitude order is |00>, |01>, |10>, |11>. All
arithmetic is double-precision complex; validity checks run at construction
time and fail fast with ValueError.

The table below states every tolerance of the package once. They are
constants: nothing rebinds them and nothing takes a tolerance as an argument,
so every comparison is the same in every thread and every call.
"""

from __future__ import annotations

import numpy as np

# The tolerance table; rounding errors are a few 1e-15. Decision cuts (the verdict's 0.5,
# DJ's 0.75 and 0.25, the separability minor's < 1, verify's 0.25 readout cut) are not
# tolerances: each sits beside the exact values it splits, at least 0.2 from every one.
DEFAULT_TOL = 1e-12  # validation of states and operators, verify's checks
IDEMPOTENCY_TOL = 1e-11  # rho @ rho - rho is a product, so it carries twice the rounding
ZERO_FLOOR = 1e-10  # smaller concurrences, weights, magnetizations, eigenvalues are rounding
DISPLAY_FLOOR = 1e-9  # text output leaves out amplitudes and imaginary parts this small


def _check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must have finite entries (no NaN or infinity)")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _qubit_count(dim: int, what: str) -> int:
    if dim not in (2, 4):
        raise ValueError(f"{what} dimension {dim} is not 2 or 4 (one or two qubits)")
    return dim // 2


class StateVector:
    """Normalized pure state over the computational basis.

    The amplitude array has length 2 or 4 (2**num_qubits) and satisfies
    sum(|a_i|^2) = 1 within tolerance. Instances are immutable; the
    underlying numpy array is marked read-only.
    """

    __slots__ = ("_amplitudes", "_num_qubits")

    def __init__(self, amplitudes):
        arr = np.array(amplitudes, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError("state vector must be one-dimensional")
        self._num_qubits = _qubit_count(arr.shape[0], "state vector")
        self._amplitudes = validated_state_stack(arr)

    @classmethod
    def _trusted(cls, amplitudes: np.ndarray) -> "StateVector":
        """A state on a row of a ``validated_state_stack`` result, not copied."""
        s = object.__new__(cls)
        s._amplitudes, s._num_qubits = amplitudes, len(amplitudes) // 2
        return s

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The amplitudes, so that a sequence of states stacks as one array."""
        return np.array(self._amplitudes, dtype=dtype, copy=copy)

    def basis_labels(self) -> tuple[str, ...]:
        n = self._num_qubits
        return tuple(format(i, f"0{n}b") for i in range(2**n))

    def __repr__(self) -> str:
        terms = ", ".join(
            f"{label}: {amp:.6g}"
            for label, amp in zip(self.basis_labels(), self._amplitudes)
            if abs(amp) > DISPLAY_FLOOR
        )
        return f"StateVector({terms})"


def validated_state_stack(amplitudes: np.ndarray) -> np.ndarray:
    """Mark an array of amplitudes, one state per row of its last axis,
    read-only after checking as ``StateVector`` does that every entry is
    finite and every row has unit norm within ``DEFAULT_TOL``."""
    _check_finite(amplitudes, "state vector")
    norms = (np.abs(amplitudes) ** 2).sum(axis=-1)
    norm_error = float(np.abs(norms - 1.0).max(initial=0.0))
    if norm_error > DEFAULT_TOL:
        raise ValueError(
            f"state vector is not normalized: |sum(|a|^2) - 1| = {norm_error:.3e}"
            f" > {DEFAULT_TOL:.3e}"
        )
    return _frozen(amplitudes)


def _check_densities(arr: np.ndarray) -> np.ndarray:
    """Check that a matrix, or each of a stack, has finite entries, is Hermitian and has
    unit trace within ``DEFAULT_TOL``; returns a read-only plain view the stacked forms trust."""
    _check_finite(arr, "density matrix")
    hermiticity_error = float(np.abs(arr - arr.conj().swapaxes(-1, -2)).max(initial=0.0))
    if hermiticity_error > DEFAULT_TOL:
        raise ValueError(
            f"density matrix is not Hermitian: max deviation {hermiticity_error:.3e}"
            f" > {DEFAULT_TOL:.3e}"
        )
    trace_error = float(np.abs(arr.trace(axis1=-2, axis2=-1) - 1.0).max(initial=0.0))
    if trace_error > DEFAULT_TOL:
        raise ValueError(
            f"density matrix trace differs from 1 by {trace_error:.3e} > {DEFAULT_TOL:.3e}"
        )
    return _frozen(arr.view(_Passed).copy()).view(np.ndarray)


class _Passed(np.ndarray):
    """The copy each view ``_check_densities`` returns is a view of; a view, slice or
    result of that view is a plain array whose base is not one, so it is checked again."""


def _densities(rhos) -> np.ndarray:
    """A stack given to a stacked form, an (n, d, d) array-like with d of 2 or 4,
    as a plain array: the checked view itself as it is, anything else checked."""
    if type(getattr(rhos, "base", None)) is _Passed and rhos.ndim == 3:
        return rhos
    arr = np.asarray(rhos, dtype=np.complex128)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[1] not in (2, 4):
        raise ValueError(
            f"expected an (n, d, d) stack of density matrices with d of 2 or 4, got {arr.shape}"
        )
    return _check_densities(arr)


class DensityMatrix:
    """Hermitian, trace-one operator on a one- or two-qubit register, both
    enforced at construction. The library works on density stacks and builds
    none of these; the class is kept because the benchmark's tracer counts its
    constructions.
    """

    __slots__ = ("_entries", "_num_qubits")

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("density matrix must be square")
        self._num_qubits = _qubit_count(arr.shape[0], "density matrix")
        self._entries = _check_densities(arr)

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    def __repr__(self) -> str:
        return f"DensityMatrix(num_qubits={self._num_qubits})"


class UnitaryOperator:
    """Complex 2x2 or 4x4 matrix U with U^dagger U = I within tolerance."""

    __slots__ = ("_entries", "_num_qubits")

    def __init__(self, entries):
        arr = _check_finite(np.array(entries, dtype=np.complex128), "operator")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("operator must be square")
        self._num_qubits = _qubit_count(arr.shape[0], "operator")
        defect = float(np.max(np.abs(arr.conj().T @ arr - np.eye(arr.shape[0]))))
        if defect > DEFAULT_TOL:
            raise ValueError(
                f"operator is not unitary: max |U^dagger U - I| = {defect:.3e} > {DEFAULT_TOL:.3e}"
            )
        self._entries = _frozen(arr)

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    def __repr__(self) -> str:
        return f"UnitaryOperator(num_qubits={self._num_qubits})"


def tensor_product(a: UnitaryOperator, b: UnitaryOperator) -> UnitaryOperator:
    """Kronecker product a (x) b.

    The left factor addresses the more significant qubits, matching the
    basis convention above: for 2x2 factors, entry ((x1 x2), (y1 y2)) of the
    result is a[x1, y1] * b[x2, y2].
    """
    return UnitaryOperator(np.kron(a.entries, b.entries))


def density_from_state_stack(amplitudes) -> np.ndarray:
    """Rank-one projectors |s><s| of an (n, d) stack of amplitudes, as a
    read-only (n, d, d) array validated as ``DensityMatrix`` validates one."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.ndim != 2 or amps.shape[1] not in (2, 4):
        raise ValueError(
            f"expected an (n, d) stack of amplitudes with d of 2 or 4, got {amps.shape}"
        )
    return _check_densities(amps[:, :, None] * amps[:, None, :].conj())


def partial_trace_stack(rhos, keep_qubit: int) -> np.ndarray:
    """Reduced density matrices of qubit ``keep_qubit`` (1, the most significant
    bit of the basis index, or 2) of an (n, 4, 4) two-qubit stack, tracing out
    the other. The input is checked as ``DensityMatrix`` checks one matrix, unless
    a stacked form made it; the (n, 2, 2) result is read-only and validated likewise."""
    if type(keep_qubit) is not int or keep_qubit not in (1, 2):
        raise ValueError(f"keep_qubit must be 1 or 2, got {keep_qubit!r}")
    rhos = _densities(rhos)
    if rhos.shape[1:] != (4, 4):
        raise ValueError("partial_trace expects a two-qubit density matrix")
    return _check_densities(_partial_trace(rhos, keep_qubit))


def _partial_trace(rhos: np.ndarray, keep_qubit: int) -> np.ndarray:
    blocks = rhos.reshape(-1, 2, 2, 2, 2)  # [n, i1, i2, j1, j2]
    return np.einsum("nakbk->nab" if keep_qubit == 1 else "nkakb->nab", blocks)


def purity_stack(rhos) -> np.ndarray:
    """Tr(rho^2) of every matrix of an (n, d, d) stack, checked as
    ``DensityMatrix`` checks one unless a stacked form made it; 1 for pure
    states, 1/d for the maximally mixed state."""
    rhos = _densities(rhos)
    return (rhos @ rhos).trace(axis1=-2, axis2=-1).real
