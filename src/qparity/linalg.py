"""Dense complex linear algebra for one- and two-qubit registers.

Basis convention: qubit 1 is the most significant bit of the basis index,
so for two qubits the amplitude order is |00>, |01>, |10>, |11>. All
arithmetic is double-precision complex; validity checks run at construction
time and fail fast with ValueError.

The table below states every tolerance of the package once, as constants that
nothing rebinds or takes as an argument, so every comparison is the same in every
thread and every call; ``_deviation`` beside it is the one rule each goes through:
the largest |actual - expected|, with NaN as infinity.
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


def _deviation(actual, expected, rows: int = 1):
    """Largest entrywise |actual - expected| over all but the first ``rows`` axes (a number at
    rows 0), with NaN as infinity, so that a rule's ``deviation > tol`` fails it, not pass it."""
    diff = np.abs(np.subtract(actual, expected))
    worst = diff.max(axis=tuple(range(rows, diff.ndim)), initial=0.0) if diff.ndim > rows else diff
    if rows:  # a stack's NaNs in place; one number's in Python, which is cheaper
        worst[np.isnan(worst)] = np.inf
    return worst if rows or worst == worst else np.inf


def _require(actual, expected, what: str) -> None:
    """Raise ValueError naming ``what`` unless |actual - expected| <= ``DEFAULT_TOL`` everywhere."""
    if (worst := _deviation(actual, expected, rows=0)) > DEFAULT_TOL:
        raise ValueError(f"{what} {worst:.3e} > {DEFAULT_TOL:.3e}")


def _check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must have finite entries (no NaN or infinity)")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _basis_labels(dim: int) -> tuple[str, ...]:
    """The basis kets of a register of dimension d as bit strings, qubit 1 first."""
    return tuple(format(i, f"0{dim // 2}b") for i in range(dim))


# The shape rule: d is 2 or 4 (one or two qubits), or 4 alone for the partial trace, coherence
# orders and entanglement. A form is (rank, square, name); rank None is any rank of one or more.
_STATE = (1, False, "a (d,) state vector")
_STATES = (2, False, "an (n, d) stack of state vectors")
_STATE_ARRAY = (None, False, "a (..., d) array of state vectors")
_MATRIX = (2, True, "a square (d, d) matrix")
_MATRICES = (3, True, "an (n, d, d) stack of density matrices")
_DIMS = {(2, 4): "2 or 4 (one or two qubits)", (4,): "4 (a two-qubit register)"}
_COMPLEX = np.dtype(np.complex128)  # numpy takes a dtype object faster than the type; `is` tests it


def _shaped(arr, form: tuple, dims: tuple[int, ...] = (2, 4)) -> np.ndarray:
    """``arr`` as a complex array, checked to have ``form`` with d in ``dims``."""
    arr = arr if type(arr) is np.ndarray and arr.dtype is _COMPLEX else np.asarray(arr, _COMPLEX)
    rank, square, name = form
    shape = arr.shape
    if ((len(shape) != rank if rank else not shape) or shape[-1] not in dims
            or square and shape[-2] != shape[-1]):
        raise ValueError(f"expected {name} with d of {_DIMS[dims]}, got shape {shape}")
    return arr


class StateVector:
    """Normalized pure state over the computational basis.

    The amplitudes, a (d,) array under the shape rule, satisfy
    sum(|a_i|^2) = 1 within tolerance. Instances are immutable; the
    underlying numpy array is marked read-only.
    """

    __slots__ = ("_amplitudes",)

    def __init__(self, amplitudes):
        self._amplitudes = validated_state_stack(_shaped(amplitudes, _STATE).copy())

    @classmethod
    def _trusted(cls, amplitudes: np.ndarray) -> "StateVector":
        """A state on a row of a ``validated_state_stack`` result, not copied."""
        s = object.__new__(cls)
        s._amplitudes = amplitudes
        return s

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The amplitudes, so that a sequence of states stacks as one array."""
        return np.array(self._amplitudes, dtype=dtype, copy=copy)

    def __eq__(self, other) -> bool:
        """Bit-equal amplitudes, save that -0.0 and 0.0 agree, as in ``__hash__``."""
        return isinstance(other, StateVector) and np.array_equal(self._amplitudes, other._amplitudes)

    def __hash__(self) -> int:
        return hash(tuple(self._amplitudes.tolist()))

    def basis_labels(self) -> tuple[str, ...]:
        return _basis_labels(len(self._amplitudes))

    def __repr__(self) -> str:
        terms = ", ".join(
            f"{label}: {amp:.6g}"
            for label, amp in zip(self.basis_labels(), self._amplitudes)
            if abs(amp) > DISPLAY_FLOOR
        )
        return f"StateVector({terms})"


def validated_state_stack(amplitudes) -> np.ndarray:
    """Mark an array of amplitudes, one state per row of its last axis, read-only after
    checking as ``StateVector`` does that the last axis obeys the shape rule, every entry
    is finite and every row has unit norm within ``DEFAULT_TOL``; marks a complex one in place."""
    amplitudes = _check_finite(_shaped(amplitudes, _STATE_ARRAY), "state vector")
    _require((np.abs(amplitudes) ** 2).sum(axis=-1), 1.0,
             "state vector is not normalized: |sum(|a|^2) - 1| =")
    return _frozen(amplitudes)


def _check_densities(arr: np.ndarray) -> np.ndarray:
    """Check that a matrix, or each of a stack, has finite entries, is Hermitian and has
    unit trace within ``DEFAULT_TOL``; returns a read-only plain view the stacked forms trust."""
    _check_finite(arr, "density matrix")
    _require(arr, arr.conj().swapaxes(-1, -2), "density matrix is not Hermitian: max deviation")
    _require(arr.trace(axis1=-2, axis2=-1), 1.0, "density matrix trace differs from 1 by")
    return _frozen(arr.view(_Passed).copy()).view(np.ndarray)


class _Passed(np.ndarray):
    """The copy each view ``_check_densities`` returns is a view of; a view, slice or
    result of that view is a plain array whose base is not one, so it is checked again."""


def _densities(rhos, dims: tuple[int, ...] = (2, 4)) -> np.ndarray:
    """A stack given to a stacked form, an (n, d, d) array-like with d in ``dims``,
    as a plain array: the checked view itself as it is, anything else checked."""
    arr = _shaped(rhos, _MATRICES, dims)
    return arr if type(arr.base) is _Passed else _check_densities(arr)


class DensityMatrix:
    """Hermitian, trace-one (d, d) matrix under the shape rule, both
    enforced at construction. The library works on density stacks and builds
    none of these; the class is kept because the benchmark's tracer counts its
    constructions.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries):
        self._entries = _check_densities(_shaped(entries, _MATRIX))

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    def __repr__(self) -> str:
        return f"DensityMatrix(num_qubits={len(self._entries) // 2})"


class UnitaryOperator:
    """Complex (d, d) matrix U under the shape rule with U^dagger U = I within tolerance."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        arr = _check_finite(_shaped(np.array(entries, dtype=_COMPLEX), _MATRIX), "operator")
        _require(arr.conj().T @ arr, np.eye(len(arr)),
                 "operator is not unitary: max |U^dagger U - I| =")
        self._entries = _frozen(arr)

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    def __repr__(self) -> str:
        return f"UnitaryOperator(num_qubits={len(self._entries) // 2})"


def tensor_product(a: UnitaryOperator, b: UnitaryOperator) -> UnitaryOperator:
    """Kronecker product a (x) b, formed by broadcasting and validated as any operator.

    The left factor addresses the more significant qubits, matching the
    basis convention above: for 2x2 factors, entry ((x1 x2), (y1 y2)) of the
    result is a[x1, y1] * b[x2, y2], the product ``np.kron`` forms.
    """
    x, y = a.entries, b.entries
    return UnitaryOperator((x[:, None, :, None] * y[None, :, None, :]).reshape(len(x) * len(y), -1))


def density_from_state_stack(amplitudes) -> np.ndarray:
    """Rank-one projectors |s><s| of an (n, d) stack of amplitudes under the shape rule,
    as a read-only (n, d, d) array validated as ``DensityMatrix`` validates one."""
    amps = _shaped(amplitudes, _STATES)
    return _check_densities(amps[:, :, None] * amps[:, None, :].conj())


def partial_trace_stack(rhos, keep_qubit: int) -> np.ndarray:
    """Reduced density matrices of qubit ``keep_qubit`` (1, the most significant
    bit of the basis index, or 2) of a two-qubit stack under the shape rule, tracing out
    the other. The input is checked as ``DensityMatrix`` checks one matrix, unless
    a stacked form made it; the (n, 2, 2) result is read-only and validated likewise."""
    if type(keep_qubit) is not int or keep_qubit not in (1, 2):
        raise ValueError(f"keep_qubit must be 1 or 2, got {keep_qubit!r}")
    rhos = _densities(rhos, (4,))  # [n, 2 i1 + i2, 2 j1 + j2]: the traced bit's 0 and 1 blocks
    zero, one = (np.s_[0::2], np.s_[1::2]) if keep_qubit == 1 else (np.s_[:2], np.s_[2:])
    return _check_densities(rhos[:, zero, zero] + rhos[:, one, one])


def purity_stack(rhos) -> np.ndarray:
    """Tr(rho^2) of every matrix of an (n, d, d) stack under the shape rule, checked as
    ``DensityMatrix`` checks one unless a stacked form made it; 1 for pure
    states, 1/d for the maximally mixed state."""
    rhos = _densities(rhos)
    return (rhos @ rhos).trace(axis1=-2, axis2=-1).real
