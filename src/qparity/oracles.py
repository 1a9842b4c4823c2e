"""Two-bit Boolean functions and their diagonal phase oracles.

A function f: {0,1}^2 -> {0,1} is stored as its four output bits in input
order (00), (01), (10), (11). There are 16 such functions. Each one is
encoded as the diagonal unitary that multiplies basis state |x> by
(-1)^f(x); functions with an even number of ones in the output are called
even, the rest odd.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import DEFAULT_TOL, UnitaryOperator

MALFORMED_TABLE_MESSAGE = "truth table must be 4 bits"


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class TruthTable:
    """Output bits (f(00), f(01), f(10), f(11)) of a two-bit Boolean function."""

    outputs: tuple[int, int, int, int]

    def __post_init__(self):
        # A tuple keeps equality and hashing well defined; a bool bit would
        # print as "True" in the text form.
        if not isinstance(self.outputs, tuple) or len(self.outputs) != 4:
            raise ValueError(MALFORMED_TABLE_MESSAGE)
        if any(isinstance(bit, bool) or bit not in (0, 1) for bit in self.outputs):
            raise ValueError(MALFORMED_TABLE_MESSAGE)

    @classmethod
    def from_string(cls, bits: str) -> "TruthTable":
        """Parse the canonical text form, e.g. "0001" = f(00)f(01)f(10)f(11)."""
        if len(bits) != 4 or any(c not in "01" for c in bits):
            raise ValueError(MALFORMED_TABLE_MESSAGE)
        return cls(tuple(int(c) for c in bits))

    def to_string(self) -> str:
        return "".join(str(bit) for bit in self.outputs)

    def evaluate(self, point: int) -> int:
        """Output bit at input point 0..3, indexed as the binary value of (x1 x2)."""
        if isinstance(point, bool) or point not in (0, 1, 2, 3):
            raise ValueError(f"input point must be 0..3, got {point!r}")
        return self.outputs[point]

    def ones(self) -> int:
        return sum(self.outputs)


@dataclass(frozen=True)
class FunctionClass:
    """Class [ones, zeros] of a function, with its even/odd parity."""

    ones: int
    zeros: int
    parity: Parity

    def __post_init__(self):
        if self.ones + self.zeros != 4:
            raise ValueError("ones and zeros must total 4")

    @property
    def label(self) -> str:
        return f"[{self.ones},{self.zeros}]"


def classify(f: TruthTable) -> FunctionClass:
    """Class and parity of a function: parity is even iff the output has an
    even number (0, 2 or 4) of ones."""
    ones = f.ones()
    parity = Parity.EVEN if ones % 2 == 0 else Parity.ODD
    return FunctionClass(ones=ones, zeros=4 - ones, parity=parity)


def build_oracle(f: TruthTable) -> UnitaryOperator:
    """Phase oracle of f: the diagonal unitary with entries (-1)^f(x).

    The diagonal follows the basis order |00>, |01>, |10>, |11>, so the
    matrix is diag((-1)^f(00), (-1)^f(01), (-1)^f(10), (-1)^f(11)). Every
    oracle is self-inverse.
    """
    signs = [(-1.0) ** bit for bit in f.outputs]
    return UnitaryOperator(np.diag(signs).astype(np.complex128))


def is_separable_oracle(u: UnitaryOperator) -> bool:
    """Whether a diagonal sign matrix factors as A (x) B with 2x2 diagonal A, B.

    Arranging the diagonal (d00, d01, d10, d11) as the 2x2 array
    M[x1, x2] = d_{x1 x2}, the operator is a tensor product exactly when M
    has rank one, i.e. when the single 2x2 minor d00*d11 - d01*d10 vanishes.
    That minor criterion is used directly here; no parity information about
    the underlying function enters, so the correspondence between parity and
    separability stays an independently checkable fact. With entries +1 or
    -1 the minor is 0 or +-2, so it is compared with 1 rather than with a
    tolerance.

    Raises ValueError unless ``u`` is 4x4, diagonal, with entries +1 or -1,
    each within ``DEFAULT_TOL``.
    """
    if u.num_qubits != 2:
        raise ValueError("separability test expects a two-qubit operator")
    m = u.entries
    diag = np.diagonal(m)
    off_diagonal = m - np.diag(diag)
    if np.max(np.abs(off_diagonal)) > DEFAULT_TOL:
        raise ValueError("separability test expects a diagonal operator")
    if np.max(np.minimum(np.abs(diag - 1.0), np.abs(diag + 1.0))) > DEFAULT_TOL:
        raise ValueError("separability test expects diagonal entries +1 or -1")
    minor = diag[0] * diag[3] - diag[1] * diag[2]
    return bool(abs(minor) < 1.0)


def enumerate_functions() -> list[TruthTable]:
    """All 16 functions in ascending binary order of (f(00), f(01), f(10), f(11))."""
    return [TruthTable(bits) for bits in itertools.product((0, 1), repeat=4)]
