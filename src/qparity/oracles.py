"""Two-bit Boolean functions and their diagonal phase oracles.

A function f: {0,1}^2 -> {0,1} is stored as its four output bits in input
order (00), (01), (10), (11). There are 16 such functions. Each one is
encoded as the diagonal unitary that multiplies basis state |x> by
(-1)^f(x); functions with an even number of ones in the output are called
even, the rest odd. :func:`oracle_signs` states that sign law once, as one
diagonal row per function, for the circuits, oracles and separability test.
The 16 oracles are built from those rows and validated once, at import.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import UnitaryOperator

MALFORMED_TABLE_MESSAGE = "truth table must be 4 bits"


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class TruthTable:
    """Output bits (f(00), f(01), f(10), f(11)) of a two-bit Boolean function."""

    outputs: tuple[int, int, int, int]

    def __post_init__(self):
        # A tuple keeps equality and hashing well defined; a bool or float bit
        # would print as "True" or "1.0" in the text form.
        if not isinstance(self.outputs, tuple) or len(self.outputs) != 4:
            raise ValueError(MALFORMED_TABLE_MESSAGE)
        if not all(type(bit) is int and bit in (0, 1) for bit in self.outputs):
            raise ValueError(MALFORMED_TABLE_MESSAGE)
        object.__setattr__(self, "_ones", sum(self.outputs))  # no field: eq, hash, repr ignore it

    @classmethod
    def from_string(cls, bits: str) -> "TruthTable":
        """Parse the canonical text form, e.g. "0001" = f(00)f(01)f(10)f(11)."""
        if len(bits) != 4 or any(c not in "01" for c in bits):
            raise ValueError(MALFORMED_TABLE_MESSAGE)
        return cls(tuple(int(c) for c in bits))

    def to_string(self) -> str:
        return "%d%d%d%d" % self.outputs

    def evaluate(self, point: int) -> int:
        """Output bit at input point 0..3, indexed as the binary value of (x1 x2)."""
        if type(point) is not int or point not in (0, 1, 2, 3):
            raise ValueError(f"input point must be 0..3, got {point!r}")
        return self.outputs[point]

    def ones(self) -> int:
        return self._ones


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
    even number (0, 2 or 4) of ones. Each class is one immutable value."""
    return _CLASSES[f.ones()]


_CLASSES = tuple(FunctionClass(k, 4 - k, Parity.ODD if k % 2 else Parity.EVEN) for k in range(5))


def oracle_signs(functions: Iterable[TruthTable]) -> np.ndarray:
    """Diagonals of the phase oracles of ``functions``: an (n, 4) array whose
    row k holds (-1)^f(x) for the k-th function at x = 00, 01, 10, 11."""
    outputs = np.array([f.outputs for f in functions], dtype=float).reshape(-1, 4)
    return 1.0 - 2.0 * outputs


_ALL_FUNCTIONS = tuple(TruthTable(bits) for bits in itertools.product((0, 1), repeat=4))
# One validated, immutable oracle per function, shared by every caller and thread.
_ORACLES = {
    f: UnitaryOperator(np.diag(d)) for f, d in zip(_ALL_FUNCTIONS, oracle_signs(_ALL_FUNCTIONS))
}


def build_oracle(f: TruthTable) -> UnitaryOperator:
    """Phase oracle of f: the diagonal unitary with entries (-1)^f(x).

    The diagonal follows the basis order |00>, |01>, |10>, |11>, so the
    matrix is diag((-1)^f(00), (-1)^f(01), (-1)^f(10), (-1)^f(11)), the row
    of :func:`oracle_signs`. Every oracle is self-inverse. Each call returns
    the one read-only oracle of f, validated when the module was imported.
    """
    return _ORACLES[f]


def separable_signs(diagonals: np.ndarray) -> np.ndarray:
    """Which rows (d00, d01, d10, d11) of an (n, 4) stack of +-1 oracle
    diagonals factor as A (x) B with 2x2 diagonal A, B: exactly those whose
    2x2 array M[x1, x2] = d_{x1 x2} has rank one, i.e. minor d00*d11 - d01*d10
    zero. No parity enters, so parity <-> separability stays a checkable fact.
    The minor is 0 or +-2, so it is compared with 1, not a tolerance."""
    d00, d01, d10, d11 = np.asarray(diagonals).T
    return np.abs(d00 * d11 - d01 * d10) < 1.0


def enumerate_functions() -> list[TruthTable]:
    """All 16 functions in ascending binary order of (f(00), f(01), f(10), f(11)),
    as a new list the caller owns."""
    return list(_ALL_FUNCTIONS)
