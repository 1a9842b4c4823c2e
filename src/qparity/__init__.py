"""qparity: exact two-qubit circuit analysis of two-bit Boolean functions.

The package decides, with two oracle queries, whether a function
f: {0,1}^2 -> {0,1} has an even or odd number of ones in its output, and
exposes the supporting machinery: phase-oracle construction, statevector
simulation, entanglement measures, coherence-order readout analysis, and an
exhaustive classical query-count baseline. The self-verification suite's
names (``CheckResult``, ``VerificationOutcome``, ``run_all_checks``) import
``qparity.verification`` on first use, so that only ``verify`` compiles it.
"""

from .algorithms import (
    STEP_LABELS,
    AlgorithmResult,
    DJVerdict,
    classical_min_queries,
    constant_balanced_promise_functions,
    run_deutsch_jozsa_2bit,
    run_even_odd,
)
from .entanglement import EntanglementReport
from .gates import hadamard, hadamard_both, identity
from .linalg import DEFAULT_TOL, DensityMatrix, StateVector, UnitaryOperator, tensor_product
from .nmr import (
    COHERENCE_ORDERS,
    ObservabilityReport,
    coherence_order,
    magnetization_classifies_parity,
    spin1_indistinguishability_check,
    threshold_separates,
)
from .oracles import FunctionClass, Parity, TruthTable, build_oracle, classify, enumerate_functions
from .reports import ClassificationReport, classification_report, to_canonical_json

__version__ = "0.1.0"

__all__ = [
    "AlgorithmResult",
    "COHERENCE_ORDERS",
    "CheckResult",
    "ClassificationReport",
    "DEFAULT_TOL",
    "DJVerdict",
    "DensityMatrix",
    "EntanglementReport",
    "FunctionClass",
    "ObservabilityReport",
    "Parity",
    "STEP_LABELS",
    "StateVector",
    "TruthTable",
    "UnitaryOperator",
    "VerificationOutcome",
    "build_oracle",
    "classical_min_queries",
    "classification_report",
    "classify",
    "coherence_order",
    "constant_balanced_promise_functions",
    "enumerate_functions",
    "hadamard",
    "hadamard_both",
    "identity",
    "magnetization_classifies_parity",
    "run_all_checks",
    "run_deutsch_jozsa_2bit",
    "run_even_odd",
    "spin1_indistinguishability_check",
    "tensor_product",
    "threshold_separates",
    "to_canonical_json",
]

_VERIFICATION = ("CheckResult", "VerificationOutcome", "run_all_checks")


def __getattr__(name: str):
    if name not in _VERIFICATION:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verification

    return getattr(verification, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_VERIFICATION})
