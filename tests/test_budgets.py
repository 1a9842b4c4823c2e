"""Count budgets: upper bounds on the work each entry point does.

Timings on a small shared machine resolve a few percent at best, but call
counts repeat exactly, and most of the package's speed comes from doing
less: gates built once per sweep, oracles built at import, one parser, no
per-state wrapper objects, one density stack per analysis, products formed
by broadcasting, a readout that sums under fixed masks instead of
decomposing. These tests count calls of public functions and constructors,
of the density check ``_check_densities`` that every density stack passes
through, of ``_circuit_steps``, which runs every circuit, of the comparison
rule ``_deviation`` and of ``numpy.kron``, ``numpy.einsum`` and
``numpy.linalg.eigvalsh``, wrapped from outside the package
the way ``bench/tracer.py`` wraps them, and the runs of the classical query
search's minimax recursion, as misses of its cache. They also count the lines
of the package's source, which ``python -m qparity.cli`` compiles when no
bytecode is cached.

The budgets are a ratchet, so each count must equal its budget. A count
above it is a regression. A count below it fails too, until the change
that lowered the count lowers the budget with it. Raising a budget loosens
a check and needs a reason in CHANGES.md.
"""

import argparse
import collections
import contextlib
import functools
import io
import pathlib
import sys

import numpy
import pytest

import qparity
import qparity.verification  # imported on first use; loaded here so the counters wrap its names
from qparity import TruthTable, classification_report
from qparity.cli import main
from qparity.reports import all_reports

FUNCTIONS = {  # name: the module that defines it
    "_check_densities": qparity.linalg,
    "_circuit_steps": qparity.algorithms,
    "_deviation": qparity.linalg,
    "build_oracle": qparity.oracles,
    "classical_min_queries": qparity.algorithms,
    "classification_report": qparity.reports,
    "classify": qparity.oracles,
    "decompose_coherences_stack": qparity.nmr,
    "density_from_state_stack": qparity.linalg,
    "oracle_signs": qparity.oracles,
    "partial_trace_stack": qparity.linalg,
    "to_canonical_json": qparity.reports,
}
CONSTRUCTORS = {
    "UnitaryOperator": qparity.linalg.UnitaryOperator,
    "StateVector": qparity.linalg.StateVector,
    "DensityMatrix": qparity.linalg.DensityMatrix,
    "ArgumentParser": argparse.ArgumentParser,
}
CLASSMETHODS = {"_trusted": qparity.linalg.StateVector}  # a state on a row of a checked stack
NUMPY_FUNCTIONS = {  # name: the numpy namespace the package calls it through
    "kron": numpy,  # gate products are broadcast, not formed by np.kron
    "einsum": numpy,  # none: reduced matrices are formed entrywise, partial traces sum blocks
    "eigvalsh": numpy.linalg,  # verify's eigenvalue rule, only on rows far from their projector
}

REPORT_BUDGET = {
    "UnitaryOperator": 6,  # H, I, H (x) H, I (x) H for the circuit; H, H (x) H for DJ
    "StateVector": 0,
    "_trusted": 6,  # the states of the one circuit run the report holds
    "DensityMatrix": 0,
    "density_from_state_stack": 1,
    "partial_trace_stack": 0,
    "_check_densities": 1,  # the projector stack, where it is made
    "kron": 0,
    "einsum": 0,  # the analysis forms its reduced matrices and purities entrywise
    "eigvalsh": 0,
    "decompose_coherences_stack": 0,  # the readout sums |entries| under fixed masks
}
# A sweep keeps its states as one stack and runs one circuit, the even/odd one, whose
# first two steps are DJ's; separability reads the sign rows apart from the circuit.
SWEEP_BUDGET = {
    **REPORT_BUDGET, "UnitaryOperator": 4, "_trusted": 0, "_circuit_steps": 1, "oracle_signs": 2
}
BATCH_BUDGET = {
    "UnitaryOperator": 8,
    "StateVector": 0,
    "_trusted": 0,
    "DensityMatrix": 0,
    "build_oracle": 16,
    "ArgumentParser": 0,
    "to_canonical_json": 2,
    "_circuit_steps": 2,  # one per sweep: the even/odd circuit, read for DJ as well
    "oracle_signs": 4,  # per sweep, the circuit's and separability's
    "density_from_state_stack": 3,
    "partial_trace_stack": 2,
    # One per stack made: the projectors of each sweep and of verify's density
    # probes, and verify's two reduced stacks; no stack is checked twice.
    "_check_densities": 5,
    "classify": 48,  # 16 per sweep, and verify's 16 labels
    "classification_report": 0,  # table and verify read the 16-function sweep alone
    "classical_min_queries": 1,  # the DJ promise; parity is certified, not searched
    "_min_depth": 0,  # that search's recursion: memoized by label partition and pool
    "kron": 0,
    "einsum": 0,
    "eigvalsh": 0,  # every density row is within ZERO_FLOOR / 8 of its projector
    "decompose_coherences_stack": 1,  # verify's coherence_resum
    # The one comparison rule: 8 validations per sweep, 7 in verify's density
    # stacks and idempotency test, and one per comparison of verify's 14 folded ones.
    "_deviation": 37,
}
SRC_LINES = 1899  # cat src/qparity/*.py | wc -l


@pytest.fixture
def counts(monkeypatch):
    """A Counter of calls, by name, of the functions in FUNCTIONS (wherever a
    qparity module binds them), of the constructors in CONSTRUCTORS and of the
    numpy functions in NUMPY_FUNCTIONS."""
    counter = collections.Counter()

    def counted(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for n, m in sys.modules.items() if n.startswith("qparity.") and m is not None]
    for name, home in FUNCTIONS.items():
        original = getattr(home, name)
        wrapper = counted(original, name)
        for module in modules:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, wrapper)
    for name, cls in CONSTRUCTORS.items():
        monkeypatch.setattr(cls, "__init__", counted(cls.__init__, name))
    for name, cls in CLASSMETHODS.items():
        monkeypatch.setattr(cls, name, classmethod(counted(getattr(cls, name).__func__, name)))
    for name, home in NUMPY_FUNCTIONS.items():
        monkeypatch.setattr(home, name, counted(getattr(home, name), name))
    return counter


def per_call(counter, budget, per):
    """The counts of the names in ``budget``, divided by ``per`` calls."""
    return {name: counter[name] / per for name in budget}


@pytest.mark.parametrize("bits", ["0000", "0001", "0110", "1111"])
def test_classification_report_budget(bits, counts):
    classification_report(TruthTable.from_string(bits))
    assert per_call(counts, REPORT_BUDGET, 1) == REPORT_BUDGET


def test_all_reports_budget(counts):
    all_reports()
    assert per_call(counts, SWEEP_BUDGET, 1) == SWEEP_BUDGET


def batch_pairs(pairs):
    """The benchmark's batch op, ``pairs`` times: table --json, then verify --json."""
    with contextlib.redirect_stdout(io.StringIO()):
        for _ in range(pairs):
            assert main(["table", "--json"]) == 0
            assert main(["verify", "--json"]) == 0


def test_batch_pair_budget(counts):
    # Counted warm, as the benchmark's loop runs: one pair fills the caches first.
    pairs, search = 3, qparity.algorithms._min_depth
    batch_pairs(1)
    counts.clear()
    misses = search.cache_info().misses
    batch_pairs(pairs)
    counts["_min_depth"] = search.cache_info().misses - misses
    assert per_call(counts, BATCH_BUDGET, pairs) == BATCH_BUDGET


def test_a_cold_search_runs_its_recursion_once():
    # The count above reads 0 only because the memo holds the search, not because none runs.
    search = qparity.algorithms._min_depth
    search.cache_clear()
    batch_pairs(1)
    assert (search.cache_info().misses, search.cache_info().hits) == (1, 0)


def test_source_line_budget():
    source = pathlib.Path(qparity.__file__).parent
    assert sum(p.read_bytes().count(b"\n") for p in source.glob("*.py")) == SRC_LINES
