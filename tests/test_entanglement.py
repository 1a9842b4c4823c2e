"""Concurrence, Schmidt coefficients and idempotency checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qparity import Parity, StateVector, classify, enumerate_functions, run_even_odd
from qparity.algorithms import run_even_odd_sweep
from qparity.entanglement import analyze_pure_state_stack, is_idempotent_stack
from qparity.gates import even_odd_gates
from qparity.linalg import density_from_state_stack, partial_trace_stack

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def random_state(rng, n=4) -> StateVector:
    raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return StateVector(raw / np.linalg.norm(raw))


def analyze(s: StateVector):
    """The entanglement report of the stack of one state."""
    return analyze_pure_state_stack(s.amplitudes[None])[0]


class TestAnalyzePureState:
    def test_antisymmetric_superposition_is_maximally_entangled(self):
        report = analyze(StateVector([0, INV_SQRT2, -INV_SQRT2, 0]))
        assert report.concurrence == pytest.approx(1.0, abs=1e-12)
        assert report.is_entangled
        # Computed without the cancellation of sqrt(1 - C^2) at C ~ 1, the
        # coefficients are as exact as C itself.
        assert report.schmidt_coefficients == pytest.approx(
            (INV_SQRT2, INV_SQRT2), abs=1e-15
        )

    def test_basis_state_is_product(self):
        report = analyze(StateVector([1, 0, 0, 0]))
        assert report.concurrence == 0
        assert not report.is_entangled
        assert report.schmidt_coefficients == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_rejects_single_qubit_state(self):
        with pytest.raises(ValueError, match="two-qubit"):
            analyze(StateVector([1, 0]))

    def test_odd_circuit_outputs_are_maximally_entangled(self):
        for f in enumerate_functions():
            if classify(f).parity is not Parity.ODD:
                continue
            report = analyze(run_even_odd(f).final_state)
            assert report.concurrence == pytest.approx(1.0, abs=1e-10), f.to_string()
            assert report.is_entangled
            assert report.reduced_purity_q2 == pytest.approx(0.5, abs=1e-10)

    def test_even_circuit_outputs_are_product_states(self):
        for f in enumerate_functions():
            if classify(f).parity is not Parity.EVEN:
                continue
            report = analyze(run_even_odd(f).final_state)
            assert report.concurrence == pytest.approx(0.0, abs=1e-10), f.to_string()
            assert not report.is_entangled
            assert report.reduced_purity_q2 == pytest.approx(1.0, abs=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_product_states_have_zero_concurrence(self, seed):
        rng = np.random.default_rng(seed)
        first = random_state(rng, 2)
        second = random_state(rng, 2)
        product = StateVector(np.kron(first.amplitudes, second.amplitudes))
        assert analyze(product).concurrence < 1e-10

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_report_internal_consistency(self, seed):
        # Schmidt route and partial-trace route must agree:
        # purity = 1 - C^2/2, purities of the two sides equal,
        # concurrence = 2 * product of Schmidt coefficients.
        report = analyze(random_state(np.random.default_rng(seed)))
        lam1, lam2 = report.schmidt_coefficients
        assert lam1 >= lam2 >= 0
        assert lam1**2 + lam2**2 == pytest.approx(1.0, abs=1e-10)
        assert report.concurrence == pytest.approx(2 * lam1 * lam2, abs=1e-10)
        assert report.is_entangled == (report.concurrence > 1e-10)
        assert report.reduced_purity_q1 == pytest.approx(
            report.reduced_purity_q2, abs=1e-10
        )
        assert report.reduced_purity_q2 == pytest.approx(
            1.0 - report.concurrence**2 / 2.0, abs=1e-10
        )


def random_unitary(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@st.composite
def two_qubit_amplitudes(draw):
    """Random states, and states within a small distance of a product state
    or of a maximally entangled one, where a cancelling formula loses digits."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "near_product", "near_maximal"]))
    noise = 10.0 ** draw(st.floats(-16, -2)) * (
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    )
    if kind == "random":
        matrix = noise / np.abs(noise).max()
    elif kind == "near_product":
        matrix = np.outer(random_unitary(rng)[0], random_unitary(rng)[0]) + noise
    else:
        matrix = random_unitary(rng) / np.sqrt(2.0) + noise
    amplitudes = matrix.reshape(4)
    return amplitudes / np.linalg.norm(amplitudes)


def svd_schmidt(amplitudes) -> tuple[float, float]:
    return tuple(np.linalg.svd(np.reshape(amplitudes, (2, 2)), compute_uv=False).tolist())


class TestSchmidtCoefficients:
    @given(two_qubit_amplitudes())
    @settings(max_examples=300, deadline=None)
    def test_agree_with_svd(self, amplitudes):
        report = analyze(StateVector(amplitudes))
        assert report.schmidt_coefficients == pytest.approx(svd_schmidt(amplitudes), abs=1e-14)

    def test_circuit_outputs_have_exact_coefficients(self):
        for f in enumerate_functions():
            final = run_even_odd(f).final_state
            coefficients = analyze(final).schmidt_coefficients
            expected = (1.0, 0.0) if classify(f).parity is Parity.EVEN else (INV_SQRT2,) * 2
            assert coefficients == pytest.approx(expected, abs=1e-15), f.to_string()
            assert coefficients == pytest.approx(svd_schmidt(final.amplitudes), abs=1e-15)


def analysis_by_matrix_products(amps) -> np.ndarray:
    """The analysis as it was formed before the entrywise forms, kept as the reference: the
    reduced matrices by ``np.einsum`` and each purity as the trace of a stacked ``r @ r``.
    Rows: concurrence, the Schmidt pair and the two purities, one column per state."""
    m = amps.reshape(-1, 2, 2)
    concurrence = 2.0 * np.abs(m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0])
    reduced1 = np.einsum("nak,nbk->nab", m, m.conj())
    reduced2 = np.einsum("nka,nkb->nab", m, m.conj())
    norm = reduced1.trace(axis1=1, axis2=2).real
    p, q = reduced1[:, 0, 0].real / norm, np.abs(reduced1[:, 0, 1]) / norm
    lam1 = np.sqrt((1.0 + np.hypot(2.0 * p - 1.0, 2.0 * q)) / 2.0)
    lam2 = concurrence / (2.0 * norm * lam1)
    purity1, purity2 = ((r @ r).trace(axis1=1, axis2=2).real for r in (reduced1, reduced2))
    return np.array([concurrence, lam1, lam2, purity1, purity2])


def analysis_columns(amps) -> np.ndarray:
    """The package's analysis in the reference's layout."""
    c = analyze_pure_state_stack(amps).columns
    pairs = np.array(c["schmidt_coefficients"]).T
    return np.array([c["concurrence"], *pairs, c["reduced_purity_q1"], c["reduced_purity_q2"]])


class TestEntrywiseForms:
    """The entrywise reduced matrices and purities against the matrix products they replace."""

    def sweep_finals(self) -> np.ndarray:
        sweep = run_even_odd_sweep(enumerate_functions(), *even_odd_gates())
        return np.asarray(sweep.columns["final_state"])

    def test_sweep_states_bit_for_bit(self):
        # As uint64 views, so a zero's sign counts too.
        finals = self.sweep_finals()
        for amps in [finals, *(finals[k:k + 1] for k in range(16))]:
            ours, reference = analysis_columns(amps), analysis_by_matrix_products(amps)
            assert ours.view(np.uint64).tolist() == reference.view(np.uint64).tolist()

    def test_random_states_within_one_part_in_1e15(self):
        rng = np.random.default_rng(20000)
        raw = rng.standard_normal((20000, 4)) + 1j * rng.standard_normal((20000, 4))
        amps = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        ours, reference = analysis_columns(amps), analysis_by_matrix_products(amps)
        assert np.abs(ours - reference).max() <= 1e-15


class TestIsIdempotent:
    """The idempotency test on stacks of one matrix."""

    def reduced_final(self, f):
        rho = density_from_state_stack(run_even_odd(f).final_state.amplitudes[None])
        return partial_trace_stack(rho, 2)

    def test_odd_reduced_matrix_is_not_idempotent(self):
        f = enumerate_functions()[1]  # 0001, an odd function
        assert not is_idempotent_stack(self.reduced_final(f))[0]

    def test_even_reduced_matrix_is_idempotent(self):
        f = enumerate_functions()[0]  # 0000, an even function
        assert is_idempotent_stack(self.reduced_final(f))[0]

    def test_pure_projector_is_idempotent(self):
        assert is_idempotent_stack(np.diag([1.0, 0.0])[None])[0]

    def test_mixed_state_is_not_idempotent(self):
        assert not is_idempotent_stack((np.eye(4) / 4)[None])[0]
