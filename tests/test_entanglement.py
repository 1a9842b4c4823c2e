"""Concurrence, Schmidt coefficients and idempotency checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qparity import (
    DensityMatrix,
    Parity,
    StateVector,
    analyze_pure_state,
    basis_state,
    classify,
    density_from_state,
    enumerate_functions,
    is_idempotent,
    partial_trace,
    run_even_odd,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def random_state(rng, n=4) -> StateVector:
    raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return StateVector(raw / np.linalg.norm(raw))


class TestAnalyzePureState:
    def test_antisymmetric_superposition_is_maximally_entangled(self):
        report = analyze_pure_state(StateVector([0, INV_SQRT2, -INV_SQRT2, 0]))
        assert report.concurrence == pytest.approx(1.0, abs=1e-12)
        assert report.is_entangled
        # Computed without the cancellation of sqrt(1 - C^2) at C ~ 1, the
        # coefficients are as exact as C itself.
        assert report.schmidt_coefficients == pytest.approx(
            (INV_SQRT2, INV_SQRT2), abs=1e-15
        )

    def test_basis_state_is_product(self):
        report = analyze_pure_state(basis_state("00"))
        assert report.concurrence == 0
        assert not report.is_entangled
        assert report.schmidt_coefficients == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_rejects_single_qubit_state(self):
        with pytest.raises(ValueError, match="two-qubit"):
            analyze_pure_state(basis_state("0"))

    def test_odd_circuit_outputs_are_maximally_entangled(self):
        for f in enumerate_functions():
            if classify(f).parity is not Parity.ODD:
                continue
            report = analyze_pure_state(run_even_odd(f).final_state)
            assert report.concurrence == pytest.approx(1.0, abs=1e-10), f.to_string()
            assert report.is_entangled
            assert report.reduced_purity_q2 == pytest.approx(0.5, abs=1e-10)

    def test_even_circuit_outputs_are_product_states(self):
        for f in enumerate_functions():
            if classify(f).parity is not Parity.EVEN:
                continue
            report = analyze_pure_state(run_even_odd(f).final_state)
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
        assert analyze_pure_state(product).concurrence < 1e-10

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_report_internal_consistency(self, seed):
        # Schmidt route and partial-trace route must agree:
        # purity = 1 - C^2/2, purities of the two sides equal,
        # concurrence = 2 * product of Schmidt coefficients.
        report = analyze_pure_state(random_state(np.random.default_rng(seed)))
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
        report = analyze_pure_state(StateVector(amplitudes))
        assert report.schmidt_coefficients == pytest.approx(svd_schmidt(amplitudes), abs=1e-14)

    def test_circuit_outputs_have_exact_coefficients(self):
        for f in enumerate_functions():
            final = run_even_odd(f).final_state
            coefficients = analyze_pure_state(final).schmidt_coefficients
            expected = (1.0, 0.0) if classify(f).parity is Parity.EVEN else (INV_SQRT2,) * 2
            assert coefficients == pytest.approx(expected, abs=1e-15), f.to_string()
            assert coefficients == pytest.approx(svd_schmidt(final.amplitudes), abs=1e-15)


class TestIsIdempotent:
    def odd_reduced(self):
        f = enumerate_functions()[1]  # 0001, an odd function
        rho = density_from_state(run_even_odd(f).final_state)
        return partial_trace(rho, 2)

    def test_odd_reduced_matrix_is_not_idempotent(self):
        assert not is_idempotent(self.odd_reduced())

    def test_even_reduced_matrix_is_idempotent(self):
        f = enumerate_functions()[0]  # 0000, an even function
        rho = density_from_state(run_even_odd(f).final_state)
        assert is_idempotent(partial_trace(rho, 2))

    def test_pure_projector_is_idempotent(self):
        assert is_idempotent(DensityMatrix(np.diag([1.0, 0.0])))

    def test_mixed_state_is_not_idempotent(self):
        assert not is_idempotent(DensityMatrix(np.eye(4) / 4))
