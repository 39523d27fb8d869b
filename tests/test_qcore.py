import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohentropy import (
    DensityMatrix,
    HermitianObservable,
    InvariantViolation,
    ShapeMismatch,
    build_level_structure,
    state_functionals,
)
from cohentropy.qcore import max_admissible_amplitude, trace_distance
from conftest import (
    matrix_log_on_support,
    partial_trace,
    random_density,
    relative_entropy,
    thermal_state,
)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
        with pytest.raises(InvariantViolation, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvariantViolation, match="trace"):
            DensityMatrix(np.diag([0.7, 0.7]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvariantViolation, match="eigenvalue"):
            DensityMatrix(np.diag([1.2, -0.2]))


class TestTraceDistance:
    def test_stack_equals_pairs(self):
        """One stacked eigvalsh gives each pair bitwise its own (1/2) ||a - b||_1."""
        a = np.array([random_density(3, seed) for seed in range(6)])
        b = np.array([random_density(3, seed, rank=1) for seed in range(6, 12)])
        pairs = [0.5 * np.sum(np.abs(np.linalg.eigvalsh(x - y))) for x, y in zip(a, b)]
        assert trace_distance(a, b).tobytes() == np.array(pairs).tobytes()
        assert trace_distance(a[:1], a[:1]).tolist() == [0.0]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            trace_distance(np.eye(2)[None] / 2, np.eye(3)[None] / 3)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S from the spectral kernel, in a nondegenerate structure of the state's dimension."""
    els = build_level_structure(HermitianObservable(np.diag(np.arange(rho.dim, dtype=float))))
    return state_functionals(rho.elements, els, 0.0).S


class TestVonNeumannEntropy:
    def test_maximally_mixed_qubit(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert von_neumann_entropy(rho) == pytest.approx(math.log(2), abs=1e-12)

    def test_pure_state_projector(self):
        v = np.array([1.0, 1.0j]) / math.sqrt(2)
        rho = DensityMatrix(np.outer(v, v.conj()))
        assert abs(von_neumann_entropy(rho)) < 1e-12

    def test_two_point_distribution(self):
        # scalar oracle: -(0.9 ln 0.9 + 0.1 ln 0.1)
        expected = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        assert expected == pytest.approx(0.325083, abs=1e-6)
        rho = DensityMatrix(np.diag([0.9, 0.1]))
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_range(self, seed, dim):
        rho = DensityMatrix(random_density(dim, seed))
        s = von_neumann_entropy(rho)
        assert -1e-12 <= s <= math.log(dim) + 1e-12


class TestRelativeEntropy:
    def test_identical_arguments(self):
        rho = DensityMatrix(random_density(3, 5))
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_pure_versus_mixed(self):
        sigma = DensityMatrix(np.diag([1.0, 0.0]))
        rho = DensityMatrix(np.eye(2) / 2)
        assert relative_entropy(sigma, rho) == pytest.approx(math.log(2), abs=1e-12)

    def test_support_mismatch_is_infinite(self):
        sigma = DensityMatrix(np.eye(2) / 2)
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        assert relative_entropy(sigma, rho) == math.inf

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 6))
    def test_nonnegative_with_equality_iff_equal(self, seed, dim):
        sigma = DensityMatrix(random_density(dim, seed))
        rho = DensityMatrix(random_density(dim, seed + 1))
        val = relative_entropy(sigma, rho)
        assert val >= -1e-10
        close = np.max(np.abs(sigma.elements - rho.elements)) <= 1e-9
        assert close == (val <= 1e-9)

    def test_near_equal_pair_is_near_zero(self):
        rho = DensityMatrix(random_density(4, 8))
        bump = np.zeros((4, 4), dtype=complex)
        bump[0, 1] = bump[1, 0] = 5e-10
        sigma = DensityMatrix(rho.elements + bump)
        assert np.max(np.abs(sigma.elements - rho.elements)) <= 1e-9
        assert relative_entropy(sigma, rho) <= 1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_contracts_under_partial_trace(self, seed):
        dims = (2, 3)
        sigma = DensityMatrix(random_density(6, seed))
        rho = DensityMatrix(random_density(6, seed + 7))
        joint = relative_entropy(sigma, rho)
        local = relative_entropy(
            partial_trace(sigma, dims, "A"), partial_trace(rho, dims, "A")
        )
        assert joint >= local - 1e-10


class TestThermalState:
    def test_infinite_temperature(self):
        H = HermitianObservable(np.diag([0.0, 1.0, 3.0]))
        rho = thermal_state(H, 0.0)
        assert np.allclose(rho.elements, np.eye(3) / 3, atol=1e-14)

    def test_zero_temperature_limit(self):
        H = HermitianObservable(np.diag([0.0, 1.0]))
        rho = thermal_state(H, 1e4)  # beta * spread >> 700
        assert np.allclose(rho.elements, np.diag([1.0, 0.0]), atol=1e-300)

    def test_qubit_gibbs_weights(self):
        H = HermitianObservable(np.diag([0.0, 1.0]))
        rho = thermal_state(H, 1.0)
        z = 1 + math.exp(-1)
        assert rho.elements[0, 0].real == pytest.approx(1 / z, abs=1e-14)
        assert rho.elements[1, 1].real == pytest.approx(math.exp(-1) / z, abs=1e-14)

    def test_negative_beta_inverts_populations(self):
        H = HermitianObservable(np.diag([0.0, 1.0]))
        rho = thermal_state(H, -2.0)
        assert rho.elements[1, 1].real > rho.elements[0, 0].real

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.floats(-5, 5))
    def test_commutes_with_hamiltonian(self, seed, beta):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        H = HermitianObservable(0.5 * (g + g.conj().T))
        rho = thermal_state(H, beta)
        comm = H.elements @ rho.elements - rho.elements @ H.elements
        assert np.max(np.abs(comm)) < 1e-12


class TestPartialTrace:
    def test_product_state(self):
        a = random_density(2, 1)
        b = random_density(3, 2)
        joint = DensityMatrix(np.kron(a, b))
        assert np.allclose(partial_trace(joint, (2, 3), "A").elements, a, atol=1e-14)
        assert np.allclose(partial_trace(joint, (2, 3), "B").elements, b, atol=1e-14)

    def test_bell_marginal(self):
        v = np.zeros(4)
        v[0] = v[3] = 1 / math.sqrt(2)
        joint = DensityMatrix(np.outer(v, v))
        red = partial_trace(joint, (2, 2), "A")
        assert np.allclose(red.elements, np.eye(2) / 2, atol=1e-14)

    def test_index_sum_oracle(self):
        rho = DensityMatrix(random_density(6, 33))
        # independent oracle: explicit index contraction
        r = rho.elements.reshape(2, 3, 2, 3)
        expect_a = np.zeros((2, 2), dtype=complex)
        for k in range(3):
            expect_a += r[:, k, :, k]
        got = partial_trace(rho, (2, 3), "A")
        assert np.allclose(got.elements, expect_a, atol=1e-14)
        assert got.elements.trace().real == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_trace_and_positivity_preserved(self, seed):
        rho = DensityMatrix(random_density(8, seed))
        for keep, d in (("A", 2), ("B", 4)):
            red = partial_trace(rho, (2, 4), keep)
            assert red.elements.trace().real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(red.elements)[0] >= -1e-12

    def test_incompatible_dims_raise(self):
        rho = DensityMatrix(np.eye(6) / 6)
        with pytest.raises(ShapeMismatch):
            partial_trace(rho, (4, 2), "A")


class TestMatrixLog:
    def test_scalar_matrix(self):
        rho = DensityMatrix(np.eye(4) / 4)
        log = matrix_log_on_support(rho)
        assert np.allclose(log.elements, -math.log(4) * np.eye(4), atol=1e-13)

    def test_diagonal_case(self):
        p = math.exp(-1)
        rho = DensityMatrix(np.diag([p, 1 - p]))
        log = matrix_log_on_support(rho)
        assert np.allclose(np.diag(log.elements).real, [-1.0, math.log(1 - p)], atol=1e-13)

    def test_round_trip_recovers_input(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = 0.5 * (g + g.conj().T)
        w, v = np.linalg.eigh(h)
        exp_h = (v * np.exp(w)) @ v.conj().T
        z = exp_h.trace().real
        rho = DensityMatrix(exp_h / z)
        log = matrix_log_on_support(rho)
        assert np.allclose(log.elements, h - math.log(z) * np.eye(5), atol=1e-10)

    def test_rejects_negative_input(self):
        with pytest.raises(InvariantViolation):
            matrix_log_on_support(np.diag([1.5, -0.5]).astype(complex))


class TestMaxAdmissibleAmplitude:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_boundary_of_positivity(self, seed):
        base = random_density(4, seed)
        rng = np.random.default_rng(100 + seed)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        direction = g + g.conj().T
        direction -= np.trace(direction) / 4 * np.eye(4)
        t = max_admissible_amplitude(base, direction)
        assert t > 0
        assert np.linalg.eigvalsh(base + t * direction)[0] >= 0
        assert np.linalg.eigvalsh(base + 1.001 * t * direction)[0] < 0

    def test_rejects_non_positive_base(self):
        with pytest.raises(InvariantViolation, match="not positive"):
            max_admissible_amplitude(np.diag([1.5, -0.5]).astype(complex), np.eye(2))
