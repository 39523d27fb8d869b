import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohentropy import (
    RatioUndefined,
    analytic_steady_state,
    asymptotic_state,
    coherence_measures,
    collective_coupling,
    coupled_basis,
    degeneracy_table,
    delta_C_h_limit,
    dephase_diagonal,
    entropy_production_ratio,
    flat_bath,
    thermal_state_of,
    von_neumann_entropy,
)
from cohentropy.collective import SpinEnsembleSpec, local_couplings, spin_matrices, _embed
from cohentropy.lindblad import build_generator


def enumerate_multiplicities(n: int, s: float) -> dict[float, int]:
    """Brute-force I_m: count product states by total magnetization."""
    local = [m - s for m in range(int(round(2 * s + 1)))]
    counts: dict[float, int] = {}
    for combo in itertools.product(local, repeat=n):
        m = round(sum(combo) * 2) / 2
        counts[m] = counts.get(m, 0) + 1
    return counts


class TestDegeneracyTable:
    def test_two_spins_half(self):
        table = degeneracy_table(SpinEnsembleSpec(2, 0.5))
        assert dict(zip(table.J_values, table.l_J)) == {1.0: 1, 0.0: 1}
        assert table.multiplicity(0.0) == 2
        assert table.multiplicity(1.0) == 1 and table.multiplicity(-1.0) == 1

    def test_three_spins_half(self):
        table = degeneracy_table(SpinEnsembleSpec(3, 0.5))
        assert dict(zip(table.J_values, table.l_J)) == {1.5: 1, 0.5: 2}
        assert table.multiplicity(0.5) == 3

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 6), st.sampled_from([0.5, 1.0, 1.5]))
    def test_against_enumeration(self, n, s):
        spec = SpinEnsembleSpec(n, s)
        if spec.dim > 4096:
            return
        table = degeneracy_table(spec)
        brute = enumerate_multiplicities(n, s)
        for m, count in zip(table.m_values, table.I_m):
            assert brute.get(m, 0) == count
        assert sum(table.I_m) == spec.dim

    def test_l_J_against_total_spin_eigenvalues(self):
        """Oracle: diagonalize J^2 and count eigenvalue multiplicities."""
        for n, s in ((2, 0.5), (3, 0.5), (2, 1.0)):
            spec = SpinEnsembleSpec(n, s)
            jz, jp, jm = spin_matrices(s)
            d = spec.local_dim
            Jz = sum(_embed(jz, k, n, d) for k in range(n))
            Jp = sum(_embed(jp, k, n, d) for k in range(n))
            j2 = Jp @ Jp.conj().T + Jz @ Jz - Jz
            eigs = np.linalg.eigvalsh(j2)
            table = degeneracy_table(spec)
            for j, l in zip(table.J_values, table.l_J):
                count = int(np.sum(np.abs(eigs - j * (j + 1)) < 1e-8))
                assert count == l * int(round(2 * j + 1))


class TestCollectiveCoupling:
    def test_single_spin_is_sigma_x(self):
        system = collective_coupling(SpinEnsembleSpec(1, 0.5))
        assert np.allclose(system.A_S.elements, [[0, 1], [1, 0]], atol=1e-14)

    def test_hamiltonian_eigenvalues_are_omega_m(self):
        system = collective_coupling(SpinEnsembleSpec(2, 0.5, omega=1.3))
        eigs = np.sort(np.linalg.eigvalsh(system.H_S.elements))
        assert np.allclose(eigs, [-1.3, 0.0, 0.0, 1.3], atol=1e-12)

    def test_jump_operator_is_collective_lowering(self, two_qubit_collective):
        """Explicit 4x4 algebra: A(w) = J_- and it annihilates the singlet."""
        _, system, els, _ = two_qubit_collective
        from cohentropy import eigenoperators
        jumps = eigenoperators(system.A_S, els)
        a = dict(zip(jumps.frequencies, jumps.operators))[1.0]
        _, jp, jm = spin_matrices(0.5)
        j_minus = _embed(jm, 0, 2, 2) + _embed(jm, 1, 2, 2)
        assert np.allclose(a, j_minus, atol=1e-13)
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
        assert np.max(np.abs(a @ singlet)) < 1e-13


class TestCoupledBasis:
    @pytest.mark.parametrize("n,s", [(2, 0.5), (3, 0.5), (4, 0.5), (2, 1.0)])
    def test_blocks_diagonalize_j2_and_jz(self, n, s):
        spec = SpinEnsembleSpec(n, s)
        jz, jp, jm = spin_matrices(s)
        d = spec.local_dim
        Jz = sum(_embed(jz, k, n, d) for k in range(n))
        Jp = sum(_embed(jp, k, n, d) for k in range(n))
        j2 = Jp @ Jp.conj().T + Jz @ Jz - Jz
        for block in coupled_basis(spec):
            for row, m in enumerate(np.arange(block.J, -block.J - 1e-9, -1.0)):
                v = block.states[row]
                assert np.max(np.abs(j2 @ v - block.J * (block.J + 1) * v)) < 1e-10
                assert np.max(np.abs(Jz @ v - m * v)) < 1e-10


class TestAnalyticSteadyState:
    def test_thermal_reached_for_matching_temperatures(self, two_qubit_collective):
        spec, _, els, _ = two_qubit_collective
        rho_th = thermal_state_of(els, 1.0)
        for b0 in (1.0, -1.0):
            state = analytic_steady_state(spec, b0, 1.0)
            assert np.max(np.abs(state.elements - rho_th.elements)) < 1e-12

    def test_matches_lindblad_projection(self, two_qubit_collective):
        spec, _, els, gen = two_qubit_collective
        for b0 in (50.0, -50.0, 2.0):
            asym = asymptotic_state(gen, thermal_state_of(els, b0))
            ana = analytic_steady_state(spec, b0, 1.0)
            assert np.max(np.abs(asym.elements - ana.elements)) < 1e-6

    def test_stationary_and_coherence_structure(self, two_qubit_collective):
        spec, _, els, gen = two_qubit_collective
        state = analytic_steady_state(spec, 2.0, 1.0)
        assert np.max(np.abs(gen.apply(state))) <= 1e-9
        c_v, c_h = coherence_measures(state, els)
        assert c_v <= 1e-10
        assert c_h > 1e-6  # beta_0 != +-beta_B

    @pytest.mark.parametrize("n", [2, 3])
    def test_diagonal_cut_weights_in_polarized_limit(self, n):
        """Appendix-level oracle: diagonal weights e^(-w m b)/(Z_ns I_m)."""
        spec = SpinEnsembleSpec(n, 0.5)
        els = collective_coupling(spec).level_structure()
        state = analytic_steady_state(spec, 50.0, 1.0)
        diag = np.diag(dephase_diagonal(state, els).elements).real
        table = degeneracy_table(spec)
        z = sum(math.exp(-m * 1.0) for m in table.m_values)
        local = spec.local_m_values()
        for idx, combo in enumerate(itertools.product(local, repeat=n)):
            m = sum(combo)
            expect = math.exp(-m * 1.0) / (z * table.multiplicity(m))
            assert diag[idx] == pytest.approx(expect, abs=1e-6)


class TestDeltaChLimit:
    def test_single_spin_vanishes(self):
        assert delta_C_h_limit(SpinEnsembleSpec(1, 0.5), 1.0) == 0.0

    def test_hand_derived_sum(self):
        # n=2, beta_B=0: uniform weights over m in {-1,0,1}, only I_0 = 2 contributes
        val = delta_C_h_limit(SpinEnsembleSpec(2, 0.5), 0.0)
        assert val == pytest.approx(-math.log(2) / 3, abs=1e-12)
        assert val == pytest.approx(-0.2310, abs=5e-5)

    def test_always_nonpositive(self):
        for n in (1, 2, 3, 4):
            for bb in (0.0, 0.5, 2.0):
                assert delta_C_h_limit(SpinEnsembleSpec(n, 0.5), bb) <= 0.0

    @pytest.mark.parametrize("b0", [50.0, -50.0])
    def test_cross_module_consistency(self, b0, two_qubit_collective):
        spec, _, els, _ = two_qubit_collective
        state = analytic_steady_state(spec, b0, 1.0)
        _, c_h = coherence_measures(state, els)
        assert -c_h == pytest.approx(delta_C_h_limit(spec, 1.0), abs=1e-3)


class TestEntropyProductionRatio:
    def test_undefined_at_equal_temperatures(self):
        with pytest.raises(RatioUndefined):
            entropy_production_ratio(SpinEnsembleSpec(2, 0.5), 1.0, 1.0)

    @pytest.mark.parametrize("n,target", [(2, 2.0), (4, 4.0), (10, 10.0)])
    def test_asymptote_is_spin_count(self, n, target):
        _, _, ratio = entropy_production_ratio(SpinEnsembleSpec(n, 0.5), 50.0, 6.0)
        assert ratio == pytest.approx(target, rel=0.05)

    def test_matrix_level_oracle(self, two_qubit_collective):
        """Recompute both productions from explicit states for n=2."""
        spec, _, els, _ = two_qubit_collective
        b0, bb = 50.0, 1.0
        h = els.hamiltonian().elements
        rho0 = thermal_state_of(els, b0)
        rho_th = thermal_state_of(els, bb)
        rho_col = analytic_steady_state(spec, b0, bb)

        def s_and_e(rho):
            return von_neumann_entropy(rho), float(np.trace(rho.elements @ h).real)

        s0, e0 = s_and_e(rho0)
        s_th, e_th = s_and_e(rho_th)
        s_col, e_col = s_and_e(rho_col)
        pi_th, pi_col, ratio = entropy_production_ratio(spec, b0, bb)
        assert pi_th == pytest.approx((s_th - s0) - bb * (e_th - e0), abs=1e-10)
        assert pi_col == pytest.approx((s_col - s0) - bb * (e_col - e0), abs=1e-10)

    def test_independent_dissipation_reaches_thermal(self, two_qubit_collective):
        """The independent baseline relaxes to the full thermal state."""
        spec, _, els, _ = two_qubit_collective
        gen = build_generator(local_couplings(spec), els, flat_bath(0.1, 1.0))
        final = asymptotic_state(gen, thermal_state_of(els, 50.0))
        assert np.max(np.abs(final.elements - thermal_state_of(els, 1.0).elements)) < 1e-9

    def test_collective_keeps_larger_population_distance(self, two_qubit_collective):
        """-d(inf)D_th is strictly smaller for collective dissipation."""
        spec, _, els, _ = two_qubit_collective
        from cohentropy import state_functionals
        rho0 = thermal_state_of(els, 50.0)
        d0 = state_functionals(rho0, els, 1.0).D_th
        d_col = state_functionals(analytic_steady_state(spec, 50.0, 1.0), els, 1.0).D_th
        minus_delta_col = -(d_col - d0)
        minus_delta_ind = -(0.0 - d0)  # independent relaxes to thermal: D_th(inf) = 0
        assert minus_delta_col < minus_delta_ind
        assert d_col > 1e-6
