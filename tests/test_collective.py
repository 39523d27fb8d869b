import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohentropy import (
    RatioUndefined,
    analytic_steady_state,
    asymptotic_state,
    collective_coupling,
    degeneracy_table,
    delta_C_h_limit,
    entropy_production_ratio,
    flat_bath,
    state_functionals,
    thermal_state_of,
)
from cohentropy.collective import SpinEnsembleSpec, local_couplings, spin_matrices, _embed
from cohentropy.lindblad import build_generator
from conftest import dephase_diagonal, von_neumann_entropy


def enumerate_multiplicities(n: int, s: float) -> dict[float, int]:
    """Brute-force I_m: count product states by total magnetization."""
    local = [m - s for m in range(int(round(2 * s + 1)))]
    counts: dict[float, int] = {}
    for combo in itertools.product(local, repeat=n):
        m = round(sum(combo) * 2) / 2
        counts[m] = counts.get(m, 0) + 1
    return counts


def total_spin_operators(spec):
    """Dense J^2 = J+ J- + J_z^2 - J_z and J_z of the ensemble, from the one-spin matrices."""
    jz, jp, _ = spin_matrices(spec.s)
    d = spec.local_dim
    Jz = sum(_embed(jz, k, spec.n, d) for k in range(spec.n))
    Jp = sum(_embed(jp, k, spec.n, d) for k in range(spec.n))
    return Jp @ Jp.conj().T + Jz @ Jz - Jz, Jz


class TestDegeneracyTable:
    def test_two_spins_half(self):
        table = degeneracy_table(SpinEnsembleSpec(2, 0.5))
        assert dict(zip(table.J_values, table.l_J)) == {1.0: 1, 0.0: 1}
        assert dict(zip(table.m_values, table.I_m)) == {-1.0: 1, 0.0: 2, 1.0: 1}

    def test_three_spins_half(self):
        table = degeneracy_table(SpinEnsembleSpec(3, 0.5))
        assert dict(zip(table.J_values, table.l_J)) == {1.5: 1, 0.5: 2}
        assert dict(zip(table.m_values, table.I_m))[0.5] == 3

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
            eigs = np.linalg.eigvalsh(total_spin_operators(spec)[0])
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


class TestProjectorSteadyState:
    @pytest.mark.parametrize("n,s", [(2, 0.5), (3, 0.5), (4, 0.5), (2, 1.0)])
    def test_commutes_and_is_block_thermal(self, n, s):
        """rho commutes with J^2 and J_z and is p_J e^(-w m b_B)/Z_J on each (J, m) eigenspace."""
        spec = SpinEnsembleSpec(n, s, omega=1.3)
        b0, bb = 2.0, 0.7
        rho = analytic_steady_state(spec, b0, bb).elements
        j2, jz = total_spin_operators(spec)
        assert np.max(np.abs(rho @ j2 - j2 @ rho)) < 1e-12
        assert np.max(np.abs(rho @ jz - jz @ rho)) < 1e-12

        def z(j, beta):
            return sum(math.exp(-spec.omega * m * beta) for m in np.arange(-j, j + 1.0))

        lam, vecs = np.linalg.eigh(j2)
        j_of = np.rint(np.sqrt(1.0 + 4.0 * lam) - 1.0) / 2.0
        mz = np.diag(jz).real
        table = degeneracy_table(spec)
        covered = 0
        for j, l in zip(table.J_values, table.l_J):
            p_j = vecs[:, j_of == j] @ vecs[:, j_of == j].conj().T
            p_weight = z(j, b0) / z(s, b0) ** n
            for m in np.arange(-j, j + 1.0):
                sector = np.diag((mz == m).astype(float))
                proj = sector @ p_j @ sector
                assert round(np.trace(proj).real) == l
                weight = p_weight * math.exp(-spec.omega * m * bb) / z(j, bb)
                assert np.max(np.abs(rho @ proj - weight * proj)) < 1e-12
                covered += l
        assert covered == spec.dim


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
        assert np.max(np.abs(gen.apply(state.elements))) <= 1e-9
        f = state_functionals(state.elements, els, 0.0)
        assert f.C_v <= 1e-10
        assert f.C_h > 1e-6  # beta_0 != +-beta_B

    @pytest.mark.parametrize("n", [2, 3])
    def test_diagonal_cut_weights_in_polarized_limit(self, n):
        """Appendix-level oracle: diagonal weights e^(-w m b)/(Z_ns I_m)."""
        spec = SpinEnsembleSpec(n, 0.5)
        els = collective_coupling(spec).level_structure()
        state = analytic_steady_state(spec, 50.0, 1.0)
        diag = np.diag(dephase_diagonal(state, els).elements).real
        table = degeneracy_table(spec)
        z = sum(math.exp(-m * 1.0) for m in table.m_values)
        i_m = dict(zip(table.m_values, table.I_m))
        local = spec.local_m_values()
        for idx, combo in enumerate(itertools.product(local, repeat=n)):
            m = sum(combo)
            expect = math.exp(-m * 1.0) / (z * i_m[m])
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
        c_h = state_functionals(state.elements, els, 0.0).C_h
        assert -c_h == pytest.approx(delta_C_h_limit(spec, 1.0), abs=1e-3)


class TestEntropyProductionRatio:
    def test_undefined_at_equal_temperatures(self):
        with pytest.raises(RatioUndefined):
            entropy_production_ratio(SpinEnsembleSpec(2, 0.5), 1.0, 1.0)

    @pytest.mark.parametrize("n,target", [(2, 2.0), (4, 4.0), (10, 10.0), (100, 100.0)])
    def test_asymptote_is_spin_count(self, n, target):
        _, _, ratio = entropy_production_ratio(SpinEnsembleSpec(n, 0.5), 50.0, 6.0)
        assert ratio == pytest.approx(target, rel=0.05)

    def test_matrix_level_oracle(self):
        """Recompute both productions from explicit states."""
        b0, bb = 50.0, 1.0

        def s_and_e(rho, h):
            return von_neumann_entropy(rho), float(np.trace(rho.elements @ h).real)

        for n, s in ((2, 0.5), (3, 0.5), (4, 0.5), (2, 1.0)):
            spec = SpinEnsembleSpec(n, s)
            els = collective_coupling(spec).level_structure()
            h = els.hamiltonian().elements
            s0, e0 = s_and_e(thermal_state_of(els, b0), h)
            s_th, e_th = s_and_e(thermal_state_of(els, bb), h)
            s_col, e_col = s_and_e(analytic_steady_state(spec, b0, bb), h)
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
        rho0 = thermal_state_of(els, 50.0)
        d0 = state_functionals(rho0.elements, els, 1.0).D_th
        d_col = state_functionals(analytic_steady_state(spec, 50.0, 1.0).elements, els, 1.0).D_th
        minus_delta_col = -(d_col - d0)
        minus_delta_ind = -(0.0 - d0)  # independent relaxes to thermal: D_th(inf) = 0
        assert minus_delta_col < minus_delta_ind
        assert d_col > 1e-6


# Unit covariance: scaling every energy by K (omega and gamma by K, each beta by 1/K) must
# leave every dimensionless output as it is and scale the others by K to their energy
# exponent; K a power of two keeps the scaled inputs exact.
K = 2.0
CSV_EXPONENTS = {"t": -1, "S": 0, "C_v": 0, "C_h": 0, "D_th": 0, "E_S": 1, "F_D": 1,
                 "Pi_rate": 1, "Phi_rate": 1, "rate_C_v": 1, "rate_C_h": 1, "rate_D_th": 1}
SUMMARY_EXPONENTS = {"omega": 1, "beta_0": -1, "beta_B": -1, "gamma": 1, "max_rate_C_h": 1}
COVARIANCE_RTOL = 1e-11  # of each column's largest magnitude; 9.2e-14 measured at the shipped values


def _summary_numbers(text: str) -> tuple[dict[str, float], list[str], np.ndarray]:
    """The numeric ``key: value`` lines, the verdict lines and the ratio table of a summary."""
    head, rest = text.split("beta_B_omega,Pi_th,Pi_col,ratio\n")
    table, tail = rest.split("ratio_at_top", 1)
    numbers, verdicts = {}, []
    for line in (head + "ratio_at_top" + tail).splitlines():
        key, sep, value = line.partition(": ")
        if sep and not key.startswith("#"):
            try:
                numbers[key] = float(value)
            except ValueError:
                verdicts.append(line)
    rows = np.array([[float(x) for x in row.split(",")] for row in table.splitlines()])
    return numbers, verdicts, rows


def _assert_scaled(got: np.ndarray, ref: np.ndarray, exponent: int, what: str) -> None:
    scale = COVARIANCE_RTOL * max(np.max(np.abs(ref)), np.finfo(float).tiny)
    np.testing.assert_allclose(got, ref * K**exponent, rtol=0, atol=scale, err_msg=what)


@pytest.mark.parametrize("n, beta_0", [(2, 50.0), (3, 2.0)])
def test_collective_run_is_unit_covariant(n, beta_0):
    """The collective run at energy unit K against unit 1: the shipped n = 2 run, and n = 3
    at beta_0 = 2, where a sweep started from beta_0 omega^2 flipped the ratio verdict."""
    from cohentropy.scenarios import CollectiveConfig

    ref = CollectiveConfig(n=n, beta_0=beta_0).run()
    got = CollectiveConfig(n=n, omega=K, beta_0=beta_0 / K, beta_B=1.0 / K, gamma=0.1 * K).run()

    ref_lines, got_lines = ref.csv_text.splitlines(), got.csv_text.splitlines()
    assert got_lines[0] == ref_lines[0]
    header = ref_lines[0].split(",")
    ref_rows = [line.split(",") for line in ref_lines[1:]]
    got_rows = [line.split(",") for line in got_lines[1:]]
    assert [r[-1] for r in got_rows] == [r[-1] for r in ref_rows]  # the flags
    for j, name in enumerate(header[:-1]):
        column = [float(r[j]) for r in ref_rows]
        _assert_scaled(np.array([float(r[j]) for r in got_rows]), np.array(column),
                       CSV_EXPONENTS[name], name)

    ref_numbers, ref_verdicts, ref_table = _summary_numbers(ref.summary_text)
    got_numbers, got_verdicts, got_table = _summary_numbers(got.summary_text)
    assert got_verdicts == ref_verdicts
    assert got_numbers.keys() == ref_numbers.keys()
    for key, value in ref_numbers.items():
        _assert_scaled(np.array(got_numbers[key]), np.array(value), SUMMARY_EXPONENTS.get(key, 0), key)
    _assert_scaled(got_table, ref_table, 0, "ratio table")  # beta_B omega and the ratios
