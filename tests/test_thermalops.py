import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohentropy import (
    DensityMatrix,
    HermitianObservable,
    InvariantViolation,
    apply_operation,
    build_level_structure,
    conservation_report,
    divergence_witness,
    eigenoperators,
    sample_energy_conserving_unitary,
    thermal_state_of,
)
from cohentropy.qcore import max_admissible_amplitude, tensor_labels
from cohentropy.thermalops import (
    BipartiteSystem,
    EnergyConservingUnitary,
    combine_level_structures,
    horizontal_pattern,
)
from cohentropy.scenarios import (
    coherent_prepared_state,
    diagonal_prepared_state,
    parse_config,
    run_scenario_config,
)
from conftest import random_density


@pytest.fixture(scope="module")
def qubit_pair():
    els = build_level_structure(HermitianObservable(np.diag([0.0, 1.0])), labels=("g", "e"))
    return BipartiteSystem.build(els, els)


@pytest.fixture(scope="module")
def qutrit_qubit():
    els_s = build_level_structure(
        HermitianObservable(np.diag([0.0, 1.0, 1.0])), labels=("g", "e1", "e2")
    )
    els_b = build_level_structure(HermitianObservable(np.diag([0.0, 1.0])), labels=("g", "e"))
    return BipartiteSystem.build(els_s, els_b)


class TestJointStructure:
    def test_resonant_pair_has_exchange_eigenspace(self, qubit_pair):
        assert qubit_pair.joint.energies == (0.0, 1.0, 2.0)
        assert qubit_pair.joint.degeneracies == (1, 2, 1)

    def test_degenerate_qutrit_joint(self, qutrit_qubit):
        assert qutrit_qubit.joint.degeneracies == (1, 3, 2)

    def test_nonresonant_pair_all_simple(self):
        els_a = build_level_structure(HermitianObservable(np.diag([0.0, 1.0])))
        els_b = build_level_structure(HermitianObservable(np.diag([0.0, 0.4])))
        joint = combine_level_structures(els_a, els_b)
        assert joint.degeneracies == (1, 1, 1, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        levels=st.tuples(*[
            st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 2)),
                     min_size=1, max_size=3, unique_by=lambda t: t[0])
        ] * 2),
        k=st.integers(-12, 6),
        seed=st.integers(0, 10_000),
    )
    def test_joint_levels_are_the_distinct_sums(self, levels, k, seed):
        """Diagonal factors with random degeneracies at energy scale 10^k, in shuffled order."""
        rng = np.random.default_rng(seed)
        factors, ints = [], []
        for lv in levels:
            n = rng.permutation([e for e, l in lv for _ in range(l)])
            factors.append(build_level_structure(HermitianObservable(np.diag(n * 10.0**k))))
            ints.append(np.sort(n))
        els_s, els_b = factors
        joint = combine_level_structures(els_s, els_b)
        sums = Counter(int(a + b) for a in ints[0] for b in ints[1])
        assert joint.degeneracies == tuple(sums[e] for e in sorted(sums))
        assert np.allclose(joint.energies, np.array(sorted(sums)) * 10.0**k, rtol=1e-12, atol=0)
        assert joint.basis_labels == tensor_labels(els_s.basis_labels, els_b.basis_labels)
        # the basis is a column permutation of kron(V_S, V_B), energy by energy
        overlap = np.abs(np.kron(els_s.basis_vectors, els_b.basis_vectors).conj().T
                         @ joint.basis_vectors)
        perm = np.argmax(overlap, axis=0)
        assert sorted(perm) == list(range(joint.dim))
        assert np.allclose(overlap[perm, np.arange(joint.dim)], 1.0, atol=1e-14)
        product = np.add.outer(els_s.index_energies, els_b.index_energies).ravel()
        assert np.allclose(product[perm], joint.index_energies, rtol=1e-12, atol=0)


class TestSampling:
    def test_deterministic_per_seed(self, qubit_pair):
        u1 = sample_energy_conserving_unitary(qubit_pair, 42)
        u2 = sample_energy_conserving_unitary(qubit_pair, 42)
        assert np.array_equal(u1.matrix, u2.matrix)
        u3 = sample_energy_conserving_unitary(qubit_pair, 43)
        assert np.max(np.abs(u3.matrix - u1.matrix)) > 1e-3

    def test_one_dimensional_eigenspaces_give_pure_phases(self):
        els_a = build_level_structure(HermitianObservable(np.diag([0.0, 1.0])))
        els_b = build_level_structure(HermitianObservable(np.diag([0.0, 0.4])))
        sys_ = BipartiteSystem.build(els_a, els_b)
        u = sample_energy_conserving_unitary(sys_, 7)
        off = u.matrix - np.diag(np.diag(u.matrix))
        assert np.max(np.abs(off)) < 1e-13
        assert np.allclose(np.abs(np.diag(u.matrix)), 1.0, atol=1e-13)
        # all cuts invariant under a diagonal unitary acting on a diagonal state
        rho_s = DensityMatrix(np.diag([0.8, 0.2]), els_a.basis_labels)
        rho_b = thermal_state_of(els_b, 1.0)
        _, rs, rb = apply_operation(sys_, u, rho_s, rho_b)
        assert np.allclose(rs.elements, rho_s.elements, atol=1e-12)
        assert np.allclose(rb.elements, rho_b.elements, atol=1e-12)

    def test_resonant_exchange_block_mixes(self, qubit_pair):
        u = sample_energy_conserving_unitary(qubit_pair, 0)
        # the (ge, eg) block is 2-dim: generically nonzero transfer amplitude
        assert abs(u.matrix[1, 2]) > 1e-3

    def test_energy_conservation_enforced(self, qubit_pair):
        bad = np.eye(4, dtype=complex)
        bad[[0, 1]] = bad[[1, 0]]  # permutes across energy sectors
        with pytest.raises(InvariantViolation):
            EnergyConservingUnitary(matrix=bad, joint=qubit_pair.joint)


class TestApplyOperation:
    def test_identity_changes_nothing(self, qubit_pair):
        u = EnergyConservingUnitary(np.eye(4, dtype=complex), qubit_pair.joint)
        rho_s = DensityMatrix(random_density(2, 3), ("g", "e"))
        rho_b = thermal_state_of(qubit_pair.els_B, 1.0)
        sb, rs, rb = apply_operation(qubit_pair, u, rho_s, rho_b)
        assert np.allclose(rs.elements, rho_s.elements, atol=1e-13)
        assert np.allclose(rb.elements, rho_b.elements, atol=1e-13)

    def test_requires_stationary_environment(self, qubit_pair):
        u = EnergyConservingUnitary(np.eye(4, dtype=complex), qubit_pair.joint)
        rho_s = thermal_state_of(qubit_pair.els_S, 1.0)
        rho_b = DensityMatrix(np.full((2, 2), 0.5), ("g", "e"))  # coherent: not stationary
        with pytest.raises(InvariantViolation, match="stationary"):
            apply_operation(qubit_pair, u, rho_s, rho_b)

    def test_thermal_fixed_point_of_reduced_map(self, qubit_pair):
        """With a thermal environment the system thermal state is invariant."""
        beta = 0.9
        rho_s = thermal_state_of(qubit_pair.els_S, beta)
        rho_b = thermal_state_of(qubit_pair.els_B, beta)
        for seed in range(5):
            u = sample_energy_conserving_unitary(qubit_pair, seed)
            _, rs, _ = apply_operation(qubit_pair, u, rho_s, rho_b)
            assert np.max(np.abs(rs.elements - rho_s.elements)) < 1e-12

    def test_resonant_full_swap_exchanges_populations(self, qubit_pair):
        swap = np.zeros((4, 4), dtype=complex)
        swap[0, 0] = swap[3, 3] = 1.0
        swap[1, 2] = swap[2, 1] = 1.0
        u = EnergyConservingUnitary(swap, qubit_pair.joint)
        rho_s = thermal_state_of(qubit_pair.els_S, 2.0)
        rho_b = thermal_state_of(qubit_pair.els_B, 0.5)
        _, rs, rb = apply_operation(qubit_pair, u, rho_s, rho_b)
        assert np.allclose(rs.elements, rho_b.elements, atol=1e-13)
        assert np.allclose(rb.elements, rho_s.elements, atol=1e-13)


class TestConservationReport:
    def test_identity_operation_all_deltas_zero(self, qutrit_qubit):
        u = EnergyConservingUnitary(np.eye(6, dtype=complex), qutrit_qubit.joint)
        rho_s = coherent_prepared_state(qutrit_qubit.els_S, 0.7, 5)
        rho_b = thermal_state_of(qutrit_qubit.els_B, 1.3)
        rep = conservation_report(qutrit_qubit, u, rho_s, rho_b, 1.3)
        assert rep.all_pass
        assert rep.S_final.C_h == pytest.approx(rep.S_initial.C_h, abs=1e-12)
        assert abs(rep.correlated_final.C_v) < 1e-12
        assert abs(rep.delta_E_S) < 1e-13

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
    def test_random_unitaries_pass_all_checks(self, qutrit_qubit, seed):
        rho_s = coherent_prepared_state(qutrit_qubit.els_S, 0.7, 100 + seed)
        rho_b = thermal_state_of(qutrit_qubit.els_B, 1.3)
        u = sample_energy_conserving_unitary(qutrit_qubit, seed)
        rep = conservation_report(qutrit_qubit, u, rho_s, rho_b, 1.3)
        assert rep.all_pass, {k: v for k, v in rep.checks.items() if not v[1]}
        # correlated quantities are genuinely correlational: never negative
        for corr in (rep.correlated_initial, rep.correlated_final):
            assert corr.C_v >= -1e-9 and corr.C_h >= -1e-9 and corr.D_th >= -1e-9

    def test_local_horizontal_coherence_changes(self, qutrit_qubit):
        """dC_h^S != 0 generically for thermal-diagonal rho_S at beta_0 != beta_B."""
        rho_b = thermal_state_of(qutrit_qubit.els_B, 1.3)
        seen = 0.0
        for seed in range(8):
            rho_s = thermal_state_of(qutrit_qubit.els_S, 0.7)
            u = sample_energy_conserving_unitary(qutrit_qubit, seed)
            rep = conservation_report(qutrit_qubit, u, rho_s, rho_b, 1.3)
            seen = max(seen, abs(rep.S_final.C_h - rep.S_initial.C_h))
        assert seen > 1e-6

    def test_nonthermal_stationary_environment_flagged(self, qutrit_qubit):
        rho_b = DensityMatrix(np.diag([0.5, 0.5]), ("g", "e"))  # stationary, not thermal
        rho_s = thermal_state_of(qutrit_qubit.els_S, 0.7)
        u = sample_energy_conserving_unitary(qutrit_qubit, 3)
        rep = conservation_report(qutrit_qubit, u, rho_s, rho_b, 1.3)
        assert "rho_B-not-thermal" in rep.flags
        # the global conservation laws hold for any stationary environment
        assert rep.checks["a:dCv_SB=0"][1]
        assert rep.checks["b:dCh_SB+dDth_SB=0"][1]

    def test_no_vertical_generation_from_incoherent_inputs(self, qutrit_qubit):
        rho_b = thermal_state_of(qutrit_qubit.els_B, 1.3)
        for seed in range(10):
            rho_s = diagonal_prepared_state(qutrit_qubit.els_S, 300 + seed)
            u = sample_energy_conserving_unitary(qutrit_qubit, seed)
            rep = conservation_report(qutrit_qubit, u, rho_s, rho_b, 1.3)
            assert rep.S_final.C_v <= 1e-9


class TestDivergenceWitness:
    def test_plain_thermal_state_cannot_diverge(self, qutrit_qubit):
        """chi = 0: the joint state is globally thermal and exactly invariant."""
        rho_s = thermal_state_of(qutrit_qubit.els_S, 1.3)
        rho_b = thermal_state_of(qutrit_qubit.els_B, 1.3)
        for seed in range(6):
            u = sample_energy_conserving_unitary(qutrit_qubit, seed)
            rep = conservation_report(qutrit_qubit, u, rho_s, rho_b, 1.3)
            d_dth = rep.S_final.D_th - rep.S_initial.D_th
            assert -d_dth >= -1e-9

    def test_witness_found_and_certified(self, qutrit_qubit):
        wit = divergence_witness(qutrit_qubit, range(64), 1.3)
        assert -wit.delta_D_th_S < -1e-6
        assert -wit.delta_C_h_S >= wit.delta_D_th_S > 0
        # global bound on S alone and the global conservation trade-off
        rep = wit.report
        assert rep.checks["f:-dCh_S-dDth_S>=0"][1]
        d_ch_sb = rep.SB_final.C_h - rep.SB_initial.C_h
        d_dth_sb = rep.SB_final.D_th - rep.SB_initial.D_th
        assert d_dth_sb == pytest.approx(-d_ch_sb, abs=1e-9)
        assert d_dth_sb > 0  # population divergence paid by coherence consumption

    def test_energy_sign_follows_coherence_sign(self):
        """Swap-like resonant exchange: the sign of the S energy change tracks
        the ordering of the coherence loads c+ versus c-."""
        els_s = build_level_structure(
            HermitianObservable(np.diag([0.0, 1.0, 1.0, 2.0])),
            labels=("gg", "ge", "eg", "ee"),
        )
        els_b = build_level_structure(HermitianObservable(np.diag([0.0, 1.0])), labels=("g", "e"))
        sys_ = BipartiteSystem.build(els_s, els_b)
        beta_b = 1.0
        base = thermal_state_of(els_s, beta_b)
        pattern = horizontal_pattern(els_s)
        c_lim = max_admissible_amplitude(base.elements, pattern.elements)
        rho_b = thermal_state_of(els_b, beta_b)
        # one fixed Haar unitary with a nontrivial resonant block
        u = sample_energy_conserving_unitary(sys_, 2)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        a_s = HermitianObservable(np.kron(sx, np.eye(2)) + np.kron(np.eye(2), sx))
        jumps = eigenoperators(a_s, els_s)
        a = dict(zip(jumps.frequencies, jumps.operators))[1.0]
        aad, ada = a @ a.conj().T, a.conj().T @ a
        signs = {}
        for sign in (+1.0, -1.0):
            chi = sign * 0.9 * c_lim * pattern.elements
            rho_s = DensityMatrix(base.elements + chi, base.basis_labels)
            rep = conservation_report(sys_, u, rho_s, rho_b, beta_b)
            c_plus = np.trace(chi @ aad).real / np.trace(base.elements @ aad).real
            c_minus = np.trace(chi @ ada).real / np.trace(base.elements @ ada).real
            signs[sign] = (math.copysign(1, rep.delta_E_S), math.copysign(1, c_plus - c_minus))
        # flipping chi flips both the coherence ordering and the energy change
        assert signs[+1.0][0] == -signs[-1.0][0]
        assert signs[+1.0][1] == -signs[-1.0][1]
        assert signs[+1.0][0] == signs[+1.0][1]


def test_tiny_frequency_keeps_every_conservation_law():
    """At omega = 1e-12 the joint and the factor structures must cluster alike."""
    cfg = parse_config({"scenario": "thermal-operation", "omega": 1e-12, "seeds": 8})
    assert run_scenario_config(cfg).invariant_failures == 0
