import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohentropy import (
    DensityMatrix,
    HermitianObservable,
    InvariantViolation,
    ShapeMismatch,
    build_level_structure,
    divergence_witness,
    eigenoperators,
    thermal_state_of,
)
from cohentropy import scenarios, thermalops
from cohentropy.qcore import max_admissible_amplitude
from cohentropy.qcore import max_abs
from cohentropy.spectrum import state_functionals
from cohentropy.thermalops import (
    BipartiteSystem,
    CutQuantities,
    combine_level_structures,
    conservation_report,
    horizontal_pattern,
    operation_rows,
)
from cohentropy.scenarios import (
    coherent_prepared_states,
    config_from_json,
    conservation_scan,
    diagonal_prepared_states,
    parse_config,
    run_scenario_config,
    thermal_operation_systems,
)
from conftest import (
    dephase_block_diagonal,
    partial_trace,
    random_density,
    seeded_unitary,
    single_row,
)


def oracle_report_inputs(sys_, u, rho_s, rho_b, beta_b):
    """The six cut quantities, Delta E_S and the check (g) deviation of a report on the
    (d, d) array rho_s, rebuilt from validated DensityMatrixes of the reference partial
    traces and projector cut."""
    rho_s = DensityMatrix(rho_s)
    joint0 = DensityMatrix(np.kron(rho_s.elements, rho_b.elements))
    final = u @ joint0.elements @ u.conj().T
    joint_f = DensityMatrix(0.5 * (final + final.conj().T))
    rho_s_f = partial_trace(joint_f, sys_.dims, "A")
    rho_b_f = partial_trace(joint_f, sys_.dims, "B")
    cuts = []
    for state, els in ((rho_s, sys_.els_S), (rho_s_f, sys_.els_S), (rho_b, sys_.els_B),
                       (rho_b_f, sys_.els_B), (joint0, sys_.joint), (joint_f, sys_.joint)):
        f = state_functionals(state.elements, els, beta_b)
        cuts.append(CutQuantities(f.C_v, f.C_h, f.D_th))
    h_s = sys_.els_S.hamiltonian().elements
    delta_e_s = float(np.trace(h_s @ (rho_s_f.elements - rho_s.elements)).real)
    factorized = np.kron(dephase_block_diagonal(rho_s, sys_.els_S).elements, rho_b.elements)
    dev = max_abs(dephase_block_diagonal(joint0, sys_.joint).elements - factorized)
    return cuts, delta_e_s, dev


def float_bits(cuts, delta_e_s, dev):
    return [x.hex() for c in cuts for x in (c.C_v, c.C_h, c.D_th)] + [delta_e_s.hex(), dev.hex()]


def correlated(row, when):
    """The correlated cut SB - S - B of a row, ``when`` 'initial' or 'final'."""
    sb, s, b = (getattr(row, f"{cut}_{when}") for cut in ("SB", "S", "B"))
    return CutQuantities(*(x - y - z for x, y, z in zip(sb, s, b)))


@pytest.fixture(scope="module")
def qubit_pair():
    els = build_level_structure(HermitianObservable(np.diag([0.0, 1.0])))
    return BipartiteSystem.build(els, els)


@pytest.fixture(scope="module")
def qutrit_qubit():
    els_s = build_level_structure(HermitianObservable(np.diag([0.0, 1.0, 1.0])))
    els_b = build_level_structure(HermitianObservable(np.diag([0.0, 1.0])))
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
        u1 = seeded_unitary(qubit_pair, 42)
        u2 = seeded_unitary(qubit_pair, 42)
        assert np.array_equal(u1, u2)
        u3 = seeded_unitary(qubit_pair, 43)
        assert np.max(np.abs(u3 - u1)) > 1e-3

    def test_one_dimensional_eigenspaces_give_pure_phases(self):
        els_a = build_level_structure(HermitianObservable(np.diag([0.0, 1.0])))
        els_b = build_level_structure(HermitianObservable(np.diag([0.0, 0.4])))
        sys_ = BipartiteSystem.build(els_a, els_b)
        u = seeded_unitary(sys_, 7)
        off = u - np.diag(np.diag(u))
        assert np.max(np.abs(off)) < 1e-13
        assert np.allclose(np.abs(np.diag(u)), 1.0, atol=1e-13)
        # all cuts invariant under a diagonal unitary acting on a diagonal state
        rho_s = np.diag([0.8, 0.2]).astype(complex)
        rho_b = thermal_state_of(els_b, 1.0)
        *_, rs, rb = thermalops._operate(sys_, u[None], rho_s[None], rho_b.elements)
        assert np.allclose(rs[0], rho_s, atol=1e-12)
        assert np.allclose(rb[0], rho_b.elements, atol=1e-12)

    def test_resonant_exchange_block_mixes(self, qubit_pair):
        u = seeded_unitary(qubit_pair, 0)
        # the (ge, eg) block is 2-dim: generically nonzero transfer amplitude
        assert abs(u[1, 2]) > 1e-3

    def test_energy_conservation_enforced(self, qubit_pair):
        """A U that permutes across energy sectors, third in its stack, is named by its
        position there."""
        bad = np.eye(4, dtype=complex)
        bad[[0, 1]] = bad[[1, 0]]
        stack = np.array([np.eye(4), seeded_unitary(qubit_pair, 0), bad, np.eye(4)])
        rho_s = np.repeat(thermal_state_of(qubit_pair.els_S, 1.0).elements[None], 4, axis=0)
        rho_b = thermal_state_of(qubit_pair.els_B, 1.0)
        with pytest.raises(InvariantViolation, match="energy conservation violated") as info:
            operation_rows(qubit_pair, stack, rho_s, rho_b, 1.0)
        assert info.value.index == 2


class TestApplyOperation:
    """One operation, measured by ``operation_rows`` as a stack of one; ``_operate`` where
    rho_B' is read."""

    def test_identity_changes_nothing(self, qubit_pair):
        u = np.eye(4, dtype=complex)
        rho_s = random_density(2, 3)
        rho_b = thermal_state_of(qubit_pair.els_B, 1.0)
        row = single_row(qubit_pair, u, rho_s, rho_b, 1.0)
        *_, rb = thermalops._operate(qubit_pair, u[None], rho_s[None], rho_b.elements)
        assert np.allclose(row.rho_S_final, rho_s, atol=1e-13)
        assert np.allclose(rb[0], rho_b.elements, atol=1e-13)

    def test_requires_stationary_environment(self, qubit_pair):
        u = np.eye(4, dtype=complex)
        rho_s = thermal_state_of(qubit_pair.els_S, 1.0).elements
        rho_b = DensityMatrix(np.full((2, 2), 0.5))  # coherent: not stationary
        with pytest.raises(InvariantViolation, match="stationary"):
            single_row(qubit_pair, u, rho_s, rho_b, 1.0)

    def test_thermal_fixed_point_of_reduced_map(self, qubit_pair):
        """With a thermal environment the system thermal state is invariant."""
        beta = 0.9
        rho_s = thermal_state_of(qubit_pair.els_S, beta).elements
        rho_b = thermal_state_of(qubit_pair.els_B, beta)
        for seed in range(5):
            row = single_row(qubit_pair, seeded_unitary(qubit_pair, seed), rho_s, rho_b, beta)
            assert np.max(np.abs(row.rho_S_final - rho_s)) < 1e-12

    def test_resonant_full_swap_exchanges_populations(self, qubit_pair):
        swap = np.zeros((4, 4), dtype=complex)
        swap[0, 0] = swap[3, 3] = 1.0
        swap[1, 2] = swap[2, 1] = 1.0
        rho_s = thermal_state_of(qubit_pair.els_S, 2.0)
        rho_b = thermal_state_of(qubit_pair.els_B, 0.5)
        row = single_row(qubit_pair, swap, rho_s.elements, rho_b, 0.5)
        *_, rb = thermalops._operate(qubit_pair, swap[None], rho_s.elements[None], rho_b.elements)
        assert np.allclose(row.rho_S_final, rho_b.elements, atol=1e-13)
        assert np.allclose(rb[0], rho_s.elements, atol=1e-13)

    @pytest.mark.parametrize("unitaries, states", [(5, 1), (1, 5)])
    def test_one_state_per_unitary(self, qutrit_qubit, unitaries, states):
        u = np.repeat(np.eye(6, dtype=complex)[None], unitaries, axis=0)
        rho_s = np.repeat(thermal_state_of(qutrit_qubit.els_S, 1.3).elements[None], states, axis=0)
        rho_b = thermal_state_of(qutrit_qubit.els_B, 1.3)
        with pytest.raises(ShapeMismatch, match="stack of states"):
            operation_rows(qutrit_qubit, u, rho_s, rho_b, 1.3)

    def test_environment_of_the_bath_dimension(self, qutrit_qubit):
        """A 3x3 rho_B against the qubit bath of a qutrit and a qubit."""
        u = np.eye(6, dtype=complex)[None]
        rho_s = thermal_state_of(qutrit_qubit.els_S, 1.3).elements[None]
        rho_b = thermal_state_of(qutrit_qubit.els_S, 1.3)
        with pytest.raises(ShapeMismatch, match="d_B = 2"):
            operation_rows(qutrit_qubit, u, rho_s, rho_b, 1.3)

    def test_unitaries_of_the_joint_dimension(self, qutrit_qubit):
        """4x4 unitaries on the 6-dimensional joint space of a qutrit and a qubit."""
        rho_s = thermal_state_of(qutrit_qubit.els_S, 1.3).elements[None]
        rho_b = thermal_state_of(qutrit_qubit.els_B, 1.3)
        with pytest.raises(ShapeMismatch, match="unitary stack shape"):
            operation_rows(qutrit_qubit, np.eye(4, dtype=complex)[None], rho_s, rho_b, 1.3)

    def test_witness_final_state_is_its_rows(self, qutrit_qubit):
        """The witness carries the S state after its operation in the row that found it."""
        wit = divergence_witness(qutrit_qubit, range(64), 1.3)
        rho_b = thermal_state_of(qutrit_qubit.els_B, 1.3)
        row = single_row(qutrit_qubit, wit.unitary, wit.rho_S.elements, rho_b, 1.3)
        assert wit.row.rho_S_final.tobytes() == row.rho_S_final.tobytes()
        assert np.array_equal(wit.unitary, seeded_unitary(qutrit_qubit, wit.seed))


class TestConservationReport:
    def test_identity_operation_all_deltas_zero(self, qutrit_qubit):
        u = np.eye(6, dtype=complex)
        rho_s = coherent_prepared_states(qutrit_qubit.els_S, 0.7, [5])[0]
        rho_b = thermal_state_of(qutrit_qubit.els_B, 1.3)
        row = single_row(qutrit_qubit, u, rho_s, rho_b, 1.3)
        assert all(v.passed for v in conservation_report(row))
        assert row.S_final.C_h == pytest.approx(row.S_initial.C_h, abs=1e-12)
        assert abs(correlated(row, "final").C_v) < 1e-12
        assert abs(row.delta_E_S) < 1e-13

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
    def test_random_unitaries_pass_all_checks(self, qutrit_qubit, seed):
        rho_s = coherent_prepared_states(qutrit_qubit.els_S, 0.7, [100 + seed])[0]
        rho_b = thermal_state_of(qutrit_qubit.els_B, 1.3)
        u = seeded_unitary(qutrit_qubit, seed)
        row = single_row(qutrit_qubit, u, rho_s, rho_b, 1.3)
        verdicts = conservation_report(row)
        assert all(v.passed for v in verdicts), [v for v in verdicts if not v.passed]
        # correlated quantities are genuinely correlational: never negative
        for corr in (correlated(row, "initial"), correlated(row, "final")):
            assert corr.C_v >= -1e-9 and corr.C_h >= -1e-9 and corr.D_th >= -1e-9

    @pytest.mark.parametrize("index", [0, 1])
    def test_matches_oracle_rebuild_bit_for_bit(self, index):
        """The kernel validates the derived arrays; the quantities equal those of the
        reference path over 16 seeds of coherent and of incoherent inputs."""
        _, sys_ = thermal_operation_systems()[index]
        rho_b = thermal_state_of(sys_.els_B, 1.3)
        for seed in range(16):
            u = seeded_unitary(sys_, seed)
            for rho_s in (coherent_prepared_states(sys_.els_S, 0.7, [10_000 + seed])[0],
                          diagonal_prepared_states(sys_.els_S, [20_000 + seed])[0]):
                row = single_row(sys_, u, rho_s, rho_b, 1.3)
                g = conservation_report(row)[6]
                assert g.name == "g:initial_BD_factorizes"
                got = float_bits(row[:6], row.delta_E_S, g.value)
                assert got == float_bits(*oracle_report_inputs(sys_, u, rho_s, rho_b, 1.3))

    def test_local_horizontal_coherence_changes(self, qutrit_qubit):
        """dC_h^S != 0 generically for thermal-diagonal rho_S at beta_0 != beta_B."""
        rho_b = thermal_state_of(qutrit_qubit.els_B, 1.3)
        seen = 0.0
        for seed in range(8):
            rho_s = thermal_state_of(qutrit_qubit.els_S, 0.7)
            u = seeded_unitary(qutrit_qubit, seed)
            row = single_row(qutrit_qubit, u, rho_s.elements, rho_b, 1.3)
            seen = max(seen, abs(row.S_final.C_h - row.S_initial.C_h))
        assert seen > 1e-6

    def test_nonthermal_stationary_environment_flagged(self, qutrit_qubit):
        """The global conservation laws hold for any stationary environment."""
        rho_b = DensityMatrix(np.diag([0.5, 0.5]))  # stationary, not thermal
        rho_s = thermal_state_of(qutrit_qubit.els_S, 0.7)
        u = seeded_unitary(qutrit_qubit, 3)
        a, b, *_ = conservation_report(single_row(qutrit_qubit, u, rho_s.elements, rho_b, 1.3))
        assert (a.name, b.name) == ("a:dCv_SB=0", "b:dCh_SB+dDth_SB=0")
        assert a.passed and b.passed

    def test_no_vertical_generation_from_incoherent_inputs(self, qutrit_qubit):
        rho_b = thermal_state_of(qutrit_qubit.els_B, 1.3)
        for seed in range(10):
            rho_s = diagonal_prepared_states(qutrit_qubit.els_S, [300 + seed])[0]
            u = seeded_unitary(qutrit_qubit, seed)
            assert single_row(qutrit_qubit, u, rho_s, rho_b, 1.3).S_final.C_v <= 1e-9


class TestConservationScan:
    SEEDS = range(260)  # past the scan's chunks of seeds: 113 at joint d = 6, 256 at d = 4

    @pytest.mark.parametrize("index", [0, 1])
    def test_prepared_states_are_checked_stacks(self, index):
        """Both builders return a read-only (T, d, d) stack of states that a DensityMatrix
        accepts without moving a bit."""
        els = thermal_operation_systems()[index][1].els_S
        for states in (coherent_prepared_states(els, 0.7, range(5)),
                       diagonal_prepared_states(els, range(5))):
            assert states.shape == (5, els.dim, els.dim) and not states.flags.writeable
            for m in states:
                assert DensityMatrix(m).elements.tobytes() == m.tobytes()

    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize("beta_0", [0.7, None])
    @pytest.mark.parametrize("environment", ["thermal", "uniform"])
    def test_scan_equals_single_reports_bit_for_bit(self, index, beta_0, environment):
        """Each row of the stacked scan equals the row of its seed measured alone, as a
        stack of one, field for field, and so do their verdicts; a uniform rho_B is
        stationary, not thermal."""
        _, sys_ = thermal_operation_systems()[index]
        els_b = sys_.els_B
        if environment == "thermal":
            rho_b = thermal_state_of(els_b, 1.3)
        else:
            rho_b = DensityMatrix(np.eye(els_b.dim) / els_b.dim)
        rows = conservation_scan(sys_, self.SEEDS, rho_b, 1.3, beta_0=beta_0)
        assert len(rows) == len(self.SEEDS)
        for seed, row in zip(self.SEEDS, rows):
            if beta_0 is None:
                rho_s = diagonal_prepared_states(sys_.els_S, [20_000 + seed])[0]
            else:
                rho_s = coherent_prepared_states(sys_.els_S, beta_0, [10_000 + seed])[0]
            u = seeded_unitary(sys_, seed)
            alone = single_row(sys_, u, rho_s, rho_b, 1.3)
            assert float_bits(row[:6], row.delta_E_S, row.factorization_dev) == float_bits(
                alone[:6], alone.delta_E_S, alone.factorization_dev)
            assert row.rho_S_final.tobytes() == alone.rho_S_final.tobytes()
            # a float's repr round-trips, so equal reprs are equal bits
            assert repr(conservation_report(row)) == repr(conservation_report(alone))

    @staticmethod
    def poisoned(check, position, bad):
        """``check`` of stacks in which the matrix at ``position``, counted over all the
        stacks it is given in turn, is replaced by ``bad``."""
        seen = [0]

        def wrapper(m, *args):
            k, seen[0] = position - seen[0], seen[0] + len(m)
            if 0 <= k < len(m):
                m = m.copy()
                m[k] = bad
            return check(m, *args)

        return wrapper

    def test_energy_violating_unitary_names_its_seed(self, qutrit_qubit, monkeypatch):
        """One U, in the second pass, permutes across energy sectors: the stacked check
        names its seed."""
        swap = np.eye(6, dtype=complex)[[1, 0, 2, 3, 4, 5]]
        check = self.poisoned(thermalops._checked_unitaries, 120, swap)
        monkeypatch.setattr(thermalops, "_checked_unitaries", check)
        rho_b = thermal_state_of(qutrit_qubit.els_B, 1.3)
        with pytest.raises(InvariantViolation, match="energy conservation violated") as info:
            conservation_scan(qutrit_qubit, range(130), rho_b, 1.3, beta_0=0.7)
        assert info.value.index == 120

    def test_drawn_unitaries_are_checked_where_used(self, qutrit_qubit, monkeypatch):
        """The draws are not checked where they are made: ``operation_rows`` catches an
        energy-violating U drawn for seed 120, in the second pass, and the scan names that
        seed."""
        swap = np.eye(6, dtype=complex)[[1, 0, 2, 3, 4, 5]]
        sample = scenarios.sample_energy_conserving_unitaries

        def drawn(sys_, seeds):
            u = sample(sys_, seeds)
            u[[k for k, s in enumerate(seeds) if s == 120]] = swap
            return u

        monkeypatch.setattr(scenarios, "sample_energy_conserving_unitaries", drawn)
        rho_b = thermal_state_of(qutrit_qubit.els_B, 1.3)
        with pytest.raises(InvariantViolation, match="energy conservation violated") as info:
            conservation_scan(qutrit_qubit, range(130), rho_b, 1.3, beta_0=0.7)
        assert info.value.index == 120

    def test_non_positive_state_names_its_seed(self, qutrit_qubit, monkeypatch):
        """One rho_S, in the second pass, is Hermitian of unit trace but not positive: the
        stacked validation names its seed."""
        bad = np.diag([1.2, -0.1, -0.1]).astype(complex)
        monkeypatch.setattr(scenarios, "checked_states",
                            self.poisoned(scenarios.checked_states, 120, bad))
        rho_b = thermal_state_of(qutrit_qubit.els_B, 1.3)
        with pytest.raises(InvariantViolation, match="negative eigenvalue") as info:
            conservation_scan(qutrit_qubit, range(130), rho_b, 1.3, beta_0=0.7)
        assert info.value.index == 120


class TestDivergenceWitness:
    def test_plain_thermal_state_cannot_diverge(self, qutrit_qubit):
        """chi = 0: the joint state is globally thermal and exactly invariant."""
        rho_s = thermal_state_of(qutrit_qubit.els_S, 1.3)
        rho_b = thermal_state_of(qutrit_qubit.els_B, 1.3)
        for seed in range(6):
            u = seeded_unitary(qutrit_qubit, seed)
            row = single_row(qutrit_qubit, u, rho_s.elements, rho_b, 1.3)
            d_dth = row.S_final.D_th - row.S_initial.D_th
            assert -d_dth >= -1e-9

    def test_witness_found_and_certified(self, qutrit_qubit):
        wit = divergence_witness(qutrit_qubit, range(64), 1.3)
        assert -wit.delta_D_th_S < -1e-6
        assert -wit.delta_C_h_S >= wit.delta_D_th_S > 0
        # global bound on S alone and the global conservation trade-off
        row = wit.row
        f = conservation_report(row)[5]
        assert f.name == "f:-dCh_S-dDth_S>=0" and f.passed
        d_ch_sb = row.SB_final.C_h - row.SB_initial.C_h
        d_dth_sb = row.SB_final.D_th - row.SB_initial.D_th
        assert d_dth_sb == pytest.approx(-d_ch_sb, abs=1e-9)
        assert d_dth_sb > 0  # population divergence paid by coherence consumption

    def test_energy_sign_follows_coherence_sign(self):
        """Swap-like resonant exchange: the sign of the S energy change tracks
        the ordering of the coherence loads c+ versus c-."""
        els_s = build_level_structure(HermitianObservable(np.diag([0.0, 1.0, 1.0, 2.0])))
        els_b = build_level_structure(HermitianObservable(np.diag([0.0, 1.0])))
        sys_ = BipartiteSystem.build(els_s, els_b)
        beta_b = 1.0
        base = thermal_state_of(els_s, beta_b)
        pattern = horizontal_pattern(els_s)
        c_lim = max_admissible_amplitude(base.elements, pattern.elements)
        rho_b = thermal_state_of(els_b, beta_b)
        # one fixed Haar unitary with a nontrivial resonant block
        u = seeded_unitary(sys_, 2)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        a_s = HermitianObservable(np.kron(sx, np.eye(2)) + np.kron(np.eye(2), sx))
        jumps = eigenoperators(a_s, els_s)
        a = dict(zip(jumps.frequencies, jumps.operators))[1.0]
        aad, ada = a @ a.conj().T, a.conj().T @ a
        signs = {}
        for sign in (+1.0, -1.0):
            chi = sign * 0.9 * c_lim * pattern.elements
            rho_s = DensityMatrix(base.elements + chi)
            row = single_row(sys_, u, rho_s.elements, rho_b, beta_b)
            c_plus = np.trace(chi @ aad).real / np.trace(base.elements @ aad).real
            c_minus = np.trace(chi @ ada).real / np.trace(base.elements @ ada).real
            signs[sign] = (math.copysign(1, row.delta_E_S), math.copysign(1, c_plus - c_minus))
        # flipping chi flips both the coherence ordering and the energy change
        assert signs[+1.0][0] == -signs[-1.0][0]
        assert signs[+1.0][1] == -signs[-1.0][1]
        assert signs[+1.0][0] == signs[+1.0][1]


def test_criterion_14_run_matches_recorded_outputs():
    """Criterion 14's thermal-operation run reproduces its recorded csv and summary
    byte for byte; the benchmark has no reference for this path."""
    cfg = parse_config({"scenario": "thermal-operation", "beta_0": 0.7, "beta_B": 1.3,
                        "seeds": 32})
    out = run_scenario_config(cfg)
    data = Path(__file__).parent / "data"
    assert out.csv_text.encode() == (data / "thermal_operation_seeds32.csv").read_bytes()
    assert out.summary_text.encode() == (data / "thermal_operation_seeds32_summary.txt").read_bytes()


@pytest.mark.parametrize(
    "name", ["collective", "reversal", "near_degenerate", "otto", "thermal_operation"]
)
def test_shipped_config_matches_recorded_outputs(name):
    """Each shipped config reproduces its recorded csv and summary byte for byte; the
    thermal-operation run covers a 256-seed scan over three chunks at joint d = 6 and the
    witness at beta_B = 1.3."""
    root = Path(__file__).parent
    cfg = config_from_json((root.parent / "configs" / f"{name}.json").read_text())
    out = run_scenario_config(cfg)
    assert out.csv_text.encode() == (root / "data" / f"{name}.csv").read_bytes()
    assert out.summary_text.encode() == (root / "data" / f"{name}_summary.txt").read_bytes()


def test_tiny_frequency_keeps_every_conservation_law():
    """At omega = 1e-12 the joint and the factor structures must cluster alike."""
    cfg = parse_config({"scenario": "thermal-operation", "omega": 1e-12, "seeds": 8})
    assert run_scenario_config(cfg).invariant_failures == 0
