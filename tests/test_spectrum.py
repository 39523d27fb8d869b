import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohentropy import (
    AmbiguousClustering,
    BipartiteSystem,
    DensityMatrix,
    HermitianObservable,
    SpinEnsembleSpec,
    build_level_structure,
    coherence_measures,
    collective_coupling,
    dephase_block_diagonal,
    dephase_diagonal,
    relative_entropy,
    state_functionals,
    thermal_state,
    thermal_state_of,
    von_neumann_entropy,
)
from conftest import random_density


class TestBuildLevelStructure:
    def test_exact_degeneracy(self):
        els = build_level_structure(HermitianObservable(np.diag([0.0, 1.0, 1.0])))
        assert els.energies == (0.0, 1.0)
        assert els.degeneracies == (1, 2)

    def test_greedy_gap_clustering(self):
        # by hand: gaps 1.0, 0.001, 0.999 with delta = 0.01 merge the middle pair
        els = build_level_structure(
            HermitianObservable(np.diag([0.0, 1.0, 1.001, 2.0])), delta=0.01
        )
        assert els.degeneracies == (1, 2, 1)
        assert els.energies[1] == pytest.approx(1.0005, abs=1e-12)
        assert els.energies[0] == 0.0 and els.energies[2] == 2.0

    def test_non_degenerate_limit(self):
        els = build_level_structure(HermitianObservable(np.diag([0.0, 0.3, 1.0])), delta=0.01)
        assert els.degeneracies == (1, 1, 1)

    def test_chained_clustering_is_ambiguous(self):
        # consecutive gaps 0.008 chain into a cluster wider than delta
        with pytest.raises(AmbiguousClustering):
            build_level_structure(
                HermitianObservable(np.diag([0.0, 0.008, 0.016, 1.0])), delta=0.01
            )

    def test_projectors_resolve_identity(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        els = build_level_structure(HermitianObservable(0.5 * (g + g.conj().T)))
        total = sum(els.projector(n) for n in range(els.n_levels))
        assert np.max(np.abs(total - np.eye(5))) < 1e-12
        for n in range(els.n_levels):
            p = els.projector(n)
            assert np.max(np.abs(p @ p - p)) < 1e-12

    def test_input_basis_kept_for_diagonal_hamiltonian(self):
        els = build_level_structure(HermitianObservable(np.diag([1.0, 0.0, 1.0])))
        # cluster ordering sorts energies, but inside the degenerate level the
        # input indices 0 and 2 keep their order
        v = els.basis_vectors
        assert np.allclose(v[:, 0], [0, 1, 0])
        assert np.allclose(v[:, 1], [1, 0, 0])
        assert np.allclose(v[:, 2], [0, 0, 1])

    def test_horizon(self):
        els = build_level_structure(
            HermitianObservable(np.diag([0.0, 1.0, 1.005])), delta=0.01
        )
        assert els.horizon == pytest.approx(0.1 / 0.01)


@pytest.fixture(scope="module")
def els4():
    """4-dim structure with levels (e, degeneracy) = (0,1), (1,2), (2,1)."""
    return build_level_structure(HermitianObservable(np.diag([0.0, 1.0, 1.0, 2.0])))


class TestDephasingCuts:
    def test_block_diagonal_elementwise_mask(self, els4):
        rho = DensityMatrix(random_density(4, 11))
        got = dephase_block_diagonal(rho, els4)
        # elementwise mask oracle: keep (i,j) iff same level; levels (0),(1,2),(3)
        mask = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                li = 0 if i == 0 else (1 if i in (1, 2) else 2)
                lj = 0 if j == 0 else (1 if j in (1, 2) else 2)
                mask[i, j] = 1.0 if li == lj else 0.0
        assert np.allclose(got.elements, rho.elements * mask, atol=1e-14)

    def test_non_degenerate_bd_equals_d(self):
        els = build_level_structure(HermitianObservable(np.diag([0.0, 1.0, 2.5])))
        rho = DensityMatrix(random_density(3, 5))
        bd = dephase_block_diagonal(rho, els)
        d = dephase_diagonal(rho, els)
        assert np.allclose(bd.elements, d.elements, atol=1e-14)

    def test_single_eigenspace_support_invariant(self):
        els = build_level_structure(HermitianObservable(np.diag([0.0, 1.0, 1.0])))
        block = np.zeros((3, 3), dtype=complex)
        block[1:, 1:] = random_density(2, 9)
        rho = DensityMatrix(block)
        assert np.allclose(dephase_block_diagonal(rho, els).elements, rho.elements, atol=1e-14)

    def test_diagonal_fixed_point(self, els4):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]))
        assert np.allclose(dephase_diagonal(rho, els4).elements, rho.elements, atol=1e-14)

    def test_plus_state_dephases_to_mixed(self):
        els = build_level_structure(HermitianObservable(np.diag([0.0, 1.0])))
        plus = DensityMatrix(np.full((2, 2), 0.5))
        assert np.allclose(dephase_diagonal(plus, els).elements, np.eye(2) / 2, atol=1e-14)

    def test_diagonal_refines_block_diagonal(self, els4):
        rho = DensityMatrix(random_density(4, 21))
        via_bd = dephase_diagonal(dephase_block_diagonal(rho, els4), els4)
        direct = dephase_diagonal(rho, els4)
        assert np.allclose(via_bd.elements, direct.elements, atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_cut_properties(self, seed):
        els = build_level_structure(HermitianObservable(np.diag([0.0, 1.0, 1.0, 2.0])))
        rho = DensityMatrix(random_density(4, seed))
        for cut in (dephase_block_diagonal, dephase_diagonal):
            out = cut(rho, els)
            assert out.elements.trace().real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(out.elements)[0] >= -1e-12
            again = cut(out, els)
            assert np.allclose(again.elements, out.elements, atol=1e-13)
        s = von_neumann_entropy(rho)
        s_bd = von_neumann_entropy(dephase_block_diagonal(rho, els))
        s_d = von_neumann_entropy(dephase_diagonal(rho, els))
        assert s_d >= s_bd - 1e-10
        assert s_bd >= s - 1e-10


class TestCoherenceMeasures:
    def test_diagonal_state_has_none(self, els4):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]))
        c_v, c_h = coherence_measures(rho, els4)
        assert abs(c_v) < 1e-12 and abs(c_h) < 1e-12

    def test_plus_state_nondegenerate_is_vertical(self):
        els = build_level_structure(HermitianObservable(np.diag([0.0, 1.0])))
        plus = DensityMatrix(np.full((2, 2), 0.5))
        c_v, c_h = coherence_measures(plus, els)
        assert c_v == pytest.approx(math.log(2), abs=1e-10)
        assert abs(c_h) < 1e-12

    def test_plus_state_degenerate_is_horizontal(self):
        els = build_level_structure(HermitianObservable(np.zeros((2, 2))))
        plus = DensityMatrix(np.full((2, 2), 0.5))
        c_v, c_h = coherence_measures(plus, els)
        assert abs(c_v) < 1e-12
        assert c_h == pytest.approx(math.log(2), abs=1e-10)


class TestDistanceToThermal:
    def test_thermal_state_has_zero_distance(self, els4):
        rho = thermal_state_of(els4, 1.3)
        assert state_functionals(rho, els4, 1.3).D_th == pytest.approx(0.0, abs=1e-12)

    def test_cut_removes_coherences(self, els4):
        base = thermal_state_of(els4, 2.0)
        chi = np.zeros((4, 4), dtype=complex)
        chi[1, 2] = chi[2, 1] = 0.05  # horizontal
        chi[0, 3] = chi[3, 0] = 0.02  # vertical
        rho = DensityMatrix(base.elements + chi)
        expected = relative_entropy(base, thermal_state_of(els4, 0.9))
        assert state_functionals(rho, els4, 0.9).D_th == pytest.approx(expected, abs=1e-12)

    def test_ground_state_versus_infinite_temperature(self):
        els = build_level_structure(HermitianObservable(np.diag([0.0, 1.0])))
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        assert state_functionals(rho, els, 0.0).D_th == pytest.approx(math.log(2), abs=1e-12)


class TestDiagonalFreeEnergy:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_distance_tracks_free_energy(self, seed):
        """D_th = beta_B F_D + ln Z(beta_B) with F_D = E - S(rho_D)/beta_B."""
        els = build_level_structure(HermitianObservable(np.diag([0.0, 1.0, 1.0, 2.0])))
        beta_b = 1.7
        rho = DensityMatrix(random_density(4, seed))
        rho_d = dephase_diagonal(rho, els)
        h = els.hamiltonian().elements
        e_s = float(np.trace(rho.elements @ h).real)
        f_d = e_s - von_neumann_entropy(rho_d) / beta_b
        log_z = math.log(sum(math.exp(-beta_b * e) * l
                             for e, l in zip(els.energies, els.degeneracies)))
        d_th = state_functionals(rho, els, beta_b).D_th
        assert d_th == pytest.approx(beta_b * f_d + log_z, abs=1e-10)


def _rotated_qutrit():
    """Levels (0, 1, 1) in a basis where H is not diagonal."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    return build_level_structure(HermitianObservable(q @ np.diag([0.0, 1.0, 1.0]) @ q.conj().T))


_QUBIT = build_level_structure(HermitianObservable(np.diag([0.0, 1.0])))
STRUCTURES = {
    "two-qubit collective": collective_coupling(SpinEnsembleSpec(2, 0.5, 1.0)).level_structure(),
    "degenerate qutrit": build_level_structure(HermitianObservable(np.diag([0.0, 1.0, 1.0]))),
    "qubit*qubit joint": BipartiteSystem.build(_QUBIT, _QUBIT).joint,
    "rotated qutrit": _rotated_qutrit(),
}


def _agree(got: float, want: float) -> bool:
    """Equal to 1e-10, with inf matching inf and nan matching nan."""
    if not math.isfinite(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= 1e-10


class TestStateFunctionals:
    """The kernel against the reference path: one eigendecomposition per cut."""

    @settings(max_examples=80, deadline=None)
    @given(
        name=st.sampled_from(sorted(STRUCTURES)),
        seed=st.integers(0, 10_000),
        rank=st.sampled_from([None, 1, 2]),
        beta=st.sampled_from([-0.8, 0.0, 1.3, 40.0]),  # beta = 40: weights below CLIP_FLOOR
    )
    def test_matches_reference_path(self, name, seed, rank, beta):
        els = STRUCTURES[name]
        rho = DensityMatrix(random_density(els.dim, seed, rank), els.basis_labels)
        f = state_functionals(rho, els, beta)
        rho_bd, rho_d = dephase_block_diagonal(rho, els), dephase_diagonal(rho, els)
        rho_th = thermal_state_of(els, beta)
        s, s_bd, s_d = (von_neumann_entropy(x) for x in (rho, rho_bd, rho_d))
        e_s = float(np.trace(rho.elements @ els.hamiltonian().elements).real)
        assert _agree(f.S, s)
        assert _agree(f.C_v, s_bd - s)
        assert _agree(f.C_h, s_d - s_bd)
        assert _agree(f.D_th, relative_entropy(rho_d, rho_th))
        assert _agree(f.C_h + f.D_th, relative_entropy(rho_bd, rho_th))
        assert _agree(f.E_S, e_s)
        assert _agree(f.F_D, e_s - s_d / beta if beta else float("nan"))

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    @pytest.mark.parametrize("beta", [-0.8, 0.0, 1.3, 40.0])
    def test_thermal_state_from_structure(self, name, beta):
        els = STRUCTURES[name]
        got = thermal_state_of(els, beta)
        want = thermal_state(els.hamiltonian(), beta, els.basis_labels)
        assert got.basis_labels == els.basis_labels
        assert np.max(np.abs(got.elements - want.elements)) <= 1e-14

    def test_ground_state_distance_stays_finite_at_low_temperature(self):
        els = STRUCTURES["degenerate qutrit"]
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0]), els.basis_labels)
        d_th = state_functionals(rho, els, 40.0).D_th
        assert math.isfinite(d_th)
        assert _agree(d_th, relative_entropy(dephase_diagonal(rho, els), thermal_state_of(els, 40.0)))

    def test_null_vectors_in_input_basis(self):
        els = STRUCTURES["rotated qutrit"]
        rho = DensityMatrix(random_density(3, 7, rank=1), els.basis_labels)
        null = state_functionals(rho, els, 1.0).null
        assert null.shape == (3, 2)
        assert np.max(np.abs(rho.elements @ null)) < 1e-12
