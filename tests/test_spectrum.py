import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from cohentropy import (
    AmbiguousClustering,
    BipartiteSystem,
    DensityMatrix,
    EnergyLevelStructure,
    HermitianObservable,
    InvariantViolation,
    ShapeMismatch,
    SpinEnsembleSpec,
    build_level_structure,
    collective_coupling,
    eigenoperators,
    state_functionals,
    thermal_state_of,
)
from cohentropy.qcore import CHUNK_ENTRIES
from cohentropy.spectrum import spectral_kernel
from cohentropy.scenarios import thermal_operation_systems
from conftest import (
    dephase_block_diagonal,
    dephase_diagonal,
    projector,
    random_density,
    relative_entropy,
    thermal_state,
    von_neumann_entropy,
)


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

    @pytest.mark.parametrize("energies, delta", [
        ([0.0, 0.008, 0.016, 1.0], 0.01),  # consecutive gaps 0.008 chain past delta
        ([0.0, 1.0, 1.0 + 8e-11, 1.0 + 1.6e-10], 0.0),  # and past 1e-10 * max|E| at delta = 0
    ])
    def test_chained_clustering_is_ambiguous(self, energies, delta):
        with pytest.raises(AmbiguousClustering, match="chained cluster spans"):
            build_level_structure(HermitianObservable(np.diag(energies)), delta=delta)

    def test_levels_inside_the_width_are_ambiguous(self):
        """A structure built by hand meets the same width: at cluster_width 0 it is
        1e-10 * max|E| plus the rounding slack."""
        with pytest.raises(AmbiguousClustering, match="inter-cluster gap"):
            EnergyLevelStructure(energies=(1.0, 1.0 + 5e-11), degeneracies=(1, 1),
                                 basis_vectors=np.eye(2))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-3.0, 3.0), st.floats(-9.0, -1.0))
    def test_mismatched_doublet_is_one_level(self, log_omega, log_ratio):
        """omega (x) 1 + (omega + delta) on the second qubit clusters at width delta however
        (omega + delta) - omega rounds, and its Bohr frequencies are exactly +-w; a chain
        of gaps 0.8 delta stays ambiguous and a gap of 2 delta stays split."""
        omega = 10.0**log_omega
        delta = omega * 10.0**log_ratio
        n1, eye = np.diag([0.0, 1.0]), np.eye(2)
        h = omega * np.kron(n1, eye) + (omega + delta) * np.kron(eye, n1)
        els = build_level_structure(HermitianObservable(h), delta=delta)
        assert els.degeneracies == (1, 2, 1)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        jumps = eigenoperators(HermitianObservable(np.kron(sx, eye) + np.kron(eye, sx)), els)
        w = jumps.frequencies[-1]
        assert jumps.frequencies == (-w, w)
        assert w == pytest.approx(omega + delta / 2, rel=1e-12)
        chain = [0.0, omega, omega + 0.8 * delta, omega + 1.6 * delta]
        with pytest.raises(AmbiguousClustering):
            build_level_structure(HermitianObservable(np.diag(chain)), delta=delta)
        split = [0.0, omega, omega + 2 * delta, 2 * omega + 2 * delta]
        els = build_level_structure(HermitianObservable(np.diag(split)), delta=delta)
        assert els.degeneracies == (1, 1, 1, 1)

    def test_projectors_resolve_identity(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        els = build_level_structure(HermitianObservable(0.5 * (g + g.conj().T)))
        total = sum(projector(els, n) for n in range(els.n_levels))
        assert np.max(np.abs(total - np.eye(5))) < 1e-12
        for n in range(els.n_levels):
            p = projector(els, n)
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


def coherence_measures(rho: DensityMatrix, els) -> tuple[float, float]:
    """(C_v, C_h) of one state from the spectral kernel."""
    f = state_functionals(rho.elements, els, 0.0)
    return f.C_v, f.C_h


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


def _horizontal_state(els) -> np.ndarray:
    """A block-diagonal state of the collective n = 2 structure, its doublet coherent."""
    r = np.diag([0.85, 0.06, 0.06, 0.03]).astype(complex)
    r[1, 2] = r[2, 1] = 0.05
    v = els.basis_vectors
    return v @ r @ v.conj().T


@pytest.mark.parametrize("state", ["vertical", "horizontal"])
def test_rotated_eigenvectors_fail_the_consistency_check(state, two_qubit_collective, monkeypatch):
    """The relative-entropy forms are read off the eigenvectors, not the eigenvalues alone:
    an eigh whose lowest and highest eigenvectors are rotated by 1e-4 rad into each other
    makes them disagree with C_v or C_h, for a state with vertical coherence (two
    decompositions) and for one whose block-diagonal cut is itself (one)."""
    *_, els, _ = two_qubit_collective
    m = random_density(4, 3) if state == "vertical" else _horizontal_state(els)
    state_functionals(m, els, 1.0)
    c, s = math.cos(1e-4), math.sin(1e-4)

    def rotated(a, *args, _orig=np.linalg.eigh, **kwargs):
        w, v = _orig(a, *args, **kwargs)
        v = v.copy()
        low, high = v[..., :, 0].copy(), v[..., :, -1].copy()
        v[..., :, 0], v[..., :, -1] = c * low + s * high, c * high - s * low
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", rotated)
    with pytest.raises(InvariantViolation, match="coherence measures disagree"):
        state_functionals(m, els, 1.0)


class TestDistanceToThermal:
    def test_thermal_state_has_zero_distance(self, els4):
        rho = thermal_state_of(els4, 1.3)
        assert state_functionals(rho.elements, els4, 1.3).D_th == pytest.approx(0.0, abs=1e-12)

    def test_cut_removes_coherences(self, els4):
        base = thermal_state_of(els4, 2.0)
        chi = np.zeros((4, 4), dtype=complex)
        chi[1, 2] = chi[2, 1] = 0.05  # horizontal
        chi[0, 3] = chi[3, 0] = 0.02  # vertical
        rho = DensityMatrix(base.elements + chi)
        expected = relative_entropy(base, thermal_state_of(els4, 0.9))
        assert state_functionals(rho.elements, els4, 0.9).D_th == pytest.approx(expected, abs=1e-12)

    def test_ground_state_versus_infinite_temperature(self):
        els = build_level_structure(HermitianObservable(np.diag([0.0, 1.0])))
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        assert state_functionals(rho.elements, els, 0.0).D_th == pytest.approx(math.log(2), abs=1e-12)


class TestDiagonalFreeEnergy:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.floats(-100.0, 100.0))
    def test_distance_tracks_free_energy(self, seed, beta_b):
        """D_th = beta_B F_D + ln Z(beta_B) = beta_B E - S(rho_D) + ln Z(beta_B), up to
        |beta_B| * spread = 200, far past where a weight drops below 1e-14."""
        els = build_level_structure(HermitianObservable(np.diag([0.0, 1.0, 1.0, 2.0])))
        rho = DensityMatrix(random_density(4, seed))
        rho_d = dephase_diagonal(rho, els)
        h = els.hamiltonian().elements
        e_s = float(np.trace(rho.elements @ h).real)
        log_z = math.log(sum(math.exp(-beta_b * e) * l
                             for e, l in zip(els.energies, els.degeneracies)))
        d_th = state_functionals(rho.elements, els, beta_b).D_th
        assert d_th == pytest.approx(beta_b * e_s - von_neumann_entropy(rho_d) + log_z, abs=1e-10)


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


THERMAL_OPERATION_STRUCTURES = [
    getattr(sys_, part) for _, sys_ in thermal_operation_systems()
    for part in ("els_S", "els_B", "joint")
]


def _bits(f) -> list:
    """Every field of a StateFunctionals as bytes: equal lists mean bitwise-equal results."""
    return [np.asarray(getattr(f, name)).tobytes() for name in f._fields]


def _perturbed(kind: str, size: float) -> np.ndarray:
    """A degenerate-qutrit state pushed off one DensityMatrix check by ``size``."""
    if kind == "eigenvalue":
        return np.diag([1.0 + size, 0.0, -size]).astype(complex)
    m = np.array(thermal_state_of(STRUCTURES["degenerate qutrit"], 1.0).elements)
    m[0, 1 if kind == "hermiticity" else 0] += size
    return m


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
        beta=st.sampled_from([-0.8, 0.0, 1.3, 40.0]),  # beta = 40: weights below 1e-14
    )
    def test_matches_reference_path(self, name, seed, rank, beta):
        """D_th = S(rho_D|rho_th) and C_h + D_th = S(rho_BD|rho_th) against the closed
        form -S + beta <E> + ln Z, which holds for every finite beta."""
        els = STRUCTURES[name]
        rho = DensityMatrix(random_density(els.dim, seed, rank))
        f = state_functionals(rho.elements, els, beta)
        rho_bd, rho_d = dephase_block_diagonal(rho, els), dephase_diagonal(rho, els)
        s, s_bd, s_d = (von_neumann_entropy(x) for x in (rho, rho_bd, rho_d))
        e_s = float(np.trace(rho.elements @ els.hamiltonian().elements).real)
        log_z = float(logsumexp(-beta * els.index_energies))
        assert _agree(f.S, s)
        assert _agree(f.C_v, s_bd - s)
        assert _agree(f.C_h, s_d - s_bd)
        assert _agree(f.D_th, -s_d + beta * e_s + log_z)
        assert _agree(f.C_h + f.D_th, -s_bd + beta * e_s + log_z)
        assert _agree(f.E_S, e_s)
        assert _agree(f.F_D, e_s - s_d / beta if beta else float("nan"))

    @settings(max_examples=40, deadline=None)
    @given(
        els=st.sampled_from(THERMAL_OPERATION_STRUCTURES),
        seed=st.integers(0, 10_000),
        rank=st.sampled_from([None, 1]),
        beta=st.sampled_from([0.0, 1.3]),
    )
    def test_array_equals_density_matrix(self, els, seed, rank, beta):
        """A raw array and the elements of its validated state give bitwise-equal
        functionals: symmetrizing a checked state again keeps its bits."""
        m = random_density(els.dim, seed, rank)
        rho = DensityMatrix(m)
        assert _bits(state_functionals(m, els, beta)) == _bits(
            state_functionals(rho.elements, els, beta)
        )

    @pytest.mark.parametrize("kind, beyond, within, message", [
        ("hermiticity", 2e-12, 5e-13, "Hermitian"),
        ("trace", 2e-10, 5e-11, "trace"),
        ("eigenvalue", 2e-10, 1e-12, "eigenvalue"),
    ])
    def test_array_gets_the_density_matrix_checks(self, kind, beyond, within, message):
        """Beyond a DensityMatrix tolerance state_functionals rejects the array too, alone
        or as a stack of one; within it all accept."""
        els = STRUCTURES["degenerate qutrit"]
        checks = (DensityMatrix, lambda m: state_functionals(m, els, 1.0),
                  lambda m: state_functionals(m[None], els, 1.0))
        for check in checks:
            with pytest.raises(InvariantViolation, match=message):
                check(_perturbed(kind, beyond))
            check(_perturbed(kind, within))

    def test_array_of_wrong_dimension(self):
        with pytest.raises(ShapeMismatch):
            state_functionals(np.eye(2) / 2, STRUCTURES["degenerate qutrit"], 1.0)

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    @pytest.mark.parametrize("beta", [-0.8, 0.0, 1.3, 40.0])
    def test_thermal_state_from_structure(self, name, beta):
        els = STRUCTURES[name]
        got = thermal_state_of(els, beta)
        want = thermal_state(els.hamiltonian(), beta)
        assert np.max(np.abs(got.elements - want.elements)) <= 1e-14

    def test_ground_state_distance_stays_finite_at_low_temperature(self):
        els = STRUCTURES["degenerate qutrit"]
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0]))
        d_th = state_functionals(rho.elements, els, 40.0).D_th
        assert math.isfinite(d_th)
        assert _agree(d_th, relative_entropy(dephase_diagonal(rho, els), thermal_state_of(els, 40.0)))

    @pytest.mark.parametrize("index", range(len(THERMAL_OPERATION_STRUCTURES)))
    @pytest.mark.parametrize("beta", [0.0, 1.3])
    def test_stack_equals_single_states(self, index, beta):
        """d = 2, 3, 4 and 6: a stack one chunk and three states long, rank-deficient states
        among them, gives each state bitwise the functionals it gets alone."""
        els = THERMAL_OPERATION_STRUCTURES[index]
        n = CHUNK_ENTRIES // els.dim**2 + 3
        stack = np.array([random_density(els.dim, seed, rank=(None, 1)[seed % 2]) for seed in range(n)])
        f = state_functionals(stack, els, beta)
        for k in (0, 1, n - 4, n - 3, n - 2, n - 1):
            one = _bits(state_functionals(stack[k], els, beta))
            assert [np.asarray(getattr(f, name)[k]).tobytes() for name in f._fields] == one

    def test_stack_of_one_keeps_a_leading_axis(self):
        """A stack of one keeps its axis in every stacked field and in the overlaps of its
        drift, which are None without one."""
        els = STRUCTURES["degenerate qutrit"]
        stack = random_density(3, 5)[None]
        assert state_functionals(stack, els, 1.3).S.shape == (1,)
        r = els.to_labeled(stack)
        *functionals, null, flows, _ = spectral_kernel(r, *np.linalg.eigh(r), els, 1.3, None)
        assert all(f.shape == (1,) for f in functionals)
        assert null.shape == (1, 3, 3) and flows is None
        assert spectral_kernel(r, *np.linalg.eigh(r), els, 1.3, lambda r: r)[-2].shape == (1, 5)

    def test_null_vectors_in_input_basis(self):
        """The null-space projector, in the input basis: rank 2 for a rank-1 qutrit."""
        els = STRUCTURES["rotated qutrit"]
        rho = DensityMatrix(random_density(3, 7, rank=1))
        r = els.to_labeled(rho.elements)[None]
        (null,) = spectral_kernel(r, *np.linalg.eigh(r), els, 1.0, None)[-3]
        assert null.shape == (3, 3)
        assert np.max(np.abs(null @ null - null)) < 1e-12
        assert abs(np.trace(null) - 2.0) < 1e-12
        assert np.max(np.abs(rho.elements @ null)) < 1e-12
