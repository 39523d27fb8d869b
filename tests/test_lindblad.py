import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from cohentropy import (
    DensityMatrix,
    HermitianObservable,
    HorizonExceeded,
    MissingRate,
    SpinEnsembleSpec,
    asymptotic_state,
    build_generator,
    build_level_structure,
    collective_coupling,
    eigenoperators,
    evolve,
    flat_bath,
    instantaneous_rates,
    local_couplings,
    thermal_state_of,
)
from cohentropy import lindblad
from cohentropy.exceptions import InvariantViolation
from cohentropy.lindblad import KRYLOV_MAX_DIM, BathSpectrum, JumpOperatorSet, LindbladGenerator
from cohentropy.scenarios import (
    GridSpec,
    NearDegenerateConfig,
    OttoParams,
    ReversalConfig,
    build_near_degenerate_scenario,
    build_reversal_scenario,
)
from conftest import (
    SX,
    blocked_superoperator,
    dense_superoperator,
    dephase_block_diagonal,
    dephase_diagonal,
    random_density,
)


class TestBathSpectrum:
    def test_kms_condition(self):
        bath = flat_bath(0.4, 1.7)
        for w in (0.5, 1.0, 3.0):
            assert bath.G(-w) == pytest.approx(bath.G(w) * math.exp(-w * 1.7), rel=1e-14)

    def test_missing_rate(self):
        def partial(w):
            if w > 0.5:
                raise KeyError(w)
            return 0.1

        bath = BathSpectrum(beta_B=1.0, g_half=partial)
        with pytest.raises(MissingRate):
            bath.G(1.0)

    def test_negative_rate_rejected(self):
        bath = BathSpectrum(beta_B=1.0, g_half=lambda w: -0.1)
        with pytest.raises(MissingRate):
            bath.G(1.0)


class TestEigenoperators:
    def test_qubit_ladder(self, qubit_system):
        els, _ = qubit_system
        jumps = eigenoperators(HermitianObservable(SX), els)
        assert jumps.frequencies == (-1.0, 1.0)
        lowering = dict(zip(jumps.frequencies, jumps.operators))[1.0]
        expect = np.zeros((2, 2), dtype=complex)
        expect[0, 1] = 1.0  # |g><e|
        assert np.allclose(lowering, expect, atol=1e-14)

    def test_degenerate_transition_elements(self, two_qubit_collective):
        # both one-excitation states connect to the ground state, and A A^dag
        # carries a coherence between them
        _, system, els, _ = two_qubit_collective
        jumps = eigenoperators(system.A_S, els)
        a = dict(zip(jumps.frequencies, jumps.operators))[1.0]
        ground = np.zeros(4)
        ground[0] = 1.0
        one_exc = [np.eye(4)[1], np.eye(4)[2]]
        for state in one_exc:
            assert abs(ground @ a @ state) > 0.5
        aad = a @ a.conj().T
        assert abs(one_exc[0] @ aad @ one_exc[1]) > 0.5

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_completeness(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a_s = HermitianObservable(0.5 * (g + g.conj().T))
        els = build_level_structure(HermitianObservable(np.diag([0.0, 1.0, 1.0, 2.0])))
        jumps = eigenoperators(a_s, els)
        total = sum(jumps.operators)
        assert np.max(np.abs(total - a_s.elements)) < 1e-12

    def test_mirror_property(self, two_qubit_collective):
        _, system, els, _ = two_qubit_collective
        jumps = eigenoperators(system.A_S, els)
        ops = dict(zip(jumps.frequencies, jumps.operators))
        for w in jumps.frequencies:
            assert np.allclose(ops[-w], ops[w].conj().T, atol=1e-13)

    def test_tiny_frequency_keeps_both_channels(self):
        """Levels 1e-12 apart stay apart: +-omega are not merged into w = 0."""
        system = collective_coupling(SpinEnsembleSpec(2, 0.5, 1e-12))
        els = system.level_structure()
        assert els.n_levels == 3
        assert eigenoperators(system.A_S, els).frequencies == (-1e-12, 1e-12)

    def test_zero_frequency_dephasing_component(self):
        """A_S with a block-diagonal part yields a Hermitian A(0)."""
        els = build_level_structure(HermitianObservable(np.diag([0.0, 1.0, 1.0])))
        a_s = np.zeros((3, 3), dtype=complex)
        a_s[0, 1] = a_s[1, 0] = 1.0   # transition component
        a_s[1, 2] = a_s[2, 1] = 0.5   # inside the degenerate level
        a_s[0, 0] = 0.3
        jumps = eigenoperators(HermitianObservable(a_s), els)
        assert 0.0 in jumps.frequencies
        a0 = dict(zip(jumps.frequencies, jumps.operators))[0.0]
        assert np.allclose(a0, a0.conj().T, atol=1e-14)
        assert abs(a0[1, 2]) > 0.4 and abs(a0[0, 0] - 0.3) < 1e-14
        assert abs(a0[0, 1]) < 1e-14

    def test_leaking_operator_rejected(self):
        """A(1) with an element between levels 1 apart and one between degenerate levels."""
        els = build_level_structure(HermitianObservable(np.diag([0.0, 1.0, 1.0])))
        a = np.zeros((3, 3), dtype=complex)
        a[0, 1] = 1.0
        JumpOperatorSet(frequencies=(-1.0, 1.0), operators=(a.conj().T, a), els=els)
        a[1, 2] = 1e-9
        with pytest.raises(InvariantViolation, match="leaks between levels 1 and 1"):
            JumpOperatorSet(frequencies=(-1.0, 1.0), operators=(a.conj().T, a), els=els)


class TestBuildGenerator:
    def test_thermal_stationarity(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        rho_th = thermal_state_of(els, 1.0)
        assert np.max(np.abs(gen.apply(rho_th))) < 1e-10

    def test_two_level_rate_equation(self, qubit_system):
        """Closed-form 2x2 oracle: dp_e/dt = -G p_e + G e^(-w b) p_g."""
        els, gen = qubit_system
        gamma, beta = 0.1, 1.0
        g_down, g_up = gamma, gamma * math.exp(-beta)
        r = g_down + g_up
        p_inf = g_up / r
        rho0 = DensityMatrix(np.diag([0.3, 0.7]), ("g", "e"))
        for t in (0.5, 2.0, 10.0):
            state = evolve(gen, rho0, [t])[0]
            expect = p_inf + (0.7 - p_inf) * math.exp(-r * t)
            assert state.elements[1, 1].real == pytest.approx(expect, abs=1e-12)
        steady = asymptotic_state(gen, rho0)
        ratio = steady.elements[1, 1].real / steady.elements[0, 0].real
        assert ratio == pytest.approx(math.exp(-beta), abs=1e-10)

    def test_identity_coupling_gives_zero_generator(self):
        els = build_level_structure(HermitianObservable(np.diag([0.0, 1.0, 1.0])))
        gen = build_generator([HermitianObservable(np.eye(3))], els, flat_bath(0.3, 1.0))
        assert np.max(np.abs(dense_superoperator(gen))) < 1e-14
        assert max(np.max(np.abs(block)) for _, block in gen.blocks) < 1e-14

    def test_lamb_shift_preserves_stationarity(self, two_qubit_collective):
        _, system, els, _ = two_qubit_collective
        bath = BathSpectrum(beta_B=1.0, g_half=lambda w: 0.05, lamb_shift=lambda w: 0.02 * w)
        gen = build_generator([system.A_S], els, bath)
        assert np.max(np.abs(gen.apply(thermal_state_of(els, 1.0)))) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(
        levels=st.integers(2, 4).flatmap(lambda d: st.lists(st.integers(0, 2), min_size=d, max_size=d)),
        channels=st.integers(1, 2),
        beta_b=st.floats(0.2, 2.0),
        mix=st.floats(0.0, 1.0),
        seed=st.integers(0, 10_000),
    )
    def test_channels_add_propagate_and_stay_positive(self, levels, channels, beta_b, mix, seed):
        """Random degeneracy pattern, one or two random channels, a state with lambda_min >= 1e-3:
        blocks equal to the dense reference, channels adding exactly, propagate against expm."""
        d = len(levels)
        els = build_level_structure(HermitianObservable(np.diag(np.sort(levels).astype(float))))
        rng = np.random.default_rng(seed)
        couplings = []
        for _ in range(channels):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            couplings.append(HermitianObservable(0.5 * (g + g.conj().T)))
        bath = flat_bath(0.1, beta_b)
        gen = build_generator(couplings, els, bath)
        # H is diagonal and sorted, so the labeled eigenbasis is the input basis
        assert np.array_equal(blocked_superoperator(gen), dense_superoperator(gen))
        if channels == 2:
            parts = [blocked_superoperator(build_generator([a], els, bath)) for a in couplings]
            assert np.array_equal(blocked_superoperator(gen), parts[0] + parts[1])
            assert gen.jumps is None
        else:
            assert gen.jumps is not None
        floor = d * 1e-3
        p = floor + (1.0 - floor) * mix  # weight of the maximally mixed state
        rho = DensityMatrix((1.0 - p) * random_density(d, seed) + p * np.eye(d) / d, els.basis_labels)
        vec = rho.elements.reshape(-1)
        times = (-1e-3, 0.5, 5.0)
        dense = dense_superoperator(gen)
        for t, got in zip(times, gen.propagate(vec, times)):
            assert np.max(np.abs(got - scipy.linalg.expm(t * dense) @ vec)) < 1e-10
        snap = instantaneous_rates(gen, rho)
        assert snap.Pi_rate >= -1e-8
        assert -snap.rate_C_v >= -1e-8
        assert -(snap.rate_C_h + snap.rate_D_th) >= -1e-8


class TestEvolve:
    def test_time_zero_is_exact(self, qubit_system):
        _, gen = qubit_system
        rho0 = DensityMatrix(random_density(2, 3), ("g", "e"))
        out = evolve(gen, rho0, [0.0])[0]
        assert out is rho0

    def test_stationary_trajectory(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        rho_th = thermal_state_of(els, 1.0)
        for state in evolve(gen, rho_th, [0.1, 1.0, 50.0]):
            assert np.max(np.abs(state.elements - rho_th.elements)) < 1e-12

    def test_qubit_coherence_decay_closed_form(self, qubit_system):
        els, gen = qubit_system
        gamma, beta = 0.1, 1.0
        r = gamma * (1 + math.exp(-beta))
        rho0 = DensityMatrix(np.array([[0.6, 0.25], [0.25, 0.4]], dtype=complex), ("g", "e"))
        for t in (0.7, 3.0):
            state = evolve(gen, rho0, [t])[0]
            assert state.elements[0, 1] == pytest.approx(0.25 * math.exp(-r * t / 2), abs=1e-8)

    def test_trace_and_hermiticity_along_trajectory(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        rho0 = DensityMatrix(random_density(4, 17), els.basis_labels)
        for state in evolve(gen, rho0, list(np.geomspace(0.01, 100.0, 20))):
            assert abs(state.elements.trace() - 1.0) < 1e-10
            assert np.max(np.abs(state.elements - state.elements.conj().T)) < 1e-10

    def test_horizon_enforced_in_near_degenerate_mode(self):
        h = HermitianObservable(np.diag([0.0, 1.0, 1.001]))
        els = build_level_structure(h, delta=0.01)
        sx01 = np.zeros((3, 3), dtype=complex)
        sx01[0, 1] = sx01[1, 0] = 1.0
        sx01[0, 2] = sx01[2, 0] = 1.0
        gen = build_generator([HermitianObservable(sx01)], els, flat_bath(0.1, 1.0))
        rho0 = thermal_state_of(els, 2.0)
        evolve(gen, rho0, [5.0])  # within 0.1/delta = 10
        with pytest.raises(HorizonExceeded):
            evolve(gen, rho0, [11.0])

    def test_degenerate_transitions_generate_horizontal_coherence(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        rho0 = thermal_state_of(els, 2.0)  # thermal at beta_0 != beta_B
        t = 0.01 / gen.norm_inf
        state = evolve(gen, rho0, [t])[0]
        assert abs(rho0.elements[1, 2]) < 1e-15
        assert abs(state.elements[1, 2]) > 1e-7


def cascade_generator() -> LindbladGenerator:
    """Decay |0> -> |1> -> |2> at equal rates, one channel of two terms: L is not diagonalizable."""
    down_01 = np.zeros((3, 3), dtype=complex)
    down_01[1, 0] = 1.0
    down_12 = np.zeros((3, 3), dtype=complex)
    down_12[2, 1] = 1.0
    els = build_level_structure(HermitianObservable(np.diag([0.0, 1.0, 2.0])))
    channel = ((down_01, 0.05), (down_12, 0.05))
    return LindbladGenerator(channels=(channel,), els=els, bath=flat_bath(0.1, 1.0))


def collective_generator(n: int, beta_b: float = 1.0, gamma: float = 0.1) -> LindbladGenerator:
    system = collective_coupling(SpinEnsembleSpec(n, 0.5, 1.0))
    return build_generator([system.A_S], system.level_structure(), flat_bath(gamma, beta_b))


def generic_generator() -> LindbladGenerator:
    """Two six-fold degenerate levels and a random coupling: a 72-row population sector
    whose Krylov spaces are the whole sector, past KRYLOV_MAX_DIM."""
    rng = np.random.default_rng(3)
    els = build_level_structure(HermitianObservable(np.diag([0.0] * 6 + [1.0] * 6)))
    g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    return build_generator([HermitianObservable(0.5 * (g + g.conj().T))], els, flat_bath(0.1, 1.0))


def otto_generator(machine: str, stroke: str) -> LindbladGenerator:
    """Generator of one Otto isochore, built as ``otto_cycle`` builds it."""
    spec = SpinEnsembleSpec(2, 0.5, 1.0)
    system = collective_coupling(spec)
    params = OttoParams()
    scale, beta = (1.0, params.beta_cold) if stroke == "cold" else (params.lam, params.beta_hot)
    els = build_level_structure(HermitianObservable(scale * system.H_S.elements))
    couplings = [system.A_S] if machine == "coherent" else local_couplings(spec)
    return build_generator(couplings, els, flat_bath(0.1, beta))


def rotated_qutrit_generator() -> LindbladGenerator:
    """Levels (0, 1, 1) in a basis where H is not diagonal: L splits only in the eigenbasis."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    els = build_level_structure(HermitianObservable(q @ np.diag([0.0, 1.0, 1.0]) @ q.conj().T))
    coupling = np.array([[0, 1, 0.5], [1, 0, 0], [0.5, 0, 0]], dtype=complex)
    return build_generator([HermitianObservable(q @ coupling @ q.conj().T)], els, flat_bath(0.1, 1.0))


BLOCKED_GENERATORS = {
    **{f"collective n={n}": (lambda n=n: collective_generator(n)) for n in (1, 2, 3, 4)},
    "reversal": lambda: build_reversal_scenario(
        ReversalConfig(beta_0=1.1, time_grid=GridSpec(3))
    ).gen,
    "near-degenerate exact": lambda: build_near_degenerate_scenario(
        NearDegenerateConfig(time_grid=GridSpec(3))
    ).gen_exact,
    "near-degenerate clustered": lambda: build_near_degenerate_scenario(
        NearDegenerateConfig(time_grid=GridSpec(3))
    ).gen_clustered,
    **{
        f"otto {machine} {stroke}": (lambda m=machine, s=stroke: otto_generator(m, s))
        for machine in ("coherent", "incoherent")
        for stroke in ("cold", "hot")
    },
    "rotated qutrit": rotated_qutrit_generator,
    "cascade": cascade_generator,
}


@pytest.fixture
def eig_rows(monkeypatch):
    """Rows of each matrix np.linalg.eig decomposes."""
    rows = []

    def counted(a, _orig=np.linalg.eig):
        rows.append(len(a))
        return _orig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    return rows


def block_paths(gen, vec, eig_rows) -> list[str]:
    """The path each block vec occupies takes in one propagate on a copy of gen with no cached
    eig, read off eig_rows: one eig per block, of the block ("full") or of its Krylov matrix."""
    gen = dataclasses.replace(gen)
    eig_rows.clear()
    gen.propagate(vec, (1.0,))
    x = gen.els.to_labeled(vec.reshape(gen.dim, gen.dim)).reshape(-1)
    rows = [len(idx) for idx, _ in gen.blocks if x[idx].any()]
    assert len(eig_rows) == len(rows)
    return ["krylov" if m < r else "full" for m, r in zip(eig_rows, rows)]


def full_path_propagate(monkeypatch, gen, vec, times):
    """propagate on a copy of gen with every block on its eig/expm path, as below the cap."""
    with monkeypatch.context() as m:
        m.setattr(lindblad, "KRYLOV_MAX_DIM", 10**9)
        return dataclasses.replace(gen).propagate(vec, times)


class TestPropagate:
    """The blocks, ``apply`` and the blocked ``propagate`` against the dense kron reference."""

    TIMES = (-1e-3, 5e-4, 5.0)

    def check_against_expm(self, gen, *vecs):
        vecs = vecs or (random_density(gen.dim, 5).reshape(-1),)
        dense = dense_superoperator(gen)
        steps = [scipy.linalg.expm(t * dense) for t in self.TIMES]
        for vec in vecs:
            for step, got in zip(steps, gen.propagate(vec, self.TIMES)):
                assert np.max(np.abs(got - step @ vec)) < 1e-12

    @pytest.mark.parametrize("name", list(BLOCKED_GENERATORS))
    def test_blocks_equal_dense_reference(self, name):
        """Exactly when H is diagonal (the eigenbasis permutes the input basis), else to 1e-15."""
        gen = BLOCKED_GENERATORS[name]()
        u = np.kron(gen.els.basis_vectors, gen.els.basis_vectors.conj())
        want = u.conj().T @ dense_superoperator(gen) @ u
        got = blocked_superoperator(gen)
        if name == "rotated qutrit":
            assert np.max(np.abs(got - want)) < 1e-15
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", list(BLOCKED_GENERATORS))
    def test_apply_matches_dense_matvec(self, name):
        gen = BLOCKED_GENERATORS[name]()
        dense = dense_superoperator(gen)
        rho = random_density(gen.dim, 7)
        want = (dense @ rho.reshape(-1)).reshape(gen.dim, gen.dim)
        assert np.max(np.abs(gen.apply(rho) - want)) <= 1e-14 * max(1.0, np.max(np.abs(dense)))

    @pytest.mark.parametrize("name", list(BLOCKED_GENERATORS))
    def test_every_block_against_expm(self, name, eig_rows):
        """A full-rank state occupies every block; only a block above KRYLOV_MAX_DIM rows
        (the 70-row population sector at n = 4) goes through its Krylov space."""
        gen = BLOCKED_GENERATORS[name]()
        vec = random_density(gen.dim, 5).reshape(-1)
        want = ["krylov" if len(idx) > KRYLOV_MAX_DIM else "full" for idx, _ in gen.blocks]
        assert block_paths(gen, vec, eig_rows) == want
        self.check_against_expm(gen)

    @pytest.mark.parametrize("beta_b", [1.0, 30.0])
    @pytest.mark.parametrize("n", [4, 5])
    def test_collective_against_expm(self, n, beta_b, eig_rows):
        """Thermal (beta_0 = 2) and full-rank starts, also at the nearly defective cold bath.
        Every block of KRYLOV_MAX_DIM rows or fewer takes its eig/expm path; a larger one
        its Krylov space, except at n = 5, beta_B = 1, where a full-rank start reaches past
        the cap in the 252-, 210- and 120-row sectors."""
        gen = collective_generator(n, beta_b)
        thermal = thermal_state_of(gen.els, 2.0).elements.reshape(-1)
        full = random_density(gen.dim, 5).reshape(-1)
        self.check_against_expm(gen, thermal, full)
        rows = [len(idx) for idx, _ in gen.blocks]
        big = "full" if (n, beta_b) == (5, 1.0) else "krylov"
        paths = [big if r > KRYLOV_MAX_DIM else "full" for r in rows]
        assert block_paths(gen, thermal, eig_rows) == ["krylov"]
        assert block_paths(gen, full, eig_rows) == paths

    def test_breakdown_is_relative_to_the_norm(self, eig_rows):
        """The Arnoldi breakdown scales with ||L||: the same Krylov dimension from gamma = 1e-6 to 1e4."""
        dims = []
        for gamma in (1e-6, 0.1, 1e4):
            gen = collective_generator(5, gamma=gamma)
            assert gen.norm_inf == max(np.max(np.sum(np.abs(b), axis=1)) for _, b in gen.blocks)
            eig_rows.clear()
            gen.propagate(thermal_state_of(gen.els, 2.0).elements.reshape(-1), (1.0,))
            dims.append(list(eig_rows))
        assert dims == [[10]] * 3

    def test_krylov_cap_takes_the_full_path_bit_for_bit(self, monkeypatch, eig_rows):
        """A 72-row sector whose Krylov space needs more than KRYLOV_MAX_DIM vectors."""
        vec = random_density(12, 5).reshape(-1)
        gen = generic_generator()
        got = gen.propagate(vec, self.TIMES)
        assert eig_rows == [72, 36, 36]
        want = full_path_propagate(monkeypatch, gen, vec, self.TIMES)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_non_invariant_basis_takes_the_full_path_bit_for_bit(self, monkeypatch):
        """An early breakdown (the norm inflated 1e12-fold) leaves a basis that fails the
        invariance check, so the block goes through its own eig."""
        results = []

        def early(block, x, norm, tol, _orig=lindblad._krylov_projection):
            results.append(_orig(block, x, 1e12 * norm, tol))
            return results[-1]

        gen = collective_generator(4)
        vec = thermal_state_of(gen.els, 2.0).elements.reshape(-1)
        monkeypatch.setattr(lindblad, "_krylov_projection", early)
        got = gen.propagate(vec, self.TIMES)
        assert results == [None]
        want = full_path_propagate(monkeypatch, gen, vec, self.TIMES)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_expm_fallback_on_defective_generator(self):
        gen = cascade_generator()
        self.check_against_expm(gen)
        fallback = [gen.blocks[k][0].tolist() for k, eig in gen._block_eigs.items() if eig is None]
        assert fallback == [[0, 4, 8]]  # the populations; each coherence takes its eig

    def test_eig_branch_on_collective_generator(self, two_qubit_collective):
        *_, gen = two_qubit_collective
        self.check_against_expm(gen)
        assert all(eig is not None for eig in gen._block_eigs.values())

    def test_blocks_are_the_bohr_sectors(self):
        sizes = sorted((len(idx) for idx, _ in collective_generator(5).blocks), reverse=True)
        assert sizes == [252, 210, 210, 120, 120, 45, 45, 10, 10, 1, 1]

    def test_non_diagonal_hamiltonian_splits_into_sectors(self):
        """Populations with the horizontal coherences of the degenerate level, and one
        sector per direction of the vertical coherences."""
        sizes = sorted((len(idx) for idx, _ in rotated_qutrit_generator().blocks), reverse=True)
        assert sizes == [5, 2, 2]

    def test_evolve_on_defective_generator(self):
        gen = cascade_generator()
        rho0 = DensityMatrix(random_density(3, 9), gen.els.basis_labels)
        times = [0.5, 5.0, 40.0]
        dense = dense_superoperator(gen)
        for t, state in zip(times, evolve(gen, rho0, times)):
            want = scipy.linalg.expm(t * dense) @ rho0.elements.reshape(-1)
            assert np.max(np.abs(state.elements.reshape(-1) - want)) < 1e-12


class TestSteadyStates:
    def test_non_degenerate_qubit_unique_gibbs(self, qubit_system):
        """Every start relaxes to the one Gibbs state."""
        els, gen = qubit_system
        for seed in (3, 11):
            steady = asymptotic_state(gen, DensityMatrix(random_density(2, seed), els.basis_labels))
            assert np.allclose(steady.elements, thermal_state_of(els, 1.0).elements, atol=1e-9)

    def test_collective_manifold_dimension(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        rho_th = thermal_state_of(els, 1.0)
        assert np.max(np.abs(gen.apply(rho_th))) < 1e-12
        states = [asymptotic_state(gen, DensityMatrix(random_density(4, seed), els.basis_labels))
                  for seed in (3, 11)]
        for state in states:
            assert np.max(np.abs(gen.apply(state))) < 1e-10
        assert np.max(np.abs(states[0].elements - states[1].elements)) > 1e-6  # not one point

    def test_detailed_balance_nondegenerate(self):
        """Stationary populations of a connected ladder obey e^(-beta gap)."""
        h = HermitianObservable(np.diag([0.0, 0.7, 1.8]))
        els = build_level_structure(h)
        coupling = np.zeros((3, 3), dtype=complex)
        coupling[0, 1] = coupling[1, 0] = 1.0
        coupling[1, 2] = coupling[2, 1] = 0.6
        gen = build_generator([HermitianObservable(coupling)], els, flat_bath(0.2, 1.1))
        steady = asymptotic_state(gen, DensityMatrix(np.eye(3) / 3))
        p = np.diag(steady.elements).real
        assert p[1] / p[0] == pytest.approx(math.exp(-1.1 * 0.7), abs=1e-8)
        assert p[2] / p[1] == pytest.approx(math.exp(-1.1 * 1.1), abs=1e-8)


class TestCutCommutation:
    def test_block_diagonal_cut_commutes_with_evolution(self, two_qubit_collective):
        """Vertical coherences decouple: BD o exp(tL) = exp(tL) o BD."""
        _, _, els, gen = two_qubit_collective
        rho0 = DensityMatrix(random_density(4, 23), els.basis_labels)
        for dt in (0.1, 1.0):
            left = dephase_block_diagonal(evolve(gen, rho0, [dt])[0], els)
            right = evolve(gen, dephase_block_diagonal(rho0, els), [dt])[0]
            assert np.max(np.abs(left.elements - right.elements)) < 1e-10

    def test_diagonal_cut_does_not_commute(self, two_qubit_collective):
        """Populations couple to horizontal coherences: D o exp(tL) != exp(tL) o D."""
        _, _, els, gen = two_qubit_collective
        base = thermal_state_of(els, 1.1)
        chi = np.zeros((4, 4), dtype=complex)
        chi[1, 2] = chi[2, 1] = 0.15
        rho0 = DensityMatrix(base.elements + chi, els.basis_labels)
        dt = 0.5
        left = dephase_diagonal(evolve(gen, rho0, [dt])[0], els)
        right = evolve(gen, dephase_diagonal(rho0, els), [dt])[0]
        assert np.max(np.abs(left.elements - right.elements)) > 1e-6
