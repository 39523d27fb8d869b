import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from cohentropy import (
    DensityMatrix,
    HermitianObservable,
    HorizonExceeded,
    MissingRate,
    ShapeMismatch,
    SpinEnsembleSpec,
    asymptotic_state,
    build_generator,
    build_level_structure,
    collective_coupling,
    eigenoperators,
    evolve,
    flat_bath,
    local_couplings,
    thermal_state_of,
)
from cohentropy.exceptions import InvariantViolation
from cohentropy.lindblad import BathSpectrum, JumpOperatorSet, LindbladGenerator
from cohentropy.qcore import max_abs
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
    dense_blocks,
    dense_superoperator,
    dephase_block_diagonal,
    dephase_diagonal,
    propagate,
    random_density,
    rates_of,
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

    def test_frequency_off_by_more_than_the_width_leaks(self):
        """At cluster width 0 a Bohr frequency matches a level gap within 1e-10 times the
        largest gap plus the rounding slack: 1 + 5e-10 does not match the gap 1."""
        els = build_level_structure(HermitianObservable(np.diag([0.0, 1.0, 1.0])))
        a = np.zeros((3, 3), dtype=complex)
        a[0, 1] = 1.0
        w = 1.0 + 5e-10
        with pytest.raises(InvariantViolation, match=r"A\(-1.0000000005\) leaks between levels 1"):
            JumpOperatorSet(frequencies=(-w, w), operators=(a.conj().T, a), els=els)


class TestBuildGenerator:
    def test_thermal_stationarity(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        rho_th = thermal_state_of(els, 1.0)
        assert np.max(np.abs(gen.apply(rho_th.elements))) < 1e-10

    def test_two_level_rate_equation(self, qubit_system):
        """Closed-form 2x2 oracle: dp_e/dt = -G p_e + G e^(-w b) p_g."""
        els, gen = qubit_system
        gamma, beta = 0.1, 1.0
        g_down, g_up = gamma, gamma * math.exp(-beta)
        r = g_down + g_up
        p_inf = g_up / r
        rho0 = DensityMatrix(np.diag([0.3, 0.7]))
        for t in (0.5, 2.0, 10.0):
            state = evolve(gen, rho0, [t])[0]
            expect = p_inf + (0.7 - p_inf) * math.exp(-r * t)
            assert state[1, 1].real == pytest.approx(expect, abs=1e-12)
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
        assert np.max(np.abs(gen.apply(thermal_state_of(els, 1.0).elements))) < 1e-10

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
        rho = DensityMatrix((1.0 - p) * random_density(d, seed) + p * np.eye(d) / d)
        vec = rho.elements.reshape(-1)
        times = (-1e-3, 0.5, 5.0)
        dense = dense_superoperator(gen)
        for t, got in zip(times, propagate(gen, vec, times)):
            assert np.max(np.abs(got - scipy.linalg.expm(t * dense) @ vec)) < 1e-10
        snap = rates_of(gen, rho.elements)
        assert snap.Pi_rate >= -1e-8
        assert -snap.rate_C_v >= -1e-8
        assert -(snap.rate_C_h + snap.rate_D_th) >= -1e-8


class TestEvolve:
    def test_time_zero_is_exact(self, qubit_system):
        _, gen = qubit_system
        rho0 = DensityMatrix(random_density(2, 3))
        states = evolve(gen, rho0, [0.0])
        assert states.shape == (1, 2, 2) and not states.flags.writeable
        assert states[0].tobytes() == rho0.elements.tobytes()

    def test_stationary_trajectory(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        rho_th = thermal_state_of(els, 1.0)
        for state in evolve(gen, rho_th, [0.1, 1.0, 50.0]):
            assert np.max(np.abs(state - rho_th.elements)) < 1e-12

    def test_qubit_coherence_decay_closed_form(self, qubit_system):
        els, gen = qubit_system
        gamma, beta = 0.1, 1.0
        r = gamma * (1 + math.exp(-beta))
        rho0 = DensityMatrix(np.array([[0.6, 0.25], [0.25, 0.4]], dtype=complex))
        for t in (0.7, 3.0):
            state = evolve(gen, rho0, [t])[0]
            assert state[0, 1] == pytest.approx(0.25 * math.exp(-r * t / 2), abs=1e-8)

    def test_trace_and_hermiticity_along_trajectory(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        rho0 = DensityMatrix(random_density(4, 17))
        for state in evolve(gen, rho0, list(np.geomspace(0.01, 100.0, 20))):
            assert abs(state.trace() - 1.0) < 1e-10
            assert np.max(np.abs(state - state.conj().T)) < 1e-10

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
        assert abs(state[1, 2]) > 1e-7


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
    """Two six-fold degenerate levels and a random coupling: a 72-row population sector."""
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
    "generic": generic_generator,
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


def assert_one_eig_per_occupied_block(gen, vec, eig_rows) -> None:
    """One propagate of vec on a copy of gen with no cached eig makes one eig per block vec
    occupies, of that block's own rows, in block order."""
    gen = dataclasses.replace(gen)
    eig_rows.clear()
    propagate(gen, vec, (1.0,))
    x = gen.els.to_labeled(vec.reshape(gen.dim, gen.dim)).reshape(-1)
    assert eig_rows == [len(idx) for idx, _ in gen.blocks if x[idx].any()]


def blockwise_expm(gen, vec, times) -> np.ndarray:
    """exp(t L) vec by scipy's expm of each occupied block at each t, row-stacked in the
    input basis: one row per t."""
    d, v = gen.dim, gen.els.basis_vectors
    x0 = gen.els.to_labeled(vec.reshape(d, d)).reshape(-1)
    out = np.zeros((len(times), d * d), dtype=complex)
    for idx, block in gen.blocks:
        if x0[idx].any():
            out[:, idx] = [scipy.linalg.expm(block * t) @ x0[idx] for t in times]
    return (v @ out.reshape(-1, d, d) @ v.conj().T).reshape(len(times), -1)


class TestPropagate:
    """The blocks, ``apply`` and the blocked ``labeled_propagate`` against the dense kron
    reference."""

    TIMES = (-1e-3, 5e-4, 5.0)

    def check_against_expm(self, gen, *vecs):
        vecs = vecs or (random_density(gen.dim, 5).reshape(-1),)
        dense = dense_superoperator(gen)
        steps = [scipy.linalg.expm(t * dense) for t in self.TIMES]
        for vec in vecs:
            for step, got in zip(steps, propagate(gen, vec, self.TIMES)):
                assert np.max(np.abs(got - step @ vec)) < 1e-12

    def test_empty_time_list_is_a_shape_mismatch(self):
        gen = BLOCKED_GENERATORS["collective n=2"]()
        with pytest.raises(ShapeMismatch, match="propagate: the time list is empty"):
            propagate(gen, random_density(gen.dim, 5).reshape(-1), [])

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
        """A full-rank state occupies every block, and each block takes its own eig."""
        gen = BLOCKED_GENERATORS[name]()
        assert_one_eig_per_occupied_block(gen, random_density(gen.dim, 5).reshape(-1), eig_rows)
        self.check_against_expm(gen)

    @pytest.mark.parametrize("beta_b", [1.0, 30.0])
    @pytest.mark.parametrize("n", [4, 5])
    def test_collective_against_expm(self, n, beta_b, eig_rows):
        """Thermal (beta_0 = 2) and full-rank starts, also at the nearly defective cold bath,
        where the population sector takes expm steps; one eig per occupied block either way.
        At beta_B = 30 a beta_0 = 50 start also holds to t = 3000 against block-wise expm."""
        gen = collective_generator(n, beta_b)
        thermal = thermal_state_of(gen.els, 2.0).elements.reshape(-1)
        full = random_density(gen.dim, 5).reshape(-1)
        self.check_against_expm(gen, thermal, full)
        for vec in (thermal, full):
            assert_one_eig_per_occupied_block(gen, vec, eig_rows)
        if beta_b == 30.0:
            cold = thermal_state_of(gen.els, 50.0).elements.reshape(-1)
            times = (5.0, 300.0, 3000.0)
            got, want = propagate(gen, cold, times), blockwise_expm(gen, cold, times)
            assert np.max(np.abs(got - want)) < 1e-12

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
        rho0 = DensityMatrix(random_density(3, 9))
        times = [0.5, 5.0, 40.0]
        dense = dense_superoperator(gen)
        for t, state in zip(times, evolve(gen, rho0, times)):
            want = scipy.linalg.expm(t * dense) @ rho0.elements.reshape(-1)
            assert np.max(np.abs(state.reshape(-1) - want)) < 1e-12


def lamb_shifted_generator(local: bool) -> LindbladGenerator:
    """Three spins under a bath with a Lamb shift (complex Gamma), one collective channel
    or three local ones."""
    spec = SpinEnsembleSpec(3, 0.5, 1.0)
    system = collective_coupling(spec)
    bath = BathSpectrum(beta_B=0.8, g_half=lambda w: 0.05, lamb_shift=lambda w: 0.02 * w + 0.01)
    couplings = local_couplings(spec) if local else [system.A_S]
    return build_generator(couplings, system.level_structure(), bath)


ORACLE_GENERATORS = {
    **BLOCKED_GENERATORS,
    **{
        f"collective n={n} beta_B={b:g}": (lambda n=n, b=b: collective_generator(n, b))
        for n in (2, 3, 4, 5, 6)
        for b in (1.0, 30.0)
    },
    "generation": lambda: collective_generator(2),  # criterion 5's and 7's generator
    "lamb shift collective": lambda: lamb_shifted_generator(local=False),
    "lamb shift local": lambda: lamb_shifted_generator(local=True),
}


class TestAssembly:
    """The blocks, built from the jump operators' nonzeros, against the dense oracle that
    evaluates every entry of every block."""

    @pytest.mark.parametrize("name", list(ORACLE_GENERATORS))
    def test_blocks_equal_the_dense_oracle_bit_for_bit(self, name):
        gen = ORACLE_GENERATORS[name]()
        want = dense_blocks(gen)
        assert [idx.tolist() for idx, _ in gen.blocks] == [idx.tolist() for idx, _ in want]
        assert all(b.tobytes() == w.tobytes() for (_, b), (_, w) in zip(gen.blocks, want))
        assert gen._scale == max(1.0, max(max_abs(w) for _, w in want))
        assert gen.norm_inf == max(np.max(np.sum(np.abs(w), axis=1)) for _, w in want)

    def test_no_jump_term_gives_zero_blocks(self):
        """A degenerate qutrit with A_S = 0, or with no channel at all: each level pair is its
        own all-zero block, and propagate is the identity."""
        els = build_level_structure(HermitianObservable(np.diag([0.0, 1.0, 1.0])))
        bath = flat_bath(0.1, 1.0)
        zero = build_generator([HermitianObservable(np.zeros((3, 3)))], els, bath)
        assert zero.channels == ((),)
        vec = random_density(3, 4).reshape(-1)
        for gen in (zero, LindbladGenerator(channels=(), els=els, bath=bath)):
            assert [idx.tolist() for idx, _ in gen.blocks] == [[0], [1, 2], [3, 6], [4, 5, 7, 8]]
            assert [b.tobytes() for _, b in gen.blocks] == [b.tobytes() for _, b in dense_blocks(gen)]
            assert not any(b.any() for _, b in gen.blocks)
            assert gen._scale == 1.0 and gen.norm_inf == 0.0
            assert np.array_equal(propagate(gen, vec, (2.0,))[0], vec)

    def test_pair_across_components_is_an_invariant_violation(self, monkeypatch):
        """A reachable pair whose row and column sit in different components is never
        scattered into either block."""
        def singletons(self):
            return [np.array([k]) for k in range(self.dim ** 2)]

        monkeypatch.setattr(LindbladGenerator, "_components", singletons)
        with pytest.raises(InvariantViolation, match="across components"):
            collective_generator(2)

    def test_nan_rate_fails_the_trace_check(self):
        """A nan rate makes the columns' sums over the diagonal-pair rows nan, which the
        trace check rejects rather than lets through."""
        gen = collective_generator(2)
        (channel,) = gen.channels
        channel = ((channel[0][0], complex(np.nan)),) + channel[1:]
        with pytest.raises(InvariantViolation, match="does not preserve the trace"):
            LindbladGenerator(channels=(channel,), els=gen.els, bath=gen.bath)

    def test_poisoned_block_fails_the_trace_check(self, monkeypatch):
        """+1e-3 on one entry of a diagonal-pair row (i, i) of the assembled blocks, the
        form that propagates the state, breaks Tr L X = 0, and construction says so."""
        assemble = LindbladGenerator._assembly.func

        def poisoned(self):
            blocks, scale = assemble(self)
            d = self.dim
            idx, block = next((idx, b) for idx, b in blocks if (idx % (d + 1) == 0).any())
            block[np.flatnonzero(idx % (d + 1) == 0)[0], 0] += 1e-3
            return blocks, scale

        monkeypatch.setattr(LindbladGenerator, "_assembly", property(poisoned))
        with pytest.raises(InvariantViolation, match="does not preserve the trace"):
            collective_generator(2)

    def test_assembly_peak_memory_scales_with_the_blocks(self):
        """Under tracemalloc, assembling the n = 6 generator (beta_B = 1, 41.3 MiB of blocks)
        peaks at 1.47x the bytes of the blocks it returns; evaluating every entry of every
        block, as ``dense_blocks`` does, peaked at 2.10x."""
        system = collective_coupling(SpinEnsembleSpec(6, 0.5, 1.0))
        els, bath = system.level_structure(), flat_bath(0.1, 1.0)
        collective_generator(2)  # numpy's lazy imports stay out of the trace
        tracemalloc.start()
        try:
            gen = build_generator([system.A_S], els, bath)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * sum(b.nbytes for _, b in gen.blocks)


class TestSteadyStates:
    def test_non_degenerate_qubit_unique_gibbs(self, qubit_system):
        """Every start relaxes to the one Gibbs state."""
        els, gen = qubit_system
        for seed in (3, 11):
            steady = asymptotic_state(gen, DensityMatrix(random_density(2, seed)))
            assert np.allclose(steady.elements, thermal_state_of(els, 1.0).elements, atol=1e-9)

    def test_collective_manifold_dimension(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        rho_th = thermal_state_of(els, 1.0)
        assert np.max(np.abs(gen.apply(rho_th.elements))) < 1e-12
        states = [asymptotic_state(gen, DensityMatrix(random_density(4, seed)))
                  for seed in (3, 11)]
        for state in states:
            assert np.max(np.abs(gen.apply(state.elements))) < 1e-10
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

    @pytest.mark.parametrize("beta_B", [
        20.0,
        *(pytest.param(b, marks=pytest.mark.xfail(strict=True, reason=(
            "the decay rate gamma e^(-beta_B omega) of the vertical coherences falls under "
            "the KERNEL_SV_RATIO cut of asymptotic_state, which keeps them"
        ))) for b in (25.0, 30.0)),
    ])
    def test_cold_bath_kills_vertical_coherence(self, two_qubit_collective, beta_B):
        """Every vertical coherence decays at a cold bath: propagate at t = 1e16 leaves at
        most 1e-40 of it, and the t -> inf limit should leave none."""
        _, system, els, _ = two_qubit_collective
        gen = build_generator([system.A_S], els, flat_bath(0.1, beta_B))
        rho0 = DensityMatrix(random_density(4, 3))

        def vertical(m: np.ndarray) -> float:
            return max_abs(np.where(els.same_level, 0.0, els.to_labeled(m)))

        (late,) = propagate(gen, rho0.elements.reshape(-1), (1e16,))
        assert vertical(late.reshape(4, 4)) <= 1e-40
        assert vertical(asymptotic_state(gen, rho0).elements) <= 1e-12


class TestCutCommutation:
    def test_block_diagonal_cut_commutes_with_evolution(self, two_qubit_collective):
        """Vertical coherences decouple: BD o exp(tL) = exp(tL) o BD."""
        _, _, els, gen = two_qubit_collective
        rho0 = DensityMatrix(random_density(4, 23))
        for dt in (0.1, 1.0):
            evolved = DensityMatrix(evolve(gen, rho0, [dt])[0])
            left = dephase_block_diagonal(evolved, els)
            right = evolve(gen, dephase_block_diagonal(rho0, els), [dt])[0]
            assert np.max(np.abs(left.elements - right)) < 1e-10

    def test_diagonal_cut_does_not_commute(self, two_qubit_collective):
        """Populations couple to horizontal coherences: D o exp(tL) != exp(tL) o D."""
        _, _, els, gen = two_qubit_collective
        base = thermal_state_of(els, 1.1)
        chi = np.zeros((4, 4), dtype=complex)
        chi[1, 2] = chi[2, 1] = 0.15
        rho0 = DensityMatrix(base.elements + chi)
        dt = 0.5
        left = dephase_diagonal(DensityMatrix(evolve(gen, rho0, [dt])[0]), els)
        right = evolve(gen, dephase_diagonal(rho0, els), [dt])[0]
        assert np.max(np.abs(left.elements - right)) > 1e-6
