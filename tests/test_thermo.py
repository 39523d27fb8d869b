import math
import re
import warnings

import numpy as np
import pytest

from cohentropy import (
    DensityMatrix,
    IdentityViolation,
    InvariantViolation,
    ShapeMismatch,
    build_generator,
    complementarity_report,
    decompose_series,
    eigenoperators,
    evolve,
    flat_bath,
    heat_flow,
    otto_cycle,
    state_functionals,
    thermal_state_of,
)
from cohentropy.collective import SpinEnsembleSpec, collective_coupling, local_couplings
from cohentropy.lindblad import LindbladGenerator
from cohentropy.scenarios import (
    GridSpec,
    NearDegenerateConfig,
    ReversalConfig,
    build_near_degenerate_scenario,
    build_reversal_scenario,
    parse_config,
    run_scenario_config,
)
from cohentropy.qcore import CHUNK_ENTRIES
from cohentropy.thermo import (
    RATE_POSITIVITY_TOL,
    _resymm,
    check_rates_by_finite_differences,
    rate_rows,
)
from conftest import (
    complementarity_reference,
    dense_rate_rows,
    matrix_log_on_support,
    random_density,
    rates_of,
    von_neumann_entropy,
)


class TestInstantaneousRates:
    def test_stationary_state_all_rates_vanish(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        snap = rates_of(gen, thermal_state_of(els, 1.0).elements)
        for name in ("Pi_rate", "Phi_rate", "rate_C_v", "rate_C_h", "rate_D_th"):
            assert abs(getattr(snap, name)) < 1e-10

    def test_nondegenerate_contributions_positive(self, qubit_system):
        """Appendix-D regime: no horizontal channel, both contributions positive."""
        els, gen = qubit_system
        for seed in range(12):
            rho = DensityMatrix(random_density(2, 400 + seed))
            snap = rates_of(gen, rho.elements)
            assert abs(snap.rate_C_h) < 1e-12
            assert -snap.rate_C_v >= -1e-10
            assert -snap.rate_D_th >= -1e-10

    def test_collective_generates_horizontal_coherences_at_start(self, two_qubit_collective):
        """-dC_h/dt < 0 just after a thermal start (finite-difference cross-check)."""
        _, _, els, gen = two_qubit_collective
        rho0 = thermal_state_of(els, 2.0)
        from cohentropy import evolve
        t = 0.05
        snap = rates_of(gen, evolve(gen, rho0, [t])[0], t)
        assert -snap.rate_C_h < -1e-6
        h = 1e-3
        c_h = state_functionals(evolve(gen, rho0, [t - h, t + h]), els, 0.0).C_h
        fd = (c_h[1] - c_h[0]) / (2 * h)
        assert fd == pytest.approx(snap.rate_C_h, rel=1e-3)

    def test_entropy_balance(self, two_qubit_collective):
        """dS/dt = Pi + Phi with Phi = beta_B dE/dt."""
        _, _, els, gen = two_qubit_collective
        rho = DensityMatrix(random_density(4, 91))
        snap = rates_of(gen, rho.elements)
        ds_dt = -float(np.trace(gen.apply(rho.elements) @ matrix_log_on_support(rho).elements).real)
        assert ds_dt == pytest.approx(snap.Pi_rate + snap.Phi_rate, abs=1e-10)

    def test_divergence_flag_on_singular_state(self, qubit_system):
        els, gen = qubit_system
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        snap = rates_of(gen, rho.elements)
        assert "pi-divergent" in snap.flags
        assert snap.Pi_rate == math.inf


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a pi-divergent row writes finite support rates whose sum has the "
                   "wrong sign (ROADMAP direction 11)")
def test_singular_start_writes_a_positive_horizontal_rate():
    """From |gg>, every population leaks into an empty level, so dD_th/dt is -inf at t = 0
    and -(dC_h + dD_th)/dt is +inf: each CSV row keeps the positivity the paper proves."""
    cfg = parse_config({"scenario": "heat-flow-reversal", "beta_0": 50,
                        "coherence_amplitude": 0})
    header, *rows = (line.split(",") for line in run_scenario_config(cfg).csv_text.splitlines())
    c_h, d_th = header.index("rate_C_h"), header.index("rate_D_th")
    for row in rows:
        assert -(float(row[c_h]) + float(row[d_th])) >= -RATE_POSITIVITY_TOL, row


def _series(name: str, qubit_system):
    """(generator, series) of one trajectory; the grids cross a chunk boundary."""
    if name == "reversal":
        scen = build_reversal_scenario(ReversalConfig(beta_0=1.1, time_grid=GridSpec(300)))
        return scen.gen, scen.series
    if name == "collective n=3":  # the generic path: the scenario's own runs on populations
        system = collective_coupling(SpinEnsembleSpec(3, 0.5, 1.0))
        els = system.level_structure()
        gen = build_generator([system.A_S], els, flat_bath(0.1, 1.0))
        return gen, decompose_series(gen, thermal_state_of(els, 50.0), np.linspace(0.0, 30.0, 70))
    if name == "near-degenerate":
        scen = build_near_degenerate_scenario(NearDegenerateConfig())
        return scen.gen_clustered, scen.series
    _, gen = qubit_system
    return gen, decompose_series(gen, DensityMatrix(np.diag([1.0, 0.0])), [0.0, 0.5, 1.0])


@pytest.mark.parametrize("name", ["reversal", "collective n=3", "near-degenerate", "singular start"])
def test_series_rows_equal_single_state_rows(name, qubit_system):
    """Each snapshot of the stacked pass is bitwise the one its state gets alone, as a stack
    of one, flags included (the singular start's first row is pi-divergent)."""
    gen, series = _series(name, qubit_system)
    for snap, state in zip(series.snapshots, series.states):
        assert repr(snap) == repr(rates_of(gen, state, snap.t))
    if name == "singular start":
        assert series.snapshots[0].flags == ("pi-divergent",)


def test_full_rank_chunk_rows_equal_single_state_rows(two_qubit_collective):
    """A stack across a chunk boundary, full rank in the first chunk, whose null-space
    projector is exact zeros, and one singular state among full-rank ones in the second:
    each row, its divergence mark and its functionals are bitwise those its state gets
    alone, and only the singular state is pi-divergent."""
    _, _, els, gen = two_qubit_collective
    n = CHUNK_ENTRIES // els.dim**2 + 4
    singular = n - 3
    stack = np.array([random_density(els.dim, seed) for seed in range(n)])
    stack[singular] = np.diag([1.0, 0.0, 0.0, 0.0])
    table, divergent = rate_rows(gen, stack)
    assert np.flatnonzero(divergent).tolist() == [singular]
    for k, state in enumerate(stack):
        row, div = rate_rows(gen, state[None])
        assert table[k].tobytes() == row[0].tobytes() and divergent[k] == div[0]
        f = state_functionals(state, els, gen.bath.beta_B)
        alone = np.array([f.S, f.C_v, f.C_h, f.D_th, f.E_S, f.F_D])
        assert table[k, :6].tobytes() == alone.tobytes()


def _kernel_case(name: str, two_qubit_collective):
    """(generator, (T, d, d) states) of one input of the dense-reference comparison."""
    if name.startswith("reversal"):
        beta_0 = float(name.split("=")[1])
        amplitude = None if beta_0 == 1.1 else 0.0
        scen = build_reversal_scenario(ReversalConfig(beta_0=beta_0, coherence_amplitude=amplitude))
        return scen.gen, scen.series.states
    if name == "near-degenerate":
        scen = build_near_degenerate_scenario(NearDegenerateConfig())
        return scen.gen_clustered, scen.series.states
    if name.startswith("collective"):
        system = collective_coupling(SpinEnsembleSpec(int(name[-1]), 0.5, 1.0))
        els = system.level_structure()
        gen = build_generator([system.A_S], els, flat_bath(0.1, 1.0))
        return gen, evolve(gen, thermal_state_of(els, 50.0), np.linspace(0.0, 30.0, 70))
    _, _, els, gen = two_qubit_collective
    return gen, np.array([random_density(els.dim, seed) for seed in range(40)])


@pytest.mark.parametrize("name", [
    "reversal beta_0=1.1", "reversal beta_0=50", "reversal beta_0=-3", "near-degenerate",
    "collective n=2", "collective n=3", "collective n=4", "random vertical",
])
def test_rates_match_the_formed_log_reference(name, two_qubit_collective):
    """The eigenbasis projections against the formed-log overlaps of ``dense_rate_rows``:
    the functionals bitwise, the divergence marks equal, and each rate column and E_dot
    within 1e-14 max(1, max |column|)."""
    gen, states = _kernel_case(name, two_qubit_collective)
    table, divergent = rate_rows(gen, states)
    want, want_divergent = dense_rate_rows(gen, states)
    assert table[:, :6].tobytes() == want[:, :6].tobytes()
    assert divergent.tolist() == want_divergent.tolist()
    if name == "reversal beta_0=50":
        assert np.flatnonzero(divergent).tolist() == [0]
    if name == "random vertical":
        assert (table[:, 7] != 0.0).all()  # every state has vertical coherence
    scale = np.maximum(1.0, np.max(np.abs(want[:, 6:]), axis=0))
    assert (np.max(np.abs(table[:, 6:] - want[:, 6:]), axis=0) <= 1e-14 * scale).all()


class TestDecomposeSeries:
    def test_empty_time_list_is_a_shape_mismatch(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        with pytest.raises(ShapeMismatch, match="decompose_series: the time list is empty"):
            decompose_series(gen, thermal_state_of(els, 1.0), [])

    def test_constant_thermal_trajectory(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        series = decompose_series(gen, thermal_state_of(els, 1.0), [0.5, 1.0, 2.0])
        for name in ("Pi_rate", "rate_C_v", "rate_C_h", "rate_D_th"):
            assert np.max(np.abs(series.column(name))) < 1e-10

    def test_quadrature_consistency(self, qubit_system):
        """integral of Pi over the relaxation equals dS - beta_B dE (to 1e-6)."""
        from scipy.integrate import simpson

        els, gen = qubit_system
        rho0 = thermal_state_of(els, 3.0)
        times = np.linspace(0.0, 120.0, 4001)
        series = decompose_series(gen, rho0, times)
        pi = series.column("Pi_rate")
        integral = float(simpson(pi, x=times))
        ds = series.snapshots[-1].S - von_neumann_entropy(rho0)
        de = series.snapshots[-1].E_S - float(
            np.trace(rho0.elements @ els.hamiltonian().elements).real
        )
        assert integral == pytest.approx(ds - 1.0 * de, abs=1e-6)

    def test_closure_and_positivity_along_trajectory(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        rho0 = thermal_state_of(els, 50.0)
        series = decompose_series(gen, rho0, np.geomspace(0.01, 300.0, 40))
        for s in series.snapshots:
            assert abs(s.Pi_rate + s.rate_C_v + s.rate_C_h + s.rate_D_th) <= 1e-8 * max(1, abs(s.Pi_rate))
            assert s.Pi_rate >= -1e-8
            assert -s.rate_C_v >= -1e-8
            assert -s.rate_C_h - s.rate_D_th >= -1e-8


class TestHeatFlow:
    def test_thermal_state_carries_no_heat(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        rep = heat_flow(gen, thermal_state_of(els, 1.0))
        assert abs(rep.direct) < 1e-12 and abs(rep.spectral) < 1e-12

    def test_apparent_temperature_thermal_populations(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        beta0 = 0.6
        rep = heat_flow(gen, thermal_state_of(els, beta0))
        for ch in rep.channels:
            assert ch.T_apparent == pytest.approx(1 / beta0, abs=1e-9)

    def test_coherence_contributions_shift_temperature(self, two_qubit_collective):
        """omega/T = omega beta_0 + ln((1+c+)/(1+c-)) with c± from chi expectations."""
        _, system, els, gen = two_qubit_collective
        beta0 = 1.1
        base = thermal_state_of(els, beta0)
        chi = np.zeros((4, 4), dtype=complex)
        c = 0.12
        chi[1, 2] = chi[2, 1] = c
        rho = DensityMatrix(base.elements + chi)
        jumps = eigenoperators(system.A_S, els)
        a = dict(zip(jumps.frequencies, jumps.operators))[1.0]
        aad, ada = a @ a.conj().T, a.conj().T @ a
        c_plus = np.trace(chi @ aad).real / np.trace(base.elements @ aad).real
        c_minus = np.trace(chi @ ada).real / np.trace(base.elements @ ada).real
        expected = beta0 + math.log((1 + c_plus) / (1 + c_minus))
        ch = [c for c in heat_flow(gen, rho).channels if c.omega == 1.0][0]
        assert ch.omega / ch.T_apparent == pytest.approx(expected, abs=1e-12)

    def test_undefined_temperature_flagged(self, qubit_system):
        els, gen = qubit_system
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        rep = heat_flow(gen, rho)
        ch = rep.channels[0]
        assert "undefined-temperature" in ch.flags and ch.T_apparent is None
        assert rep.direct == pytest.approx(rep.spectral, abs=1e-12)


def reversal_at(beta_b: float) -> ReversalConfig:
    """The heat-flow reversal at beta_0 = 1.1 with a fixed coherence amplitude 0.05, too
    small to reverse the initial heat flow."""
    return parse_config({
        "scenario": "heat-flow-reversal", "beta_B": beta_b, "beta_0": 1.1, "coherence_amplitude": 0.05,
    })


@pytest.mark.parametrize("beta_b", [0.0, 1.0])
def test_finite_differences_check_points_at_any_bath_temperature(beta_b, monkeypatch):
    """Every snapshot at beta_B = 0 is flagged not-applicable, yet the cross-check skips only
    pi-divergent ones: 15 points are checked, as at beta_B = 1, and all agree.  A point's
    propagation to t - h, t - h/2, t + h/2, t + h is the only one to negative times."""
    checked = []
    propagate = LindbladGenerator.propagate

    def counted(self, vec0, times):
        checked.extend(times[:1] if times[0] < 0 else ())
        return propagate(self, vec0, times)

    monkeypatch.setattr(LindbladGenerator, "propagate", counted)
    build_reversal_scenario(reversal_at(beta_b))
    assert len(checked) == 15


def test_finite_difference_points_checked_as_stacks_equal_each_alone(two_qubit_collective):
    """Points past one chunk, checked together, fail with the messages each fails with
    alone, in order: every fifth point's dC_h/dt is off by 1e-3; the point at t = 0 and the
    singular state are skipped."""
    _, _, els, gen = two_qubit_collective
    times = np.linspace(0.0, 40.0, 80)
    states = evolve(gen, DensityMatrix(random_density(els.dim, 5)), times)
    points = []
    for k, (t, state) in enumerate(zip(times.tolist(), states)):
        snap = rates_of(gen, state, t)
        if k % 5 == 0:
            snap = snap._replace(rate_C_h=snap.rate_C_h + 1e-3)
        points.append((t, state, snap))
    points.append((50.0, np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), points[-1][2]))
    together = check_rates_by_finite_differences(gen, points, raise_on_failure=False)
    alone = [m for p in points for m in check_rates_by_finite_differences(gen, [p], False)]
    assert together == alone and len(alone) == 15
    assert all(m.startswith("dC_h/dt at t = ") for m in alone)
    with pytest.raises(IdentityViolation, match="; ".join(map(re.escape, alone))):
        check_rates_by_finite_differences(gen, points)


class TestComplementarity:
    def test_initial_rate_at_infinite_bath_temperature(self):
        """Check (v) reads E_dot, so it applies at beta_B = 0, where -dC_h/dt + beta_0 E_dot
        = +0.103.  The amplitude does not reverse the flow, which fails the run on its
        heat_flow_reversed line; only the (v) line is asserted."""
        lines = reversal_at(0.0).run().summary_text.splitlines()
        assert "v_initial_rate: pass" in lines
        assert "heat_flow_reversed: no" in lines

    def test_stationary_series_trivial(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        series = decompose_series(gen, thermal_state_of(els, 1.0), [0.0, 1.0, 5.0])
        rep = complementarity_report(series)
        assert rep.applicable
        assert rep.beta_0 == pytest.approx(1.0, abs=1e-6)
        assert rep.sum_nonneg_ok.all() and rep.energy_identity_ok.all()
        assert np.max(np.abs(rep.minus_dCh)) < 1e-10 and np.max(np.abs(rep.minus_dDth)) < 1e-10

    def test_reversal_scenario_consumption_bound(self):
        scen = build_reversal_scenario(ReversalConfig(beta_0=1.1, time_grid=GridSpec(50)))
        rep = complementarity_report(scen.series)
        assert rep.applicable
        assert rep.reversal_active.any(), "heat-exchange reversal never became active"
        assert rep.reversal_bound_ok[rep.reversal_active].all()
        assert rep.sum_nonneg_ok.all() and rep.energy_identity_ok.all()
        assert rep.initial_rate_ok

    def test_generation_scenario_energy_cost(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        rep = complementarity_report(generation_series(els, gen))
        assert rep.generation_active.any(), "horizontal-coherence generation never became active"
        assert rep.generation_bound_ok[rep.generation_active].all()

    def test_non_thermal_start_not_applicable(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        rho0 = DensityMatrix(np.diag([0.5, 0.3, 0.1, 0.1]))
        series = decompose_series(gen, rho0, [0.0, 0.5, 1.0])
        rep = complementarity_report(series)
        assert not rep.applicable
        assert "not-applicable" in rep.flags

    def test_one_snapshot_series_has_no_entries(self, two_qubit_collective):
        """A series of its initial snapshot alone gets a report with zero entries, whose
        checks (i)-(iv) pass vacuously."""
        _, _, els, gen = two_qubit_collective
        rep = complementarity_report(decompose_series(gen, thermal_state_of(els, 2.0), [0.0]))
        assert rep.applicable and rep.minus_dCh.shape == rep.reversal_active.shape == (0,)
        assert [(v.value, v.passed) for v in rep.verdicts()[:4]] == [(0, True)] * 4

    @pytest.mark.parametrize("case", ["reversal", "generation", "non-thermal"])
    def test_columns_equal_the_per_entry_reference(self, two_qubit_collective, case):
        """Each column, the active counts and the verdicts equal those of the per-entry
        reference bit for bit."""
        _, _, els, gen = two_qubit_collective
        if case == "reversal":
            series = build_reversal_scenario(
                ReversalConfig(beta_0=1.1, time_grid=GridSpec(50))).series
        elif case == "generation":
            series = generation_series(els, gen)
        else:
            series = decompose_series(gen, DensityMatrix(np.diag([0.5, 0.3, 0.1, 0.1])),
                                      [0.0, 0.5, 1.0])
        rep = complementarity_report(series)
        entries, verdicts = complementarity_reference(series)
        assert len(entries) == len(series.snapshots) - 1
        for name in ("minus_dCh", "minus_dDth", "weighted_dE", "backtrack",
                     "energy_identity_residual"):
            assert getattr(rep, name).tobytes() == np.array([e[name] for e in entries]).tobytes()
        for name in ("sum_nonneg_ok", "energy_identity_ok", "reversal_active",
                     "generation_active"):
            assert getattr(rep, name).tolist() == [e[name] for e in entries]
        for name in ("reversal", "generation"):
            active = getattr(rep, f"{name}_active")
            assert int(active.sum()) == sum(e[f"{name}_active"] for e in entries)
            assert getattr(rep, f"{name}_bound_ok")[active].tolist() == [
                e[f"{name}_bound_ok"] for e in entries if e[f"{name}_active"]]
        assert rep.verdicts() == verdicts


def generation_series(els, gen):
    """From the thermal state at beta_0 = 2 against the bath at beta_B = 1: horizontal
    coherences are generated."""
    return decompose_series(
        gen, thermal_state_of(els, 2.0), [0.0] + list(np.geomspace(0.1, 200.0, 30)))


@pytest.fixture(scope="module")
def machines():
    spec = SpinEnsembleSpec(2, 0.5, 1.0)
    system = collective_coupling(spec)
    return spec, system, system.level_structure()


class TestOttoCycle:
    def test_identical_couplings_identical_machines(self, machines):
        _, system, els_c = machines
        rep = otto_cycle(
            system.H_S, 2.0, flat_bath(0.1, 1.17), flat_bath(0.1, 0.1),
            [system.A_S], [system.A_S], 400.0, thermal_state_of(els_c, 50.0),
        )
        assert rep.coherent.Q_h == pytest.approx(rep.incoherent.Q_h, abs=1e-12)
        assert rep.coherent.Q_c == pytest.approx(rep.incoherent.Q_c, abs=1e-12)
        assert rep.coherent.Sigma == pytest.approx(rep.incoherent.Sigma, abs=1e-12)
        assert rep.coherent.eta == pytest.approx(rep.incoherent.eta, abs=1e-12)
        assert rep.equal_W_applies and abs(rep.equal_W_identity) < 1e-12
        assert rep.els_cold.energies == els_c.energies  # the structures of H_cold and lam H_cold
        assert np.array_equal(rep.els_hot.basis_vectors, rep.els_cold.basis_vectors)
        assert rep.els_hot.energies == pytest.approx([2.0 * e for e in rep.els_cold.energies])

    def test_collective_beats_independent_at_witness_point(self, machines):
        spec, system, els_c = machines
        rep = otto_cycle(
            system.H_S, 2.0, flat_bath(0.1, 1.17), flat_bath(0.1, 0.1),
            [system.A_S], local_couplings(spec), 400.0, thermal_state_of(els_c, 50.0),
        )
        for m in (rep.incoherent, rep.coherent):
            assert abs(m.second_law_residual) <= 1e-8
            assert m.Sigma >= -1e-10
        assert rep.equal_eta_applies
        assert abs(rep.equal_eta_identity) <= 1e-8
        assert rep.incoherent.eta == pytest.approx(0.5, abs=1e-9)  # 1 - 1/lam
        assert abs(rep.coherent.W) > abs(rep.incoherent.W)
        assert rep.coherent.Sigma > rep.incoherent.Sigma

    def test_cold_thermal_preparation_degrades_work(self, machines):
        """With a cold-thermal start the conserved singlet weight stays thermal
        and the collective machine cannot beat the independent one."""
        spec, system, els_c = machines
        rep = otto_cycle(
            system.H_S, 2.0, flat_bath(0.1, 1.17), flat_bath(0.1, 0.1),
            [system.A_S], local_couplings(spec), 400.0, thermal_state_of(els_c, 1.17),
        )
        assert abs(rep.coherent.W) < abs(rep.incoherent.W)

    @pytest.mark.parametrize("lam", [0.0, -2.0, math.nan])
    def test_nonpositive_rescaling_rejected(self, machines, lam):
        spec, system, els_c = machines
        with pytest.raises(InvariantViolation, match="lam must be positive"):
            otto_cycle(
                system.H_S, lam, flat_bath(0.1, 1.17), flat_bath(0.1, 0.1),
                [system.A_S], local_couplings(spec), 400.0, thermal_state_of(els_c, 50.0),
            )


class TestResymm:
    """A lost propagated state is rejected before the trace division, with no RuntimeWarning."""

    @pytest.mark.parametrize(
        "bad, message",
        [(np.full((2, 2), np.nan), "non-finite entries"), (np.zeros((2, 2)), r"trace 0\.000e\+00")],
    )
    def test_lost_state_rejected(self, bad, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolation, match=message):
                _resymm(bad)
