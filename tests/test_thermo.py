import math
import warnings

import numpy as np
import pytest

from cohentropy import (
    DensityMatrix,
    HermitianObservable,
    InvariantViolation,
    build_level_structure,
    complementarity_report,
    decompose_series,
    eigenoperators,
    flat_bath,
    heat_flow,
    instantaneous_rates,
    otto_cycle,
    thermal_state_of,
    von_neumann_entropy,
)
from cohentropy.collective import SpinEnsembleSpec, collective_coupling, local_couplings
from cohentropy.scenarios import build_reversal_scenario
from cohentropy.thermo import _resymm
from conftest import random_density


class TestInstantaneousRates:
    def test_stationary_state_all_rates_vanish(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        snap = instantaneous_rates(gen, thermal_state_of(els, 1.0))
        for name in ("Pi_rate", "Phi_rate", "rate_C_v", "rate_C_h", "rate_D_th"):
            assert abs(getattr(snap, name)) < 1e-10

    def test_nondegenerate_contributions_positive(self, qubit_system):
        """Appendix-D regime: no horizontal channel, both contributions positive."""
        els, gen = qubit_system
        for seed in range(12):
            rho = DensityMatrix(random_density(2, 400 + seed), ("g", "e"))
            snap = instantaneous_rates(gen, rho)
            assert abs(snap.rate_C_h) < 1e-12
            assert -snap.rate_C_v >= -1e-10
            assert -snap.rate_D_th >= -1e-10

    def test_collective_generates_horizontal_coherences_at_start(self, two_qubit_collective):
        """-dC_h/dt < 0 just after a thermal start (finite-difference cross-check)."""
        _, _, els, gen = two_qubit_collective
        rho0 = thermal_state_of(els, 2.0)
        from cohentropy import evolve
        from cohentropy.spectrum import coherence_measures
        t = 0.05
        snap = instantaneous_rates(gen, evolve(gen, rho0, [t])[0], t)
        assert -snap.rate_C_h < -1e-6
        h = 1e-3
        states = evolve(gen, rho0, [t - h, t + h])
        fd = (coherence_measures(states[1], els)[1] - coherence_measures(states[0], els)[1]) / (2 * h)
        assert fd == pytest.approx(snap.rate_C_h, rel=1e-3)

    def test_entropy_balance(self, two_qubit_collective):
        """dS/dt = Pi + Phi with Phi = beta_B dE/dt."""
        _, _, els, gen = two_qubit_collective
        rho = DensityMatrix(random_density(4, 91), els.basis_labels)
        snap = instantaneous_rates(gen, rho)
        from cohentropy import matrix_log_on_support
        ds_dt = -float(np.trace(gen.apply(rho) @ matrix_log_on_support(rho).elements).real)
        assert ds_dt == pytest.approx(snap.Pi_rate + snap.Phi_rate, abs=1e-10)

    def test_divergence_flag_on_singular_state(self, qubit_system):
        els, gen = qubit_system
        rho = DensityMatrix(np.diag([1.0, 0.0]), ("g", "e"))
        snap = instantaneous_rates(gen, rho)
        assert "pi-divergent" in snap.flags
        assert snap.Pi_rate == math.inf


class TestDecomposeSeries:
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
        series = decompose_series(gen, rho0, times, cross_validate=False)
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
        rho = DensityMatrix(base.elements + chi, els.basis_labels)
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
        rho = DensityMatrix(np.diag([1.0, 0.0]), ("g", "e"))
        rep = heat_flow(gen, rho)
        ch = rep.channels[0]
        assert "undefined-temperature" in ch.flags and ch.T_apparent is None
        assert rep.direct == pytest.approx(rep.spectral, abs=1e-12)


class TestComplementarity:
    def test_stationary_series_trivial(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        series = decompose_series(gen, thermal_state_of(els, 1.0), [0.0, 1.0, 5.0])
        rep = complementarity_report(series)
        assert rep.applicable
        assert rep.beta_0 == pytest.approx(1.0, abs=1e-6)
        for e in rep.entries:
            assert e.sum_nonneg_ok and e.energy_identity_ok
            assert abs(e.minus_dCh) < 1e-10 and abs(e.minus_dDth) < 1e-10

    def test_reversal_scenario_consumption_bound(self):
        scen = build_reversal_scenario()
        rep = complementarity_report(scen.series)
        assert rep.applicable
        active = [e for e in rep.entries if e.reversal_active]
        assert active, "heat-exchange reversal never became active"
        assert all(e.reversal_bound_ok for e in active)
        assert all(e.sum_nonneg_ok and e.energy_identity_ok for e in rep.entries)
        assert rep.initial_rate_ok

    def test_generation_scenario_energy_cost(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        rho0 = thermal_state_of(els, 2.0)
        series = decompose_series(gen, rho0, [0.0] + list(np.geomspace(0.1, 200.0, 30)))
        rep = complementarity_report(series)
        active = [e for e in rep.entries if e.generation_active]
        assert active, "horizontal-coherence generation never became active"
        assert all(e.generation_bound_ok for e in active)

    def test_non_thermal_start_not_applicable(self, two_qubit_collective):
        _, _, els, gen = two_qubit_collective
        rho0 = DensityMatrix(np.diag([0.5, 0.3, 0.1, 0.1]), els.basis_labels)
        series = decompose_series(gen, rho0, [0.0, 0.5, 1.0])
        rep = complementarity_report(series)
        assert not rep.applicable
        assert "not-applicable" in rep.flags


@pytest.fixture(scope="module")
def machines():
    spec = SpinEnsembleSpec(2, 0.5, 1.0)
    system = collective_coupling(spec)
    h_cold = system.H_S
    h_hot = HermitianObservable(2.0 * h_cold.elements)
    els_c = build_level_structure(h_cold, labels=spec.basis_labels())
    return spec, system, h_cold, h_hot, els_c


class TestOttoCycle:
    def test_identical_couplings_identical_machines(self, machines):
        spec, system, h_cold, h_hot, els_c = machines
        rep = otto_cycle(
            h_cold, h_hot, flat_bath(0.1, 1.17), flat_bath(0.1, 0.1),
            system.A_S, system.A_S, stroke_time=400.0,
            initial_state=thermal_state_of(els_c, 50.0),
        )
        assert rep.coherent.Q_h == pytest.approx(rep.incoherent.Q_h, abs=1e-12)
        assert rep.coherent.Q_c == pytest.approx(rep.incoherent.Q_c, abs=1e-12)
        assert rep.coherent.Sigma == pytest.approx(rep.incoherent.Sigma, abs=1e-12)
        assert rep.coherent.eta == pytest.approx(rep.incoherent.eta, abs=1e-12)
        assert rep.equal_W_applies and abs(rep.equal_W_identity) < 1e-12
        for els in (rep.els_cold, rep.els_hot):  # the level structures of the states it reports
            assert els.basis_labels == rep.coherent.stroke_states[0].basis_labels == spec.basis_labels()
        assert rep.els_hot.energies == pytest.approx([2.0 * e for e in rep.els_cold.energies])

    def test_collective_beats_independent_at_witness_point(self, machines):
        spec, system, h_cold, h_hot, els_c = machines
        rep = otto_cycle(
            h_cold, h_hot, flat_bath(0.1, 1.17), flat_bath(0.1, 0.1),
            system.A_S, local_couplings(spec), stroke_time=400.0,
            initial_state=thermal_state_of(els_c, 50.0),
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
        spec, system, h_cold, h_hot, els_c = machines
        rep = otto_cycle(
            h_cold, h_hot, flat_bath(0.1, 1.17), flat_bath(0.1, 0.1),
            system.A_S, local_couplings(spec), stroke_time=400.0,
        )
        assert abs(rep.coherent.W) < abs(rep.incoherent.W)


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
