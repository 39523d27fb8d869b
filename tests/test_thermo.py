import math
import re

import numpy as np
import pytest

from cohentropy import (
    DensityMatrix,
    IdentityViolation,
    InvariantViolation,
    NumericalFailure,
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
    OttoConfig,
    ReversalConfig,
    build_near_degenerate_scenario,
    build_reversal_scenario,
    parse_config,
    run_scenario_config,
)
from cohentropy.qcore import CHUNK_ENTRIES, DRIFT_TOL, settled
from cohentropy import thermo
from cohentropy.thermo import (
    FLAG_PI_DIVERGENT,
    RATE_POSITIVITY_TOL,
    check_rates_by_finite_differences,
    instantaneous_rates,
    rate_rows,
    snapshot_table,
)
from conftest import (
    complementarity_reference,
    dense_rate_rows,
    matrix_log_on_support,
    propagate,
    random_density,
    rates_of,
    reference_trajectory,
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
def test_series_rows_equal_single_state_rows(name, qubit_system, monkeypatch):
    """Each snapshot of the stacked pass is bitwise the one its state, as the pass reads it
    in the labeled eigenbasis, gets alone, as a stack of one, flags included (the singular
    start's first row is pi-divergent); a state the pass repairs gets its repair alone too."""
    read = []

    def recorded(gen, states):
        read.append(np.array(states))
        return rate_rows(gen, states)

    monkeypatch.setattr(thermo, "rate_rows", recorded)
    gen, series = _series(name, qubit_system)
    (stack,) = read
    for snap, state in zip(series.snapshots, stack):
        table, divergent, _ = rate_rows(gen, state[None])
        beta = gen.bath.beta_B
        row = snapshot_table([snap.t], table, divergent, beta)[0].tolist()
        alone = instantaneous_rates(beta, row, bool(divergent[0]))
        assert repr(snap) == repr(alone)
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
    table, divergent, _ = rate_rows(gen, els.to_labeled(stack))
    assert np.flatnonzero(divergent).tolist() == [singular]
    for k, state in enumerate(stack):
        row, div, _ = rate_rows(gen, els.to_labeled(state)[None])
        assert table[k].tobytes() == row[0].tobytes() and divergent[k] == div[0]
        f = state_functionals(state, els, gen.bath.beta_B)
        alone = np.array([f.S, f.C_v, f.C_h, f.D_th, f.E_S, f.F_D])
        assert table[k, :6].tobytes() == alone.tobytes()


def _kernel_case(name: str, two_qubit_collective):
    """(generator, (T, d, d) states) of one input of the dense-reference comparison: the
    ``evolve`` trajectory of a scenario's start, or random states."""
    if name == "random vertical":
        _, _, els, gen = two_qubit_collective
        return gen, np.array([random_density(els.dim, seed) for seed in range(40)])
    gen, rho0, times = _trajectory_case(name, two_qubit_collective)
    return gen, evolve(gen, rho0, times)


def _assert_agrees(got: np.ndarray, want: np.ndarray, kept: np.ndarray, what: str) -> None:
    """Bitwise on the ``kept`` rows, every row within 1e-14 max(1, |column|)."""
    assert got[kept].tobytes() == want[kept].tobytes(), what
    scale = np.maximum(1.0, np.max(np.abs(want.reshape(len(want), -1)), axis=0))
    dev = np.max(np.abs(got - want).reshape(len(want), -1), axis=0)
    assert (dev <= 1e-14 * scale).all(), (what, np.max(dev / scale))


@pytest.mark.parametrize("name", [
    "reversal beta_0=1.1", "reversal beta_0=50", "reversal beta_0=-3", "near-degenerate",
    "collective n=2", "collective n=3", "collective n=4", "random vertical",
])
def test_rates_match_the_formed_log_reference(name, two_qubit_collective):
    """The eigenbasis projections against the formed-log overlaps of ``dense_rate_rows``,
    which takes its own eigh of each state and of its block-diagonal cut, on the same
    Hermitian input: the functionals bitwise on the states the pass does not repair and
    within 1e-14 max(1, |column|) on those it does, the divergence marks equal, and each
    rate column and E_dot within 1e-14 max(1, max |column|)."""
    gen, states = _kernel_case(name, two_qubit_collective)
    m = 0.5 * (states + np.swapaxes(states.conj(), -1, -2))
    r = gen.els.to_labeled(m)
    table, divergent, _ = rate_rows(gen, r)
    repaired = (settled(r, DRIFT_TOL)[0] != r).any(axis=(-2, -1))
    if name == "reversal beta_0=50" or name.startswith("collective"):
        assert repaired.any()  # the repaired rows are compared too
    want, want_divergent = dense_rate_rows(gen, m)
    _assert_agrees(table[:, :6], want[:, :6], ~repaired, "functionals")
    assert divergent.tolist() == want_divergent.tolist()
    if name == "reversal beta_0=50":
        assert np.flatnonzero(divergent).tolist() == [0]
    if name == "random vertical":
        assert (table[:, 7] != 0.0).all()  # every state has vertical coherence
    scale = np.maximum(1.0, np.max(np.abs(want[:, 6:]), axis=0))
    assert (np.max(np.abs(table[:, 6:] - want[:, 6:]), axis=0) <= 1e-14 * scale).all()


def _trajectory_case(name: str, two_qubit_collective):
    """(generator, rho0, times) of one input of the reference-route comparison."""
    if name.startswith("reversal"):
        beta_0 = float(name.split("=")[1])
        cfg = ReversalConfig(beta_0=beta_0, coherence_amplitude=None if beta_0 == 1.1 else 0.0)
        scen = build_reversal_scenario(cfg)
        return scen.gen, scen.rho0, cfg.times()
    if name == "near-degenerate":
        cfg = NearDegenerateConfig()
        scen = build_near_degenerate_scenario(cfg)
        return scen.gen_clustered, thermal_state_of(scen.gen_exact.els, cfg.beta_0), cfg.times()
    if name.startswith("collective"):
        system = collective_coupling(SpinEnsembleSpec(int(name[-1]), 0.5, 1.0))
        els = system.level_structure()
        gen = build_generator([system.A_S], els, flat_bath(0.1, 1.0))
        return gen, thermal_state_of(els, 50.0), np.linspace(0.0, 30.0, 70)
    _, _, els, gen = two_qubit_collective
    seed = int(name.split("=")[1])
    return gen, DensityMatrix(random_density(els.dim, seed)), np.linspace(0.0, 40.0, 80)


@pytest.mark.parametrize("name", [
    "reversal beta_0=1.1", "reversal beta_0=50", "reversal beta_0=-3", "near-degenerate",
    "collective n=2", "collective n=3", "collective n=4", "random seed=5", "random seed=11",
])
def test_labeled_pass_matches_the_reference_route(name, two_qubit_collective):
    """The one labeled pass of ``decompose_series``, and the states of ``evolve``, against the
    reference route, the input-basis trajectory through ``reference_cleaned_states`` (one
    eigvalsh, then an eigh of each state with a negative eigenvalue) and the checked kernel:
    functionals, populations and states bitwise where neither route repairs a state, and
    within 1e-14 max(1, |column|) where they do; the rates within 1e-14 of
    ``dense_rate_rows`` and the flags equal."""
    gen, rho0, times = _trajectory_case(name, two_qubit_collective)
    series = decompose_series(gen, rho0, times)
    states, repaired = reference_trajectory(gen, rho0, times)
    if name == "reversal beta_0=50" or name.startswith("collective"):
        assert repaired.any()  # the repair branch is exercised
    kept = ~repaired
    f = state_functionals(states, gen.els, gen.bath.beta_B)
    _assert_agrees(series.table[:, 1:7], np.column_stack(f), kept, "functionals")
    pops = gen.els.to_labeled(states).diagonal(axis1=-2, axis2=-1).real
    _assert_agrees(series.populations, pops, kept, "populations")
    _assert_agrees(evolve(gen, rho0, times), states, kept, "states")
    want, want_divergent = dense_rate_rows(gen, states)
    assert [FLAG_PI_DIVERGENT in s.flags for s in series.snapshots] == want_divergent.tolist()
    columns = [series.column(c) for c in ("rate_C_v", "rate_C_h", "rate_D_th", "E_dot")]
    got = np.column_stack([np.where(want_divergent, want[:, 6], series.column("Pi_rate")), *columns])
    scale = np.maximum(1.0, np.max(np.abs(want[:, 6:]), axis=0))
    assert (np.max(np.abs(got - want[:, 6:]), axis=0) <= 1e-14 * scale).all()


def _poison(monkeypatch, gen, times, k: int, depth: float) -> None:
    """Move ``depth`` of the weight of the propagated state at times[k] from its least to
    its largest eigenvector, so that its lowest eigenvalue is near -depth; Hermitian and of
    unit trace still.  Only the trajectory's own propagation is poisoned."""
    real = LindbladGenerator.labeled_propagate

    def poisoned(self, x0, ts):
        rows = real(self, x0, ts)
        if len(ts) == len(times):
            r = rows[k].reshape(self.dim, self.dim)
            _, v = np.linalg.eigh(r)
            r += depth * (np.outer(v[:, -1], v[:, -1].conj()) - np.outer(v[:, 0], v[:, 0].conj()))
        return rows

    monkeypatch.setattr(LindbladGenerator, "labeled_propagate", poisoned)


def test_slightly_negative_state_gets_its_repair(two_qubit_collective, monkeypatch):
    """A propagated state whose lowest eigenvalue is -1e-9, inside (-DRIFT_TOL, 0) and beyond
    the kernel's POSITIVITY_TOL, gets the functionals and populations of its reference
    repair in the series, and its repaired state from ``evolve``, to 1e-14; a pass that
    skipped the repair would reject it or read the negative weight."""
    _, _, els, gen = two_qubit_collective
    rho0, times, k = thermal_state_of(els, 50.0), np.linspace(0.0, 20.0, 40), 7
    _poison(monkeypatch, gen, times, k, 1e-9)
    series = decompose_series(gen, rho0, times)
    states, repaired = reference_trajectory(gen, rho0, times)
    assert repaired[k] and np.linalg.eigvalsh(propagate(gen, rho0.elements, times)
                                              .reshape(-1, 4, 4)[k])[0] < -5e-10
    f = state_functionals(states, els, gen.bath.beta_B)
    _assert_agrees(series.table[:, 1:7], np.column_stack(f), ~repaired, "functionals")
    pops = els.to_labeled(states).diagonal(axis1=-2, axis2=-1).real
    _assert_agrees(series.populations, pops, ~repaired, "populations")
    _assert_agrees(evolve(gen, rho0, times), states, ~repaired, "states")


def test_negative_state_beyond_the_drift_tolerance_names_its_time(two_qubit_collective,
                                                                  monkeypatch):
    """A lowest eigenvalue near -1e-6 is reported, not repaired: the invariant drift at the
    time the reference route names."""
    _, _, els, gen = two_qubit_collective
    rho0, times, k = thermal_state_of(els, 50.0), np.linspace(0.0, 20.0, 40), 7
    _poison(monkeypatch, gen, times, k, 1e-6)
    with pytest.raises(InvariantViolation) as ref:
        reference_trajectory(gen, rho0, times)
    t = times[1 + ref.value.index]
    assert t == times[k]
    with pytest.raises(NumericalFailure, match=f"invariant drift at t = {t}: "):
        decompose_series(gen, rho0, times)


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
    pi-divergent ones: 15 points are checked, as at beta_B = 1, and all agree.  The check
    propagates from the start twice: to the 15 points, for the floor, then to the four
    shifted times t - h, t - h/2, t + h/2 and t + h of each."""
    propagated = []
    real = thermo.labeled_trajectory

    def recorded(gen, rho0, times):
        if times[0] > 0.0:  # the series' own trajectory starts at t = 0
            propagated.append(len(times))
        return real(gen, rho0, times)

    monkeypatch.setattr(thermo, "labeled_trajectory", recorded)
    build_reversal_scenario(reversal_at(beta_b))
    assert propagated == [15, 4 * 15]


def _fd_case(two_qubit_collective, seed: int = 5):
    """(generator, start, times, table rows) of a trajectory from a random start, whose
    rows past one chunk of shifted states (4 per point) are checked together."""
    _, _, els, gen = two_qubit_collective
    rho0, times = DensityMatrix(random_density(els.dim, seed)), np.linspace(0.0, 40.0, 80)
    return gen, rho0, times, decompose_series(gen, rho0, times).table


def test_finite_difference_points_checked_as_stacks_equal_each_alone(two_qubit_collective):
    """Points past one chunk, checked together, fail with the messages each fails with
    alone, in order: every fifth point's dC_h/dt is off by 1e-3; the point at t = 0, which
    is not past h, is skipped."""
    gen, rho0, _, table = _fd_case(two_qubit_collective)
    rows = table.copy()
    rows[::5, thermo.ThermoSnapshot._fields.index("rate_C_h")] += 1e-3
    together = check_rates_by_finite_differences(gen, rho0, rows, raise_on_failure=False)
    alone = [m for row in rows for m in check_rates_by_finite_differences(gen, rho0, row[None],
                                                                          False)]
    assert together == alone and len(alone) == 15
    assert all(m.startswith("dC_h/dt at t = ") for m in alone)
    with pytest.raises(IdentityViolation, match="; ".join(map(re.escape, alone))):
        check_rates_by_finite_differences(gen, rho0, rows)


def test_finite_difference_skips_states_below_the_floor(two_qubit_collective):
    """A start with no weight on the singlet, which collective dissipation never fills,
    keeps a zero eigenvalue at every t: each point is skipped below FD_MINEIG_FLOOR, so
    even rates off by 1e-3 pass, while the same offset on the rows of the full-rank thermal
    start fails at every point past h."""
    _, _, els, gen = two_qubit_collective
    rates = [thermo.ThermoSnapshot._fields.index(name) for name in ("rate_C_h", "rate_D_th")]
    thermal = thermal_state_of(els, 2.0)
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    triplet = thermal.elements - thermal.elements[1, 1] * np.outer(singlet, singlet)
    times = np.linspace(0.0, 40.0, 20)
    for rho0, failing in ((DensityMatrix(triplet / np.trace(triplet).real), 0), (thermal, 19)):
        rows = decompose_series(gen, rho0, times).table
        rows[:, rates] += 1e-3
        failures = check_rates_by_finite_differences(gen, rho0, rows, raise_on_failure=False)
        assert len(failures) == 2 * failing


def _scaled(monkeypatch, only_length: int | None = None) -> None:
    """Scale every row ``labeled_propagate`` returns by 1 + 1e-6, a trace drift beyond
    DRIFT_TOL that renormalizing would hide; only on calls of ``only_length`` times, when
    given."""
    real = LindbladGenerator.labeled_propagate

    def scaled(self, x0, ts):
        rows = real(self, x0, ts)
        return rows * (1 + 1e-6) if only_length in (None, len(ts)) else rows

    monkeypatch.setattr(LindbladGenerator, "labeled_propagate", scaled)


def test_drifting_finite_difference_state_is_reported(two_qubit_collective, monkeypatch):
    """The cross-check's states are checked as the series' are: a trace drift in its
    propagation to the 4 shifted times of each of the 13 points alone is the invariant
    drift of the first shifted time, not a renormalized state."""
    gen, rho0, times, table = _fd_case(two_qubit_collective)
    picks = thermo.finite_difference_picks([False] * len(times))
    first = table[picks[0], 0] - 1e-3 / gen.norm_inf
    _scaled(monkeypatch, 4 * len(picks))
    with pytest.raises(NumericalFailure, match=re.escape(
            f"invariant drift at t = {first}: state drift beyond 1.0e-08: hermiticity ")
            + r"\S+, trace deviation 1\.000e-06$"):
        decompose_series(gen, rho0, times)


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
            scen = build_reversal_scenario(ReversalConfig(beta_0=1.1, time_grid=GridSpec(50)))
            gen, rho0, series = scen.gen, scen.rho0, scen.series
        elif case == "generation":
            rho0, series = thermal_state_of(els, 2.0), generation_series(els, gen)
        else:
            rho0 = DensityMatrix(np.diag([0.5, 0.3, 0.1, 0.1]))
            series = decompose_series(gen, rho0, [0.0, 0.5, 1.0])
        rep = complementarity_report(series)
        entries, verdicts = complementarity_reference(series, gen, rho0)
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

    def test_drifting_stroke_is_reported(self, monkeypatch):
        """A stroke state whose trace drifts by 1e-6 is the invariant drift of the first
        isochore that propagates it, not a renormalized state."""
        _scaled(monkeypatch)
        with pytest.raises(NumericalFailure, match=re.escape(
                "incoherent: cold isochore: invariant drift at t = 400.0: state drift beyond "
                "1.0e-08: hermiticity 0.000e+00, trace deviation 1.000e-06")):
            OttoConfig().run()

    @pytest.mark.parametrize("lam", [0.0, -2.0, math.nan])
    def test_nonpositive_rescaling_rejected(self, machines, lam):
        spec, system, els_c = machines
        with pytest.raises(InvariantViolation, match="lam must be positive"):
            otto_cycle(
                system.H_S, lam, flat_bath(0.1, 1.17), flat_bath(0.1, 0.1),
                [system.A_S], local_couplings(spec), 400.0, thermal_state_of(els_c, 50.0),
            )
