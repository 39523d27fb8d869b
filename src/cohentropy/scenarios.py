"""Named experiment scenarios: configuration, builders, runners, serialization.

Configurations are strict: unknown keys anywhere are errors, so typos in
physics parameters cannot silently fall back to defaults.  All outputs are
deterministic for fixed configuration and seeds; floats are serialized with
17 significant digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Sequence

import numpy as np

from .collective import (
    SpinEnsembleSpec,
    collective_coupling,
    delta_C_h_limit,
    entropy_production_ratio,
    local_couplings,
)
from .exceptions import CohentropyError, ConfigError, WitnessNotFound
from .lindblad import (
    LindbladGenerator,
    build_generator,
    evolve,
    flat_bath,
)
from .qcore import DensityMatrix, HermitianObservable, Verdict, boltzmann_weights, trace_distance
from .spectrum import (
    EnergyLevelStructure,
    build_level_structure,
    state_functionals,
    thermal_state_of,
)
from .thermalops import (
    CHECK_TOL,
    WITNESS_THRESHOLD,
    BipartiteSystem,
    ConservationReport,
    apply_operation,
    conservation_report,
    divergence_witness,
    horizontal_pattern,
    incoherent_input_verdicts,
    sample_energy_conserving_unitary,
)
from .thermo import (
    ComplementarityReport,
    ThermoSeries,
    ThermoSnapshot,
    complementarity_report,
    decompose_series,
    heat_flow,
    instantaneous_rates,
    otto_cycle,
)

SCENARIOS = (
    "collective-spins",
    "heat-flow-reversal",
    "thermal-operation",
    "near-degenerate",
    "otto-cycle",
)

CSV_HEADER = "t,S,C_v,C_h,D_th,E_S,F_D,Pi_rate,Phi_rate,rate_C_v,rate_C_h,rate_D_th,flags"
LINDBLAD_DIM_BUDGET = 64
RATIO_RELATIVE_TOL = 0.05  # the entropy-production ratio against its limits
TRACE_DISTANCE_TOL = 1e-3  # clustered against exactly-degenerate near-degenerate run
MAX_GRID_POINTS = 10**12  # far inside numpy's index range, which np.geomspace overflows


def fmt(x: float) -> str:
    """17 significant digits, '.' decimal separator, locale independent."""
    return format(float(x), ".17g")


def _check_ceiling(name: str, points: int) -> None:
    if points > MAX_GRID_POINTS:
        raise ConfigError(f"{name} must be at most {MAX_GRID_POINTS}, got {points}")


@dataclass(frozen=True)
class GridSpec:
    """A config's time grid: only the number of points; each scenario sets its span."""

    points: int = 60

    def __post_init__(self):
        if self.points < 3:
            raise ConfigError("time_grid requires points >= 3")
        _check_ceiling("time_grid.points", self.points)


@dataclass(frozen=True)
class TimeGrid:
    """The builders' grid: ``points`` geometric times in [t_min, t_max], optionally after t = 0."""

    t_min: float
    t_max: float
    points: int
    include_zero: bool = False

    def __post_init__(self):
        if not (0 < self.t_min < self.t_max) or self.points < 3:
            raise ConfigError("time_grid requires 0 < t_min < t_max and points >= 3")
        _check_ceiling("time_grid.points", self.points)

    def times(self) -> list[float]:
        ts = list(np.geomspace(self.t_min, self.t_max, self.points))
        return ([0.0] + ts) if self.include_zero else ts


@dataclass(frozen=True)
class SweepSpec:
    """The beta_B * omega sweep of the collective scenario's ratio table."""

    minimum: float = 0.1
    maximum: float = 6.0
    points: int = 25

    def __post_init__(self):
        if not (0 < self.minimum < self.maximum) or self.points < 2:
            raise ConfigError("sweep requires 0 < min < max and points >= 2")
        _check_ceiling("sweep.points", self.points)

    def values(self) -> list[float]:
        return list(np.geomspace(self.minimum, self.maximum, self.points))


@dataclass(frozen=True)
class OttoParams:
    lam: float = 2.0
    beta_cold: float = 1.17
    beta_hot: float = 0.1
    stroke_time: float = 400.0
    prep_beta: float = 50.0

    def __post_init__(self):
        if self.lam <= 0 or self.stroke_time <= 0:
            raise ConfigError("otto requires lam > 0 and stroke_time > 0")


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str = "collective-spins"
    n: int = 2
    s: float = 0.5
    omega: float = 1.0
    beta_0: float = 50.0
    beta_B: float = 1.0
    gamma: float = 0.1
    delta: float = 0.0
    coherence_amplitude: float | None = None
    seeds: int = 256
    seed: int = 0
    time_grid: GridSpec = field(default_factory=GridSpec)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    otto: OttoParams = field(default_factory=OttoParams)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        if self.omega <= 0:
            raise ConfigError("omega must be positive")
        if self.gamma <= 0:
            raise ConfigError("gamma must be positive")
        if self.delta < 0:
            raise ConfigError("delta must be nonnegative")
        if self.seeds < 1:
            raise ConfigError("seeds must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.n < 1 or self.s <= 0 or round(2 * self.s) != 2 * self.s:
            raise ConfigError("need n >= 1 and positive half-integer s")
        dim = int(round(2 * self.s + 1)) ** self.n
        if self.scenario in ("collective-spins", "heat-flow-reversal", "near-degenerate"):
            if dim > LINDBLAD_DIM_BUDGET:
                raise ConfigError(
                    f"(2s+1)^n = {dim} exceeds the Lindblad budget {LINDBLAD_DIM_BUDGET}"
                )
        if self.coherence_amplitude is not None and self.coherence_amplitude < 0:
            raise ConfigError("coherence_amplitude must be nonnegative")


_NUMBER_TYPES = {"int": (int,), "float": (int, float), "float | None": (int, float, type(None))}


def _check_number(name: str, kind: str, value: Any) -> None:
    """An int field takes an int, a float field a finite number; bools are neither."""
    allowed = _NUMBER_TYPES.get(kind)
    if allowed is None:
        return
    if isinstance(value, bool) or not isinstance(value, allowed):
        noun = "an integer" if kind == "int" else "a number"
        raise ConfigError(f"{name} must be {noun}, got {json.dumps(value)}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")


def parse_config(raw: dict[str, Any]) -> ScenarioConfig:
    """Strict construction: unknown keys anywhere raise ConfigError, as do
    int fields that are not integers and float fields that are not finite
    numbers (booleans count as neither)."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    def build(cls, data, path):
        if not isinstance(data, dict):
            raise ConfigError(f"{path} must be an object")
        allowed = {f.name for f in fields(cls)}
        unknown = set(data) - allowed
        if unknown:
            raise ConfigError(f"unknown keys at {path}: {sorted(unknown)}")
        for f in fields(cls):
            if f.name in data:
                name = f.name if path == "<root>" else f"{path}.{f.name}"
                _check_number(name, f.type, data[f.name])
        return data
    data = dict(build(ScenarioConfig, raw, "<root>"))
    try:
        if "time_grid" in data:
            data["time_grid"] = GridSpec(**build(GridSpec, data["time_grid"], "time_grid"))
        if "sweep" in data:
            data["sweep"] = SweepSpec(**build(SweepSpec, data["sweep"], "sweep"))
        if "otto" in data:
            data["otto"] = OttoParams(**build(OttoParams, data["otto"], "otto"))
        return ScenarioConfig(**data)
    except TypeError as exc:
        raise ConfigError(f"bad configuration value: {exc}") from exc


def config_from_json(text: str) -> ScenarioConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    return parse_config(raw)


# ---------------------------------------------------------------------------
# Builders shared by the CLI and the acceptance suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollectiveScenario:
    spec: SpinEnsembleSpec
    els: EnergyLevelStructure
    gen: LindbladGenerator
    rho0: DensityMatrix
    series: ThermoSeries


def build_collective_scenario(
    n: int = 2,
    s: float = 0.5,
    omega: float = 1.0,
    beta_0: float = 50.0,
    beta_B: float = 1.0,
    gamma: float = 0.1,
    grid: TimeGrid | None = None,
    provenance: str = "collective-spins",
) -> CollectiveScenario:
    spec = SpinEnsembleSpec(n, s, omega)
    system = collective_coupling(spec)
    els = system.level_structure()
    gen = build_generator([system.A_S], els, flat_bath(gamma, beta_B))
    rho0 = thermal_state_of(els, beta_0)
    grid = grid or TimeGrid(t_min=0.01 / gamma, t_max=30.0 / gamma, points=60)
    series = decompose_series(gen, rho0, grid.times(), provenance)
    return CollectiveScenario(spec=spec, els=els, gen=gen, rho0=rho0, series=series)


@dataclass(frozen=True)
class ReversalScenario:
    els: EnergyLevelStructure
    gen: LindbladGenerator
    rho0: DensityMatrix
    series: ThermoSeries
    amplitude: float
    amplitude_max: float
    initial_snapshot: ThermoSnapshot
    weighted_E_dot: float  # (beta_0 - beta_B) dE/dt at t = 0; negative when heat flow reverses

    def verdicts(self) -> list[Verdict]:
        w = self.weighted_E_dot
        return [Verdict("heat_flow_reversed", w, 0.0, w < 0)]


def build_reversal_scenario(
    omega: float = 1.0,
    beta_0: float = 1.1,
    beta_B: float = 1.0,
    gamma: float = 0.1,
    amplitude: float | None = None,
    grid: TimeGrid | None = None,
) -> ReversalScenario:
    """Two resonant qubits, collective coupling, rho0 = thermal(beta_0) + c chi.

    chi = |01><10| + h.c. in the one-excitation doublet.  When no amplitude is
    given, c is scanned upward (fractions of c_max) until the initial heat flow
    reverses, (beta_0 - beta_B) dE/dt < 0.
    """
    spec = SpinEnsembleSpec(2, 0.5, omega)
    system = collective_coupling(spec)
    els = system.level_structure()
    gen = build_generator([system.A_S], els, flat_bath(gamma, beta_B))
    base = thermal_state_of(els, beta_0)
    pattern = horizontal_pattern(els)
    # chi has eigenvalues +-1, so c < lambda_min(base), its smallest Boltzmann weight,
    # keeps rho positive; not the largest such amplitude (0.187 vs 0.0624 at beta_0 = 1.1)
    c_max = float(boltzmann_weights(els.index_energies, beta_0).min())
    if amplitude is None:
        chosen = None
        for frac in np.linspace(0.05, 0.95, 19):
            c = frac * c_max
            rho = DensityMatrix(base.elements + c * pattern.elements, base.basis_labels)
            snap = instantaneous_rates(gen, rho)
            if (beta_0 - beta_B) * snap.E_dot < -1e-12:
                chosen = c
                break
        if chosen is None:
            raise CohentropyError("no reversing coherence amplitude found in scan")
        amplitude = chosen
    else:
        if amplitude >= c_max:
            raise ConfigError(
                f"coherence_amplitude {amplitude} must be below lambda_min(rho_th) = {c_max:.6g}"
            )
    rho0 = DensityMatrix(base.elements + amplitude * pattern.elements, base.basis_labels)
    grid = grid or TimeGrid(t_min=0.01 / gamma, t_max=20.0 / gamma, points=50, include_zero=True)
    series = decompose_series(gen, rho0, grid.times(), "heat-flow-reversal")
    return ReversalScenario(
        els=els,
        gen=gen,
        rho0=rho0,
        series=series,
        amplitude=float(amplitude),
        amplitude_max=float(c_max),
        initial_snapshot=series.snapshots[0],
        weighted_E_dot=(beta_0 - beta_B) * series.snapshots[0].E_dot,
    )


@dataclass(frozen=True)
class NearDegenerateScenario:
    els_exact: EnergyLevelStructure
    els_clustered: EnergyLevelStructure
    gen_exact: LindbladGenerator
    gen_clustered: LindbladGenerator
    rho0: DensityMatrix
    times: list[float]
    horizon: float
    series: ThermoSeries
    max_trace_distance: float

    def verdicts(self, tol: float = TRACE_DISTANCE_TOL) -> list[Verdict]:
        d = self.max_trace_distance
        return [Verdict("within_tolerance", d, tol, d <= tol)]


def build_near_degenerate_scenario(
    omega: float = 1.0,
    delta: float = 1e-3,
    beta_0: float = 50.0,
    beta_B: float = 1.0,
    gamma: float = 0.1,
    points: int = 40,
) -> NearDegenerateScenario:
    """Two qubits with splitting mismatch delta, clustered at delta, against
    the exactly-degenerate twin, for times up to the 0.1/delta horizon."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    eye = np.eye(2)
    n1 = np.diag([0.0, 1.0])
    h_exact = HermitianObservable(omega * (np.kron(n1, eye) + np.kron(eye, n1)))
    h_mismatch = HermitianObservable(
        omega * np.kron(n1, eye) + (omega + delta) * np.kron(eye, n1)
    )
    a_s = HermitianObservable(np.kron(sx, eye) + np.kron(eye, sx))
    els_exact = build_level_structure(h_exact)
    els_clustered = build_level_structure(h_mismatch, delta=delta)
    bath = flat_bath(gamma, beta_B)
    gen_exact = build_generator([a_s], els_exact, bath)
    gen_clustered = build_generator([a_s], els_clustered, bath)
    rho0 = thermal_state_of(els_exact, beta_0)
    horizon = 0.1 / delta
    times = list(np.geomspace(0.01 / gamma, horizon, points))
    traj_exact = evolve(gen_exact, rho0, times)
    series = decompose_series(gen_clustered, rho0, times, "near-degenerate")
    dist = max(trace_distance(a, b) for a, b in zip(traj_exact, series.states))
    return NearDegenerateScenario(
        els_exact=els_exact,
        els_clustered=els_clustered,
        gen_exact=gen_exact,
        gen_clustered=gen_clustered,
        rho0=rho0,
        times=times,
        horizon=horizon,
        series=series,
        max_trace_distance=float(dist),
    )


def thermal_operation_systems(omega: float = 1.0) -> list[tuple[str, BipartiteSystem]]:
    """The two seeded-unitary test systems.

    'qubit*qubit' pairs two resonant qubits; 'qutrit*qubit' takes a degenerate
    qutrit S (levels 0, w, w) against a qubit B, the smallest S with
    horizontal coherences.
    """
    els_qubit = build_level_structure(
        HermitianObservable(np.diag([0.0, omega])), labels=("g", "e")
    )
    els_qutrit = build_level_structure(
        HermitianObservable(np.diag([0.0, omega, omega])), labels=("g", "e1", "e2")
    )
    return [
        ("qubit*qubit", BipartiteSystem.build(els_qubit, els_qubit)),
        ("qutrit*qubit", BipartiteSystem.build(els_qutrit, els_qubit)),
    ]


def coherent_prepared_state(
    els: EnergyLevelStructure, beta_0: float, seed: int, amplitude: float = 0.45
) -> DensityMatrix:
    """Thermal diagonal at beta_0 plus seeded random coherences, positivity-safe."""
    rng = np.random.default_rng(seed)
    base = thermal_state_of(els, beta_0)
    dim = els.dim
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x = 0.5 * (x + x.conj().T)
    x -= np.diag(np.diag(x))
    lam_min = float(boltzmann_weights(els.index_energies, beta_0).min())
    spread = float(np.max(np.abs(np.linalg.eigvalsh(x)))) or 1.0
    return DensityMatrix(base.elements + amplitude * lam_min / spread * x, base.basis_labels)


def diagonal_prepared_state(els: EnergyLevelStructure, seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    p = rng.random(els.dim) + 0.05
    return DensityMatrix(np.diag(p / p.sum()).astype(complex), els.basis_labels)


def conservation_scan(
    sys_: BipartiteSystem,
    seeds: Sequence[int],
    rho_B: DensityMatrix,
    beta_B: float,
    beta_0: float | None = None,
    tol: float = CHECK_TOL,
) -> list[ConservationReport]:
    """conservation_report for the energy-conserving unitary of each seed.

    rho_S is coherent_prepared_state at beta_0 (seeded 10000 + seed) or, when
    beta_0 is None, the incoherent diagonal_prepared_state (seeded 20000 + seed).
    """
    reports = []
    for seed in seeds:
        if beta_0 is None:
            rho_s = diagonal_prepared_state(sys_.els_S, 20_000 + seed)
        else:
            rho_s = coherent_prepared_state(sys_.els_S, beta_0, 10_000 + seed)
        u = sample_energy_conserving_unitary(sys_, seed)
        reports.append(conservation_report(sys_, u, rho_s, rho_B, beta_B, tol=tol))
    return reports


def build_otto_report(
    omega: float = 1.0,
    gamma: float = 0.1,
    params: OttoParams | None = None,
):
    params = params or OttoParams()
    spec = SpinEnsembleSpec(2, 0.5, omega)
    system = collective_coupling(spec)
    h_cold = system.H_S
    h_hot = HermitianObservable(params.lam * h_cold.elements)
    els_c = build_level_structure(h_cold, labels=spec.basis_labels())
    prep = thermal_state_of(els_c, params.prep_beta)
    return otto_cycle(
        h_cold,
        h_hot,
        flat_bath(gamma, params.beta_cold),
        flat_bath(gamma, params.beta_hot),
        system.A_S,
        local_couplings(spec),
        stroke_time=params.stroke_time,
        initial_state=prep,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def series_to_csv(series: ThermoSeries) -> str:
    lines = [CSV_HEADER]
    for s in series.snapshots:
        row = [
            fmt(s.t), fmt(s.S), fmt(s.C_v), fmt(s.C_h), fmt(s.D_th), fmt(s.E_S),
            fmt(s.F_D), fmt(s.Pi_rate), fmt(s.Phi_rate), fmt(s.rate_C_v),
            fmt(s.rate_C_h), fmt(s.rate_D_th), ";".join(s.flags),
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def snapshot_rows_to_csv(rows: Sequence[tuple[float, dict[str, float], tuple[str, ...]]]) -> str:
    """CSV in the standard header for map-style scenarios (finite variations)."""
    lines = [CSV_HEADER]
    order = ("S", "C_v", "C_h", "D_th", "E_S", "F_D", "Pi_rate", "Phi_rate",
             "rate_C_v", "rate_C_h", "rate_D_th")
    for t, values, flags in rows:
        row = [fmt(t)] + [fmt(values.get(k, float("nan"))) for k in order] + [";".join(flags)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def ratio_verdict(n: int, ratio: float, tol: float = RATIO_RELATIVE_TOL) -> Verdict:
    """The entropy-production ratio at large beta_B omega lies within tol * n of n."""
    return Verdict("ratio_within_5_percent", ratio, tol * n, abs(ratio - n) <= tol * n)


# ---------------------------------------------------------------------------
# Scenario runners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioOutput:
    """In-memory result of one scenario run: serialized files plus a verdict."""

    scenario: str
    csv_text: str
    summary_text: str
    invariant_failures: int


class _Summary:
    """Deterministic key/value + table text accumulator that counts the failing
    verdicts it judges.  It opens with the scenario's title and the named
    parameters ``keys`` of ``params``."""

    def __init__(self, scenario: str, params, keys: Sequence[str]):
        self.scenario = scenario
        self.lines: list[str] = [f"# {scenario}", ""]
        self.failures = 0
        for key in keys:
            self.kv(key, getattr(params, key))

    def kv(self, key: str, value) -> None:
        if isinstance(value, float):
            value = fmt(value)
        self.lines.append(f"{key}: {value}")

    def section(self, name: str) -> None:
        self.lines.extend(["", f"## {name}"])

    def table(self, header: Sequence[str], rows: Sequence[Sequence[float]]) -> None:
        self.lines.append(",".join(header))
        for row in rows:
            self.lines.append(",".join(fmt(v) if isinstance(v, float) else str(v) for v in row))

    def judge(self, v: Verdict, shown=None) -> None:
        """The verdict's line: pass/FAIL, unless ``shown`` replaces the word."""
        self.kv(v.name, ("pass" if v.passed else "FAIL") if shown is None else shown)
        self.failures += not v.passed

    def tally(self, verdicts: Sequence[Verdict]) -> int:
        """Count the failing verdicts, without a line each; return that count."""
        bad = sum(not v.passed for v in verdicts)
        self.failures += bad
        return bad

    def invariants(self, series: ThermoSeries) -> None:
        verdicts = series.verdicts()
        self.section("invariants")
        self.kv("snapshots", len(series.snapshots))
        for name in ("closure", "positivity"):
            self.kv(f"{name}_failures", self.tally([v for v in verdicts if v.name == name]))

    def complementarity(self, report: ComplementarityReport) -> None:
        self.section("complementarity")
        self.kv("applicable", report.applicable)
        if not report.applicable:
            self.kv("flags", ";".join(report.flags))
            return
        self.kv("beta_0_fit", report.beta_0)
        self.kv("fit_residual", report.fit_residual)
        for v in report.verdicts():
            self.judge(v)
        self.kv("reversal_active_entries", sum(e.reversal_active for e in report.entries))
        self.kv("generation_active_entries", sum(e.generation_active for e in report.entries))

    def output(self, csv_text: str) -> ScenarioOutput:
        text = "\n".join(self.lines) + "\n"
        return ScenarioOutput(self.scenario, csv_text, text, self.failures)


def run_collective_scenario(cfg: ScenarioConfig) -> ScenarioOutput:
    scen = build_collective_scenario(
        cfg.n, cfg.s, cfg.omega, cfg.beta_0, cfg.beta_B, cfg.gamma,
        grid=TimeGrid(0.01 / cfg.gamma, 30.0 / cfg.gamma, cfg.time_grid.points),
    )
    summary = _Summary(cfg.scenario, cfg, ("n", "s", "omega", "beta_0", "beta_B", "gamma"))
    summary.invariants(scen.series)

    summary.section("horizontal-coherence generation")
    summary.kv("C_h_final", scen.series.snapshots[-1].C_h)
    summary.kv("C_h_limit_closed_form", -delta_C_h_limit(scen.spec, cfg.beta_B))
    summary.kv("max_rate_C_h", max(s.rate_C_h for s in scen.series.snapshots))

    summary.section("entropy-production ratio sweep")
    rows = []
    for x in cfg.sweep.values():
        pt, pc, ratio = entropy_production_ratio(scen.spec, cfg.beta_0 * cfg.omega, x / cfg.omega)
        rows.append((x, pt, pc, ratio))
    summary.table(("beta_B_omega", "Pi_th", "Pi_col", "ratio"), rows)
    top_ratio = rows[-1][-1]
    summary.kv("ratio_at_top", top_ratio)
    summary.kv("ratio_target_n", cfg.n)
    summary.judge(ratio_verdict(cfg.n, top_ratio))
    return summary.output(series_to_csv(scen.series))


def run_reversal_scenario(cfg: ScenarioConfig) -> ScenarioOutput:
    scen = build_reversal_scenario(
        cfg.omega, cfg.beta_0, cfg.beta_B, cfg.gamma, cfg.coherence_amplitude,
        grid=TimeGrid(0.01 / cfg.gamma, 20.0 / cfg.gamma, cfg.time_grid.points, include_zero=True),
    )
    summary = _Summary(cfg.scenario, cfg, ("omega", "beta_0", "beta_B", "gamma"))
    summary.kv("coherence_amplitude", scen.amplitude)
    summary.kv("coherence_amplitude_max", scen.amplitude_max)
    summary.invariants(scen.series)

    summary.section("initial heat flow")
    summary.kv("E_dot_initial", scen.initial_snapshot.E_dot)
    summary.kv("weighted_E_dot", scen.weighted_E_dot)
    for v in scen.verdicts():
        summary.judge(v, "yes" if v.passed else "no")
    summary.kv("rate_D_th_initial", scen.initial_snapshot.rate_D_th)
    hf = heat_flow(scen.gen, scen.rho0)
    for ch in hf.channels:
        summary.kv(f"apparent_temperature_omega_{fmt(ch.omega)}",
                   "undefined" if ch.T_apparent is None else fmt(ch.T_apparent))
    summary.complementarity(complementarity_report(scen.series))
    return summary.output(series_to_csv(scen.series))


def run_thermal_operation_scenario(cfg: ScenarioConfig) -> ScenarioOutput:
    summary = _Summary(cfg.scenario, cfg, ("seeds", "beta_0", "beta_B"))
    witness_rows = []
    seeds = range(cfg.seed, cfg.seed + cfg.seeds)
    for name, sys_ in thermal_operation_systems(cfg.omega):
        summary.section(f"conservation laws: {name}")
        rho_b = thermal_state_of(sys_.els_B, cfg.beta_B)
        reports = conservation_scan(sys_, seeds, rho_b, cfg.beta_B, beta_0=cfg.beta_0)
        for column in zip(*(r.verdicts() for r in reports)):
            bad = summary.tally(column)
            summary.kv(column[0].name, f"{len(column) - bad}/{len(column)} pass")

        finals = [r.S_final for r in conservation_scan(sys_, seeds, rho_b, cfg.beta_B)]
        cv, ch = incoherent_input_verdicts(finals)
        summary.judge(cv, cv.value)
        if not sys_.els_S.is_degenerate():
            summary.kv(ch.name, ch.value)
            continue
        summary.judge(ch, ch.value)
        summary.section(f"population-divergence witness: {name}")
        try:
            wit = divergence_witness(sys_, seeds, cfg.beta_B)
        except WitnessNotFound as exc:
            missing = Verdict("witness", math.nan, WITNESS_THRESHOLD, False)
            summary.judge(missing, f"not found ({exc})")
            continue
        summary.kv("seed", wit.seed)
        summary.kv("coherence_amplitude", wit.coherence_amplitude)
        summary.kv("delta_D_th_S", wit.delta_D_th_S)
        summary.kv("delta_C_h_S", wit.delta_C_h_S)
        summary.kv("delta_E_S", wit.delta_E_S)
        _, rho_s_f, _ = apply_operation(sys_, wit.unitary, wit.rho_S, wit.rho_B)
        witness_rows = finite_change_rows(
            (t, state, sys_.els_S, cfg.beta_B, "finite-operation")
            for t, state in ((0.0, wit.rho_S), (1.0, rho_s_f))
        )
    return summary.output(snapshot_rows_to_csv(witness_rows))


def finite_change_rows(frames):
    """Rows of state functionals at (t, state, els, beta, flag) frames; the rate
    columns hold the finite changes from the previous frame (zero on the first)."""
    rows = []
    prev: dict[str, float] = {}
    for t, state, els, beta, flag in frames:
        f = state_functionals(state, els, beta)
        values = {"S": f.S, "C_v": f.C_v, "C_h": f.C_h, "D_th": f.D_th, "E_S": f.E_S, "F_D": f.F_D}
        if prev:
            deltas = {k: values[k] - prev[k] for k in values}
            values.update(
                Pi_rate=-(deltas["C_v"] + deltas["C_h"] + deltas["D_th"]),
                Phi_rate=beta * deltas["E_S"],
                rate_C_v=deltas["C_v"],
                rate_C_h=deltas["C_h"],
                rate_D_th=deltas["D_th"],
            )
        else:
            values.update(Pi_rate=0.0, Phi_rate=0.0, rate_C_v=0.0, rate_C_h=0.0, rate_D_th=0.0)
        prev = dict(values)
        rows.append((t, values, (flag,)))
    return rows


def run_near_degenerate_scenario(cfg: ScenarioConfig) -> ScenarioOutput:
    delta = cfg.delta if cfg.delta > 0 else 1e-3 * cfg.omega
    scen = build_near_degenerate_scenario(
        cfg.omega, delta, cfg.beta_0, cfg.beta_B, cfg.gamma, points=cfg.time_grid.points
    )
    summary = _Summary(cfg.scenario, cfg, ("omega", "beta_0", "beta_B", "gamma"))
    summary.kv("delta", delta)
    summary.kv("horizon", scen.horizon)
    summary.invariants(scen.series)
    summary.section("clustered vs exactly-degenerate twin")
    summary.kv("max_trace_distance", scen.max_trace_distance)
    for v in scen.verdicts():
        summary.judge(v)
    return summary.output(series_to_csv(scen.series))


def run_otto_scenario(cfg: ScenarioConfig) -> ScenarioOutput:
    report = build_otto_report(cfg.omega, cfg.gamma, cfg.otto)
    keys = ("lam", "beta_cold", "beta_hot", "stroke_time", "prep_beta")
    summary = _Summary(cfg.scenario, cfg.otto, keys)
    frames = (
        ("start", report.els_cold, cfg.otto.beta_cold),
        ("after-cold-isochore", report.els_cold, cfg.otto.beta_cold),
        ("after-hot-isochore", report.els_hot, cfg.otto.beta_hot),
    )
    verdicts = report.verdicts()
    machines = (("incoherent", report.incoherent), ("coherent", report.coherent))
    rows = []
    for (label, m), law in zip(machines, verdicts):
        summary.section(f"machine: {label}")
        summary.kv("Q_c", m.Q_c)
        summary.kv("Q_h", m.Q_h)
        summary.kv("W", m.W)
        summary.kv("eta", "undefined" if m.eta is None else fmt(m.eta))
        summary.kv("Sigma", m.Sigma)
        summary.judge(law, law.value)
        summary.kv("cycles_to_limit", m.cycles)
        if m.flags:
            summary.kv("flags", ";".join(m.flags))
        rows.extend(finite_change_rows(
            (phase, state, els, beta, f"machine={label};stroke={stroke}")
            for phase, (state, (stroke, els, beta)) in enumerate(zip(m.stroke_states, frames))
        ))
    summary.section("exchange-relation branch")
    identities = {v.name: v for v in verdicts[2:]}
    for branch in ("W", "eta"):
        summary.kv(f"equal_{branch}_applies", getattr(report, f"equal_{branch}_applies"))
        v = identities.get(f"equal_{branch}_identity_residual")
        if v is not None:
            summary.judge(v, v.value)
    summary.kv("work_gain_coherent", abs(report.coherent.W) - abs(report.incoherent.W))
    summary.kv("Sigma_gain_coherent", report.coherent.Sigma - report.incoherent.Sigma)
    return summary.output(snapshot_rows_to_csv(rows))


def run_scenario_config(cfg: ScenarioConfig) -> ScenarioOutput:
    if cfg.scenario == "collective-spins":
        return run_collective_scenario(cfg)
    if cfg.scenario == "heat-flow-reversal":
        return run_reversal_scenario(cfg)
    if cfg.scenario == "thermal-operation":
        return run_thermal_operation_scenario(cfg)
    if cfg.scenario == "near-degenerate":
        return run_near_degenerate_scenario(cfg)
    if cfg.scenario == "otto-cycle":
        return run_otto_scenario(cfg)
    raise ConfigError(f"unknown scenario {cfg.scenario!r}")
