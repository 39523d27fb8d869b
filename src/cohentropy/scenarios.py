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
from .qcore import DensityMatrix, HermitianObservable, trace_distance
from .spectrum import (
    EnergyLevelStructure,
    build_level_structure,
    state_functionals,
    thermal_state_of,
)
from .thermalops import (
    CHECK_TOL,
    BipartiteSystem,
    ConservationReport,
    apply_operation,
    conservation_report,
    divergence_witness,
    horizontal_pattern,
    sample_energy_conserving_unitary,
)
from .thermo import (
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


def fmt(x: float) -> str:
    """17 significant digits, '.' decimal separator, locale independent."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class GridSpec:
    """A config's time grid: only the number of points; each scenario sets its span."""

    points: int = 60

    def __post_init__(self):
        if self.points < 3:
            raise ConfigError("time_grid requires points >= 3")


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
class Tolerances:
    """Overridable check tolerances for scenario summaries."""

    invariant: float = 1e-8
    ratio_relative: float = 0.05
    trace_distance: float = 1e-3

    def __post_init__(self):
        for name in ("invariant", "ratio_relative", "trace_distance"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"tolerance {name} must be positive")


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
    tolerances: Tolerances = field(default_factory=Tolerances)

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
        if "tolerances" in data:
            data["tolerances"] = Tolerances(**build(Tolerances, data["tolerances"], "tolerances"))
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
    # chi has eigenvalues +-1, so c < lambda_min(base) suffices for positivity;
    # it is not the largest positive amplitude (0.187 against 0.0624 at beta_0 = 1.1)
    c_max = float(np.linalg.eigvalsh(base.elements)[0])
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
    )


@dataclass(frozen=True)
class NearDegenerateScenario:
    els_exact: EnergyLevelStructure
    els_clustered: EnergyLevelStructure
    gen_exact: LindbladGenerator
    gen_clustered: LindbladGenerator
    rho0: DensityMatrix
    times: list[float]
    series: ThermoSeries
    max_trace_distance: float


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
    lam_min = float(np.linalg.eigvalsh(base.elements)[0])
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


def invariant_scan(series: ThermoSeries, tol: float = 1e-8) -> dict[str, int]:
    """Counts of per-snapshot invariant checks over a series."""
    counts = {"snapshots": 0, "closure_fail": 0, "positivity_fail": 0}
    for s in series.snapshots:
        counts["snapshots"] += 1
        if not math.isfinite(s.Pi_rate):
            continue
        closure = abs(s.Pi_rate + s.rate_C_v + s.rate_C_h + s.rate_D_th)
        if closure > tol * max(1.0, abs(s.Pi_rate)):
            counts["closure_fail"] += 1
        trio_ok = (
            s.Pi_rate >= -tol
            and -s.rate_C_v >= -tol
            and (-s.rate_C_h - s.rate_D_th) >= -tol
        )
        if not trio_ok:
            counts["positivity_fail"] += 1
    return counts


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
    """Deterministic key/value + table text accumulator."""

    def __init__(self, title: str):
        self.lines: list[str] = [f"# {title}", ""]

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

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _summarize_invariants(summary: _Summary, scan: dict[str, int]) -> int:
    summary.section("invariants")
    summary.kv("snapshots", scan["snapshots"])
    summary.kv("closure_failures", scan["closure_fail"])
    summary.kv("positivity_failures", scan["positivity_fail"])
    return scan["closure_fail"] + scan["positivity_fail"]


def _summarize_complementarity(summary: _Summary, report) -> int:
    summary.section("complementarity")
    summary.kv("applicable", report.applicable)
    if not report.applicable:
        summary.kv("flags", ";".join(report.flags))
        return 0
    summary.kv("beta_0_fit", report.beta_0)
    summary.kv("fit_residual", report.fit_residual)
    failures = 0
    n_rev = sum(1 for e in report.entries if e.reversal_active)
    n_gen = sum(1 for e in report.entries if e.generation_active)
    for name, ok in (
        ("i_sum_nonnegative", all(e.sum_nonneg_ok for e in report.entries)),
        ("ii_energy_identity", all(e.energy_identity_ok for e in report.entries)),
        ("iii_reversal_bound", all(e.reversal_bound_ok for e in report.entries if e.reversal_active)),
        ("iv_generation_bound", all(e.generation_bound_ok for e in report.entries if e.generation_active)),
        ("v_initial_rate", bool(report.initial_rate_ok)),
    ):
        summary.kv(name, "pass" if ok else "FAIL")
        failures += 0 if ok else 1
    summary.kv("reversal_active_entries", n_rev)
    summary.kv("generation_active_entries", n_gen)
    return failures


def run_collective_scenario(cfg: ScenarioConfig) -> ScenarioOutput:
    scen = build_collective_scenario(
        cfg.n, cfg.s, cfg.omega, cfg.beta_0, cfg.beta_B, cfg.gamma,
        grid=TimeGrid(0.01 / cfg.gamma, 30.0 / cfg.gamma, cfg.time_grid.points),
    )
    summary = _Summary("collective-spins")
    for key in ("n", "s", "omega", "beta_0", "beta_B", "gamma"):
        summary.kv(key, getattr(cfg, key))
    failures = _summarize_invariants(summary, invariant_scan(scen.series, cfg.tolerances.invariant))

    summary.section("horizontal-coherence generation")
    final_ch = scen.series.snapshots[-1].C_h
    closed = -delta_C_h_limit(scen.spec, cfg.beta_B)
    summary.kv("C_h_final", final_ch)
    summary.kv("C_h_limit_closed_form", closed)
    summary.kv("max_rate_C_h", max(s.rate_C_h for s in scen.series.snapshots))

    summary.section("entropy-production ratio sweep")
    rows = []
    ratio_failures = 0
    for x in cfg.sweep.values():
        pt, pc, ratio = entropy_production_ratio(scen.spec, cfg.beta_0 * cfg.omega, x / cfg.omega)
        rows.append((x, pt, pc, ratio))
    summary.table(("beta_B_omega", "Pi_th", "Pi_col", "ratio"), rows)
    top_ratio = rows[-1][-1]
    summary.kv("ratio_at_top", top_ratio)
    summary.kv("ratio_target_n", cfg.n)
    if abs(top_ratio - cfg.n) > cfg.tolerances.ratio_relative * cfg.n:
        ratio_failures += 1
        summary.kv("ratio_within_5_percent", "FAIL")
    else:
        summary.kv("ratio_within_5_percent", "pass")
    return ScenarioOutput(
        scenario=cfg.scenario,
        csv_text=series_to_csv(scen.series),
        summary_text=summary.text(),
        invariant_failures=failures + ratio_failures,
    )


def run_reversal_scenario(cfg: ScenarioConfig) -> ScenarioOutput:
    scen = build_reversal_scenario(
        cfg.omega, cfg.beta_0, cfg.beta_B, cfg.gamma, cfg.coherence_amplitude,
        grid=TimeGrid(0.01 / cfg.gamma, 20.0 / cfg.gamma, cfg.time_grid.points, include_zero=True),
    )
    summary = _Summary("heat-flow-reversal")
    for key in ("omega", "beta_0", "beta_B", "gamma"):
        summary.kv(key, getattr(cfg, key))
    summary.kv("coherence_amplitude", scen.amplitude)
    summary.kv("coherence_amplitude_max", scen.amplitude_max)
    failures = _summarize_invariants(summary, invariant_scan(scen.series, cfg.tolerances.invariant))

    summary.section("initial heat flow")
    snap0 = scen.initial_snapshot
    weighted = (cfg.beta_0 - cfg.beta_B) * snap0.E_dot
    summary.kv("E_dot_initial", snap0.E_dot)
    summary.kv("weighted_E_dot", weighted)
    summary.kv("heat_flow_reversed", "yes" if weighted < 0 else "no")
    if weighted >= 0:
        failures += 1
    summary.kv("rate_D_th_initial", snap0.rate_D_th)
    hf = heat_flow(scen.gen, scen.rho0)
    for ch in hf.channels:
        summary.kv(f"apparent_temperature_omega_{fmt(ch.omega)}",
                   "undefined" if ch.T_apparent is None else fmt(ch.T_apparent))
    failures += _summarize_complementarity(summary, complementarity_report(scen.series))
    return ScenarioOutput(cfg.scenario, series_to_csv(scen.series), summary.text(), failures)


def run_thermal_operation_scenario(cfg: ScenarioConfig) -> ScenarioOutput:
    summary = _Summary("thermal-operation")
    summary.kv("seeds", cfg.seeds)
    summary.kv("beta_0", cfg.beta_0)
    summary.kv("beta_B", cfg.beta_B)
    failures = 0
    witness_rows = []
    seeds = range(cfg.seed, cfg.seed + cfg.seeds)
    for name, sys_ in thermal_operation_systems(cfg.omega):
        summary.section(f"conservation laws: {name}")
        rho_b = thermal_state_of(sys_.els_B, cfg.beta_B)
        reports = conservation_scan(sys_, seeds, rho_b, cfg.beta_B, beta_0=cfg.beta_0)
        for cname in reports[0].checks:
            bad = sum(0 if r.checks[cname][1] else 1 for r in reports)
            summary.kv(cname, f"{len(reports) - bad}/{len(reports)} pass")
            failures += bad

        finals = [r.S_final for r in conservation_scan(sys_, seeds, rho_b, cfg.beta_B)]
        max_cv = max(f.C_v for f in finals)
        max_ch = max(f.C_h for f in finals)
        summary.kv("max_final_C_v_from_incoherent", max_cv)
        summary.kv("max_final_C_h_from_incoherent", max_ch)
        if max_cv > 1e-9:
            failures += 1
        if sys_.els_S.is_degenerate():
            if max_ch <= 1e-6:
                failures += 1
            summary.section(f"population-divergence witness: {name}")
            try:
                wit = divergence_witness(sys_, seeds, cfg.beta_B)
            except WitnessNotFound as exc:
                summary.kv("witness", f"not found ({exc})")
                failures += 1
            else:
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
    return ScenarioOutput(cfg.scenario, snapshot_rows_to_csv(witness_rows), summary.text(), failures)


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
    summary = _Summary("near-degenerate")
    for key in ("omega", "beta_0", "beta_B", "gamma"):
        summary.kv(key, getattr(cfg, key))
    summary.kv("delta", delta)
    summary.kv("horizon", 0.1 / delta)
    failures = _summarize_invariants(summary, invariant_scan(scen.series, cfg.tolerances.invariant))
    summary.section("clustered vs exactly-degenerate twin")
    summary.kv("max_trace_distance", scen.max_trace_distance)
    ok = scen.max_trace_distance <= cfg.tolerances.trace_distance
    summary.kv("within_tolerance", "pass" if ok else "FAIL")
    if not ok:
        failures += 1
    return ScenarioOutput(cfg.scenario, series_to_csv(scen.series), summary.text(), failures)


def run_otto_scenario(cfg: ScenarioConfig) -> ScenarioOutput:
    report = build_otto_report(cfg.omega, cfg.gamma, cfg.otto)
    summary = _Summary("otto-cycle")
    summary.kv("lam", cfg.otto.lam)
    summary.kv("beta_cold", cfg.otto.beta_cold)
    summary.kv("beta_hot", cfg.otto.beta_hot)
    summary.kv("stroke_time", cfg.otto.stroke_time)
    summary.kv("prep_beta", cfg.otto.prep_beta)
    frames = (
        ("start", report.els_cold, cfg.otto.beta_cold),
        ("after-cold-isochore", report.els_cold, cfg.otto.beta_cold),
        ("after-hot-isochore", report.els_hot, cfg.otto.beta_hot),
    )
    failures = 0
    rows = []
    for label, m in (("incoherent", report.incoherent), ("coherent", report.coherent)):
        summary.section(f"machine: {label}")
        summary.kv("Q_c", m.Q_c)
        summary.kv("Q_h", m.Q_h)
        summary.kv("W", m.W)
        summary.kv("eta", "undefined" if m.eta is None else fmt(m.eta))
        summary.kv("Sigma", m.Sigma)
        summary.kv("second_law_residual", m.second_law_residual)
        summary.kv("cycles_to_limit", m.cycles)
        if m.flags:
            summary.kv("flags", ";".join(m.flags))
        if abs(m.second_law_residual) > 1e-8:
            failures += 1
        rows.extend(finite_change_rows(
            (phase, state, els, beta, f"machine={label};stroke={stroke}")
            for phase, (state, (stroke, els, beta)) in enumerate(zip(m.stroke_states, frames))
        ))
    summary.section("exchange-relation branch")
    summary.kv("equal_W_applies", report.equal_W_applies)
    if report.equal_W_identity is not None:
        summary.kv("equal_W_identity_residual", report.equal_W_identity)
        if abs(report.equal_W_identity) > 1e-8:
            failures += 1
    summary.kv("equal_eta_applies", report.equal_eta_applies)
    if report.equal_eta_identity is not None:
        summary.kv("equal_eta_identity_residual", report.equal_eta_identity)
        if abs(report.equal_eta_identity) > 1e-8:
            failures += 1
    gain = abs(report.coherent.W) - abs(report.incoherent.W)
    summary.kv("work_gain_coherent", gain)
    summary.kv("Sigma_gain_coherent", report.coherent.Sigma - report.incoherent.Sigma)
    return ScenarioOutput(cfg.scenario, snapshot_rows_to_csv(rows), summary.text(), failures)


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
