"""Named experiment scenarios: builders, serialization, and one config per scenario.

Each scenario's config declares only the fields its run reads, checks them,
states the scenario's time span once and runs it.  Parsing is strict: a key
the chosen scenario does not read is an error anywhere, so typos in physics
parameters cannot silently fall back to defaults and no knob does nothing.
All outputs are deterministic for fixed configuration and seeds; floats are
serialized with 17 significant digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Sequence, get_args

import numpy as np

from .collective import (
    SpinEnsembleSpec,
    collective_coupling,
    delta_C_h_limit,
    entropy_production_ratio,
    local_couplings,
)
from .exceptions import CohentropyError, ConfigError, InvariantViolation, WitnessNotFound
from .lindblad import (
    LindbladGenerator,
    build_generator,
    evolve,
    flat_bath,
)
from .qcore import (
    DensityMatrix,
    HermitianObservable,
    Verdict,
    boltzmann_weights,
    checked_states,
    chunks,
    dagger,
    trace_distance,
)
from .spectrum import (
    HORIZON_FACTOR,
    EnergyLevelStructure,
    build_level_structure,
    state_functionals,
    thermal_state_of,
)
from .thermalops import (
    WITNESS_THRESHOLD,
    BipartiteSystem,
    OperationRow,
    conservation_report,
    divergence_witness,
    horizontal_pattern,
    incoherent_input_verdicts,
    operation_rows,
    sample_energy_conserving_unitaries,
)
from .thermo import (
    ComplementarityReport,
    RATE_COLUMNS,
    ThermoSeries,
    ThermoSnapshot,
    complementarity_report,
    decompose_series,
    heat_flow,
    otto_cycle,
    rate_rows,
)

CSV_HEADER = "t,S,C_v,C_h,D_th,E_S,F_D,Pi_rate,Phi_rate,rate_C_v,rate_C_h,rate_D_th,flags"
# The twelve float fields of a snapshot, t to rate_D_th, then its flags and the line end:
# "%.17g" % x is format(x, ".17g"), the bytes of ``fmt``, for every float.
CSV_ROW = ",".join(["%.17g"] * 12) + ",%s\n"
LINDBLAD_DIM_BUDGET = 64
RATIO_RELATIVE_TOL = 0.05  # the entropy-production ratio against its limits
TRACE_DISTANCE_TOL = 1e-3  # clustered against exactly-degenerate near-degenerate run
MAX_GRID_POINTS = 10**12  # far inside numpy's index range, which np.geomspace overflows
PREPARED_COHERENCE_FRACTION = 0.45  # prepared coherences' spectral radius / least thermal weight


def fmt(x: float) -> str:
    """17 significant digits, '.' decimal separator, locale independent."""
    return format(float(x), ".17g")


def _check_ceiling(name: str, points: int) -> None:
    if points > MAX_GRID_POINTS:
        raise ConfigError(f"{name} must be at most {MAX_GRID_POINTS}, got {points}")


def geometric_times(
    t_min: float, t_max: float, points: int, include_zero: bool = False, names=("t_min", "t_max")
) -> list[float]:
    """``points`` geometric times in [t_min, t_max], optionally after t = 0.

    The one builder of a scenario's time span: a span that is empty or not
    finite, a point count above MAX_GRID_POINTS, or a span too narrow for its
    points to increase strictly is a ConfigError, whose message calls the two
    ends ``names``."""
    lo, hi = names
    if not (0 < t_min < t_max < math.inf):
        raise ConfigError(
            f"the time span needs 0 < {lo} < {hi} < inf, got {lo} = {t_min:g}, {hi} = {t_max:g}"
        )
    _check_ceiling("time_grid.points", points)
    ts = np.geomspace(t_min, t_max, points)
    if not (np.diff(ts) > 0).all():
        raise ConfigError(
            f"the time span {lo} = {t_min:.17g} to {hi} = {t_max:.17g} is too narrow "
            f"for {points} strictly increasing times"
        )
    return ([0.0] + list(ts)) if include_zero else list(ts)


@dataclass(frozen=True)
class GridSpec:
    """A config's time grid: only the number of points; each scenario sets its span."""

    points: int = 60

    def __post_init__(self):
        if self.points < 3:
            raise ConfigError("time_grid requires points >= 3")


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


_SECTIONS = {cls.__name__: cls for cls in (GridSpec, SweepSpec, OttoParams)}
_NUMBER_TYPES = {"int": (int,), "float": (int, float), "float | None": (int, float, type(None))}


def _check_number(name: str, kind: str, value: Any) -> None:
    """An int field takes an int, a float field a finite number; bools are neither."""
    allowed = _NUMBER_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, allowed):
        noun = "an integer" if kind == "int" else "a number"
        raise ConfigError(f"{name} must be {noun}, got {json.dumps(value)}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")


def _build(cls, data: Any, path: str):
    """``cls`` from ``data``: unknown keys, int fields that are not integers and
    float fields that are not finite numbers (booleans count as neither) raise
    ConfigError.  Sections are declared last, so every scalar is checked first."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must be an object")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown keys at {path}: {sorted(unknown)}")
    values = {}
    for f in fields(cls):
        if f.name in data:
            name = f.name if path == "<root>" else f"{path}.{f.name}"
            if f.type in _SECTIONS:
                values[f.name] = _build(_SECTIONS[f.type], data[f.name], name)
            else:
                _check_number(name, f.type, data[f.name])
                values[f.name] = data[f.name]
    return cls(**values)


def parse_config(raw: Any) -> AnyConfig:
    """The config of the scenario ``raw["scenario"]`` (default collective-spins),
    built strictly: a key that scenario does not read is an unknown key."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    data = dict(raw)
    name = data.pop("scenario", CollectiveConfig.scenario)
    if not isinstance(name, str) or name not in CONFIGS:
        raise ConfigError(f"unknown scenario {name!r}; choose from {tuple(CONFIGS)}")
    return _build(CONFIGS[name], data, "<root>")


def read_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc


def config_from_json(text: str) -> AnyConfig:
    return parse_config(read_json(text))


# ---------------------------------------------------------------------------
# Builders shared by the CLI and the acceptance suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollectiveScenario:
    spec: SpinEnsembleSpec
    els: EnergyLevelStructure
    gen: LindbladGenerator
    series: ThermoSeries


def build_collective_scenario(
    cfg: CollectiveConfig, times: Sequence[float] | None = None
) -> CollectiveScenario:
    """The collective relaxation from thermal(beta_0), at ``times`` or the config's own."""
    times = cfg.times() if times is None else times
    spec = SpinEnsembleSpec(cfg.n, cfg.s, cfg.omega)
    system = collective_coupling(spec)
    els = system.level_structure()
    gen = build_generator([system.A_S], els, flat_bath(cfg.gamma, cfg.beta_B))
    series = decompose_series(gen, thermal_state_of(els, cfg.beta_0), times)
    return CollectiveScenario(spec=spec, els=els, gen=gen, series=series)


@dataclass(frozen=True)
class ReversalScenario:
    els: EnergyLevelStructure
    gen: LindbladGenerator
    rho0: DensityMatrix
    series: ThermoSeries
    amplitude: float
    amplitude_max: float
    weighted_E_dot: float  # (beta_0 - beta_B) dE/dt at t = 0; negative when heat flow reverses

    def verdicts(self) -> list[Verdict]:
        w = self.weighted_E_dot
        return [Verdict("heat_flow_reversed", w, 0.0, w < 0)]


def build_reversal_scenario(cfg: ReversalConfig) -> ReversalScenario:
    """Two resonant qubits, collective coupling, rho0 = thermal(beta_0) + c chi.

    chi = |01><10| + h.c. in the one-excitation doublet.  When no amplitude is
    given, c is scanned upward over 19 fractions of c_max, measured by one
    ``rate_rows`` pass, and the first at which the initial heat flow reverses,
    (beta_0 - beta_B) dE/dt < 0, is taken.
    """
    times = cfg.times()
    beta_0, beta_B = cfg.beta_0, cfg.beta_B
    spec = SpinEnsembleSpec(2, 0.5, cfg.omega)
    system = collective_coupling(spec)
    els = system.level_structure()
    gen = build_generator([system.A_S], els, flat_bath(cfg.gamma, beta_B))
    base = thermal_state_of(els, beta_0)
    pattern = horizontal_pattern(els)
    # chi has eigenvalues +-1, so c < lambda_min(base), its smallest Boltzmann weight,
    # keeps rho positive; not the largest such amplitude (0.187 vs 0.0624 at beta_0 = 1.1)
    c_max = float(boltzmann_weights(els.index_energies, beta_0).min())
    amplitude = cfg.coherence_amplitude
    if amplitude is None:
        amplitudes = np.linspace(0.05, 0.95, 19) * c_max
        candidates = base.elements + amplitudes[:, None, None] * pattern.elements
        e_dot = rate_rows(gen, candidates)[0][:, RATE_COLUMNS.index("E_dot")]
        reversing = amplitudes[(beta_0 - beta_B) * e_dot < -1e-12]
        if not len(reversing):
            raise CohentropyError("no reversing coherence amplitude found in scan")
        amplitude = reversing[0]
    elif amplitude >= c_max:
        raise ConfigError(
            f"coherence_amplitude {amplitude} must be below lambda_min(rho_th) = {c_max:.6g}"
        )
    rho0 = DensityMatrix(base.elements + amplitude * pattern.elements)
    series = decompose_series(gen, rho0, times)
    return ReversalScenario(
        els=els,
        gen=gen,
        rho0=rho0,
        series=series,
        amplitude=float(amplitude),
        amplitude_max=float(c_max),
        weighted_E_dot=(beta_0 - beta_B) * series.snapshots[0].E_dot,
    )


@dataclass(frozen=True)
class NearDegenerateScenario:
    gen_exact: LindbladGenerator
    gen_clustered: LindbladGenerator
    series: ThermoSeries
    max_trace_distance: float

    @property
    def horizon(self) -> float:
        return self.series.snapshots[-1].t

    def verdicts(self, tol: float = TRACE_DISTANCE_TOL) -> list[Verdict]:
        d = self.max_trace_distance
        return [Verdict("within_tolerance", d, tol, d <= tol)]


def build_near_degenerate_scenario(cfg: NearDegenerateConfig) -> NearDegenerateScenario:
    """Two qubits with splitting mismatch delta, clustered at delta, against
    the exactly-degenerate twin, for times up to the 0.1/delta horizon."""
    times = cfg.times()
    omega, delta = cfg.omega, cfg.mismatch
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    eye = np.eye(2)
    n1 = np.diag([0.0, 1.0])
    h_exact = HermitianObservable(omega * (np.kron(n1, eye) + np.kron(eye, n1)))
    h_mismatch = HermitianObservable(
        omega * np.kron(n1, eye) + (omega + delta) * np.kron(eye, n1)
    )
    a_s = HermitianObservable(np.kron(sx, eye) + np.kron(eye, sx))
    els_exact = build_level_structure(h_exact)
    bath = flat_bath(cfg.gamma, cfg.beta_B)
    gen_exact = build_generator([a_s], els_exact, bath)
    gen_clustered = build_generator([a_s], build_level_structure(h_mismatch, delta=delta), bath)
    rho0 = thermal_state_of(els_exact, cfg.beta_0)
    traj_exact = evolve(gen_exact, rho0, times)
    series = decompose_series(gen_clustered, rho0, times)
    return NearDegenerateScenario(
        gen_exact=gen_exact,
        gen_clustered=gen_clustered,
        series=series,
        max_trace_distance=float(np.max(trace_distance(traj_exact, series.states))),
    )


def thermal_operation_systems(omega: float = 1.0) -> list[tuple[str, BipartiteSystem]]:
    """The two seeded-unitary test systems.

    'qubit*qubit' pairs two resonant qubits; 'qutrit*qubit' takes a degenerate
    qutrit S (levels 0, w, w) against a qubit B, the smallest S with
    horizontal coherences.
    """
    els_qubit = build_level_structure(HermitianObservable(np.diag([0.0, omega])))
    els_qutrit = build_level_structure(HermitianObservable(np.diag([0.0, omega, omega])))
    return [
        ("qubit*qubit", BipartiteSystem.build(els_qubit, els_qubit)),
        ("qutrit*qubit", BipartiteSystem.build(els_qutrit, els_qubit)),
    ]


def coherent_prepared_states(
    els: EnergyLevelStructure, beta_0: float, seeds: Sequence[int]
) -> np.ndarray:
    """Thermal diagonal at beta_0 plus random coherences, positivity-safe, for each seed:
    the real and then the imaginary part of a Gaussian matrix from default_rng(seed),
    Hermitian with its diagonal removed, scaled to PREPARED_COHERENCE_FRACTION of the least
    thermal weight by its spectral radius.  One stacked eigvalsh takes the radii and one
    validates the states, returned as a checked (T, d, d) stack."""
    dim = els.dim
    g = np.array([np.random.default_rng(seed).standard_normal((2, dim, dim)) for seed in seeds])
    x = g[:, 0] + 1j * g[:, 1]
    x = 0.5 * (x + dagger(x))
    x[:, np.arange(dim), np.arange(dim)] = 0.0
    lam_min = float(boltzmann_weights(els.index_energies, beta_0).min())
    spread = np.max(np.abs(np.linalg.eigvalsh(x)), axis=-1)
    scale = PREPARED_COHERENCE_FRACTION * lam_min / np.where(spread == 0.0, 1.0, spread)
    base = thermal_state_of(els, beta_0).elements
    return checked_states(base + scale[:, None, None] * x)


def diagonal_prepared_states(els: EnergyLevelStructure, seeds: Sequence[int]) -> np.ndarray:
    """Diagonal states of populations default_rng(seed).random() + 0.05, normalized, for each
    seed: a (T, d, d) stack checked by one stacked eigvalsh."""
    p = np.array([np.random.default_rng(seed).random(els.dim) for seed in seeds]) + 0.05
    pops = (p / p.sum(axis=-1, keepdims=True))[:, :, None] * np.eye(els.dim)
    return checked_states(pops)


def conservation_scan(
    sys_: BipartiteSystem,
    seeds: Sequence[int],
    rho_B: DensityMatrix,
    beta_B: float,
    beta_0: float | None = None,
) -> list[OperationRow]:
    """The OperationRow of the energy-conserving unitary of each seed, by stacked passes.

    rho_S is the coherent_prepared_states state at beta_0 (seeded 10000 + seed) or, when
    beta_0 is None, the incoherent diagonal_prepared_states state (seeded 20000 + seed).
    Each ``chunks`` chunk of seeds is one pass: its states and unitaries are drawn and
    checked as stacks and measured by ``operation_rows``.  A check that fails on one seed
    raises an InvariantViolation whose ``index`` is that seed's position in ``seeds``.
    """
    seeds = list(seeds)
    rows: list[OperationRow] = []
    for part in chunks(len(seeds), sys_.joint.dim):
        try:
            if beta_0 is None:
                rho_s = diagonal_prepared_states(sys_.els_S, [20_000 + s for s in seeds[part]])
            else:
                prep = [10_000 + s for s in seeds[part]]
                rho_s = coherent_prepared_states(sys_.els_S, beta_0, prep)
            unitaries = sample_energy_conserving_unitaries(sys_, seeds[part])
            rows += operation_rows(sys_, unitaries, rho_s, rho_B, beta_B)
        except InvariantViolation as exc:
            if hasattr(exc, "index"):
                exc.index += part.start
            raise
    return rows


def build_otto_report(cfg: OttoConfig):
    params = cfg.otto
    spec = SpinEnsembleSpec(2, 0.5, cfg.omega)
    system = collective_coupling(spec)
    prep = thermal_state_of(system.level_structure(), params.prep_beta)
    return otto_cycle(
        system.H_S, params.lam,
        flat_bath(cfg.gamma, params.beta_cold), flat_bath(cfg.gamma, params.beta_hot),
        [system.A_S], local_couplings(spec), params.stroke_time, prep,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def series_to_csv(snapshots: Sequence[ThermoSnapshot]) -> str:
    """The CSV of every scenario: one row per snapshot, in the standard header."""
    rows = (CSV_ROW % (*s[:12], ";".join(s.flags)) for s in snapshots)
    return "".join([CSV_HEADER + "\n", *rows])  # one join: no second copy of the text


def ratio_verdict(n: int, ratio: float, tol: float = RATIO_RELATIVE_TOL) -> Verdict:
    """The entropy-production ratio at large beta_B omega lies within tol * n of n."""
    return Verdict("ratio_within_5_percent", ratio, tol * n, abs(ratio - n) <= tol * n)


def finite_change_rows(frames) -> list[ThermoSnapshot]:
    """Snapshots of the state functionals at (t, state, els, beta, flag) frames, each state a
    (d, d) array; the rate columns and E_dot hold the finite changes from the previous
    frame (zero on the first)."""
    rows: list[ThermoSnapshot] = []
    for t, state, els, beta, flag in frames:
        f = state_functionals(state, els, beta)
        if rows:
            p = rows[-1]
            d_cv, d_ch, d_dth, d_e = f.C_v - p.C_v, f.C_h - p.C_h, f.D_th - p.D_th, f.E_S - p.E_S
            pi, phi = -(d_cv + d_ch + d_dth), beta * d_e
        else:
            d_cv = d_ch = d_dth = d_e = pi = phi = 0.0
        rows.append(ThermoSnapshot(
            float(t), f.S, f.C_v, f.C_h, f.D_th, f.E_S, f.F_D, pi, phi, d_cv, d_ch, d_dth,
            E_dot=d_e, flags=(flag,),
        ))
    return rows


# ---------------------------------------------------------------------------
# One config per scenario: the fields its run reads, their checks, its time
# span and the run itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioOutput:
    """In-memory result of one scenario run: serialized files plus a verdict."""

    csv_text: str
    summary_text: str
    invariant_failures: int


class _Summary:
    """Deterministic key/value + table text accumulator that counts the failing
    verdicts it judges.  It opens with the scenario's title and the named
    parameters ``keys`` of ``params``."""

    def __init__(self, scenario: str, params, keys: Sequence[str]):
        self.lines: list[str] = [f"# {scenario}", ""]
        self.failures = 0
        self.kvs(params, keys)

    def kv(self, key: str, value) -> None:
        if isinstance(value, float):
            value = fmt(value)
        self.lines.append(f"{key}: {value}")

    def kvs(self, obj, keys: Sequence[str]) -> None:
        for key in keys:
            self.kv(key, getattr(obj, key))

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
        self.section("invariants")
        self.kv("snapshots", len(series.snapshots))
        for v in series.verdicts():  # each valued by its count of failing snapshots
            self.kv(f"{v.name}_failures", v.value)
            self.failures += v.value

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
        self.kv("reversal_active_entries", int(report.reversal_active.sum()))
        self.kv("generation_active_entries", int(report.generation_active.sum()))

    def output(self, csv_text: str) -> ScenarioOutput:
        text = "\n".join(self.lines) + "\n"
        return ScenarioOutput(csv_text, text, self.failures)


def _require_positive(cfg, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be positive")


@dataclass(frozen=True)
class CollectiveConfig:
    """n collectively dissipating spins s: horizontal-coherence generation and
    the entropy-production ratio."""

    scenario: ClassVar[str] = "collective-spins"
    n: int = 2
    s: float = 0.5
    omega: float = 1.0
    beta_0: float = 50.0
    beta_B: float = 1.0
    gamma: float = 0.1
    time_grid: GridSpec = field(default_factory=GridSpec)
    sweep: SweepSpec = field(default_factory=SweepSpec)

    def __post_init__(self):
        _require_positive(self, "omega", "gamma")
        if self.n < 1 or self.s <= 0 or round(2 * self.s) != 2 * self.s:
            raise ConfigError("need n >= 1 and positive half-integer s")
        dim = int(round(2 * self.s + 1)) ** self.n
        if dim > LINDBLAD_DIM_BUDGET:
            raise ConfigError(f"(2s+1)^n = {dim} exceeds the Lindblad budget {LINDBLAD_DIM_BUDGET}")

    def times(self) -> list[float]:
        return geometric_times(0.01 / self.gamma, 30.0 / self.gamma, self.time_grid.points)

    def run(self) -> ScenarioOutput:
        scen = build_collective_scenario(self)
        summary = _Summary(self.scenario, self, ("n", "s", "omega", "beta_0", "beta_B", "gamma"))
        summary.invariants(scen.series)

        summary.section("horizontal-coherence generation")
        summary.kv("C_h_final", scen.series.snapshots[-1].C_h)
        summary.kv("C_h_limit_closed_form", -delta_C_h_limit(scen.spec, self.beta_B))
        summary.kv("max_rate_C_h", max(s.rate_C_h for s in scen.series.snapshots))

        summary.section("entropy-production ratio sweep")
        rows = [
            (x, *entropy_production_ratio(scen.spec, self.beta_0, x / self.omega))
            for x in self.sweep.values()
        ]
        summary.table(("beta_B_omega", "Pi_th", "Pi_col", "ratio"), rows)
        top_ratio = rows[-1][-1]
        summary.kv("ratio_at_top", top_ratio)
        summary.kv("ratio_target_n", self.n)
        summary.judge(ratio_verdict(self.n, top_ratio))
        return summary.output(series_to_csv(scen.series.snapshots))


@dataclass(frozen=True)
class ReversalConfig:
    """Two resonant qubits whose horizontal coherence reverses the initial heat flow."""

    scenario: ClassVar[str] = "heat-flow-reversal"
    omega: float = 1.0
    beta_0: float = 1.1
    beta_B: float = 1.0
    gamma: float = 0.1
    coherence_amplitude: float | None = None
    time_grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self):
        _require_positive(self, "omega", "gamma")
        if self.coherence_amplitude is not None and self.coherence_amplitude < 0:
            raise ConfigError("coherence_amplitude must be nonnegative")

    def times(self) -> list[float]:
        return geometric_times(
            0.01 / self.gamma, 20.0 / self.gamma, self.time_grid.points, include_zero=True
        )

    def run(self) -> ScenarioOutput:
        scen = build_reversal_scenario(self)
        summary = _Summary(self.scenario, self, ("omega", "beta_0", "beta_B", "gamma"))
        summary.kv("coherence_amplitude", scen.amplitude)
        summary.kv("coherence_amplitude_max", scen.amplitude_max)
        summary.invariants(scen.series)

        summary.section("initial heat flow")
        first = scen.series.snapshots[0]
        summary.kv("E_dot_initial", first.E_dot)
        summary.kv("weighted_E_dot", scen.weighted_E_dot)
        for v in scen.verdicts():
            summary.judge(v, "yes" if v.passed else "no")
        summary.kv("rate_D_th_initial", first.rate_D_th)
        hf = heat_flow(scen.gen, scen.rho0)
        for ch in hf.channels:
            summary.kv(f"apparent_temperature_omega_{fmt(ch.omega)}",
                       "undefined" if ch.T_apparent is None else fmt(ch.T_apparent))
        summary.complementarity(complementarity_report(scen.series))
        return summary.output(series_to_csv(scen.series.snapshots))


@dataclass(frozen=True)
class ThermalOperationConfig:
    """The conservation laws over seeds seed, ..., seed + seeds - 1."""

    scenario: ClassVar[str] = "thermal-operation"
    omega: float = 1.0
    beta_0: float = 50.0
    beta_B: float = 1.0
    seeds: int = 256
    seed: int = 0

    def __post_init__(self):
        _require_positive(self, "omega", "seeds")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")

    def run(self) -> ScenarioOutput:
        summary = _Summary(self.scenario, self, ("seeds", "beta_0", "beta_B"))
        witness_rows = []
        seeds = range(self.seed, self.seed + self.seeds)
        for name, sys_ in thermal_operation_systems(self.omega):
            summary.section(f"conservation laws: {name}")
            rho_b = thermal_state_of(sys_.els_B, self.beta_B)
            rows = conservation_scan(sys_, seeds, rho_b, self.beta_B, beta_0=self.beta_0)
            for column in zip(*map(conservation_report, rows)):
                bad = summary.tally(column)
                summary.kv(column[0].name, f"{len(column) - bad}/{len(column)} pass")

            finals = [r.S_final for r in conservation_scan(sys_, seeds, rho_b, self.beta_B)]
            cv, ch = incoherent_input_verdicts(finals)
            summary.judge(cv, cv.value)
            if not sys_.els_S.is_degenerate():
                summary.kv(ch.name, ch.value)
                continue
            summary.judge(ch, ch.value)
            summary.section(f"population-divergence witness: {name}")
            try:
                wit = divergence_witness(sys_, seeds, self.beta_B)
            except WitnessNotFound as exc:
                missing = Verdict("witness", math.nan, WITNESS_THRESHOLD, False)
                summary.judge(missing, f"not found ({exc})")
                continue
            keys = ("seed", "coherence_amplitude", "delta_D_th_S", "delta_C_h_S", "delta_E_S")
            summary.kvs(wit, keys)
            witness_rows = finite_change_rows(
                (t, state, sys_.els_S, self.beta_B, "finite-operation")
                for t, state in ((0.0, wit.rho_S.elements), (1.0, wit.row.rho_S_final))
            )
        return summary.output(series_to_csv(witness_rows))


@dataclass(frozen=True)
class NearDegenerateConfig:
    """Two qubits with splitting mismatch delta against their exactly-degenerate twin."""

    scenario: ClassVar[str] = "near-degenerate"
    omega: float = 1.0
    delta: float = 0.0  # 0 means 1e-3 * omega
    beta_0: float = 50.0
    beta_B: float = 1.0
    gamma: float = 0.1
    time_grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self):
        _require_positive(self, "omega", "gamma")
        if self.delta < 0:
            raise ConfigError("delta must be nonnegative")

    @property
    def mismatch(self) -> float:
        return self.delta if self.delta > 0 else 1e-3 * self.omega

    def times(self) -> list[float]:
        """Up to the HORIZON_FACTOR/delta horizon of the clustering."""
        return geometric_times(
            0.01 / self.gamma, HORIZON_FACTOR / self.mismatch, self.time_grid.points,
            names=("0.01/gamma", "0.1/delta"),
        )

    def run(self) -> ScenarioOutput:
        scen = build_near_degenerate_scenario(self)
        summary = _Summary(self.scenario, self, ("omega", "beta_0", "beta_B", "gamma"))
        summary.kv("delta", self.mismatch)
        summary.kv("horizon", scen.horizon)
        summary.invariants(scen.series)
        summary.section("clustered vs exactly-degenerate twin")
        summary.kv("max_trace_distance", scen.max_trace_distance)
        for v in scen.verdicts():
            summary.judge(v)
        return summary.output(series_to_csv(scen.series.snapshots))


@dataclass(frozen=True)
class OttoConfig:
    """Coherent (collective) against incoherent (local) Otto machines on two spins."""

    scenario: ClassVar[str] = "otto-cycle"
    omega: float = 1.0
    gamma: float = 0.1
    otto: OttoParams = field(default_factory=OttoParams)

    def __post_init__(self):
        _require_positive(self, "omega", "gamma")

    def run(self) -> ScenarioOutput:
        report = build_otto_report(self)
        keys = ("lam", "beta_cold", "beta_hot", "stroke_time", "prep_beta")
        summary = _Summary(self.scenario, self.otto, keys)
        frames = (
            ("start", report.els_cold, self.otto.beta_cold),
            ("after-cold-isochore", report.els_cold, self.otto.beta_cold),
            ("after-hot-isochore", report.els_hot, self.otto.beta_hot),
        )
        verdicts = report.verdicts()
        machines = (("incoherent", report.incoherent), ("coherent", report.coherent))
        rows = []
        for (label, m), law in zip(machines, verdicts):
            summary.section(f"machine: {label}")
            summary.kvs(m, ("Q_c", "Q_h", "W"))
            summary.kv("eta", "undefined" if m.eta is None else fmt(m.eta))
            summary.kv("Sigma", m.Sigma)
            summary.judge(law, law.value)
            summary.kv("cycles_to_limit", m.cycles)
            if m.flags:
                summary.kv("flags", ";".join(m.flags))
            rows.extend(finite_change_rows(
                (phase, state.elements, els, beta, f"machine={label};stroke={stroke}")
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
        return summary.output(series_to_csv(rows))


AnyConfig = (
    CollectiveConfig | ReversalConfig | ThermalOperationConfig | NearDegenerateConfig | OttoConfig
)
CONFIGS = {cls.scenario: cls for cls in get_args(AnyConfig)}


def run_scenario_config(cfg: AnyConfig) -> ScenarioOutput:
    return cfg.run()


