"""Entropy production, its three-way decomposition, heat flow, complementarity.

All rates are analytic, computed from a single evaluation of L rho through
the integrand identities

    Pi      = -Tr drho [ln rho   - ln rho_th]
    dC_v/dt =  Tr drho [ln rho   - ln rho_BD]
    dC_h/dt =  Tr drho [ln rho_BD - ln rho_D]
    dD_th/dt = Tr drho [ln rho_D - ln rho_th]

so the closure Pi = -dC_v/dt - dC_h/dt - dD_th/dt telescopes exactly.
Each Tr drho ln X is read off X's own eigenbasis as sum_k <u_k|drho|u_k> ln lambda_k,
from the decompositions the state functionals take anyway (the populations' basis for
rho_D and rho_th), so no log matrix is formed.
Centered finite differences of the state functionals are used only as
cross-checks.  Rate fields store the plain time derivatives; the negated
quantities (-dC_h/dt etc.) are the signed contributions to Pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exceptions import (
    IdentityViolation,
    InvariantViolation,
    NonConvergence,
    NumericalFailure,
    ShapeMismatch,
)
from .lindblad import BathSpectrum, LindbladGenerator, build_generator, evolve
from .qcore import (
    CLIP_FLOOR,
    DensityMatrix,
    HermitianObservable,
    Verdict,
    _as_square_complex,
    boltzmann_weights,
    chunks,
    diagonal_relative_entropy,
    log_boltzmann_weights,
    log_of_spectrum,
    max_abs,
    trace_distance,
)
from .spectrum import (
    EnergyLevelStructure,
    build_level_structure,
    spectral_pass,
    state_functionals,
)

RATE_POSITIVITY_TOL = 1e-8
CLOSURE_TOL = 1e-8
FD_RELATIVE_TOL = 1e-4
HEAT_FLOW_TOL = 1e-8
COMPLEMENTARITY_TOL = 1e-8  # slack of the complementarity checks (i)-(v)
THERMAL_FIT_TOL = 1e-9  # largest population deviation of a start read as thermal
CYCLE_RESIDUAL_TOL = 1e-8  # Otto closed-cycle second law and exchange identities
MAX_CYCLES = 200  # Otto cycles run before a machine without a limit cycle is rejected
CYCLE_TOL = 1e-10  # trace distance between successive cycle starts read as the limit cycle
ISOCHORE_RESIDUAL_TOL = 1e-8  # largest ||L rho|| of a state read as relaxed after an isochore

FLAG_PI_DIVERGENT = "pi-divergent"
FLAG_UNDEFINED_TEMPERATURE = "undefined-temperature"
FLAG_NOT_APPLICABLE = "not-applicable"


class ThermoSnapshot(NamedTuple):
    """State functionals and analytic rates at one instant."""

    t: float
    S: float
    C_v: float
    C_h: float
    D_th: float
    E_S: float
    F_D: float
    Pi_rate: float
    Phi_rate: float
    rate_C_v: float
    rate_C_h: float
    rate_D_th: float
    E_dot: float  # heat flow Tr(drho H); Phi = beta_B * E_dot
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class ThermoSeries:
    """Time-ordered snapshots along one trajectory, with the (T, d, d) stack of its states;
    their float fields are judged from one table."""

    snapshots: tuple[ThermoSnapshot, ...]
    els: EnergyLevelStructure
    beta_B: float
    states: np.ndarray

    def __post_init__(self):
        t = self.column("t")
        if (t[1:] <= t[:-1]).any():
            raise InvariantViolation("snapshot times must be strictly increasing")

    @cached_property
    def table(self) -> np.ndarray:
        """The float fields of every snapshot, t to E_dot, as one (T, 13) array built once."""
        width = len(ThermoSnapshot._fields) - 1
        return np.array([s[:-1] for s in self.snapshots], dtype=float).reshape(-1, width)

    def column(self, name: str) -> np.ndarray:
        """The float field ``name`` of every snapshot, a (T,) view of the table."""
        return self.table[:, ThermoSnapshot._fields.index(name)]

    def judged(self) -> tuple[np.ndarray, np.ndarray]:
        """The closure residual |Pi + dC_v/dt + dC_h/dt + dD_th/dt| / max(1, |Pi|) and the
        least of Pi, -dC_v/dt and -(dC_h + dD_th)/dt (of equal values the first, as min()
        takes it) of each judged snapshot: Pi finite, so not pi-divergent."""
        keep = np.isfinite(self.column("Pi_rate"))
        pi, c_v, c_h, d_th = (
            self.column(name)[keep] for name in ("Pi_rate", "rate_C_v", "rate_C_h", "rate_D_th")
        )
        least = np.where(-c_v < pi, -c_v, pi)
        return (
            np.abs(pi + c_v + c_h + d_th) / np.maximum(1.0, np.abs(pi)),
            np.where(-c_h - d_th < least, -c_h - d_th, least),
        )

    def verdicts(
        self, closure_tol: float = CLOSURE_TOL, positivity_tol: float = RATE_POSITIVITY_TOL
    ) -> list[Verdict]:
        """The closure residual at most ``closure_tol`` and the least contribution at least
        -``positivity_tol`` at every judged snapshot, each valued by its count of failing
        snapshots."""
        closure, least = self.judged()
        checks = (("closure", closure <= closure_tol), ("positivity", least >= -positivity_tol))
        return [Verdict(name, int(np.sum(~oks)), 0, bool(oks.all())) for name, oks in checks]


# The columns of ``rate_rows``, in order.
RATE_COLUMNS = ("S", "C_v", "C_h", "D_th", "E_S", "F_D", "Pi", "rate_C_v", "rate_C_h",
                "rate_D_th", "E_dot")


def rate_rows(gen: LindbladGenerator, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """State functionals, analytic rates and heat flow E_dot = Tr(L rho H) of each state of
    a (T, d, d) stack, as the (T, 11) array of the RATE_COLUMNS, and the (T,) mask of the
    states whose drift L rho has weight on their null space.  Computed by ``chunks``: per
    chunk one ``spectral_pass``, which checks the states, takes their labeled drift from
    ``gen.labeled_drift`` and reads its overlaps off its eigenbases; the mark reads that same
    drift, mapped to the input basis where the null projector lives, only on chunks that
    have a null space.  A state's row is bitwise the one it gets alone."""
    els, beta_b = gen.els, gen.bath.beta_B
    table = np.empty((len(states), len(RATE_COLUMNS)))
    divergent = np.zeros(len(states), dtype=bool)
    for part in chunks(len(states), gen.dim):
        m = states[part]
        *functionals, null, flows, r_dot = spectral_pass(m, els, beta_b, gen.labeled_drift)
        on_rho, on_bd, on_d, on_th, e_dot = flows.T
        table[part] = np.column_stack((
            *functionals, -(on_rho - on_th), on_rho - on_bd, on_bd - on_d, on_d - on_th, e_dot
        ))
        if null.any():  # zeros when every state of the chunk has full rank
            rho_dot = els.basis_vectors @ r_dot @ els.basis_vectors.conj().T
            leak = np.max(np.abs(null @ rho_dot @ null), axis=(-2, -1)) > 1e-12
            divergent[part] = (np.max(np.abs(null), axis=(-2, -1)) > 0.5) & leak
    return table, divergent


def instantaneous_rates(
    beta_b: float, row: Sequence[float], divergent: bool, t: float
) -> ThermoSnapshot:
    """The snapshot at time t, at bath inverse temperature ``beta_b``, assembled from a
    state's row of the RATE_COLUMNS and its divergence mark.  Closure and Pi >= 0 are not
    judged here but by ``ThermoSeries.verdicts``.

    Logs are taken on the support of a numerically singular state; when the drift L rho
    additionally has weight on the null space the production rate is divergent and
    reported as +inf with a warning flag.
    """
    s, c_v, c_h, d_th, e_s, f_d, pi, rate_c_v, rate_c_h, rate_d_th, e_dot = row
    flags: tuple[str, ...] = ()
    if divergent:
        flags = (FLAG_PI_DIVERGENT,)
        pi = float("inf")
    if beta_b == 0.0:
        flags += (FLAG_NOT_APPLICABLE,)
    return ThermoSnapshot(
        float(t), s, c_v, c_h, d_th, e_s, f_d, pi, beta_b * e_dot,
        rate_c_v, rate_c_h, rate_d_th, e_dot, flags,
    )


def decompose_series(
    gen: LindbladGenerator,
    rho0: DensityMatrix,
    times: Sequence[float],
) -> ThermoSeries:
    """Evolve rho0 and emit snapshots; cross-check rates by finite differences.

    The rates of the whole trajectory come from one ``rate_rows`` pass; each
    snapshot is assembled from its row by ``instantaneous_rates``.
    Rates are cross-validated at the ``finite_difference_picks`` by
    ``check_rates_by_finite_differences``.
    """
    if not len(times):
        raise ShapeMismatch("decompose_series: the time list is empty")
    states = evolve(gen, rho0, times)
    table, divergent = rate_rows(gen, states)
    beta_b = gen.bath.beta_B
    rows, divergent = table.tolist(), divergent.tolist()
    snapshots = tuple(
        instantaneous_rates(beta_b, row, div, t) for row, div, t in zip(rows, divergent, times)
    )
    series = ThermoSeries(snapshots=snapshots, els=gen.els, beta_B=beta_b, states=states)
    if len(states) >= 3:
        picks = finite_difference_picks(divergent)
        check_rates_by_finite_differences(gen, [(times[k], states[k], snapshots[k]) for k in picks])
    return series


FD_MINEIG_FLOOR = 1e-6
FD_IDENTITIES = ("dS/dt = Pi + Phi", "dC_v/dt", "dC_h/dt", "dD_th/dt")  # the rates checked


def finite_difference_picks(divergent: Sequence[bool]) -> list[int]:
    """The snapshots a trajectory of at least three is cross-checked at: about 12 of the
    interior ones that are not pi-divergent, evenly strided."""
    usable = [k for k in range(1, len(divergent) - 1) if not divergent[k]]
    return usable[:: max(1, (len(divergent) - 2) // 12)]


def check_rates_by_finite_differences(
    gen: LindbladGenerator,
    points: Sequence[tuple[float, np.ndarray, ThermoSnapshot]],
    raise_on_failure: bool = True,
    rel_tol: float = FD_RELATIVE_TOL,
) -> list[str]:
    """``finite_difference_check`` of the (t, state, snapshot) points of a trajectory of
    ``gen``, each state a (d, d) array, with ||L|| = ``gen.norm_inf``.

    One stacked eigvalsh takes the lowest eigenvalue of every point's state; each kept
    point's states at t +- h/2 and t +- h come from one ``gen.propagate`` call, and the
    kernel takes them a ``chunks`` chunk of points at a time (four (d, d) states are the
    entries of one (2d, 2d) matrix), so the stack never outgrows a chunk.
    """
    d = gen.dim

    def lowest(kept):
        return np.linalg.eigvalsh(np.array([state for _, state, _ in kept]))[:, 0]

    def shifted(kept, steps):
        for part in chunks(len(kept), 2 * d):
            stack = np.array([
                _resymm(x.reshape(d, d))
                for _, state, _ in kept[part]
                for x in gen.propagate(state.reshape(-1), steps)
            ])
            f = state_functionals(stack, gen.els, gen.bath.beta_B)
            yield part, np.stack((f.S, f.C_v, f.C_h, f.D_th)).reshape(4, -1, 4).transpose(1, 0, 2)

    return finite_difference_check(points, gen.norm_inf, lowest, shifted, raise_on_failure, rel_tol)


def finite_difference_check(
    points: Sequence[tuple[float, np.ndarray, ThermoSnapshot]],
    norm: float,
    lowest: Callable,
    shifted: Callable,
    raise_on_failure: bool = True,
    rel_tol: float = FD_RELATIVE_TOL,
) -> list[str]:
    """Compare analytic rates with finite differences of the state functionals at each
    (t, state, snapshot) point of a trajectory whose generator has norm ``norm``: the one
    rule of every trajectory path.

    The estimate is the Richardson extrapolation (4 D(h/2) - D(h)) / 3 of the
    centered differences D at h ||L|| = 1e-3, so its error is O(h^4), judged to
    ``rel_tol`` with an absolute slack of 1e-9 max(1, ||L||).  Points at t <= h, and
    points whose state has an eigenvalue below FD_MINEIG_FLOOR (there the functionals are
    dominated by log-singular transients no fixed-step difference can resolve), are
    skipped.  ``lowest(points)`` gives the lowest eigenvalue of each point's state, and
    ``shifted(points, steps)`` yields (slice of points, [point][functional][shift] array)
    pairs of S, C_v, C_h and D_th at t + each of the steps (-h, -h/2, h/2, h).
    Returns the list of failing identity descriptions (empty when all pass).
    """
    h = 1e-3 / max(norm, 1e-12)
    atol = 1e-9 * max(1.0, norm)

    points = [p for p in points if p[0] > h]
    if points:
        lam_min = lowest(points)
        points = [p for p, lam in zip(points, lam_min.tolist()) if lam >= FD_MINEIG_FLOOR]
    failures: list[str] = []
    for part, shifts in shifted(points, (-h, -0.5 * h, 0.5 * h, h)):
        for (t, _, snap), columns in zip(points[part], shifts.tolist()):
            analytic = (snap.Pi_rate + snap.Phi_rate, snap.rate_C_v, snap.rate_C_h, snap.rate_D_th)
            for key, an, (b2, b1, f1, f2) in zip(FD_IDENTITIES, analytic, columns):
                fd = (4 * (f1 - b1) / h - (f2 - b2) / (2 * h)) / 3
                if abs(fd - an) > rel_tol * max(abs(fd), abs(an)) + atol:
                    failures.append(
                        f"{key} at t = {t:.6g}: analytic {an:.6e}, finite difference {fd:.6e}"
                    )
    if failures and raise_on_failure:
        raise IdentityViolation("; ".join(failures))
    return failures


class FrequencyChannel(NamedTuple):
    """Per-frequency heat-flow record of the spectral decomposition."""

    omega: float
    T_apparent: float | None
    contribution: float
    flags: tuple[str, ...] = ()


class HeatFlowReport(NamedTuple):
    direct: float
    spectral: float
    channels: tuple[FrequencyChannel, ...]


def heat_flow(gen: LindbladGenerator, rho: DensityMatrix) -> HeatFlowReport:
    """Heat flow Tr(L rho H) and its apparent-temperature spectral form.

    The spectral form sums w G(w) <A A^dag> (e^(-w beta_B) - e^(-w/T(w)))
    over positive frequencies, with T(w) = w / ln(<A A^dag> / <A^dag A>).
    Channels where either expectation collapses below the clip floor carry an
    undefined-temperature flag; their contribution falls back to the direct
    rate expression w G(w) (<A A^dag> e^(-w beta_B) - <A^dag A>), which is the
    same quantity written without the temperature.
    """
    if gen.jumps is None:
        raise ShapeMismatch("heat_flow requires a generator with a single jump-operator set")
    h = gen.els.hamiltonian().elements
    direct = float(np.trace(gen.apply(rho.elements) @ h).real)
    channels: list[FrequencyChannel] = []
    beta_b = gen.bath.beta_B
    r = gen.els.to_labeled(rho.elements)  # the jump operators' basis
    for w, a in gen.jumps.positive():
        g = gen.bath.G(w)
        down = float(np.trace(r @ (a @ a.conj().T)).real)
        up = float(np.trace(r @ (a.conj().T @ a)).real)
        contribution = w * g * (down * math.exp(-w * beta_b) - up)
        if min(down, up) <= CLIP_FLOOR:
            channels.append(FrequencyChannel(w, None, contribution, (FLAG_UNDEFINED_TEMPERATURE,)))
            continue
        log_ratio = math.log(down / up)
        t_apparent = w / log_ratio if log_ratio != 0.0 else float("inf")
        channels.append(FrequencyChannel(w, t_apparent, contribution))
    spectral = float(sum(c.contribution for c in channels))
    if abs(direct - spectral) > HEAT_FLOW_TOL * max(1.0, abs(direct), abs(spectral)):
        raise InvariantViolation(
            f"heat-flow forms disagree: direct {direct:.6e}, spectral {spectral:.6e}"
        )
    return HeatFlowReport(direct=direct, spectral=spectral, channels=tuple(channels))


class ComplementarityReport(NamedTuple):
    """Checks (i)-(v) of the coherence/convergence complementarity.  Each array holds one
    entry per snapshot pair (0, t), t > 0; the entries of (ii)-(iv) read the thermal start
    and are nan, or inactive, when the report is not applicable."""

    applicable: bool
    beta_0: float | None
    fit_residual: float
    minus_dCh: np.ndarray                 # -Delta C_h since the initial snapshot
    minus_dDth: np.ndarray                # -Delta D_th
    weighted_dE: np.ndarray               # (beta_0 - beta_B) * Delta E_S
    backtrack: np.ndarray                 # S(rho_t|D | rho_0|D)
    energy_identity_residual: np.ndarray
    sum_nonneg_ok: np.ndarray             # (i)   -dC_h - dD_th >= 0
    energy_identity_ok: np.ndarray        # (ii)  -dD_th = weighted_dE - backtrack
    reversal_active: np.ndarray           # (iii) applies where weighted_dE < 0
    reversal_bound_ok: np.ndarray         #       -dC_h >= -weighted_dE, read where active
    generation_active: np.ndarray         # (iv)  applies where dC_h > tol
    generation_bound_ok: np.ndarray       #       weighted_dE >= dC_h, read where active
    initial_rate_ok: bool | None  # (v) -dC_h/dt + (beta_0 - beta_B) E_dot >= 0 at t0, if applicable
    flags: tuple[str, ...] = ()

    def verdicts(self) -> list[Verdict]:
        """Checks (i)-(v), each valued by its count of failing entries (none when the
        report is not applicable); complementarity_report judged the entries at its tol."""
        if not self.applicable:
            return []
        checks = (
            ("i_sum_nonnegative", self.sum_nonneg_ok),
            ("ii_energy_identity", self.energy_identity_ok),
            ("iii_reversal_bound", self.reversal_bound_ok[self.reversal_active]),
            ("iv_generation_bound", self.generation_bound_ok[self.generation_active]),
            ("v_initial_rate", np.array([self.initial_rate_ok])),
        )
        return [Verdict(name, int(np.sum(~oks)), 0, bool(oks.all())) for name, oks in checks]


def fit_inverse_temperature(pops: np.ndarray, els: EnergyLevelStructure) -> tuple[float, float]:
    """Least-squares beta from ln p against level energies; residual is the
    max deviation of the populations from the refitted Boltzmann weights."""
    energies = els.index_energies
    usable = pops > 1e-290
    if usable.sum() < 2:
        return float("nan"), float("inf")
    logs = np.log(pops[usable])
    a = np.vstack([np.ones(usable.sum()), -energies[usable]]).T
    coef, *_ = np.linalg.lstsq(a, logs, rcond=None)
    beta0 = float(coef[1])
    return beta0, float(np.max(np.abs(pops - boltzmann_weights(energies, beta0))))


def complementarity_report(
    series: ThermoSeries, tol: float = COMPLEMENTARITY_TOL
) -> ComplementarityReport:
    """Evaluate the complementarity inequalities between horizontal coherences
    and population convergence on every snapshot pair (0, t).

    Everything here reads the populations p_t = diag(V^dag rho_t V) of the
    diagonal cut.  Entries based on the thermal-populations identity require
    p_0 to be thermal to ``THERMAL_FIT_TOL``; otherwise the report is marked
    not-applicable (only the convention-free check (i) is still evaluated).
    The backtrack S(p_t|p_0) takes ln p_0 as the exact log Boltzmann weights
    at the fitted beta_0, so it stays finite however cold the start.
    """
    els = series.els
    first = series.snapshots[0]
    pops = np.concatenate([
        els.to_labeled(series.states[part]).diagonal(0, 1, 2).real
        for part in chunks(len(series.states), els.dim)
    ])
    beta0, residual = fit_inverse_temperature(pops[0], els)
    applicable = math.isfinite(beta0) and residual <= THERMAL_FIT_TOL
    flags = () if applicable else (FLAG_NOT_APPLICABLE,)
    c_h, d_th, e_s = (series.column(name) for name in ("C_h", "D_th", "E_S"))
    minus_dch, minus_ddth = -(c_h[1:] - c_h[0]), -(d_th[1:] - d_th[0])
    backtrack = weighted = np.full(len(pops) - 1, np.nan)  # (ii)-(iv) read the thermal start
    initial_rate_ok: bool | None = None
    if applicable:
        log0 = log_boltzmann_weights(els.index_energies, beta0)
        backtrack = diagonal_relative_entropy(pops[1:], log_of_spectrum(pops[1:]), log0)
        weighted = (beta0 - series.beta_B) * (e_s[1:] - e_s[0])
        initial_rate_ok = -first.rate_C_h + (beta0 - series.beta_B) * first.E_dot >= -tol
    resid = minus_ddth - (weighted - backtrack)
    return ComplementarityReport(
        applicable=applicable,
        beta_0=beta0 if applicable else None,
        fit_residual=residual,
        minus_dCh=minus_dch,
        minus_dDth=minus_ddth,
        weighted_dE=weighted,
        backtrack=backtrack,
        energy_identity_residual=resid,
        sum_nonneg_ok=minus_dch + minus_ddth >= -tol,
        energy_identity_ok=np.abs(resid) <= tol,
        reversal_active=weighted < 0.0,
        reversal_bound_ok=minus_dch >= -weighted - tol,
        generation_active=applicable & (-minus_dch > tol),
        generation_bound_ok=weighted >= -minus_dch - tol,
        initial_rate_ok=initial_rate_ok,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# Otto cycle: incoherent vs coherent working-medium dissipation
# ---------------------------------------------------------------------------

FLAG_MODE_MISMATCH = "mode-mismatch"


class OttoMachineResult(NamedTuple):
    """Per-cycle energetics of one machine at its limit cycle."""

    Q_c: float
    Q_h: float
    W: float
    eta: float | None
    Sigma: float
    second_law_residual: float
    cycles: int
    flags: tuple[str, ...] = ()
    stroke_states: tuple[DensityMatrix, ...] = ()


class OttoCycleReport(NamedTuple):
    """Limit-cycle comparison of the incoherent and coherent (starred) machines.

    ``equal_W_identity`` / ``equal_eta_identity`` hold the residuals of the
    two exchange relations, evaluated only on the branch that applies.
    ``els_cold`` / ``els_hot`` are the level structures of the two isochores.
    """

    incoherent: OttoMachineResult
    coherent: OttoMachineResult
    els_cold: EnergyLevelStructure
    els_hot: EnergyLevelStructure
    equal_W_applies: bool
    equal_W_identity: float | None
    equal_eta_applies: bool
    equal_eta_identity: float | None

    def verdicts(self, tol: float = CYCLE_RESIDUAL_TOL) -> list[Verdict]:
        """The second-law residual of each machine (incoherent first), then each
        exchange-identity residual that was evaluated."""
        residuals = [("second_law_residual", m.second_law_residual)
                     for m in (self.incoherent, self.coherent)]
        residuals += [(name, r) for name, r in (
            ("equal_W_identity_residual", self.equal_W_identity),
            ("equal_eta_identity_residual", self.equal_eta_identity),
        ) if r is not None]
        return [Verdict(name, r, tol, abs(r) <= tol) for name, r in residuals]


def _resymm(m: np.ndarray) -> np.ndarray:
    """Hermitian part of a propagated state at unit trace; rejects it before dividing if it is lost."""
    m = _as_square_complex(m)
    tr = m.trace().real
    if not tr > 0.0:
        raise InvariantViolation(f"propagated state has trace {tr:.3e}")
    m = 0.5 * (m + m.conj().T)
    return m / tr


def _run_machine(
    label: str,
    gen_cold: LindbladGenerator,
    gen_hot: LindbladGenerator,
    rho_start: DensityMatrix,
    stroke_time: float,
) -> OttoMachineResult:
    def relax(gen: LindbladGenerator, rho: DensityMatrix) -> DensityMatrix:
        (vec,) = gen.propagate(rho.elements.reshape(-1), (stroke_time,))
        if not np.isfinite(vec).all():
            isochore = "cold" if gen is gen_cold else "hot"
            raise NumericalFailure(
                f"{label}: {isochore} isochore: propagated state is not finite at t = {stroke_time}"
            )
        return DensityMatrix(_resymm(vec.reshape(rho.dim, rho.dim)))

    s0 = rho_start
    cycles = 0
    for cycles in range(1, MAX_CYCLES + 1):
        s1 = relax(gen_cold, s0)     # isochore at the cold bath (H_cold)
        s2 = relax(gen_hot, s1)      # adiabatic rescale, isochore at the hot bath
        if trace_distance(s2.elements[None], s0.elements[None])[0] < CYCLE_TOL:
            s0 = s2
            break
        s0 = s2
    else:
        raise NonConvergence(f"{label}: no limit cycle within {MAX_CYCLES} cycles")
    s1 = relax(gen_cold, s0)
    s2 = relax(gen_hot, s1)
    for gen, state, name in ((gen_cold, s1, "cold"), (gen_hot, s2, "hot")):
        resid = max_abs(gen.apply(state.elements))
        if resid > ISOCHORE_RESIDUAL_TOL:
            raise NonConvergence(
                f"{label}: {name} isochore residual ||L rho|| = {resid:.3e} "
                f"exceeds {ISOCHORE_RESIDUAL_TOL:.1e}; stroke_time too short"
            )
    h_cold, h_hot = gen_cold.els.hamiltonian().elements, gen_hot.els.hamiltonian().elements
    beta_c, beta_h = gen_cold.bath.beta_B, gen_hot.bath.beta_B
    q_c = float(np.trace(h_cold @ (s1.elements - s0.elements)).real)
    q_h = float(np.trace(h_hot @ (s2.elements - s1.elements)).real)
    w = -q_c - q_h
    # S is basis-free: the three stroke states share one kernel call in the cold structure
    stack = np.array([s0.elements, s1.elements, s2.elements])
    entropy = state_functionals(stack, gen_cold.els, beta_c).S.tolist()
    ds_cold, ds_hot = entropy[1] - entropy[0], entropy[2] - entropy[1]
    sigma = (ds_cold - beta_c * q_c) + (ds_hot - beta_h * q_h)
    second_law = sigma + beta_c * q_c + beta_h * q_h  # judged by OttoCycleReport.verdicts
    flags: tuple[str, ...] = ()
    if q_h > 0.0 and w <= 0.0:
        eta = abs(w) / q_h
    else:
        eta = None
        flags = (FLAG_MODE_MISMATCH,)
    return OttoMachineResult(
        Q_c=q_c,
        Q_h=q_h,
        W=w,
        eta=eta,
        Sigma=sigma,
        second_law_residual=second_law,
        cycles=cycles,
        flags=flags,
        stroke_states=(s0, s1, s2),
    )


def otto_cycle(
    H_cold: HermitianObservable,
    lam: float,
    bath_c: BathSpectrum,
    bath_h: BathSpectrum,
    coherent: Sequence[HermitianObservable],
    incoherent: Sequence[HermitianObservable],
    stroke_time: float,
    initial_state: DensityMatrix,
) -> OttoCycleReport:
    """Run both Otto machines to their limit cycle and compare energetics.

    The hot isochore runs at lam * H_cold.  Adiabatic strokes are exact
    spectral rescalings H -> lam H carrying the state unchanged, so they are
    entropy-free and work-only.  Each coupling is a sequence of observables,
    one independent dissipation channel per element; the incoherent machine
    is conventionally the per-subsystem local channels, the coherent one a
    single collective channel.  The limit cycle of the coherent machine
    depends on ``initial_state`` through the conserved collective-sector
    weights.  The report's level structures ``els_cold`` and ``els_hot`` are
    those of H_cold and lam * H_cold.  A propagated stroke state that is not
    finite raises NumericalFailure naming the machine, the isochore and t.
    """
    if not lam > 0.0:
        raise InvariantViolation(f"lam must be positive, got {lam}")
    els_c = build_level_structure(H_cold)
    els_h = build_level_structure(HermitianObservable(lam * H_cold.elements))
    results = {}
    for label, channels in (("incoherent", incoherent), ("coherent", coherent)):
        gen_cold = build_generator(channels, els_c, bath_c)
        gen_hot = build_generator(channels, els_h, bath_h)
        results[label] = _run_machine(label, gen_cold, gen_hot, initial_state, stroke_time)

    inc, coh = results["incoherent"], results["coherent"]
    equal_w = abs(coh.W - inc.W) < 1e-9
    equal_eta = (
        inc.eta is not None and coh.eta is not None and abs(coh.eta - inc.eta) < 1e-9
    )
    dq_h = coh.Q_h - inc.Q_h
    equal_w_resid = None
    if equal_w and inc.eta is not None and coh.eta is not None:
        equal_w_resid = (coh.eta - inc.eta) - dq_h * inc.W / (inc.Q_h * coh.Q_h)
    equal_eta_resid = None
    if equal_eta:
        equal_eta_resid = (abs(coh.W) - abs(inc.W)) - (1.0 + inc.Q_c / inc.Q_h) * dq_h
    return OttoCycleReport(
        incoherent=inc,
        coherent=coh,
        els_cold=els_c,
        els_hot=els_h,
        equal_W_applies=equal_w,
        equal_W_identity=equal_w_resid,
        equal_eta_applies=equal_eta,
        equal_eta_identity=equal_eta_resid,
    )
