"""Entropy production, its three-way decomposition, heat flow, complementarity.

All rates are analytic, computed from a single evaluation of L rho through
the integrand identities

    Pi      = -Tr drho [ln rho   - ln rho_th]
    dC_v/dt =  Tr drho [ln rho   - ln rho_BD]
    dC_h/dt =  Tr drho [ln rho_BD - ln rho_D]
    dD_th/dt = Tr drho [ln rho_D - ln rho_th]

so the closure Pi = -dC_v/dt - dC_h/dt - dD_th/dt telescopes exactly.
Centered finite differences of the state functionals are used only as
cross-checks.  Rate fields store the plain time derivatives; the negated
quantities (-dC_h/dt etc.) are the signed contributions to Pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import (
    IdentityViolation,
    InvariantViolation,
    NonConvergence,
    ShapeMismatch,
)
from .lindblad import BathSpectrum, LindbladGenerator, build_generator, evolve
from .qcore import (
    CLIP_FLOOR,
    DensityMatrix,
    HermitianObservable,
    _as_square_complex,
    boltzmann_weights,
    log_of_spectrum,
    max_abs,
    relative_entropy_from_logs,
    trace_distance,
    von_neumann_entropy,
)
from .spectrum import (
    EnergyLevelStructure,
    build_level_structure,
    state_functionals,
    thermal_state_of,
)

RATE_POSITIVITY_TOL = 1e-8
CLOSURE_TOL = 1e-8
FD_RELATIVE_TOL = 1e-4
HEAT_FLOW_TOL = 1e-8

FLAG_PI_DIVERGENT = "pi-divergent"
FLAG_UNDEFINED_TEMPERATURE = "undefined-temperature"
FLAG_NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class ThermoSnapshot:
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
    """Time-ordered snapshots along one trajectory, with the evolved states."""

    snapshots: tuple[ThermoSnapshot, ...]
    els: EnergyLevelStructure
    beta_B: float
    provenance: str = ""
    states: tuple[DensityMatrix, ...] = ()

    def __post_init__(self):
        ts = [s.t for s in self.snapshots]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise InvariantViolation("snapshot times must be strictly increasing")

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(s, name) for s in self.snapshots])


def instantaneous_rates(
    gen: LindbladGenerator, rho: DensityMatrix, t: float = 0.0
) -> ThermoSnapshot:
    """Entropy production and decomposition rates at the given state.

    If rho is numerically singular, logs are taken on its support; when the
    drift L rho additionally has weight on the null space the production rate
    is divergent and reported as +inf with a warning flag.
    """
    els = gen.els
    beta_b = gen.bath.beta_B
    f = state_functionals(rho, els, beta_b)
    rho_dot = gen.apply(rho)
    r_dot = els.to_labeled(rho_dot)

    def overlap(op: np.ndarray) -> float:
        return float(np.trace(r_dot @ op).real)

    rate_c_v = overlap(f.log_rho - f.log_bd)
    rate_c_h = overlap(f.log_bd - f.log_d)
    rate_d_th = overlap(f.log_d - f.log_th)
    pi = -overlap(f.log_rho - f.log_th)
    e_dot = float(np.trace(rho_dot @ els.hamiltonian().elements).real)

    flags: list[str] = []
    nullp = f.null @ f.null.conj().T
    if max_abs(nullp) > 0.5 and max_abs(nullp @ rho_dot @ nullp) > 1e-12:
        flags.append(FLAG_PI_DIVERGENT)
        pi_out = float("inf")
    else:
        pi_out = pi
        closure = abs(pi + rate_c_v + rate_c_h + rate_d_th)
        if closure > CLOSURE_TOL * max(1.0, abs(pi)):
            raise InvariantViolation(f"decomposition closure violated by {closure:.3e}")
        if pi < -RATE_POSITIVITY_TOL:
            raise InvariantViolation(f"negative entropy production {pi:.3e}")
    if beta_b == 0.0:
        flags.append(FLAG_NOT_APPLICABLE)

    return ThermoSnapshot(
        t=float(t),
        S=f.S,
        C_v=f.C_v,
        C_h=f.C_h,
        D_th=f.D_th,
        E_S=f.E_S,
        F_D=f.F_D,
        Pi_rate=pi_out,
        Phi_rate=beta_b * e_dot,
        rate_C_v=rate_c_v,
        rate_C_h=rate_c_h,
        rate_D_th=rate_d_th,
        E_dot=e_dot,
        flags=tuple(flags),
    )


def decompose_series(
    gen: LindbladGenerator,
    rho0: DensityMatrix,
    times: Sequence[float],
    provenance: str = "",
    cross_validate: bool = True,
) -> ThermoSeries:
    """Evolve rho0 and emit snapshots; cross-check rates by finite differences.

    Rates are cross-validated at interior points, to relative 1e-4, against
    the Richardson extrapolation of centered differences of the state
    functionals at steps h and h/2 with h ||L|| = 1e-3 (dedicated evaluations
    at t +- h/2 and t +- h, not grid neighbors).  Points where the state has
    eigenvalues below 1e-6 are skipped: there the functionals are dominated
    by log-singular transients no fixed-step difference can resolve.
    """
    states = evolve(gen, rho0, times)
    snapshots = [instantaneous_rates(gen, s, t) for t, s in zip(times, states)]
    series = ThermoSeries(
        snapshots=tuple(snapshots),
        els=gen.els,
        beta_B=gen.bath.beta_B,
        provenance=provenance,
        states=tuple(states),
    )
    if cross_validate and len(states) >= 3:
        interior = range(1, len(states) - 1)
        picks = [k for k in interior if not snapshots[k].flags][:: max(1, (len(states) - 2) // 12)]
        check_rates_by_finite_differences(gen, [(times[k], states[k], snapshots[k]) for k in picks])
    return series


FD_MINEIG_FLOOR = 1e-6


def check_rates_by_finite_differences(
    gen: LindbladGenerator,
    points: Sequence[tuple[float, DensityMatrix, ThermoSnapshot]],
    raise_on_failure: bool = True,
    rel_tol: float | None = None,
) -> list[str]:
    """Compare analytic rates with finite differences of the state functionals.

    The estimate is the Richardson extrapolation (4 D(h/2) - D(h)) / 3 of the
    centered differences D at h ||L|| = 1e-3, so its error is O(h^4); the
    states at t +- h/2 and t +- h come from one ``gen.propagate`` call.
    Returns the list of failing identity descriptions (empty when all pass).
    """
    rel = FD_RELATIVE_TOL if rel_tol is None else rel_tol
    norm = gen.norm_inf
    h = 1e-3 / max(norm, 1e-12)
    atol = 1e-9 * max(1.0, norm)
    d = gen.dim

    def functionals(vec: np.ndarray, labels) -> tuple[float, float, float, float]:
        state = DensityMatrix(_resymm(vec.reshape(d, d)), labels)
        f = state_functionals(state, gen.els, gen.bath.beta_B)
        return f.S, f.C_v, f.C_h, f.D_th

    failures: list[str] = []
    for t, state, snap in points:
        if t <= h:
            continue
        lam_min = float(np.linalg.eigvalsh(state.elements)[0])
        if lam_min < FD_MINEIG_FLOOR:
            continue
        shifted = gen.propagate(state.elements.reshape(-1), (-h, -0.5 * h, 0.5 * h, h))
        columns = zip(*(functionals(x, state.basis_labels) for x in shifted))
        analytic = {
            "dS/dt = Pi + Phi": snap.Pi_rate + snap.Phi_rate,
            "dC_v/dt": snap.rate_C_v,
            "dC_h/dt": snap.rate_C_h,
            "dD_th/dt": snap.rate_D_th,
        }
        for (key, an), (b2, b1, f1, f2) in zip(analytic.items(), columns):
            fd = (4 * (f1 - b1) / h - (f2 - b2) / (2 * h)) / 3
            tol = rel * max(abs(fd), abs(an)) + (atol if rel >= 0 else 0.0)
            if abs(fd - an) > tol:
                failures.append(
                    f"{key} at t = {t:.6g}: analytic {an:.6e}, finite difference {fd:.6e}"
                )
    if failures and raise_on_failure:
        raise IdentityViolation("; ".join(failures))
    return failures


@dataclass(frozen=True)
class FrequencyChannel:
    """Per-frequency heat-flow record of the spectral decomposition."""

    omega: float
    occupation_down: float  # <A(w) A(w)^dag>
    occupation_up: float    # <A(w)^dag A(w)>
    T_apparent: float | None
    contribution: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class HeatFlowReport:
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
    direct = float(np.trace(gen.apply(rho) @ h).real)
    channels: list[FrequencyChannel] = []
    beta_b = gen.bath.beta_B
    for w, a in gen.jumps.positive():
        g = gen.bath.G(w)
        down = float(np.trace(rho.elements @ (a @ a.conj().T)).real)
        up = float(np.trace(rho.elements @ (a.conj().T @ a)).real)
        contribution = w * g * (down * math.exp(-w * beta_b) - up)
        if min(down, up) <= CLIP_FLOOR:
            channels.append(
                FrequencyChannel(w, down, up, None, contribution, (FLAG_UNDEFINED_TEMPERATURE,))
            )
            continue
        log_ratio = math.log(down / up)
        t_apparent = w / log_ratio if log_ratio != 0.0 else float("inf")
        channels.append(FrequencyChannel(w, down, up, t_apparent, contribution))
    spectral = float(sum(c.contribution for c in channels))
    if abs(direct - spectral) > HEAT_FLOW_TOL * max(1.0, abs(direct), abs(spectral)):
        raise InvariantViolation(
            f"heat-flow forms disagree: direct {direct:.6e}, spectral {spectral:.6e}"
        )
    return HeatFlowReport(direct=direct, spectral=spectral, channels=tuple(channels))


@dataclass(frozen=True)
class ComplementarityEntry:
    """Checks (i)-(iv) of the coherence/convergence complementarity at one time."""

    t: float
    minus_dCh: float          # -Delta C_h since the initial snapshot
    minus_dDth: float         # -Delta D_th
    weighted_dE: float        # (beta_0 - beta_B) * Delta E_S
    backtrack: float          # S(rho_t|D | rho_0|D)
    sum_nonneg_ok: bool       # (i)   -dC_h - dD_th >= 0
    energy_identity_residual: float
    energy_identity_ok: bool  # (ii)  -dD_th = weighted_dE - backtrack
    reversal_active: bool     # (iii) applies when weighted_dE < 0
    reversal_bound_ok: bool | None
    generation_active: bool   # (iv)  applies when dC_h > 0
    generation_bound_ok: bool | None


@dataclass(frozen=True)
class ComplementarityReport:
    applicable: bool
    beta_0: float | None
    fit_residual: float
    entries: tuple[ComplementarityEntry, ...]
    initial_rate_ok: bool | None  # (v) -dC_h/dt + (beta_0 - beta_B) dE/dt >= 0 at t0
    flags: tuple[str, ...] = ()


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
    series: ThermoSeries, tol: float = 1e-8, fit_tol: float = 1e-9
) -> ComplementarityReport:
    """Evaluate the complementarity inequalities between horizontal coherences
    and population convergence on every snapshot pair (0, t).

    Everything here reads the populations p_t = diag(V^dag rho_t V) of the
    diagonal cut.  Entries based on the thermal-populations identity require
    p_0 to be thermal to ``fit_tol``; otherwise the report is marked
    not-applicable (only the convention-free check (i) is still evaluated).
    """
    if not series.states:
        raise InvariantViolation("series carries no states; rebuild with decompose_series")
    els = series.els
    first = series.snapshots[0]
    pops0 = els.to_labeled(series.states[0].elements).diagonal().real
    beta0, residual = fit_inverse_temperature(pops0, els)
    applicable = math.isfinite(beta0) and residual <= fit_tol
    flags = () if applicable else (FLAG_NOT_APPLICABLE,)
    log0 = np.diag(log_of_spectrum(pops0))
    null0 = np.eye(els.dim)[:, pops0 <= CLIP_FLOOR]

    entries: list[ComplementarityEntry] = []
    for snap, state in zip(series.snapshots[1:], series.states[1:]):
        minus_dch = -(snap.C_h - first.C_h)
        minus_ddth = -(snap.D_th - first.D_th)
        sum_ok = minus_dch + minus_ddth >= -tol
        if applicable:
            weighted = (beta0 - series.beta_B) * (snap.E_S - first.E_S)
            pops = els.to_labeled(state.elements).diagonal().real
            backtrack = relative_entropy_from_logs(
                np.diag(pops), np.diag(log_of_spectrum(pops)), log0, null0
            )
            resid = minus_ddth - (weighted - backtrack)
            energy_ok = abs(resid) <= tol
            reversal_active = weighted < 0.0
            reversal_ok = (minus_dch >= -weighted - tol) if reversal_active else None
            generation_active = -minus_dch > tol
            generation_ok = (weighted >= -minus_dch - tol) if generation_active else None
        else:
            weighted = float("nan")
            backtrack = float("nan")
            resid = float("nan")
            energy_ok = False
            reversal_active = False
            reversal_ok = None
            generation_active = False
            generation_ok = None
        entries.append(
            ComplementarityEntry(
                t=snap.t,
                minus_dCh=minus_dch,
                minus_dDth=minus_ddth,
                weighted_dE=weighted,
                backtrack=backtrack,
                sum_nonneg_ok=sum_ok,
                energy_identity_residual=resid,
                energy_identity_ok=energy_ok,
                reversal_active=reversal_active,
                reversal_bound_ok=reversal_ok,
                generation_active=generation_active,
                generation_bound_ok=generation_ok,
            )
        )

    initial_rate_ok: bool | None = None
    if applicable and series.beta_B != 0.0:
        e_dot0 = first.Phi_rate / series.beta_B
        initial_rate_ok = -first.rate_C_h + (beta0 - series.beta_B) * e_dot0 >= -tol
    return ComplementarityReport(
        applicable=applicable,
        beta_0=beta0 if applicable else None,
        fit_residual=residual,
        entries=tuple(entries),
        initial_rate_ok=initial_rate_ok,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# Otto cycle: incoherent vs coherent working-medium dissipation
# ---------------------------------------------------------------------------

FLAG_MODE_MISMATCH = "mode-mismatch"


@dataclass(frozen=True)
class OttoMachineResult:
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


@dataclass(frozen=True)
class OttoCycleReport:
    """Limit-cycle comparison of the incoherent and coherent (starred) machines.

    ``equal_W_identity`` / ``equal_eta_identity`` hold the residuals of the
    two exchange relations, evaluated only on the branch that applies.
    ``els_cold`` / ``els_hot`` are the level structures of the two isochores.
    """

    incoherent: OttoMachineResult
    coherent: OttoMachineResult
    lam: float
    els_cold: EnergyLevelStructure
    els_hot: EnergyLevelStructure
    equal_W_applies: bool
    equal_W_identity: float | None
    equal_eta_applies: bool
    equal_eta_identity: float | None


def _proportionality(H_cold: HermitianObservable, H_hot: HermitianObservable) -> float:
    hc, hh = H_cold.elements, H_hot.elements
    denom = float(np.trace(hc @ hc).real)
    if denom <= 0.0:
        raise InvariantViolation("H_cold must be nonzero")
    lam = float(np.trace(hh @ hc).real) / denom
    if lam <= 0.0 or max_abs(hh - lam * hc) > 1e-10 * max(1.0, max_abs(hh)):
        raise InvariantViolation("H_hot must be a positive rescaling of H_cold")
    return lam


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
    max_cycles: int,
    cycle_tol: float,
    residual_tol: float,
) -> OttoMachineResult:
    def relax(gen: LindbladGenerator, rho: DensityMatrix) -> DensityMatrix:
        (vec,) = gen.propagate(rho.elements.reshape(-1), (stroke_time,))
        return DensityMatrix(_resymm(vec.reshape(rho.dim, rho.dim)), rho.basis_labels)

    s0 = rho_start
    cycles = 0
    for cycles in range(1, max_cycles + 1):
        s1 = relax(gen_cold, s0)     # isochore at the cold bath (H_cold)
        s2 = relax(gen_hot, s1)      # adiabatic rescale, isochore at the hot bath
        if trace_distance(s2, s0) < cycle_tol:
            s0 = s2
            break
        s0 = s2
    else:
        raise NonConvergence(f"{label}: no limit cycle within {max_cycles} cycles")
    s1 = relax(gen_cold, s0)
    s2 = relax(gen_hot, s1)
    for gen, state, name in ((gen_cold, s1, "cold"), (gen_hot, s2, "hot")):
        resid = max_abs(gen.apply(state))
        if resid > residual_tol:
            raise NonConvergence(
                f"{label}: {name} isochore residual ||L rho|| = {resid:.3e} "
                f"exceeds {residual_tol:.1e}; stroke_time too short"
            )
    h_cold, h_hot = gen_cold.els.hamiltonian().elements, gen_hot.els.hamiltonian().elements
    beta_c, beta_h = gen_cold.bath.beta_B, gen_hot.bath.beta_B
    q_c = float(np.trace(h_cold @ (s1.elements - s0.elements)).real)
    q_h = float(np.trace(h_hot @ (s2.elements - s1.elements)).real)
    w = -q_c - q_h
    ds_cold = von_neumann_entropy(s1) - von_neumann_entropy(s0)
    ds_hot = von_neumann_entropy(s2) - von_neumann_entropy(s1)
    sigma = (ds_cold - beta_c * q_c) + (ds_hot - beta_h * q_h)
    second_law = sigma + beta_c * q_c + beta_h * q_h
    if abs(second_law) > 1e-8:
        raise NonConvergence(
            f"{label}: closed-cycle second law violated by {second_law:.3e}; "
            "the cycle has not closed"
        )
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
    H_hot: HermitianObservable,
    bath_c: BathSpectrum,
    bath_h: BathSpectrum,
    coupling_coherent: HermitianObservable | Sequence[HermitianObservable],
    coupling_incoherent: HermitianObservable | Sequence[HermitianObservable],
    stroke_time: float,
    initial_state: DensityMatrix | None = None,
    max_cycles: int = 200,
    cycle_tol: float = 1e-10,
    residual_tol: float = 1e-8,
) -> OttoCycleReport:
    """Run both Otto machines to their limit cycle and compare energetics.

    Adiabatic strokes are exact spectral rescalings H -> lam H carrying the
    state unchanged, so they are entropy-free and work-only.  Each coupling
    argument may be a single observable (one dissipation channel) or a
    sequence of observables (independent channels, one per element); the
    incoherent machine is conventionally the per-subsystem local channels,
    the coherent one a single collective channel.  The limit cycle of the
    coherent machine depends on the initial state through the conserved
    collective-sector weights; ``initial_state`` defaults to the cold thermal
    state, and the report's level structures carry its basis labels.
    """
    lam = _proportionality(H_cold, H_hot)
    labels = () if initial_state is None else initial_state.basis_labels
    els_c = build_level_structure(H_cold, labels=labels)
    els_h = build_level_structure(H_hot, labels=labels)
    if initial_state is None:
        initial_state = thermal_state_of(els_c, bath_c.beta_B)

    def channels(x) -> list[HermitianObservable]:
        return [x] if isinstance(x, HermitianObservable) else list(x)

    results = {}
    for label, coup in (("incoherent", coupling_incoherent), ("coherent", coupling_coherent)):
        gen_cold = build_generator(channels(coup), els_c, bath_c)
        gen_hot = build_generator(channels(coup), els_h, bath_h)
        results[label] = _run_machine(
            label,
            gen_cold,
            gen_hot,
            initial_state,
            stroke_time,
            max_cycles,
            cycle_tol,
            residual_tol,
        )

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
        lam=lam,
        els_cold=els_c,
        els_hot=els_h,
        equal_W_applies=equal_w,
        equal_W_identity=equal_w_resid,
        equal_eta_applies=equal_eta,
        equal_eta_identity=equal_eta_resid,
    )
