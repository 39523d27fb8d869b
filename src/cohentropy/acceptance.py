"""The built-in acceptance suite: one callable check per criterion.

Each criterion evaluates a physics claim at a pinned tolerance and returns a
CriterionResult; `run_all` executes all of them against a shared context so
expensive artifacts (trajectories, seeded scans) are built once.  The CLI
`verify` command and the pytest acceptance module both run these functions.

A criterion name passed as ``perturb`` poisons that criterion's tolerance
(scaled by 1e-6), which must make it fail: a self-test that the harness can
detect regressions at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .collective import (
    SpinEnsembleSpec,
    analytic_steady_state,
    collective_coupling,
    delta_C_h_limit,
    entropy_production_ratio,
)
from .lindblad import asymptotic_state, build_generator, flat_bath
from .qcore import DensityMatrix, max_abs
from .scenarios import (
    OttoParams,
    ScenarioConfig,
    TimeGrid,
    build_collective_scenario,
    build_near_degenerate_scenario,
    build_otto_report,
    build_reversal_scenario,
    conservation_scan,
    run_reversal_scenario,
    run_thermal_operation_scenario,
    thermal_operation_systems,
)
from .spectrum import coherence_measures, thermal_state_of
from .thermo import (
    check_rates_by_finite_differences,
    complementarity_report,
    heat_flow,
)

N_SEEDS = 256


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    title: str
    passed: bool
    details: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid:2d}: {self.title} -- {self.details}"


class AcceptanceContext:
    """Shared, lazily built artifacts for the acceptance criteria."""

    def __init__(self, perturb: str | None = None):
        self.perturb = perturb

    def tol(self, cid: int, base: float) -> float:
        """Upper-bound tolerance; poisoned to -inf (unachievable) when perturbed."""
        if self.perturb is not None and self.perturb == str(cid):
            return -math.inf
        return base

    def threshold(self, cid: int, base: float) -> float:
        """Witness-strength threshold; poisoned to +inf when perturbed."""
        if self.perturb is not None and self.perturb == str(cid):
            return math.inf
        return base

    @cached_property
    def collective(self):
        return build_collective_scenario(n=2, beta_0=50.0, beta_B=1.0, gamma=0.1)

    @cached_property
    def generation(self):
        return build_collective_scenario(
            n=2, beta_0=2.0, beta_B=1.0, gamma=0.1,
            grid=TimeGrid(t_min=0.1, t_max=300.0, points=50, include_zero=True),
            provenance="coherence-generation",
        )

    @cached_property
    def reversal(self):
        return build_reversal_scenario()

    @cached_property
    def near_degenerate(self):
        return build_near_degenerate_scenario()

    @cached_property
    def otto(self):
        return build_otto_report(params=OttoParams())

    @cached_property
    def all_series(self):
        return [
            self.collective.series,
            self.generation.series,
            self.reversal.series,
            self.near_degenerate.series,
        ]

    @cached_property
    def thermal_systems(self):
        return thermal_operation_systems()


def criterion_1(ctx: AcceptanceContext) -> CriterionResult:
    """Decomposition closure at every snapshot of every scenario."""
    tol = ctx.tol(1, 1e-8)
    worst = 0.0
    count = 0
    for series in ctx.all_series:
        for s in series.snapshots:
            count += 1
            resid = abs(s.Pi_rate + s.rate_C_v + s.rate_C_h + s.rate_D_th)
            worst = max(worst, resid / max(1.0, abs(s.Pi_rate)))
    return CriterionResult(
        1, "decomposition closure Pi = -dC_v - dC_h - dD_th",
        worst <= tol, f"max residual {worst:.3e} over {count} snapshots (tol {tol:.1e})",
    )


def criterion_2(ctx: AcceptanceContext) -> CriterionResult:
    """Pi >= 0, -dC_v >= 0 and -dC_h - dD_th >= 0 everywhere."""
    tol = ctx.tol(2, 1e-8)
    worst = math.inf
    for series in ctx.all_series:
        for s in series.snapshots:
            worst = min(worst, s.Pi_rate, -s.rate_C_v, -s.rate_C_h - s.rate_D_th)
    return CriterionResult(
        2, "positivity of Pi, -dC_v/dt, -(dC_h + dD_th)/dt",
        worst >= -tol, f"most negative witness {worst:.3e} (floor {-tol:.1e})",
    )


def criterion_3(ctx: AcceptanceContext) -> CriterionResult:
    """Negative contributions exist: -dC_h/dt < 0 (generation) along the
    collective relaxation, and -dD_th/dt < 0 (population divergence) at the
    start of the heat-flow-reversal scenario."""
    thr = ctx.threshold(3, 1e-6)
    gen_contrib = min(-s.rate_C_h for s in ctx.collective.series.snapshots)
    rev_contrib = -ctx.reversal.initial_snapshot.rate_D_th
    ok = gen_contrib < -thr and rev_contrib < -thr
    return CriterionResult(
        3, "negativity witnesses for -dC_h/dt and -dD_th/dt",
        ok, f"min -dC_h/dt {gen_contrib:.3e} (collective), -dD_th/dt {rev_contrib:.3e} at t=0 (reversal)",
    )


def criterion_4(ctx: AcceptanceContext) -> CriterionResult:
    """Entropy-production ratio approaches n at large beta_B omega and drops
    to its infinite-temperature floor n ln2 / ln(n+1) at small beta_B omega.

    With the total production reconstructed as dS - beta_B dE the ratio is
    bounded below by 1 (the thermal state minimizes free energy), so the
    curve descends toward the unit line at small beta_B without crossing it;
    the binding check is the asymptote n.
    """
    rel = ctx.threshold(4, 0.05)
    if ctx.perturb == "4":
        rel = -1.0  # unachievable
    details = []
    ok = True
    for n in (2, 4, 10):
        spec = SpinEnsembleSpec(n, 0.5)
        _, _, top = entropy_production_ratio(spec, 50.0, 6.0)
        if abs(top - n) > rel * n:
            ok = False
        ratios = [entropy_production_ratio(spec, 50.0, x)[2] for x in np.geomspace(0.01, 6.0, 25)]
        floor = n * math.log(2.0) / math.log(n + 1.0)
        monotone = all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
        toward_floor = abs(ratios[0] - floor) < 0.05 * floor
        above_one = all(r >= 1.0 - 1e-9 for r in ratios)
        if not (monotone and toward_floor and above_one):
            ok = False
        details.append(f"n={n}: ratio(6)={top:.4f}, ratio(0.01)={ratios[0]:.4f}, floor={floor:.4f}")
    return CriterionResult(
        4, "entropy-production ratio reaches n (within 5%), descending to ~1 at small beta_B",
        ok, "; ".join(details),
    )


def criterion_5(ctx: AcceptanceContext) -> CriterionResult:
    """Lindblad asymptotic state matches the analytic block-thermal form."""
    tol = ctx.tol(5, 1e-6)
    spec = SpinEnsembleSpec(2, 0.5)
    system = collective_coupling(spec)
    els = system.level_structure()
    gen = build_generator([system.A_S], els, flat_bath(0.1, 1.0))
    worst = 0.0
    coh_ok = True
    for b0 in (50.0, -50.0, 2.0):
        asym = asymptotic_state(gen, thermal_state_of(els, b0))
        ana = analytic_steady_state(spec, b0, 1.0)
        worst = max(worst, max_abs(asym.elements - ana.elements))
        c_v, c_h = coherence_measures(ana, els)
        if c_v > 1e-10 or c_h <= 1e-6:
            coh_ok = False
    return CriterionResult(
        5, "asymptotic state matches the analytic steady state elementwise",
        worst <= tol and coh_ok,
        f"max elementwise deviation {worst:.3e} (tol {tol:.1e}); C_v = 0, C_h > 0 "
        f"{'confirmed' if coh_ok else 'violated'}",
    )


def criterion_6(ctx: AcceptanceContext) -> CriterionResult:
    """Closed-form horizontal-coherence change in the large |beta_0| regime."""
    tol = ctx.tol(6, 1e-3)
    worst = 0.0
    for n in (2, 3):
        spec = SpinEnsembleSpec(n, 0.5)
        system = collective_coupling(spec)
        els = system.level_structure()
        gen = build_generator([system.A_S], els, flat_bath(0.1, 1.0))
        closed = delta_C_h_limit(spec, 1.0)
        for b0 in (50.0, -50.0):
            asym = asymptotic_state(gen, thermal_state_of(els, b0))
            _, c_h = coherence_measures(asym, els)
            worst = max(worst, abs(-c_h - closed))
    hand = abs(delta_C_h_limit(SpinEnsembleSpec(2, 0.5), 0.0) + math.log(2.0) / 3.0)
    ok = worst <= tol and hand <= 1e-9
    return CriterionResult(
        6, "closed-form -dC_h(inf) matches simulation; n=2 beta_B=0 equals -(1/3)ln 2",
        ok, f"max |simulated - closed| {worst:.3e} (tol {tol:.1e}); hand-value residual {hand:.3e}",
    )


def criterion_7(ctx: AcceptanceContext) -> CriterionResult:
    """Heat-flow identity on random states; T(w) = 1/beta_0 without horizontal coherences."""
    tol = ctx.tol(7, 1e-8)
    t_tol = ctx.tol(7, 1e-9)
    rng = np.random.default_rng(77)
    worst_flow = 0.0
    worst_t = 0.0
    systems = []
    spec2 = SpinEnsembleSpec(2, 0.5)
    system2 = collective_coupling(spec2)
    els2 = system2.level_structure()
    systems.append((els2, build_generator([system2.A_S], els2, flat_bath(0.1, 1.0))))
    from .qcore import HermitianObservable
    from .spectrum import build_level_structure
    els_q = build_level_structure(HermitianObservable(np.diag([0.0, 1.0])))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    systems.append((els_q, build_generator([HermitianObservable(sx)], els_q, flat_bath(0.1, 1.0))))
    for els, gen in systems:
        dim = els.dim
        for _ in range(100):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = g @ g.conj().T
            rho = DensityMatrix(m / m.trace().real, els.basis_labels)
            rep = heat_flow(gen, rho)
            worst_flow = max(worst_flow, abs(rep.direct - rep.spectral))
        # thermal populations plus vertical coherences only
        beta0 = 0.7
        base = thermal_state_of(els, beta0)
        chi = np.zeros((dim, dim), dtype=complex)
        level = els.level_of_index
        for i in range(dim):
            for j in range(i + 1, dim):
                if level[i] != level[j]:
                    chi[i, j] = 0.05 * rng.standard_normal() + 0.05j * rng.standard_normal()
        chi = chi + chi.conj().T
        chi = els.basis_vectors @ chi @ els.basis_vectors.conj().T
        rho_v = DensityMatrix(base.elements + 0.05 * chi, base.basis_labels)
        for ch in heat_flow(gen, rho_v).channels:
            if ch.T_apparent is not None:
                worst_t = max(worst_t, abs(ch.T_apparent - 1.0 / beta0))
    ok = worst_flow <= tol and worst_t <= t_tol
    return CriterionResult(
        7, "heat-flow spectral identity and apparent temperature 1/beta_0",
        ok, f"max |direct - spectral| {worst_flow:.3e} (tol {tol:.1e}); "
            f"max |T(w) - 1/beta_0| {worst_t:.3e} (tol {t_tol:.1e})",
    )


def criterion_8(ctx: AcceptanceContext) -> CriterionResult:
    """Complementarity checks on the reversal and generation scenarios."""
    tol = ctx.tol(8, 1e-8)
    problems = []
    rev = complementarity_report(ctx.reversal.series, tol=tol)
    gen = complementarity_report(ctx.generation.series, tol=tol)
    for name, rep, want_active in (("reversal", rev, "reversal"), ("generation", gen, "generation")):
        if not rep.applicable:
            problems.append(f"{name}: inapplicable")
            continue
        if not all(e.sum_nonneg_ok for e in rep.entries):
            problems.append(f"{name}: (i) fails")
        if not all(e.energy_identity_ok for e in rep.entries):
            problems.append(f"{name}: (ii) fails")
        if not all(e.reversal_bound_ok for e in rep.entries if e.reversal_active):
            problems.append(f"{name}: (iii) fails")
        if not all(e.generation_bound_ok for e in rep.entries if e.generation_active):
            problems.append(f"{name}: (iv) fails")
        if rep.initial_rate_ok is not True:
            problems.append(f"{name}: (v) fails")
        active = any(
            e.reversal_active if want_active == "reversal" else e.generation_active
            for e in rep.entries
        )
        if not active:
            problems.append(f"{name}: expected active branch never triggered")
    n_rev = sum(e.reversal_active for e in rev.entries)
    n_gen = sum(e.generation_active for e in gen.entries)
    return CriterionResult(
        8, "complementarity suite (i)-(v) incl. strict consumption during reversal",
        not problems,
        problems and "; ".join(problems) or
        f"all pass; reversal-active {n_rev}, generation-active {n_gen} entries",
    )


def criterion_9(ctx: AcceptanceContext) -> CriterionResult:
    """Conservation checks (a)-(g) over the seeded unitary family."""
    tol = ctx.tol(9, 1e-9)
    failures = 0
    total = 0
    for name, sys_ in ctx.thermal_systems:
        rho_b = thermal_state_of(sys_.els_B, 1.3)
        for rep in conservation_scan(sys_, range(N_SEEDS), rho_b, 1.3, beta_0=0.7, tol=tol):
            total += 1
            if not rep.all_pass:
                failures += 1
    return CriterionResult(
        9, "conservation laws (a)-(g) over 256 seeded energy-conserving unitaries",
        failures == 0, f"{total - failures}/{total} reports fully pass (tol {tol:.1e})",
    )


def criterion_10(ctx: AcceptanceContext) -> CriterionResult:
    """No vertical generation from incoherent inputs; horizontal generation occurs."""
    tol = ctx.tol(10, 1e-9)
    max_cv = 0.0
    max_ch = 0.0
    for name, sys_ in ctx.thermal_systems:
        rho_b = thermal_state_of(sys_.els_B, 1.3)
        for rep in conservation_scan(sys_, range(N_SEEDS), rho_b, 1.3):
            max_cv = max(max_cv, rep.S_final.C_v)
            max_ch = max(max_ch, rep.S_final.C_h)
    ok = max_cv <= tol and max_ch > ctx.threshold(10, 1e-6)
    return CriterionResult(
        10, "no vertical-coherence generation; horizontal generation witnessed",
        ok, f"max final C_v^S {max_cv:.3e} (tol {tol:.1e}); max final C_h^S {max_ch:.3e}",
    )


def criterion_11(ctx: AcceptanceContext) -> CriterionResult:
    """Analytic rates against centered finite differences at 20 random points."""
    rng = np.random.default_rng(11)
    series = ctx.reversal.series
    interior = list(range(1, len(series.snapshots) - 1))
    picks = sorted(rng.choice(interior, size=20, replace=False))
    points = [(series.snapshots[k].t, series.states[k], series.snapshots[k]) for k in picks]
    rel = -1.0 if ctx.perturb == "11" else None
    failures = check_rates_by_finite_differences(
        ctx.reversal.gen, points, raise_on_failure=False, rel_tol=rel
    )
    return CriterionResult(
        11, "analytic rates match centered finite differences (rel 1e-4)",
        not failures, failures and "; ".join(failures[:3]) or "20/20 points agree",
    )


def criterion_12(ctx: AcceptanceContext) -> CriterionResult:
    """Near-degenerate clustered trajectory tracks the exactly-degenerate one."""
    tol = ctx.tol(12, 1e-3)
    dist = ctx.near_degenerate.max_trace_distance
    horizon = 0.1 / 1e-3
    return CriterionResult(
        12, "near-degenerate mode reproduces the degenerate trajectory",
        dist <= tol, f"max trace distance {dist:.3e} for t <= {horizon:g} (tol {tol:.1e})",
    )


def criterion_13(ctx: AcceptanceContext) -> CriterionResult:
    """Otto relations: closed-cycle second law and the applicable exchange identity."""
    tol = ctx.tol(13, 1e-8)
    rep = ctx.otto
    problems = []
    for label, m in (("incoherent", rep.incoherent), ("coherent", rep.coherent)):
        if abs(m.second_law_residual) > tol:
            problems.append(f"{label}: second law residual {m.second_law_residual:.3e}")
    if rep.equal_eta_applies:
        if rep.equal_eta_identity is None or abs(rep.equal_eta_identity) > tol:
            problems.append(f"equal-eta identity residual {rep.equal_eta_identity}")
    elif rep.equal_W_applies:
        if rep.equal_W_identity is None or abs(rep.equal_W_identity) > tol:
            problems.append(f"equal-W identity residual {rep.equal_W_identity}")
    else:
        problems.append("neither exchange-relation branch applies")
    gain = abs(rep.coherent.W) - abs(rep.incoherent.W)
    sigma_gain = rep.coherent.Sigma - rep.incoherent.Sigma
    if not (rep.equal_eta_applies and gain > 1e-6 and sigma_gain > 1e-6):
        problems.append(f"witness point fails: work gain {gain:.3e}, Sigma gain {sigma_gain:.3e}")
    return CriterionResult(
        13, "Otto second law, exchange identity, and |W*| > |W| with Sigma* > Sigma",
        not problems,
        problems and "; ".join(problems) or
        f"eta = eta* = {rep.incoherent.eta:.6f}, work gain {gain:.6f}, Sigma gain {sigma_gain:.6f}",
    )


def criterion_14(ctx: AcceptanceContext) -> CriterionResult:
    """Byte-identical outputs on repeated runs with identical seeds."""
    def bundle(seed: int) -> str:
        cfg_rev = ScenarioConfig(scenario="heat-flow-reversal", beta_0=1.1, beta_B=1.0)
        out_rev = run_reversal_scenario(cfg_rev)
        cfg_ops = ScenarioConfig(
            scenario="thermal-operation", beta_0=0.7, beta_B=1.3, seeds=32, seed=seed
        )
        out_ops = run_thermal_operation_scenario(cfg_ops)
        return out_rev.csv_text + out_rev.summary_text + out_ops.csv_text + out_ops.summary_text

    first = bundle(0)
    # a perturbed run must be caught: the second bundle uses a shifted seed
    second = bundle(5000 if ctx.perturb == "14" else 0)
    same = first == second
    return CriterionResult(
        14, "deterministic outputs for fixed configuration and seeds",
        same, f"two runs produced {'identical' if same else 'DIFFERENT'} bytes "
              f"({len(first)} bytes compared)",
    )


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4, 5: criterion_5,
    6: criterion_6, 7: criterion_7, 8: criterion_8, 9: criterion_9, 10: criterion_10,
    11: criterion_11, 12: criterion_12, 13: criterion_13, 14: criterion_14,
}


def run_criterion(ctx: AcceptanceContext, cid: int) -> CriterionResult:
    return CRITERIA[cid](ctx)


def run_all(perturb: str | None = None) -> list[CriterionResult]:
    ctx = AcceptanceContext(perturb=perturb)
    return [run_criterion(ctx, cid) for cid in sorted(CRITERIA)]
