"""The built-in acceptance suite: one callable check per criterion.

Each criterion evaluates a physics claim and returns a CriterionResult;
`run_all` executes all of them against a shared context so expensive
artifacts (trajectories, seeded scans) are built once.  A claim that a report
judges is read from that report's ``verdicts(...)``, at the tolerance its
owning module names; only the criterion-specific checks keep their own
bounds.  The CLI `verify` command and the pytest acceptance module both run
these functions.

A criterion id passed as ``perturb`` poisons that criterion's tolerances
(-inf) and witness thresholds (+inf), which must make it fail: a self-test
that the harness can detect regressions at all.

`run_all` builds the two artifacts that depend on no other part of the suite,
criterion 10's incoherent scan and criterion 14's two determinism bundles, in
one forked worker process while this process runs the other criteria; where
``os.fork`` is missing or fails, the context builds them in this process when
they are first read, as it does for any caller of ``run_criterion``.
"""

from __future__ import annotations

import math
import os
import pickle
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .collective import (
    SpinEnsembleSpec,
    analytic_steady_state,
    collective_coupling,
    delta_C_h_limit,
    entropy_production_ratio,
)
from .lindblad import asymptotic_state, build_generator, flat_bath
from .qcore import DensityMatrix, HermitianObservable, max_abs
from .scenarios import (
    RATIO_RELATIVE_TOL,
    TRACE_DISTANCE_TOL,
    CollectiveConfig,
    GridSpec,
    NearDegenerateConfig,
    OttoConfig,
    ReversalConfig,
    ThermalOperationConfig,
    build_collective_scenario,
    build_near_degenerate_scenario,
    build_otto_report,
    build_reversal_scenario,
    conservation_scan,
    geometric_times,
    ratio_verdict,
    thermal_operation_systems,
)
from .spectrum import build_level_structure, state_functionals, thermal_state_of
from .thermalops import (
    CHECK_TOL,
    WITNESS_THRESHOLD,
    conservation_report,
    incoherent_input_verdicts,
)
from .thermo import (
    CLOSURE_TOL,
    COMPLEMENTARITY_TOL,
    CYCLE_RESIDUAL_TOL,
    FD_RELATIVE_TOL,
    HEAT_FLOW_TOL,
    RATE_POSITIVITY_TOL,
    check_rates_by_finite_differences,
    complementarity_report,
    heat_flow,
)

N_SEEDS = 256
RATIO_MONOTONE_SLACK = 1e-12  # criterion 4: the ratio may dip this much between sweep points
RATIO_UNIT_SLACK = 1e-9  # criterion 4: and lie this far below its lower bound 1


class CriterionResult(NamedTuple):
    cid: int
    title: str
    passed: bool
    details: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid:2d}: {self.title} -- {self.details}"


def _bundle(seed: int) -> str:
    """Criterion 14's outputs: a reversal run and a thermal-operation run at ``seed``."""
    out_rev = ReversalConfig(beta_0=1.1, beta_B=1.0).run()
    out_ops = ThermalOperationConfig(beta_0=0.7, beta_B=1.3, seeds=32, seed=seed).run()
    return out_rev.csv_text + out_rev.summary_text + out_ops.csv_text + out_ops.summary_text


def _incoherent_finals(ctx: "AcceptanceContext") -> list:
    return [
        row.S_final for _, sys_ in ctx.thermal_systems
        for row in conservation_scan(sys_, range(N_SEEDS), thermal_state_of(sys_.els_B, 1.3), 1.3)
    ]


# The artifacts that depend neither on ``perturb`` nor on another artifact, by name, in the
# order the criteria read them: what ``AcceptanceContext.fork_worker`` builds and sends.
WORKER_ARTIFACTS = {
    "incoherent_finals": _incoherent_finals,
    "determinism_bundles": lambda ctx: (_bundle(0), _bundle(0)),
}


class AcceptanceContext:
    """Shared, lazily built artifacts for the acceptance criteria."""

    def __init__(self, perturb: str | None = None):
        self.perturb = perturb
        self._worker = None  # (pid, read end of its pipe) while a worker may still send
        self._received: dict[str, tuple[bool, object]] = {}

    def fork_worker(self) -> None:
        """Build the WORKER_ARTIFACTS in one forked child, which sends each through a pipe as
        (True, value), or (False, exception) when building it raised, and ends with
        ``os._exit``.  Where fork fails, nothing starts and the artifacts are built here."""
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            return
        if pid == 0:
            try:
                os.close(read_fd)
                with os.fdopen(write_fd, "wb") as pipe:
                    for build in WORKER_ARTIFACTS.values():
                        try:
                            built = (True, build(self))
                        except Exception as exc:
                            built = (False, exc)
                        pickle.dump(built, pipe)
                        pipe.flush()
            finally:
                os._exit(0)
        os.close(write_fd)
        self._worker = (pid, os.fdopen(read_fd, "rb"))

    def reap_worker(self) -> None:
        """Close the pipe and wait for the worker; a worker still building meets the closed
        pipe at its next send and exits."""
        if self._worker is not None:
            pid, pipe = self._worker
            self._worker = None
            pipe.close()
            os.waitpid(pid, 0)

    def _artifact(self, name: str):
        """The worker's ``name``, its exception re-raised here, once the worker has sent it;
        built in this process when no worker runs or it ended before sending it."""
        while self._worker is not None and name not in self._received:
            try:  # the worker sends in WORKER_ARTIFACTS order
                self._received[list(WORKER_ARTIFACTS)[len(self._received)]] = pickle.load(
                    self._worker[1])
            except (EOFError, pickle.UnpicklingError):  # the worker ended early
                self.reap_worker()
        if name not in self._received:
            return WORKER_ARTIFACTS[name](self)
        ok, value = self._received[name]
        if not ok:
            raise value
        return value

    @cached_property
    def incoherent_finals(self) -> list:
        """Criterion 10's final S cuts: 256 seeded incoherent inputs on each thermal system."""
        return self._artifact("incoherent_finals")

    @cached_property
    def determinism_bundles(self) -> tuple[str, str]:
        """Criterion 14's two unperturbed runs of its bundle, at seed 0."""
        return self._artifact("determinism_bundles")

    def tol(self, cid: int, base: float) -> float:
        """Upper-bound tolerance; poisoned to -inf (unachievable) when perturbed."""
        return -math.inf if self.perturb == str(cid) else base

    def threshold(self, cid: int, base: float) -> float:
        """Witness-strength threshold; poisoned to +inf when perturbed."""
        return math.inf if self.perturb == str(cid) else base

    @cached_property
    def collective(self):
        return build_collective_scenario(CollectiveConfig())

    @cached_property
    def generation(self):
        return build_collective_scenario(
            CollectiveConfig(beta_0=2.0),
            times=geometric_times(0.1, 300.0, 50, include_zero=True),
        )

    @cached_property
    def reversal(self):
        return build_reversal_scenario(ReversalConfig(beta_0=1.1, time_grid=GridSpec(50)))

    @cached_property
    def near_degenerate(self):
        return build_near_degenerate_scenario(NearDegenerateConfig(time_grid=GridSpec(40)))

    @cached_property
    def otto(self):
        return build_otto_report(OttoConfig())

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


def _series_verdicts(ctx: AcceptanceContext, name: str, **tols) -> list:
    return [v for s in ctx.all_series for v in s.verdicts(**tols) if v.name == name]


def criterion_1(ctx: AcceptanceContext) -> CriterionResult:
    """Decomposition closure at every snapshot of every scenario."""
    tol = ctx.tol(1, CLOSURE_TOL)
    verdicts = _series_verdicts(ctx, "closure", closure_tol=tol)
    worst = np.max(np.concatenate([s.judged()[0] for s in ctx.all_series]), initial=0.0)
    count = sum(len(s.snapshots) for s in ctx.all_series)
    return CriterionResult(
        1, "decomposition closure Pi = -dC_v - dC_h - dD_th",
        all(v.passed for v in verdicts),
        f"max residual {worst:.3e} over {count} snapshots (tol {tol:.1e})",
    )


def criterion_2(ctx: AcceptanceContext) -> CriterionResult:
    """Pi >= 0, -dC_v >= 0 and -dC_h - dD_th >= 0 everywhere."""
    tol = ctx.tol(2, RATE_POSITIVITY_TOL)
    verdicts = _series_verdicts(ctx, "positivity", positivity_tol=tol)
    worst = np.min(np.concatenate([s.judged()[1] for s in ctx.all_series]), initial=math.inf)
    return CriterionResult(
        2, "positivity of Pi, -dC_v/dt, -(dC_h + dD_th)/dt",
        all(v.passed for v in verdicts), f"most negative witness {worst:.3e} (floor {-tol:.1e})",
    )


def criterion_3(ctx: AcceptanceContext) -> CriterionResult:
    """Negative contributions exist: -dC_h/dt < 0 (generation) along the
    collective relaxation, and -dD_th/dt < 0 (population divergence) at the
    start of the heat-flow-reversal scenario."""
    thr = ctx.threshold(3, WITNESS_THRESHOLD)
    gen_contrib = min(-s.rate_C_h for s in ctx.collective.series.snapshots)
    rev_contrib = -ctx.reversal.series.snapshots[0].rate_D_th
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
    rel = ctx.tol(4, RATIO_RELATIVE_TOL)
    details = []
    ok = True
    for n in (2, 4, 10):
        spec = SpinEnsembleSpec(n, 0.5)
        ratios = [entropy_production_ratio(spec, 50.0, x)[2] for x in np.geomspace(0.01, 6.0, 25)]
        top = ratios[-1]  # beta_B omega = 6, the endpoint geomspace returns exactly
        floor = n * math.log(2.0) / math.log(n + 1.0)
        monotone = all(b >= a - RATIO_MONOTONE_SLACK for a, b in zip(ratios, ratios[1:]))
        toward_floor = abs(ratios[0] - floor) < rel * floor
        above_one = all(r >= 1.0 - RATIO_UNIT_SLACK for r in ratios)
        if not (ratio_verdict(n, top, rel).passed and monotone and toward_floor and above_one):
            ok = False
        details.append(f"n={n}: ratio(6)={top:.4f}, ratio(0.01)={ratios[0]:.4f}, floor={floor:.4f}")
    return CriterionResult(
        4, "entropy-production ratio reaches n (within 5%), descending to ~1 at small beta_B",
        ok, "; ".join(details),
    )


def criterion_5(ctx: AcceptanceContext) -> CriterionResult:
    """Lindblad asymptotic state matches the analytic block-thermal form."""
    tol = ctx.tol(5, 1e-6)
    spec, els, gen = ctx.collective.spec, ctx.collective.els, ctx.collective.gen
    worst = 0.0
    coh_ok = True
    for b0 in (50.0, -50.0, 2.0):
        asym = asymptotic_state(gen, thermal_state_of(els, b0))
        ana = analytic_steady_state(spec, b0, 1.0)
        worst = max(worst, max_abs(asym.elements - ana.elements))
        f = state_functionals(ana.elements, els, 0.0)
        if f.C_v > 1e-10 or f.C_h <= WITNESS_THRESHOLD:
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
            c_h = state_functionals(asym.elements, els, 0.0).C_h
            worst = max(worst, abs(-c_h - closed))
    hand = abs(delta_C_h_limit(SpinEnsembleSpec(2, 0.5), 0.0) + math.log(2.0) / 3.0)
    ok = worst <= tol and hand <= 1e-9
    return CriterionResult(
        6, "closed-form -dC_h(inf) matches simulation; n=2 beta_B=0 equals -(1/3)ln 2",
        ok, f"max |simulated - closed| {worst:.3e} (tol {tol:.1e}); hand-value residual {hand:.3e}",
    )


def criterion_7(ctx: AcceptanceContext) -> CriterionResult:
    """Heat-flow identity on random states; T(w) = 1/beta_0 without horizontal coherences."""
    tol = ctx.tol(7, HEAT_FLOW_TOL)
    t_tol = ctx.tol(7, 1e-9)
    rng = np.random.default_rng(77)
    worst_flow = 0.0
    worst_t = 0.0
    els_q = build_level_structure(HermitianObservable(np.diag([0.0, 1.0])))
    sx = HermitianObservable(np.array([[0, 1], [1, 0]], dtype=complex))
    systems = [(ctx.collective.els, ctx.collective.gen),  # the n = 2 collective generator
               (els_q, build_generator([sx], els_q, flat_bath(0.1, 1.0)))]
    for els, gen in systems:
        dim = els.dim
        for _ in range(100):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = g @ g.conj().T
            rho = DensityMatrix(m / m.trace().real)
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
        rho_v = DensityMatrix(base.elements + 0.05 * chi)
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
    tol = ctx.tol(8, COMPLEMENTARITY_TOL)
    problems = []
    active = {}
    for name in ("reversal", "generation"):
        rep = complementarity_report(getattr(ctx, name).series, tol=tol)
        active[name] = int(getattr(rep, f"{name}_active").sum())
        if not rep.applicable:
            problems.append(f"{name}: inapplicable")
            continue
        problems += [f"{name}: {v.name} fails" for v in rep.verdicts() if not v.passed]
        if not active[name]:
            problems.append(f"{name}: expected active branch never triggered")
    return CriterionResult(
        8, "complementarity suite (i)-(v) incl. strict consumption during reversal",
        not problems,
        problems and "; ".join(problems) or
        "all pass; reversal-active {reversal}, generation-active {generation} entries".format(**active),
    )


def criterion_9(ctx: AcceptanceContext) -> CriterionResult:
    """Conservation checks (a)-(g) over the seeded unitary family."""
    tol = ctx.tol(9, CHECK_TOL)
    failures = 0
    total = 0
    for name, sys_ in ctx.thermal_systems:
        rho_b = thermal_state_of(sys_.els_B, 1.3)
        for row in conservation_scan(sys_, range(N_SEEDS), rho_b, 1.3, beta_0=0.7):
            total += 1
            if not all(v.passed for v in conservation_report(row, tol)):
                failures += 1
    return CriterionResult(
        9, "conservation laws (a)-(g) over 256 seeded energy-conserving unitaries",
        failures == 0, f"{total - failures}/{total} reports fully pass (tol {tol:.1e})",
    )


def criterion_10(ctx: AcceptanceContext) -> CriterionResult:
    """No vertical generation from incoherent inputs; horizontal generation occurs."""
    cv, ch = incoherent_input_verdicts(
        ctx.incoherent_finals, ctx.tol(10, CHECK_TOL), ctx.threshold(10, WITNESS_THRESHOLD)
    )
    return CriterionResult(
        10, "no vertical-coherence generation; horizontal generation witnessed",
        cv.passed and ch.passed,
        f"max final C_v^S {cv.value:.3e} (tol {cv.bound:.1e}); max final C_h^S {ch.value:.3e}",
    )


def criterion_11(ctx: AcceptanceContext) -> CriterionResult:
    """Analytic rates against centered finite differences at 20 random points."""
    rng = np.random.default_rng(11)
    series = ctx.reversal.series
    interior = list(range(1, len(series.snapshots) - 1))
    picks = sorted(rng.choice(interior, size=20, replace=False))
    points = [(series.snapshots[k].t, series.states[k], series.snapshots[k]) for k in picks]
    failures = check_rates_by_finite_differences(
        ctx.reversal.gen, points, raise_on_failure=False, rel_tol=ctx.tol(11, FD_RELATIVE_TOL)
    )
    return CriterionResult(
        11, "analytic rates match centered finite differences (rel 1e-4)",
        not failures, failures and "; ".join(failures[:3]) or "20/20 points agree",
    )


def criterion_12(ctx: AcceptanceContext) -> CriterionResult:
    """Near-degenerate clustered trajectory tracks the exactly-degenerate one."""
    scen = ctx.near_degenerate
    (v,) = scen.verdicts(ctx.tol(12, TRACE_DISTANCE_TOL))
    return CriterionResult(
        12, "near-degenerate mode reproduces the degenerate trajectory",
        v.passed, f"max trace distance {v.value:.3e} for t <= {scen.horizon:g} (tol {v.bound:.1e})",
    )


def criterion_13(ctx: AcceptanceContext) -> CriterionResult:
    """Otto relations: closed-cycle second law and the applicable exchange identity."""
    rep = ctx.otto
    problems = [
        f"{v.name} {v.value:.3e}" for v in rep.verdicts(ctx.tol(13, CYCLE_RESIDUAL_TOL))
        if not v.passed
    ]
    if not (rep.equal_eta_applies or rep.equal_W_applies):
        problems.append("neither exchange-relation branch applies")
    gain = abs(rep.coherent.W) - abs(rep.incoherent.W)
    sigma_gain = rep.coherent.Sigma - rep.incoherent.Sigma
    if not (rep.equal_eta_applies and gain > WITNESS_THRESHOLD and sigma_gain > WITNESS_THRESHOLD):
        problems.append(f"witness point fails: work gain {gain:.3e}, Sigma gain {sigma_gain:.3e}")
    return CriterionResult(
        13, "Otto second law, exchange identity, and |W*| > |W| with Sigma* > Sigma",
        not problems,
        problems and "; ".join(problems) or
        f"eta = eta* = {rep.incoherent.eta:.6f}, work gain {gain:.6f}, Sigma gain {sigma_gain:.6f}",
    )


def criterion_14(ctx: AcceptanceContext) -> CriterionResult:
    """Byte-identical outputs on repeated runs with identical seeds."""
    first, second = ctx.determinism_bundles
    if ctx.perturb == "14":  # a perturbed run must be caught: the second bundle uses a shifted seed
        second = _bundle(5000)
    same = first == second
    return CriterionResult(
        14, "deterministic outputs for fixed configuration and seeds",
        same, f"two runs produced {'identical' if same else 'DIFFERENT'} bytes",
    )


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4, 5: criterion_5,
    6: criterion_6, 7: criterion_7, 8: criterion_8, 9: criterion_9, 10: criterion_10,
    11: criterion_11, 12: criterion_12, 13: criterion_13, 14: criterion_14,
}


def run_criterion(ctx: AcceptanceContext, cid: int) -> CriterionResult:
    return CRITERIA[cid](ctx)


def run_all(perturb: str | None = None) -> list[CriterionResult]:
    """Every criterion in order, in this process; the WORKER_ARTIFACTS are built meanwhile in
    a forked worker where ``os.fork`` exists, and the worker is always reaped."""
    ctx = AcceptanceContext(perturb=perturb)
    if hasattr(os, "fork"):
        ctx.fork_worker()
    try:
        return [run_criterion(ctx, cid) for cid in sorted(CRITERIA)]
    finally:
        ctx.reap_worker()
