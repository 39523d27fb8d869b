"""Spin-ensemble machinery: degeneracy tables, collective coupling, analytic
steady states, and the entropy-production-ratio experiment.

The analytic steady state is a weighted sum of the spectral projectors of
(J^2, J_z), one ``eigh`` of J^2 per magnetization sector; no coupled basis
|J,m>_i is built, since only the projectors enter.  Weights are handled in log
space throughout, so inverse temperatures like beta*omega = +-50 are exact to
double precision instead of overflowing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .exceptions import InvariantViolation, NumericalFailure, RatioUndefined, ShapeMismatch
from .lindblad import BathSpectrum
from .qcore import (
    CLIP_FLOOR,
    POSITIVITY_TOL,
    DensityMatrix,
    HermitianObservable,
    diagonal_relative_entropy,
    log_boltzmann_weights,
    log_of_spectrum,
    max_abs,
)
from .spectrum import EnergyLevelStructure, build_level_structure
from .thermo import (
    ThermoSeries,
    finite_difference_check,
    finite_difference_picks,
    finite_difference_rates,
    pi_divergent,
)

STATE_DIM_BUDGET = 1024


@dataclass(frozen=True)
class SpinEnsembleSpec:
    """n spins of size s with level splitting omega, H = omega * sum_k j_z^(k)."""

    n: int
    s: float
    omega: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise InvariantViolation("need at least one spin")
        if self.s <= 0 or round(2 * self.s) != 2 * self.s:
            raise InvariantViolation("s must be a positive half-integer")
        object.__setattr__(self, "s", float(self.s))

    @property
    def local_dim(self) -> int:
        return int(round(2 * self.s + 1))

    @property
    def dim(self) -> int:
        return self.local_dim ** self.n

    def local_m_values(self) -> np.ndarray:
        """Local magnetizations ordered ascending (index 0 is m = -s)."""
        return np.arange(self.local_dim) - self.s


class AngularMomentumTable(NamedTuple):
    """Total-spin degeneracies l_J and magnetization multiplicities I_m."""

    n: int
    s: float
    J_values: tuple[float, ...]
    l_J: tuple[int, ...]
    m_values: tuple[float, ...]
    I_m: tuple[int, ...]


def degeneracy_table(spec: SpinEnsembleSpec) -> AngularMomentumTable:
    """l_J by iterated convolution of magnetization multiplicities.

    The number of product states with total magnetization m is the n-fold
    convolution of one state per local m; l_J = N(J) - N(J+1) and
    I_m = N(m) follow.
    """
    counts = np.array([1], dtype=object)
    for _ in range(spec.n):
        counts = np.convolve(counts, np.ones(spec.local_dim, dtype=object))
    ns = spec.n * spec.s
    m_values = np.arange(len(counts)) - ns  # ascending from -ns to ns
    j_values = [m for m in m_values if m >= -1e-12 and counts[int(m + ns)] > 0]
    j_list: list[float] = []
    l_list: list[int] = []
    for j in sorted(j_values, reverse=True):
        idx = int(round(j + ns))
        higher = int(counts[idx + 1]) if idx + 1 < len(counts) else 0
        l = int(counts[idx]) - higher
        if l > 0:
            j_list.append(float(j))
            l_list.append(l)
    table = AngularMomentumTable(
        n=spec.n,
        s=spec.s,
        J_values=tuple(j_list),
        l_J=tuple(l_list),
        m_values=tuple(float(m) for m in m_values),
        I_m=tuple(int(c) for c in counts),
    )
    dim = spec.dim
    if sum(l * int(round(2 * j + 1)) for j, l in zip(table.J_values, table.l_J)) != dim:
        raise InvariantViolation("sum_J l_J (2J+1) does not reach the dimension")
    if sum(table.I_m) != dim:
        raise InvariantViolation("sum_m I_m does not reach the dimension")
    return table


def spin_matrices(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(j_z, j_plus, j_minus) for one spin, basis ordered m ascending."""
    d = int(round(2 * s + 1))
    m = np.arange(d) - s
    jz = np.diag(m).astype(complex)
    jp = np.zeros((d, d), dtype=complex)
    for k in range(d - 1):
        jp[k + 1, k] = math.sqrt(s * (s + 1) - m[k] * (m[k] + 1))
    return jz, jp, jp.conj().T


def _embed(op: np.ndarray, k: int, n: int, d: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for j in range(n):
        out = np.kron(out, op if j == k else np.eye(d))
    return out


class CollectiveSystem(NamedTuple):
    """Collective observable A_S = sum_k (j_+ + j_-)^(k) and H_S = omega sum_k j_z^(k)."""

    spec: SpinEnsembleSpec
    A_S: HermitianObservable
    H_S: HermitianObservable

    def level_structure(self) -> EnergyLevelStructure:
        return build_level_structure(self.H_S)


def collective_coupling(spec: SpinEnsembleSpec) -> CollectiveSystem:
    if spec.dim > STATE_DIM_BUDGET:
        raise InvariantViolation(f"dimension {spec.dim} beyond state budget {STATE_DIM_BUDGET}")
    jz, jp, jm = spin_matrices(spec.s)
    d = spec.local_dim
    a = np.zeros((spec.dim, spec.dim), dtype=complex)
    h = np.zeros_like(a)
    for k in range(spec.n):
        a += _embed(jp + jm, k, spec.n, d)
        h += spec.omega * _embed(jz, k, spec.n, d)
    return CollectiveSystem(spec=spec, A_S=HermitianObservable(a), H_S=HermitianObservable(h))


def local_couplings(spec: SpinEnsembleSpec) -> list[HermitianObservable]:
    """Per-spin observables (j_+ + j_-)^(k): the independent-dissipation channels."""
    _, jp, jm = spin_matrices(spec.s)
    return [
        HermitianObservable(_embed(jp + jm, k, spec.n, spec.local_dim))
        for k in range(spec.n)
    ]


def _log_z(m: np.ndarray, x: float) -> float:
    """ln sum_m exp(-m x) with x = omega * beta: -m_k x - ln p_k at the largest
    Boltzmann weight p_k, where ``log_boltzmann_weights`` is exact."""
    log_w = log_boltzmann_weights(m, x)
    k = int(np.argmax(log_w))
    return float(-m[k] * x - log_w[k])


@lru_cache(maxsize=64)
def _thermal_start(
    spec: SpinEnsembleSpec, x0: float
) -> tuple[AngularMomentumTable, tuple[tuple[float, float], ...], float, float]:
    """What a sweep over the bath keeps from the thermal start at omega * beta_0 = x0:
    the degeneracy table, (J, ln p_J = ln Z_J(x0) - n ln Z_1(x0)) per J, and the start's
    (entropy, energy)."""
    table = degeneracy_table(spec)
    log_z1 = _log_z(spec.local_m_values(), x0)
    log_p = tuple((j, _log_z(np.arange(-j, j + 1.0), x0) - spec.n * log_z1) for j in table.J_values)
    return table, log_p, *_thermal_spectrum(spec, x0)


def _block_log_weights(spec: SpinEnsembleSpec, x0: float, xb: float) -> dict[float, np.ndarray]:
    """ln of the analytic steady state's eigenvalue on each (J, m), m = -J..J ascending.

    Each (J, i) block keeps its initial thermal weight p_J = Z_J(x0) / Z_1(x0)^n
    and holds a thermal ladder at the bath: p_J e^(-m xb) / Z_J(xb).
    """
    _, log_p, _, _ = _thermal_start(spec, x0)
    return {j: lp + log_boltzmann_weights(np.arange(-j, j + 1.0), xb) for j, lp in log_p}


def _magnetization_sectors(
    spec: SpinEnsembleSpec,
) -> list[tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
    """(m, the product-basis indices of the J_z = m sector, J of each eigenvector, the
    eigenvectors) of each sector, m ascending, from ``eigh`` of J^2 = J_+ J_- + J_z^2 - J_z
    on that sector; the rank of each J there must be the table's l_J."""
    if spec.dim > STATE_DIM_BUDGET:
        raise InvariantViolation(f"dimension {spec.dim} beyond state budget {STATE_DIM_BUDGET}")
    table = degeneracy_table(spec)
    _, jp, _ = spin_matrices(spec.s)
    mz = np.zeros(1)
    for _ in range(spec.n):
        mz = np.add.outer(mz, spec.local_m_values()).ravel()
    j_plus = sum(_embed(jp, k, spec.n, spec.local_dim) for k in range(spec.n)).real
    j2 = j_plus @ j_plus.T + np.diag(mz * mz - mz)
    sectors = []
    for m in table.m_values:
        idx = np.flatnonzero(mz == m)
        lam, vecs = np.linalg.eigh(j2[np.ix_(idx, idx)])
        j = np.rint(np.sqrt(1.0 + 4.0 * lam) - 1.0) / 2.0
        ranks = {float(v): int(c) for v, c in zip(*np.unique(j, return_counts=True))}
        expect = {jv: l for jv, l in zip(table.J_values, table.l_J) if jv >= abs(m)}
        if ranks != expect or max_abs(lam - j * (j + 1)) > 1e-9 * max(1.0, spec.n * spec.s) ** 2:
            raise InvariantViolation(f"J^2 spectrum on m = {m:g} disagrees with l_J: {ranks}")
        sectors.append((m, idx, j, vecs))
    return sectors


def analytic_steady_state(
    spec: SpinEnsembleSpec, beta_0: float, beta_B: float
) -> DensityMatrix:
    """Equilibrium state of collective dissipation from a thermal start.

    Each (J, i) block keeps its initial thermal weight p_J = Z_J(beta_0) /
    Z_1(beta_0)^n and holds a thermal ladder at the bath temperature:
    rho = sum_{J,m} p_J e^(-omega m beta_B) / Z_J(beta_B) Pi_{J,m}, where the
    spectral projector Pi_{J,m} = sum_i |J,m>_i<J,m|_i comes from the
    ``_magnetization_sectors``.
    """
    log_w = _block_log_weights(spec, spec.omega * beta_0, spec.omega * beta_B)
    rho = np.zeros((spec.dim, spec.dim), dtype=complex)
    for m, idx, j, vecs in _magnetization_sectors(spec):
        weights = np.exp([log_w[jv][int(round(m + jv))] for jv in j])
        rho[np.ix_(idx, idx)] = (vecs * weights) @ vecs.T
    return DensityMatrix(0.5 * (rho + rho.conj().T))


def delta_C_h_limit(spec: SpinEnsembleSpec, beta_B: float) -> float:
    """-sum_m e^(-omega m beta_B)/Z_ns ln I_m: the horizontal-coherence change
    over the full relaxation in the large |beta_0| limit (always <= 0)."""
    table = degeneracy_table(spec)
    xb = spec.omega * beta_B
    m = np.array(table.m_values)
    log_w = log_boltzmann_weights(m, xb)
    return float(-np.sum(np.exp(log_w) * np.log(np.array(table.I_m, dtype=float))))


def _thermal_spectrum(spec: SpinEnsembleSpec, x: float) -> tuple[float, float]:
    """(entropy, energy) of the n-spin product thermal state at omega*beta = x."""
    m = spec.local_m_values()
    log_w = log_boltzmann_weights(m, x)
    w = np.exp(log_w)
    live = w > 0
    s1 = float(-np.sum(w[live] * log_w[live]))
    e1 = float(np.sum(w * m)) * spec.omega
    return spec.n * s1, spec.n * e1


def _collective_spectrum(spec: SpinEnsembleSpec, x0: float, xb: float) -> tuple[float, float]:
    """(entropy, energy) of the analytic steady state, from its (J, m) weights."""
    table = _thermal_start(spec, x0)[0]
    log_w = _block_log_weights(spec, x0, xb)
    total_s = 0.0
    total_e = 0.0
    for j, l in zip(table.J_values, table.l_J):
        m = np.arange(-j, j + 1.0)
        lam = np.exp(log_w[j])
        live = lam > 0
        total_s += -l * float(np.sum(lam[live] * log_w[j][live]))
        total_e += l * float(np.sum(lam * m)) * spec.omega
    return total_s, total_e


def entropy_production_ratio(
    spec: SpinEnsembleSpec, beta_0: float, beta_B: float
) -> tuple[float, float, float]:
    """(Pi_th, Pi_col, ratio) of total entropy production, independent vs
    collective dissipation, each evaluated as Delta S - beta_B Delta E between
    the initial thermal state and the respective asymptotic state.

    Uses the (J, m) spectral data directly, whose multiplicities are exact
    integers, so any ensemble size is exact without building superoperators.
    """
    x0 = spec.omega * beta_0
    xb = spec.omega * beta_B
    _, _, s0, e0 = _thermal_start(spec, x0)
    s_th, e_th = _thermal_spectrum(spec, xb)
    s_col, e_col = _collective_spectrum(spec, x0, xb)
    pi_th = (s_th - s0) - beta_B * (e_th - e0)
    pi_col = (s_col - s0) - beta_B * (e_col - e0)
    if abs(pi_col) < 1e-12:
        raise RatioUndefined("collective entropy production vanishes; ratio undefined")
    return pi_th, pi_col, pi_th / pi_col


# ---------------------------------------------------------------------------
# The collective trajectory from its (J, m) populations
# ---------------------------------------------------------------------------

TAYLOR_TERMS = 20  # of e^(-y) sum_k y^k/k! P^k at y <= 1: the first one dropped is below 5e-19


class PopulationChains(NamedTuple):
    """Collective dissipation of a thermal start, whose state stays sum_{J,m} p_{J,m} Pi_{J,m}:
    one birth-death chain over m = -J..J per total spin J, dp/dt = ``rates`` @ p.

    The K (J, m) keys run over the table's J, m ascending within each; ``l_J`` is the rank of
    each Pi_{J,m} (the multiplicity of its eigenvalue p_{J,m}), ``projectors`` the (K, d, d)
    Pi_{J,m} in the product basis, and ``cut`` the (K, d) diagonal of each in the labeled
    eigenbasis, so p @ cut are the populations of the diagonal cut.  At s = 1/2 a row of
    ``cut`` is l_J / I_m on the sector of m, but at s >= 1 the product states of one sector
    are not all permutations of each other, and the row is not uniform there.
    """

    l_J: np.ndarray
    projectors: np.ndarray
    cut: np.ndarray
    rates: np.ndarray

    @property
    def norm(self) -> float:
        """||M||, the inf-norm of the chains' generator: the scale of their drift."""
        return float(np.max(np.sum(np.abs(self.rates), axis=1)))

    def propagate(self, p0: np.ndarray, times: Sequence[float]) -> np.ndarray:
        """exp(t M) p0 for each t >= 0, one row per t, by uniformization: with
        lam = max_k -M_kk, P = 1 + M / lam is entrywise nonnegative and
        exp(t M) = (e^(-y) sum_k y^k/k! P^k)^(2^s), y = lam t / 2^s <= 1.  Every term and
        every squaring adds nonnegative numbers, so each population keeps its relative
        precision however small it is; each squaring divides the columns by their sums,
        which exp(t M) keeps at 1, so the rounding of the total is not doubled 2^s times.
        The populations are then checked as ``evolve`` checks states: finite, of unit
        total within 1e-8 (and no squaring's column sums off by more), none below
        -POSITIVITY_TOL; otherwise a NumericalFailure names t.  The total is then divided
        out."""
        ts = np.asarray(times, dtype=float)
        k = len(p0)
        lam = float(np.max(-np.diag(self.rates)))
        x = lam * ts
        if not np.isfinite(x).all():
            t = ts[int(np.argmax(~np.isfinite(x)))]
            raise NumericalFailure(f"population chain rate {lam:.3e} times t = {t} is not finite")
        squarings = np.ceil(np.log2(np.maximum(x, 1.0))).astype(int)
        y = x / 2.0**squarings
        powers = [np.eye(k)]
        step = np.eye(k) + self.rates / lam if lam > 0.0 else np.eye(k)
        for _ in range(TAYLOR_TERMS - 1):
            powers.append(powers[-1] @ step)
        order = np.arange(TAYLOR_TERMS)
        inverse_factorials = 1.0 / np.array([math.factorial(j) for j in order], dtype=float)
        coef = np.exp(-y)[:, None] * y[:, None] ** order * inverse_factorials
        e = np.tensordot(coef, np.array(powers), 1)
        drift = np.zeros(len(ts))  # the largest |column sum - 1| of a squaring, 0 in exp(t M)
        with np.errstate(over="ignore", invalid="ignore"):  # a lost chain is reported below
            for j in range(int(squarings.max(initial=0))):
                sel = squarings > j
                sq = e[sel] @ e[sel]
                sums = np.sum(sq, axis=-2, keepdims=True)
                drift[sel] = np.maximum(drift[sel], np.max(np.abs(sums - 1.0), axis=(-2, -1)))
                e[sel] = sq / sums
            p = e @ p0
            total = p @ self.l_J
        lost = ~np.isfinite(p).all(axis=1)
        if lost.any():
            raise NumericalFailure(
                f"propagated populations are not finite at t = {ts[int(np.argmax(lost))]}"
            )
        least = p.min(axis=1)
        bad = (np.abs(total - 1.0) > 1e-8) | (drift > 1e-8) | (least < -POSITIVITY_TOL)
        if bad.any():
            i = int(np.argmax(bad))
            raise NumericalFailure(
                f"population drift at t = {ts[i]}: total {total[i]:.17g}, column sums off by "
                f"{drift[i]:.3e}, least population {least[i]:.3e}"
            )
        return p / total[:, None]


def population_chains(
    spec: SpinEnsembleSpec, els: EnergyLevelStructure, bath: BathSpectrum
) -> PopulationChains:
    """The ``PopulationChains`` of collective dissipation into ``bath``: down m -> m - 1 at
    G(omega)(J + m)(J - m + 1) and up m -> m + 1 at G(-omega)(J - m)(J + m + 1), with
    G taken from ``bath.G`` at -omega and then omega, as ``build_generator`` takes them.
    The projectors are those of ``_magnetization_sectors``, by (J, m)."""
    table = degeneracy_table(spec)
    found = {}
    for m, idx, j, vecs in _magnetization_sectors(spec):
        for jv in set(j.tolist()):
            v = vecs[:, j == jv]
            proj = np.zeros((spec.dim, spec.dim))
            proj[np.ix_(idx, idx)] = v @ v.T
            found[jv, m] = proj
    keys = [(jv, float(m)) for jv in table.J_values for m in np.arange(-jv, jv + 1.0)]
    J, m = np.array(keys).T
    l_J = np.array([dict(zip(table.J_values, table.l_J))[jv] for jv, _ in keys], dtype=float)
    projectors = np.array([found[key] for key in keys])
    cut = els.to_labeled(projectors).diagonal(axis1=-2, axis2=-1).real
    g_up, g_down = bath.G(-spec.omega), bath.G(spec.omega)
    with np.errstate(over="ignore"):  # reported below
        down, up = g_down * (J + m) * (J - m + 1), g_up * (J - m) * (J + m + 1)
    if not (np.isfinite(down).all() and np.isfinite(up).all()):
        raise NumericalFailure(f"population chain rates overflow at beta_B = {bath.beta_B}")
    rates = np.diag(-(down + up))
    k = np.flatnonzero(J[1:] == J[:-1])  # k and k + 1 neighbour in one chain
    rates[k, k + 1] = down[k + 1]
    rates[k + 1, k] = up[k]
    return PopulationChains(l_J=l_J, projectors=projectors, cut=cut, rates=rates)


def population_rows(
    chains: PopulationChains, p: np.ndarray, els: EnergyLevelStructure, beta_b: float
) -> tuple[np.ndarray, np.ndarray]:
    """``thermo.rate_rows`` of the states sum p Pi of a (T, K) stack of populations, in closed
    form over (J, m): the (T, 11) array of the RATE_COLUMNS and the (T,) mask of the
    pi-divergent states.

    rho commutes with H, so rho_BD = rho and C_v = rate_C_v = 0; S = -sum l_J p ln p, the
    diagonal cut has the populations q = p @ cut, ln rho_th is ``log_boltzmann_weights`` of
    the d level energies, and each rate is the overlap of the drift p_dot = M p (so
    q_dot = p_dot @ cut) with a difference of these logs.  A weight at or below CLIP_FLOOR
    is null, as ``spectral_kernel`` clips a spectrum; a state is pi-divergent by
    ``thermo.pi_divergent``, the rule ``thermo.rate_rows`` marks with, from its null projector
    and the drift on its null space at the scale ||M|| of the chains.
    """
    p_dot = p @ chains.rates.T
    q, q_dot = p @ chains.cut, p_dot @ chains.cut
    log_p, log_q = log_of_spectrum(p), log_of_spectrum(q)
    log_th = log_boltzmann_weights(els.index_energies, beta_b)
    energies = els.index_energies
    s, s_d = -(p * log_p) @ chains.l_J, -np.sum(q * log_q, axis=1)
    e_s = q @ energies
    with np.errstate(over="ignore"):  # -inf at a subnormal beta, as float arithmetic gives
        f_d = e_s - s_d / beta_b if beta_b != 0.0 else np.full(len(p), np.nan)
    flow_rho = (p_dot * log_p) @ chains.l_J  # Tr rho_dot ln rho
    zero = np.zeros(len(p))
    table = np.column_stack((
        s, zero, s_d - s, diagonal_relative_entropy(q, log_q, log_th), e_s, f_d,
        -(flow_rho - q_dot @ log_th),
        zero,
        flow_rho - np.sum(q_dot * log_q, axis=1),
        np.sum(q_dot * (log_q - log_th), axis=1),
        q_dot @ energies,
    ))
    null = p <= CLIP_FLOOR
    divergent = np.zeros(len(p), dtype=bool)
    rows = null.any(axis=1)
    if rows.any():
        flat = chains.projectors.reshape(len(chains.l_J), -1)
        leak = np.where(null[rows], p_dot[rows], 0.0) @ flat
        divergent[rows] = pi_divergent(null[rows] @ flat, leak, chains.norm)
    return table, divergent


def collective_series(
    spec: SpinEnsembleSpec,
    els: EnergyLevelStructure,
    bath: BathSpectrum,
    beta_0: float,
    times: Sequence[float],
) -> ThermoSeries:
    """``thermo.decompose_series`` of collective dissipation from thermal(beta_0), from the
    (J, m) populations of its ``population_chains``: no superoperator and no
    eigendecomposition of a (d, d) state.

    The chains start from the thermal weights ``log_boltzmann_weights`` gives, and the
    series is assembled from the ``population_rows`` rows by ``ThermoSeries.from_rates``,
    with ``populations`` the diagonal cut's p @ cut.  The rates are cross-checked by
    ``finite_difference_check`` at the ``finite_difference_picks``, with ||L|| the inf-norm
    of the chains' generator M, and the least eigenvalue (the least population) and the
    functionals at each time it asks for from ``population_rows`` of the populations
    propagated from the start.
    """
    ts = [float(t) for t in times]
    if not ts:
        raise ShapeMismatch("collective_series: the time list is empty")
    if any(t < 0 for t in ts) or ts != sorted(ts):
        raise InvariantViolation("times must be sorted and nonnegative")
    chains = population_chains(spec, els, bath)
    log_w0 = log_boltzmann_weights(els.index_energies, beta_0)
    p0 = np.exp(log_w0[np.argmax(chains.cut, axis=1)])  # the weight of a state of m's level
    p = chains.propagate(p0, ts)
    table, divergent = population_rows(chains, p, els, bath.beta_B)
    series = ThermoSeries.from_rates(ts, table, divergent, els, bath.beta_B, p @ chains.cut)
    if len(ts) < 3:
        return series

    def functionals_at(at, kernel):
        q = chains.propagate(p0, at)
        f = population_rows(chains, q, els, bath.beta_B)[0][:, :4] if kernel else None
        return q.min(axis=1), f

    rows = series.table[finite_difference_picks(divergent.tolist())]
    finite_difference_check(
        rows[:, 0].tolist(), finite_difference_rates(rows), chains.norm, functionals_at
    )
    return series
