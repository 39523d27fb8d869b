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

import numpy as np

from .exceptions import InvariantViolation, RatioUndefined
from .qcore import DensityMatrix, HermitianObservable, log_boltzmann_weights, max_abs
from .spectrum import EnergyLevelStructure, build_level_structure

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


@dataclass(frozen=True)
class AngularMomentumTable:
    """Total-spin degeneracies l_J and magnetization multiplicities I_m."""

    n: int
    s: float
    J_values: tuple[float, ...]
    l_J: tuple[int, ...]
    m_values: tuple[float, ...]
    I_m: tuple[int, ...]

    def __post_init__(self):
        dim = int(round(2 * self.s + 1)) ** self.n
        if sum(l * int(round(2 * j + 1)) for j, l in zip(self.J_values, self.l_J)) != dim:
            raise InvariantViolation("sum_J l_J (2J+1) does not reach the dimension")
        if sum(self.I_m) != dim:
            raise InvariantViolation("sum_m I_m does not reach the dimension")


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
    return AngularMomentumTable(
        n=spec.n,
        s=spec.s,
        J_values=tuple(j_list),
        l_J=tuple(l_list),
        m_values=tuple(float(m) for m in m_values),
        I_m=tuple(int(c) for c in counts),
    )


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


@dataclass(frozen=True)
class CollectiveSystem:
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


def analytic_steady_state(
    spec: SpinEnsembleSpec, beta_0: float, beta_B: float
) -> DensityMatrix:
    """Equilibrium state of collective dissipation from a thermal start.

    Each (J, i) block keeps its initial thermal weight p_J = Z_J(beta_0) /
    Z_1(beta_0)^n and holds a thermal ladder at the bath temperature:
    rho = sum_{J,m} p_J e^(-omega m beta_B) / Z_J(beta_B) Pi_{J,m}, where the
    spectral projector Pi_{J,m} = sum_i |J,m>_i<J,m|_i comes from ``eigh`` of
    J^2 = J_+ J_- + J_z^2 - J_z on the J_z = m sector of the product basis, and
    its rank must be the table's l_J.
    """
    if spec.dim > STATE_DIM_BUDGET:
        raise InvariantViolation(f"dimension {spec.dim} beyond state budget {STATE_DIM_BUDGET}")
    x0 = spec.omega * beta_0
    table = _thermal_start(spec, x0)[0]
    log_w = _block_log_weights(spec, x0, spec.omega * beta_B)
    _, jp, _ = spin_matrices(spec.s)
    mz = np.zeros(1)
    for _ in range(spec.n):
        mz = np.add.outer(mz, spec.local_m_values()).ravel()
    j_plus = sum(_embed(jp, k, spec.n, spec.local_dim) for k in range(spec.n)).real
    j2 = j_plus @ j_plus.T + np.diag(mz * mz - mz)
    rho = np.zeros((spec.dim, spec.dim), dtype=complex)
    for m in table.m_values:
        idx = np.flatnonzero(mz == m)
        lam, vecs = np.linalg.eigh(j2[np.ix_(idx, idx)])
        j = np.rint(np.sqrt(1.0 + 4.0 * lam) - 1.0) / 2.0
        ranks = {float(v): int(c) for v, c in zip(*np.unique(j, return_counts=True))}
        expect = {jv: l for jv, l in zip(table.J_values, table.l_J) if jv >= abs(m)}
        if ranks != expect or max_abs(lam - j * (j + 1)) > 1e-9 * max(1.0, spec.n * spec.s) ** 2:
            raise InvariantViolation(f"J^2 spectrum on m = {m:g} disagrees with l_J: {ranks}")
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
