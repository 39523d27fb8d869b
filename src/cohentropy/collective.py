"""Spin-ensemble machinery: degeneracy tables, collective coupling, analytic
steady states, and the entropy-production-ratio experiment.

The coupled basis |J,m>_i is built by recursive ladder-operator coupling (one
spin at a time) with Gram-Schmidt inside each magnetization subspace and a
fixed phase convention (largest-m' parent component positive), so the change
of basis is deterministic and orthonormal to 1e-12.  Weights are handled in
log space throughout, so inverse temperatures like beta*omega = +-50 are exact
to double precision instead of overflowing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import logsumexp

from .exceptions import InvariantViolation, RatioUndefined
from .qcore import DensityMatrix, HermitianObservable, max_abs
from .spectrum import EnergyLevelStructure, build_level_structure

TABLE_DIM_BUDGET = 4096
STATE_DIM_BUDGET = 1024
BASIS_ORTHONORMALITY_TOL = 1e-12


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

    def basis_labels(self) -> tuple[str, ...]:
        locals_ = [f"{m:+g}" for m in self.local_m_values()]
        labels = [""]
        for _ in range(self.n):
            labels = [f"{a},{b}" if a else b for a in labels for b in locals_]
        return tuple(labels)


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

    def multiplicity(self, m: float) -> int:
        for mv, i in zip(self.m_values, self.I_m):
            if mv == m:
                return i
        return 0


def degeneracy_table(spec: SpinEnsembleSpec) -> AngularMomentumTable:
    """l_J by iterated convolution of magnetization multiplicities.

    The number of product states with total magnetization m is the n-fold
    convolution of a flat local multiplicity; l_J = N(J) - N(J+1) and
    I_m = N(m) follow.
    """
    if spec.dim > TABLE_DIM_BUDGET:
        raise InvariantViolation(f"dimension {spec.dim} beyond table budget {TABLE_DIM_BUDGET}")
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
        return build_level_structure(self.H_S, labels=self.spec.basis_labels())


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


@dataclass(frozen=True)
class CoupledBlock:
    """One irreducible (J, i) block; rows of ``states`` are |J,m> for m = J..-J."""

    J: float
    i: int
    states: np.ndarray


@lru_cache(maxsize=16)
def _coupled_basis_cached(n: int, two_s: int) -> tuple[CoupledBlock, ...]:
    s = two_s / 2.0
    d = int(round(2 * s + 1))
    _, jp_local, jm_local = spin_matrices(s)
    # single spin: one block J = s, states |s,m> for m descending
    blocks: list[tuple[float, np.ndarray]] = [(s, np.eye(d, dtype=complex)[::-1])]
    jm_total = jm_local
    dim = d
    for _ in range(1, n):
        new_dim = dim * d
        jm_total = np.kron(jm_total, np.eye(d)) + np.kron(np.eye(dim), jm_local)
        new_blocks: list[tuple[float, np.ndarray]] = []
        for j_parent, parent in blocks:
            built: list[np.ndarray] = []  # top-m ladders built for this parent
            j_new = j_parent + s
            while j_new >= abs(j_parent - s) - 1e-9:
                top = _top_state(parent, j_parent, s, d, j_new, built)
                ladder = _ladder_down(top, j_new, jm_total)
                built.append(ladder)
                new_blocks.append((j_new, ladder))
                j_new -= 1.0
        blocks = new_blocks
        dim = new_dim
    counters: dict[float, int] = {}
    out: list[CoupledBlock] = []
    for j, states in blocks:
        counters[j] = counters.get(j, 0) + 1
        out.append(CoupledBlock(J=j, i=counters[j], states=states))
    _check_orthonormal(out, dim)
    return tuple(out)


def _top_state(
    parent: np.ndarray, j_parent: float, s: float, d: int, j_new: float, built: list[np.ndarray]
) -> np.ndarray:
    """Highest-weight state |j_new, m=j_new> inside parent (x) spin-s.

    Spanned by |j_parent, m'> (x) |s, j_new - m'>; orthogonal to the ladders of
    the higher j_new values already built from the same parent; phase fixed by
    a positive coefficient on the largest admissible m'.
    """
    candidates = []
    for row, m_prime in enumerate(np.arange(j_parent, -j_parent - 1e-9, -1.0)):
        m_local = j_new - m_prime
        if abs(m_local) > s + 1e-9:
            continue
        local = np.zeros(d, dtype=complex)
        local[int(round(m_local + s))] = 1.0
        candidates.append(np.kron(parent[row], local))
    if not candidates:
        raise InvariantViolation("empty magnetization subspace in coupling step")
    span = np.array(candidates)  # orthonormal rows (distinct parent rows)
    if built:
        others = []
        for ladder in built:
            j_high = (ladder.shape[0] - 1) / 2.0
            others.append(ladder[int(round(j_high - j_new))])
        constraint = np.array(others).conj() @ span.T  # rows: <other_k | span_a>
        _, sv, vh = np.linalg.svd(constraint)
        null = vh.conj().T[:, len(others):]
        if null.shape[1] != 1:
            raise InvariantViolation("highest-weight state not unique in coupling step")
        coeffs = null[:, 0]
    else:
        coeffs = np.zeros(len(candidates), dtype=complex)
        coeffs[0] = 1.0
    vec = coeffs @ span
    vec = vec / np.linalg.norm(vec)
    # phase convention: coefficient on the largest-m' candidate real positive
    lead = complex(span[0].conj() @ vec)
    if abs(lead) < 1e-12:
        lead = complex(vec[np.argmax(np.abs(vec))])
    return vec * (abs(lead) / lead)


def _ladder_down(top: np.ndarray, j: float, jm_total: np.ndarray) -> np.ndarray:
    size = int(round(2 * j + 1))
    states = np.zeros((size, top.size), dtype=complex)
    states[0] = top
    m = j
    for row in range(1, size):
        nxt = jm_total @ states[row - 1]
        norm = math.sqrt(j * (j + 1) - m * (m - 1))
        states[row] = nxt / norm
        m -= 1.0
    return states


def _check_orthonormal(blocks: list[CoupledBlock], dim: int) -> None:
    w = np.vstack([b.states for b in blocks])
    if w.shape != (dim, dim):
        raise InvariantViolation(f"coupled basis has shape {w.shape}, expected ({dim}, {dim})")
    dev = max_abs(w @ w.conj().T - np.eye(dim))
    if dev > BASIS_ORTHONORMALITY_TOL * max(1.0, dim):
        raise InvariantViolation(f"coupled basis not orthonormal (deviation {dev:.3e})")


def coupled_basis(spec: SpinEnsembleSpec) -> tuple[CoupledBlock, ...]:
    """All (J, i) blocks of the n-spin coupled basis, in coupling order."""
    return _coupled_basis_cached(spec.n, int(round(2 * spec.s)))


def _log_zj(j: float, x: float) -> float:
    """ln sum_{m=-J..J} exp(-m x) with x = omega * beta."""
    m = np.arange(-j, j + 1.0)
    return float(logsumexp(-m * x))


def analytic_steady_state(
    spec: SpinEnsembleSpec, beta_0: float, beta_B: float
) -> DensityMatrix:
    """Equilibrium state of collective dissipation from a thermal start.

    Each (J, i) block keeps its initial thermal weight p_J = Z_J(beta_0) /
    Z_1(beta_0)^n and holds a thermal ladder at the bath temperature:
    rho = sum_{J,i} p_J sum_m e^(-omega m beta_B) / Z_J(beta_B) |J,m>_i<J,m|_i.
    """
    if spec.dim > STATE_DIM_BUDGET:
        raise InvariantViolation(f"dimension {spec.dim} beyond state budget {STATE_DIM_BUDGET}")
    x0 = spec.omega * beta_0
    xb = spec.omega * beta_B
    log_z1 = _log_zj(spec.s, x0)
    rho = np.zeros((spec.dim, spec.dim), dtype=complex)
    for block in coupled_basis(spec):
        log_pj = _log_zj(block.J, x0) - spec.n * log_z1
        log_zjb = _log_zj(block.J, xb)
        m_vals = np.arange(block.J, -block.J - 1e-9, -1.0)
        lam = np.exp(log_pj - m_vals * xb - log_zjb)
        rho += (block.states.T * lam) @ block.states.conj()
    return DensityMatrix(0.5 * (rho + rho.conj().T), spec.basis_labels())


def delta_C_h_limit(spec: SpinEnsembleSpec, beta_B: float) -> float:
    """-sum_m e^(-omega m beta_B)/Z_ns ln I_m: the horizontal-coherence change
    over the full relaxation in the large |beta_0| limit (always <= 0)."""
    table = degeneracy_table(spec)
    xb = spec.omega * beta_B
    m = np.array(table.m_values)
    log_w = -m * xb - logsumexp(-m * xb)
    return float(-np.sum(np.exp(log_w) * np.log(np.array(table.I_m, dtype=float))))


def _thermal_spectrum(spec: SpinEnsembleSpec, x: float) -> tuple[float, float]:
    """(entropy, energy) of the n-spin product thermal state at omega*beta = x."""
    m = spec.local_m_values()
    log_w = -m * x - logsumexp(-m * x)
    w = np.exp(log_w)
    live = w > 0
    s1 = float(-np.sum(w[live] * log_w[live]))
    e1 = float(np.sum(w * m)) * spec.omega
    return spec.n * s1, spec.n * e1


def _collective_spectrum(spec: SpinEnsembleSpec, x0: float, xb: float) -> tuple[float, float]:
    """(entropy, energy) of the analytic steady state, from its (J, m) weights."""
    table = degeneracy_table(spec)
    log_z1 = _log_zj(spec.s, x0)
    total_s = 0.0
    total_e = 0.0
    for j, l in zip(table.J_values, table.l_J):
        m = np.arange(-j, j + 1.0)
        log_lam = (_log_zj(j, x0) - spec.n * log_z1) - m * xb - _log_zj(j, xb)
        lam = np.exp(log_lam)
        live = lam > 0
        total_s += -l * float(np.sum(lam[live] * log_lam[live]))
        total_e += l * float(np.sum(lam * m)) * spec.omega
    return total_s, total_e


def entropy_production_ratio(
    spec: SpinEnsembleSpec, beta_0: float, beta_B: float
) -> tuple[float, float, float]:
    """(Pi_th, Pi_col, ratio) of total entropy production, independent vs
    collective dissipation, each evaluated as Delta S - beta_B Delta E between
    the initial thermal state and the respective asymptotic state.

    Uses the (J, m) spectral data directly, so arbitrary ensemble sizes within
    the table budget are exact without building superoperators.
    """
    x0 = spec.omega * beta_0
    xb = spec.omega * beta_B
    s0, e0 = _thermal_spectrum(spec, x0)
    s_th, e_th = _thermal_spectrum(spec, xb)
    s_col, e_col = _collective_spectrum(spec, x0, xb)
    pi_th = (s_th - s0) - beta_B * (e_th - e0)
    pi_col = (s_col - s0) - beta_B * (e_col - e0)
    if abs(pi_col) < 1e-12:
        raise RatioUndefined("collective entropy production vanishes; ratio undefined")
    return pi_th, pi_col, pi_th / pi_col
