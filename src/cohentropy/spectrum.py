"""Degenerate energy-level structure and the two dephasing cuts.

The diagonal cut kills every off-diagonal element in the labeled eigenbasis;
the block-diagonal cut kills only coherences between different energy levels
(vertical coherences), leaving coherences inside each degenerate eigenspace
(horizontal coherences) untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import AmbiguousClustering, InvariantViolation, ShapeMismatch
from .qcore import (
    CLIP_FLOOR,
    DensityMatrix,
    HermitianObservable,
    boltzmann_weights,
    default_labels,
    entropy_of_spectrum,
    log_of_spectrum,
    max_abs,
    relative_entropy_from_logs,
)

PROJECTOR_TOL = 1e-12
MEASURE_CONSISTENCY_TOL = 1e-8

# Appendix-A validity window: the clustered master equation holds for times
# much smaller than 1/delta; the integrator enforces t <= HORIZON_FACTOR/delta.
HORIZON_FACTOR = 0.1


@dataclass(frozen=True)
class EnergyLevelStructure:
    """Clustered spectrum: level energies e_n, degeneracies l_n, projectors pi_n.

    ``basis_vectors`` columns are the chosen eigenbasis |n,i> ordered by
    (level, in-level index); the diagonal cut is taken in this basis.  When the
    Hamiltonian is diagonal in the supplied basis the input ordering inside
    each cluster is preserved, so the labeled basis is the natural one.
    """

    energies: tuple[float, ...]
    degeneracies: tuple[int, ...]
    basis_vectors: np.ndarray
    basis_labels: tuple[str, ...] = field(default=())
    cluster_width: float = 0.0
    member_energies: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        v = np.asarray(self.basis_vectors, dtype=complex)
        dim = v.shape[0]
        if v.shape != (dim, dim):
            raise ShapeMismatch(f"basis_vectors must be square, got {v.shape}")
        if sum(self.degeneracies) != dim:
            raise InvariantViolation("degeneracies do not sum to the dimension")
        if len(self.energies) != len(self.degeneracies):
            raise ShapeMismatch("energies and degeneracies length mismatch")
        dev = max_abs(v.conj().T @ v - np.eye(dim))
        if dev > PROJECTOR_TOL * max(1.0, dim):
            raise InvariantViolation(f"basis not orthonormal (deviation {dev:.3e})")
        labels = tuple(self.basis_labels) or default_labels(dim)
        if len(labels) != dim:
            raise ShapeMismatch("label count does not match dimension")
        members = self.member_energies or tuple(
            tuple(e for _ in range(l)) for e, l in zip(self.energies, self.degeneracies)
        )
        scale = max(1.0, max(abs(e) for e in self.energies))
        tol = max(self.cluster_width, 1e-10 * scale)
        for e_members in members:
            if max(e_members) - min(e_members) > tol * (1 + 1e-9):
                raise InvariantViolation("in-cluster energy spread exceeds delta")
        for k in range(len(self.energies) - 1):
            gap = min(members[k + 1]) - max(members[k])
            if gap <= self.cluster_width:
                raise AmbiguousClustering(
                    f"inter-cluster gap {gap:.6e} <= delta {self.cluster_width:.6e} "
                    f"between levels {k} and {k + 1}"
                )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "basis_vectors", v)
        object.__setattr__(self, "basis_labels", labels)
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))
        object.__setattr__(self, "degeneracies", tuple(int(l) for l in self.degeneracies))
        object.__setattr__(self, "member_energies", members)

    @property
    def dim(self) -> int:
        return self.basis_vectors.shape[0]

    @property
    def n_levels(self) -> int:
        return len(self.energies)

    @property
    def level_of_index(self) -> np.ndarray:
        """Level n of each eigenbasis column |n,i>."""
        return np.repeat(np.arange(self.n_levels), self.degeneracies)

    @property
    def index_energies(self) -> np.ndarray:
        """Level energy e_n of each eigenbasis column |n,i>."""
        return np.repeat(self.energies, self.degeneracies)

    def to_labeled(self, m: np.ndarray) -> np.ndarray:
        """V^dag m V: the operator m written in the labeled eigenbasis."""
        return self.basis_vectors.conj().T @ m @ self.basis_vectors

    def projector(self, n: int) -> np.ndarray:
        """pi_n = sum_i |n,i><n,i|."""
        cols = self._level_slice(n)
        block = self.basis_vectors[:, cols]
        return block @ block.conj().T

    def projectors(self) -> list[np.ndarray]:
        return [self.projector(n) for n in range(self.n_levels)]

    def _level_slice(self, n: int) -> slice:
        start = sum(self.degeneracies[:n])
        return slice(start, start + self.degeneracies[n])

    def hamiltonian(self) -> HermitianObservable:
        """sum_n e_n pi_n, the representative (clustered) Hamiltonian, built once."""
        return self._hamiltonian

    @cached_property
    def _hamiltonian(self) -> HermitianObservable:
        m = (self.basis_vectors * self.index_energies) @ self.basis_vectors.conj().T
        return HermitianObservable(0.5 * (m + m.conj().T))

    @property
    def horizon(self) -> float:
        """Maximum trustworthy evolution time in near-degenerate mode."""
        if self.cluster_width <= 0.0:
            return float("inf")
        return HORIZON_FACTOR / self.cluster_width

    def is_degenerate(self) -> bool:
        return any(l > 1 for l in self.degeneracies)


def clustering_tolerance(values: np.ndarray, delta: float) -> float:
    """The one grouping width of energies and of their differences: delta when
    delta > 0, else 1e-10 * max |value|."""
    return delta if delta > 0.0 else 1e-10 * float(np.max(np.abs(values)))


def gap_clusters(values: np.ndarray, delta: float) -> list[np.ndarray]:
    """Indices of ``values`` in stable ascending order, split greedily wherever two
    consecutive sorted values differ by more than ``clustering_tolerance``."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    gaps = np.diff(values[order])
    return np.split(order, np.flatnonzero(gaps > clustering_tolerance(values, delta)) + 1)


def build_level_structure(
    H: HermitianObservable,
    delta: float = 0.0,
    labels: tuple[str, ...] = (),
) -> EnergyLevelStructure:
    """Cluster the spectrum of H by ``gap_clusters`` into levels separated by > delta.

    The cluster energy is the degeneracy-weighted mean of its members.  If H is
    diagonal in the supplied basis, the input basis ordering is kept inside
    each cluster; otherwise eigenvectors are ordered by descending overlap
    with the input basis and phase-fixed for reproducibility.
    """
    if delta < 0.0:
        raise InvariantViolation("delta must be nonnegative")
    m = H.elements
    scale = max(1.0, max_abs(m))
    if max_abs(m - np.diag(np.diag(m))) <= 1e-12 * scale:
        eigvals = np.real(np.diag(m)).copy()
        vecs = np.eye(H.dim, dtype=complex)
    else:
        eigvals, vecs = np.linalg.eigh(m)
    clusters = gap_clusters(eigvals, delta)

    if delta > 0.0:
        for cluster in clusters:
            spread = eigvals[cluster[-1]] - eigvals[cluster[0]]
            if spread > delta:
                raise AmbiguousClustering(
                    f"chained cluster spans {spread:.6e} > delta {delta:.6e}: "
                    "levels cannot be separated at this width"
                )
        for a, b in zip(clusters, clusters[1:]):
            gap = eigvals[b[0]] - eigvals[a[-1]]
            if gap <= delta:
                raise AmbiguousClustering(
                    f"inter-cluster gap {gap:.6e} <= delta {delta:.6e}"
                )

    return EnergyLevelStructure(
        energies=tuple(float(np.mean(eigvals[c])) for c in clusters),
        degeneracies=tuple(len(c) for c in clusters),
        basis_vectors=np.hstack([_order_and_fix_phase(vecs[:, c]) for c in clusters]),
        basis_labels=labels,
        cluster_width=delta,
        member_energies=tuple(tuple(float(e) for e in eigvals[c]) for c in clusters),
    )


def _order_and_fix_phase(block: np.ndarray) -> np.ndarray:
    """Order eigenvectors by their dominant input-basis index, fix phases."""
    dominant = [int(np.argmax(np.abs(block[:, j]))) for j in range(block.shape[1])]
    order = np.argsort(np.array(dominant), kind="stable")
    block = block[:, order]
    fixed = block.copy()
    for j in range(block.shape[1]):
        k = int(np.argmax(np.abs(block[:, j])))
        phase = block[k, j] / abs(block[k, j])
        fixed[:, j] = block[:, j] / phase
    return fixed


def _check_state(rho: DensityMatrix, els: EnergyLevelStructure) -> None:
    if rho.dim != els.dim:
        raise ShapeMismatch(f"state dimension {rho.dim} != structure dimension {els.dim}")


def dephase_block_diagonal(rho: DensityMatrix, els: EnergyLevelStructure) -> DensityMatrix:
    """sum_n pi_n rho pi_n: kills vertical coherences only."""
    _check_state(rho, els)
    out = np.zeros_like(rho.elements)
    for n in range(els.n_levels):
        p = els.projector(n)
        out += p @ rho.elements @ p
    return DensityMatrix(0.5 * (out + out.conj().T), rho.basis_labels)


def dephase_diagonal(rho: DensityMatrix, els: EnergyLevelStructure) -> DensityMatrix:
    """Zero all off-diagonal elements in the labeled eigenbasis."""
    _check_state(rho, els)
    v = els.basis_vectors
    out = (v * els.to_labeled(rho.elements).diagonal().real) @ v.conj().T
    return DensityMatrix(0.5 * (out + out.conj().T), rho.basis_labels)


@dataclass(frozen=True)
class StateFunctionals:
    """Functionals of one state at beta, plus ln rho, ln rho_BD, ln rho_D and ln rho_th
    on their supports in the labeled eigenbasis and the null vectors of rho
    (eigenvalues <= CLIP_FLOOR) as columns in the input basis."""

    S: float
    C_v: float
    C_h: float
    D_th: float
    E_S: float
    F_D: float
    log_rho: np.ndarray
    log_bd: np.ndarray
    log_d: np.ndarray
    log_th: np.ndarray
    null: np.ndarray


def state_functionals(rho: DensityMatrix, els: EnergyLevelStructure, beta: float) -> StateFunctionals:
    """S, C_v, C_h, D_th, E_S and F_D from two eigendecompositions of r = V^dag rho V.

    The spectra of rho_D and rho_th are diag(r) and the Boltzmann weights.
    C_v = S(rho_BD) - S(rho) and C_h = S(rho_D) - S(rho_BD) must agree with
    S(rho|rho_BD) and S(rho_BD|rho_D) to 1e-8; F_D is nan at beta = 0.
    """
    _check_state(rho, els)
    r = els.to_labeled(rho.elements)
    level = els.level_of_index
    bd = np.where(level[:, None] == level[None, :], r, 0.0)
    lam, u = np.linalg.eigh(r)
    lam_bd, u_bd = np.linalg.eigh(bd)
    pops = r.diagonal().real
    weights = boltzmann_weights(els.index_energies, beta)
    log_rho = (u * log_of_spectrum(lam)) @ u.conj().T
    log_bd = (u_bd * log_of_spectrum(lam_bd)) @ u_bd.conj().T
    log_d = np.diag(log_of_spectrum(pops))
    log_th = np.diag(log_of_spectrum(weights))
    s, s_bd, s_d = (entropy_of_spectrum(x) for x in (lam, lam_bd, pops))
    c_v, c_h = s_bd - s, s_d - s_bd
    eye = np.eye(els.dim)
    alt_v = relative_entropy_from_logs(r, log_rho, log_bd, u_bd[:, lam_bd <= CLIP_FLOOR])
    alt_h = relative_entropy_from_logs(bd, log_bd, log_d, eye[:, pops <= CLIP_FLOOR])
    if abs(alt_v - c_v) > MEASURE_CONSISTENCY_TOL or abs(alt_h - c_h) > MEASURE_CONSISTENCY_TOL:
        raise InvariantViolation(
            f"coherence measures disagree with relative-entropy forms: "
            f"C_v {c_v:.3e} vs {alt_v:.3e}, C_h {c_h:.3e} vs {alt_h:.3e}"
        )
    d_th = relative_entropy_from_logs(np.diag(pops), log_d, log_th, eye[:, weights <= CLIP_FLOOR])
    e_s = float(pops @ els.index_energies)
    f_d = e_s - s_d / beta if beta != 0.0 else float("nan")
    null = els.basis_vectors @ u[:, lam <= CLIP_FLOOR]
    return StateFunctionals(s, c_v, c_h, d_th, e_s, f_d, log_rho, log_bd, log_d, log_th, null)


def coherence_measures(rho: DensityMatrix, els: EnergyLevelStructure) -> tuple[float, float]:
    """(C_v, C_h): entropy gaps opened by the two dephasing cuts (see state_functionals)."""
    f = state_functionals(rho, els, 0.0)
    return f.C_v, f.C_h


def thermal_state_of(els: EnergyLevelStructure, beta: float) -> DensityMatrix:
    """Thermal state of the clustered Hamiltonian: V diag(Boltzmann weights of the
    level energies) V^dag in the structure's own eigenbasis, without a diagonalization."""
    v = els.basis_vectors
    m = (v * boltzmann_weights(els.index_energies, beta)) @ v.conj().T
    return DensityMatrix(0.5 * (m + m.conj().T), els.basis_labels)
