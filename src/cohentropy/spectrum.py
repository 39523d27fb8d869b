"""Degenerate energy-level structure and the state functionals of its two dephasing cuts.

The diagonal cut kills every off-diagonal element in the labeled eigenbasis
(``state_functionals`` reads it as the populations); the block-diagonal cut
(the ``same_level`` mask) kills only coherences between different energy
levels (vertical coherences), leaving coherences inside each degenerate
eigenspace (horizontal coherences) untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import AmbiguousClustering, InvariantViolation, ShapeMismatch
from .qcore import (
    CLIP_FLOOR,
    DensityMatrix,
    HermitianObservable,
    _as_square_complex,
    _density_matrix,
    _hermitian_unit_trace,
    boltzmann_weights,
    checked_states,
    chunks,
    dagger,
    diagonal_relative_entropy,
    entropy_of_spectrum,
    log_boltzmann_weights,
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
    """Clustered spectrum: level energies e_n and degeneracies l_n.

    ``basis_vectors`` columns are the chosen eigenbasis |n,i> ordered by
    (level, in-level index), the labeled eigenbasis; the diagonal cut is taken in
    this basis.  When the Hamiltonian is diagonal in the supplied basis the input
    ordering inside each cluster is preserved.  The energies ascend by more than
    ``clustering_tolerance`` at ``cluster_width``; the spread inside each level is
    judged where the levels are clustered, in ``build_level_structure``.
    """

    energies: tuple[float, ...]
    degeneracies: tuple[int, ...]
    basis_vectors: np.ndarray
    cluster_width: float = 0.0

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
        width = clustering_tolerance(np.array(self.energies), self.cluster_width)
        for k, gap in enumerate(np.diff(self.energies)):
            if gap <= width:
                raise AmbiguousClustering(
                    f"inter-cluster gap {gap:.6e} <= width {width:.6e} "
                    f"between levels {k} and {k + 1}"
                )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "basis_vectors", v)
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))
        object.__setattr__(self, "degeneracies", tuple(int(l) for l in self.degeneracies))

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
    def level_pair(self) -> np.ndarray:
        """Level pair m * n_levels + n of each matrix element (i, j), i in level m and j in n."""
        level = self.level_of_index
        return level[:, None] * self.n_levels + level[None, :]

    @property
    def same_level(self) -> np.ndarray:
        """Mask of the matrix elements inside one level: the block-diagonal cut."""
        level = self.level_of_index
        return level[:, None] == level[None, :]

    @property
    def index_energies(self) -> np.ndarray:
        """Level energy e_n of each eigenbasis column |n,i>."""
        return np.repeat(self.energies, self.degeneracies)

    def to_labeled(self, m: np.ndarray) -> np.ndarray:
        """V^dag m V: the operator m written in the labeled eigenbasis."""
        return self.basis_vectors.conj().T @ m @ self.basis_vectors

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
    """The one width of every comparison of energies and of their differences:
    delta when delta > 0, else 1e-10 * max |value|, plus 4 ulps of max |value| for
    the rounding of the values themselves ((w + delta) - w may exceed delta)."""
    scale = float(np.max(np.abs(values)))
    return (delta if delta > 0.0 else 1e-10 * scale) + 4.0 * np.finfo(float).eps * scale


def gap_clusters(values: np.ndarray, width: float) -> list[np.ndarray]:
    """Indices of ``values`` in stable ascending order, split greedily wherever two
    consecutive sorted values differ by more than ``width``, their ``clustering_tolerance``."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(values[order]) > width) + 1)


def build_level_structure(H: HermitianObservable, delta: float = 0.0) -> EnergyLevelStructure:
    """Cluster the spectrum of H by ``gap_clusters`` into levels separated by more than
    ``clustering_tolerance``; a chained cluster that spans more raises AmbiguousClustering.

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
    width = clustering_tolerance(eigvals, delta)
    clusters = gap_clusters(eigvals, width)
    for cluster in clusters:
        spread = eigvals[cluster[-1]] - eigvals[cluster[0]]
        if spread > width:
            raise AmbiguousClustering(
                f"chained cluster spans {spread:.6e} > width {width:.6e}: "
                "levels cannot be separated at this width"
            )

    return EnergyLevelStructure(
        energies=tuple(float(np.mean(eigvals[c])) for c in clusters),
        degeneracies=tuple(len(c) for c in clusters),
        basis_vectors=np.hstack([_order_and_fix_phase(vecs[:, c]) for c in clusters]),
        cluster_width=delta,
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


@dataclass(frozen=True)
class StateFunctionals:
    """Functionals of one state at beta.  For a stack of states each field is an array with
    one entry per state."""

    S: float
    C_v: float
    C_h: float
    D_th: float
    E_S: float
    F_D: float


def state_functionals(m: np.ndarray, els: EnergyLevelStructure, beta: float) -> StateFunctionals:
    """S, C_v, C_h, D_th, E_S and F_D of one state (d, d), whose fields are floats, or of a
    stack of states (T, d, d), whose fields are (T,) arrays, by one ``spectral_pass`` per
    ``chunks`` chunk.  Each state's values are bitwise those it gets alone: every step acts
    on each matrix of the stack by itself."""
    single = np.ndim(m) != 3
    stack = np.asarray(m)[None] if single else np.asarray(m)
    passes = [spectral_pass(stack[part], els, beta)[:6] for part in chunks(len(stack), els.dim)]
    columns = [np.concatenate(c) if len(passes) > 1 else c[0] for c in zip(*passes)]
    return StateFunctionals(*([float(c[0]) for c in columns] if single else columns))


def spectral_pass(m: np.ndarray, els: EnergyLevelStructure, beta: float) -> tuple[np.ndarray, ...]:
    """The kernel on a (T, d, d) stack of states, from two eigendecompositions of each
    r = V^dag rho V: S, C_v, C_h, D_th, E_S and F_D, each (T,); ln rho, ln rho_BD and ln rho_D
    on their supports in the labeled eigenbasis, each (T, d, d); ln rho_th, one (d, d)
    diagonal that broadcasts over the stack; and the projector onto the null space of each
    rho (eigenvalues <= CLIP_FLOOR) in the input basis, (T, d, d), exact zeros when every
    state has full rank.  ``state_functionals`` takes it chunk by chunk; ``thermo.rate_rows``
    reads its logs too.

    The states get the checks of ``checked_states`` here: Hermitian and of unit trace, and
    no eigenvalue of r below -POSITIVITY_TOL, which ``log_of_spectrum`` enforces on the
    spectrum the kernel computes anyway; a checked state, already Hermitian, keeps its bits.
    The spectrum of rho_D is diag(r); ln rho_th is ``log_boltzmann_weights`` of the
    level energies, exact and never clipped, so D_th is finite at every finite beta.
    C_v = S(rho_BD) - S(rho) and C_h = S(rho_D) - S(rho_BD) must agree with
    S(rho|rho_BD) and S(rho_BD|rho_D) to 1e-8; F_D is nan at beta = 0.
    """
    m = _hermitian_unit_trace(_as_square_complex(m, stacked=True))
    if m.shape[-1] != els.dim:
        raise ShapeMismatch(f"state dimension {m.shape[-1]} != structure dimension {els.dim}")
    r = els.to_labeled(m)
    bd = np.where(els.same_level, r, 0.0)
    lam, u = np.linalg.eigh(r)
    lam_bd, u_bd = np.linalg.eigh(bd)
    pops = r.diagonal(axis1=-2, axis2=-1).real
    log_rho = (u * log_of_spectrum(lam)[:, None, :]) @ dagger(u)
    log_bd = (u_bd * log_of_spectrum(lam_bd)[:, None, :]) @ dagger(u_bd)
    log_p = log_of_spectrum(pops)
    log_w = log_boltzmann_weights(els.index_energies, beta)
    log_d = _diagonal_stack(log_p)
    s, s_bd, s_d = (entropy_of_spectrum(x) for x in (lam, lam_bd, pops))
    c_v, c_h = s_bd - s, s_d - s_bd
    alt_v = relative_entropy_from_logs(r, log_rho, log_bd, _null_projector(u_bd, lam_bd))
    alt_h = relative_entropy_from_logs(bd, log_bd, log_d, _null_projector(np.eye(els.dim), pops))
    bad = np.maximum(np.abs(alt_v - c_v), np.abs(alt_h - c_h)) > MEASURE_CONSISTENCY_TOL
    if bad.any():
        k = int(np.argmax(bad))
        raise InvariantViolation(
            f"coherence measures disagree with relative-entropy forms: "
            f"C_v {c_v[k]:.3e} vs {alt_v[k]:.3e}, C_h {c_h[k]:.3e} vs {alt_h[k]:.3e}"
        )
    d_th = diagonal_relative_entropy(pops, log_p, log_w)
    e_s = (pops[:, None, :] @ els.index_energies[:, None])[:, 0, 0]  # per state, pops @ e
    with np.errstate(over="ignore"):  # -inf at a subnormal beta, as float arithmetic gives
        f_d = e_s - s_d / beta if beta != 0.0 else np.full(len(m), np.nan)
    null = _null_projector(u, lam, els.basis_vectors)
    return s, c_v, c_h, d_th, e_s, f_d, log_rho, log_bd, log_d, np.diag(log_w), null


def _diagonal_stack(rows: np.ndarray) -> np.ndarray:
    """The diagonal matrix of each row of a (T, d) stack."""
    out = np.zeros(rows.shape + rows.shape[-1:], dtype=rows.dtype)
    i = np.arange(rows.shape[-1])
    out[:, i, i] = rows
    return out


def _null_projector(vecs: np.ndarray, lam: np.ndarray, basis: np.ndarray | None = None):
    """Projector onto the eigenvectors (columns of ``vecs``, or of each of a stack, taken to
    the input basis as ``basis @ vecs`` when given) whose eigenvalue in the matching row of
    ``lam`` is at most CLIP_FLOOR.  When no eigenvalue of the stack is, the projector is
    exact zeros, formed without a product: its readers test it for nonzero entries."""
    null = lam <= CLIP_FLOOR
    if not null.any():
        return np.zeros(lam.shape + lam.shape[-1:], dtype=complex)
    if basis is not None:
        vecs = basis @ vecs
    return (vecs * null[:, None, :]) @ dagger(vecs)


def thermal_state_of(els: EnergyLevelStructure, beta: float) -> DensityMatrix:
    """Thermal state of the clustered Hamiltonian: V diag(Boltzmann weights of the
    level energies) V^dag in the structure's own eigenbasis, validated with its known
    lowest eigenvalue: no eigendecomposition."""
    v = els.basis_vectors
    w = boltzmann_weights(els.index_energies, beta)
    m = (v * w) @ v.conj().T
    m = 0.5 * (m + m.conj().T)
    return _density_matrix(checked_states(m[None], w.min(keepdims=True))[0])
