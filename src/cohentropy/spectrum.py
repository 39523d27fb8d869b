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
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import AmbiguousClustering, InvariantViolation, ShapeMismatch
from .qcore import (
    CLIP_FLOOR,
    SUPPORT_WEIGHT_TOL,
    DensityMatrix,
    HermitianObservable,
    _as_square_complex,
    _check_relative_entropy,
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


class StateFunctionals(NamedTuple):
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


def spectral_pass(
    m: np.ndarray, els: EnergyLevelStructure, beta: float, drift: Callable | None = None
) -> tuple:
    """The kernel on a (T, d, d) stack of states, from the eigendecompositions of each
    r = V^dag rho V and of its block-diagonal cut rho_BD, the latter only where it differs
    from r (elsewhere r's serves): S, C_v, C_h, D_th, E_S and F_D, each (T,); the projector
    onto the null space of each rho (eigenvalues <= CLIP_FLOOR) in the input basis, (T, d, d),
    exact zeros when every state has full rank; and, when ``drift`` maps the labeled stack r
    to r_dot = L r, the (T, 5) overlaps Tr r_dot ln X for X = rho, rho_BD, rho_D and rho_th,
    and Tr r_dot H, then r_dot itself, both of which ``thermo.rate_rows`` reads (else None,
    None).  No log matrix is formed: Tr x ln X is sum_k <u_k|x|u_k> ln lambda_k on X's own
    eigenbasis, diag(x) for rho_D and rho_th.

    The states get the checks of ``checked_states`` here: Hermitian and of unit trace, and
    no eigenvalue of r below -POSITIVITY_TOL, which ``log_of_spectrum`` enforces on the
    spectrum the kernel computes anyway; a checked state, already Hermitian, keeps its bits.
    The spectrum of rho_D is diag(r); ln rho_th is ``log_boltzmann_weights`` of the
    level energies, exact and never clipped, so D_th is finite at every finite beta.
    C_v = S(rho_BD) - S(rho) and C_h = S(rho_D) - S(rho_BD) must agree with S(rho|rho_BD)
    and S(rho_BD|rho_D) to 1e-8, read from diag(U^dag r U) and diag(U_BD^dag rho_BD U_BD)
    rather than from the eigenvalues, so that the check tests each decomposition; either is
    +inf where its first state weighs more than SUPPORT_WEIGHT_TOL on the second's null
    space.  F_D is nan at beta = 0.
    """
    m = _hermitian_unit_trace(_as_square_complex(m, stacked=True))
    if m.shape[-1] != els.dim:
        raise ShapeMismatch(f"state dimension {m.shape[-1]} != structure dimension {els.dim}")
    r = els.to_labeled(m)
    bd = np.where(els.same_level, r, 0.0)
    lam, u = np.linalg.eigh(r)
    lam_bd, u_bd = lam.copy(), u[:0]
    vertical = np.any(bd != r, axis=(-2, -1))  # rho_BD is rho itself elsewhere
    if vertical.any():
        lam_bd[vertical], u_bd = np.linalg.eigh(bd[vertical])
    pops = r.diagonal(axis1=-2, axis2=-1).real
    log_rho, log_bd, log_p = log_of_spectrum(lam), log_of_spectrum(lam_bd), log_of_spectrum(pops)
    log_w = log_boltzmann_weights(els.index_energies, beta)

    def overlaps(x, x_bd, f, f_bd):
        """sum_k <u_k|x|u_k> f_k on rho's eigenbasis, and likewise x_bd on rho_BD's (x's own
        sum where rho_BD is rho), of each state, by stacked products and elementwise sums, so
        that each state's bits are those it gets alone."""
        on_rho = np.sum(np.sum(u.conj() * (x @ u), axis=-2).real * f, axis=-1)
        on_bd = on_rho.copy()
        if vertical.any():
            on = np.sum(u_bd.conj() * (x_bd[vertical] @ u_bd), axis=-2).real
            on_bd[vertical] = np.sum(on * f_bd[vertical], axis=-1)
        return on_rho, on_bd

    s, s_bd, s_d = (entropy_of_spectrum(x) for x in (lam, lam_bd, pops))
    c_v, c_h = s_bd - s, s_d - s_bd
    tr_rho, tr_bd = overlaps(r, bd, log_rho, log_bd)  # Tr r ln rho_BD = Tr rho_BD ln rho_BD
    alt_v, alt_h = tr_rho - tr_bd, tr_bd - np.sum(pops * log_p, axis=-1)
    null_bd = lam_bd <= CLIP_FLOOR
    if null_bd.any():  # Tr r P_null(rho_BD)
        alt_v[overlaps(r, r, null_bd, null_bd)[1] > SUPPORT_WEIGHT_TOL] = np.inf
    alt_h[np.sum(np.where(pops <= CLIP_FLOOR, pops, 0.0), axis=-1) > SUPPORT_WEIGHT_TOL] = np.inf
    _check_relative_entropy(alt_v)
    _check_relative_entropy(alt_h)
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
    null = np.zeros_like(u)  # exact zeros at full rank, formed without a product
    if (lam <= CLIP_FLOOR).any():
        vecs = els.basis_vectors @ u  # the eigenvectors in the input basis
        null = (vecs * (lam <= CLIP_FLOOR)[:, None, :]) @ dagger(vecs)
    if drift is None:
        return s, c_v, c_h, d_th, e_s, f_d, null, None, None
    r_dot = drift(r)
    p_dot = r_dot.diagonal(axis1=-2, axis2=-1).real
    diagonal = (np.sum(p_dot * f, axis=-1) for f in (log_p, log_w, els.index_energies))
    flows = np.column_stack((*overlaps(r_dot, r_dot, log_rho, log_bd), *diagonal))
    return s, c_v, c_h, d_th, e_s, f_d, null, flows, r_dot


def thermal_state_of(els: EnergyLevelStructure, beta: float) -> DensityMatrix:
    """Thermal state of the clustered Hamiltonian: V diag(Boltzmann weights of the
    level energies) V^dag in the structure's own eigenbasis, validated with its known
    lowest eigenvalue: no eigendecomposition."""
    v = els.basis_vectors
    w = boltzmann_weights(els.index_energies, beta)
    m = (v * w) @ v.conj().T
    m = 0.5 * (m + m.conj().T)
    return _density_matrix(checked_states(m[None], w.min(keepdims=True))[0])
