"""Dense Hermitian linear algebra and information-theoretic primitives.

Conventions: entropies are in nats (natural log), hbar = 1, eigenvalues of a
density matrix below ``CLIP_FLOOR`` are treated as exactly zero (null space);
Boltzmann weights are never clipped (``log_boltzmann_weights``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .exceptions import InvariantViolation, ShapeMismatch

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
CLIP_FLOOR = 1e-14
SUPPORT_WEIGHT_TOL = 1e-12


class Verdict(NamedTuple):
    """One judged check of a report: its measured value against its bound."""

    name: str
    value: float
    bound: float
    passed: bool


def default_labels(dim: int) -> tuple[str, ...]:
    return tuple(str(k) for k in range(dim))


def tensor_labels(labels_a: tuple[str, ...], labels_b: tuple[str, ...]) -> tuple[str, ...]:
    """Labels of a tensor-product basis, first factor slowest (kron order)."""
    return tuple(f"{a}*{b}" for a in labels_a for b in labels_b)


def _as_square_complex(elements: np.ndarray) -> np.ndarray:
    m = np.asarray(elements, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvariantViolation("matrix has non-finite entries")
    return m


def max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


@dataclass(frozen=True)
class HermitianObservable:
    """Hermitian matrix in a fixed basis (energy units for Hamiltonians)."""

    elements: np.ndarray

    def __post_init__(self):
        m = _as_square_complex(self.elements)
        dev = max_abs(m - m.conj().T)
        if dev > HERMITICITY_TOL * max(1.0, max_abs(m)):
            raise InvariantViolation(f"matrix not Hermitian (max deviation {dev:.3e})")
        m = 0.5 * (m + m.conj().T)
        m.setflags(write=False)
        object.__setattr__(self, "elements", m)

    @property
    def dim(self) -> int:
        return self.elements.shape[0]


def _hermitian_unit_trace(m: np.ndarray) -> np.ndarray:
    """(m + m^dag)/2 of a square complex matrix that is Hermitian to HERMITICITY_TOL and
    of unit trace to TRACE_TOL: the checks of a state that come before positivity."""
    herm_dev = max_abs(m - m.conj().T)
    if herm_dev > HERMITICITY_TOL:
        raise InvariantViolation(f"not Hermitian (max deviation {herm_dev:.3e})")
    m = 0.5 * (m + m.conj().T)
    tr = m.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvariantViolation(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix in a labeled basis."""

    elements: np.ndarray
    basis_labels: tuple[str, ...] = field(default=())

    def __post_init__(self, lam_min: float | None = None):
        """Check and freeze the fields; ``_state_with_known_min`` passes the lowest eigenvalue."""
        m = _as_square_complex(self.elements)
        labels = tuple(self.basis_labels) or default_labels(m.shape[0])
        if len(labels) != m.shape[0]:
            raise ShapeMismatch(
                f"{len(labels)} basis labels for dimension {m.shape[0]}"
            )
        m = _hermitian_unit_trace(m)
        if lam_min is None:
            lam_min = float(np.linalg.eigvalsh(m)[0])
        if lam_min < -POSITIVITY_TOL:
            raise InvariantViolation(f"negative eigenvalue {lam_min:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "elements", m)
        object.__setattr__(self, "basis_labels", labels)

    @property
    def dim(self) -> int:
        return self.elements.shape[0]


def cleaned_state(
    matrix: np.ndarray,
    basis_labels: tuple[str, ...] = (),
    drift_tol: float = 1e-8,
) -> DensityMatrix:
    """Re-symmetrize ((m + m^dag)/2), renormalize and validate a candidate state.

    Raises InvariantViolation if the required repair exceeds ``drift_tol``.
    The state is validated with the lowest eigenvalue found here: one eigvalsh, not two.
    """
    m = _as_square_complex(matrix)
    herm_dev = max_abs(m - m.conj().T)
    tr = m.trace()
    m = 0.5 * (m + m.conj().T)
    lam_min = float(np.linalg.eigvalsh(m)[0])
    if herm_dev > drift_tol or abs(tr - 1.0) > drift_tol or lam_min < -drift_tol:
        raise InvariantViolation(
            f"state drift beyond {drift_tol:.1e}: hermiticity {herm_dev:.3e}, "
            f"trace deviation {abs(tr - 1.0):.3e}, min eigenvalue {lam_min:.3e}"
        )
    norm = m.trace().real
    m, lam_min = m / norm, lam_min / norm
    if lam_min < 0.0:
        # project tiny negatives away, then renormalize once more
        w, v = np.linalg.eigh(m)
        m = (v * np.clip(w, 0.0, None)) @ v.conj().T
        m = 0.5 * (m + m.conj().T)
        m, lam_min = m / m.trace().real, 0.0  # the clipped spectrum's lowest value
    return _state_with_known_min(m, basis_labels, lam_min)


def _state_with_known_min(
    m: np.ndarray, basis_labels: tuple[str, ...], lam_min: float
) -> DensityMatrix:
    """A DensityMatrix validated with its lowest eigenvalue ``lam_min`` known: no eigvalsh."""
    state = object.__new__(DensityMatrix)
    state.__dict__.update(elements=m, basis_labels=basis_labels)
    state.__post_init__(lam_min)
    return state


def entropy_of_spectrum(lam: np.ndarray) -> float:
    """-sum lambda ln lambda over the eigenvalues above the clip floor (0 ln 0 = 0)."""
    lam = lam[lam > CLIP_FLOOR]
    return float(-np.sum(lam * np.log(lam)))


def log_of_spectrum(lam: np.ndarray) -> np.ndarray:
    """ln lambda above the clip floor and 0 on the null space; rejects a negative spectrum."""
    if lam.min() < -POSITIVITY_TOL:
        raise InvariantViolation(f"negative eigenvalue {lam.min():.3e} in matrix log")
    return np.where(lam > CLIP_FLOOR, np.log(np.maximum(lam, CLIP_FLOOR)), 0.0)


def log_boltzmann_weights(energies: np.ndarray, beta: float) -> np.ndarray:
    """-beta e - ln Z by a shifted log-sum-exp: exact for every finite beta of either
    sign, never clipped, so a Boltzmann state has no null space."""
    if not np.isfinite(beta):
        raise InvariantViolation("beta must be finite")
    exponent = -beta * np.asarray(energies, dtype=float)
    shifted = exponent - exponent.max()
    return shifted - np.log(np.exp(shifted).sum())


def boltzmann_weights(energies: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta e)/Z, the exponential of ``log_boltzmann_weights``."""
    return np.exp(log_boltzmann_weights(energies, beta))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr rho ln rho with the convention 0 ln 0 = 0."""
    return entropy_of_spectrum(np.linalg.eigvalsh(rho.elements))


def relative_entropy_from_logs(
    sigma: np.ndarray,
    log_sigma: np.ndarray,
    log_rho: np.ndarray,
    rho_null: np.ndarray | None = None,
) -> float:
    """Tr sigma (ln sigma - ln rho) from logs on the supports, all in one basis; +inf if
    sigma weighs more than SUPPORT_WEIGHT_TOL on the columns of ``rho_null`` (None: rho
    has full support)."""
    if rho_null is not None and rho_null.shape[1]:
        weight = float(np.trace(rho_null.conj().T @ sigma @ rho_null).real)
        if weight > SUPPORT_WEIGHT_TOL:
            return float("inf")
    val = float(np.trace(sigma @ (log_sigma - log_rho)).real)
    if val < -POSITIVITY_TOL:
        raise InvariantViolation(f"relative entropy {val:.3e} below -{POSITIVITY_TOL}")
    return val


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) ||a - b||_1 via eigenvalues of the Hermitian difference."""
    if a.dim != b.dim:
        raise ShapeMismatch(f"dimension mismatch {a.dim} != {b.dim}")
    lam = np.linalg.eigvalsh(a.elements - b.elements)
    return float(0.5 * np.sum(np.abs(lam)))


def max_admissible_amplitude(base: np.ndarray, direction: np.ndarray) -> float:
    """Largest t keeping base + t * direction positive, by bisection on the minimum eigenvalue."""
    lo, hi = 0.0, 1.0

    def ok(t: float) -> bool:
        return float(np.linalg.eigvalsh(base + t * direction)[0]) >= 0.0

    if not ok(0.0):
        raise InvariantViolation("base state not positive")
    while ok(hi) and hi < 1e3:
        lo, hi = hi, 2 * hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo
