"""Dense Hermitian linear algebra and information-theoretic primitives.

Conventions: entropies are in nats (natural log), hbar = 1, eigenvalues of a
density matrix below ``CLIP_FLOOR`` are treated as exactly zero (null space);
Boltzmann weights are never clipped (``log_boltzmann_weights``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import InvariantViolation, ShapeMismatch

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
CLIP_FLOOR = 1e-14
SUPPORT_WEIGHT_TOL = 1e-12
# Largest drift of a propagated state from Hermitian, unit trace and positive that is
# repaired (``drift_checked``, ``settled``) rather than reported.
DRIFT_TOL = 1e-8
# Matrix entries per chunk of a stacked pass over states: a stack of (d, d) states is
# processed max(1, CHUNK_ENTRIES // d^2) at a time, so its temporaries stay near 64 KiB
# whatever its length.  Whole trajectories at once raised peak RSS by 10.9 MiB (3001
# states, d = 4) and 16.4 MiB (61 states, d = 32) over a process of about 40 MiB.
CHUNK_ENTRIES = 4096


class Verdict(NamedTuple):
    """One judged check of a report: its measured value against its bound."""

    name: str
    value: float
    bound: float
    passed: bool


def _as_square_complex(elements: np.ndarray, stacked: bool = False) -> np.ndarray:
    """One square complex matrix, or a (T, d, d) stack of them when ``stacked``."""
    m = np.asarray(elements, dtype=complex)
    if m.ndim != 2 + stacked or m.shape[-1] != m.shape[-2]:
        kind = "stack of square matrices" if stacked else "square matrix"
        raise ShapeMismatch(f"expected a {kind}, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvariantViolation("matrix has non-finite entries")
    return m


def max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.swapaxes(m.conj(), -1, -2)


def chunks(n: int, dim: int) -> list[slice]:
    """Slices of a stack of n (dim, dim) matrices, max(1, CHUNK_ENTRIES // dim^2) each."""
    size = max(1, CHUNK_ENTRIES // dim**2)
    return [slice(k, min(k + size, n)) for k in range(0, n, size)]


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
    """(m + m^dag)/2 of a square complex matrix, or of each of a stack, that is Hermitian to
    HERMITICITY_TOL and of unit trace to TRACE_TOL: the checks of a state that come before
    positivity."""
    herm_dev = max_abs(m - dagger(m))
    if herm_dev > HERMITICITY_TOL:
        raise InvariantViolation(f"not Hermitian (max deviation {herm_dev:.3e})")
    m = 0.5 * (m + dagger(m))
    off = np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)
    if np.max(off) > TRACE_TOL:
        tr = np.trace(m, axis1=-2, axis2=-1).flat[np.argmax(off)]
        raise InvariantViolation(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix: one input state.  A stack of
    states is a (T, d, d) array that ``checked_states`` has checked."""

    elements: np.ndarray

    def __post_init__(self):
        m = _as_square_complex(self.elements)
        object.__setattr__(self, "elements", checked_states(m[None])[0])

    @property
    def dim(self) -> int:
        return self.elements.shape[0]


def _density_matrix(m: np.ndarray) -> DensityMatrix:
    """The DensityMatrix of one matrix of a stack ``checked_states`` returned, not checked
    again."""
    state = DensityMatrix.__new__(DensityMatrix)
    object.__setattr__(state, "elements", m)
    return state


def checked_states(matrices: np.ndarray, lam_min: np.ndarray | None = None) -> np.ndarray:
    """The checks of a state on a (T, d, d) stack: ``_hermitian_unit_trace``, and positivity
    from the lowest eigenvalues ``lam_min`` (one stacked eigvalsh when None), whose
    InvariantViolation carries the position of the first negative matrix as ``index``.
    Returns the symmetrized stack, read-only."""
    m = _hermitian_unit_trace(_as_square_complex(matrices, stacked=True))
    if lam_min is None:
        lam_min = np.linalg.eigvalsh(m)[:, 0]
    negative = lam_min < -POSITIVITY_TOL
    if negative.any():
        k = int(np.argmax(negative))
        exc = InvariantViolation(f"negative eigenvalue {lam_min[k]:.3e}")
        exc.index = k
        raise exc
    m.setflags(write=False)
    return m


def _drift(index: int, message: str) -> InvariantViolation:
    """The InvariantViolation of the state at position ``index`` of its stack."""
    exc = InvariantViolation(message)
    exc.index = index
    return exc


def drift_checked(matrices: np.ndarray, drift_tol: float) -> np.ndarray:
    """(m + m^dag)/2 / Tr of each matrix of a (T, d, d) stack of propagated states, each
    Hermitian and of unit trace within ``drift_tol``, by ``chunks``: the drift checks that
    come before positivity, which ``settled`` judges from each state's eigh.  The
    InvariantViolation raised for the first matrix beyond ``drift_tol`` carries its position
    in the stack as ``index``."""
    stack = _as_square_complex(matrices, stacked=True)
    out = np.empty_like(stack)
    for part in chunks(len(stack), stack.shape[-1]):
        m = stack[part]
        herm_dev = np.max(np.abs(m - dagger(m)), axis=(-2, -1))
        off = np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)
        bad = (herm_dev > drift_tol) | (off > drift_tol)
        if bad.any():
            k = int(np.argmax(bad))
            raise _drift(part.start + k, f"state drift beyond {drift_tol:.1e}: hermiticity "
                                         f"{herm_dev[k]:.3e}, trace deviation {off[k]:.3e}")
        m = 0.5 * (m + dagger(m))
        out[part] = m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
    return out


def settled(
    r: np.ndarray, drift_tol: float, start: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, lam, u): one eigh r = u diag(lam) u^dag of each ``drift_checked`` state of a
    (T, d, d) stack, which also judges positivity.  A lowest eigenvalue below -``drift_tol``
    raises the InvariantViolation whose ``index`` is the state's position plus ``start``; a
    state with a negative eigenvalue above it is repaired from its clipped spectrum: the
    state becomes u diag(max(lam, 0)) u^dag, symmetrized and divided by its trace, and its
    spectrum max(lam, 0) over that trace, on the same u.  Arrays with a repaired state are
    new; the others are returned as given."""
    lam, u = np.linalg.eigh(r)
    least = lam[:, 0]
    if (least < -drift_tol).any():
        k = int(np.argmax(least < -drift_tol))
        raise _drift(start + k, f"state drift beyond {drift_tol:.1e}: "
                                f"min eigenvalue {least[k]:.3e}")
    neg = least < 0.0
    if neg.any():
        clipped = np.clip(lam[neg], 0.0, None)
        x = (u[neg] * clipped[:, None, :]) @ dagger(u[neg])
        x = 0.5 * (x + dagger(x))
        norm = np.trace(x, axis1=-2, axis2=-1).real
        r, lam = r.copy(), lam.copy()
        r[neg], lam[neg] = x / norm[:, None, None], clipped / norm[:, None]
    return r, lam, u


def entropy_of_spectrum(lam: np.ndarray) -> np.ndarray:
    """-sum lambda ln lambda over the eigenvalues above the clip floor (0 ln 0 = 0), of each
    row of a (T, d) stack of spectra.  A row with a dropped term sums its kept terms alone,
    so its value is that of its kept spectrum: past 8 terms a dropped one would shift
    numpy's pairwise blocks."""
    keep = lam > CLIP_FLOOR
    terms = lam * np.log(np.where(keep, lam, 1.0))
    out = -np.sum(terms, axis=-1)
    if not keep.all():
        for k in np.flatnonzero(~keep.all(axis=-1)):
            out[k] = -np.sum(terms[k][keep[k]])
    return out


def log_of_spectrum(lam: np.ndarray) -> np.ndarray:
    """ln lambda above the clip floor and 0 on the null space; rejects a negative spectrum."""
    if lam.min(initial=0.0) < -POSITIVITY_TOL:
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


def diagonal_relative_entropy(p: np.ndarray, log_p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """sum p (ln p - ln q) of each row of a stack of populations: the relative entropy
    of two diagonal states, added as the trace of their diagonal matrix product is."""
    val = np.sum(p * (log_p - log_q), axis=-1)
    _check_relative_entropy(val)
    return val


def _check_relative_entropy(val: np.ndarray) -> None:
    least = np.min(val, initial=0.0)
    if least < -POSITIVITY_TOL:
        raise InvariantViolation(f"relative entropy {least:.3e} below -{POSITIVITY_TOL}")


def trace_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(1/2) ||a_k - b_k||_1 of each pair of matrices of two (T, d, d) stacks of states, from
    one stacked eigvalsh of the Hermitian differences."""
    if np.shape(a) != np.shape(b):
        raise ShapeMismatch(f"shape mismatch {np.shape(a)} != {np.shape(b)}")
    lam = np.linalg.eigvalsh(a - b)
    return 0.5 * np.sum(np.abs(lam), axis=-1)


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
