"""Secular Lindblad machinery: bath spectrum, eigenoperators, generator, evolution.

The master equation implemented here is the interaction-picture secular form

    drho/dt = sum_w Gamma(w) [A(w) rho A(w)^dag - A(w)^dag A(w) rho] + h.c.

with jump operators A(w) = sum_{e_n' - e_n = w} pi_n A_S pi_n' and
Gamma(w) = G(w)/2 + i * lamb_shift(w).  The bath obeys the KMS condition
G(-w) = G(w) exp(-w beta_B) by construction, so the thermal state at beta_B
is stationary.  Superoperators use row-stacking: vec(A X B) = (A kron B^T) vec(X).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .exceptions import (
    DiagonalizationFailure,
    ExpansionInvalid,
    HorizonExceeded,
    InvariantViolation,
    MissingRate,
    NumericalFailure,
    ShapeMismatch,
)
from .qcore import (
    DensityMatrix,
    HermitianObservable,
    cleaned_state,
    max_abs,
    max_admissible_amplitude,
)
from .spectrum import EnergyLevelStructure

ZERO_OPERATOR_TOL = 1e-13
KERNEL_SV_RATIO = 1e-10
SHORT_TIME_LIMIT = 0.01


@dataclass(frozen=True)
class BathSpectrum:
    """Bath spectral model G(w) parameterized by its positive-frequency half.

    ``g_half`` maps a nonnegative Bohr frequency to G(w)/2; negative
    frequencies follow from the KMS condition.  ``lamb_shift`` (imaginary part
    of Gamma) defaults to zero; it commutes with the Hamiltonian and does not
    affect any of the entropic quantities.
    """

    beta_B: float
    g_half: Callable[[float], float]
    lamb_shift: Callable[[float], float] | None = None

    def __post_init__(self):
        if not np.isfinite(self.beta_B):
            raise InvariantViolation("beta_B must be finite")

    def G(self, omega: float) -> float:
        """Real decay rate G(w) = Gamma(w) + Gamma*(w); KMS for w < 0."""
        try:
            base = self.g_half(abs(omega))
        except Exception as exc:  # noqa: BLE001 - report as missing rate
            raise MissingRate(f"g_half undefined at |w| = {abs(omega)}: {exc}") from exc
        if base is None or not np.isfinite(base) or base < 0.0:
            raise MissingRate(f"g_half({abs(omega)}) = {base!r} is not a valid rate")
        g = 2.0 * float(base)
        if omega >= 0.0:
            return g
        return g * float(np.exp(omega * self.beta_B))

    def gamma(self, omega: float) -> complex:
        shift = 0.0 if self.lamb_shift is None else float(self.lamb_shift(omega))
        return 0.5 * self.G(omega) + 1j * shift


def flat_bath(gamma: float, beta_B: float) -> BathSpectrum:
    """Default model: flat rate G(w) = gamma for w >= 0, KMS below."""
    if gamma < 0.0:
        raise InvariantViolation("gamma must be nonnegative")
    return BathSpectrum(beta_B=beta_B, g_half=lambda _w: gamma / 2.0)


@dataclass(frozen=True)
class JumpOperatorSet:
    """Bohr frequencies and eigenoperators A(w) of a coupling observable."""

    frequencies: tuple[float, ...]
    operators: tuple[np.ndarray, ...]
    els: EnergyLevelStructure
    coupling: np.ndarray | None = None

    def __post_init__(self):
        freqs = tuple(float(w) for w in self.frequencies)
        if len(freqs) != len(self.operators):
            raise ShapeMismatch("one operator per frequency required")
        if list(freqs) != sorted(freqs):
            raise InvariantViolation("frequencies must be sorted ascending")
        dim = self.els.dim
        ops = []
        for op in self.operators:
            a = np.asarray(op, dtype=complex)
            if a.shape != (dim, dim):
                raise ShapeMismatch(f"operator shape {a.shape} != ({dim}, {dim})")
            a = a.copy()
            a.setflags(write=False)
            ops.append(a)
        scale = max(1.0, max(max_abs(a) for a in ops) if ops else 1.0)
        index = {w: k for k, w in enumerate(freqs)}
        for w, a in zip(freqs, ops):
            if -w not in index:
                raise InvariantViolation(f"mirror frequency {-w} missing for {w}")
            dev = max_abs(ops[index[-w]] - a.conj().T)
            if dev > 1e-12 * scale:
                raise InvariantViolation(f"A(-w) != A(w)^dag at w = {w} (dev {dev:.3e})")
        if self.coupling is not None:
            total = sum(ops) if ops else np.zeros((dim, dim), dtype=complex)
            dev = max_abs(total - np.asarray(self.coupling))
            if dev > 1e-12 * max(1.0, max_abs(np.asarray(self.coupling))):
                raise InvariantViolation(f"sum of eigenoperators misses A_S by {dev:.3e}")
        self._check_frequency_selection(freqs, ops)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "operators", tuple(ops))

    def _check_frequency_selection(self, freqs, ops) -> None:
        """pi_m A(w) pi_m' must vanish unless e_m' - e_m = w (within delta)."""
        els = self.els
        energies = np.array(els.energies)
        scale = max(1.0, float(np.max(np.abs(energies))))
        tol_w = max(els.cluster_width, 1e-9 * scale)
        projectors = els.projectors()
        for w, a in zip(freqs, ops):
            for m, pm in enumerate(projectors):
                for mp, pmp in enumerate(projectors):
                    if abs(energies[mp] - energies[m] - w) <= tol_w:
                        continue
                    leak = max_abs(pm @ a @ pmp)
                    if leak > 1e-12 * max(1.0, max_abs(a)):
                        raise InvariantViolation(
                            f"A({w}) leaks between levels {m} and {mp} (|.| = {leak:.3e})"
                        )

    def positive(self) -> list[tuple[float, np.ndarray]]:
        return [(w, a) for w, a in zip(self.frequencies, self.operators) if w > 0.0]


def eigenoperators(A_S: HermitianObservable, els: EnergyLevelStructure) -> JumpOperatorSet:
    """Decompose A_S into eigenoperators A(w) by projector sandwiching.

    Bohr frequencies are level-energy differences, merged when within the
    cluster width delta (near-degenerate mode).  Operators with max element
    below 1e-13 are dropped along with their frequencies.
    """
    if A_S.dim != els.dim:
        raise ShapeMismatch(f"coupling dimension {A_S.dim} != structure {els.dim}")
    v = els.basis_vectors
    a_eig = v.conj().T @ A_S.elements @ v
    energies = np.array(els.energies)
    n_levels = els.n_levels
    scale = max(1.0, float(np.max(np.abs(energies))))
    merge_tol = max(els.cluster_width, 1e-10 * scale)

    pairs = [(n, m, float(energies[m] - energies[n])) for n in range(n_levels) for m in range(n_levels)]
    diffs = sorted({d for _, _, d in pairs})
    groups: list[list[float]] = [[diffs[0]]]
    for d in diffs[1:]:
        if d - groups[-1][-1] > merge_tol:
            groups.append([d])
        else:
            groups[-1].append(d)

    starts = np.cumsum([0] + list(els.degeneracies))
    out_freqs: list[float] = []
    out_ops: list[np.ndarray] = []
    for group in groups:
        rep = float(np.mean(group))
        if abs(rep) <= merge_tol and 0.0 in group:
            rep = 0.0
        members = set(group)
        m_eig = np.zeros_like(a_eig)
        for n, m, d in pairs:
            if d in members:
                rn = slice(starts[n], starts[n + 1])
                rm = slice(starts[m], starts[m + 1])
                m_eig[rn, rm] = a_eig[rn, rm]
        op = v @ m_eig @ v.conj().T
        if max_abs(op) < ZERO_OPERATOR_TOL:
            continue
        out_freqs.append(rep)
        out_ops.append(op)
    return JumpOperatorSet(
        frequencies=tuple(out_freqs),
        operators=tuple(out_ops),
        els=els,
        coupling=A_S.elements,
    )


@dataclass(frozen=True)
class LindbladGenerator:
    """Explicit superoperator matrix acting on row-stacked density matrices.

    ``propagate`` is the one finite-time exp(t L), through an eig of L cached on first use.
    """

    superoperator: np.ndarray
    els: EnergyLevelStructure
    bath: BathSpectrum
    jumps: JumpOperatorSet | None = None

    def __post_init__(self):
        L = np.asarray(self.superoperator, dtype=complex)
        d2 = self.els.dim ** 2
        if L.shape != (d2, d2):
            raise ShapeMismatch(f"superoperator shape {L.shape} != ({d2}, {d2})")
        vec_id = np.eye(self.els.dim, dtype=complex).reshape(-1)
        drift = max_abs(vec_id @ L)
        if drift > 1e-10 * max(1.0, max_abs(L)):
            raise InvariantViolation(f"generator does not preserve the trace ({drift:.3e})")
        L = L.copy()
        L.setflags(write=False)
        object.__setattr__(self, "superoperator", L)

    @property
    def dim(self) -> int:
        return self.els.dim

    @property
    def norm_inf(self) -> float:
        return float(np.max(np.sum(np.abs(self.superoperator), axis=1)))

    def apply(self, rho: DensityMatrix | np.ndarray) -> np.ndarray:
        m = rho.elements if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
        d = self.dim
        return (self.superoperator @ m.reshape(-1)).reshape(d, d)

    @cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(w, V, V^-1) with L = V diag(w) V^-1, or None when L is not diagonalizable."""
        L = self.superoperator
        try:
            w, v = np.linalg.eig(L)
            vinv = np.linalg.inv(v)
        except np.linalg.LinAlgError:
            return None
        resid = max_abs((v * w) @ vinv - L)
        if np.isfinite(resid) and resid <= 1e-9 * max(1.0, max_abs(L)):
            return w, v, vinv
        return None

    def propagate(self, vec0: np.ndarray, times: Sequence[float]) -> list[np.ndarray]:
        """exp(t L) vec0 for each t of any sign and order; expm steps if L is defective."""
        if self._eig is not None:
            w, v, vinv = self._eig
            coeffs = vinv @ vec0
            return [v @ (np.exp(w * t) * coeffs) for t in times]
        out = []
        current, t_prev = vec0, 0.0
        for t in times:
            current = scipy.linalg.expm(self.superoperator * (t - t_prev)) @ current
            t_prev = t
            out.append(current)
        return out


def dissipator_superoperator(
    ops_with_gamma: Sequence[tuple[np.ndarray, complex]], dim: int
) -> np.ndarray:
    """sum_k { Gamma_k [A X Ad - AdA X] + Gamma_k* [A X Ad - X AdA] } as a matrix."""
    eye = np.eye(dim, dtype=complex)
    L = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a, gam in ops_with_gamma:
        ada = a.conj().T @ a
        sandwich = np.kron(a, a.conj())
        L += gam * (sandwich - np.kron(ada, eye))
        L += np.conj(gam) * (sandwich - np.kron(eye, ada.T))
    return L


def build_generator(jumps: JumpOperatorSet, bath: BathSpectrum) -> LindbladGenerator:
    """Assemble the secular generator of the master equation as a superoperator."""
    dim = jumps.els.dim
    terms = [(a, bath.gamma(w)) for w, a in zip(jumps.frequencies, jumps.operators)]
    L = dissipator_superoperator(terms, dim)
    return LindbladGenerator(superoperator=L, els=jumps.els, bath=bath, jumps=jumps)


def build_collective_generator(
    A_S: HermitianObservable, els: EnergyLevelStructure, bath: BathSpectrum
) -> LindbladGenerator:
    return build_generator(eigenoperators(A_S, els), bath)


def build_multichannel_generator(
    couplings: Sequence[HermitianObservable],
    els: EnergyLevelStructure,
    bath: BathSpectrum,
) -> LindbladGenerator:
    """Independent dissipation: one secular channel per coupling observable.

    Channels see the same bath spectrum but are mutually uncorrelated, so
    their dissipators add.  Used for the independent-dissipation baseline
    (local couplings) contrasted with a single collective channel.
    """
    dim = els.dim
    L = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a_s in couplings:
        jumps = eigenoperators(a_s, els)
        terms = [(a, bath.gamma(w)) for w, a in zip(jumps.frequencies, jumps.operators)]
        L += dissipator_superoperator(terms, dim)
    return LindbladGenerator(superoperator=L, els=els, bath=bath, jumps=None)


def _check_horizon(els: EnergyLevelStructure, t_max: float) -> None:
    if els.cluster_width > 0.0 and t_max > els.horizon * (1 + 1e-12):
        raise HorizonExceeded(
            f"t = {t_max} exceeds near-degenerate validity horizon {els.horizon:.6g}"
        )


def evolve(
    gen: LindbladGenerator, rho0: DensityMatrix, times: Sequence[float]
) -> list[DensityMatrix]:
    """rho(t) = exp(t L) rho0 by ``gen.propagate`` for each t in a sorted nonnegative list."""
    ts = [float(t) for t in times]
    if any(t < 0 for t in ts) or ts != sorted(ts):
        raise InvariantViolation("times must be sorted and nonnegative")
    if rho0.dim != gen.dim:
        raise ShapeMismatch(f"state dimension {rho0.dim} != generator {gen.dim}")
    if ts:
        _check_horizon(gen.els, max(ts))
    out: list[DensityMatrix] = []
    for t, vec in zip(ts, gen.propagate(rho0.elements.reshape(-1), ts)):
        if t == 0.0:
            out.append(rho0)
            continue
        m = vec.reshape(gen.dim, gen.dim)
        try:
            out.append(cleaned_state(m, rho0.basis_labels, drift_tol=1e-8))
        except InvariantViolation as exc:
            raise NumericalFailure(f"invariant drift at t = {t}: {exc}") from exc
    return out


def short_time_state(gen: LindbladGenerator, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """First-order expansion rho0 + t L rho0 (valid for t ||L|| <= 0.01)."""
    if t < 0:
        raise InvariantViolation("t must be nonnegative")
    if t * gen.norm_inf > SHORT_TIME_LIMIT * (1 + 1e-12):
        raise ExpansionInvalid(
            f"t * ||L|| = {t * gen.norm_inf:.3e} exceeds {SHORT_TIME_LIMIT}"
        )
    if t == 0.0:
        return rho0
    m = rho0.elements + t * gen.apply(rho0)
    return cleaned_state(m, rho0.basis_labels, drift_tol=max(1e-8, 10 * t * t * gen.norm_inf ** 2))


def _kernel_bases(gen: LindbladGenerator) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal right and left kernel bases of the superoperator."""
    L = gen.superoperator
    _, s, vh = np.linalg.svd(L)
    cut = KERNEL_SV_RATIO * s[0] if s[0] > 0 else KERNEL_SV_RATIO
    right = vh[s < cut].conj().T
    _, s2, vh2 = np.linalg.svd(L.conj().T)
    cut2 = KERNEL_SV_RATIO * s2[0] if s2[0] > 0 else KERNEL_SV_RATIO
    left = vh2[s2 < cut2].conj().T
    if right.shape[1] == 0 or right.shape[1] != left.shape[1]:
        raise DiagonalizationFailure(
            f"kernel dimensions mismatch: right {right.shape[1]}, left {left.shape[1]}"
        )
    return right, left


def asymptotic_state(gen: LindbladGenerator, rho0: DensityMatrix) -> DensityMatrix:
    """lim_{t->inf} exp(t L) rho0 via the spectral projector onto ker L."""
    right, left = _kernel_bases(gen)
    m = left.conj().T @ right
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > 1e10:
        raise DiagonalizationFailure(f"defective zero eigenspace (cond {cond:.3e})")
    coeffs = np.linalg.solve(m, left.conj().T @ rho0.elements.reshape(-1))
    vec = right @ coeffs
    return cleaned_state(vec.reshape(gen.dim, gen.dim), rho0.basis_labels, drift_tol=1e-7)


def stationary_kernel_dimension(gen: LindbladGenerator) -> int:
    right, _ = _kernel_bases(gen)
    return right.shape[1]


def steady_states(gen: LindbladGenerator) -> list[DensityMatrix]:
    """Hermitian, positive, unit-trace states spanning the stationary manifold.

    The kernel of L is closed under conjugate transpose, so it admits a basis
    of Hermitian matrices; each is turned into a state directly when definite,
    otherwise by mixing with the maximally-mixed asymptotic state.
    """
    dim = gen.dim
    right, _ = _kernel_bases(gen)
    herm: list[np.ndarray] = []
    for k in range(right.shape[1]):
        mat = right[:, k].reshape(dim, dim)
        for cand in (0.5 * (mat + mat.conj().T), 0.5j * (mat - mat.conj().T)):
            vec = cand.reshape(-1)
            for h in herm:
                hv = h.reshape(-1)
                vec = vec - (hv.conj() @ vec) * hv
            norm = np.linalg.norm(vec)
            if norm > 1e-8:
                herm.append((vec / norm).reshape(dim, dim))
    labels = gen.els.basis_labels
    mixed = DensityMatrix(np.eye(dim, dtype=complex) / dim, labels)
    base = asymptotic_state(gen, mixed)
    states: list[DensityMatrix] = [base]
    for h in herm:
        tr = float(np.trace(h).real)
        candidates = []
        if abs(tr) > 1e-10:
            candidates.append(h / tr)
        direction = h - tr * base.elements
        if max_abs(direction) > 1e-10:
            t_max = max_admissible_amplitude(base.elements, direction)
            if t_max > 0:
                candidates.append(base.elements + 0.9 * t_max * direction)
        for cand in candidates:
            lam = np.linalg.eigvalsh(0.5 * (cand + cand.conj().T))
            if lam[0] < -1e-10:
                continue
            state = cleaned_state(cand, labels, drift_tol=1e-7)
            if all(max_abs(state.elements - s.elements) > 1e-8 for s in states):
                states.append(state)
    return states
