"""Secular Lindblad machinery: bath spectrum, eigenoperators, generator, evolution.

The master equation implemented here is the interaction-picture secular form

    drho/dt = sum_w Gamma(w) [A(w) rho A(w)^dag - A(w)^dag A(w) rho] + h.c.

with jump operators A(w) = sum_{e_n' - e_n = w} pi_n A_S pi_n' and
Gamma(w) = G(w)/2 + i * lamb_shift(w).  The bath obeys the KMS condition
G(-w) = G(w) exp(-w beta_B) by construction, so the thermal state at beta_B
is stationary.  The generator commutes with [H, .], so it is held as its
invariant blocks (the Bohr sectors) on row-stacked matrices in the labeled
eigenbasis, vec(A X B) = (A kron B^T) vec(X), and never as one d^2 x d^2 matrix.
A block's entries are evaluated only where a jump operator's nonzeros reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .exceptions import (
    DiagonalizationFailure,
    HorizonExceeded,
    InvariantViolation,
    MissingRate,
    NumericalFailure,
    ShapeMismatch,
)
from .qcore import DensityMatrix, HermitianObservable, _density_matrix, cleaned_states, max_abs
from .spectrum import EnergyLevelStructure, clustering_tolerance, gap_clusters

ZERO_OPERATOR_TOL = 1e-13
KERNEL_SV_RATIO = 1e-10


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
        with np.errstate(over="ignore"):  # an overflowing KMS factor is reported below
            g = 2.0 * float(base) * float(np.exp(min(omega, 0.0) * self.beta_B))
        if not np.isfinite(g):
            raise MissingRate(f"G({omega}) overflows to {g} at beta_B = {self.beta_B}")
        return g

    def gamma(self, omega: float) -> complex:
        shift = 0.0 if self.lamb_shift is None else float(self.lamb_shift(omega))
        return 0.5 * self.G(omega) + 1j * shift


def flat_bath(gamma: float, beta_B: float) -> BathSpectrum:
    """Default model: flat rate G(w) = gamma for w >= 0, KMS below."""
    if gamma < 0.0:
        raise InvariantViolation("gamma must be nonnegative")
    return BathSpectrum(beta_B=beta_B, g_half=lambda _w: gamma / 2.0)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class JumpOperatorSet:
    """Bohr frequencies and eigenoperators A(w) of a coupling observable, each
    in the labeled eigenbasis of ``els`` and exactly zero outside its level blocks."""

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
        ops = tuple(_frozen(op) for op in self.operators)
        if any(a.shape != (dim, dim) for a in ops):
            raise ShapeMismatch(f"operator shapes must be ({dim}, {dim})")
        scale = max(1.0, max(max_abs(a) for a in ops) if ops else 1.0)
        index = {w: k for k, w in enumerate(freqs)}
        for w, a in zip(freqs, ops):
            if -w not in index:
                raise InvariantViolation(f"mirror frequency {-w} missing for {w}")
            dev = max_abs(ops[index[-w]] - a.conj().T)
            if dev > 1e-12 * scale:
                raise InvariantViolation(f"A(-w) != A(w)^dag at w = {w} (dev {dev:.3e})")
        if self.coupling is not None:
            coupling = self.els.to_labeled(np.asarray(self.coupling))
            dev = max_abs(sum(ops, np.zeros((dim, dim), dtype=complex)) - coupling)
            if dev > 1e-12 * max(1.0, max_abs(coupling)):
                raise InvariantViolation(f"sum of eigenoperators misses A_S by {dev:.3e}")
        self._check_frequency_selection(freqs, ops)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "operators", ops)

    def _check_frequency_selection(self, freqs, ops) -> None:
        """The block of A(w) from level m' to level m must vanish unless e_m' - e_m = w
        within ``clustering_tolerance``: one mask of the allowed level pairs per frequency."""
        els = self.els
        energies = np.array(els.energies)
        gaps = (energies[None, :] - energies[:, None]).ravel()[els.level_pair]
        tol_w = clustering_tolerance(gaps, els.cluster_width)
        for w, a in zip(freqs, ops):
            leak = np.where(np.abs(gaps - w) <= tol_w, 0.0, np.abs(a))
            if max_abs(leak) > 1e-12 * max(1.0, max_abs(a)):
                m, mp = els.level_of_index[list(np.unravel_index(np.argmax(leak), leak.shape))]
                raise InvariantViolation(
                    f"A({w}) leaks between levels {m} and {mp} (|.| = {max_abs(leak):.3e})"
                )

    def positive(self) -> list[tuple[float, np.ndarray]]:
        return [(w, a) for w, a in zip(self.frequencies, self.operators) if w > 0.0]


def eigenoperators(A_S: HermitianObservable, els: EnergyLevelStructure) -> JumpOperatorSet:
    """Decompose A_S into eigenoperators A(w) by masking its labeled level blocks.

    Bohr frequencies are the level differences grouped by ``gap_clusters`` at their
    ``clustering_tolerance`` (merged in near-degenerate mode).  Operators with max
    element below 1e-13 are dropped along with their frequencies.
    """
    if A_S.dim != els.dim:
        raise ShapeMismatch(f"coupling dimension {A_S.dim} != structure {els.dim}")
    a_eig = els.to_labeled(A_S.elements)
    energies = np.array(els.energies)
    # e_m - e_n of the level pair (n, m) at n * n_levels + m, the index of els.level_pair
    diffs = (energies[None, :] - energies[:, None]).ravel()
    width = clustering_tolerance(diffs, els.cluster_width)

    out_freqs, out_ops = [], []
    for group in gap_clusters(diffs, width):
        members = sorted(set(diffs[group].tolist()))
        rep = float(np.mean(members))
        if abs(rep) <= width and 0.0 in members:
            rep = 0.0
        op = np.where(np.isin(els.level_pair, group), a_eig, 0.0)
        if max_abs(op) < ZERO_OPERATOR_TOL:
            continue
        out_freqs.append(rep)
        out_ops.append(op)
    return JumpOperatorSet(tuple(out_freqs), tuple(out_ops), els, coupling=A_S.elements)


@dataclass(frozen=True)
class LindbladGenerator:
    """Sum over uncorrelated channels of their terms (A_k, Gamma_k),
    Gamma_k [A_k X A_k^dag - A_k^dag A_k X] + h.c., each A_k in the labeled
    eigenbasis of ``els``.  The terms are assembled once into ``blocks``, the one form
    of L: ``labeled_drift``, ``apply`` and ``propagate`` (the one finite-time exp(t L))
    all read them, and construction checks on them that L preserves the trace.
    """

    channels: tuple[tuple[tuple[np.ndarray, complex], ...], ...]
    els: EnergyLevelStructure
    bath: BathSpectrum
    jumps: JumpOperatorSet | None = None
    # ``_diagonalize`` result of each block ``propagate`` has applied, by block number
    _block_eigs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.dim
        channels = tuple(tuple((_frozen(a), complex(g)) for a, g in ch) for ch in self.channels)
        object.__setattr__(self, "channels", channels)
        if any(a.shape != (d, d) for ch in channels for a, _ in ch):
            raise ShapeMismatch(f"jump operator shapes must be ({d}, {d})")
        # Tr L X = 0 for every X: in each block, every column sums to 0 over the rows of the
        # diagonal pairs (i, i), the flat indices idx % (d + 1) == 0; a non-finite sum fails
        sums = [np.sum(b[idx % (d + 1) == 0], axis=0) for idx, b in self.blocks]
        drift = max_abs(np.concatenate(sums))
        if not drift <= 1e-10 * self._scale:
            raise InvariantViolation(f"generator does not preserve the trace ({drift:.3e})")

    @property
    def dim(self) -> int:
        return self.els.dim

    @cached_property
    def norm_inf(self) -> float:
        return max(float(np.max(np.sum(np.abs(b), axis=1))) for _, b in self.blocks)

    @cached_property
    def _scale(self) -> float:
        """max(1, max |L_ij|) over the assembled entries (1 where one is nan): the scale of
        the trace check and of every block's eig residual."""
        return self._assembly[1]

    def apply(self, m: np.ndarray) -> np.ndarray:
        """L m of one matrix or of each of a (T, d, d) stack in the input basis:
        V ``labeled_drift``(V^dag m V) V^dag."""
        v = self.els.basis_vectors
        return v @ self.labeled_drift(self.els.to_labeled(m)) @ v.conj().T

    def labeled_drift(self, r: np.ndarray) -> np.ndarray:
        """L r of one matrix or of each of a (T, d, d) stack in the labeled eigenbasis, by
        one stacked product per block, so that each matrix's drift is bitwise the one it gets
        alone."""
        flat = r.reshape(*r.shape[:-2], -1)
        out = np.empty_like(flat)
        for idx, block in self.blocks:
            out[..., idx] = np.matmul(flat[..., None, idx], block.T)[..., 0, :]
        return out.reshape(r.shape)

    @cached_property
    def blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(flat labeled index pairs i * d + j, block of L) per connected component of
        the level pairs (m, n), the Bohr sectors or their near-degenerate clusters.

        A X A^dag links (m', n') to (m, n) where A's level pattern P has P[m, m'] and
        P[n, n'], A^dag A X and X A^dag A where Q = P^T P has Q[m, m'] with n = n' or
        Q[n', n] with m = m'.  Entries follow the kron form term by term, channel by channel,
        at the pairs the jump operators' nonzeros reach; every other entry is zero.
        """
        return self._assembly[0]

    def _components(self) -> list[np.ndarray]:
        """Sorted flat labeled index pairs i * d + j of each connected component of the
        level pairs that the terms link."""
        d, nl = self.dim, self.els.n_levels
        member = np.eye(nl, dtype=int)[self.els.level_of_index]
        same = np.eye(nl, dtype=bool)
        link = np.zeros((nl, nl, nl, nl), dtype=bool)  # [m, n, m', n']
        for a, _ in (term for channel in self.channels for term in channel):
            p = member.T @ (a != 0) @ member > 0
            q = p.T.astype(int) @ p > 0
            link |= p[:, None, :, None] & p[None, :, None, :]
            link |= q[:, None, :, None] & same[None, :, None, :]
            link |= same[:, None, :, None] & q.T[None, :, None, :]
        link = link.reshape(nl * nl, nl * nl)
        link |= link.T
        level_pair = self.els.level_pair.ravel()
        unseen = np.ones(nl * nl, dtype=bool)
        out = []
        while unseen.any():
            comp = np.zeros_like(unseen)
            frontier = np.arange(nl * nl) == np.argmax(unseen)
            while frontier.any():
                comp |= frontier
                frontier = link[frontier].any(axis=0) & ~comp
            unseen &= ~comp
            out.append(np.flatnonzero(comp[level_pair]))
        return out

    @cached_property
    def _assembly(self) -> tuple[list[tuple[np.ndarray, np.ndarray]], float]:
        """(blocks, max(1, max |L_ij|)).  A term reaches (i j, i' j') by A[i, i'] A[j, j']^*,
        by (A^dag A)[i, i'] at j = j', and by (A^dag A)[j', j] at i = i'; those pairs,
        deduplicated, are evaluated at once with the dense kron expression and scattered
        into their component's block."""
        d = self.dim
        terms = [[(a, gam, a.conj().T @ a) for a, gam in channel] for channel in self.channels]
        keys = [np.zeros(0, dtype=np.int64)]  # row * d^2 + col of each reachable pair
        span = np.arange(d)
        for a, _, ada in (term for channel in terms for term in channel):
            p, q = np.nonzero(a)
            keys.append(((p[:, None] * d + p) * d * d + q[:, None] * d + q).ravel())
            p, q = np.nonzero(ada)
            keys.append(((p[:, None] * d + span) * d * d + q[:, None] * d + span).ravel())
            keys.append(((span[:, None] * d + q) * d * d + span[:, None] * d + p).ravel())
        keys = np.sort(np.concatenate(keys))
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[first]
        row, col = np.divmod(keys, d * d)
        (i, j), (ip, jp) = np.divmod(row, d), np.divmod(col, d)
        same_i, same_j = i == ip, j == jp
        total = np.zeros(len(keys), dtype=complex)
        for channel in terms:
            block = np.zeros_like(total)
            for a, gam, ada in channel:
                sandwich = a[i, ip] * a[j, jp].conj()
                block += gam * (sandwich - ada[i, ip] * same_j)
                block += np.conj(gam) * (sandwich - same_i * ada.T[j, jp])
            total = total + block
        components = self._components()
        sizes = np.array([len(idx) for idx in components])
        offsets = np.concatenate([[0], np.cumsum(sizes * sizes)])
        comp_of, pos = np.zeros(d * d, dtype=int), np.zeros(d * d, dtype=int)
        for c, idx in enumerate(components):
            comp_of[idx], pos[idx] = c, np.arange(len(idx))
        comp = comp_of[row]
        stray = comp != comp_of[col]
        if stray.any():
            bad = np.argmax(stray)
            raise InvariantViolation(
                f"L links {row[bad]} and {col[bad]} across components "
                f"{comp[bad]} and {comp_of[col[bad]]}"
            )
        flat = np.zeros(offsets[-1], dtype=complex)
        flat[offsets[comp] + pos[row] * sizes[comp] + pos[col]] = total
        blocks = [
            (idx, flat[o : o + s * s].reshape(s, s))
            for idx, o, s in zip(components, offsets, sizes)
        ]
        return blocks, max(1.0, max_abs(total))

    def propagate(self, vec0: np.ndarray, times: Sequence[float]) -> np.ndarray:
        """exp(t L) vec0 for each t of any sign and order, row-stacked in the input basis:
        one row per t.

        vec0 goes to the labeled eigenbasis and back once.  Each block vec0 occupies goes
        through its cached eig, or takes expm steps between times when ``_diagonalize``
        rejects it.
        """
        ts = np.asarray(times, dtype=float)
        if not len(ts):
            raise ShapeMismatch("LindbladGenerator.propagate: the time list is empty")
        d, v = self.dim, self.els.basis_vectors
        x0 = self.els.to_labeled(np.asarray(vec0, dtype=complex).reshape(d, d)).reshape(-1)
        out = np.zeros((len(ts), d * d), dtype=complex)
        for k, (idx, block) in enumerate(self.blocks):
            x = x0[idx]
            if not x.any():
                continue
            if k not in self._block_eigs:
                self._block_eigs[k] = _diagonalize(block, 1e-9 * self._scale)
            out[:, idx] = _exp_series(block, self._block_eigs[k], x, ts)
        return (v @ out.reshape(-1, d, d) @ v.conj().T).reshape(len(ts), -1)


def _exp_series(block: np.ndarray, eig: tuple | None, x: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """exp(t block) x for each t, one row per t: through eig = (w, V, V^-1), or by
    expm steps between times when eig is None."""
    if eig is not None:
        w, vec, vinv = eig
        return (np.exp(np.outer(ts, w)) * (vinv @ x)) @ vec.T
    import scipy.linalg  # only a defective block needs scipy

    out = np.zeros((len(ts), len(x)), dtype=complex)
    for j, dt in enumerate(np.diff(ts, prepend=0.0)):
        with np.errstate(over="ignore", invalid="ignore"):  # callers report a lost state
            x = scipy.linalg.expm(block * dt) @ x
        out[j] = x
    return out


def _diagonalize(block: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(w, V, V^-1) with block = V diag(w) V^-1 to within tol, or None when it is defective
    or so near it that eps cond_1(V), the rounding V exp(t w) V^-1 adds to a unit vector,
    exceeds 1e-9, or when the residual is not finite (an overflowing V diag(w) V^-1)."""
    try:
        w, v = np.linalg.eig(block)
        vinv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual rejects
        resid = max_abs((v * w) @ vinv - block)
        kappa = np.linalg.norm(v, 1) * np.linalg.norm(vinv, 1)
    return (w, v, vinv) if resid <= tol and np.finfo(float).eps * kappa <= 1e-9 else None


def build_generator(
    couplings: Sequence[HermitianObservable],
    els: EnergyLevelStructure,
    bath: BathSpectrum,
) -> LindbladGenerator:
    """The secular generator with one dissipation channel per coupling observable.

    Channels see the same bath spectrum but are mutually uncorrelated, so
    their dissipators add, in channel order: one collective coupling, or the
    local couplings of the independent-dissipation baseline.  The generator
    keeps the jump operators (``jumps``) of a single channel, none of several.
    """
    jump_sets = [eigenoperators(a_s, els) for a_s in couplings]
    channels = tuple(
        tuple((a, bath.gamma(w)) for w, a in zip(jumps.frequencies, jumps.operators))
        for jumps in jump_sets
    )
    jumps = jump_sets[0] if len(jump_sets) == 1 else None
    return LindbladGenerator(channels=channels, els=els, bath=bath, jumps=jumps)


def _check_horizon(els: EnergyLevelStructure, t_max: float) -> None:
    if els.cluster_width > 0.0 and t_max > els.horizon * (1 + 1e-12):
        raise HorizonExceeded(
            f"t = {t_max} exceeds near-degenerate validity horizon {els.horizon:.6g}"
        )


def evolve(gen: LindbladGenerator, rho0: DensityMatrix, times: Sequence[float]) -> np.ndarray:
    """rho(t) = exp(t L) rho0 by ``gen.propagate`` for each t in a sorted nonnegative list:
    the read-only (T, d, d) stack of the states, whose rows at t = 0 are rho0's elements."""
    ts = [float(t) for t in times]
    if any(t < 0 for t in ts) or ts != sorted(ts):
        raise InvariantViolation("times must be sorted and nonnegative")
    if rho0.dim != gen.dim:
        raise ShapeMismatch(f"state dimension {rho0.dim} != generator {gen.dim}")
    if ts:
        _check_horizon(gen.els, max(ts))
    states = gen.propagate(rho0.elements.reshape(-1), ts).reshape(-1, gen.dim, gen.dim)
    first = ts.count(0.0)  # rho0 itself at t = 0, the sorted times' prefix
    lost = ~np.isfinite(states).all(axis=(-2, -1))
    if lost.any():
        raise NumericalFailure(f"propagated state is not finite at t = {ts[int(np.argmax(lost))]}")
    try:
        states[first:] = cleaned_states(states[first:], 1e-8)
    except InvariantViolation as exc:
        raise NumericalFailure(f"invariant drift at t = {ts[first + exc.index]}: {exc}") from exc
    states[:first] = rho0.elements
    states.setflags(write=False)
    return states


def asymptotic_state(gen: LindbladGenerator, rho0: DensityMatrix) -> DensityMatrix:
    """lim_{t->inf} exp(t L) rho0 via the spectral projector onto ker L, per occupied
    block; the kernel cut is KERNEL_SV_RATIO times the largest singular value of L."""
    s_max = max(np.linalg.svd(b, compute_uv=False)[0] for _, b in gen.blocks)
    cut = KERNEL_SV_RATIO * s_max if s_max > 0 else KERNEL_SV_RATIO
    x0 = gen.els.to_labeled(rho0.elements).reshape(-1)
    out = np.zeros_like(x0)
    for idx, block in gen.blocks:
        if not x0[idx].any():
            continue
        # orthonormal right and left kernel bases, as columns
        svds = map(np.linalg.svd, (block, block.conj().T))
        right, left = (vh[s < cut].conj().T for _, s, vh in svds)
        if right.shape[1] != left.shape[1]:
            raise DiagonalizationFailure(
                f"kernel dimensions mismatch: right {right.shape[1]}, left {left.shape[1]}"
            )
        if right.shape[1]:
            m = left.conj().T @ right
            cond = np.linalg.cond(m)
            if not np.isfinite(cond) or cond > 1e10:
                raise DiagonalizationFailure(f"defective zero eigenspace (cond {cond:.3e})")
            out[idx] = right @ np.linalg.solve(m, left.conj().T @ x0[idx])
    if not out.any():
        raise DiagonalizationFailure("the state has no weight on the kernel of L")
    v, d = gen.els.basis_vectors, gen.dim
    (m,) = cleaned_states((v @ out.reshape(d, d) @ v.conj().T)[None], 1e-7)
    return _density_matrix(m)
