"""Bipartite energy-conserving unitaries and the coherence conservation laws.

An a-thermal operation is U rho_S (x) rho_B U^dag with [U, H_S + H_B] = 0 and
[H_B, rho_B] = 0; when rho_B is additionally thermal the operation is a
thermal operation.  Energy conservation makes U block-diagonal with respect
to the joint energy eigenspaces Pi_k, which conserves the joint
block-diagonal entropy and yields the conservation laws of vertical
coherences and of horizontal coherences plus population convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .exceptions import InvariantViolation, ShapeMismatch, WitnessNotFound
from .qcore import (
    DensityMatrix,
    HermitianObservable,
    Verdict,
    dagger,
    max_abs,
    max_admissible_amplitude,
)
from .spectrum import (
    EnergyLevelStructure,
    build_level_structure,
    state_functionals,
    thermal_state_of,
)

CHECK_TOL = 1e-9  # conservation laws (a)-(f); also no C_v from incoherent inputs
WITNESS_THRESHOLD = 1e-6  # the least effect that counts as a witness
WITNESS_AMPLITUDE_FRACTION = 0.95  # a witness's coherence, as a fraction of the largest admissible
FACTORIZATION_TOL = 1e-10
STATIONARITY_TOL = 1e-10
UNITARY_TOL = 1e-12


def combine_level_structures(
    els_S: EnergyLevelStructure, els_B: EnergyLevelStructure
) -> EnergyLevelStructure:
    """Joint level structure with eigenspaces of H_S + H_B (clusters of e_m + E_mu).

    The sums are clustered by ``build_level_structure`` of their diagonal matrix,
    whose permutation of the product basis carries over to the tensor product
    of the two labeled bases; degenerate joint transitions arise whenever
    different (m, mu) pairs produce the same sum.
    """
    sums = np.add.outer(els_S.index_energies, els_B.index_energies).ravel()
    joint = build_level_structure(HermitianObservable(np.diag(sums)))
    return replace(
        joint,
        basis_vectors=np.kron(els_S.basis_vectors, els_B.basis_vectors) @ joint.basis_vectors,
    )


@dataclass(frozen=True)
class BipartiteSystem:
    """Two level structures and the induced joint energy eigenspaces."""

    els_S: EnergyLevelStructure
    els_B: EnergyLevelStructure
    joint: EnergyLevelStructure

    @classmethod
    def build(cls, els_S: EnergyLevelStructure, els_B: EnergyLevelStructure) -> "BipartiteSystem":
        return cls(els_S=els_S, els_B=els_B, joint=combine_level_structures(els_S, els_B))

    @property
    def dims(self) -> tuple[int, int]:
        return (self.els_S.dim, self.els_B.dim)


def _checked_unitaries(u: np.ndarray, joint: EnergyLevelStructure) -> None:
    """The checks of a (T, d, d) stack of energy-conserving unitaries: the shape, and each
    matrix unitary and with no element between two levels of ``joint`` in its labeled basis,
    [U, Pi_k] = 0, to UNITARY_TOL max(1, d).  The InvariantViolation raised for the first
    matrix that fails carries its position in the stack as ``index``."""
    if u.ndim != 3 or u.shape[1:] != (joint.dim, joint.dim):
        raise ShapeMismatch(f"unitary stack shape {u.shape} != (T, {joint.dim}, {joint.dim})")
    tol = UNITARY_TOL * max(1.0, joint.dim)
    dev = np.max(np.abs(dagger(u) @ u - np.eye(joint.dim)), axis=(-2, -1))
    comm = np.max(np.abs(np.where(joint.same_level, 0.0, joint.to_labeled(u))), axis=(-2, -1))
    bad = (dev > tol) | (comm > tol)
    if bad.any():
        k = int(np.argmax(bad))
        exc = InvariantViolation(
            f"matrix not unitary (deviation {dev[k]:.3e})" if dev[k] > tol
            else f"max_k ||[U, Pi_k]|| = {comm[k]:.3e}: energy conservation violated"
        )
        exc.index = k
        raise exc


def sample_energy_conserving_unitaries(sys: BipartiteSystem, seeds: Sequence[int]) -> np.ndarray:
    """The unitary of each seed as a (T, d, d) stack: an independent Haar
    block on each joint energy eigenspace.  Seed s draws, from default_rng(s) and level by
    level, the real and then the imaginary part of a Gaussian block, whose QR with the
    phases of R's diagonal fixed is taken for all seeds at once.  ``operation_rows`` checks
    the stack where it is used."""
    joint = sys.joint
    sizes = joint.degeneracies
    n = 2 * sum(l * l for l in sizes)
    draws = np.array([np.random.default_rng(seed).standard_normal(n) for seed in seeds])
    blocks = np.zeros((len(draws), joint.dim, joint.dim), dtype=complex)
    start = offset = 0
    for l in sizes:
        g = draws[:, start:start + 2 * l * l].reshape(-1, 2, l, l)
        q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
        diag = r.diagonal(axis1=-2, axis2=-1)
        blocks[:, offset:offset + l, offset:offset + l] = q * (diag / np.abs(diag))[:, None, :]
        start, offset = start + 2 * l * l, offset + l
    v = joint.basis_vectors
    return v @ blocks @ dagger(v)


def _check_stationary(sys: BipartiteSystem, rho_B: DensityMatrix) -> None:
    """[H_B, rho_B] = 0 to STATIONARITY_TOL: the environment of an a-thermal operation."""
    hb = sys.els_B.hamiltonian().elements
    comm = max_abs(hb @ rho_B.elements - rho_B.elements @ hb)
    if comm > STATIONARITY_TOL * max(1.0, max_abs(hb)):
        raise InvariantViolation(
            f"rho_B not stationary: ||[H_B, rho_B]|| = {comm:.3e} (a-thermal conditions violated)"
        )


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a_k, b) of each matrix of a (T, m, m) stack: the outer product, reshaped."""
    t, m, n = len(a), a.shape[-1], b.shape[-1]
    return (a[:, :, None, :, None] * b[None, None, :, None, :]).reshape(t, m * n, m * n)


def _operate(
    sys: BipartiteSystem, u: np.ndarray, rho_s: np.ndarray, rho_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """rho_S (x) rho_B, U (rho_S (x) rho_B) U^dag and its reduced states on S and B, each a
    (T, ., .) stack of Hermitian arrays, for stacks of unitaries and of rho_S."""
    d_s, d_b = sys.dims
    joint0 = _kron(rho_s, rho_b)
    final = u @ joint0 @ dagger(u)
    rho_sb = 0.5 * (final + dagger(final))
    r = rho_sb.reshape(-1, d_s, d_b, d_s, d_b)
    rho_s_f, rho_b_f = np.einsum("tikjk->tij", r), np.einsum("tkikj->tij", r)
    return joint0, rho_sb, 0.5 * (rho_s_f + dagger(rho_s_f)), 0.5 * (rho_b_f + dagger(rho_b_f))


def _block_diagonal(m: np.ndarray, els: EnergyLevelStructure) -> np.ndarray:
    """sum_n pi_n m pi_n of each matrix of a stack, by the ``same_level`` mask in the labeled
    eigenbasis."""
    v = els.basis_vectors
    out = v @ np.where(els.same_level, els.to_labeled(m), 0.0) @ dagger(v)
    return 0.5 * (out + dagger(out))


class CutQuantities(NamedTuple):
    """The [C_v, C_h, D_th] cut of one state."""

    C_v: float
    C_h: float
    D_th: float


class OperationRow(NamedTuple):
    """The record of one operation: the cuts of S, B and SB, each before and after; Delta
    E_S; check (g)'s deviation of the initial joint block-diagonal cut from the product of
    the factors' cuts; and the Hermitian (d_S, d_S) array rho_S' of S after the operation."""

    S_initial: CutQuantities
    S_final: CutQuantities
    B_initial: CutQuantities
    B_final: CutQuantities
    SB_initial: CutQuantities
    SB_final: CutQuantities
    delta_E_S: float
    factorization_dev: float
    rho_S_final: np.ndarray


def operation_rows(
    sys: BipartiteSystem,
    U: np.ndarray,
    rho_S: np.ndarray,
    rho_B: DensityMatrix,
    beta_B: float,
) -> list[OperationRow]:
    """The OperationRow of U_k (rho_S,k (x) rho_B) U_k^dag for each k of a (T, d, d) stack of
    energy-conserving unitaries and one of checked states, from one stacked pass: the
    checks of the unitaries, the operation and its partial traces, one ``state_functionals``
    call on the 2T states before and after of each of S and SB and on rho_B and the T states
    of B after, and Delta E_S and check (g) as stacks.  rho_B's dimension, stationarity and
    cut, and H_S, are taken once.  A row is bitwise the one its operation gets alone.
    Requires a (d_B, d_B) rho_B and one state per unitary (ShapeMismatch otherwise); the map
    preserves positivity, so the states after are validated by ``state_functionals`` from its
    own spectrum."""
    t, (d_s, d_b), rho_b = len(U), sys.dims, rho_B.elements
    if rho_B.dim != d_b:
        raise ShapeMismatch(f"rho_B is {rho_B.dim}x{rho_B.dim}, the bath has d_B = {d_b}")
    _check_stationary(sys, rho_B)
    _checked_unitaries(U, sys.joint)
    if rho_S.shape != (t, d_s, d_s):
        raise ShapeMismatch(f"{t} unitaries need a ({t}, {d_s}, {d_s}) stack of states, "
                            f"got {rho_S.shape}")
    joint0, rho_sb, rho_s_f, rho_b_f = _operate(sys, U, rho_S, rho_b)

    def cuts_of(m: np.ndarray, els: EnergyLevelStructure) -> np.ndarray:
        f = state_functionals(m, els, beta_B)
        return np.stack((f.C_v, f.C_h, f.D_th), axis=-1)

    b = cuts_of(np.concatenate((rho_b[None], rho_b_f)), sys.els_B)  # rho_B once, then each after
    cuts = np.stack([
        cuts_of(np.concatenate((rho_S, rho_s_f)), sys.els_S).reshape(2, t, 3),
        np.stack((np.broadcast_to(b[0], (t, 3)), b[1:])),
        cuts_of(np.concatenate((joint0, rho_sb)), sys.joint).reshape(2, t, 3),
    ])  # (cut, before/after, k, quantity)
    h_s = sys.els_S.hamiltonian().elements
    delta_e_s = np.trace(h_s @ (rho_s_f - rho_S), axis1=-2, axis2=-1).real
    factorized = _kron(_block_diagonal(rho_S, sys.els_S), rho_b)
    factorization_dev = np.max(np.abs(_block_diagonal(joint0, sys.joint) - factorized), (-2, -1))
    columns = (cuts.transpose(2, 0, 1, 3).reshape(t, 6, 3), delta_e_s, factorization_dev)
    return [
        OperationRow(*map(CutQuantities._make, six), *rest, rho)
        for six, *rest, rho in zip(*(c.tolist() for c in columns), rho_s_f)
    ]


def conservation_report(row: OperationRow, tol: float = CHECK_TOL) -> tuple[Verdict, ...]:
    """The verdicts of checks (a)-(g) on one ``operation_rows`` row; for the inequality
    checks the value is the left-hand side that must be >= -tol.  The D_th quantities are
    measured against beta_B, so when rho_B is stationary but not thermal at beta_B the
    S-local inequality (f) is not guaranteed by theory."""
    s0, sf, b0, bf = row.S_initial, row.S_final, row.B_initial, row.B_final
    sb0, sbf = row.SB_initial, row.SB_final
    corr_v, corr_h, corr_d = (sb - s - b for sb, s, b in zip(sbf, sf, bf))  # of SB, final
    return (
        _eq("a:dCv_SB=0", sbf.C_v - sb0.C_v, tol),
        _eq("b:dCh_SB+dDth_SB=0", (sbf.C_h - sb0.C_h) + (sbf.D_th - sb0.D_th), tol),
        _eq("c:local_Cv_to_correlated", -(sf.C_v - s0.C_v) - (bf.C_v - b0.C_v) - corr_v, tol),
        _eq("d:expanded_balance", -(sf.C_h - s0.C_h) - (bf.C_h - b0.C_h) - (sf.D_th - s0.D_th)
            - (bf.D_th - b0.D_th) - corr_h - corr_d, tol),
        _ge("e:-dCv_S>=0", -(sf.C_v - s0.C_v), tol),
        _ge("f:-dCh_S-dDth_S>=0", -(sf.C_h - s0.C_h) - (sf.D_th - s0.D_th), tol),
        _eq("g:initial_BD_factorizes", row.factorization_dev, FACTORIZATION_TOL),
    )


def _eq(name: str, value: float, tol: float) -> Verdict:
    return Verdict(name, value, tol, abs(value) <= tol)


def _ge(name: str, value: float, tol: float) -> Verdict:
    return Verdict(name, value, -tol, value >= -tol)


def incoherent_input_verdicts(
    finals: Sequence[CutQuantities],
    tol: float = CHECK_TOL,
    threshold: float = WITNESS_THRESHOLD,
) -> list[Verdict]:
    """Over the final S cuts of incoherent (diagonal) inputs: no vertical coherence,
    and horizontal coherence generated, max C_h^S > threshold."""
    max_cv = max(f.C_v for f in finals)
    max_ch = max(f.C_h for f in finals)
    return [
        Verdict("max_final_C_v_from_incoherent", max_cv, tol, max_cv <= tol),
        Verdict("max_final_C_h_from_incoherent", max_ch, threshold, max_ch > threshold),
    ]


@dataclass(frozen=True)
class DivergenceWitness:
    """A concrete (U, rho_S) where, with rho_B thermal at beta_B, the populations diverge
    from equilibrium; ``row`` is its operation's record, rho_S' included."""

    seed: int
    coherence_amplitude: float
    rho_S: DensityMatrix
    unitary: np.ndarray
    row: OperationRow
    delta_D_th_S: float
    delta_C_h_S: float
    delta_E_S: float


def horizontal_pattern(els: EnergyLevelStructure) -> HermitianObservable:
    """|n,1><n,2| + h.c. on the first degenerate level: a unit horizontal coherence."""
    for n, l in enumerate(els.degeneracies):
        if l > 1:
            i, j = np.flatnonzero(els.level_of_index == n)[:2]
            x = np.outer(els.basis_vectors[:, i], els.basis_vectors[:, j].conj())
            return HermitianObservable(x + x.conj().T)
    raise InvariantViolation("level structure has no degenerate level")


def divergence_witness(
    sys: BipartiteSystem,
    seeds: range | list[int],
    beta_B: float,
) -> DivergenceWitness:
    """Search the seeded unitary family for -Delta D_th^S < -WITNESS_THRESHOLD.

    rho_S is the thermal state at beta_B plus the ``horizontal_pattern`` of S at
    WITNESS_AMPLITUDE_FRACTION of its largest admissible amplitude (the only
    initial resource: its diagonal is already at equilibrium, so any later
    distance from equilibrium is a reversal of the population convergence).
    The witness also certifies the consumption bound -Delta C_h^S >= Delta
    D_th^S > 0, reading verdict (f) of its row.
    """
    pattern = horizontal_pattern(sys.els_S)
    base = thermal_state_of(sys.els_S, beta_B)
    c = WITNESS_AMPLITUDE_FRACTION * max_admissible_amplitude(base.elements, pattern.elements)
    rho_s = DensityMatrix(base.elements + c * pattern.elements)
    rho_b = thermal_state_of(sys.els_B, beta_B)
    for seed in seeds:
        u = sample_energy_conserving_unitaries(sys, [seed])
        (row,) = operation_rows(sys, u, rho_s.elements[None], rho_b, beta_B)
        consumption = conservation_report(row)[5]  # f: -dC_h^S - dD_th^S >= 0
        d_dth = row.S_final.D_th - row.S_initial.D_th
        d_ch = row.S_final.C_h - row.S_initial.C_h
        if -d_dth < -WITNESS_THRESHOLD:
            if not (consumption.passed and d_dth > 0):
                raise InvariantViolation(
                    "witness violates the consumption bound -dC_h >= dD_th > 0"
                )
            return DivergenceWitness(
                seed=seed,
                coherence_amplitude=c,
                rho_S=rho_s,
                unitary=u[0],
                row=row,
                delta_D_th_S=d_dth,
                delta_C_h_S=d_ch,
                delta_E_S=row.delta_E_S,
            )
    raise WitnessNotFound(
        f"no population-divergence witness among {len(list(seeds))} seeds"
    )
