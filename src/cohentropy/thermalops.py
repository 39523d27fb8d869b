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
from typing import Sequence

import numpy as np

from .exceptions import InvariantViolation, ShapeMismatch, WitnessNotFound
from .qcore import (
    DensityMatrix,
    HermitianObservable,
    Verdict,
    max_abs,
    max_admissible_amplitude,
    tensor_labels,
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

FLAG_RHO_B_NOT_THERMAL = "rho_B-not-thermal"


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
        basis_labels=tensor_labels(els_S.basis_labels, els_B.basis_labels),
    )


@dataclass(frozen=True)
class BipartiteSystem:
    """Two labeled level structures and the induced joint energy eigenspaces."""

    els_S: EnergyLevelStructure
    els_B: EnergyLevelStructure
    joint: EnergyLevelStructure

    @classmethod
    def build(cls, els_S: EnergyLevelStructure, els_B: EnergyLevelStructure) -> "BipartiteSystem":
        return cls(els_S=els_S, els_B=els_B, joint=combine_level_structures(els_S, els_B))

    @property
    def dims(self) -> tuple[int, int]:
        return (self.els_S.dim, self.els_B.dim)


@dataclass(frozen=True)
class EnergyConservingUnitary:
    """Unitary commuting with every joint energy projector Pi_k."""

    matrix: np.ndarray
    joint: EnergyLevelStructure

    def __post_init__(self):
        u = np.asarray(self.matrix, dtype=complex)
        dim = self.joint.dim
        if u.shape != (dim, dim):
            raise ShapeMismatch(f"unitary shape {u.shape} != ({dim}, {dim})")
        dev = max_abs(u.conj().T @ u - np.eye(dim))
        if dev > UNITARY_TOL * max(1.0, dim):
            raise InvariantViolation(f"matrix not unitary (deviation {dev:.3e})")
        comm = max_abs(np.where(self.joint.same_level, 0.0, self.joint.to_labeled(u)))
        if comm > UNITARY_TOL * max(1.0, dim):
            raise InvariantViolation(
                f"max_k ||[U, Pi_k]|| = {comm:.3e}: energy conservation violated"
            )
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "matrix", u)


def sample_energy_conserving_unitary(
    sys: BipartiteSystem, seed: int
) -> EnergyConservingUnitary:
    """Independent Haar block on each joint energy eigenspace, deterministic per seed."""
    rng = np.random.default_rng(seed)
    joint = sys.joint
    v = joint.basis_vectors
    blocks = np.zeros((joint.dim, joint.dim), dtype=complex)
    level = joint.level_of_index
    for k, l in enumerate(joint.degeneracies):
        g = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
        q, r = np.linalg.qr(g)
        phases = np.diag(r) / np.abs(np.diag(r))
        blocks[np.ix_(level == k, level == k)] = q * phases
    u = v @ blocks @ v.conj().T
    return EnergyConservingUnitary(matrix=u, joint=joint)


def apply_operation(
    sys: BipartiteSystem,
    U: EnergyConservingUnitary,
    rho_S: DensityMatrix,
    rho_B: DensityMatrix,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U (rho_S (x) rho_B) U^dag and its reduced states on S and B, as Hermitian arrays.

    Requires rho_B stationary, [H_B, rho_B] = 0: an a-thermal operation.  The map
    preserves positivity, so the outputs are validated where they are used, by
    ``state_functionals`` from its own spectrum.
    """
    hb = sys.els_B.hamiltonian().elements
    comm = max_abs(hb @ rho_B.elements - rho_B.elements @ hb)
    if comm > STATIONARITY_TOL * max(1.0, max_abs(hb)):
        raise InvariantViolation(
            f"rho_B not stationary: ||[H_B, rho_B]|| = {comm:.3e} (a-thermal conditions violated)"
        )
    final = U.matrix @ np.kron(rho_S.elements, rho_B.elements) @ U.matrix.conj().T
    rho_sb = 0.5 * (final + final.conj().T)
    r = rho_sb.reshape(sys.dims + sys.dims)
    rho_s, rho_b = np.einsum("ikjk->ij", r), np.einsum("kikj->ij", r)
    return rho_sb, 0.5 * (rho_s + rho_s.conj().T), 0.5 * (rho_b + rho_b.conj().T)


def _block_diagonal(m: np.ndarray, els: EnergyLevelStructure) -> np.ndarray:
    """sum_n pi_n m pi_n, by the ``same_level`` mask in the labeled eigenbasis."""
    v = els.basis_vectors
    out = v @ np.where(els.same_level, els.to_labeled(m), 0.0) @ v.conj().T
    return 0.5 * (out + out.conj().T)


@dataclass(frozen=True)
class CutQuantities:
    C_v: float
    C_h: float
    D_th: float


@dataclass(frozen=True)
class ConservationReport:
    """Before/after coherence bookkeeping and the checks (a)-(g).

    checks maps each check's short name to its Verdict; for the inequality checks
    the value is the left-hand side that must be >= -tol.  D_th quantities are
    measured against beta_B; when rho_B is not thermal at beta_B the S-local
    inequality (f) is not guaranteed by theory and the report carries a flag.
    """

    S_initial: CutQuantities
    S_final: CutQuantities
    B_initial: CutQuantities
    B_final: CutQuantities
    SB_initial: CutQuantities
    SB_final: CutQuantities
    correlated_initial: CutQuantities
    correlated_final: CutQuantities
    delta_E_S: float
    checks: dict[str, Verdict]
    flags: tuple[str, ...] = ()

    def verdicts(self) -> list[Verdict]:
        return list(self.checks.values())


def conservation_report(
    sys: BipartiteSystem,
    U: EnergyConservingUnitary,
    rho_S: DensityMatrix,
    rho_B: DensityMatrix,
    beta_B: float,
    tol: float = CHECK_TOL,
) -> ConservationReport:
    rho_sb_f, rho_s_f, rho_b_f = apply_operation(sys, U, rho_S, rho_B)
    rho_sb_0 = np.kron(rho_S.elements, rho_B.elements)
    pairs = (
        ((rho_S.elements, rho_s_f), sys.els_S),
        ((rho_B.elements, rho_b_f), sys.els_B),
        ((rho_sb_0, rho_sb_f), sys.joint),
    )
    (s0, sf), (b0, bf), (sb0, sbf) = (
        [CutQuantities(*map(float, cut)) for cut in zip(f.C_v, f.C_h, f.D_th)]
        for f in (state_functionals(pair, els, beta_B) for pair, els in pairs)
    )

    def correlated(sb: CutQuantities, s: CutQuantities, b: CutQuantities) -> CutQuantities:
        return CutQuantities(
            C_v=sb.C_v - s.C_v - b.C_v,
            C_h=sb.C_h - s.C_h - b.C_h,
            D_th=sb.D_th - s.D_th - b.D_th,
        )

    corr0 = correlated(sb0, s0, b0)
    corrf = correlated(sbf, sf, bf)

    h_s = sys.els_S.hamiltonian().elements
    delta_e_s = float(np.trace(h_s @ (rho_s_f - rho_S.elements)).real)

    factorized = np.kron(_block_diagonal(rho_S.elements, sys.els_S), rho_B.elements)
    factorization_dev = max_abs(_block_diagonal(rho_sb_0, sys.joint) - factorized)

    checks = (
        _eq("a:dCv_SB=0", sbf.C_v - sb0.C_v, tol),
        _eq("b:dCh_SB+dDth_SB=0", (sbf.C_h - sb0.C_h) + (sbf.D_th - sb0.D_th), tol),
        _eq("c:local_Cv_to_correlated", -(sf.C_v - s0.C_v) - (bf.C_v - b0.C_v) - corrf.C_v, tol),
        _eq("d:expanded_balance", -(sf.C_h - s0.C_h) - (bf.C_h - b0.C_h) - (sf.D_th - s0.D_th)
            - (bf.D_th - b0.D_th) - corrf.C_h - corrf.D_th, tol),
        _ge("e:-dCv_S>=0", -(sf.C_v - s0.C_v), tol),
        _ge("f:-dCh_S-dDth_S>=0", -(sf.C_h - s0.C_h) - (sf.D_th - s0.D_th), tol),
        _eq("g:initial_BD_factorizes", factorization_dev, FACTORIZATION_TOL),
    )
    flags: tuple[str, ...] = ()
    if max_abs(rho_B.elements - thermal_state_of(sys.els_B, beta_B).elements) > tol:
        flags = (FLAG_RHO_B_NOT_THERMAL,)
    return ConservationReport(
        S_initial=s0,
        S_final=sf,
        B_initial=b0,
        B_final=bf,
        SB_initial=sb0,
        SB_final=sbf,
        correlated_initial=corr0,
        correlated_final=corrf,
        delta_E_S=delta_e_s,
        checks={v.name: v for v in checks},
        flags=flags,
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
    """A concrete (U, rho_S, rho_B) where the populations diverge from equilibrium."""

    seed: int
    coherence_amplitude: float
    rho_S: DensityMatrix
    rho_B: DensityMatrix
    unitary: EnergyConservingUnitary
    report: ConservationReport
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
    D_th^S > 0, reading its report's verdict (f).
    """
    pattern = horizontal_pattern(sys.els_S)
    base = thermal_state_of(sys.els_S, beta_B)
    c = WITNESS_AMPLITUDE_FRACTION * max_admissible_amplitude(base.elements, pattern.elements)
    rho_s = DensityMatrix(base.elements + c * pattern.elements, base.basis_labels)
    rho_b = thermal_state_of(sys.els_B, beta_B)
    for seed in seeds:
        u = sample_energy_conserving_unitary(sys, seed)
        report = conservation_report(sys, u, rho_s, rho_b, beta_B)
        d_dth = report.S_final.D_th - report.S_initial.D_th
        d_ch = report.S_final.C_h - report.S_initial.C_h
        if -d_dth < -WITNESS_THRESHOLD:
            if not (report.checks["f:-dCh_S-dDth_S>=0"].passed and d_dth > 0):
                raise InvariantViolation(
                    "witness violates the consumption bound -dC_h >= dD_th > 0"
                )
            return DivergenceWitness(
                seed=seed,
                coherence_amplitude=c,
                rho_S=rho_s,
                rho_B=rho_b,
                unitary=u,
                report=report,
                delta_D_th_S=d_dth,
                delta_C_h_S=d_ch,
                delta_E_S=report.delta_E_S,
            )
    raise WitnessNotFound(
        f"no population-divergence witness among {len(list(seeds))} seeds"
    )
