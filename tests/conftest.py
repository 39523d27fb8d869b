import numpy as np
import pytest

from cohentropy import (
    DensityMatrix,
    HermitianObservable,
    ShapeMismatch,
    build_generator,
    build_level_structure,
    collective_coupling,
    flat_bath,
    SpinEnsembleSpec,
)
from cohentropy.qcore import (
    CLIP_FLOOR,
    SUPPORT_WEIGHT_TOL,
    Verdict,
    _check_relative_entropy,
    boltzmann_weights,
    chunks,
    dagger,
    diagonal_relative_entropy,
    entropy_of_spectrum,
    log_boltzmann_weights,
    log_of_spectrum,
)
from cohentropy.scenarios import CSV_HEADER
from cohentropy.thermo import (
    COMPLEMENTARITY_TOL,
    THERMAL_FIT_TOL,
    fit_inverse_temperature,
    instantaneous_rates,
    rate_rows,
)
from cohentropy.thermalops import (
    conservation_report,
    operation_rows,
    sample_energy_conserving_unitaries,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def matrix_log_on_support(rho) -> HermitianObservable:
    """Reference ln rho: U diag(ln lambda) U^dag on eigenvalues above the clip floor, 0 on
    the null space."""
    m = rho.elements if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    lam, vec = np.linalg.eigh(0.5 * (m + m.conj().T))
    out = (vec * log_of_spectrum(lam)) @ vec.conj().T
    return HermitianObservable(0.5 * (out + out.conj().T))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Reference -Tr rho ln rho from one eigvalsh, with 0 ln 0 = 0 at or below the clip
    floor."""
    lam = np.linalg.eigvalsh(rho.elements)
    lam = lam[lam > CLIP_FLOOR]
    return float(-np.sum(lam * np.log(lam)))


def relative_entropy_from_logs(
    sigma: np.ndarray,
    log_sigma: np.ndarray,
    log_rho: np.ndarray,
    rho_null: np.ndarray | None = None,
) -> float | np.ndarray:
    """Reference Tr sigma (ln sigma - ln rho) from logs on the supports, all in one basis, of
    one matrix or of each of a stack; +inf where sigma weighs more than SUPPORT_WEIGHT_TOL on
    the null-space projector ``rho_null`` of rho (None: rho has full support)."""
    val = np.trace(sigma @ (log_sigma - log_rho), axis1=-2, axis2=-1).real
    if rho_null is not None and rho_null.any():
        weight = np.trace(sigma @ rho_null, axis1=-2, axis2=-1).real
        val = np.where(weight > SUPPORT_WEIGHT_TOL, np.inf, val)
    _check_relative_entropy(val)
    return val if np.ndim(val) else float(val)


def dense_rate_rows(gen, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference ``rate_rows`` from formed (T, d, d) log matrices: each functional from the
    spectra of r = V^dag rho V, of its block-diagonal cut and of its populations, each rate
    the overlap Tr r_dot (ln X - ln Y) with r_dot = V^dag (L rho) V from ``gen.apply``, E_dot
    = Tr (L rho) H, and the divergence mark from the null-space projector of each rho."""
    els, beta = gen.els, gen.bath.beta_B
    m = 0.5 * (states + dagger(states))
    r = els.to_labeled(m)
    lam, u = np.linalg.eigh(r)
    lam_bd, u_bd = np.linalg.eigh(np.where(els.same_level, r, 0.0))
    pops = r.diagonal(axis1=-2, axis2=-1).real
    log_rho, log_bd = ((v * log_of_spectrum(x)[:, None, :]) @ dagger(v)
                       for x, v in ((lam, u), (lam_bd, u_bd)))
    log_p, log_w = log_of_spectrum(pops), log_boltzmann_weights(els.index_energies, beta)
    log_d, log_th = log_p[:, :, None] * np.eye(els.dim), np.diag(log_w)
    s, s_bd, s_d = (entropy_of_spectrum(x) for x in (lam, lam_bd, pops))
    e_s = (pops[:, None, :] @ els.index_energies[:, None])[:, 0, 0]
    with np.errstate(over="ignore"):
        f_d = e_s - s_d / beta if beta != 0.0 else np.full(len(m), np.nan)
    rho_dot = gen.apply(states)
    r_dot = els.to_labeled(rho_dot)

    def overlap(op: np.ndarray) -> np.ndarray:
        return np.trace(r_dot @ op, axis1=-2, axis2=-1).real

    table = np.column_stack((
        s, s_bd - s, s_d - s_bd, diagonal_relative_entropy(pops, log_p, log_w), e_s, f_d,
        -overlap(log_rho - log_th), overlap(log_rho - log_bd), overlap(log_bd - log_d),
        overlap(log_d - log_th),
        np.trace(rho_dot @ els.hamiltonian().elements, axis1=-2, axis2=-1).real,
    ))
    vecs = els.basis_vectors @ u
    null = (vecs * (lam <= CLIP_FLOOR)[:, None, :]) @ dagger(vecs)
    leak = np.max(np.abs(null @ rho_dot @ null), axis=(-2, -1)) > 1e-12
    return table, (np.max(np.abs(null), axis=(-2, -1)) > 0.5) & leak


def relative_entropy(sigma: DensityMatrix, rho: DensityMatrix) -> float:
    """Reference Tr sigma (ln sigma - ln rho) from the full matrices; +inf if supp(sigma)
    is not in supp(rho) (eigenvalues of rho at or below the clip floor count as null)."""
    if sigma.dim != rho.dim:
        raise ShapeMismatch(f"dimension mismatch {sigma.dim} != {rho.dim}")
    lam, vec = np.linalg.eigh(rho.elements)
    log_rho = (vec * log_of_spectrum(lam)) @ vec.conj().T
    log_sigma = matrix_log_on_support(sigma).elements
    null = vec[:, lam <= CLIP_FLOOR]
    return relative_entropy_from_logs(sigma.elements, log_sigma, log_rho, null @ null.conj().T)


def thermal_state(H: HermitianObservable, beta: float) -> DensityMatrix:
    """Reference exp(-beta H)/Z from an eigendecomposition of H."""
    lam, vec = np.linalg.eigh(H.elements)
    m = (vec * boltzmann_weights(lam, beta)) @ vec.conj().T
    return DensityMatrix(0.5 * (m + m.conj().T))


def dephase_diagonal(rho: DensityMatrix, els) -> DensityMatrix:
    """Reference diagonal cut: zero every off-diagonal element in the labeled eigenbasis."""
    if rho.dim != els.dim:
        raise ShapeMismatch(f"state dimension {rho.dim} != structure dimension {els.dim}")
    v = els.basis_vectors
    out = (v * els.to_labeled(rho.elements).diagonal().real) @ v.conj().T
    return DensityMatrix(0.5 * (out + out.conj().T))


def projector(els, n: int) -> np.ndarray:
    """pi_n = sum_i |n,i><n,i|, from the eigenbasis columns of level n."""
    block = els.basis_vectors[:, els.level_of_index == n]
    return block @ block.conj().T


def dephase_block_diagonal(rho: DensityMatrix, els) -> DensityMatrix:
    """Reference block-diagonal cut sum_n pi_n rho pi_n, independent of the level mask."""
    if rho.dim != els.dim:
        raise ShapeMismatch(f"state dimension {rho.dim} != structure dimension {els.dim}")
    pis = [projector(els, n) for n in range(els.n_levels)]
    out = sum(p @ rho.elements @ p for p in pis)
    return DensityMatrix(0.5 * (out + out.conj().T))


def partial_trace(rho_joint: DensityMatrix, dims: tuple[int, int], keep: str) -> DensityMatrix:
    """Reference reduced state on factor ``keep`` in {"A", "B"} of a bipartite state."""
    d_a, d_b = dims
    if d_a * d_b != rho_joint.dim:
        raise ShapeMismatch(f"dims {dims} incompatible with dimension {rho_joint.dim}")
    if keep not in ("A", "B"):
        raise ShapeMismatch(f"keep must be 'A' or 'B', got {keep!r}")
    r = rho_joint.elements.reshape(d_a, d_b, d_a, d_b)
    reduced = np.einsum("ikjk->ij", r) if keep == "A" else np.einsum("kikj->ij", r)
    return DensityMatrix(0.5 * (reduced + reduced.conj().T))


def dissipator_superoperator(ops_with_gamma, dim: int) -> np.ndarray:
    """Reference dense L: sum_k { Gamma_k [A X Ad - AdA X] + Gamma_k* [A X Ad - X AdA] }
    on row-stacked X, vec(A X B) = (A kron B^T) vec(X)."""
    eye = np.eye(dim, dtype=complex)
    L = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a, gam in ops_with_gamma:
        ada = a.conj().T @ a
        sandwich = np.kron(a, a.conj())
        L += gam * (sandwich - np.kron(ada, eye))
        L += np.conj(gam) * (sandwich - np.kron(eye, ada.T))
    return L


def dense_superoperator(gen) -> np.ndarray:
    """The reference L of a generator in the input basis, summed channel by channel."""
    v = gen.els.basis_vectors
    return sum(
        dissipator_superoperator([(v @ a @ v.conj().T, g) for a, g in channel], gen.dim)
        for channel in gen.channels
    )


def blocked_superoperator(gen) -> np.ndarray:
    """The generator's blocks scattered into one d^2 x d^2 matrix (labeled eigenbasis)."""
    L = np.zeros((gen.dim ** 2, gen.dim ** 2), dtype=complex)
    for idx, block in gen.blocks:
        L[np.ix_(idx, idx)] = block
    return L


def dense_blocks(gen) -> list[tuple[np.ndarray, np.ndarray]]:
    """Reference blocks of L, each entry of each block evaluated over all rows^2 positions:
    the components of the level pairs the terms link, then the kron form term by term,
    channel by channel, on every (row, col) of the component."""
    d, nl = gen.dim, gen.els.n_levels
    member = np.eye(nl, dtype=int)[gen.els.level_of_index]
    same = np.eye(nl, dtype=bool)
    link = np.zeros((nl, nl, nl, nl), dtype=bool)  # [m, n, m', n']
    for a, _ in (term for channel in gen.channels for term in channel):
        p = member.T @ (a != 0) @ member > 0
        q = p.T.astype(int) @ p > 0
        link |= p[:, None, :, None] & p[None, :, None, :]
        link |= q[:, None, :, None] & same[None, :, None, :]
        link |= same[:, None, :, None] & q.T[None, :, None, :]
    link = link.reshape(nl * nl, nl * nl)
    link |= link.T
    unseen = np.ones(nl * nl, dtype=bool)
    out = []
    while unseen.any():
        comp = np.zeros_like(unseen)
        frontier = np.arange(nl * nl) == np.argmax(unseen)
        while frontier.any():
            comp |= frontier
            frontier = link[frontier].any(axis=0) & ~comp
        unseen &= ~comp
        idx = np.flatnonzero(comp[gen.els.level_pair.ravel()])
        i, j = np.divmod(idx, d)
        same_i, same_j = i[:, None] == i[None, :], j[:, None] == j[None, :]
        total = np.zeros((len(idx), len(idx)), dtype=complex)
        for channel in gen.channels:
            block = np.zeros_like(total)
            for a, gam in channel:
                ada = a.conj().T @ a
                sandwich = a[np.ix_(i, i)] * a[np.ix_(j, j)].conj()
                block += gam * (sandwich - ada[np.ix_(i, i)] * same_j)
                block += np.conj(gam) * (sandwich - same_i * ada.T[np.ix_(j, j)])
            total = total + block
        out.append((idx, total))
    return out


def csv_reference(snapshots) -> str:
    """Reference CSV writer: the standard header, then each snapshot's fields t to
    rate_D_th written one cell at a time by format(x, ".17g"), then its flags."""
    names = CSV_HEADER.split(",")[:-1]
    lines = [CSV_HEADER]
    for s in snapshots:
        cells = [format(float(getattr(s, name)), ".17g") for name in names]
        lines.append(",".join([*cells, ";".join(s.flags)]))
    return "\n".join(lines) + "\n"


def seeded_unitary(sys_, seed: int) -> np.ndarray:
    """The (d, d) energy-conserving unitary of one seed: a stack of one."""
    return sample_energy_conserving_unitaries(sys_, [seed])[0]


def single_row(sys_, u: np.ndarray, rho_s: np.ndarray, rho_b, beta_b: float):
    """The OperationRow of one operation of the (d, d) arrays u and rho_s, measured by
    ``operation_rows`` as a stack of one."""
    (row,) = operation_rows(sys_, u[None], rho_s[None], rho_b, beta_b)
    return row


def single_report(sys_, u: np.ndarray, rho_s: np.ndarray, rho_b, beta_b: float):
    """The verdicts (a)-(g) of one operation, judged on its ``single_row``."""
    return conservation_report(single_row(sys_, u, rho_s, rho_b, beta_b))


def rates_of(gen, state: np.ndarray, t: float = 0.0):
    """The snapshot of one (d, d) state at time t, from its ``rate_rows`` row as a stack of
    one."""
    table, divergent = rate_rows(gen, state[None])
    return instantaneous_rates(gen.bath.beta_B, table[0].tolist(), bool(divergent[0]), t)


def complementarity_reference(series, tol: float = COMPLEMENTARITY_TOL):
    """Reference per-entry form of ``complementarity_report``: checks (i)-(iv) judged one
    snapshot pair (0, t) at a time in Python floats, a bound that is not active None, and
    the verdicts (i)-(v) counted over those entries.  Returns (entries, verdicts)."""
    els, first = series.els, series.snapshots[0]
    pops = np.concatenate([
        els.to_labeled(series.states[part]).diagonal(0, 1, 2).real
        for part in chunks(len(series.states), els.dim)
    ])
    beta0, residual = fit_inverse_temperature(pops[0], els)
    applicable = np.isfinite(beta0) and residual <= THERMAL_FIT_TOL
    backtracks = np.full(len(pops), np.nan)
    if applicable:
        log0 = log_boltzmann_weights(els.index_energies, beta0)
        backtracks[1:] = diagonal_relative_entropy(pops[1:], log_of_spectrum(pops[1:]), log0)
    entries = []
    for snap, backtrack in zip(series.snapshots[1:], backtracks[1:].tolist()):
        minus_dch = -(snap.C_h - first.C_h)
        minus_ddth = -(snap.D_th - first.D_th)
        weighted = float("nan")
        if applicable:
            weighted = (beta0 - series.beta_B) * (snap.E_S - first.E_S)
        resid = minus_ddth - (weighted - backtrack)
        reversal_active = weighted < 0.0
        generation_active = bool(applicable) and -minus_dch > tol
        entries.append(dict(
            minus_dCh=minus_dch,
            minus_dDth=minus_ddth,
            weighted_dE=weighted,
            backtrack=backtrack,
            energy_identity_residual=resid,
            sum_nonneg_ok=minus_dch + minus_ddth >= -tol,
            energy_identity_ok=abs(resid) <= tol,
            reversal_active=reversal_active,
            reversal_bound_ok=(minus_dch >= -weighted - tol) if reversal_active else None,
            generation_active=generation_active,
            generation_bound_ok=(weighted >= -minus_dch - tol) if generation_active else None,
        ))
    if not applicable:
        return entries, []
    initial_rate_ok = -first.rate_C_h + (beta0 - series.beta_B) * first.E_dot >= -tol
    checks = (
        ("i_sum_nonnegative", [e["sum_nonneg_ok"] for e in entries]),
        ("ii_energy_identity", [e["energy_identity_ok"] for e in entries]),
        ("iii_reversal_bound", [e["reversal_bound_ok"] for e in entries if e["reversal_active"]]),
        ("iv_generation_bound",
         [e["generation_bound_ok"] for e in entries if e["generation_active"]]),
        ("v_initial_rate", [initial_rate_ok]),
    )
    return entries, [Verdict(name, oks.count(False), 0, all(oks)) for name, oks in checks]


def random_density(dim: int, seed: int, rank: int | None = None) -> np.ndarray:
    """Random full-rank (or fixed-rank) density matrix via a Ginibre factor."""
    rng = np.random.default_rng(seed)
    k = rank or dim
    g = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    m = g @ g.conj().T
    return m / m.trace().real


@pytest.fixture(scope="session")
def qubit_system():
    """Non-degenerate qubit, sigma_x coupling, flat bath at beta_B = 1."""
    els = build_level_structure(HermitianObservable(np.diag([0.0, 1.0])))
    gen = build_generator([HermitianObservable(SX)], els, flat_bath(0.1, 1.0))
    return els, gen


@pytest.fixture(scope="session")
def two_qubit_collective():
    """Two resonant spins-1/2 with the collective coupling, beta_B = 1."""
    spec = SpinEnsembleSpec(2, 0.5, 1.0)
    system = collective_coupling(spec)
    els = system.level_structure()
    gen = build_generator([system.A_S], els, flat_bath(0.1, 1.0))
    return spec, system, els, gen
