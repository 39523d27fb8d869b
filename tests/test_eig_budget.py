"""Eigendecomposition budgets of the spectral kernel and of the propagator.

Every state functional comes from ``spectrum.state_functionals``, which needs
two eigendecompositions, or one for a state without vertical coherence, whose
block-diagonal cut is the state itself; these counts catch a second functional path, and
the complementarity report, which reads only populations, needs none.  A
state the library derives from validated ones (a thermal operation's outputs,
a finite-difference shift) is validated by the kernel from those two
decompositions, and a thermal state from its known Boltzmann weights, so
neither pays a decomposition of its own.  Every
finite-time exp(t L) comes from ``LindbladGenerator.propagate``, which needs
one ``eig`` per occupied block of L, or of the block's Krylov matrix above
``KRYLOV_MAX_DIM`` rows, and no ``expm`` when that matrix is diagonalizable;
the per-config counts catch a second propagation path, and a thermal start
must decompose a small Krylov matrix of its one Bohr sector only, also at a
nearly defective cold bath.  Each evolved state is validated with one eigvalsh.
"""

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from cohentropy import (
    DensityMatrix,
    SpinEnsembleSpec,
    build_generator,
    collective_coupling,
    complementarity_report,
    decompose_series,
    evolve,
    flat_bath,
    state_functionals,
    thermal_state_of,
)
from cohentropy.thermalops import horizontal_pattern
from cohentropy.thermo import check_rates_by_finite_differences
from cohentropy.scenarios import (
    coherent_prepared_states,
    config_from_json,
    conservation_scan,
    run_scenario_config,
    thermal_operation_systems,
)
from conftest import random_density, rates_of, seeded_unitary, single_report


@pytest.fixture
def eig_calls(monkeypatch):
    """Counter of the matrices np.linalg.eigh and np.linalg.eigvalsh decompose: a call
    counts the product of its leading dimensions, so a batched call hides no work."""
    calls = {"n": 0}
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _orig=getattr(np.linalg, name), **kwargs):
            calls["n"] += int(np.prod(np.shape(a)[:-2]))
            return _orig(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_instantaneous_rates_budget(two_qubit_collective, eig_calls):
    *_, els, gen = two_qubit_collective
    rho = DensityMatrix(random_density(els.dim, 3))
    eig_calls["n"] = 0
    rates_of(gen, rho.elements)
    assert 1 <= eig_calls["n"] <= 3


@pytest.mark.parametrize("index", [0, 1])
def test_conservation_report_budget(eig_calls, index):
    _, sys_ = thermal_operation_systems()[index]
    (rho_s,) = coherent_prepared_states(sys_.els_S, 0.7, [11])
    rho_b = thermal_state_of(sys_.els_B, 1.3)
    u = seeded_unitary(sys_, 4)
    eig_calls["n"] = 0
    single_report(sys_, u, rho_s, rho_b, 1.3)
    assert eig_calls["n"] == 11  # two kernel decompositions for each of five states, one for rho_B


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("beta_0, per_seed", [(0.7, 12), (None, 6)])
def test_conservation_scan_budget(eig_calls, index, beta_0, per_seed):
    """A 32-seed scan, one stacked pass, decomposes the thermal rho_B once and, per seed,
    the prepared state's own matrices, two for a coherent state and one for a diagonal
    state, and the kernel's: two for each of the five states of a coherent input, and one
    for each of the five of a diagonal input, none of which has vertical coherence."""
    _, sys_ = thermal_operation_systems()[index]
    rho_b = thermal_state_of(sys_.els_B, 1.3)
    eig_calls["n"] = 0
    conservation_scan(sys_, range(32), rho_b, 1.3, beta_0=beta_0)
    assert eig_calls["n"] == 32 * per_seed + 1


@pytest.mark.parametrize("index", [0, 1])
def test_coherent_prepared_state_budget(eig_calls, index):
    """One eigvalsh for the coherence pattern's spread and one validating the sum: the
    thermal base's lowest eigenvalue is its smallest Boltzmann weight."""
    _, sys_ = thermal_operation_systems()[index]
    eig_calls["n"] = 0
    coherent_prepared_states(sys_.els_S, 0.7, [11])
    assert eig_calls["n"] == 2


def test_kernel_reuses_the_spectrum_without_vertical_coherence(two_qubit_collective, eig_calls):
    """A state with horizontal coherence only is its own block-diagonal cut: one eigh; a
    state with vertical coherence takes a second for its cut."""
    *_, els, _ = two_qubit_collective
    horizontal = thermal_state_of(els, 2.0).elements + 0.1 * horizontal_pattern(els).elements
    states = np.stack([horizontal, random_density(els.dim, 3)])
    eig_calls["n"] = 0
    f = state_functionals(states, els, 1.0)
    assert eig_calls["n"] == 3
    assert f.C_v[0] == 0.0 and f.C_h[0] > 0.0 and f.C_v[1] > 0.0


def test_thermal_state_budget(two_qubit_collective, eig_calls):
    *_, els, _ = two_qubit_collective
    eig_calls["n"] = 0
    thermal_state_of(els, 2.0)
    assert eig_calls["n"] == 0


def test_finite_difference_point_budget(two_qubit_collective, eig_calls):
    """One floor eigvalsh, then two kernel decompositions for each of four shifted states."""
    *_, els, gen = two_qubit_collective
    rho = DensityMatrix(random_density(els.dim, 3))
    snap = rates_of(gen, rho.elements, 1.0)
    eig_calls["n"] = 0
    points = [(1.0, rho.elements, snap)]
    assert check_rates_by_finite_differences(gen, points, raise_on_failure=False) == []
    assert eig_calls["n"] == 9


def test_complementarity_report_budget(two_qubit_collective, eig_calls):
    """The report reads populations off the snapshots and decomposes nothing."""
    *_, els, gen = two_qubit_collective
    series = decompose_series(gen, thermal_state_of(els, 2.0), [0.0, 0.5, 5.0, 50.0])
    eig_calls["n"] = 0
    rep = complementarity_report(series)
    assert rep.applicable and rep.energy_identity_ok.all()
    assert eig_calls["n"] == 0


def test_evolve_validates_each_state_once(two_qubit_collective, eig_calls):
    """One eigvalsh per evolved state: cleaned_states hands its spectrum to the validation."""
    *_, els, gen = two_qubit_collective
    rho0 = DensityMatrix(random_density(els.dim, 3))
    times = [0.1, 1.0, 5.0, 50.0]
    eig_calls["n"] = 0
    evolve(gen, rho0, times)
    assert eig_calls["n"] == len(times)


def test_decompose_series_budget(two_qubit_collective, eig_calls):
    """300 snapshots, past one chunk: two kernel decompositions each, one eigvalsh for each
    evolved state after t = 0, and nine for each of the 13 finite-difference points."""
    *_, els, gen = two_qubit_collective
    rho0 = DensityMatrix(random_density(els.dim, 3))
    eig_calls["n"] = 0
    decompose_series(gen, rho0, np.linspace(0.0, 50.0, 300))
    assert eig_calls["n"] == 2 * 300 + 299 + 9 * 13


PROPAGATION_BUDGET = {
    "collective": (1, 0),
    "near_degenerate": (2, 0),
    "otto": (4, 0),
    "reversal": (1, 0),
    "thermal_operation": (0, 0),
}
# Matrices eigh and eigvalsh decompose in one run of each shipped config.  No state of the
# reversal or the n = 2 collective run has vertical coherence, so the kernel decomposes
# each once; the thermal-operation run's incoherent inputs and rho_B's cut likewise.
EIG_BUDGET = {
    "collective": 195,
    "near_degenerate": 315,
    "otto": 28,
    "reversal": 216,
    "thermal_operation": 9315,
}


@pytest.fixture
def linalg_calls(monkeypatch):
    """Rows of each matrix np.linalg.eig and scipy.linalg.expm take, by function."""
    calls = {"eig": [], "expm": []}
    for module, fn in ((np.linalg, "eig"), (scipy.linalg, "expm")):
        def counted(a, *args, _orig=getattr(module, fn), _fn=fn, **kwargs):
            calls[_fn].append(len(a))
            return _orig(a, *args, **kwargs)
        monkeypatch.setattr(module, fn, counted)
    return calls


@pytest.mark.parametrize("name", sorted(PROPAGATION_BUDGET))
def test_shipped_config_propagation_budget(linalg_calls, eig_calls, name):
    """np.linalg.eig and scipy.linalg.expm calls of one shipped config, and the matrices
    np.linalg.eigh and np.linalg.eigvalsh decompose."""
    path = Path(__file__).parent.parent / "configs" / f"{name}.json"
    run_scenario_config(config_from_json(path.read_text()))
    assert (len(linalg_calls["eig"]), len(linalg_calls["expm"])) == PROPAGATION_BUDGET[name]
    assert eig_calls["n"] == EIG_BUDGET[name]


def test_thermal_start_decomposes_one_sector(linalg_calls):
    """n = 5: a thermal state lives in the 252-row population sector of the 1024 of L, and
    there in the span of the 12 (J^2, J_z) projectors: one eig of at most 12 rows (10 at
    beta_0 = 2), none of the sector."""
    system = collective_coupling(SpinEnsembleSpec(5, 0.5, 1.0))
    els = system.level_structure()
    gen = build_generator([system.A_S], els, flat_bath(0.1, 1.0))
    evolve(gen, thermal_state_of(els, 2.0), [0.5, 5.0, 50.0])
    assert len(linalg_calls["eig"]) == 1 and linalg_calls["eig"][0] <= 12
    assert linalg_calls["expm"] == []


def test_cold_bath_makes_no_expm(linalg_calls):
    """At beta_B = 30 the 252-row sector is too near defective for its own eig; its Krylov
    matrix is not, so no expm step is taken."""
    run_scenario_config(config_from_json('{"scenario": "collective-spins", "n": 5, "beta_B": 30}'))
    assert linalg_calls["expm"] == []
    assert linalg_calls["eig"] and all(rows <= 12 for rows in linalg_calls["eig"])
