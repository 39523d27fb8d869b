"""Eigendecomposition budgets of the spectral kernel and of the propagator.

Every state functional comes from ``spectrum.state_functionals``, which needs
two eigendecompositions; these counts catch a second functional path.  Every
finite-time exp(t L) comes from ``LindbladGenerator.propagate``, which needs
one ``eig`` per generator and no ``expm`` when L is diagonalizable; the
per-config counts catch a second propagation path.
"""

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from cohentropy import (
    DensityMatrix,
    conservation_report,
    instantaneous_rates,
    sample_energy_conserving_unitary,
    thermal_state_of,
)
from cohentropy.scenarios import (
    coherent_prepared_state,
    config_from_json,
    run_scenario_config,
    thermal_operation_systems,
)
from conftest import random_density


@pytest.fixture
def eig_calls(monkeypatch):
    """Counter of np.linalg.eigh and np.linalg.eigvalsh calls."""
    calls = {"n": 0}
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _orig=getattr(np.linalg, name), **kwargs):
            calls["n"] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_instantaneous_rates_budget(two_qubit_collective, eig_calls):
    *_, els, gen = two_qubit_collective
    rho = DensityMatrix(random_density(els.dim, 3), els.basis_labels)
    eig_calls["n"] = 0
    instantaneous_rates(gen, rho)
    assert 1 <= eig_calls["n"] <= 3


@pytest.mark.parametrize("index", [0, 1])
def test_conservation_report_budget(eig_calls, index):
    _, sys_ = thermal_operation_systems()[index]
    rho_s = coherent_prepared_state(sys_.els_S, 0.7, seed=11)
    rho_b = thermal_state_of(sys_.els_B, 1.3)
    u = sample_energy_conserving_unitary(sys_, 4)
    eig_calls["n"] = 0
    conservation_report(sys_, u, rho_s, rho_b, 1.3)
    assert 1 <= eig_calls["n"] <= 24


PROPAGATION_BUDGET = {
    "collective": (1, 0),
    "near_degenerate": (2, 0),
    "otto": (4, 0),
    "reversal": (1, 0),
    "thermal_operation": (0, 0),
}


@pytest.mark.parametrize("name", sorted(PROPAGATION_BUDGET))
def test_shipped_config_propagation_budget(monkeypatch, name):
    """np.linalg.eig and scipy.linalg.expm calls of one shipped config."""
    calls = {"eig": 0, "expm": 0}
    for module, fn in ((np.linalg, "eig"), (scipy.linalg, "expm")):
        def counted(*args, _orig=getattr(module, fn), _fn=fn, **kwargs):
            calls[_fn] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(module, fn, counted)
    path = Path(__file__).parent.parent / "configs" / f"{name}.json"
    run_scenario_config(config_from_json(path.read_text()))
    assert (calls["eig"], calls["expm"]) == PROPAGATION_BUDGET[name]
