"""Eigendecomposition budget of the callers of the spectral kernel.

Every state functional comes from ``spectrum.state_functionals``, which needs
two eigendecompositions; these counts catch a second functional path.
"""

import numpy as np
import pytest

from cohentropy import (
    DensityMatrix,
    conservation_report,
    instantaneous_rates,
    sample_energy_conserving_unitary,
    thermal_state_of,
)
from cohentropy.scenarios import coherent_prepared_state, thermal_operation_systems
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
