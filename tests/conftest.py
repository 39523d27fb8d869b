import numpy as np
import pytest

from cohentropy import (
    HermitianObservable,
    build_generator,
    build_level_structure,
    collective_coupling,
    flat_bath,
    SpinEnsembleSpec,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


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
    els = build_level_structure(HermitianObservable(np.diag([0.0, 1.0])), labels=("g", "e"))
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
