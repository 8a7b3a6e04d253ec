from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from cubelab.cubegraphs import pow_tricube_laplacian, tricube_laplacian
from cubelab.harmonic import kernel_basis, min_energy_search
from cubelab.meshcotan import dirichlet_energy


def test_kernel_is_constant_direction():
    v = kernel_basis(tricube_laplacian(3))[0]
    assert np.allclose(v, np.ones(8) / np.sqrt(8.0), atol=1e-10)
    v = kernel_basis(pow_tricube_laplacian(2))[0]
    assert np.allclose(v, np.ones(9) / 3.0, atol=1e-10)
    v = kernel_basis(tricube_laplacian(1))[0]
    assert np.allclose(v, np.ones(2) / np.sqrt(2.0), atol=1e-12)


@pytest.fixture
def eigh_sizes(monkeypatch):
    """The orders of the matrices passed to np.linalg.eigh, in call order."""
    sizes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return sizes


def test_kernel_basis_solves_a_declared_factor(eigh_sizes):
    v = kernel_basis(pow_tricube_laplacian(3))[0]
    assert eigh_sizes == [3]
    assert np.allclose(v, np.ones(27) / np.sqrt(27.0), atol=1e-10)


def test_kernel_rejects_disconnected():
    L = np.kron(np.eye(2), [[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(ValueError):
        kernel_basis(L)


def test_energy_agrees_between_routes():
    """The energy f^T L^+ f / 2 vs the Dirichlet energy of the solution
    u = L^+ f, with numpy's pseudoinverse."""
    L = tricube_laplacian(3)
    pinv = np.linalg.pinv(L.entries.astype(float))
    for plus in combinations(range(8), 4):
        f = -np.ones(8)
        f[list(plus)] = 1.0
        direct = 0.5 * float(f @ pinv @ f)
        assert dirichlet_energy(L, pinv @ f) == pytest.approx(direct, abs=1e-10)


def test_min_energy_search_1():
    # L = [[1,-1],[-1,1]], f = (1,-1): u = f/2, energy = u.L.u/2 = 1/2
    result = min_energy_search(1)
    assert result.best_energy == Fraction(1, 2)
    assert result.best_patterns == ((0,), (1,))
    u = np.linalg.pinv(tricube_laplacian(1).entries.astype(float)) @ np.array([1.0, -1.0])
    assert np.allclose(u, [0.5, -0.5], atol=1e-12)


def test_min_energy_search_2():
    # parity f is the eigenvalue-4 eigenvector: energy = (1/2)*4/4 = 1/2
    result = min_energy_search(2)
    assert result.best_energy == Fraction(1, 2)
    assert result.best_patterns == ((0, 3), (1, 2))


def test_min_energy_search_3():
    result = min_energy_search(3)
    assert result.best_energy == Fraction(2, 3)
    assert result.best_patterns == ((0, 3, 5, 6), (1, 2, 4, 7))
    assert result.norm_l2 == pytest.approx(np.sqrt(2.0) / 3.0, abs=1e-10)


def test_min_energy_patterns_closed_under_complement():
    for n in (1, 2, 3):
        result = min_energy_search(n)
        patterns = set(result.best_patterns)
        full = set(range(2**n))
        for pattern in patterns:
            assert tuple(sorted(full - set(pattern))) in patterns


def test_min_energy_search_all_energies_positive():
    L = tricube_laplacian(3)
    pinv = np.linalg.pinv(L.entries.astype(float))
    energies = []
    for plus in combinations(range(8), 4):
        f = -np.ones(8)
        f[list(plus)] = 1.0
        energies.append(0.5 * float(f @ pinv @ f))
    assert len(energies) == 70
    assert min(energies) > 0.0
    # the parity patterns are strictly minimal
    second = sorted(set(round(e, 9) for e in energies))[1]
    assert second > 2.0 / 3.0 + 1e-9


def _dense_search(n):
    """The balanced patterns of least energy by a dense float search: f^T
    L^+ f / 2 for every pattern, with numpy's pseudoinverse, and ties
    within 1e-9."""
    L = tricube_laplacian(n)
    pinv = np.linalg.pinv(L.entries.astype(float))
    energies = {}
    for plus in combinations(range(L.N), L.N // 2):
        f = -np.ones(L.N)
        f[list(plus)] = 1.0
        energies[plus] = 0.5 * float(f @ pinv @ f)
    least = min(energies.values())
    return tuple(sorted(p for p, e in energies.items() if e <= least + 1e-9))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_min_energy_search_closed_form(n):
    # by Parseval the least energy is 2^n / (4n), at the parity pair only,
    # and ||L^+ f|| = sqrt(2^n) / (2n) there
    result = min_energy_search(n)
    assert result.best_energy == Fraction(2**n, 4 * n)
    parity = tuple(j for j in range(2**n) if j.bit_count() % 2 == 0)
    odd = tuple(j for j in range(2**n) if j.bit_count() % 2 == 1)
    assert result.best_patterns == tuple(sorted([parity, odd]))
    assert result.norm_l2 == pytest.approx(np.sqrt(2.0**n) / (2 * n), rel=1e-15, abs=0)
    assert result.best_patterns == _dense_search(n)


def test_min_energy_search_too_large():
    with pytest.raises(ValueError):
        min_energy_search(5)
