"""Kernel characterization and Poisson solving on cube Laplacians.

The Laplacians here come from connected graphs, so the kernel is spanned
by the constant vector and Lu = f is solvable exactly when f sums to zero.
Kernel and pseudoinverse come from `spectra.eig_sym` and its kernel rule;
the balanced-sign-pattern search scans every f with equally many +1 and
-1 entries for the one of least Dirichlet energy.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .cubegraphs import tricube_laplacian
from .spectra import KERNEL_TOL, Spectrum, eig_sym, symmetric_entries


@dataclass(frozen=True)
class MinEnergyResult:
    n: int
    best_energy: float
    best_patterns: tuple
    norm_l2: float

    def energy_as_fraction(self) -> Fraction:
        """The best energy as the nearest fraction with denominator <= 10^6."""
        return Fraction(self.best_energy).limit_denominator(10**6)


def kernel_basis(L) -> list[np.ndarray]:
    """Unit kernel basis: the one constant direction, ||L v|| <= KERNEL_TOL * scale."""
    return kernel_from_spectrum(symmetric_entries(L), eig_sym(L))


def kernel_from_spectrum(entries: np.ndarray, spec: Spectrum) -> list[np.ndarray]:
    """`kernel_basis` of the Laplacian `entries` from its spectrum `spec`,
    for a caller that has already solved it."""
    idx = np.flatnonzero(spec.in_kernel())
    if idx.size != 1:
        raise ValueError(f"kernel dimension {idx.size}, expected 1 (connected graph)")
    v = spec.vectors[:, idx[0]]
    if v.sum() < 0:
        v = -v
    if np.linalg.norm(entries @ v) > KERNEL_TOL * spec.scale:
        raise ValueError("kernel vector fails the residual check")
    return [v]


def pseudoinverse(L) -> np.ndarray:
    """Moore-Penrose inverse from `eig_sym` (its routes and residual
    check), zeroing the eigenvalues `Spectrum.in_kernel` counts as zero."""
    spec = eig_sym(L)
    inv = np.divide(1.0, spec.values, out=np.zeros_like(spec.values), where=~spec.in_kernel())
    return (spec.vectors * inv) @ spec.vectors.T


def min_energy_search(n: int) -> MinEnergyResult:
    """Scan all balanced +-1 right-hand sides on the triangulated cube for
    the minimum Dirichlet energy.

    Patterns are reported as 0-based index tuples of the +1 entries; the
    winners always come in complement pairs (flipping f's sign leaves the
    energy unchanged).
    """
    if n > 4:
        raise ValueError(f"exhaustive search over C(2^{n}, 2^{n - 1}) patterns is too large")
    L = tricube_laplacian(n)
    N = L.N
    pinv = pseudoinverse(L)
    best_energy = None
    best_patterns: list[tuple] = []
    best_u = None
    for plus in combinations(range(N), N // 2):
        f = -np.ones(N)
        f[list(plus)] = 1.0
        energy = 0.5 * float(f @ pinv @ f)
        if best_energy is None or energy < best_energy - 1e-9:
            best_energy = energy
            best_patterns = [plus]
            best_u = pinv @ f
        elif abs(energy - best_energy) <= 1e-9:
            best_patterns.append(plus)
    return MinEnergyResult(
        n=n,
        best_energy=float(best_energy),
        best_patterns=tuple(sorted(best_patterns)),
        norm_l2=float(np.linalg.norm(best_u)),
    )
