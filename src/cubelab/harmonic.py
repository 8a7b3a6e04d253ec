"""Kernel characterization and Poisson solving on cube Laplacians.

The Laplacians here come from connected graphs, so the kernel is spanned
by the constant vector and Lu = f is solvable exactly when f sums to zero.
The kernel comes from `spectra.eig_sym` and its kernel rule; the
balanced-sign-pattern search scans every f with equally many +1 and -1
entries, in exact Walsh arithmetic, for the one of least Dirichlet energy.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cubegraphs import tricube_laplacian
from .spectra import KERNEL_TOL, Spectrum, _fwht, eig_sym, symmetric_entries


@dataclass(frozen=True)
class MinEnergyResult:
    n: int
    best_energy: Fraction
    best_patterns: tuple
    norm_l2: float


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


def min_energy_search(n: int) -> MinEnergyResult:
    """Scan all balanced +-1 right-hand sides on the triangulated cube for
    the minimum Dirichlet energy (1/2) f^T L^+ f, exactly.

    L = n I - E is proved equal to its WALSH structure when it is built,
    so the Sylvester Hadamard H (H^2 = N I) diagonalises it with the
    integer values lambda = H r of its row 0 r (lambda_k = 2 popcount(k)),
    and the energy of f is the rational sum over k != 0 of (Hf)_k^2 /
    (2 N lambda_k).  A balanced f has (Hf)_0 = 0, and by Parseval's
    identity for the Walsh-Hadamard transform its (Hf)_k^2 sum to N^2;
    so the energy is at least N / (4n) = 2^n / (4n), reached only when
    Hf lives on k = N - 1, the parity pair.  The exhaustive search is the
    check of that bound at n <= 4.

    Patterns are reported as 0-based index tuples of the +1 entries; the
    winners always come in complement pairs (flipping f's sign leaves the
    energy unchanged).  `norm_l2` is ||L^+ f|| for the first of them.
    """
    if n > 4:
        raise ValueError(f"exhaustive search over C(2^{n}, 2^{n - 1}) patterns is too large")
    L = tricube_laplacian(n)
    N = L.N
    lam = [int(x) for x in _fwht(L.entries[0].astype(float))[1:]]
    # each pattern is the bitmask m of its +1 entries, and (Hf)_k =
    # 4 popcount(m & even_k) - N, where even_k masks the j with
    # popcount(k & j) even; the energies are integer numerators over the
    # common denominator 2 N lcm(lambda), summed one k at a time, so that
    # no pattern is ever formed as a row of N entries; the 2^N candidate
    # masks (N <= 16) are made as uint32, half the bytes of int64
    evens = [sum(1 << j for j in range(N) if (k & j).bit_count() % 2 == 0) for k in range(1, N)]
    masks = np.flatnonzero(np.bitwise_count(np.arange(1 << N, dtype=np.uint32)) == N // 2)
    lcm = math.lcm(*lam)
    num = np.zeros(masks.size, dtype=np.int64)
    for even, x in zip(evens, lam):
        num += lcm // x * (4 * np.bitwise_count(masks & even).astype(np.int64) - N) ** 2
    winners = masks[num == num.min()].tolist()
    hf = [4 * (winners[0] & even).bit_count() - N for even in evens]
    return MinEnergyResult(
        n=n,
        best_energy=Fraction(int(num.min()), 2 * N * lcm),
        best_patterns=tuple(sorted(tuple(i for i in range(N) if m >> i & 1) for m in winners)),
        norm_l2=math.sqrt(sum(Fraction(h * h, x * x) for h, x in zip(hf, lam)) / N),
    )
