"""Symmetric eigensolving, multiplicity clustering, and spectrum checks.

Eigendecomposition is delegated to LAPACK through numpy.linalg.eigh, which
is deterministic per platform.  `eig_sym` picks one of three routes from
the entries alone:

- a Kronecker sum (N = 3^n, n >= 2, entries equal to the Cartesian-product
  accumulation of a 3x3 factor, as powcube and powtri are in the natural
  ternary ordering) is solved from one eigh of that factor: the values are
  the n-fold sums of its eigenvalues, the vectors the n-fold Kronecker
  products of its eigenvectors;
- a bisymmetric input (symmetric and unchanged by reversing both index
  orders, as every family is in its default ordering) is split by the
  exact orthogonal centrosymmetric reduction into two half-size blocks,
  each solved by its own eigh;
- any other input takes one eigh of the full matrix.

Whatever the route, every returned pair is residual-checked against the
full matrix.  Clustering groups eigenvalues whose spread stays within an
absolute tolerance (default 1e-6; the spectra handled here have true gaps
of at least sqrt(2) - 1).
"""

import math
from dataclasses import dataclass

import numpy as np

from .cubegraphs import STRUCTURE_TOL, GraphMatrix, _ternary_product, asymmetry

CLUSTER_TOL = 1e-6


class ResidualError(RuntimeError):
    """An eigenpair failed the residual check against the input matrix."""


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with tolerance-clustered multiplicity groups."""

    values: np.ndarray
    clusters: tuple
    source: dict
    vectors: np.ndarray | None = None

    def multiplicity_map(self) -> dict:
        return {rep: mult for rep, mult in self.clusters}


@dataclass(frozen=True)
class CentroBlocks:
    minus_block: np.ndarray
    plus_block: np.ndarray
    offdiag_norm: float


@dataclass(frozen=True)
class SpectralStats:
    radius: float
    eigengap: float | None
    spectral_gap: float | None
    trace: float


@dataclass(frozen=True)
class RamanujanResult:
    is_ramanujan: bool
    max_nontrivial: float
    bound: float
    degree: int


@dataclass(frozen=True)
class IdentityResult:
    lhs: float
    rhs: float
    agree: bool
    rel_err: float


def _as_array(M) -> tuple[np.ndarray, dict]:
    if isinstance(M, GraphMatrix):
        meta = {"family": M.family, "kind": M.kind, "n": M.n, "ordering": M.ordering}
        return M.entries, meta
    return np.asarray(M, dtype=float), {}


def cluster_eigenvalues(values, tol: float = CLUSTER_TOL) -> tuple:
    """Greedy ascending grouping; within a cluster max - min <= tol."""
    clusters = []
    group: list[float] = []
    for v in values:
        if group and v - group[0] > tol:
            clusters.append((float(np.mean(group)), len(group)))
            group = []
        group.append(float(v))
    if group:
        clusters.append((float(np.mean(group)), len(group)))
    return tuple(clusters)


def eig_sym(M, tol: float = 1e-8, cluster_tol: float = CLUSTER_TOL) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix.

    Raises ValueError on non-symmetric input and ResidualError when a
    pair fails the residual check.  Symmetry, centrosymmetry and the
    Kronecker-sum match are all tested within 1e-10 absolute.  A
    Kronecker sum of a 3x3 factor (see `_kron_factor`) is solved from one
    eigh of the factor; otherwise a centrosymmetric input (N > 1) is
    solved from the two half-size blocks of `centro_block_diagonalize`;
    anything else by one eigh of the full matrix.  Whatever the route,
    ||Mv - lambda v|| <= tol*max(|lambda|_max, 1) is verified for every
    pair on the full input matrix before returning.
    """
    entries, meta = _as_array(M)
    if asymmetry(entries) > STRUCTURE_TOL:
        raise ValueError("matrix is not symmetric")
    kron = _kron_factor(entries)
    if kron is not None:
        values, vectors = _kron_eigh(*kron)
    elif entries.shape[0] > 1 and _centro_deviation(entries) <= STRUCTURE_TOL:
        values, vectors = _centro_eigh(entries)
    else:
        values, vectors = np.linalg.eigh(entries)
    norm = float(np.abs(values).max()) if values.size else 0.0
    residual = np.linalg.norm(entries @ vectors - vectors * values, axis=0)
    if residual.max() > tol * max(norm, 1.0):
        raise ResidualError(f"eigenpair residual {residual.max():.3e} exceeds tolerance")
    return Spectrum(
        values=values,
        clusters=cluster_eigenvalues(values, cluster_tol),
        source=meta,
        vectors=vectors,
    )


def _kron_factor(entries: np.ndarray) -> tuple[np.ndarray, int] | None:
    """(F, n) when M is the n-fold Kronecker sum of a 3x3 factor F, else None.

    Applies to N = 3^n with n >= 2.  F is read off the first three rows
    and columns (vertices whose digits above the lowest are 0): the
    off-diagonals are M's, and the diagonal is shifted so that the n
    digits of vertex 0 share M[0, 0] equally, F[d, d] = M[d, d] - (n - 1)
    M[0, 0] / n.  The whole of M must then equal the accumulation of F.
    """
    N = entries.shape[0]
    n = round(math.log(N, 3)) if N >= 9 else 0
    if n < 2 or 3**n != N:
        return None
    factor = entries[:3, :3].copy()
    factor[np.diag_indices(3)] -= (n - 1) * entries[0, 0] / n
    deviation = _ternary_product(factor, n)
    deviation -= entries
    np.abs(deviation, out=deviation)
    return (factor, n) if deviation.max() <= STRUCTURE_TOL else None


def _kron_eigh(factor: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of the n-fold Kronecker sum of a 3x3 factor.

    With factor = Q diag(w) Q^T, column sum_k j_k 3^k holds the Kronecker
    product of Q[:, j_k] over the digits (axis k at the k-th slot from the
    right, as in `_ternary_product`) and the value sum_k w[j_k].  Values
    are ordered with a stable sort.
    """
    w, Q = np.linalg.eigh(factor)
    values, vectors = w, Q
    for _ in range(n - 1):
        values = np.add.outer(values, w).ravel()
        vectors = np.kron(vectors, Q)
    order = np.argsort(values, kind="stable")
    return values[order], np.take(vectors, order, axis=1)


def classify_lattice(spec: Spectrum, unit: float, tol: float = CLUSTER_TOL):
    """Map eigenvalues to integer multiples of `unit`.

    Returns {k: multiplicity} when every eigenvalue sits within tol of
    k*unit for some integer k, otherwise None.
    """
    if unit <= 0:
        raise ValueError("unit must be positive")
    counts: dict[int, int] = {}
    for v in spec.values:
        k = round(v / unit)
        if abs(v - k * unit) > tol:
            return None
        counts[k] = counts.get(k, 0) + 1
    return counts


def spectral_stats(spec: Spectrum) -> SpectralStats:
    """Radius, minimal gap between distinct eigenvalues, gap between the
    two largest distinct eigenvalues, and the trace."""
    if len(spec.values) == 0:
        raise ValueError("empty spectrum")
    reps = [rep for rep, _ in spec.clusters]
    diffs = [b - a for a, b in zip(reps, reps[1:])]
    return SpectralStats(
        radius=float(np.abs(spec.values).max()),
        eigengap=min(diffs) if diffs else None,
        spectral_gap=diffs[-1] if diffs else None,
        trace=float(spec.values.sum()),
    )


def exchange_matrix(m: int) -> np.ndarray:
    return np.fliplr(np.eye(m))


def _centro_deviation(entries: np.ndarray) -> float:
    """Largest entrywise change under reversing both index orders (J M J)."""
    return float(np.abs(entries[::-1, ::-1] - entries).max())


def _centro_blocks(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minus and plus blocks of K M K^T for a bisymmetric M, by slicing.

    With m = N // 2, A the top-left m x m block and B J the top-right
    block with its columns reversed, the minus block is A - B J and the
    plus block A + B J; for odd N the plus block is bordered in front by
    the centre entry and sqrt(2) times the centre column.
    """
    N = entries.shape[0]
    m = N // 2
    A = entries[:m, :m]
    BJ = entries[:m, N - m :][:, ::-1]
    minus = A - BJ
    if N % 2 == 0:
        return minus, A + BJ
    plus = np.empty((m + 1, m + 1))
    plus[0, 0] = entries[m, m]
    plus[1:, 0] = plus[0, 1:] = math.sqrt(2.0) * entries[:m, m]
    plus[1:, 1:] = A + BJ
    return minus, plus


def _centro_eigh(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of a bisymmetric matrix from its two blocks.

    A minus-block eigenvector v lifts to [v; 0; -J v] / sqrt(2), a
    plus-block eigenvector (v_c; v_top) to [v_top; sqrt(2) v_c; J v_top]
    / sqrt(2) (the middle entries exist only for odd N).  Values are
    merged with a stable sort, minus before plus on ties.
    """
    N = entries.shape[0]
    m = N // 2
    minus, plus = _centro_blocks(entries)
    minus_values, minus_vectors = np.linalg.eigh(minus)
    plus_values, plus_vectors = np.linalg.eigh(plus)
    vectors = np.zeros((N, N))
    top = minus_vectors / math.sqrt(2.0)
    vectors[:m, :m] = top
    vectors[N - m :, :m] = -top[::-1]
    top = plus_vectors[N % 2 :] / math.sqrt(2.0)
    vectors[:m, m:] = top
    vectors[N - m :, m:] = top[::-1]
    if N % 2:
        vectors[m, m:] = plus_vectors[0]
    values = np.concatenate([minus_values, plus_values])
    order = np.argsort(values, kind="stable")
    return values[order], np.take(vectors, order, axis=1)


def centro_block_diagonalize(M) -> CentroBlocks:
    """Orthogonal block-diagonalization of a bisymmetric matrix.

    Uses K = (1/sqrt(2)) [[I, -J], [I, J]], with a sqrt(2) center row
    inserted for odd dimension.  The minus block carries the eigenvalues
    of antisymmetric eigenvectors (Jx = -x), the plus block the symmetric
    ones.  Both blocks and the largest entry of the off-diagonal blocks of
    K M K^T are read from slices of M in O(N^2); K is never formed.
    `eig_sym` solves bisymmetric inputs that are not Kronecker sums of a
    3x3 factor through these same blocks.
    """
    entries, _ = _as_array(M)
    if asymmetry(entries) > STRUCTURE_TOL or _centro_deviation(entries) > STRUCTURE_TOL:
        raise ValueError("matrix is not bisymmetric")
    N = entries.shape[0]
    m = N // 2
    # off-diagonal blocks (A - JDJ +- (BJ - JC)) / 2 and, for odd N, the
    # centre row and column (M[:m, m] - J M[N-m:, m]) / sqrt(2)
    A, D = entries[:m, :m], entries[N - m :, N - m :][::-1, ::-1]
    BJ, JC = entries[:m, N - m :][:, ::-1], entries[N - m :, :m][::-1]
    offdiag = 0.5 * float((np.abs(A - D) + np.abs(BJ - JC)).max(initial=0.0))
    if N % 2:
        centre = np.concatenate([
            entries[:m, m] - entries[N - m :, m][::-1],
            entries[m, :m] - entries[m, N - m :][::-1],
        ])
        offdiag = max(offdiag, float(np.abs(centre).max(initial=0.0)) / math.sqrt(2.0))
    minus, plus = _centro_blocks(entries)
    return CentroBlocks(minus_block=minus, plus_block=plus, offdiag_norm=offdiag)


def ramanujan_check(adj, degree: int | None = None, slack: float = 1e-9) -> RamanujanResult:
    """Compare the largest nontrivial adjacency eigenvalue magnitude with
    the Ramanujan bound 2*sqrt(degree - 1).

    Every eigenvalue of magnitude equal to the degree is trivial (this
    covers -degree on bipartite graphs).
    """
    entries, _ = _as_array(adj)
    degrees = entries.sum(axis=1)
    if degree is None:
        degree = int(round(degrees[0]))
    if np.abs(degrees - degree).max() > 1e-9:
        raise ValueError("graph is not regular of the stated degree")
    if (
        entries.shape[0] > 1
        and np.array_equal(entries, entries.T)
        and np.array_equal(entries, entries[::-1, ::-1])
    ):
        values = np.concatenate([np.linalg.eigvalsh(b) for b in _centro_blocks(entries)])
    else:
        values = np.linalg.eigvalsh(entries)
    nontrivial = np.abs(values)[np.abs(np.abs(values) - degree) > 1e-6]
    max_nontrivial = float(nontrivial.max()) if nontrivial.size else 0.0
    bound = 2.0 * math.sqrt(degree - 1)
    return RamanujanResult(
        is_ramanujan=max_nontrivial <= bound + slack,
        max_nontrivial=max_nontrivial,
        bound=bound,
        degree=degree,
    )


def eig_identity_check(L, B, tol: float = 1e-6) -> IdentityResult:
    """Determinant identity tying a singular Laplacian to its kernel vector.

    For N x (N-1) matrix B and unit kernel vector x of L (simple zero
    eigenvalue required):

        det(B^T L B) = (product of nonzero eigenvalues) * det([B | x])^2

    This is the Cauchy-Binet-type consequence of det(B^T (t I - L) B)
    = p'_L(t) |det([B | x])|^2 evaluated at the kernel eigenvalue t = 0.

    Both sides are carried as (sign, log|.|) from slogdet, so they may
    exceed the float range (lhs and rhs then read +-inf).  They agree when
    rel_err = |lhs - rhs| / max(|lhs|, |rhs|, 1) <= tol, evaluated after
    scaling both sides by that maximum.
    """
    entries, _ = _as_array(L)
    B = np.asarray(B, dtype=float)
    N = entries.shape[0]
    if B.shape != (N, N - 1):
        raise ValueError(f"B must be {N}x{N - 1}, got {B.shape}")
    values, vectors = np.linalg.eigh(entries)
    scale = max(float(np.abs(values).max()), 1.0)
    kernel = np.flatnonzero(np.abs(values) <= 1e-9 * scale)
    if kernel.size != 1:
        raise ValueError(f"kernel dimension {kernel.size}, identity needs a simple kernel")
    x = vectors[:, kernel[0]]
    nonzero = np.delete(values, kernel[0])
    lhs_sign, lhs_log = np.linalg.slogdet(B.T @ entries @ B)
    x_sign, x_log = np.linalg.slogdet(np.column_stack([B, x]))
    rhs_sign = np.prod(np.sign(nonzero)) * x_sign**2
    rhs_log = np.log(np.abs(nonzero)).sum() + 2.0 * x_log
    scale = max(lhs_log, rhs_log, 0.0)
    rel_err = float(abs(lhs_sign * np.exp(lhs_log - scale) - rhs_sign * np.exp(rhs_log - scale)))
    with np.errstate(over="ignore"):
        lhs, rhs = float(lhs_sign * np.exp(lhs_log)), float(rhs_sign * np.exp(rhs_log))
    return IdentityResult(lhs=lhs, rhs=rhs, agree=rel_err <= tol, rel_err=rel_err)


def spectrum_to_csv(spec: Spectrum, path) -> None:
    """CSV rows (value, multiplicity, cluster_representative), one per
    eigenvalue."""
    rows = []
    for rep, mult in spec.clusters:
        rows.extend([(rep, mult)] * mult)
    with open(path, "w") as fh:
        fh.write("value,multiplicity,cluster_representative\n")
        for value, (rep, mult) in zip(spec.values, rows):
            fh.write(f"{float(value)!r},{mult},{rep!r}\n")
