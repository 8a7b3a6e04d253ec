"""Symmetric eigensolving, multiplicity clustering, and spectrum checks.

`eig_sym` is the one full eigendecomposition and the one caller of
LAPACK's eigh/eigvalsh.  `symmetric_entries` is
the one symmetry gate for raw arrays (`asymmetry` within STRUCTURE_TOL); a
`GraphMatrix` was tested when built.  `eig_sym` has four routes, chosen by
the `structure` the matrix declares.  A `GraphMatrix` that
declares a structure S was proved equal to S on every entry, exactly, when
it was made (it cannot be made otherwise); the declared routes read no
entry again but the natural row 0 of a Walsh matrix, and bound the
residual ||M v - lambda v|| of every pair they return by

    e_S + rho,

where e_S is the error of S's own eigenpairs, and rho = 2 (N + 2n) u
(||S||_inf + max |lambda|), u = 2^-53, covers the rounding of the
returned values and vectors and of any float64 evaluation of M v - lambda
v (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3):

- WALSH (ncube, hamming, tricube and regtricube): S[i, j] = r[i ^ j] for
  the natural row 0, r, which the Sylvester Hadamard matrix H diagonalises
  (Delsarte 1973, the hypercube association scheme).  The values are the
  fast Walsh-Hadamard transform of r, exact integers for integer entries,
  and the vectors the columns of H / sqrt(N), with no LAPACK call, so e_S
  = 0.  The proof made r a function of popcount, and H^2 = N I maps those
  functions onto themselves, so lambda_k depends on popcount(k) only, as
  the paper states;
- KRONECKER (powcube and powtri): S is the n-fold Kronecker sum
  of the 3 x 3 factor F (Cvetkovic, Doob & Sachs, Spectra of Graphs).  One
  eigh of F gives the values, the n-fold sums of its eigenvalues, and the
  vectors, the n-fold Kronecker products of its eigenvectors Q; e_S is n
  times F's measured residual max ||F q - w q||;
- LOW_RANK (powhamming): S = X C X^T for X = [1 | bits], the ones vector
  beside the N x n address bits, and an exact integer C of order n + 1.
  With X = Q R, one eigh of R C R^T gives the range pairs, each measured
  by applying S through X, and every other value is 0.  e_S is the larger
  of those residuals and the kernel bound ||E||_F ||C||_2 (2 ||X||_F +
  ||E||_F), E = X - Q R measured (`_low_rank_eig`);
- anything else (raw arrays and `build_wdm` meshes) takes one eigh of the
  full matrix, measured by one GEMM, M V - V lambda.

A non-finite eigenvalue, residual or bound fails the check.

A structure's `perm` only relabels the graph: the WALSH and KRONECKER
routes solve the natural order, from the row M[inv[0], inv], inv =
argsort(perm), or from F, and the vectors' rows are put back in `perm`'s
order; LOW_RANK's bits are given at M's positions.  No route gathers a
natural-order copy of the entries.

On the three declared routes the N x N matrix of eigenvectors is built on
the first read of `Spectrum.vectors` only.  `Spectrum.clusters` groups the
eigenvalues whose spread stays within the absolute `CLUSTER_TOL` = 1e-6
(the spectra handled here have true gaps of at least sqrt(2) - 1), on its
first read only.
"""

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .cubegraphs import (
    KRONECKER,
    LOW_RANK,
    STRUCTURE_TOL,
    GraphMatrix,
    asymmetry,
)

CLUSTER_TOL = 1e-6
# ||Mv - lambda v|| <= RESIDUAL_TOL * max(|lambda|_max, 1) for every pair
RESIDUAL_TOL = 1e-8
KERNEL_TOL = 1e-9

# rows per block of the Walsh vectors and of `centro_deviation`
_BLOCK = 64
# rows per block of the Kronecker vectors, 3^4
_KRON_ROWS = 81
# unit roundoff of float64
_U = 2.0**-53


class ResidualError(RuntimeError):
    """An eigenpair failed the residual check against the input matrix."""


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues and, from `basis`, their eigenvectors.

    `vectors` holds the matching unit eigenvectors as columns, or None.  It
    is read from `basis`: the array itself, or a function that builds it,
    which `eig_sym`'s declared routes pass so that a caller that reads the
    values only never forms the N x N matrix.  The function is called on
    the first read of `vectors`, and later reads return the same array.
    `clusters`, the (mean, size) multiplicity groups of
    `cluster_eigenvalues`, are likewise formed on their first read.
    """

    values: np.ndarray
    basis: np.ndarray | Callable[[], np.ndarray] | None = field(repr=False)

    @functools.cached_property
    def vectors(self) -> np.ndarray | None:
        return self.basis() if callable(self.basis) else self.basis

    @functools.cached_property
    def clusters(self) -> tuple:
        return cluster_eigenvalues(self.values)

    @property
    def scale(self) -> float:
        """max(|lambda|_max, 1), the scale of the residual and kernel rules."""
        return float(np.abs(self.values).max(initial=1.0))

    def in_kernel(self) -> np.ndarray:
        """The kernel rule: mask of |lambda| <= KERNEL_TOL * scale."""
        return np.abs(self.values) <= KERNEL_TOL * self.scale


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


def symmetric_entries(M) -> np.ndarray:
    """M's entries; a raw array must be square, 2-d and symmetric within
    STRUCTURE_TOL."""
    if isinstance(M, GraphMatrix):
        return M.entries
    entries = np.asarray(M, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("matrix must be a square 2-d array")
    if asymmetry(entries) > STRUCTURE_TOL:
        raise ValueError("matrix is not symmetric")
    return entries


def cluster_eigenvalues(values) -> tuple:
    """Greedy grouping of ascending values; within a cluster max - min <=
    `CLUSTER_TOL`, and each cluster is (mean, size).

    One ascending pass: a value v opens a new cluster when v - first >
    CLUSTER_TOL for the first value of the current one.
    """
    values = np.asarray(values, dtype=float)
    starts, first = [], None
    for i, v in enumerate(values.tolist()):
        if first is None or v - first > CLUSTER_TOL:
            starts.append(i)
            first = v
    ends = starts[1:] + [len(values)]
    return tuple((float(np.mean(values[a:b])), b - a) for a, b in zip(starts, ends))


def eig_sym(M, tol: float = RESIDUAL_TOL) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix.

    Raises ValueError, before solving anything, when `tol` is not a finite
    number > 0 or a raw array is not square, 2-d and symmetric, and
    ResidualError when a pair fails the residual check.  The route (see
    the module docstring) follows a GraphMatrix's `structure`: KRONECKER
    solves one 3x3 eigh, WALSH none, LOW_RANK one of order n + 1
    (`_declared_eig`).  Undeclared input is solved by one eigh of the full
    matrix.  Whatever the route, ||Mv - lambda v|| <= tol*max(|lambda|_max,
    1) is verified for every pair on every entry of the input before
    returning: measured by one GEMM on the undeclared route, and bounded on
    the declared ones, whose structure validation proved (LOW_RANK's
    bound holds its measured range residuals and its kernel bound), so a
    non-finite eigenvalue, residual or bound raises ResidualError.  The
    declared routes build the sorted N x N eigenvector matrix on the first
    read of `Spectrum.vectors` only.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"residual tolerance must be a finite number > 0, got {tol!r}")
    entries = symmetric_entries(M)
    structure = M.structure if isinstance(M, GraphMatrix) else None
    if structure is None:
        values, vectors = np.linalg.eigh(entries)
        return _checked(Spectrum(values, vectors), _residual_norms(entries, values, vectors), tol)
    return _declared_eig(entries, structure.kind, structure.data, M.n, tol, structure.perm)


def _declared_eig(entries: np.ndarray, kind: str, data, n: int, tol: float,
                  perm: np.ndarray | None) -> Spectrum:
    """The checked spectrum of entries that declare the structure `kind`
    with `data` and `perm`, on n axes, by that kind's route.

    `GraphMatrix` validation proved M == S, and the route reads no entry
    but the natural row 0 of a WALSH matrix.  A `perm` relabels only: the
    route solves the natural order, and the vectors' rows are put back in
    `perm`'s order.  LOW_RANK takes no `perm`.
    """
    if kind == LOW_RANK:
        values, vectors, residual = _low_rank_eig(data)
    elif kind == KRONECKER:
        values, vectors, residual = _kron_eig(data, n)
    else:
        inv = None if perm is None else np.argsort(perm)
        row = entries[0] if perm is None else entries[inv[0]][inv]
        natural, residual = _walsh_eig(row)
        order = np.argsort(natural, kind="stable")
        values, vectors = natural[order], functools.partial(_walsh_vectors, order)
    solved = _checked(Spectrum(values, vectors), residual, tol)
    if perm is None:
        return solved
    # every declared route builds its vectors on the first read
    return Spectrum(solved.values, lambda: solved.basis()[perm])


def _checked(spec: Spectrum, residual, tol: float) -> Spectrum:
    """spec, once its largest residual (or bound) is within tol * scale;
    ResidualError otherwise."""
    residual, scale = float(np.max(residual)), spec.scale
    if not (math.isfinite(scale) and residual <= tol * scale):
        raise ResidualError(
            f"eigenpair residual {residual:.3e} at scale {scale:.3e}: "
            "not finite or exceeds tolerance"
        )
    return spec


def _rounding(N: int, n: int, norm: float) -> float:
    """rho = 2 (N + 2n) u norm, where norm bounds ||M||_inf + max |lambda|:
    the rounding of the returned pairs and of a float64 M v - lambda v."""
    return 2 * (N + 2 * n) * _U * norm


def _fwht(x: np.ndarray) -> np.ndarray:
    """x, a C-contiguous array whose axis 0 has length 2^n, overwritten with
    H x and returned, where H[k, j] = (-1)^popcount(k & j) is the Sylvester
    Hadamard matrix (the unnormalised fast Walsh-Hadamard transform).

    Each of the n butterfly levels maps a pair (a, b) to (a + b, a - b),
    the latter as (a + b) - 2 b, in place.
    """
    N, h = x.shape[0], 1
    while h < N:
        pairs = x.reshape(N // (2 * h), 2, h, -1)
        a, b = pairs[:, 0], pairs[:, 1]
        a += b
        b *= -2.0
        b += a
        h *= 2
    return x


def _walsh_eig(row: np.ndarray) -> tuple[np.ndarray, float]:
    """The Walsh values lambda_k = (H r)_k of the natural row 0, r, in
    natural order, and the bound on every pair's residual: rho, with
    ||S||_inf = ||r||_1 >= max |lambda| (see the module docstring)."""
    N = row.size
    natural = _fwht(row.astype(float))
    bound = _rounding(N, N.bit_length() - 1, 2.0 * float(np.abs(row, dtype=float).sum()))
    return natural, bound


def _walsh_vectors(order: np.ndarray) -> np.ndarray:
    """The columns H[:, order] / sqrt(N) as one C-order N x N array, filled
    one block of `_BLOCK` rows at a time."""
    N = order.size
    scale = 1.0 / math.sqrt(N)
    vectors = np.empty((N, N))
    for start in range(0, N, _BLOCK):
        rows = np.arange(start, min(start + _BLOCK, N))
        odd = np.bitwise_count(rows[:, None] & order) & 1
        vectors[rows] = np.where(odd, -scale, scale)
    return vectors


def _low_rank_eig(bits: np.ndarray):
    """Values, lazy vectors and the residual bound of the LOW_RANK structure
    S = X C X^T on the address bits, from one eigh of order n + 1, reading
    no entry.

    With X = [1 | bits] and the exact integer C = [[0, 1^T], [1, -2 I]],
    X C X^T = s 1^T + 1 s^T - 2 bits bits^T, s = bits 1, is the Hamming
    distance of the addresses.  With X = Q R (thin QR), the eigenpairs
    (theta, u) of R C R^T give the range pairs (theta, Q u), each measured
    as ||X (C (X^T Q u)) - theta Q u||, in O(N n^2).  Every other value is
    exactly 0, on the complement of Q's range.  For a unit v there,
    S v = (S - Q R C R^T Q^T) v, and with E = X - Q R measured,
    S - Q R C R^T Q^T = E C X^T + X C E^T - E C E^T, so

        ||E||_F ||C||_2 (2 ||X||_F + ||E||_F),  ||C||_2 <= ||C||_inf,

    bounds the residual of every kernel pair (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 19).  The larger of the range
    residuals and that bound, plus rho with ||S||_inf the largest row sum
    S 1 of the nonnegative distances (see the module docstring), stands
    for every pair.  The vectors (`_low_rank_vectors`) are built on first
    read.
    """
    N, n = bits.shape
    X = np.concatenate([np.ones((N, 1)), bits], axis=1)
    C = np.block([[np.zeros((1, 1)), np.ones((1, n))], [np.ones((n, 1)), -2.0 * np.eye(n)]])
    Q, R = np.linalg.qr(X)
    theta, U = np.linalg.eigh(R @ C @ R.T)
    QU = Q @ U
    off = X @ (C @ (X.T @ QU)) - QU * theta
    range_residual = float(np.sqrt(np.einsum("ij,ij->j", off, off)).max())
    E, x = np.linalg.norm(X - Q @ R), np.linalg.norm(X)
    kernel = E * float(np.abs(C).sum(axis=1).max()) * (2 * x + E)
    norm = 2.0 * float((X @ (C @ X.sum(axis=0))).max())
    bound = max(range_residual, kernel) + _rounding(N, n, norm)
    natural = np.concatenate([theta, np.zeros(N - theta.size)])
    order = np.argsort(natural, kind="stable")
    return natural[order], functools.partial(_low_rank_vectors, X, QU, order), bound


def _low_rank_vectors(X: np.ndarray, QU: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The checked range vectors QU beside the complement of X's range from
    its complete QR, in `order`, as one N x N array."""
    complete = np.linalg.qr(X, mode="complete")[0]
    complete[:, : QU.shape[1]] = QU
    return complete[:, order]


def _residual_norms(entries: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """||M v - lambda v|| for every eigenpair, computed on every entry of M
    by one GEMM, M @ V - V * lambda, where V is the N x N matrix whose
    columns pair with `values`."""
    residual = entries @ vectors
    residual -= vectors * values
    return np.sqrt(np.einsum("ij,ij->j", residual, residual))


def _kron_power(Q: np.ndarray, k: int) -> np.ndarray:
    """The k-fold Kronecker power of Q by the left-to-right chain
    kron(... kron(kron(I_1, Q), Q) ..., Q), the 1 x 1 identity I_1 when
    k = 0; kron(I_1, Q) is Q exactly."""
    return functools.reduce(np.kron, [Q] * k, np.eye(1))


def _kron_eig(factor: np.ndarray, n: int):
    """Values, lazy vectors and the residual bound of the n-fold Kronecker
    sum of a 3x3 factor F, from one eigh of it.

    With F = Q diag(w) Q^T, natural column sum_k j_k 3^k is the Kronecker
    product of Q[:, j_k] over the digits (axis k at the k-th slot from the
    right, as in `cubegraphs.build`), with the value sum_k w[j_k].  The
    values are returned in stable ascending order, the vectors
    (`_kron_vectors`) are built on first read, and the bound is n max_j ||F
    q_j - w_j q_j|| + rho, with ||S||_inf <= n ||F||_inf and max |lambda| <=
    n max |w| (see the module docstring).
    """
    w, Q = np.linalg.eigh(factor)
    natural = w
    for _ in range(n - 1):
        natural = np.add.outer(natural, w).ravel()
    order = np.argsort(natural, kind="stable")
    factor_residual = float(np.linalg.norm(factor @ Q - Q * w, axis=0).max())
    norm = n * float(np.abs(factor, dtype=float).sum(axis=1).max() + np.abs(w).max())
    bound = n * factor_residual + _rounding(3**n, n, norm)
    return natural[order], functools.partial(_kron_vectors, Q, n, order), bound


def _kron_vectors(Q: np.ndarray, n: int, order: np.ndarray) -> np.ndarray:
    """The columns of Q^(x)n in `order`, as one C-order N x N array.

    Column 3 h + l of Q^(x)n is W[:, h] (x) Q[:, l], W = `_kron_power`(Q,
    n - 1), formed straight into its sorted column; filling the output one
    block of rows at a time bounds the gathered temporary.
    """
    W = _kron_power(Q, n - 1)
    high, low = divmod(order, 3)
    size = 3 * W.shape[0]
    product = np.empty((size // 3, 3, size))
    for start in range(0, size // 3, _KRON_ROWS):
        rows = slice(start, start + _KRON_ROWS)
        np.multiply(np.take(W[rows], high, axis=1)[:, None, :], Q[:, low], out=product[rows])
    return product.reshape(size, size)


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


def centro_deviation(entries: np.ndarray) -> float:
    """Largest entrywise change under reversing both index orders (J M J),
    NaN when an entry is NaN.  It is taken in float64, so integer entries
    cannot wrap, one block of `_BLOCK` rows at a time."""
    mirrored = entries[::-1, ::-1]
    return float(np.max([
        np.abs(np.subtract(mirrored[i : i + _BLOCK], entries[i : i + _BLOCK], dtype=float)).max()
        for i in range(0, entries.shape[0], _BLOCK)
    ]))


def ramanujan_check(adj) -> RamanujanResult:
    """Compare the largest nontrivial adjacency eigenvalue magnitude with
    the Ramanujan bound 2*sqrt(degree - 1), allowing 1e-9 above it.

    The degree is row 0's sum; a graph with a row sum more than 1e-9 from
    it is not regular (ValueError).  Every eigenvalue of magnitude equal to
    the degree is trivial (this covers -degree on bipartite graphs).  The
    values come from `eig_sym`, so a declared structure takes its route
    (regtricube, in any ordering, the Walsh one) and every pair is
    residual-checked.
    """
    entries = symmetric_entries(adj)
    degrees = entries.sum(axis=1)
    degree = int(round(degrees[0]))
    if np.abs(degrees - degree).max() > 1e-9:
        raise ValueError("graph is not regular")
    values = eig_sym(adj).values
    nontrivial = np.abs(values)[np.abs(np.abs(values) - degree) > 1e-6]
    max_nontrivial = float(nontrivial.max()) if nontrivial.size else 0.0
    bound = 2.0 * math.sqrt(degree - 1)
    return RamanujanResult(
        is_ramanujan=max_nontrivial <= bound + 1e-9,
        max_nontrivial=max_nontrivial,
        bound=bound,
        degree=degree,
    )


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
