"""Symmetric eigensolving, multiplicity clustering, and spectrum checks.

`eig_sym` is the one full eigendecomposition; only `verify`'s reference
spectra call LAPACK's eigh/eigvalsh themselves.  `symmetric_entries` is
the one symmetry gate for raw arrays (`asymmetry` within STRUCTURE_TOL); a
`GraphMatrix` was tested when built.  `eig_sym` has four routes, chosen by
the `structure` that `cubegraphs.build` declared.  The WALSH and KRONECKER
routes certify, on every entry of M, that M is its declared structure S,
and bound the residual ||M v - lambda v|| of every pair they return by

    ||M - S|| + e_S + rho,

where ||M - S|| is the larger of the largest row abs-sum and the largest
column abs-sum of M - S (it bounds the 2-norm, and is 0 when M == S
exactly), e_S is the error of S's own eigenpairs, and rho = 2 (N + 2n) u
(||M||_inf + max |lambda|), u = 2^-53, with ||M||_inf <= ||S||_inf +
||M - S||, covers the rounding of the returned values and vectors and of
any float64 evaluation of M v - lambda v (Higham, Accuracy and Stability
of Numerical Algorithms, ch. 3):

- WALSH (ncube, hamming, tricube and regtricube): S[i, j] = M[0, i ^ j],
  which the Sylvester Hadamard matrix H diagonalises (Delsarte 1973, the
  hypercube association scheme).  The values are the fast Walsh-Hadamard
  transform of row 0, exact integers for integer entries, and the vectors
  the columns of H / sqrt(N), with no LAPACK call, so e_S = 0.  The
  certificate checks, for h = 1, 2, 4, ..., N/2, that rows [h, 2h) are
  rows [0, h) with their column blocks of width h swapped (row i is row
  i - h under j -> j ^ h), which makes row i row 0 under j -> i ^ j.  The
  route also asserts the paper's statement that lambda_k depends on
  popcount(k) only;
- KRONECKER (powcube and powtri, n >= 2): S is the n-fold Kronecker sum
  of the 3 x 3 factor F (Cvetkovic, Doob & Sachs, Spectra of Graphs), so
  block (a, b) of the top digit is delta_ab S' + F[a, b] I, S' the
  (n - 1)-fold sum.  One eigh of F gives the values, the n-fold sums of
  its eigenvalues, and the vectors, the n-fold Kronecker products of its
  eigenvectors Q; e_S is n times F's measured residual max ||F q - w q||.
  The certificate walks the digits from the top: at each level the
  off-diagonal blocks (a, b) of every diagonal block must be F[a, b] I,
  and at the end the diagonal must be the n-fold sums of F's diagonal;
- LOW_RANK (powhamming, n >= 3): one eigh of the (n + 1)-order projection
  of M onto the span of the ones vector and the address bits, every other
  value 0.  The range pairs are measured directly, and the kernel pairs by
  the norm of M minus its projection;
- anything else (raw arrays, the mesh matrices, the factor rows at n = 1,
  powhamming at n <= 2) takes one eigh of the full matrix, measured by one
  GEMM, M V - V lambda.

Each certificate compares every entry of M with S once, in the entries'
own dtype, and widens to float64 only the parts that differ from S, one
chunk at a time, so neither makes an N x N temporary.  Neither shares code
with the builders in `cubegraphs`, so one bug cannot pass both.  A
non-finite eigenvalue or bound fails the check, so a structure that the
entries do not have raises `ResidualError`.

A structure's `perm` only relabels the graph: the route of its kind
solves the natural-order entries M[inv][:, inv], inv = argsort(perm),
gathered by rows and then by columns, and the vectors' rows are put back
in `perm`'s order.  A bijection changes neither the symmetry nor the entry
rule that `GraphMatrix` checked, so the gathered copy is not checked again.

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

from .cubegraphs import KRONECKER, STRUCTURE_TOL, TILE, WALSH, GraphMatrix, asymmetry

CLUSTER_TOL = 1e-6
# ||Mv - lambda v|| <= RESIDUAL_TOL * max(|lambda|_max, 1) for every pair
RESIDUAL_TOL = 1e-8
KERNEL_TOL = 1e-9

# columns per block of the Walsh check, and rows per block of the low-rank
# kernel bound, of the Walsh vectors and of `centro_deviation`
_BLOCK = 64
# rows per block of the low-rank route's M Q_X: blocks of 64 rows changed
# its rounding (OpenBLAS takes another kernel for small products), blocks
# of 243 rows match the whole product bit for bit
_GEMM_ROWS = 243
# entries per chunk of a certificate's comparisons, of the float64 parts it
# measures and of a relabelling's gather
_CHUNK = 1 << 18
# unit roundoff of float64
_U = 2.0**-53
# the (a, b), a != b, of a 3 x 3 factor
_OFF_DIAGONAL = [(a, b) for a in range(3) for b in range(3) if a != b]


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


@dataclass(frozen=True)
class IdentityResult:
    lhs: float
    rhs: float
    agree: bool
    rel_err: float


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
    the module docstring) follows a GraphMatrix's `structure`, after a
    `perm` has relabelled the entries to the natural order: KRONECKER
    solves one 3x3 eigh, WALSH none, LOW_RANK one of order n + 1
    (`_declared_eig`).  Undeclared input is solved by one eigh of the full
    matrix.  Whatever the route, ||Mv - lambda v|| <= tol*max(|lambda|_max,
    1) is verified for every pair on every entry of the input before
    returning, measured on the LOW_RANK and undeclared routes and bounded
    by a certificate on the other two, so a non-finite eigenvalue or
    residual, or a structure that does not match the entries, raises
    ResidualError.  The WALSH route also raises it when two values of one
    popcount class differ by more than that bound.  The declared routes
    build the sorted N x N eigenvector matrix on the first read of
    `Spectrum.vectors` only.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"residual tolerance must be a finite number > 0, got {tol!r}")
    entries = symmetric_entries(M)
    structure = M.structure if isinstance(M, GraphMatrix) else None
    if structure is None:
        values, vectors = np.linalg.eigh(entries)
        return _checked(Spectrum(values, vectors), _residual_norms(entries, values, vectors), tol)
    perm = structure.perm
    if perm is None:
        return _declared_eig(entries, structure.kind, structure.data, M.n, tol)
    solved = _declared_eig(_natural_order(entries, perm), structure.kind, structure.data, M.n, tol)
    # every declared route builds its vectors on the first read
    return Spectrum(solved.values, lambda: solved.basis()[perm])


def _natural_order(entries: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """M[inv][:, inv], inv = argsort(perm), in M's dtype: each chunk of
    rows is gathered by `np.take`, then its columns, into the copy."""
    N = entries.shape[0]
    inv = np.argsort(perm)
    natural = np.empty_like(entries)
    step = max(1, _CHUNK // N)
    for start in range(0, N, step):
        rows = np.take(entries, inv[start : start + step], axis=0)
        np.take(rows, inv, axis=1, out=natural[start : start + step])
    return natural


def _declared_eig(entries: np.ndarray, kind: str, data, n: int, tol: float) -> Spectrum:
    """The checked spectrum of natural-order entries that declare the
    structure `kind` with `data`, on n axes, by that kind's route."""
    popcount = 0.0
    if kind == KRONECKER:
        values, vectors, residual = _kron_eig(entries, data, n)
    elif kind == WALSH:
        natural, residual, popcount = _walsh_eig(entries)
        order = np.argsort(natural, kind="stable")
        values, vectors = natural[order], functools.partial(_walsh_vectors, order)
    else:
        values, vectors, residual = _low_rank_eig(entries, data)
    return _checked(Spectrum(values, vectors), residual, tol, popcount)


def _checked(spec: Spectrum, residual, tol: float, popcount: float = 0.0) -> Spectrum:
    """spec, once its largest residual (or bound) and the spread of its
    values within one popcount class are within tol * scale;
    ResidualError otherwise."""
    residual, scale = float(np.max(residual)), spec.scale
    if not (math.isfinite(scale) and residual <= tol * scale):
        raise ResidualError(
            f"eigenpair residual {residual:.3e} at scale {scale:.3e}: "
            "not finite or exceeds tolerance"
        )
    if not popcount <= tol * scale:
        raise ResidualError(
            f"Walsh values differ by {popcount:.3e} within one popcount class "
            f"at scale {scale:.3e}"
        )
    return spec


def _rounding(N: int, n: int, norm: float) -> float:
    """rho = 2 (N + 2n) u norm, where norm bounds ||M||_inf + max |lambda|:
    the rounding of the returned pairs and of a float64 M v - lambda v."""
    return 2 * (N + 2 * n) * _U * norm


def _deviation_norm(rows: np.ndarray, cols: np.ndarray) -> float:
    """||M - S|| from the abs-sums of M - S per row and per column: the
    larger maximum, NaN when either holds a NaN."""
    return float(np.maximum(rows.max(), cols.max()))


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


def _walsh_eig(entries: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The Walsh values lambda_k = (H r)_k of row 0, r, in natural order,
    the bound on every pair's residual, and the largest |lambda_k -
    lambda_j| with popcount(k) = popcount(j).

    The bound is ||M - S|| (`_walsh_deviation`) + rho, with ||S||_inf =
    ||r||_1 >= max |lambda| (see the module docstring).  Each lambda_k is
    compared with the value of 2^popcount(k) - 1, the first index of its
    popcount.
    """
    N = entries.shape[0]
    natural = _fwht(entries[0].astype(float))
    deviation = _walsh_deviation(entries)
    norm = 2.0 * float(np.abs(entries[0], dtype=float).sum()) + deviation
    bound = deviation + _rounding(N, N.bit_length() - 1, norm)
    weight = np.bitwise_count(np.arange(N)).astype(np.intp)  # a uint8 would wrap 1 << weight
    popcount = float(np.abs(natural - natural[(1 << weight) - 1]).max())
    return natural, bound, popcount


def _walsh_deviation(entries: np.ndarray) -> float:
    """||M - S|| for S[i, j] = M[0, i ^ j], read on every entry of M.

    For h = 1, 2, ..., N/2, rows [h, 2h) must equal rows [0, h) with the
    two column blocks of width h in each 2h-wide pair swapped, compared in
    M's dtype a chunk of rows at a time.  Row i (h <= i < 2h) is then row
    i ^ h under j -> j ^ h, so by induction row i is row 0 under j -> i ^ j,
    and the result is 0.0.  At the first difference ||M - S|| is measured
    instead (`_walsh_deviation_measured`).
    """
    N = entries.shape[0]
    step = max(1, _CHUNK // N)
    h = 1
    while h < N:
        for start in range(0, h, step):
            stop = min(start + step, h)
            swapped = entries[start:stop].reshape(stop - start, -1, 2, h)[:, :, ::-1]
            if not np.array_equal(entries[h + start : h + stop].reshape(swapped.shape), swapped):
                return _walsh_deviation_measured(entries)
        h *= 2
    return 0.0


def _walsh_deviation_measured(entries: np.ndarray) -> float:
    """||M - S|| for S[i, j] = M[0, i ^ j], from |M - S| in float64, one
    chunk of rows at a time."""
    N = entries.shape[0]
    r = entries[0].astype(float)
    j = np.arange(N)
    rows, cols = np.zeros(N), np.zeros(N)
    step = max(1, _CHUNK // N)
    for start in range(0, N, step):
        i = j[start : start + step]
        part = np.abs(np.subtract(entries[i], np.take(r, i[:, None] ^ j), dtype=float))
        rows[i] = part.sum(axis=1)
        cols += part.sum(axis=0)
    return _deviation_norm(rows, cols)


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


def _low_rank_eig(entries: np.ndarray, bits: np.ndarray):
    """Values, lazy vectors and residuals of a matrix whose columns lie in
    the span of X = [1 | bits], from one eigh of order n + 1.

    With Q_X the orthonormal factor of X's QR, S = Q_X^T (M Q_X), where
    M Q_X is formed over every entry in blocks of `_GEMM_ROWS` rows, each
    widened to float64 on its own, and its eigenpairs (theta, u) give
    the range pairs (theta, Q_X u), each checked as ||M Q_X u - theta
    Q_X u||.  Every other value is exactly 0, on the complement of Q_X's
    range.  For a unit v there, M v = (M - Q_X S Q_X^T) v, so
    ||M - Q_X S Q_X^T||_F, summed over blocks of `_BLOCK` rows,
    bounds the residual of every kernel pair; it stands for each of them.
    The vectors (`_low_rank_vectors`) are built on first read.
    """
    N = entries.shape[0]
    X = np.concatenate([np.ones((N, 1)), bits], axis=1)
    Q = np.linalg.qr(X)[0]
    MQ = np.empty((N, Q.shape[1]))
    for start in range(0, N, _GEMM_ROWS):
        rows = slice(start, start + _GEMM_ROWS)
        np.matmul(entries[rows], Q, out=MQ[rows])
    S = Q.T @ MQ
    theta, U = np.linalg.eigh(S)
    QU = Q @ U
    R = MQ @ U - QU * theta
    range_residual = np.sqrt(np.einsum("ij,ij->j", R, R))
    SQt = S @ Q.T
    squares = 0.0
    for start in range(0, N, _BLOCK):
        rows = slice(start, start + _BLOCK)
        off = entries[rows] - Q[rows] @ SQt
        squares += float(np.einsum("ij,ij->", off, off))
    rank = theta.size
    natural = np.concatenate([theta, np.zeros(N - rank)])
    residual = np.concatenate([range_residual, np.full(N - rank, math.sqrt(squares))])
    order = np.argsort(natural, kind="stable")
    return natural[order], functools.partial(_low_rank_vectors, X, QU, order), residual


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
    kron(... kron(kron(Q, Q), Q) ..., Q)."""
    power = Q
    for _ in range(k - 1):
        power = np.kron(power, Q)
    return power


def _kron_eig(entries: np.ndarray, factor: np.ndarray, n: int):
    """Values, lazy vectors and the residual bound of the n-fold Kronecker
    sum of a 3x3 factor F, from one eigh of it.

    With F = Q diag(w) Q^T, natural column sum_k j_k 3^k is the Kronecker
    product of Q[:, j_k] over the digits (axis k at the k-th slot from the
    right, as in `cubegraphs.build`), with the value sum_k w[j_k].  The
    values are returned in stable ascending order, the vectors
    (`_kron_vectors`) are built on first read, and the bound is ||M - S||
    (`_kron_deviation`) + n max_j ||F q_j - w_j q_j|| + rho, with ||S||_inf
    <= n ||F||_inf and max |lambda| <= n max |w| (see the module docstring).
    """
    w, Q = np.linalg.eigh(factor)
    natural = w
    for _ in range(n - 1):
        natural = np.add.outer(natural, w).ravel()
    order = np.argsort(natural, kind="stable")
    factor_residual = float(np.linalg.norm(factor @ Q - Q * w, axis=0).max())
    deviation = _kron_deviation(entries, factor, n)
    norm = n * float(np.abs(factor, dtype=float).sum(axis=1).max() + np.abs(w).max()) + deviation
    bound = deviation + n * factor_residual + _rounding(entries.shape[0], n, norm)
    return natural[order], functools.partial(_kron_vectors, Q, n, order), bound


def _kron_deviation(entries: np.ndarray, factor: np.ndarray, n: int) -> float:
    """||M - S|| for S the n-fold Kronecker sum of the 3x3 factor F, read
    on every entry of M.

    At level l = 0, ..., n - 1, M is P = 3^l diagonal blocks of side 3 s,
    s = 3^(n - 1 - l), each split by its top digit into 3 x 3 sub-blocks of
    side s; sub-block (a, b), a != b, of every one of them must be F[a, b] I.
    Each (a, b) is tested for all P blocks at once, in M's dtype: its
    diagonal must equal F[a, b] and its nonzeros number s P, or 0 when
    F[a, b] = 0.  The sub-blocks (a, a) are the next level's diagonal
    blocks, and the last level leaves M's diagonal, which must be the
    n-fold sums of F's diagonal.  Every off-diagonal entry of M lies in
    exactly one tested sub-block, so every entry is read once.  Where a
    sub-block or the diagonal differs, |M - S| is measured there in
    float64, one chunk of rows at a time, and added to the row and column
    abs-sums; where nothing differs the result is 0.0.
    """
    N = entries.shape[0]
    rows, cols = np.zeros(N), np.zeros(N)
    for level in range(n):
        P, s = 3**level, 3 ** (n - 1 - level)
        # blocks[a, x, b, y, p] is entry (x, y) of sub-block (a, b) of diagonal block p
        blocks = np.diagonal(entries.reshape(P, 3, s, P, 3, s), axis1=0, axis2=3)
        for a, b in _OFF_DIAGONAL:
            tile, c = blocks[a, :, b], factor[a, b]
            if (np.diagonal(tile) == c).all() and np.count_nonzero(tile) == (c != 0) * s * P:
                continue
            step = max(1, _CHUNK // (s * P))
            for x in range(0, s, step):
                part = tile[x : x + step].astype(float)
                m = part.shape[0]
                part[np.arange(m), np.arange(x, x + m)] -= c
                np.abs(part, out=part)
                rows.reshape(P, 3, s)[:, a, x : x + m] += part.sum(axis=1).T
                cols.reshape(P, 3, s)[:, b] += part.sum(axis=0).T
    ideal = np.zeros(1)
    for _ in range(n):
        ideal = np.add.outer(ideal, np.diagonal(factor).astype(float)).ravel()
    diagonal = np.abs(np.subtract(np.diagonal(entries), ideal, dtype=float))
    rows += diagonal
    cols += diagonal
    return _deviation_norm(rows, cols)


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
    for start in range(0, size // 3, TILE):
        rows = slice(start, start + TILE)
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


def _centro_blocks(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minus and plus blocks of K M K^T for a bisymmetric M, by slicing,
    in float64 whatever M's dtype.

    K = (1/sqrt(2)) [[I, -J], [I, J]], with a sqrt(2) centre row inserted
    for odd N, is never formed.  The minus block carries the eigenvalues of
    the antisymmetric eigenvectors (J x = -x), the plus block those of the
    symmetric ones.  The off-diagonal blocks of K M K^T are dropped; each of
    their entries is half the sum of two entries of M - J M J, so a caller
    bounds them by `centro_deviation` first.  With m = N // 2, A the
    top-left m x m block and B J the top-right block with its columns
    reversed, the minus block is A - B J and the plus block A + B J; for
    odd N the plus block is bordered in front by the centre entry and
    sqrt(2) times the centre column.
    """
    N = entries.shape[0]
    m = N // 2
    A = entries[:m, :m]
    BJ = entries[:m, N - m :][:, ::-1]
    minus = np.subtract(A, BJ, dtype=float)
    if N % 2 == 0:
        return minus, np.add(A, BJ, dtype=float)
    plus = np.empty((m + 1, m + 1))
    plus[0, 0] = entries[m, m]
    plus[1:, 0] = plus[0, 1:] = math.sqrt(2.0) * entries[:m, m]
    np.add(A, BJ, out=plus[1:, 1:], dtype=float)
    return minus, plus


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


def eig_identity_check(L, B) -> IdentityResult:
    """Determinant identity tying a singular Laplacian to its kernel vector.

    For N x (N-1) matrix B and unit kernel vector x of L (`eig_sym`'s, with
    a simple zero eigenvalue by `Spectrum.in_kernel`):

        det(B^T L B) = (product of nonzero eigenvalues) * det([B | x])^2

    This is the Cauchy-Binet-type consequence of det(B^T (t I - L) B)
    = p'_L(t) |det([B | x])|^2 evaluated at the kernel eigenvalue t = 0.

    Both sides are carried as (sign, log|.|) from slogdet, so they may
    exceed the float range (lhs and rhs then read +-inf).  They agree when
    rel_err = |lhs - rhs| / max(|lhs|, |rhs|, 1) <= 1e-6, evaluated after
    scaling both sides by that maximum.
    """
    entries = symmetric_entries(L)
    B = np.asarray(B, dtype=float)
    N = entries.shape[0]
    if B.shape != (N, N - 1):
        raise ValueError(f"B must be {N}x{N - 1}, got {B.shape}")
    spec = eig_sym(L)
    kernel = np.flatnonzero(spec.in_kernel())
    if kernel.size != 1:
        raise ValueError(f"kernel dimension {kernel.size}, identity needs a simple kernel")
    x = spec.vectors[:, kernel[0]]
    nonzero = np.delete(spec.values, kernel[0])
    lhs_sign, lhs_log = np.linalg.slogdet(B.T @ entries @ B)
    x_sign, x_log = np.linalg.slogdet(np.column_stack([B, x]))
    rhs_sign = np.prod(np.sign(nonzero)) * x_sign**2
    rhs_log = np.log(np.abs(nonzero)).sum() + 2.0 * x_log
    scale = max(lhs_log, rhs_log, 0.0)
    rel_err = float(abs(lhs_sign * np.exp(lhs_log - scale) - rhs_sign * np.exp(rhs_log - scale)))
    with np.errstate(over="ignore"):
        lhs, rhs = float(lhs_sign * np.exp(lhs_log)), float(rhs_sign * np.exp(rhs_log))
    return IdentityResult(lhs=lhs, rhs=rhs, agree=rel_err <= 1e-6, rel_err=rel_err)


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
