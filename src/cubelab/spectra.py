"""Symmetric eigensolving, multiplicity clustering, and spectrum checks.

`eig_sym` is the one full eigendecomposition; only `verify`'s reference
spectra call LAPACK's eigh/eigvalsh themselves.  `symmetric_entries` is
the one symmetry gate for raw arrays (`asymmetry` within STRUCTURE_TOL); a
`GraphMatrix` was tested when built.  `eig_sym` has four routes, chosen by
the `structure` that `cubegraphs.build` declared:

- KRONECKER (powcube and powtri, n >= 2): one eigh of the 3x3 factor; the
  values are the n-fold sums of its eigenvalues, the vectors the n-fold
  Kronecker products of its eigenvectors.  The check applies each tile of
  M to the 81 x 81 Kronecker power Q^(x)4 of the 3x3 eigenvector matrix Q
  and combines the results with Q^(x)(n - 4), so it generates no
  eigenvector;
- WALSH (ncube, hamming, tricube and regtricube): the values are the fast
  Walsh-Hadamard transform of row 0 and the vectors the Sylvester
  Hadamard columns, with no LAPACK call.  The check transforms M block by
  block in O(N^2 n), and asserts the paper's statement that the value of
  k depends on popcount(k) only;
- LOW_RANK (powhamming, n >= 3): one eigh of the (n + 1)-order projection
  of M onto the span of the ones vector and the address bits, every other
  value 0.  The range pairs are checked directly, and the kernel pairs by
  the norm of M minus its projection;
- anything else (raw arrays, the mesh matrices, the factor rows at n = 1,
  powhamming at n <= 2) takes one eigh of the full matrix.

A structure's `perm` only relabels the graph: the route of its kind
solves the natural-order M[np.ix_(inv, inv)], inv = argsort(perm), made
through `GraphMatrix`, whose check reads every input entry, moved but
unchanged, and the vectors' rows are put back in `perm`'s order.

On the three declared routes the N x N matrix of eigenvectors is built on
the first read of `Spectrum.vectors` only.  Whatever the route, every
returned pair is residual-checked against every entry of the full
matrix, and a non-finite eigenvalue or residual fails the check, so a
false declaration raises `ResidualError`.  The undeclared route checks by
one GEMM, M V - V lambda.  The Kronecker route, when N is a multiple of
81 and at least 729, reads M through the census of 81 x 81 tiles that
`GraphMatrix` took when it validated the entries: all-zero tiles are
skipped, the tiles that are exactly c I (c != 0; 108 of the 135 nonzero
tiles of powcube and powtri at n = 7) enter through one matmul of their
count x count scale matrix with Q^(x)(n - 4), and each other nonzero tile
through one product with Q^(x)4.  Per tile row, one batched matmul of
inner dimension k + 1 (k general tiles) writes the row's residual block,
so neither Q^(x)(n - 1) nor M applied to it is formed; a smaller N takes
one GEMM on Q^(x)n.  `Spectrum.clusters` groups the eigenvalues whose
spread stays within the absolute `CLUSTER_TOL` = 1e-6 (the spectra handled
here have true gaps of at least sqrt(2) - 1), on its first read only.
"""

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .cubegraphs import (
    KRONECKER, LOW_RANK, STRUCTURE_TOL, TILE, WALSH, GraphMatrix, Structure, TileCensus,
    asymmetry,
)

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
    solves one 3x3 eigh (`_kron_basis`), WALSH none (`_walsh_eig`),
    LOW_RANK one of order n + 1 (`_low_rank_eig`).  Undeclared input is
    solved by one eigh of the full matrix.  Whatever the route,
    ||Mv - lambda v|| <= tol*max(|lambda|_max, 1) is verified for every
    pair on every entry of the input before returning (the Kronecker
    route's walk, `_kron_residual_norms`, skips only the all-zero tiles of
    `M._census`, and from N = 729 forms no Kronecker power of Q larger
    than 81 x 81 or N/81 x N/81), so a non-finite eigenvalue or residual,
    or a structure that does not match the entries, raises ResidualError.
    The WALSH route also raises it when two values of one popcount class
    differ by more than that bound.  The declared routes build the sorted
    N x N eigenvector matrix on the first read of `Spectrum.vectors` only.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"residual tolerance must be a finite number > 0, got {tol!r}")
    entries = symmetric_entries(M)
    structure = M.structure if isinstance(M, GraphMatrix) else None
    kind = None if structure is None else structure.kind
    if structure is not None and structure.perm is not None:
        perm, inv = structure.perm, np.argsort(structure.perm)
        solved = eig_sym(GraphMatrix(M.family, M.kind, M.n, "natural", entries[np.ix_(inv, inv)],
                                     Structure(kind, structure.data)), tol)
        # every declared route builds its vectors on the first read
        return Spectrum(solved.values, lambda: solved.basis()[perm])
    deviation = 0.0
    if kind == KRONECKER:
        natural, Q, order = _kron_basis(structure.data, M.n)
        residual = _kron_residual_norms(entries, natural, Q, M.n, M._census)
        values, vectors = natural[order], functools.partial(_kron_vectors, Q, M.n, order)
    elif kind == WALSH:
        natural, residual, deviation = _walsh_eig(entries)
        order = np.argsort(natural, kind="stable")
        values, vectors = natural[order], functools.partial(_walsh_vectors, order)
    elif kind == LOW_RANK:
        values, vectors, residual = _low_rank_eig(entries, structure.data)
    else:
        values, vectors = np.linalg.eigh(entries)
        residual = _residual_norms(entries, values, vectors)
    spec = Spectrum(values, vectors)
    residual, scale = float(residual.max()), spec.scale
    if not (math.isfinite(scale) and residual <= tol * scale):
        raise ResidualError(
            f"eigenpair residual {residual:.3e} at scale {scale:.3e}: "
            "not finite or exceeds tolerance"
        )
    if not deviation <= tol * scale:
        raise ResidualError(
            f"Walsh values differ by {deviation:.3e} within one popcount class "
            f"at scale {scale:.3e}"
        )
    return spec


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


def _sylvester(N: int) -> np.ndarray:
    """The N x N Sylvester Hadamard matrix, H[k, j] = (-1)^popcount(k & j)."""
    k = np.arange(N)
    return 1.0 - 2.0 * (np.bitwise_count(k[:, None] & k) & 1)


def _walsh_eig(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The Walsh values lambda_k, in natural order, ||M h_k - lambda_k h_k||
    for every k (h_k = H[:, k] / sqrt(N)), computed on every entry of M,
    and the largest |lambda_k - lambda_j| with popcount(k) = popcount(j).

    M is symmetric, so (M h_k)^T is row k of H M / sqrt(N), and lambda is
    its column 0, the transform of M's row 0.  H = H_hi (x) H_w, with w =
    min(N, `_BLOCK`), so each block of w columns of M is transformed
    by one batched GEMM with H_w and then `_fwht` over the high index;
    lambda_k H[k, cols] is subtracted from its row k (H[:, cols] is one
    sign per high index times H_w) and the squares of each row are summed
    over the blocks.  Each lambda_k is compared with the value of
    2^popcount(k) - 1, the first index of its popcount.
    """
    N = entries.shape[0]
    width = min(N, _BLOCK)
    count = N // width
    low = _sylvester(width)
    high = _sylvester(count)
    block, term = np.empty((count, width, width)), np.empty((count, width, width))
    squares = np.zeros(N)
    for q in range(count):
        np.matmul(low, entries[:, q * width : (q + 1) * width].reshape(count, width, width),
                  out=block)
        _fwht(block)
        if q == 0:
            natural = block[:, :, 0].flatten()
            lam = natural.reshape(count, width)
        np.multiply((lam * high[:, q : q + 1])[:, :, None], low, out=term)
        block -= term
        squares += np.einsum("ij,ij->i", block.reshape(N, width), block.reshape(N, width))
    weight = np.bitwise_count(np.arange(N)).astype(np.intp)  # a uint8 would wrap 1 << weight
    deviation = float(np.abs(natural - natural[(1 << weight) - 1]).max())
    return natural, np.sqrt(squares / N), deviation


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


def _kron_residual_norms(
    entries: np.ndarray, natural: np.ndarray, Q: np.ndarray, n: int,
    census: TileCensus | None,
) -> np.ndarray:
    """||M v - lambda v|| for the natural eigenpairs of `_kron_basis`, on
    every entry of M, without forming V = Q^(x)n or any column of it.

    On the grid of `census` (the `TileCensus` that `GraphMatrix` took of
    M), V = Whi (x) Q4, with Whi = Q^(x)(n - 4) (count x count) and Q4 =
    Q^(x)4 (81 x 81), so natural column 81 t + j is Whi[:, t] (x) Q4[:, j].
    By the mixed-product rule, column j of tile (r, t) of M V - V lambda is

        sum over the general tiles s of row r of Whi[s, t] (M_rs Q4)[:, j]
            + Q4[:, j] ((H Whi)[r, t] - Whi[r, t] lambda[81 t + j]),

    where H holds the scales of the c I tiles.  So for each tile row, with
    k general tiles, one batched matmul over j of the count x (k + 1)
    matrix [Whi[s].T | the bracket] by the (k + 1) x 81 matrix
    [(M_rs Q4)[:, j] ; Q4[:, j]] writes the row's whole 81 x count x 81
    residual block into one reused buffer, and `np.vecdot` sums its squares
    along the contiguous last axis.  All-zero tiles are skipped and every
    general tile is read in full.  A census of None, an untiled order
    (n <= 5), takes `_residual_norms` on Q^(x)n, one plain GEMM.

    The walk checks the products of Q's entries as Whi and Q4 round them,
    `_kron_vectors` as Q^(x)(n - 1) and Q do (each within a few ulps of
    the exact product), and it reassociates the sums.  Both differences
    are of order eps * scale, far below `RESIDUAL_TOL`.  A NaN in a
    general tile reaches the residual through M_rs Q4, and an inf * I tile
    through H Whi, so a non-finite residual still fails the check.
    """
    if census is None:
        return _residual_norms(entries, natural, _kron_power(Q, n))
    H = census.scales
    count = H.shape[0]
    Whi, Q4 = _kron_power(Q, n - 4), _kron_power(Q, 4)
    HW = H @ Whi
    # lam[j, t] is the value of natural column 81 t + j
    lam = natural.reshape(count, TILE).T.copy()
    block = np.empty((TILE, count, TILE))
    squares = np.zeros((TILE, count))
    for r, general in enumerate(census.general):
        s = np.flatnonzero(general)
        k = s.size
        # left[j] = [Whi[s].T | bracket[:, j]], right[j] = [(M_rs Q4)[:, j] ; Q4[:, j]]
        left, right = np.empty((TILE, count, k + 1)), np.empty((TILE, k + 1, TILE))
        left[:, :, :k] = Whi[s].T
        bracket = left[:, :, k]
        np.multiply(Whi[r], lam, out=bracket)
        np.subtract(HW[r], bracket, out=bracket)
        tiles = entries[r * TILE : (r + 1) * TILE].reshape(TILE, count, TILE)[:, s]
        right[:, :k] = (tiles.reshape(-1, TILE) @ Q4).reshape(TILE, k, TILE).transpose(2, 1, 0)
        right[:, k] = Q4.T
        np.matmul(left, right, out=block)
        squares += np.vecdot(block, block)
    return np.sqrt(squares.T.ravel())


def _kron_power(Q: np.ndarray, k: int) -> np.ndarray:
    """The k-fold Kronecker power of Q by the left-to-right chain
    kron(... kron(kron(Q, Q), Q) ..., Q)."""
    power = Q
    for _ in range(k - 1):
        power = np.kron(power, Q)
    return power


def _kron_basis(factor: np.ndarray, n: int):
    """The eigenpairs of the n-fold Kronecker sum of a 3x3 factor, from one
    eigh of it, in natural column order.

    With factor = Q diag(w) Q^T, natural column sum_k j_k 3^k is the
    Kronecker product of Q[:, j_k] over the digits (axis k at the k-th slot
    from the right, as in `_ternary_product`), with the value sum_k w[j_k].
    Returns those values, Q and the stable ascending order of the values;
    no Kronecker power of Q is formed.
    """
    w, Q = np.linalg.eigh(factor)
    values = w
    for _ in range(n - 1):
        values = np.add.outer(values, w).ravel()
    return values, Q, np.argsort(values, kind="stable")


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
