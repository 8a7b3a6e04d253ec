"""Matrix constructors for the seven cube graph families.

Families over {0,1}^n (2^n vertices):
  ncube            adjacency at Hamming distance 1
  hamming          full Hamming distance matrix
  tricube          combinatorial cotan Laplacian n*I - E of the
                   triangulated-2-face cube (equal weights, Theorem-1 form)
  regtricube       adjacency at Hamming distance 1 or 2 (cube edges plus
                   both 2-face diagonals)

Families over {-1,0,1}^n (3^n vertices, 2^n unit cubes glued at the origin):
  powcube          adjacency (coordinates differ on one axis by one step,
                   0 <-> +-1 only)
  powtri           Kirchhoff/cotan Laplacian of powcube
  powhamming       Hamming distances between the 3^n vertex addresses

`FAMILIES` describes each family once, and `build` makes any of them from
one of two rules:

- distance profile: entry (i, j) is g_n(d) for the Hamming distance d
  between the binary addresses of vertices i and j (ncube, hamming,
  tricube, regtricube, and powhamming, whose address bit k says whether
  coordinate k is nonzero);
- per-axis factor: the matrix is the n-fold Kronecker sum of a 3x3 factor,
  the 3-vertex path's adjacency or Laplacian (powcube, powtri).

`build` also declares the exact structure it built, as
`GraphMatrix.structure`, for `spectra.eig_sym` to solve from:

- KRONECKER, the 3x3 factor: powcube and powtri;
- WALSH: the base-2 profile rows (ncube, hamming, tricube, regtricube),
  whose binary-order entry (i, j) is g_n(popcount(i ^ j));
- LOW_RANK, the N x n address bits A: powhamming, whose distances
  s 1^T + 1 s^T - 2 A A^T (s = A 1) have rank at most n + 1.

`build` declares one of them for every row at every n.  An ordering only
relabels the graph: outside the natural order, KRONECKER and WALSH carry
the relabelling as `perm`, and LOW_RANK's bits are given per position.
`meshcotan.build_cube_cotan_geometric` declares WALSH too, and
`meshcotan.build_wdm` declares none.  `build` stores the entries as int8,
which holds every family entry exactly (|entry| <= 2n <= 16), so a built
matrix takes N^2 bytes; its consumers widen them to float64 one block at
a time.  `build` refuses a matrix whose dense float64 form would exceed
`MAX_DENSE_BYTES` (up to 2^13 and 3^8 vertices fit) before it builds
anything.  The seven named constructors are single `build` calls.
Matrices are dense, which suits desk scale (N <= 3^7); the structure pays
off instead in validation and in `spectra.eig_sym`.

A profile row is filled from its row 0, r[j] = g_n(popcount(j)), with no
N x N temporary: entry (i, j) is r[a_i ^ a_j] for the addresses a.

- In the natural binary order, a_i = i, and the rows are filled by XOR
  doubling (`_xor_circulant`): for h = 1, 2, ..., N/2, rows [h, 2h) are
  rows [0, h) with the column blocks of width h swapped in each 2h-wide
  pair.
- In a relabelled 2^n order, each block of rows gathers r[a_i ^ a_j].
- On 3^n vertices, the 2^n x 2^n XOR circulant of r is filled by doubling
  and each block of rows gathers it by address, by rows and then by
  columns.

A factor row is filled by digit tripling (`_kron_tripling`), the 3^n
counterpart of XOR doubling: M_k = F (x) I + I (x) M_(k-1), so each step
copies the top-left block into the other two diagonal blocks and adds
F[a, b] along the diagonal of block (a, b).  In the ternary-gray order the
blocks whose top digits differ in parity take the anti-diagonal instead.

`GraphMatrix` validates its entries once, when it is made, and the
public constructor first copies them; `build` and the mesh builders hand
over their fresh arrays without a copy.  A declaration is validated by
its exact structure proof, which reads every entry in the matrix's own
ordering and makes no natural-order copy:

- KRONECKER: S's O(n N) nonzero positions, gathered through `perm`, must
  hold their factor entries, the diagonal the n-fold sums of the factor's
  diagonal, and np.count_nonzero(M) must be S's count (`_kron_proof`);
- WALSH: the natural row 0, r, must be a function of popcount alone,
  r[j] = r[2^popcount(j) - 1]; then, in the natural binary order, XOR
  doubling, and in a relabelled order, each chunk of rows against r
  gathered at a_i ^ a_j (`_walsh_proof`);
- LOW_RANK: the bits must be 0/1, every row must equal the row of the
  first position with its address, and those at most 2^n representative
  rows must equal popcount(a_r ^ a_q) (`_low_rank_proof`).

A declaration that its proof refuses, by any amount or by a NaN or an
infinity anywhere, raises ValueError.  Once M == S, symmetry and the
kind's entry rule follow from S's row 0, factor or representative rows.
Only undeclared entries are tested in slabs of `_SLAB` rows.  The proofs
share no code with the fills, which write their entries by other index
arithmetic, so that one bug cannot pass both.
"""

import json
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bitspace import BINARY, TERNARY, TERNARY_GRAY, binary_ordering, ternary_ordering

ADJACENCY = "adjacency"
DISTANCE = "distance"
LAPLACIAN = "laplacian"

# absolute bound for every exact-structure test on float entries: symmetry
# here and on raw arrays in `spectra`, and the bisymmetry claims of `verify`
STRUCTURE_TOL = 1e-10

# bound on the 8 N^2 bytes of a built matrix's float64 form
MAX_DENSE_BYTES = 1 << 30

# bound on the edges of an Eulerian circuit: n = 16 (4.46M edges) takes ~3 s
# and ~290 MB, and n = 19 (50M) would need ~2 GB for the returned list of
# Python ints alone
MAX_CIRCUIT_EDGES = 1 << 23


# rows per slab of the symmetry test and of the entry rules on unproved
# entries, so that neither makes an N x N temporary: a 128-column slab row
# is 1 KiB of float64
_SLAB = 128


def asymmetry(entries: np.ndarray) -> float:
    """Largest entry of |M - M^T|: 0.0 when M is exactly symmetric, and inf
    when an entry is NaN.

    The exact test walks the diagonal in slabs of `_SLAB` rows,
    comparing row slab M[i:i+s, i:] with column slab M[i:, i:i+s]^T, so it
    reads every pair (j, k), j <= k, once in short contiguous runs rather
    than the whole transpose, and stops at the first mismatch.  Only a
    mismatch pays for the full |M - M^T|, taken in float64 so that integer
    entries cannot wrap.
    """
    if entries.ndim < 2:  # a 0-d or 1-d array is its own transpose
        return 0.0
    s = _SLAB
    for i in range(0, entries.shape[0], s):
        if not np.array_equal(entries[i : i + s, i:], entries[i:, i : i + s].T):
            deviation = float(np.abs(np.subtract(entries, entries.T, dtype=float)).max())
            return math.inf if math.isnan(deviation) else deviation
    return 0.0


KRONECKER = "kronecker"
WALSH = "walsh"
LOW_RANK = "low-rank"


@dataclass(frozen=True, eq=False)
class Structure:
    """The exact structure `build` declares for a matrix's entries.

    kind  KRONECKER: `data`, a 3x3 factor, has them as its n-fold
              Kronecker sum (N = 3^n, n >= 1);
          WALSH: entry (i, j) is a function of popcount(i ^ j) alone
              (N = 2^n), and `data` is None;
          LOW_RANK: entry (p, q) is popcount(a_p ^ a_q), the Hamming
              distance of the addresses whose bits are the rows of `data`,
              the N x n matrix of 0/1 address bits at M's positions; every
              column lies in the span of the ones vector and data's.
    perm  None, or the vertex at each position, an integer bijection on
          range(N); `kind` and `data` then describe the natural-order
          entries M[np.ix_(inv, inv)], inv = argsort(perm).  A LOW_RANK
          structure takes none.
    """

    kind: str
    data: np.ndarray | None = None
    perm: np.ndarray | None = None


@dataclass(frozen=True)
class GraphMatrix:
    """Dense square matrix tagged with its graph family and construction.

    The entries keep the dtype they are given: int8 from `build`, float64
    from the mesh builders.  The constructor copies the entries, and the
    arrays of a `structure`, so that no array the caller still holds can
    change them; `build` and the mesh builders hand over the arrays they
    made through `_adopt`, which skips the copy.  Construction validates
    the entries once and makes them read-only: they must be symmetric
    (within `STRUCTURE_TOL`) and meet the kind's rule, hollow 0/1 for
    ADJACENCY, hollow, finite and nonnegative for DISTANCE, zero row sums
    (within 1e-9) for LAPLACIAN.

    A `structure`, when set, declares how the entries were built, and its
    `perm` must be a bijection on range(N), and None for LOW_RANK
    (ValueError otherwise).  A structure S is proved exactly on every
    entry (see the module docstring), and entries that are not S raise
    ValueError; once M == S, symmetry and the kind's rule follow from S,
    and `spectra.eig_sym` solves S without reading the entries again but
    a Walsh matrix's row 0.  Entries declaring no structure are tested in
    slabs of `_SLAB` rows.
    """

    family: str
    kind: str
    n: int
    ordering: str
    entries: np.ndarray
    structure: Structure | None = None

    @property
    def N(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def _adopt(cls, family, kind, n, ordering, entries, structure=None):
        """The matrix of arrays that the caller made and drops: validated
        as by the constructor, but not copied."""
        matrix = cls.__new__(cls)
        object.__setattr__(matrix, "_fresh", entries)
        matrix.__init__(family, kind, n, ordering, entries, structure)
        return matrix

    def __post_init__(self):
        fresh = self.__dict__.pop("_fresh", None) is self.entries
        e = self.entries if fresh else np.array(self.entries, order="C")
        object.__setattr__(self, "entries", e)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"entries must be square, got shape {e.shape}")
        s = self.structure
        if s is not None:
            if not fresh:
                s = Structure(s.kind, _copied(s.data), _copied(s.perm))
                object.__setattr__(self, "structure", s)
            self._check_structure()
            rows = _low_rank_proof(e, s.data) if s.kind == LOW_RANK else None
            if not (_walsh_proof(e, s.perm) if s.kind == WALSH
                    else _kron_proof(e, s.data, self.n, s.perm) if s.kind == KRONECKER
                    else rows is not None):
                raise ValueError(f"entries do not have their declared {s.kind} structure")
            # M == S: every row of a WALSH S holds row 0's values, and every
            # row of a LOW_RANK S is one of its representative rows; a
            # KRONECKER S's diagonal is all zero iff its factor F's is, its
            # other entries are F's, and its row sums reach n times F's
            # largest
            if s.kind == WALSH:
                diagonal, pieces, sums = e[0, :1], [e[0]], e[0].sum(keepdims=True)
            elif s.kind == KRONECKER:
                F = s.data
                diagonal, pieces, sums = np.diagonal(F), [F], self.n * F.sum(axis=1)
            else:
                diagonal, pieces, sums = np.diagonal(e), [rows], rows.sum(axis=1)
        else:
            if asymmetry(e) > STRUCTURE_TOL:
                raise ValueError("entries must be symmetric")
            diagonal = np.diagonal(e)
            pieces = [e[i : i + _SLAB] for i in range(0, e.shape[0], _SLAB)]
            sums = None  # read below, for a Laplacian only
        if self.kind == ADJACENCY:
            if not (all(np.all((p == 0) | (p == 1)) for p in pieces) and np.all(diagonal == 0)):
                raise ValueError("adjacency matrix must be hollow 0/1")
        elif self.kind == DISTANCE:
            # min and max are NaN when a NaN is read, and fail both tests
            if np.any(diagonal != 0) or not all(0 <= p.min() and p.max() < np.inf for p in pieces):
                raise ValueError("distance matrix must be hollow, finite and nonnegative")
        elif self.kind == LAPLACIAN:
            if np.abs(e.sum(axis=1) if sums is None else sums).max() > 1e-9:
                raise ValueError("laplacian must have zero row sums")
        else:
            raise ValueError(f"unknown matrix kind {self.kind!r}")
        e.setflags(write=False)

    def _check_structure(self):
        """O(1) facts and the bijection of `perm`, before any proof."""
        kind, data, N = self.structure.kind, self.structure.data, self.N
        if kind == KRONECKER:
            if not (np.shape(data) == (3, 3) and asymmetry(data) <= STRUCTURE_TOL
                    and self.n >= 1 and N == 3**self.n):
                raise ValueError("factor must be a symmetric 3x3 of a 3^n matrix, n >= 1")
        elif kind == WALSH:
            if data is not None or N != 2**self.n:
                raise ValueError("a Walsh structure declares no data, on 2^n vertices")
        elif kind == LOW_RANK:
            if np.shape(data) != (N, self.n) or self.structure.perm is not None:
                raise ValueError("low-rank address bits must be an N x n array, with no perm")
        else:
            raise ValueError(f"unknown structure kind {kind!r}")
        perm = self.structure.perm
        if perm is not None:  # else the proof would read another matrix
            if not (isinstance(perm, np.ndarray) and perm.dtype.kind in "iu"
                    and np.array_equal(np.sort(perm), np.arange(N))):
                raise ValueError("a structure's perm must be a bijection on range(N)")
            perm.setflags(write=False)
        if data is not None:
            data.setflags(write=False)


def _copied(x):
    """A copy of an array, or x itself when it is not one (None, or a value
    that `_check_structure` refuses)."""
    return x.copy() if isinstance(x, np.ndarray) else x


# entries per chunk of rows of the natural-order Walsh proof, so that it
# makes no N x N temporary
_CHUNK = 1 << 18
# entries per row block of a gather, in a profile fill or a relabelled
# Walsh proof: its XOR and index temporaries stay near 1 MB however large
# N is
_GATHER_ENTRIES = 1 << 16


def _walsh_proof(entries: np.ndarray, perm: np.ndarray | None) -> bool:
    """Whether M is finite and equals the WALSH structure S[p, q] = r[a_p ^
    a_q]: a = perm (the identity when None) and r = M[inv[0], inv], inv =
    argsort(perm), the natural order's row 0, a function of popcount alone.
    Proved on every entry in M's own dtype, with no N x N temporary:

    - r[j] must be r[2^popcount(j) - 1], the first index of its popcount;
    - in the natural order, by XOR doubling: for h = 1, 2, ..., N/2, rows
      [h, 2h) must be rows [0, h) with the column blocks of width h swapped
      in each 2h-wide pair, so that row i is row i - h under j -> j ^ h,
      and by induction row 0 under j -> i ^ j;
    - in a relabelled order, by comparing each chunk of rows with r
      gathered at a_p ^ a_q.

    A NaN differs from every entry it is compared with, and every row of S
    holds the values of r, so testing r leaves no infinity.
    """
    N = entries.shape[0]
    inv = None if perm is None else np.argsort(perm)
    r = entries[0] if perm is None else entries[inv[0]][inv]
    weight = np.bitwise_count(np.arange(N)).astype(np.intp)  # a uint8 would wrap 1 << weight
    if not (np.isfinite(r).all() and np.array_equal(r, r[(1 << weight) - 1])):
        return False
    if perm is None:
        step = max(1, _CHUNK // N)
        h = 1
        while h < N:
            for start in range(0, h, step):
                stop = min(start + step, h)
                swapped = entries[start:stop].reshape(stop - start, -1, 2, h)[:, :, ::-1]
                below = entries[h + start : h + stop].reshape(swapped.shape)
                if not np.array_equal(below, swapped):
                    return False
            h *= 2
        return True
    a = perm.astype(np.min_scalar_type(N - 1))
    step = max(1, _GATHER_ENTRIES // N)
    return all(
        np.array_equal(entries[start : start + step], np.take(r, a[start : start + step, None] ^ a))
        for start in range(0, N, step)
    )


def _kron_proof(entries: np.ndarray, factor: np.ndarray, n: int, perm: np.ndarray | None) -> bool:
    """Whether M equals the KRONECKER structure S, the n-fold Kronecker sum
    of the 3x3 factor F with vertex perm[p] at position p (the natural order
    when perm is None), proved on every entry.

    The proof reads S's support and nothing else of M but a count.  With
    the positions of the vertices laid out on a (3,) * n grid, the vertices
    whose digit on one axis is a, and their partners whose digit there is
    b, all else equal, are the grid's slices a and b along that axis, and
    S holds F[a, b] at those pairs.  Every nonzero F[a, b], a != b, must be
    in M at its pairs on every axis, M's diagonal must be the n-fold sums
    of F's diagonal, and M must have no other nonzero: np.count_nonzero(M)
    must be S's count.  Then M == S.  A NaN or an infinity fails the first
    two tests on S's support and the count off it.
    """
    N = 3**n
    position = np.arange(N) if perm is None else np.argsort(perm)
    grid = position.reshape((3,) * n)
    a, b = np.nonzero(factor)
    a, b = a[a != b], b[a != b]
    # (axis, pair, vertex) arrays; axis moves to the front of the grid
    slices = [grid.swapaxes(0, axis).reshape(3, -1) for axis in range(n)]
    rows, cols = np.stack([s[a] for s in slices]), np.stack([s[b] for s in slices])
    diagonal = np.zeros(1)  # the sums over each vertex's digits of F's diagonal
    for _ in range(n):
        diagonal = np.add.outer(diagonal, np.diagonal(factor).astype(float)).ravel()
    return bool(np.all(entries[rows, cols] == factor[a, b][:, None])
                and np.array_equal(np.diagonal(entries)[position], diagonal)
                and np.count_nonzero(entries) == rows.size + np.count_nonzero(diagonal))


def _low_rank_proof(entries: np.ndarray, bits: np.ndarray) -> np.ndarray | None:
    """The representative rows of M when M equals the LOW_RANK structure
    S[p, q] = popcount(a_p ^ a_q), for the address a_p whose bit k is
    bits[p, k]; None otherwise.  Proved on every entry in M's own dtype,
    with no N x N temporary:

    - every bit must be 0 or 1;
    - the representative rows, those of the first position of each
      address (at most 2^n), must equal popcount(a_r ^ a_q), counted by
      `np.bitwise_count`;
    - every row must equal the representative row of its address, one
      chunk of rows at a time.

    A NaN or an infinity differs from every popcount.
    """
    if not np.all((bits == 0) | (bits == 1)):
        return None
    N, n = bits.shape
    address = bits.astype(np.intp) @ (1 << np.arange(n))
    _, first, inverse = np.unique(address, return_index=True, return_inverse=True)
    address = address.astype(np.min_scalar_type((1 << n) - 1))
    rows = entries[first]
    if not np.array_equal(rows, np.bitwise_count(address[first, None] ^ address)):
        return None
    step = max(1, _GATHER_ENTRIES // N)
    if all(np.array_equal(entries[start : start + step], rows[inverse[start : start + step]])
           for start in range(0, N, step)):
        return rows
    return None


_PATH3_ADJ = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int8)
_PATH3_LAP = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=np.int8)


def _kron_tripling(factor: np.ndarray, n: int, gray: bool) -> np.ndarray:
    """The n-fold Kronecker sum of a 3x3 factor F, in F's dtype, by digit
    tripling, in the natural ternary order or, when `gray`, the
    ternary-gray one.

    Vertex index m = sum digits[k] * 3^k, so M_k = F (x) I + I (x) M_(k-1)
    with the top digit in front: with blocks of side s = 3^(k-1), block (a,
    b) of M_k is F[a, b] I plus, when a == b, M_(k-1).  From M_0 = 0, each
    step copies the top-left block into the other two diagonal blocks and
    adds F[a, b] along the diagonal of block (a, b), through a strided flat
    view (step N + 1).  In the ternary-gray order an odd top digit reflects
    every lower digit (d -> 2 - d), which reverses the lower positions, so
    the blocks whose top digits differ in parity take the anti-diagonal
    (step N - 1) instead.  The diagonal blocks need no change, since the
    path's factors, F[2 - a, 2 - b] = F[a, b], and hence M_(k-1), are
    invariant under that reflection; `_kron_proof` refuses this order's
    fill of any other factor.
    """
    N = 3**n
    total = np.zeros((N, N), dtype=factor.dtype)
    flat = total.reshape(-1)
    s = 1
    while s < N:
        total[s : 2 * s, s : 2 * s] = total[:s, :s]
        total[2 * s : 3 * s, 2 * s : 3 * s] = total[:s, :s]
        for a, b in zip(*np.nonzero(factor)):
            if gray and (a - b) % 2:
                start, step = a * s * N + b * s + s - 1, N - 1
            else:
                start, step = a * s * N + b * s, N + 1
            flat[start : start + (s - 1) * step + 1 : step] += factor[a, b]
        s *= 3
    return total


@dataclass(frozen=True, eq=False)
class Family:
    """One row of `FAMILIES`; exactly one of `profile` and `factor` is set.

    profile  g_n(d) as a function of (d, n) over the array d = 0..n
    factor   3x3 int8 per-axis matrix of a Kronecker sum (base 3 only)
    """

    base: int
    kind: str
    min_n: int
    profile: Callable | None = None
    factor: np.ndarray | None = None


FAMILIES = {
    "ncube": Family(2, ADJACENCY, 1, profile=lambda d, n: d == 1),
    "hamming": Family(2, DISTANCE, 1, profile=lambda d, n: d),
    "tricube": Family(2, LAPLACIAN, 1, profile=lambda d, n: n * (d == 0) - (d == 1)),
    "regtricube": Family(2, ADJACENCY, 2, profile=lambda d, n: (d == 1) | (d == 2)),
    "powcube": Family(3, ADJACENCY, 1, factor=_PATH3_ADJ),
    "powtri": Family(3, LAPLACIAN, 1, factor=_PATH3_LAP),
    "powhamming": Family(3, DISTANCE, 1, profile=lambda d, n: d),
}

# vertex base -> (default ordering, permutation of the vertex indices)
_ORDERINGS = {2: (BINARY, binary_ordering), 3: (TERNARY, ternary_ordering)}



def _xor_circulant(r: np.ndarray) -> np.ndarray:
    """The 2^n x 2^n matrix C[i, j] = r[i ^ j], in r's dtype, by XOR
    doubling from row 0 = r: for h = 1, 2, ..., 2^(n - 1), rows [h, 2h)
    are rows [0, h) with the column blocks of width h swapped in each
    2h-wide pair, since (i + h) ^ j = i ^ (j ^ h) for i < h."""
    N = r.size
    C = np.empty((N, N), dtype=r.dtype)
    C[0] = r
    h = 1
    while h < N:
        C[h : 2 * h].reshape(h, -1, 2, h)[...] = C[:h].reshape(h, -1, 2, h)[:, :, ::-1]
        h *= 2
    return C


def build(family: str, n: int, ordering=None) -> GraphMatrix:
    """The `FAMILIES[family]` matrix on n axes, with int8 entries.

    `ordering` is a scheme tag for the family's vertex base or, for the
    2^n families, an explicit permutation; None takes binary for 2^n and
    ternary for 3^n.  The matrix declares its `Structure` (see the module
    docstring).  A profile row is filled from its row 0 and a factor row
    by digit tripling (see the module docstring), and
    the entries are handed to `GraphMatrix` without a copy, where the
    proof of the declared structure validates them; construction makes no
    N x N temporary.  An unknown family, n below the
    family's smallest, or a dense float64 form over `MAX_DENSE_BYTES`
    (n > 13 for 2^n, n > 8 for 3^n) raise ValueError before any ordering
    or array is built.
    """
    row = FAMILIES.get(family)
    if row is None:
        raise ValueError(f"unknown family {family!r}")
    if n < row.min_n:
        raise ValueError(f"dimension must be >= {row.min_n}, got {n}")
    # base >= 2, so 8 base^(2n) is past the bound once n reaches its bit
    # length; testing that first spares computing a huge power
    if n >= MAX_DENSE_BYTES.bit_length() or 8 * row.base ** (2 * n) > MAX_DENSE_BYTES:
        raise ValueError(
            f"{family} n={n}: dense float64 entries exceed {MAX_DENSE_BYTES >> 20} MiB"
        )
    default, vertex_ordering = _ORDERINGS[row.base]
    if ordering is None:
        ordering = default
    perm = np.array(vertex_ordering(n, ordering))
    relabel = None if np.array_equal(perm, np.arange(perm.size)) else perm
    if row.factor is not None:
        entries = _kron_tripling(row.factor, n, ordering == TERNARY_GRAY)
        structure = Structure(KRONECKER, row.factor, relabel)
    else:
        addresses = perm
        if row.base == 3:  # address bit k: coordinate k = digit k - 1 is nonzero
            bits = np.stack([perm // 3**k % 3 != 1 for k in range(n)], axis=1)
            addresses = bits @ (1 << np.arange(n))
            structure = Structure(LOW_RANK, bits.astype(float))
        else:
            structure = Structure(WALSH, perm=relabel)
        table = np.asarray(row.profile(np.arange(n + 1), n)).astype(np.int8)
        r = table[np.bitwise_count(np.arange(2**n))]
        if row.base == 2 and relabel is None:
            entries = _xor_circulant(r)
        else:
            circulant = _xor_circulant(r) if row.base == 3 else None
            addresses = addresses.astype(np.uint16)
            entries = np.empty((perm.size, perm.size), dtype=np.int8)
            step = max(1, _GATHER_ENTRIES // perm.size)
            for start in range(0, perm.size, step):
                a, block = addresses[start : start + step], entries[start : start + step]
                if circulant is None:
                    np.take(r, a[:, None] ^ addresses, out=block)
                else:
                    np.take(circulant[a], addresses, axis=1, out=block)
    ordering_tag = ordering if isinstance(ordering, str) else "custom"
    return GraphMatrix._adopt(family, row.kind, n, ordering_tag, entries, structure)


def ncube_adjacency(n: int, ordering=BINARY) -> GraphMatrix:
    """n-regular adjacency of the n-cube: edges at Hamming distance 1."""
    return build("ncube", n, ordering)


def hamming_distance_matrix(n: int, ordering=BINARY) -> GraphMatrix:
    """Full distance matrix of {0,1}^n: entry (l, m) is the Hamming
    distance between addresses l and m in the given ordering."""
    return build("hamming", n, ordering)


def tricube_laplacian(n: int, ordering=BINARY) -> GraphMatrix:
    """Cotan Laplacian of the cube with triangulated 2-faces: n*I - E.

    Diagonal entries n, -1 at Hamming-distance-1 pairs, 0 elsewhere
    (diagonal weights vanish since both opposite angles are right).
    """
    return build("tricube", n, ordering)


def regular_tricube_adjacency(n: int, ordering=BINARY) -> GraphMatrix:
    """Adjacency of the cube with both 2-face diagonals: edges at Hamming
    distance 1 or 2; regular of degree n + C(n,2) = n(n+1)/2."""
    return build("regtricube", n, ordering)


def pow_cube_adjacency(n: int, ordering=TERNARY) -> GraphMatrix:
    """Adjacency of 2^n unit n-cubes sharing the origin: 3^n vertices with
    coordinates in {-1,0,1}^n, edges where exactly one coordinate moves by
    one step between 0 and +-1 (never -1 <-> +1).  Equivalently the n-fold
    Cartesian product of the 3-vertex path."""
    return build("powcube", n, ordering)


def pow_tricube_laplacian(n: int, ordering=TERNARY) -> GraphMatrix:
    """Kirchhoff/cotan Laplacian L = G - E of the glued-cube structure;
    diagonal entries span n to 2n (degree = n + number of zero coordinates)."""
    return build("powtri", n, ordering)


def pow_hamming_matrix(n: int, ordering=TERNARY) -> GraphMatrix:
    """Hamming distances between the binary addresses of all 3^n vertices.

    Distinct vertices with equal addresses (e.g. opposite 3-norm corners)
    get distance 0.
    """
    return build("powhamming", n, ordering)


def _regtricube_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The edges of `regular_tricube_adjacency` in the binary ordering, as
    XOR masks: the masks m of weight 1 or 2 (vertex v's neighbours are
    v ^ m), and per vertex the mask indices in ascending order of that
    neighbour, from one argsort, with no adjacency matrix formed."""
    # j == i gives the weight-1 masks
    masks = np.array([(1 << i) | (1 << j) for i in range(n) for j in range(i + 1)])
    return masks, np.argsort(np.arange(2**n)[:, None] ^ masks, axis=1)


def eulerian_circuit(n: int):
    """Eulerian circuit of the cube-plus-both-diagonals graph, or None.

    The graph is n(n+1)/2-regular, so a circuit exists iff that degree is
    even (n = 0 or 3 mod 4).  Built with Hierholzer's algorithm over
    `_regtricube_masks`, taking each vertex's neighbours in ascending
    order; edge {v, v ^ m} has the same mask index from both ends, so one
    byte per (vertex, mask index) marks it used.  The returned vertex list
    starts and ends at vertex 0 and traverses every edge exactly once.  A
    circuit of more than `MAX_CIRCUIT_EDGES` edges (n >= 19) raises
    ValueError before anything is allocated.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    degree = n * (n + 1) // 2
    if degree % 2 != 0:
        return None
    if n >= MAX_CIRCUIT_EDGES.bit_length() or (degree // 2) << n > MAX_CIRCUIT_EDGES:
        raise ValueError(f"euler n={n}: the circuit exceeds {MAX_CIRCUIT_EDGES} edges")
    masks, order = _regtricube_masks(n)
    # one iterator per vertex resumes after the last mask index taken there
    masks, order = masks.tolist(), [iter(row) for row in order.tolist()]
    used = bytearray(degree << n)
    stack = [0]
    circuit = []
    while stack:
        v = stack[-1]
        for m in order[v]:
            if not used[v * degree + m]:
                w = v ^ masks[m]
                used[v * degree + m] = used[w * degree + m] = 1
                stack.append(w)
                break
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    n_edges = (degree // 2) << n
    if len(circuit) != n_edges + 1 or circuit[0] != circuit[-1]:
        raise RuntimeError("circuit construction failed to cover the graph")
    return circuit


def matrix_to_csv(gm: GraphMatrix, path) -> None:
    """Write a matrix as CSV: metadata header line, then row-major entries,
    each as repr(float(x)).

    Each distinct entry is formatted once into a value table keyed on its
    own bit pattern, viewed as an unsigned int of the entries' itemsize (so
    int8 entries are never widened, and a float -0.0 stays apart from 0.0),
    and each row is a join of table lookups.  The table comes from one sort
    of the bit patterns; `np.unique` would give the same table, but the
    hash table it builds in recent numpy raises the peak memory of a
    process that writes many matrices.
    """
    entries = gm.entries
    bits = entries.view(f"u{entries.dtype.itemsize}")
    ordered = np.sort(bits, axis=None)
    first = np.ones(ordered.shape, dtype=bool)  # the first of each run of equal patterns
    first[1:] = ordered[1:] != ordered[:-1]
    table = ordered[first]
    text = np.array([repr(float(v)) for v in table.view(entries.dtype)], dtype=object)
    with open(path, "w") as fh:
        fh.write("family,kind,n,ordering,N\n")
        fh.write(f"{gm.family},{gm.kind},{gm.n},{gm.ordering},{gm.N}\n")
        for row in bits:
            fh.write(",".join(text[np.searchsorted(table, row)].tolist()) + "\n")


def matrix_to_json(gm: GraphMatrix, path) -> None:
    """Write a matrix as a JSON envelope with the same metadata; every
    entry is written as a float (2.0, not 2), whatever its dtype."""
    payload = {
        "family": gm.family,
        "kind": gm.kind,
        "n": gm.n,
        "ordering": gm.ordering,
        "N": gm.N,
        "entries": np.asarray(gm.entries, dtype=float).tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
