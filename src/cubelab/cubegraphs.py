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

- KRONECKER, the 3x3 factor: powcube and powtri, n >= 2;
- WALSH: the base-2 profile rows (ncube, hamming, tricube, regtricube),
  whose binary-order entry (i, j) is g_n(popcount(i ^ j));
- LOW_RANK, the N x n address bits A: powhamming with n >= 3, whose
  distances s 1^T + 1 s^T - 2 A A^T (s = A 1) have rank at most n + 1.

An ordering only relabels the graph: outside the natural order, KRONECKER
and WALSH carry the relabelling as `perm`, and LOW_RANK's bits are given
per position.  Every other matrix declares none.  `build` stores the
entries as int8, which holds every family entry exactly (|entry| <= 2n
<= 16), so a built matrix takes N^2 bytes; its consumers widen them to
float64 one block or tile at a time.  `build` refuses a matrix whose
dense float64 form would exceed `MAX_DENSE_BYTES` (up to 2^13 and 3^8
vertices fit) before it builds anything.  The seven named constructors
are single `build` calls.  Matrices are dense, which suits desk scale
(N <= 3^7); the structure pays off instead in `spectra.eig_sym`.

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

A factor row is written straight into its permuted positions
(`_ternary_product`).

`GraphMatrix` validates its entries when it is made.  An order that is a
multiple of `TILE` = 81 and at least 729 (every 3^n family from n = 6) is
first read once, whole, by a tile census (`TileCensus`), which sorts the
81 x 81 tiles into zero, c I and general; symmetry and the kind's entry
rule then follow from the tile classes and the general tiles, the only
ones read again.  Only validation reads the census, and the matrix does
not keep it.
"""

import json
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bitspace import BINARY, TERNARY, binary_ordering, ternary_ordering

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


# rows per slab of the symmetry test and of the untiled entry rules, so that
# neither makes an N x N temporary: a 128-column slab row is 1 KiB of float64
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


# side of the census tiles, 3^4, so that tiles line up with the digit blocks
# of the 3^n families; orders of fewer than _MIN_TILES tiles are not tiled
TILE = 81
_MIN_TILES = 9


@dataclass(frozen=True, eq=False)
class TileCensus:
    """A square matrix M read as a grid of `TILE`-square tiles.

    Each tile is classified from its own entries as zero, c I with c != 0
    (exactly one nonzero per row, on the diagonal, all equal, so a NaN
    never qualifies) or general.

    scales   H, the count x count matrix of the scales c (0 where a tile is
             not c I)
    general  the count x count mask of the general tiles
    runs     per tile row, the [start, stop) columns of M of each run of
             adjacent general tiles
    """

    scales: np.ndarray
    general: np.ndarray
    runs: list

    def blocks(self, entries: np.ndarray):
        """(rows, block) for each run of general tiles: the slice of M's
        rows the run lies in, and the run's entries."""
        for r, row_runs in enumerate(self.runs):
            rows = slice(r * TILE, (r + 1) * TILE)
            for start, stop in row_runs:
                yield rows, entries[rows, start:stop]

    def row_sums(self, entries: np.ndarray) -> np.ndarray:
        """M's row sums: each tile row's sum of H, plus the row sums of its
        general tiles."""
        sums = np.repeat(self.scales.sum(axis=1), TILE)
        for rows, block in self.blocks(entries):
            sums[rows] += block.sum(axis=1)
        return sums

    def symmetric(self, entries: np.ndarray) -> bool:
        """Whether the tiles prove M exactly symmetric: H and the general
        mask are symmetric, and every general tile on or right of the
        diagonal equals the transpose of its partner, so each pair is read
        once.  False says only that this test did not prove it."""
        if not (np.array_equal(self.scales, self.scales.T)
                and np.array_equal(self.general, self.general.T)):
            return False
        for r, row_runs in enumerate(self.runs):
            rows = slice(r * TILE, (r + 1) * TILE)
            for start, stop in row_runs:
                start = max(start, rows.start)
                if start < stop and not np.array_equal(
                    entries[rows, start:stop], entries[start:stop, rows].T
                ):
                    return False
        return True


def _tile_census(entries: np.ndarray) -> TileCensus | None:
    """The `TileCensus` of a square matrix, or None for an order below
    `_MIN_TILES` tiles or not a multiple of `TILE`.

    This reads every entry once, one tile row at a time: nonzeros are
    counted down the rows, then across each tile's columns (at most 81^2,
    so uint16 does not wrap), and each tile's diagonal is compared with
    its first entry.
    """
    N = entries.shape[0]
    if N % TILE or N < _MIN_TILES * TILE:
        return None
    count = N // TILE
    nonzeros = np.empty((count, count), dtype=np.uint16)
    diagonals = np.empty((count, count, TILE))
    for r in range(count):
        rows = entries[r * TILE : (r + 1) * TILE]
        counts = np.add.reduce(rows != 0, axis=0, dtype=np.uint16)
        nonzeros[r] = counts.reshape(count, TILE).sum(axis=1)
        diagonals[r] = np.diagonal(rows.reshape(TILE, count, TILE), axis1=0, axis2=2)
    scales = diagonals[:, :, 0]
    scaled = (nonzeros == TILE) & (scales != 0) & (diagonals == scales[:, :, None]).all(axis=2)
    general = (nonzeros > 0) & ~scaled
    runs = [
        np.flatnonzero(np.diff(row, prepend=False, append=False)).reshape(-1, 2) * TILE
        for row in general
    ]
    return TileCensus(np.where(scaled, scales, 0.0), general, runs)


KRONECKER = "kronecker"
WALSH = "walsh"
LOW_RANK = "low-rank"


@dataclass(frozen=True, eq=False)
class Structure:
    """The exact structure `build` declares for a matrix's entries.

    kind  KRONECKER: `data`, a 3x3 factor, has them as its n-fold
              `_ternary_product` (N = 3^n, n >= 2);
          WALSH: entry (i, j) is a function of popcount(i ^ j) alone
              (N = 2^n), and `data` is None;
          LOW_RANK: every column lies in the span of the ones vector and
              the columns of `data`, the N x n matrix of 0/1 address bits.
    perm  None, or the vertex at each position, an integer bijection on
          range(N); `kind` and `data` then describe the natural-order
          entries M[np.ix_(inv, inv)], inv = argsort(perm).
    """

    kind: str
    data: np.ndarray | None = None
    perm: np.ndarray | None = None


@dataclass(frozen=True)
class GraphMatrix:
    """Dense square matrix tagged with its graph family and construction.

    The entries keep the dtype they are given: int8 from `build`, float64
    from the mesh builders.  Construction validates them once and makes
    them read-only: they must be symmetric (within `STRUCTURE_TOL`) and
    meet the kind's rule, hollow 0/1 for ADJACENCY, hollow and nonnegative
    for DISTANCE, zero row sums (within 1e-9) for LAPLACIAN.  Entries that
    do not own their memory (a view, whose base could still be written)
    are copied first.  Entries that own it are kept, so a writable view of
    them taken before construction can still change them after
    validation; `build` and the mesh builders never leave such a view.  An
    untiled order is read in slabs of `_SLAB` rows, a tiled order from its
    census (see the module docstring).  A `structure`, when set, declares
    how the entries were built, and its `perm` must be a bijection on
    range(N) (ValueError otherwise); `spectra.eig_sym` proposes the
    eigenpairs from it, and its residual check, which reads every entry,
    rejects a false declaration.
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

    def __post_init__(self):
        e = self.entries
        if not e.flags.owndata:
            e = e.copy()
            object.__setattr__(self, "entries", e)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"entries must be square, got shape {e.shape}")
        census = _tile_census(e)
        # near-symmetric entries, or any the tiles do not prove symmetric,
        # take the full |M - M^T|
        if not (census is not None and census.symmetric(e)) and asymmetry(e) > STRUCTURE_TOL:
            raise ValueError("entries must be symmetric")
        # every entry is 0, a scale c of H, or in a general tile
        if census is None:
            pieces = [e[i : i + _SLAB] for i in range(0, e.shape[0], _SLAB)]
        else:
            pieces = [census.scales, *(b for _, b in census.blocks(e))]
        if self.kind == ADJACENCY:
            if not (all(np.all((p == 0) | (p == 1)) for p in pieces) and np.all(np.diag(e) == 0)):
                raise ValueError("adjacency matrix must be hollow 0/1")
        elif self.kind == DISTANCE:
            if np.any(np.diag(e) != 0) or any(np.any(p < 0) for p in pieces):
                raise ValueError("distance matrix must be hollow and nonnegative")
        elif self.kind == LAPLACIAN:
            sums = e.sum(axis=1) if census is None else census.row_sums(e)
            if np.abs(sums).max() > 1e-9:
                raise ValueError("laplacian must have zero row sums")
        else:
            raise ValueError(f"unknown matrix kind {self.kind!r}")
        if self.structure is not None:
            self._check_structure()
        e.setflags(write=False)

    def _check_structure(self):
        """O(1) facts only: eig_sym's residual check finds a false declaration."""
        kind, data, N = self.structure.kind, self.structure.data, self.N
        if kind == KRONECKER:
            if not (np.shape(data) == (3, 3) and asymmetry(data) <= STRUCTURE_TOL
                    and self.n >= 2 and N == 3**self.n):
                raise ValueError("factor must be a symmetric 3x3 of a 3^n matrix, n >= 2")
        elif kind == WALSH:
            if data is not None or N != 2**self.n:
                raise ValueError("a Walsh structure declares no data, on 2^n vertices")
        elif kind == LOW_RANK:
            if np.shape(data) != (N, self.n):
                raise ValueError("low-rank address bits must be an N x n array")
        else:
            raise ValueError(f"unknown structure kind {kind!r}")
        perm = self.structure.perm
        if perm is not None:  # else eig_sym would check another matrix
            if not (isinstance(perm, np.ndarray) and perm.dtype.kind in "iu"
                    and np.array_equal(np.sort(perm), np.arange(N))):
                raise ValueError("a structure's perm must be a bijection on range(N)")
            perm.setflags(write=False)
        if data is not None:
            data.setflags(write=False)


_PATH3_ADJ = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int8)
_PATH3_LAP = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=np.int8)


def _ternary_product(factor: np.ndarray, n: int, perm: np.ndarray | None = None) -> np.ndarray:
    """Cartesian-product accumulation of a 3x3 per-axis matrix, in the
    factor's dtype, with its vertices at the positions of `perm`.

    Vertex index m = sum digits[k] * 3^k, so axis k sits at the k-th
    Kronecker slot from the right.  Built by index arithmetic: entry
    (i, i + (b - a) * 3^k) is factor[a, b] for every i whose digit k is a,
    and the diagonal sums factor[d, d] over the digits d of i.  Each entry
    is written at the positions of `perm` (None: the natural order), so no
    natural-order product is gathered into [np.ix_(perm, perm)].
    """
    size = 3**n
    index = np.arange(size)
    position = index if perm is None else np.argsort(perm)
    total = np.zeros((size, size), dtype=factor.dtype)
    diagonal = np.zeros(size, dtype=factor.dtype)
    for k in range(n):
        digit = (index // 3**k) % 3
        diagonal += factor[digit, digit]
        for a, b in zip(*np.nonzero(factor)):
            if a != b:
                rows = index[digit == a]
                total[position[rows], position[rows + (b - a) * 3**k]] = factor[a, b]
    total[position, position] = diagonal
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

# entries per row block of a gathered profile fill: its XOR and index
# temporaries stay near 1 MB however large N is
_FILL_ENTRIES = 1 << 16


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
    straight into its permuted positions (see the module docstring), so
    construction makes no N x N temporary.  An unknown family, n below the
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
    structure = None
    if row.factor is not None:
        entries = _ternary_product(row.factor, n, relabel)
        if n >= 2:
            structure = Structure(KRONECKER, row.factor, relabel)
    else:
        addresses = perm
        if row.base == 3:  # address bit k: coordinate k = digit k - 1 is nonzero
            bits = np.stack([perm // 3**k % 3 != 1 for k in range(n)], axis=1)
            addresses = bits @ (1 << np.arange(n))
            # below 27 vertices the projection costs more than one dense eigh
            if n >= 3:
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
            step = max(1, _FILL_ENTRIES // perm.size)
            for start in range(0, perm.size, step):
                a, block = addresses[start : start + step], entries[start : start + step]
                if circulant is None:
                    np.take(r, a[:, None] ^ addresses, out=block)
                else:
                    np.take(circulant[a], addresses, axis=1, out=block)
    ordering_tag = ordering if isinstance(ordering, str) else "custom"
    return GraphMatrix(family, row.kind, n, ordering_tag, entries, structure)


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
