"""Matrix constructors for the four cube graph families.

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

All constructors take an ordering tag (or explicit permutation) and return
dense matrices; at desk scale (N <= 3^7) sparsity buys nothing.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .bitspace import (
    BINARY,
    TERNARY,
    binary_ordering,
    ternary_ordering,
    ternary_vertex,
)

ADJACENCY = "adjacency"
DISTANCE = "distance"
LAPLACIAN = "laplacian"

OLP = "olp"
OLN = "oln"

# absolute bound for every exact-structure test on float entries: symmetry
# here and in `spectra`, centrosymmetry and the Kronecker-sum match there
STRUCTURE_TOL = 1e-10

# popcount lookup for vectorized Hamming distances; addresses fit in 16 bits
_POPCOUNT = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.int64)


def asymmetry(entries: np.ndarray) -> float:
    """Largest entry of |M - M^T|: 0 without the subtraction when M is
    exactly symmetric, and inf when an entry is NaN."""
    if np.array_equal(entries, entries.T):
        return 0.0
    deviation = float(np.abs(entries - entries.T).max())
    return math.inf if math.isnan(deviation) else deviation


@dataclass(frozen=True)
class GraphMatrix:
    """Dense square matrix tagged with its graph family and construction."""

    family: str
    kind: str
    n: int
    ordering: str
    entries: np.ndarray

    @property
    def N(self) -> int:
        return self.entries.shape[0]

    def __post_init__(self):
        e = self.entries
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"entries must be square, got shape {e.shape}")
        if asymmetry(e) > STRUCTURE_TOL:
            raise ValueError("entries must be symmetric")
        if self.kind == ADJACENCY:
            if not (np.all((e == 0) | (e == 1)) and np.all(np.diag(e) == 0)):
                raise ValueError("adjacency matrix must be hollow 0/1")
        elif self.kind == DISTANCE:
            if np.any(np.diag(e) != 0) or np.any(e < 0):
                raise ValueError("distance matrix must be hollow and nonnegative")
        elif self.kind == LAPLACIAN:
            if np.abs(e.sum(axis=1)).max() > 1e-9:
                raise ValueError("laplacian must have zero row sums")
        else:
            raise ValueError(f"unknown matrix kind {self.kind!r}")
        e.setflags(write=False)


def _ordering_tag(scheme) -> str:
    return scheme if isinstance(scheme, str) else "custom"


def _hamming_outer(values: np.ndarray) -> np.ndarray:
    if values.size and int(values.max()) >= 1 << 16:
        raise ValueError("addresses beyond 16 bits are outside desk scale")
    xor = np.bitwise_xor.outer(values, values)
    return _POPCOUNT[xor]


def ncube_adjacency(n: int, ordering=BINARY) -> GraphMatrix:
    """n-regular adjacency of the n-cube: edges at Hamming distance 1."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    perm = np.array(binary_ordering(n, ordering))
    entries = (_hamming_outer(perm) == 1).astype(float)
    return GraphMatrix("ncube", ADJACENCY, n, _ordering_tag(ordering), entries)


def hamming_distance_matrix(n: int, ordering=BINARY) -> GraphMatrix:
    """Full distance matrix of {0,1}^n: entry (l, m) is the Hamming
    distance between addresses l and m in the given ordering."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    perm = np.array(binary_ordering(n, ordering))
    entries = _hamming_outer(perm).astype(float)
    return GraphMatrix("hamming", DISTANCE, n, _ordering_tag(ordering), entries)


def tricube_laplacian(n: int, ordering=BINARY, sign: str = OLP) -> GraphMatrix:
    """Cotan Laplacian of the cube with triangulated 2-faces: n*I - E.

    Diagonal entries n, -1 at Hamming-distance-1 pairs, 0 elsewhere
    (diagonal weights vanish since both opposite angles are right).
    OLN negates the whole matrix.
    """
    adj = ncube_adjacency(n, ordering)
    entries = n * np.eye(adj.N) - adj.entries
    if sign == OLN:
        entries = -entries
    elif sign != OLP:
        raise ValueError(f"unknown sign convention {sign!r}")
    return GraphMatrix("tricube", LAPLACIAN, n, adj.ordering, entries)


def regular_tricube_adjacency(n: int, ordering=BINARY) -> GraphMatrix:
    """Adjacency of the cube with both 2-face diagonals: edges at Hamming
    distance 1 or 2; regular of degree n + C(n,2) = n(n+1)/2."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    perm = np.array(binary_ordering(n, ordering))
    d = _hamming_outer(perm)
    entries = ((d == 1) | (d == 2)).astype(float)
    return GraphMatrix("regtricube", ADJACENCY, n, _ordering_tag(ordering), entries)


_PATH3_ADJ = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
_PATH3_LAP = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


def _ternary_product(factor: np.ndarray, n: int) -> np.ndarray:
    """Cartesian-product accumulation of a 3x3 per-axis matrix.

    Vertex index m = sum digits[k] * 3^k, so axis k sits at the k-th
    Kronecker slot from the right.  Built by index arithmetic: entry
    (i, i + (b - a) * 3^k) is factor[a, b] for every i whose digit k is a,
    and the diagonal sums factor[d, d] over the digits d of i.
    """
    size = 3**n
    index = np.arange(size)
    total = np.zeros((size, size))
    diagonal = np.zeros(size)
    for k in range(n):
        digit = (index // 3**k) % 3
        diagonal += factor[digit, digit]
        for a, b in zip(*np.nonzero(factor)):
            if a != b:
                rows = index[digit == a]
                total[rows, rows + (b - a) * 3**k] = factor[a, b]
    total[index, index] = diagonal
    return total


def _apply_perm(entries: np.ndarray, perm: list[int]) -> np.ndarray:
    idx = np.array(perm)
    if np.array_equal(idx, np.arange(idx.size)):
        return entries
    return entries[np.ix_(idx, idx)]


def pow_cube_adjacency(n: int, ordering=TERNARY) -> GraphMatrix:
    """Adjacency of 2^n unit n-cubes sharing the origin: 3^n vertices with
    coordinates in {-1,0,1}^n, edges where exactly one coordinate moves by
    one step between 0 and +-1 (never -1 <-> +1).  Equivalently the n-fold
    Cartesian product of the 3-vertex path."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    entries = _ternary_product(_PATH3_ADJ, n)
    entries = _apply_perm(entries, ternary_ordering(n, ordering))
    return GraphMatrix("powcube", ADJACENCY, n, _ordering_tag(ordering), entries)


def pow_tricube_laplacian(n: int, ordering=TERNARY, sign: str = OLP) -> GraphMatrix:
    """Kirchhoff/cotan Laplacian L = G - E of the glued-cube structure;
    diagonal entries span n to 2n (degree = n + number of zero coordinates)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    entries = _ternary_product(_PATH3_LAP, n)
    entries = _apply_perm(entries, ternary_ordering(n, ordering))
    if sign == OLN:
        entries = -entries
    elif sign != OLP:
        raise ValueError(f"unknown sign convention {sign!r}")
    return GraphMatrix("powtri", LAPLACIAN, n, _ordering_tag(ordering), entries)


def pow_hamming_matrix(n: int, ordering=TERNARY) -> GraphMatrix:
    """Hamming distances between the binary addresses of all 3^n vertices.

    Distinct vertices with equal addresses (e.g. opposite 3-norm corners)
    get distance 0.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    perm = ternary_ordering(n, ordering)
    addresses = np.array(
        [sum(b << k for k, b in enumerate(ternary_vertex(n, m).address)) for m in perm]
    )
    entries = _hamming_outer(addresses).astype(float)
    return GraphMatrix("powhamming", DISTANCE, n, _ordering_tag(ordering), entries)


def face_count(n: int, k: int) -> int:
    """Number of k-faces of the glued 2^n-cube structure."""
    if not 0 <= k <= n:
        raise ValueError(f"face dimension {k} out of range [0, {n}]")
    return math.comb(n, k) * 3 ** (n - k) * 2**k


def face_total(n: int) -> int:
    """Total face count over all dimensions; equals 5^n."""
    return sum(face_count(n, k) for k in range(n + 1))


def eulerian_circuit(n: int):
    """Eulerian circuit of the cube-plus-both-diagonals graph, or None.

    The graph is n(n+1)/2-regular, so a circuit exists iff that degree is
    even (n = 0 or 3 mod 4).  Built with Hierholzer's algorithm; the
    returned vertex list starts and ends at vertex 0 and traverses every
    edge exactly once.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    degree = n * (n + 1) // 2
    if degree % 2 != 0:
        return None
    adj = regular_tricube_adjacency(n).entries
    neighbors = [list(np.flatnonzero(adj[v])) for v in range(adj.shape[0])]
    next_slot = [0] * len(neighbors)
    used = set()
    stack = [0]
    circuit = []
    while stack:
        v = stack[-1]
        advanced = False
        while next_slot[v] < len(neighbors[v]):
            w = neighbors[v][next_slot[v]]
            next_slot[v] += 1
            if (v, w) not in used:
                used.add((v, w))
                used.add((w, v))
                stack.append(w)
                advanced = True
                break
        if not advanced:
            circuit.append(stack.pop())
    circuit.reverse()
    n_edges = int(adj.sum()) // 2
    if len(circuit) != n_edges + 1 or circuit[0] != circuit[-1]:
        raise RuntimeError("circuit construction failed to cover the graph")
    return circuit


def matrix_to_csv(gm: GraphMatrix, path) -> None:
    """Write a matrix as CSV: metadata header line, then row-major entries."""
    with open(path, "w") as fh:
        fh.write("family,kind,n,ordering,N\n")
        fh.write(f"{gm.family},{gm.kind},{gm.n},{gm.ordering},{gm.N}\n")
        for row in gm.entries:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def matrix_to_json(gm: GraphMatrix, path) -> None:
    """Write a matrix as a JSON envelope with the same metadata."""
    payload = {
        "family": gm.family,
        "kind": gm.kind,
        "n": gm.n,
        "ordering": gm.ordering,
        "N": gm.N,
        "entries": gm.entries.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
