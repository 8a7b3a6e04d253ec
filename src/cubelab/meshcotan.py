"""Geometric cotan-Laplacian machinery on triangulated 2-faces.

Weights come from the cotangents of the angles opposite each edge:
w = (cot(alpha) + cot(beta))/2 for an interior edge, half that for a
boundary edge with a single incident triangle.  At a corner with edge
vectors u and v, cot = u.v / sqrt(G) for the Gram determinant
G = |u|^2 |v|^2 - (u.v)^2 (Pinkall & Polthier 1993; Meyer, Desbrun,
Schroder & Barr 2003), so no angle is formed.  On every cube mesh G = 1,
and each cotangent is the integer u.v, 0 or 1, exact in float64.  Cube
boundary edges in dimension > 3 see more than two incident triangles, all
with equal cotangents; the weight is then the common cotangent, the value
a representative pair would give.

`build_wdm` and `build_cube_cotan_geometric` share one assembly in array
passes: the corner cotangents of the (T, 3) triangle array at once, the
edges grouped in first-appearance order, each edge's `cotan_weight` by one
vectorised rule, and the diagonal by one `np.bincount` over the edge ends
in edge order, which sums each diagonal entry in the order an edge-by-edge
loop would, so the entries match that loop bit for bit.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .cubegraphs import LAPLACIAN, WALSH, GraphMatrix, Structure
from .spectra import symmetric_entries

EVEN = "even"
ODD = "odd"
BOTH = "both"

# the triangles of one face as indices into its corners (v00, v10, v01,
# v11): Even splits it along v00-v11, Odd along v10-v01, Both overlays them
_EVEN_SPLIT = [[0, 1, 3], [0, 2, 3]]
_ODD_SPLIT = [[1, 0, 2], [1, 3, 2]]
_SPLITS = {EVEN: _EVEN_SPLIT, ODD: _ODD_SPLIT, BOTH: _EVEN_SPLIT + _ODD_SPLIT}
# corner k's next and previous corner in a triangle
_NEXT, _PREVIOUS = np.array([1, 2, 0]), np.array([2, 0, 1])


@dataclass(frozen=True)
class TriMesh:
    """Embedded vertices in R^d plus triangle index triples, kept as one
    read-only (T, 3) integer array."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        triangles = np.array(self.triangles, dtype=np.intp)
        if triangles.size == 0:
            triangles = triangles.reshape(0, 3)
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError(f"triangles must be index triples, got shape {triangles.shape}")
        nv = self.vertices.shape[0]
        a, b, c = triangles.T
        bad = ((triangles < 0) | (triangles >= nv)).any(axis=1) | (a == b) | (b == c) | (c == a)
        if bad.any():
            raise ValueError(f"bad triangle {tuple(triangles[bad.argmax()].tolist())}")
        triangles.setflags(write=False)
        object.__setattr__(self, "triangles", triangles)
        corner = self.vertices[a]
        u, v = self.vertices[b] - corner, self.vertices[c] - corner
        gram = (u * u).sum(-1) * (v * v).sum(-1) - (u * v).sum(-1) ** 2
        degenerate = 0.5 * np.sqrt(np.maximum(gram, 0.0)) < 1e-14
        if degenerate.any():
            first = tuple(triangles[degenerate.argmax()].tolist())
            raise ValueError(f"degenerate triangle {first}")


def _corner_edges(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Edge vectors from corner k of each triangle to the next and to the
    previous corner, both of shape (T, 3, d)."""
    corners = mesh.vertices[mesh.triangles]
    return corners[:, _NEXT] - corners, corners[:, _PREVIOUS] - corners


def cotan_weight(cots) -> float:
    """Edge weight from the cotangents of the angles opposite the edge.

    One or two cotangents: w = sum(cot)/2.  More than two incident
    triangles: the cotangents must all be equal (otherwise the weight is
    ambiguous) and the weight is the common cotangent, the value a
    representative pair would give.  A cotangent that is not finite raises
    ValueError.
    """
    if len(cots) == 0:
        raise ValueError("no cotangents supplied")
    one = np.zeros(1, dtype=np.intp)
    cots = np.asarray(cots, dtype=float)
    return float(_edge_weights(cots, one, np.array([cots.size]), one)[0])


def _edge_weights(cots: np.ndarray, starts: np.ndarray, counts: np.ndarray,
                  order: np.ndarray) -> np.ndarray:
    """`cotan_weight` of each group of counts[g] >= 1 cotangents from
    cots[starts[g]] (starts ascending), for the groups g in `order`, with
    the error of the first of them that breaks the rule."""
    infinite = ~np.logical_and.reduceat(np.isfinite(cots), starts)
    unequal = np.maximum.reduceat(cots, starts) != np.minimum.reduceat(cots, starts)
    bad = (infinite | ((counts > 2) & unequal))[order]
    if bad.any():
        if infinite[order][bad.argmax()]:
            raise ValueError("cotangents must be finite")
        raise ValueError(
            "ambiguous weight: more than two incident triangles with unequal angles"
        )
    weights = np.where(counts > 2, cots[starts], 0.5 * np.add.reduceat(cots, starts))
    return weights[order]


def _edges(mesh: TriMesh):
    """(edges, cots, starts, counts, order): every opposite cotangent,
    grouped by edge with the groups in ascending (i, j) order and each
    group in appearance order, counts[g] cotangents from cots[starts[g]];
    `order` lists the groups by the first appearance of their edge, and
    edges[e] is the (i, j), i < j, of group order[e].  Triangle (a, b, c)
    adds its cotangents at c, a and b, opposite (a, b), (b, c) and
    (c, a)."""
    u, v = _corner_edges(mesh)
    dot = (u * v).sum(-1)
    corner_cots = dot / np.sqrt((u * u).sum(-1) * (v * v).sum(-1) - dot**2)
    triangles = mesh.triangles
    i, j = triangles.ravel(), triangles[:, _NEXT].ravel()
    low, high = np.minimum(i, j), np.maximum(i, j)
    key = low * mesh.vertices.shape[0] + high
    by_key = np.argsort(key, kind="stable")
    key = key[by_key]
    new = np.ones(key.size, dtype=bool)
    new[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(new)
    counts = np.bincount(new.cumsum() - 1)
    first = by_key[starts]
    order = np.argsort(first)
    first = first[order]
    cots = corner_cots[:, _PREVIOUS].ravel()[by_key]
    return np.column_stack([low[first], high[first]]), cots, starts, counts, order


def _assemble(n_vertices: int, edges: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Laplacian with weight w_e at each edge (i, j): -w_e at (i, j) and
    (j, i), and the diagonal summed over the interleaved (i, j) in edge
    order, as adding w_e to L[i, i] and then L[j, j], edge by edge, would."""
    L = np.zeros((n_vertices, n_vertices))
    i, j = edges.T
    L[i, j] -= weights
    L[j, i] -= weights
    L.flat[:: n_vertices + 1] = np.bincount(
        edges.ravel(), weights=np.repeat(weights, 2), minlength=n_vertices
    )
    return L


def _cotan_laplacian(mesh: TriMesh, max_triangles: int | None = None) -> np.ndarray:
    """The cotan Laplacian of a mesh, each edge weighted by `cotan_weight`;
    an edge of more than `max_triangles` incident triangles raises
    ValueError first."""
    edges, cots, starts, counts, order = _edges(mesh)
    if max_triangles is not None and (counts > max_triangles).any():
        e = (counts[order] > max_triangles).argmax()
        edge = tuple(edges[e].tolist())
        raise ValueError(f"edge {edge} has {counts[order][e]} incident triangles")
    return _assemble(mesh.vertices.shape[0], edges, _edge_weights(cots, starts, counts, order))


def build_wdm(mesh: TriMesh) -> GraphMatrix:
    """Weakly defined discrete Laplace matrix of a triangle mesh.

    Requires a locally disk-like mesh: at most two triangles per edge.
    """
    entries = _cotan_laplacian(mesh, max_triangles=2)
    return GraphMatrix._adopt("mesh", LAPLACIAN, mesh.vertices.shape[1], "custom", entries)


def cube_face_triangulation(n: int, arrangement: str = EVEN) -> TriMesh:
    """Unit-cube corners in R^n with each 2-face triangulated.

    Even splits every face along the low-to-high corner diagonal, Odd along
    the other one, Both emits all four overlapping triangles per face.
    """
    if n < 2:
        raise ValueError("no triangulation exists below dimension 2")
    if arrangement not in (EVEN, ODD, BOTH):
        raise ValueError(f"unknown arrangement {arrangement!r}")
    vertices = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    # every face: the axis pair (i, j) and a base corner with bits i and j
    # clear, pairs in combinations order and bases ascending within each
    pairs = np.array(list(itertools.combinations(range(n), 2)))
    bit_i, bit_j = (1 << pairs).T
    face, v00 = np.nonzero((np.arange(1 << n) & (bit_i | bit_j)[:, None]) == 0)
    v10, v01 = v00 | bit_i[face], v00 | bit_j[face]
    corners = np.stack([v00, v10, v01, v10 | v01])  # v00, v10, v01, v11
    # (faces, triangles per face, 3): each face's triangles stay together
    triangles = corners[_SPLITS[arrangement]].transpose(2, 0, 1).reshape(-1, 3)
    return TriMesh(vertices=vertices, triangles=triangles)


def build_cube_cotan_geometric(n: int, arrangement: str = EVEN) -> GraphMatrix:
    """Cotan Laplacian of the triangulated cube from embedded geometry.

    The cotangents are the integers u.v, so the entries are exact: for
    n >= 3 they are tricube_laplacian(n).  For n = 2 the single face has
    boundary edges with one incident triangle each, giving the half-weight
    boundary form with spectrum {0, 1, 1, 2} (twice that for BOTH).  The
    matrix declares Structure(WALSH), so its proof checks the geometry
    when the matrix is made: entries that are not a function of
    popcount(i ^ j) raise ValueError.
    """
    entries = _cotan_laplacian(cube_face_triangulation(n, arrangement))
    return GraphMatrix._adopt("tricube", LAPLACIAN, n, "binary", entries, Structure(WALSH))


def dirichlet_energy(L, u) -> float:
    """Discrete Dirichlet energy u^T L u / 2 of a `symmetric_entries` L."""
    entries = symmetric_entries(L)
    u = np.asarray(u, dtype=float)
    if u.shape[0] != entries.shape[0]:
        raise ValueError(f"dimension mismatch: {u.shape[0]} vs {entries.shape[0]}")
    return 0.5 * float(u @ entries @ u)
