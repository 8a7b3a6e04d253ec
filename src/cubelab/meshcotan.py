"""Geometric cotan-Laplacian machinery on triangulated 2-faces.

Weights come from angles opposite each edge: w = (cot(alpha) + cot(beta))/2
for an interior edge, half that for a boundary edge with a single incident
triangle.  Cube boundary edges in dimension > 3 see more than two incident
triangles, all with equal opposite angles; the weight is then taken from a
representative pair, i.e. cot of the common angle.

Every corner angle comes from one array pass over the gathered triangle
corners, and `build_wdm` and `build_cube_cotan_geometric` share one assembly.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cubegraphs import LAPLACIAN, GraphMatrix
from .spectra import symmetric_entries

EVEN = "even"
ODD = "odd"
BOTH = "both"

_ANGLE_EQ_TOL = 1e-9


@dataclass(frozen=True)
class TriMesh:
    """Embedded vertices in R^d plus triangle index triples."""

    vertices: np.ndarray
    triangles: tuple

    def __post_init__(self):
        nv = self.vertices.shape[0]
        for tri in self.triangles:
            if len(set(tri)) != 3 or not all(0 <= i < nv for i in tri):
                raise ValueError(f"bad triangle {tri}")
        u, v = (e[:, 0] for e in _corner_edges(self))
        gram = (u * u).sum(-1) * (v * v).sum(-1) - (u * v).sum(-1) ** 2
        degenerate = np.flatnonzero(0.5 * np.sqrt(np.maximum(gram, 0.0)) < 1e-14)
        if degenerate.size:
            raise ValueError(f"degenerate triangle {self.triangles[degenerate[0]]}")


def _corner_edges(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Edge vectors from corner k of each triangle to the next and to the
    previous corner, both of shape (T, 3, d)."""
    corners = mesh.vertices[np.array(mesh.triangles, dtype=np.intp).reshape(-1, 3)]
    return np.roll(corners, -1, axis=1) - corners, np.roll(corners, 1, axis=1) - corners


def cotan_weight(alphas) -> float:
    """Edge weight from the list of opposite angles.

    One or two angles: w = sum(cot)/2.  More than two incident triangles:
    the angles must all be equal (otherwise the weight is ambiguous) and
    the weight is cot of the common angle, the value a representative pair
    would give.
    """
    if len(alphas) == 0:
        raise ValueError("no opposite angles supplied")
    if any(not 0.0 < a < math.pi for a in alphas):
        raise ValueError("angles must lie in (0, pi)")
    if len(alphas) <= 2:
        return 0.5 * sum(1.0 / math.tan(a) for a in alphas)
    if max(alphas) - min(alphas) > _ANGLE_EQ_TOL:
        raise ValueError(
            "ambiguous weight: more than two incident triangles with unequal angles"
        )
    return 1.0 / math.tan(alphas[0])


def _edge_angle_map(mesh: TriMesh) -> dict:
    """Edge -> opposite angles, in first-appearance order: triangle (a, b, c)
    adds its angles at c, a and b, opposite (a, b), (b, c) and (c, a)."""
    u, v = _corner_edges(mesh)
    cosang = (u * v).sum(-1) / (np.linalg.norm(u, axis=-1) * np.linalg.norm(v, axis=-1))
    corner_angles = np.arccos(np.clip(cosang, -1.0, 1.0)).tolist()
    angles: dict = {}
    for tri, alphas in zip(mesh.triangles, corner_angles):
        for k in (2, 0, 1):
            i, j = tri[k - 2], tri[k - 1]
            angles.setdefault((i, j) if i < j else (j, i), []).append(alphas[k])
    return angles


def _assemble(n_vertices: int, angles: dict) -> np.ndarray:
    """Laplacian with the `cotan_weight` of each edge, accumulated in edge order."""
    L = np.zeros((n_vertices, n_vertices))
    for (i, j), alphas in angles.items():
        w = cotan_weight(alphas)
        L[i, j] -= w
        L[j, i] -= w
        L[i, i] += w
        L[j, j] += w
    return L


def build_wdm(mesh: TriMesh) -> GraphMatrix:
    """Weakly defined discrete Laplace matrix of a triangle mesh.

    Requires a locally disk-like mesh: at most two triangles per edge.
    """
    angles = _edge_angle_map(mesh)
    for edge, alphas in angles.items():
        if len(alphas) > 2:
            raise ValueError(f"edge {edge} has {len(alphas)} incident triangles")
    entries = _assemble(mesh.vertices.shape[0], angles)
    return GraphMatrix("mesh", LAPLACIAN, mesh.vertices.shape[1], "custom", entries)


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
    triangles = []
    for i, j in itertools.combinations(range(n), 2):
        free = (1 << i) | (1 << j)
        for base in range(1 << n):
            if base & free:
                continue
            v00, v10 = base, base | (1 << i)
            v01, v11 = base | (1 << j), base | free
            if arrangement in (EVEN, BOTH):
                triangles.extend(((v00, v10, v11), (v00, v01, v11)))
            if arrangement in (ODD, BOTH):
                triangles.extend(((v10, v00, v01), (v10, v11, v01)))
    return TriMesh(vertices=vertices, triangles=tuple(triangles))


def build_cube_cotan_geometric(n: int, arrangement: str = EVEN) -> GraphMatrix:
    """Cotan Laplacian of the triangulated cube from embedded geometry.

    For n >= 3 this reproduces tricube_laplacian(n) exactly (entries are
    snapped once verified to sit within 1e-12 of integers).  For n = 2 the
    single face has boundary edges with one incident triangle each, giving
    the half-weight boundary form with spectrum {0, 1, 1, 2}.
    """
    mesh = cube_face_triangulation(n, arrangement)
    entries = _assemble(mesh.vertices.shape[0], _edge_angle_map(mesh))
    if n >= 3:
        snapped = np.round(entries)
        if np.abs(entries - snapped).max() > 1e-12:
            raise RuntimeError("geometric weights strayed from integers")
        entries = snapped
    return GraphMatrix("tricube", LAPLACIAN, n, "binary", entries)


def dirichlet_energy(L, u) -> float:
    """Discrete Dirichlet energy u^T L u / 2 of a `symmetric_entries` L."""
    entries = symmetric_entries(L)
    u = np.asarray(u, dtype=float)
    if u.shape[0] != entries.shape[0]:
        raise ValueError(f"dimension mismatch: {u.shape[0]} vs {entries.shape[0]}")
    return 0.5 * float(u @ entries @ u)
