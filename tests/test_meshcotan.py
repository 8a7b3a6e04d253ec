import itertools
import math

import numpy as np
import pytest

from cubelab import meshcotan
from cubelab.cubegraphs import WALSH, tricube_laplacian
from cubelab.meshcotan import (
    BOTH,
    EVEN,
    ODD,
    TriMesh,
    build_cube_cotan_geometric,
    build_wdm,
    cotan_weight,
    cube_face_triangulation,
    dirichlet_energy,
)
from cubelab.spectra import eig_sym


def test_cotan_weight_values():
    # the weights take cotangents: cot(pi/4) = 1, cot(pi/2) = 0
    assert cotan_weight([1.0, 1.0]) == 1.0
    assert cotan_weight([0.0, 0.0]) == 0.0
    assert cotan_weight([1.0]) == 0.5
    # an obtuse angle has a negative cotangent
    assert cotan_weight([0.5, -1.5]) == -0.5
    # representative pair on a many-triangle boundary edge
    assert cotan_weight([1.0] * 4) == 1.0


def test_cotan_weight_errors():
    with pytest.raises(ValueError):
        cotan_weight([])
    with pytest.raises(ValueError, match="finite"):
        cotan_weight([math.inf, 0.0])
    with pytest.raises(ValueError, match="ambiguous"):
        cotan_weight([1.0, 1.0, 1.0 + 2.0**-52])


def unit_square_mesh(diagonal=EVEN):
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    if diagonal == EVEN:
        triangles = ((0, 1, 3), (0, 2, 3))
    else:
        triangles = ((0, 1, 2), (1, 3, 2))
    return TriMesh(vertices=vertices, triangles=triangles)


def test_wdm_zero_row_sums_single_triangle():
    mesh = TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), ((0, 1, 2),))
    L = build_wdm(mesh).entries
    assert np.abs(L.sum(axis=1)).max() < 1e-14


def test_wdm_square_with_diagonal_spectrum():
    L = build_wdm(unit_square_mesh()).entries
    assert np.allclose(np.linalg.eigvalsh(L), [0, 1, 1, 2], atol=1e-12)


def test_wdm_flat_relation_weight_zero():
    # the shared diagonal sees two right angles: zero (flat) relation
    L = build_wdm(unit_square_mesh()).entries
    assert abs(L[0, 3]) < 1e-14


def test_wdm_rejects_overloaded_edges():
    with pytest.raises(ValueError):
        build_wdm(cube_face_triangulation(3, BOTH))


def test_wdm_route_agrees_with_combinatorial_for_3cube():
    L = build_wdm(cube_face_triangulation(3, EVEN)).entries
    assert np.abs(L - tricube_laplacian(3).entries).max() < 1e-12


def perturbed_grid_mesh(k=6):
    rng = np.random.default_rng(0)
    vertices = np.array([(x, y) for y in range(k) for x in range(k)], dtype=float)
    vertices += rng.uniform(-0.2, 0.2, vertices.shape)
    triangles = []
    for a in (y * k + x for y in range(k - 1) for x in range(k - 1)):
        triangles += [(a, a + 1, a + k + 1), (a, a + k, a + k + 1)]
    return TriMesh(vertices, tuple(triangles))


def test_wdm_matches_per_corner_loop_on_irregular_mesh():
    # a perturbed grid, so no angle is exact; the reference adds cot/2 of
    # each corner to the edge it faces, one corner at a time
    mesh = perturbed_grid_mesh()
    vertices = mesh.vertices
    ref = np.zeros((len(vertices), len(vertices)))
    for a, b, c in mesh.triangles.tolist():
        for apex, i, j in ((c, a, b), (a, b, c), (b, c, a)):
            u, v = vertices[i] - vertices[apex], vertices[j] - vertices[apex]
            w = 0.5 / math.tan(math.acos(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))))
            ref[[i, j], [j, i]] -= w
            ref[[i, j], [i, j]] += w
    L = build_wdm(mesh).entries
    assert np.abs(L - ref).max() <= 1e-12


def test_triangulation_counts():
    assert len(cube_face_triangulation(2, EVEN).triangles) == 2
    assert len(cube_face_triangulation(3, EVEN).triangles) == 12
    assert len(cube_face_triangulation(3, BOTH).triangles) == 24
    with pytest.raises(ValueError):
        cube_face_triangulation(1, EVEN)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("arrangement", [EVEN, ODD, BOTH])
def test_geometric_equals_combinatorial(n, arrangement):
    # every cube corner has G = 1, so each cotangent is the integer u.v and
    # the geometric route is exact, not just close, with no -0.0
    geo = build_cube_cotan_geometric(n, arrangement).entries
    assert geo.tobytes() == tricube_laplacian(n).entries.astype(float).tobytes()


def test_boundary_square_spectrum():
    for arrangement in (EVEN, ODD):
        values = eig_sym(build_cube_cotan_geometric(2, arrangement)).values
        assert values.tolist() == [0.0, 1.0, 1.0, 2.0]
    # the two proper triangulations agree entrywise (the diagonals carry
    # zero weight); overlaying BOTH doubles the boundary weights
    even = build_cube_cotan_geometric(2, EVEN).entries
    odd = build_cube_cotan_geometric(2, ODD).entries
    both = build_cube_cotan_geometric(2, BOTH).entries
    assert np.array_equal(even, odd)
    assert np.array_equal(both, 2.0 * even)


@pytest.mark.parametrize("n", [2, 3])
def test_geometric_mesh_off_the_cube_is_refused(monkeypatch, n):
    # one vertex moved off the unit cube: its weights leave the popcount
    # pattern, so the Walsh proof refuses the matrix when it is made
    def moved(n, arrangement):
        mesh = cube_face_triangulation(n, arrangement)
        vertices = mesh.vertices.copy()
        vertices[-1, 0] += 1e-3
        return TriMesh(vertices, mesh.triangles)

    monkeypatch.setattr(meshcotan, "cube_face_triangulation", moved)
    with pytest.raises(ValueError, match="declared walsh structure"):
        build_cube_cotan_geometric(n, EVEN)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_geometric_psd_with_simple_kernel(n):
    L = build_cube_cotan_geometric(n, EVEN).entries
    values = np.linalg.eigvalsh(L)
    assert values[0] > -1e-12
    assert np.sum(np.abs(values) < 1e-9) == 1
    assert np.abs(L @ np.ones(L.shape[0])).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_diagonal_equals_negated_row_sum(n):
    L = build_cube_cotan_geometric(n, EVEN).entries
    off = L - np.diag(np.diag(L))
    assert np.allclose(np.diag(L), -off.sum(axis=1), atol=1e-12)


def test_dirichlet_energy_cases():
    L = tricube_laplacian(3)
    assert dirichlet_energy(L, np.ones(8)) == pytest.approx(0.0, abs=1e-14)
    parity = np.array([(-1.0) ** bin(i).count("1") for i in range(8)])
    assert dirichlet_energy(L, parity) == pytest.approx(24.0, abs=1e-12)
    with pytest.raises(ValueError):
        dirichlet_energy(L, np.ones(7))


def test_dirichlet_energy_matches_edge_sum_on_path():
    # 3-vertex path from two obtuse-free triangles is overkill; use the
    # assembled matrix directly against the hand edge sum
    L = np.array([[0.5, -0.5, 0.0], [-0.5, 1.5, -1.0], [0.0, -1.0, 1.0]])
    u = np.array([2.0, -1.0, 0.5])
    edge_sum = 0.5 * (0.5 * (u[0] - u[1]) ** 2 + 1.0 * (u[1] - u[2]) ** 2)
    assert dirichlet_energy(L, u) == pytest.approx(edge_sum, abs=1e-14)


def test_degenerate_triangle_rejected():
    with pytest.raises(ValueError):
        TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), ((0, 1, 2),))
    # the message names the first degenerate triangle, not the first triangle
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match=r"^degenerate triangle \(0, 1, 3\)$"):
        TriMesh(vertices, ((0, 1, 2), (0, 1, 3), (1, 3, 0)))


def reference_cotan_laplacian(mesh):
    """Reference: each corner's cotangent u.v / sqrt(|u|^2 |v|^2 - (u.v)^2)
    in Python floats, one corner at a time; then a dict from each edge to
    its opposite cotangents in first-appearance order, each edge's weight
    (the common cotangent of more than two, else half their sum), and the
    entries accumulated one edge at a time."""
    vertices = mesh.vertices.tolist()
    cots = {}
    for tri in mesh.triangles.tolist():
        for k in (2, 0, 1):
            apex, i, j = vertices[tri[k]], vertices[tri[k - 2]], vertices[tri[k - 1]]
            u = [p - q for p, q in zip(i, apex)]
            v = [p - q for p, q in zip(j, apex)]
            dot = sum(p * q for p, q in zip(u, v))
            gram = sum(p * p for p in u) * sum(q * q for q in v) - dot * dot
            edge = (min(tri[k - 2], tri[k - 1]), max(tri[k - 2], tri[k - 1]))
            cots.setdefault(edge, []).append(dot / math.sqrt(gram))
    L = np.zeros((len(vertices), len(vertices)))
    for (i, j), c in cots.items():
        assert len(c) <= 2 or len(set(c)) == 1
        w = c[0] if len(c) > 2 else sum(c) / 2
        L[i, j] -= w
        L[j, i] -= w
        L[i, i] += w
        L[j, j] += w
    return L


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("arrangement", [EVEN, ODD, BOTH])
def test_array_assembly_matches_the_edge_loop_bit_for_bit(n, arrangement):
    # the edges grouped in first-appearance order and the diagonal summed by
    # one bincount over the interleaved edge ends, in edge order, give the
    # bytes of the edge-by-edge loop; the matrix declares the Walsh structure
    reference = reference_cotan_laplacian(cube_face_triangulation(n, arrangement))
    built = build_cube_cotan_geometric(n, arrangement)
    assert built.structure.kind == WALSH
    assert built.entries.tobytes() == reference.tobytes()


def test_array_assembly_matches_the_edge_loop_on_an_irregular_mesh():
    mesh = perturbed_grid_mesh()
    assert build_wdm(mesh).entries.tobytes() == reference_cotan_laplacian(mesh).tobytes()


def test_triangulation_matches_the_face_loop():
    # the faces in combinations order of their axis pair, bases ascending,
    # each face's triangles together
    for n in range(2, 6):
        for arrangement in (EVEN, ODD, BOTH):
            expected = []
            for i, j in itertools.combinations(range(n), 2):
                free = (1 << i) | (1 << j)
                for base in range(1 << n):
                    if base & free:
                        continue
                    v00, v10, v01, v11 = base, base | (1 << i), base | (1 << j), base | free
                    if arrangement in (EVEN, BOTH):
                        expected += [(v00, v10, v11), (v00, v01, v11)]
                    if arrangement in (ODD, BOTH):
                        expected += [(v10, v00, v01), (v10, v11, v01)]
            triangles = cube_face_triangulation(n, arrangement).triangles
            assert triangles.tolist() == [list(t) for t in expected]


@pytest.mark.parametrize("cots,message", [
    ([1.0, 1.0, 0.5], "ambiguous"),
    ([1.0, math.inf], "finite"),
    ([math.nan], "finite"),
    ([math.nan, math.nan, math.nan], "finite"),
])
def test_edge_weights_raise_the_first_broken_rule_in_edge_order(cots, message):
    # a good edge before and after the bad one; the first bad edge decides
    good = [1.0, 1.0]
    all_cots = np.array(good + cots + good)
    starts = np.array([0, 2, 2 + len(cots)])
    counts = np.array([2, len(cots), 2])
    with pytest.raises(ValueError, match=message):
        meshcotan._edge_weights(all_cots, starts, counts, np.arange(3))
    with pytest.raises(ValueError, match=message):
        cotan_weight(cots)


def test_non_finite_vertices_are_refused():
    # TriMesh's degeneracy test passes a NaN vertex; its cotangents do not
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [math.nan, 1.0]])
    mesh = TriMesh(vertices, ((0, 1, 2), (1, 3, 2)))
    with pytest.raises(ValueError, match="finite"):
        build_wdm(mesh)


def test_trimesh_keeps_one_read_only_triangle_array():
    mesh = TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [(0, 1, 2)])
    assert mesh.triangles.shape == (1, 3) and not mesh.triangles.flags.writeable
    with pytest.raises(ValueError, match=r"^bad triangle \(0, 1, 3\)$"):
        TriMesh(mesh.vertices, ((0, 1, 2), (0, 1, 3)))
    with pytest.raises(ValueError, match=r"^bad triangle \(2, 1, 2\)$"):
        TriMesh(mesh.vertices, ((2, 1, 2),))
    with pytest.raises(ValueError, match="index triples"):
        TriMesh(mesh.vertices, ((0, 1, 2, 0),))
