import itertools
import math

import numpy as np
import pytest

from cubelab import meshcotan
from cubelab.cubegraphs import tricube_laplacian
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


def test_cotan_weight_values():
    assert cotan_weight([math.pi / 4, math.pi / 4]) == pytest.approx(1.0, abs=1e-15)
    assert cotan_weight([math.pi / 2, math.pi / 2]) == pytest.approx(0.0, abs=1e-15)
    assert cotan_weight([math.pi / 4]) == pytest.approx(0.5, abs=1e-15)
    # representative pair on a many-triangle boundary edge
    assert cotan_weight([math.pi / 4] * 4) == pytest.approx(1.0, abs=1e-15)


def test_cotan_weight_errors():
    with pytest.raises(ValueError):
        cotan_weight([])
    with pytest.raises(ValueError):
        cotan_weight([0.0, math.pi / 2])
    with pytest.raises(ValueError):
        cotan_weight([math.pi / 4, math.pi / 4, math.pi / 3])


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
    # the integer snap makes the geometric route exact, not just close
    geo = build_cube_cotan_geometric(n, arrangement).entries
    assert np.array_equal(geo, tricube_laplacian(n).entries)


def test_boundary_square_spectrum():
    for arrangement in (EVEN, ODD):
        spec = np.linalg.eigvalsh(build_cube_cotan_geometric(2, arrangement).entries)
        assert np.allclose(spec, [0, 1, 1, 2], atol=1e-12)
    # the two proper triangulations even agree entrywise (the diagonals
    # carry zero weight); overlaying BOTH doubles the boundary weights
    even = build_cube_cotan_geometric(2, EVEN).entries
    odd = build_cube_cotan_geometric(2, ODD).entries
    both = build_cube_cotan_geometric(2, BOTH).entries
    assert np.abs(even - odd).max() <= 1e-15
    assert np.abs(both - 2.0 * even).max() <= 1e-15


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
    """Reference: the corner angles in one array pass, as the library takes
    them; then a dict from each edge to its opposite angles in
    first-appearance order, each edge's `cotan_weight`, and the entries
    accumulated one edge at a time."""
    corners = mesh.vertices[np.asarray(mesh.triangles)]
    u, v = np.roll(corners, -1, axis=1) - corners, np.roll(corners, 1, axis=1) - corners
    cosang = (u * v).sum(-1) / (np.linalg.norm(u, axis=-1) * np.linalg.norm(v, axis=-1))
    corner_angles = np.arccos(np.clip(cosang, -1.0, 1.0)).tolist()
    angles = {}
    for tri, alphas in zip(np.asarray(mesh.triangles).tolist(), corner_angles):
        for k in (2, 0, 1):
            i, j = tri[k - 2], tri[k - 1]
            angles.setdefault((min(i, j), max(i, j)), []).append(alphas[k])
    L = np.zeros((len(mesh.vertices), len(mesh.vertices)))
    for (i, j), alphas in angles.items():
        w = cotan_weight(alphas)
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
    # bytes of the edge-by-edge loop, before the integer snap of n >= 3 and
    # after it; n = 2 is the boundary form, which is never snapped
    mesh = cube_face_triangulation(n, arrangement)
    reference = reference_cotan_laplacian(mesh)
    assert meshcotan._cotan_laplacian(mesh).tobytes() == reference.tobytes()
    built = build_cube_cotan_geometric(n, arrangement).entries
    assert built.tobytes() == (reference if n == 2 else np.round(reference)).tobytes()


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


@pytest.mark.parametrize("alphas,message", [
    ([math.pi / 4, math.pi / 4, math.pi / 3], "ambiguous"),
    ([math.pi / 4, math.pi], r"\(0, pi\)"),
    ([math.nan], r"\(0, pi\)"),
])
def test_edge_weights_raise_the_first_broken_rule_in_edge_order(alphas, message):
    # a good edge before and after the bad one; the first bad edge decides
    good = [math.pi / 4, math.pi / 4]
    angles = np.array(good + alphas + good)
    starts = np.array([0, 2, 2 + len(alphas)])
    counts = np.array([2, len(alphas), 2])
    with pytest.raises(ValueError, match=message):
        meshcotan._edge_weights(angles, starts, counts, np.arange(3))
    with pytest.raises(ValueError, match=message):
        cotan_weight(alphas)


def test_trimesh_keeps_one_read_only_triangle_array():
    mesh = TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [(0, 1, 2)])
    assert mesh.triangles.shape == (1, 3) and not mesh.triangles.flags.writeable
    with pytest.raises(ValueError, match=r"^bad triangle \(0, 1, 3\)$"):
        TriMesh(mesh.vertices, ((0, 1, 2), (0, 1, 3)))
    with pytest.raises(ValueError, match=r"^bad triangle \(2, 1, 2\)$"):
        TriMesh(mesh.vertices, ((2, 1, 2),))
    with pytest.raises(ValueError, match="index triples"):
        TriMesh(mesh.vertices, ((0, 1, 2, 0),))
