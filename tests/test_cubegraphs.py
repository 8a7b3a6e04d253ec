import json

import numpy as np
import pytest

from cubelab.bitspace import enumerate_addresses, hamming, ternary_vertex
from cubelab.cubegraphs import (
    DISTANCE,
    LAPLACIAN,
    GraphMatrix,
    _PATH3_ADJ,
    _PATH3_LAP,
    _ternary_product,
    eulerian_circuit,
    face_count,
    face_total,
    hamming_distance_matrix,
    matrix_to_csv,
    matrix_to_json,
    ncube_adjacency,
    pow_cube_adjacency,
    pow_hamming_matrix,
    pow_tricube_laplacian,
    regular_tricube_adjacency,
    tricube_laplacian,
)


def brute_distance_matrix(n, ordering):
    """Oracle: direct Hamming loop over the ordered address list."""
    addrs = enumerate_addresses(n, ordering)
    return np.array([[hamming(a, b) for b in addrs] for a in addrs], dtype=float)


def kron_ternary_product(factor, n):
    """Reference: the n-fold Kronecker sum, axis k at the k-th slot from the right."""
    total = np.zeros((3**n, 3**n))
    for k in range(n):
        total += np.kron(np.eye(3 ** (n - 1 - k)), np.kron(factor, np.eye(3**k)))
    return total


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("factor", [_PATH3_ADJ, _PATH3_LAP], ids=["adjacency", "laplacian"])
def test_ternary_product_matches_kron_sum(factor, n):
    assert np.array_equal(_ternary_product(factor, n), kron_ternary_product(factor, n))


def test_graph_matrix_symmetry_bound_is_absolute():
    # 1e-9 passed np.allclose (rtol 1e-5) at construction but failed
    # eig_sym; both now apply the one 1e-10 absolute bound
    D = hamming_distance_matrix(2).entries.copy()
    D[0, 1] += 5e-11
    GraphMatrix("hamming", DISTANCE, 2, "binary", D.copy())
    D[0, 1] += 1e-9
    with pytest.raises(ValueError, match="symmetric"):
        GraphMatrix("hamming", DISTANCE, 2, "binary", D)
    L = tricube_laplacian(2).entries.copy()
    L[0, 1] = L[1, 0] = np.nan
    with pytest.raises(ValueError, match="symmetric"):
        GraphMatrix("tricube", LAPLACIAN, 2, "binary", L)


def test_ncube_1():
    assert np.array_equal(ncube_adjacency(1).entries, [[0, 1], [1, 0]])


def test_ncube_regularity():
    assert np.all(ncube_adjacency(2).entries.sum(axis=1) == 2)
    assert np.all(ncube_adjacency(5, "gray").entries.sum(axis=1) == 5)


def test_ncube_gray_counterdiagonal_is_one():
    A = ncube_adjacency(3, "gray").entries
    assert np.all(np.fliplr(A).diagonal() == 1)


def test_hamming_matrix_2_binary():
    expected = [[0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]]
    assert np.array_equal(hamming_distance_matrix(2).entries, expected)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("ordering", ["binary", "gray"])
def test_hamming_matrix_matches_brute_force(n, ordering):
    D = hamming_distance_matrix(n, ordering).entries
    assert np.array_equal(D, brute_distance_matrix(n, ordering))
    assert np.trace(D) == 0
    if ordering == "binary":
        assert np.all(np.fliplr(D).diagonal() == n)


@pytest.mark.parametrize("n", range(1, 9))
def test_hamming_matrix_centrosymmetric(n):
    for ordering in ("binary", "gray"):
        D = hamming_distance_matrix(n, ordering).entries
        assert np.array_equal(D, np.flipud(np.fliplr(D)))


def test_tricube_is_kirchhoff_form():
    for n in (1, 2, 3, 4):
        L = tricube_laplacian(n).entries
        assert np.array_equal(L, n * np.eye(2**n) - ncube_adjacency(n).entries)
        assert np.all(L.sum(axis=1) == 0)
        assert np.trace(L) == n * 2**n
    assert np.array_equal(tricube_laplacian(2, sign="oln").entries, -tricube_laplacian(2).entries)


def test_tricube_spectra():
    values = np.linalg.eigvalsh(tricube_laplacian(2).entries)
    assert np.allclose(values, [0, 2, 2, 4], atol=1e-12)
    values = np.linalg.eigvalsh(tricube_laplacian(3).entries)
    assert np.allclose(values, [0, 2, 2, 2, 4, 4, 4, 6], atol=1e-12)


def test_regular_tricube_degree_and_spectrum():
    A = regular_tricube_adjacency(3)
    assert np.all(A.entries.sum(axis=1) == 6)
    values = np.linalg.eigvalsh(A.entries)
    assert np.allclose(values, [-2, -2, -2, 0, 0, 0, 0, 6], atol=1e-12)


@pytest.mark.parametrize("n,expected", [(4, 2.0), (5, 5.0)])
def test_regular_tricube_max_nontrivial(n, expected):
    values = np.linalg.eigvalsh(regular_tricube_adjacency(n).entries)
    degree = n * (n + 1) // 2
    nontrivial = np.abs(values)[np.abs(np.abs(values) - degree) > 1e-9]
    assert nontrivial.max() == pytest.approx(expected, abs=1e-9)
    assert expected == n * (n - 3) / 2


def brute_pow_adjacency(n):
    """Oracle: pairwise coordinate comparison over all 3^n vertices."""
    coords = [ternary_vertex(n, m).coords for m in range(3**n)]
    N = 3**n
    A = np.zeros((N, N))
    for i in range(N):
        for j in range(N):
            diffs = [(a, b) for a, b in zip(coords[i], coords[j]) if a != b]
            if len(diffs) == 1 and abs(diffs[0][0] - diffs[0][1]) == 1:
                A[i, j] = 1.0
    return A


def test_pow_cube_path_on_3():
    assert np.array_equal(pow_cube_adjacency(1).entries, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pow_cube_matches_brute_force(n):
    assert np.array_equal(pow_cube_adjacency(n).entries, brute_pow_adjacency(n))


def test_pow_cube_central_degree_and_no_diagonal_steps():
    A = pow_cube_adjacency(3).entries
    assert A[13].sum() == 6
    # opposite corners differ by two steps on every axis: never adjacent
    assert A[0, 26] == 0


@pytest.mark.parametrize("n", range(1, 8))
def test_pow_cube_bipartite(n):
    A = pow_cube_adjacency(n).entries
    parity = np.array([sum(ternary_vertex(n, m).coords) % 2 for m in range(3**n)])
    rows, cols = np.nonzero(A)
    assert np.all(parity[rows] != parity[cols])


def test_pow_tricube_block_and_spectrum():
    L = pow_tricube_laplacian(1)
    assert np.array_equal(L.entries, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    assert np.allclose(np.linalg.eigvalsh(L.entries), [0, 1, 3], atol=1e-12)
    values = np.linalg.eigvalsh(pow_tricube_laplacian(2).entries)
    assert np.allclose(values, [0, 1, 1, 2, 3, 3, 4, 4, 6], atol=1e-12)


@pytest.mark.parametrize("n", range(1, 6))
def test_pow_tricube_structure(n):
    L = pow_tricube_laplacian(n)
    assert L.N == 3**n and L.N % 2 == 1
    diag = np.diag(L.entries)
    assert diag.min() == n and diag.max() == 2 * n
    assert np.abs(L.entries.sum(axis=1)).max() == 0
    degrees = pow_cube_adjacency(n).entries.sum(axis=1)
    assert np.array_equal(diag, degrees)


def test_pow_hamming_values():
    D = pow_hamming_matrix(1).entries
    assert np.array_equal(D, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    D3 = pow_hamming_matrix(3).entries
    assert D3[0, 26] == 0  # same address 111 at both 3-norm corners


@pytest.mark.parametrize("n", range(1, 6))
def test_pow_hamming_ordering_invariance(n):
    a = pow_hamming_matrix(n, "ternary").entries
    b = pow_hamming_matrix(n, "ternary-gray").entries
    assert np.array_equal(a, b)


def test_face_counts():
    assert face_count(3, 0) == 27
    assert face_count(3, 3) == 8
    assert face_total(3) == 125
    with pytest.raises(ValueError):
        face_count(3, 4)


@pytest.mark.parametrize("n", range(1, 11))
def test_face_total_is_power_of_five(n):
    assert face_total(n) == 5**n


def validate_circuit(circuit, adj):
    assert circuit[0] == circuit[-1]
    seen = set()
    for a, b in zip(circuit, circuit[1:]):
        assert adj[a, b] == 1
        edge = (min(a, b), max(a, b))
        assert edge not in seen
        seen.add(edge)
    assert len(seen) == int(adj.sum()) // 2


@pytest.mark.parametrize("n", [3, 4, 7])
def test_eulerian_circuit_exists_and_covers(n):
    circuit = eulerian_circuit(n)
    adj = regular_tricube_adjacency(n).entries
    validate_circuit(circuit, adj)
    assert len(circuit) - 1 == int(adj.sum()) // 2


@pytest.mark.parametrize("n", [2, 5, 6])
def test_eulerian_circuit_absent_for_odd_degree(n):
    assert eulerian_circuit(n) is None


def test_euler_3_has_24_edges():
    assert len(eulerian_circuit(3)) == 25


def test_matrix_export(tmp_path):
    gm = tricube_laplacian(2)
    csv_path = tmp_path / "m.csv"
    matrix_to_csv(gm, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "family,kind,n,ordering,N"
    assert lines[1] == "tricube,laplacian,2,binary,4"
    parsed = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    assert np.array_equal(parsed, gm.entries)

    json_path = tmp_path / "m.json"
    matrix_to_json(gm, json_path)
    payload = json.loads(json_path.read_text())
    assert payload["family"] == "tricube" and payload["N"] == 4
    assert np.array_equal(np.array(payload["entries"]), gm.entries)


def test_constructor_preconditions():
    with pytest.raises(ValueError):
        ncube_adjacency(0)
    with pytest.raises(ValueError):
        regular_tricube_adjacency(1)
    with pytest.raises(ValueError):
        pow_cube_adjacency(2, "binary")
