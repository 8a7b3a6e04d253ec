import math

import numpy as np
import pytest

from cubelab.cubegraphs import (
    OLN,
    OLP,
    _ternary_product,
    hamming_distance_matrix,
    ncube_adjacency,
    pow_cube_adjacency,
    pow_hamming_matrix,
    pow_tricube_laplacian,
    regular_tricube_adjacency,
    tricube_laplacian,
)
from cubelab.spectra import (
    ResidualError,
    centro_block_diagonalize,
    classify_lattice,
    cluster_eigenvalues,
    eig_identity_check,
    eig_sym,
    exchange_matrix,
    ramanujan_check,
    spectral_stats,
    spectrum_to_csv,
)

SQRT2 = math.sqrt(2.0)


def test_eig_sym_known_spectra():
    spec = eig_sym(tricube_laplacian(3))
    assert np.allclose(spec.values, [0, 2, 2, 2, 4, 4, 4, 6], atol=1e-10)
    assert spec.clusters == ((pytest.approx(0.0, abs=1e-10), 1),
                             (pytest.approx(2.0, abs=1e-10), 3),
                             (pytest.approx(4.0, abs=1e-10), 3),
                             (pytest.approx(6.0, abs=1e-10), 1))
    spec = eig_sym(np.eye(4))
    assert spec.clusters == ((1.0, 4),)
    spec = eig_sym(pow_cube_adjacency(1))
    assert np.allclose(spec.values, [-SQRT2, 0.0, SQRT2], atol=1e-12)


def _seeded_permutation(n):
    return np.random.default_rng(n).permutation(2**n).tolist()


# (constructor, ordering, sign, smallest n); "custom" is a seeded permutation
EIG_SYM_CASES = [
    (make, ordering, sign, lo)
    for make, lo, signed in (
        (ncube_adjacency, 1, False),
        (hamming_distance_matrix, 1, False),
        (tricube_laplacian, 1, True),
        (regular_tricube_adjacency, 2, False),
    )
    for ordering in ("binary", "gray", "custom")
    for sign in ((OLP, OLN) if signed else (None,))
] + [
    (make, ordering, sign, 1)
    for make, signed in (
        (pow_cube_adjacency, False),
        (pow_tricube_laplacian, True),
        (pow_hamming_matrix, False),
    )
    for ordering in ("ternary", "ternary-gray")
    for sign in ((OLP, OLN) if signed else (None,))
]


@pytest.mark.parametrize(
    "make,ordering,sign,lo", EIG_SYM_CASES,
    ids=[f"{c[0].__name__}-{c[1]}-{c[2]}" for c in EIG_SYM_CASES],
)
def test_eig_sym_matches_dense_lapack(make, ordering, sign, lo):
    for n in range(lo, 7):
        order = _seeded_permutation(n) if ordering == "custom" else ordering
        M = make(n, order) if sign is None else make(n, order, sign)
        spec = eig_sym(M)
        assert np.abs(spec.values - np.linalg.eigvalsh(M.entries)).max() <= 1e-9
        V = spec.vectors
        assert np.abs(V.T @ V - np.eye(M.N)).max() <= 1e-10


def _record_sizes(monkeypatch, name):
    """Record the order of every matrix passed to numpy.linalg.<name>."""
    sizes = []
    original = getattr(np.linalg, name)

    def recording(a, *args, **kwargs):
        sizes.append(np.asarray(a).shape[0])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return sizes


@pytest.mark.parametrize("M,blocks", [
    (np.array([[3.0]]), [1]),
    (np.array([[2.0, -1.0], [-1.0, 2.0]]), [1, 1]),
    (np.array([[1.0, 2.0, 0.5], [2.0, -3.0, 2.0], [0.5, 2.0, 1.0]]), [1, 2]),
    (pow_tricube_laplacian(3).entries, [3]),
    (tricube_laplacian(4, "gray").entries, [8, 8]),
    (pow_tricube_laplacian(3, "ternary-gray").entries, [13, 14]),
])
def test_eig_sym_small_and_split_orders(monkeypatch, M, blocks):
    sizes = _record_sizes(monkeypatch, "eigh")
    spec = eig_sym(M)
    assert sizes == blocks
    assert np.abs(spec.values - np.linalg.eigvalsh(M)).max() <= 1e-12
    assert np.abs(spec.vectors.T @ spec.vectors - np.eye(len(M))).max() <= 1e-12
    assert np.abs(M @ spec.vectors - spec.vectors * spec.values).max() <= 1e-12


def test_eig_sym_near_bisymmetric_takes_single_eigh(monkeypatch):
    M = pow_tricube_laplacian(2).entries.copy()
    M[0, 0] += 1e-8
    sizes = _record_sizes(monkeypatch, "eigh")
    spec = eig_sym(M)
    assert sizes == [9]
    assert np.abs(spec.values - np.linalg.eigvalsh(M)).max() <= 1e-12


def test_eig_sym_residual_failure_raises():
    with pytest.raises(ResidualError):
        eig_sym(pow_tricube_laplacian(2), tol=1e-20)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("make,sign", [
    (pow_cube_adjacency, None),
    (pow_tricube_laplacian, OLP),
    (pow_tricube_laplacian, OLN),
])
def test_eig_sym_kron_sum_solves_the_3x3_factor(monkeypatch, make, sign, n):
    M = make(n) if sign is None else make(n, "ternary", sign)
    sizes = _record_sizes(monkeypatch, "eigh")
    spec = eig_sym(M)
    assert sizes == [3]
    assert np.abs(spec.values - np.linalg.eigvalsh(M.entries)).max() <= 1e-9
    assert np.abs(spec.vectors.T @ spec.vectors - np.eye(M.N)).max() <= 1e-10


def test_eig_sym_kron_sum_of_random_factor(monkeypatch):
    X = np.random.default_rng(3).standard_normal((3, 3))
    M = _ternary_product(X + X.T, 3)
    sizes = _record_sizes(monkeypatch, "eigh")
    spec = eig_sym(M)
    assert sizes == [3]
    assert np.abs(spec.values - np.linalg.eigvalsh(M)).max() <= 1e-12
    assert np.abs(spec.vectors.T @ spec.vectors - np.eye(27)).max() <= 1e-12
    assert np.abs(M @ spec.vectors - spec.vectors * spec.values).max() <= 1e-12


def test_eig_sym_kron_route_residual_failure_raises(monkeypatch):
    sizes = _record_sizes(monkeypatch, "eigh")
    with pytest.raises(ResidualError):
        eig_sym(pow_cube_adjacency(3), tol=1e-20)
    assert sizes == [3]


@pytest.mark.parametrize("n", range(2, 11))
def test_ramanujan_split_matches_single_eigvalsh(monkeypatch, n):
    A = regular_tricube_adjacency(n)
    values = np.abs(np.linalg.eigvalsh(A.entries))
    dense = values[np.abs(values - n * (n + 1) // 2) > 1e-6].max()
    sizes = _record_sizes(monkeypatch, "eigvalsh")
    split = ramanujan_check(A)
    assert sizes == [2 ** (n - 1)] * 2
    assert split.max_nontrivial == pytest.approx(dense, abs=1e-9)
    if n >= 3:  # at n = 2 the graph is K4, bisymmetric under every ordering
        single = ramanujan_check(regular_tricube_adjacency(n, _seeded_permutation(n)))
        assert sizes[2:] == [2**n]
        assert single.max_nontrivial == pytest.approx(split.max_nontrivial, abs=1e-9)
        assert single.is_ramanujan == split.is_ramanujan


def test_eig_sym_rejects_asymmetric():
    with pytest.raises(ValueError):
        eig_sym(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_eig_sym_residuals_and_trace():
    for M in (tricube_laplacian(4), pow_tricube_laplacian(3), regular_tricube_adjacency(4)):
        spec = eig_sym(M, tol=1e-8)
        norm = np.abs(spec.values).max()
        residual = np.linalg.norm(M.entries @ spec.vectors - spec.vectors * spec.values, axis=0)
        assert residual.max() <= 1e-8 * norm
        assert abs(spec.values.sum() - np.trace(M.entries)) <= 1e-8 * M.N


def test_degenerate_subspace_rotation_freedom():
    M = tricube_laplacian(3)
    spec = eig_sym(M)
    u, v = spec.vectors[:, 1], spec.vectors[:, 2]  # both eigenvalue 2
    w = (u + v) / SQRT2
    assert np.linalg.norm(M.entries @ w - 2.0 * w) <= 1e-8 * 6.0


def test_cluster_eigenvalues_tolerance():
    clusters = cluster_eigenvalues([0.0, 1e-8, 1.0, 2.0, 2.0 + 5e-7], tol=1e-6)
    assert [m for _, m in clusters] == [2, 1, 2]


def test_classify_lattice():
    counts = classify_lattice(eig_sym(pow_cube_adjacency(2)), SQRT2)
    assert counts == {-2: 1, -1: 2, 0: 3, 1: 2, 2: 1}
    counts = classify_lattice(eig_sym(pow_tricube_laplacian(2)), 1.0)
    assert counts == {0: 1, 1: 2, 2: 1, 3: 2, 4: 2, 6: 1}
    assert 5 not in counts
    assert classify_lattice(eig_sym(pow_cube_adjacency(1)), 1.0) is None


@pytest.mark.parametrize("n", range(2, 9))
def test_tricube_classifies_on_even_lattice(n):
    counts = classify_lattice(eig_sym(tricube_laplacian(n)), 2.0)
    assert counts == {k: math.comb(n, k) for k in range(n + 1)}


def test_spectral_stats():
    stats = spectral_stats(eig_sym(tricube_laplacian(3)))
    assert stats.radius == pytest.approx(6.0, abs=1e-10)
    assert stats.eigengap == pytest.approx(2.0, abs=1e-10)
    assert stats.trace == pytest.approx(24.0, abs=1e-10)
    stats = spectral_stats(eig_sym(pow_tricube_laplacian(2)))
    assert stats.radius == pytest.approx(6.0, abs=1e-10)
    assert stats.spectral_gap == pytest.approx(2.0, abs=1e-10)
    assert stats.eigengap == pytest.approx(1.0, abs=1e-10)
    stats = spectral_stats(eig_sym(np.eye(3)))
    assert stats.eigengap is None and stats.spectral_gap is None


def test_centro_blocks_gray_tricube_2():
    blocks = centro_block_diagonalize(tricube_laplacian(2, "gray"))
    assert np.allclose(np.linalg.eigvalsh(blocks.minus_block), [2, 4], atol=1e-12)
    assert np.allclose(np.linalg.eigvalsh(blocks.plus_block), [0, 2], atol=1e-12)
    assert blocks.offdiag_norm <= 1e-12


def test_centro_blocks_odd_dimension():
    blocks = centro_block_diagonalize(pow_tricube_laplacian(1))
    assert np.allclose(np.linalg.eigvalsh(blocks.minus_block), [1.0], atol=1e-12)
    assert np.allclose(np.linalg.eigvalsh(blocks.plus_block), [0.0, 3.0], atol=1e-12)


@pytest.mark.parametrize("make,n", [(tricube_laplacian, 4), (pow_tricube_laplacian, 3)])
def test_centro_blocks_preserve_spectrum(make, n):
    M = make(n)
    blocks = centro_block_diagonalize(M)
    assert blocks.offdiag_norm <= 1e-9
    combined = np.sort(np.concatenate([
        np.linalg.eigvalsh(blocks.minus_block), np.linalg.eigvalsh(blocks.plus_block)
    ]))
    assert np.allclose(combined, np.linalg.eigvalsh(M.entries), atol=1e-9)
    assert blocks.plus_block.shape[0] == (M.N + 1) // 2
    assert blocks.minus_block.shape[0] == M.N // 2


def _dense_k(N):
    """K = [[I, -J], [I, J]] / sqrt(2), with a sqrt(2) centre row for odd N."""
    m = N // 2
    J = exchange_matrix(m)
    K = np.zeros((N, N))
    if N % 2 == 0:
        K[:m, :m] = np.eye(m); K[:m, m:] = -J
        K[m:, :m] = np.eye(m); K[m:, m:] = J
    else:
        K[:m, :m] = np.eye(m); K[:m, m + 1:] = -J
        K[m, m] = SQRT2
        K[m + 1:, :m] = np.eye(m); K[m + 1:, m + 1:] = J
    return K / SQRT2


def test_centro_k_is_orthogonal():
    for N in (4, 9):
        K = _dense_k(N)
        assert np.abs(K @ K.T - np.eye(N)).max() <= 1e-12


@pytest.mark.parametrize("N", [4, 7, 8, 9])
def test_centro_slices_match_dense_similarity(N):
    # a bisymmetric matrix nudged by 5e-11 off centrosymmetry, still accepted
    rng = np.random.default_rng(N)
    X = rng.standard_normal((N, N))
    M = X + X.T
    M = M + M[::-1, ::-1]
    M[0, 1] += 5e-11
    M[1, 0] += 5e-11
    K = _dense_k(N)
    O = K @ M @ K.T
    m = N // 2
    blocks = centro_block_diagonalize(M)
    dense_offdiag = max(np.abs(O[:m, m:]).max(), np.abs(O[m:, :m]).max())
    assert 1e-11 <= blocks.offdiag_norm == pytest.approx(dense_offdiag, rel=1e-3, abs=1e-15)
    assert np.abs(blocks.minus_block - O[:m, :m]).max() <= 1e-10
    assert np.abs(blocks.plus_block - O[m:, m:]).max() <= 1e-10


def test_centro_rejects_non_bisymmetric():
    M = np.diag([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        centro_block_diagonalize(M)


def test_ramanujan_results():
    assert ramanujan_check(regular_tricube_adjacency(5)).is_ramanujan
    assert not ramanujan_check(regular_tricube_adjacency(6)).is_ramanujan
    result = ramanujan_check(ncube_adjacency(4))
    assert result.max_nontrivial == pytest.approx(2.0, abs=1e-9)
    assert result.degree == 4
    with pytest.raises(ValueError):
        ramanujan_check(np.array([[0.0, 1.0], [1.0, 0.0]]), degree=3)


def test_eig_identity_basis_columns():
    L = tricube_laplacian(2)
    B = np.eye(4)[:, :3]
    result = eig_identity_check(L, B)
    assert result.agree
    assert result.lhs == pytest.approx(4.0, abs=1e-9)


def test_eig_identity_with_kernel_column():
    L = tricube_laplacian(2)
    x = np.ones(4) / 2.0
    B = np.column_stack([x, np.eye(4)[:, :2]])
    result = eig_identity_check(L, B)
    assert result.agree  # both sides collapse consistently


def test_eig_identity_random_matrices():
    rng = np.random.default_rng(7)
    L = tricube_laplacian(3)
    for _ in range(10):
        B = rng.uniform(-1.0, 1.0, size=(8, 7))
        assert eig_identity_check(L, B).agree


def test_eig_identity_beyond_float_range():
    # at n = 8 both determinants exceed the float range; agreement is
    # decided from slogdet, not from inf == inf
    L = tricube_laplacian(8)
    B = np.random.default_rng(8).uniform(-1.0, 1.0, size=(L.N, L.N - 1))
    result = eig_identity_check(L, B)
    assert math.isinf(result.lhs) and math.isinf(result.rhs)
    assert result.agree and result.rel_err <= 1e-9


def test_eig_identity_needs_simple_kernel():
    # block-diagonal Laplacian of two disjoint edges: kernel dimension 2
    L = np.array([
        [1.0, -1.0, 0.0, 0.0],
        [-1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, -1.0],
        [0.0, 0.0, -1.0, 1.0],
    ])
    with pytest.raises(ValueError):
        eig_identity_check(L, np.eye(4)[:, :3])


def test_spectrum_csv(tmp_path):
    path = tmp_path / "spec.csv"
    spectrum_to_csv(eig_sym(tricube_laplacian(2)), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "value,multiplicity,cluster_representative"
    assert len(lines) == 5
    mults = [int(line.split(",")[1]) for line in lines[1:]]
    assert mults == [1, 2, 2, 1]
