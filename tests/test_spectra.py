import functools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from cubelab import cubegraphs, spectra, verify
from cubelab.cubegraphs import (
    ADJACENCY,
    DISTANCE,
    FAMILIES,
    KRONECKER,
    LAPLACIAN,
    LOW_RANK,
    WALSH,
    GraphMatrix,
    Structure,
    _PATH3_ADJ,
    _PATH3_LAP,
    _ternary_product,
    build,
    hamming_distance_matrix,
    ncube_adjacency,
    pow_cube_adjacency,
    pow_hamming_matrix,
    pow_tricube_laplacian,
    regular_tricube_adjacency,
    tricube_laplacian,
)
from cubelab.harmonic import pseudoinverse
from cubelab.meshcotan import dirichlet_energy
from cubelab.spectra import (
    CLUSTER_TOL,
    ResidualError,
    centro_deviation,
    cluster_eigenvalues,
    eig_identity_check,
    eig_sym,
    ramanujan_check,
    spectral_stats,
    spectrum_to_csv,
)
from negation import negated

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


# (constructor, ordering, sign, smallest n); "custom" is a seeded permutation,
# and sign "oln" takes the negated Laplacian
EIG_SYM_CASES = [
    (make, ordering, sign, lo)
    for make, lo, signed in (
        (ncube_adjacency, 1, False),
        (hamming_distance_matrix, 1, False),
        (tricube_laplacian, 1, True),
        (regular_tricube_adjacency, 2, False),
    )
    for ordering in ("binary", "gray", "custom")
    for sign in (("olp", "oln") if signed else (None,))
] + [
    (make, ordering, sign, 1)
    for make, signed in (
        (pow_cube_adjacency, False),
        (pow_tricube_laplacian, True),
        (pow_hamming_matrix, False),
    )
    for ordering in ("ternary", "ternary-gray")
    for sign in (("olp", "oln") if signed else (None,))
]


@pytest.mark.parametrize(
    "make,ordering,sign,lo", EIG_SYM_CASES,
    ids=[f"{c[0].__name__}-{c[1]}-{c[2]}" for c in EIG_SYM_CASES],
)
def test_eig_sym_matches_dense_lapack(make, ordering, sign, lo):
    for n in range(lo, 7):
        order = _seeded_permutation(n) if ordering == "custom" else ordering
        M = make(n, order)
        M = negated(M) if sign == "oln" else M
        spec = eig_sym(M)
        assert np.abs(spec.values - np.linalg.eigvalsh(M.entries)).max() <= 1e-9
        V = spec.vectors
        assert np.abs(V.T @ V - np.eye(M.N)).max() <= 1e-10
        # against the input entries, in the input's ordering
        residual = np.linalg.norm(M.entries @ V - V * spec.values, axis=0)
        assert residual.max() <= 1e-9 * spec.scale


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_an_ordering_only_relabels_the_spectrum(family):
    # a relabelled order is solved as its natural order, so every ordering
    # gives the natural order's values bit for bit
    row = FAMILIES[family]
    for n in range(row.min_n, 6):
        natural = eig_sym(build(family, n)).values.tobytes()
        orders = ("gray", _seeded_permutation(n)) if row.base == 2 else ("ternary-gray",)
        for ordering in orders:
            assert eig_sym(build(family, n, ordering)).values.tobytes() == natural


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
    (np.array([[2.0, -1.0], [-1.0, 2.0]]), [2]),
    (np.array([[1.0, 2.0, 0.5], [2.0, -3.0, 2.0], [0.5, 2.0, 1.0]]), [3]),
    (pow_tricube_laplacian(3), [3]),
    # a gray order is a relabelling, solved by its family's route
    (tricube_laplacian(4, "gray"), []),
    (pow_tricube_laplacian(3, "ternary-gray"), [3]),
    # the same entries as M3 without the declared factor take one eigh
    (pow_tricube_laplacian(3).entries, [27]),
])
def test_eig_sym_small_and_split_orders(monkeypatch, M, blocks):
    sizes = _record_sizes(monkeypatch, "eigh")
    spec = eig_sym(M)
    assert sizes == blocks
    E = M.entries if isinstance(M, GraphMatrix) else M
    assert np.abs(spec.values - np.linalg.eigvalsh(E)).max() <= 1e-12
    assert np.abs(spec.vectors.T @ spec.vectors - np.eye(len(E))).max() <= 1e-12
    assert np.abs(E @ spec.vectors - spec.vectors * spec.values).max() <= 1e-12


def test_eig_sym_near_bisymmetric_takes_single_eigh(monkeypatch):
    # 1e-8 goes into a float64 copy of the int8 entries, its integer twin
    # (+1) into the int8 entries
    sizes = _record_sizes(monkeypatch, "eigh")
    for delta in (1e-8, 1):
        M = pow_tricube_laplacian(2).entries.astype(np.result_type(np.int8, delta))
        M[0, 0] += delta
        sizes.clear()
        spec = eig_sym(M)
        assert sizes == [9]
        assert np.abs(spec.values - np.linalg.eigvalsh(M)).max() <= 1e-12


@pytest.mark.parametrize("tol", [math.inf, -1.0, 0.0, math.nan])
def test_eig_sym_rejects_a_tolerance_that_is_not_finite_and_positive(monkeypatch, tol):
    sizes = _record_sizes(monkeypatch, "eigh")
    with pytest.raises(ValueError, match="tolerance must be a finite number > 0"):
        eig_sym(pow_cube_adjacency(3), tol=tol)
    # rejected before anything is solved
    assert sizes == []


def test_eig_sym_residual_failure_raises():
    with pytest.raises(ResidualError):
        eig_sym(pow_tricube_laplacian(2), tol=1e-20)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("make,sign", [
    (pow_cube_adjacency, None),
    (pow_tricube_laplacian, "olp"),
    (pow_tricube_laplacian, "oln"),
])
def test_eig_sym_kron_sum_solves_the_3x3_factor(monkeypatch, make, sign, n):
    M = negated(make(n)) if sign == "oln" else make(n)
    sizes = _record_sizes(monkeypatch, "eigh")
    spec = eig_sym(M)
    assert sizes == [3]
    assert np.abs(spec.values - np.linalg.eigvalsh(M.entries)).max() <= 1e-9
    assert np.abs(spec.vectors.T @ spec.vectors - np.eye(M.N)).max() <= 1e-10


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("make,sign", [
    (pow_cube_adjacency, None),
    (pow_tricube_laplacian, "olp"),
    (pow_tricube_laplacian, "oln"),
])
def test_kron_route_vectors_are_the_sorted_kronecker_power(monkeypatch, make, sign, n):
    M = negated(make(n)) if sign == "oln" else make(n)
    w, Q = np.linalg.eigh(M.structure.data)
    values = functools.reduce(lambda v, _: np.add.outer(v, w).ravel(), range(n - 1), w)
    expected = functools.reduce(np.kron, [Q] * n)[:, np.argsort(values, kind="stable")]
    sizes = _record_sizes(monkeypatch, "eigh")
    spec = eig_sym(M)
    vectors = spec.vectors
    # built on the first read from the factor's one eigh, then cached
    assert sizes == [3]
    assert vectors.shape == expected.shape
    assert vectors.tobytes() == expected.tobytes()
    assert spec.vectors is vectors


def test_eig_sym_kron_sum_of_random_factor(monkeypatch):
    X = np.random.default_rng(3).standard_normal((3, 3))
    # zero row sums, so that the Kronecker sum is a valid LAPLACIAN entry set
    F = X + X.T - np.diag((X + X.T).sum(axis=1))
    M = _ternary_product(F, 3)
    sizes = _record_sizes(monkeypatch, "eigh")
    spec = eig_sym(GraphMatrix("random", LAPLACIAN, 3, "ternary", M, Structure(KRONECKER, F)))
    assert sizes == [3]
    assert np.abs(spec.values - np.linalg.eigvalsh(M)).max() <= 1e-12
    assert np.abs(spec.vectors.T @ spec.vectors - np.eye(27)).max() <= 1e-12
    assert np.abs(M @ spec.vectors - spec.vectors * spec.values).max() <= 1e-12


def test_eig_sym_kron_route_residual_failure_raises(monkeypatch):
    sizes = _record_sizes(monkeypatch, "eigh")
    with pytest.raises(ResidualError):
        eig_sym(pow_cube_adjacency(3), tol=1e-20)
    assert sizes == [3]


@pytest.mark.parametrize("make,ordering", [
    (pow_hamming_matrix, "ternary"),
    (pow_cube_adjacency, "ternary-gray"),
])
def test_kron_row_check_skips_the_full_accumulation(monkeypatch, make, ordering):
    # eig_sym reads the declared factor, so no input makes it rebuild the
    # N x N Kronecker sum, and entries without a factor are never tried as one
    declared, M = pow_cube_adjacency(6), make(6, ordering)
    calls = []

    def counting(*args):
        calls.append(args)
        return _ternary_product(*args)

    # both names, so that a copy imported into spectra is counted as well
    monkeypatch.setattr(cubegraphs, "_ternary_product", counting)
    monkeypatch.setattr(spectra, "_ternary_product", counting, raising=False)
    eig_sym(declared)
    assert calls == []
    # entries alone never take the Kronecker route
    sizes = _record_sizes(monkeypatch, "eigh")
    spec = eig_sym(M.entries)
    assert calls == []
    assert sizes and 3 not in sizes
    assert np.abs(spec.values - np.linalg.eigvalsh(M.entries)).max() <= 1e-9


def test_eig_sym_false_factor_fails_residual():
    A = pow_cube_adjacency(3).entries
    with pytest.raises(ResidualError):
        eig_sym(GraphMatrix("powcube", ADJACENCY, 3, "ternary", A,
                            Structure(KRONECKER, _PATH3_LAP)))


@pytest.mark.parametrize("entries,n,factor", [
    (pow_cube_adjacency(2).entries, 2, np.eye(2)),
    (pow_cube_adjacency(2).entries, 2, np.roll(np.eye(3), 1, axis=1)),
    (ncube_adjacency(2).entries, 2, _PATH3_ADJ),
    (pow_cube_adjacency(2).entries, 3, _PATH3_ADJ),
    (pow_cube_adjacency(1).entries, 1, _PATH3_ADJ),
], ids=["2x2", "asymmetric", "N=4", "N!=3^n", "n=1"])
def test_graph_matrix_rejects_malformed_factor(entries, n, factor):
    with pytest.raises(ValueError, match="factor"):
        GraphMatrix("powcube", ADJACENCY, n, "ternary", entries, Structure(KRONECKER, factor))


def test_graph_matrix_symmetry_is_not_retested(monkeypatch):
    calls = []

    def counting(entries):
        calls.append(entries.shape)
        return cubegraphs.asymmetry(entries)

    M, L = pow_cube_adjacency(3), tricube_laplacian(3)
    monkeypatch.setattr(spectra, "asymmetry", counting)
    eig_sym(M)
    eig_sym(L)
    spectra.symmetric_entries(L)
    assert calls == []
    eig_sym(L.entries)
    assert calls == [(8, 8)]


@pytest.mark.parametrize("M", [
    np.array([[np.inf, 0.0], [0.0, 1.0]]),
    np.array([[1e308, 1e308], [1e308, 1e308]]),
], ids=["inf-entry", "overflowing-eigenvalue"])
def test_eig_sym_non_finite_fails_residual_gate(M):
    with np.errstate(all="ignore"), pytest.raises(ResidualError):
        eig_sym(M)


def _minus_identity_tile(M):
    """Row and column offsets of the first 81 x 81 tile of M that is -I."""
    count = M.shape[0] // 81
    tiles = M.reshape(count, 81, count, 81)
    r, s = next(
        (r, s) for r in range(count) for s in range(count)
        if np.array_equal(tiles[r, :, s], -np.eye(81))
    )
    return 81 * r, 81 * s


def _powtri_729_with(value, dr, ds):
    """powtri n = 6, as float64, with the symmetric pair at (dr, ds) inside
    its first -I tile set to value."""
    M = pow_tricube_laplacian(6).entries.astype(float)
    r, s = _minus_identity_tile(M)
    M[r + dr, s + ds] = M[s + ds, r + dr] = value
    return M


def _identity_with_shift_tiles():
    """I_810 (ten tiles, so the last column block is one tile wide) whose
    tiles (0, 1) and (1, 0) hold a cyclic shift and its transpose: 81
    nonzeros each, none on the tile diagonal."""
    M = np.eye(810)
    shift = np.roll(np.eye(81), 1, axis=1)
    M[:81, 81:162], M[81:162, :81] = shift, shift.T
    return M


RESIDUAL_CASES = [
    lambda: pow_cube_adjacency(6),
    lambda: pow_hamming_matrix(6),
    lambda: pow_tricube_laplacian(7),
    lambda: hamming_distance_matrix(10),
    lambda: ncube_adjacency(10, _seeded_permutation(10)),
    lambda: ncube_adjacency(11),
    # +I tiles, and zero tiles of -0.0
    lambda: negated(pow_tricube_laplacian(6)),
    # a -I tile with a stray off-diagonal entry, or one changed diagonal
    # entry, is a general tile
    lambda: _powtri_729_with(-0.5, 3, 5),
    lambda: _powtri_729_with(-2.0, 7, 7),
    lambda: 2.0 * np.eye(729),
    # 81 nonzeros off the diagonal and a zero diagonal is not 0 * I
    _identity_with_shift_tiles,
]


@pytest.mark.parametrize("make", RESIDUAL_CASES, ids=[
    "powcube-729", "powhamming-729", "powtri-2187", "hamming-1024", "ncube-1024-custom",
    "ncube-2048", "powtri-729-oln", "stray-pair-in-minus-identity",
    "changed-diagonal-in-minus-identity", "2I-729", "shift-tiles-810",
])
def test_tiled_residual_matches_dense_reference(make):
    # tile patterns of every class as raw arrays, on the undeclared routes,
    # whose check is one GEMM: the pairs eig_sym returns pass the reference
    M = make()
    M = M.entries if isinstance(M, GraphMatrix) else M
    spec = eig_sym(M)
    checked = spectra._residual_norms(M, spec.values, spec.vectors)
    dense = np.linalg.norm(M @ spec.vectors - spec.vectors * spec.values, axis=0)
    scale = max(float(np.abs(spec.values).max()), 1.0)
    assert np.abs(checked - dense).max() <= 1e-14 * scale
    assert dense.max() <= spectra.RESIDUAL_TOL * scale


def _two_run_tiles():
    """2 I_729 whose tile row 0 (and tile column 0) also holds random
    general tiles 2, 3 and 6: two runs, the first two tiles long."""
    M = 2.0 * np.eye(729)
    for s in (2, 3, 6):
        tile = np.random.default_rng(s).standard_normal((81, 81))
        M[:81, 81 * s : 81 * (s + 1)], M[81 * s : 81 * (s + 1), :81] = tile, tile.T
    return M


def _random_symmetric_729():
    """A random symmetric 729 x 729 matrix: every tile is general."""
    X = np.random.default_rng(729).standard_normal((729, 729))
    return X + X.T


def _kron_sum(factor, n):
    """Reference: the n-fold Kronecker sum of a 3x3 factor, densely, with
    the top digit most significant: K_n = F (x) I + I (x) K_(n-1)."""
    F = np.asarray(factor, dtype=float)
    K = F
    for k in range(1, n):
        K = np.kron(F, np.eye(3**k)) + np.kron(np.eye(3), K)
    return K


def _dense_deviation(M, S):
    """||M - S||: the larger of the largest row and column abs-sums."""
    D = np.abs(np.asarray(M, dtype=float) - S)
    return max(D.sum(axis=0).max(), D.sum(axis=1).max())


@pytest.mark.parametrize("n,make", [
    (6, lambda: _powtri_729_with(-0.5, 3, 5)),
    # diagonal tiles that are not c I and all-zero tiles elsewhere
    (6, lambda: np.diag(np.arange(729.0) % 7)),
    (7, lambda: np.diag(np.arange(2187.0) % 7)),
    (5, lambda: np.diag(np.arange(243.0) % 7)),
    # +I tiles and zero tiles of -0.0
    (6, lambda: negated(pow_tricube_laplacian(6)).entries),
    (6, _two_run_tiles),
    (6, _random_symmetric_729),
    (5, lambda: pow_cube_adjacency(5).entries),
], ids=[
    "minus-identity-tiles-729", "no-scaled-tile-729", "no-scaled-tile-2187", "untiled-243",
    "powtri-oln-729", "two-runs-729", "all-general-random-729", "powcube-untiled-243",
])
def test_kron_column_blocks_match_dense_reference(n, make):
    # the Kronecker certificate's walk over the digit blocks of M, declared
    # as powtri's factor, measures ||M - S|| as the dense M - S does, and
    # its bound dominates the dense residual of every column it returns,
    # none of which is an eigenvector of M, so that every residual counts
    M = make()
    deviation = spectra._kron_deviation(M, _PATH3_LAP, n)
    dense = _dense_deviation(M, _kron_sum(_PATH3_LAP, n))
    assert deviation == pytest.approx(dense, rel=1e-12)
    values, vectors, bound = spectra._kron_eig(M, _PATH3_LAP, n)
    V = vectors()
    residual = np.linalg.norm(M @ V - V * values, axis=0)
    assert 1e-3 < residual.max() <= bound


def _minus_identity_tile_fault(entries, value, dr, ds):
    """entries with the entry at (dr, ds) of its first -I tile set to value,
    or with the whole tile set to value * I when dr is None."""
    r, s = _minus_identity_tile(entries)
    if dr is None:
        entries[r : r + 81, s : s + 81] = np.diag(np.full(81, value))
    else:
        entries[r + dr, s + ds] = value
    return entries


# twin: the -I tile's entry (or scale) + 1, the integer fault at the same place
@pytest.mark.parametrize("value,twin,dr,ds", [
    (np.nan, 0, 7, 7), (np.nan, 1, 3, 5), (np.inf, 0, None, None),
], ids=["nan-on-diagonal", "nan-off-diagonal", "inf-scale"])
def test_tiled_residual_of_a_non_finite_tile_is_not_finite(value, twin, dr, ds):
    M = pow_tricube_laplacian(6).entries
    spec = eig_sym(M)
    faulty = _minus_identity_tile_fault(M.astype(float), value, dr, ds)
    with np.errstate(invalid="ignore"):
        residual = spectra._residual_norms(faulty, spec.values, spec.vectors)
    assert not np.isfinite(residual).all()
    # the integer twin, in the int8 entries, is finite and fails the check
    twinned = _minus_identity_tile_fault(M.copy(), twin, dr, ds)
    residual = spectra._residual_norms(twinned, spec.values, spec.vectors)
    assert np.isfinite(residual).all() and residual.max() > spectra.RESIDUAL_TOL * spec.scale


@pytest.mark.parametrize("case", ["nan-in-scaled-tile", "nan-in-general-tile", "inf-scale"])
def test_kron_route_non_finite_tile_fails_residual(case):
    # a GraphMatrix rejects NaN and inf when it is made, so the faults go
    # through the declared route that eig_sym runs once the entries are
    # validated, in a float64 copy; their integer twins (+1 at the same
    # entries) go into the int8 entries, where the bound is finite but fails
    for dtype in (np.float64, np.int8):
        entries = pow_tricube_laplacian(6).entries.astype(dtype)
        faulty = dtype == np.float64
        r, s = _minus_identity_tile(entries)
        if case == "nan-in-scaled-tile":
            entries[r + 7, s + 7] = entries[s + 7, r + 7] = np.nan if faulty else 0
        elif case == "nan-in-general-tile":  # tile (0, 0) is general
            entries[0, 1] = entries[1, 0] = np.nan if faulty else 0
        else:
            tile = np.diag(np.full(81, np.inf)) if faulty else np.zeros((81, 81), np.int8)
            entries[r : r + 81, s : s + 81] = entries[s : s + 81, r : r + 81] = tile
        with np.errstate(all="ignore"), pytest.raises(ResidualError, match="eigenpair residual"):
            spectra._declared_eig(entries, KRONECKER, _PATH3_LAP, 6, spectra.RESIDUAL_TOL)
        with pytest.raises(ValueError):
            GraphMatrix("powtri", LAPLACIAN, 6, "ternary", entries, Structure(KRONECKER, _PATH3_LAP))


@pytest.mark.parametrize("n", range(2, 8))
def test_kron_route_takes_no_residual_gemm(monkeypatch, n):
    # the certificate compares M with the Kronecker sum entry by entry:
    # no GEMM residual, no Kronecker power of Q, and one 3x3 eigh
    M = pow_cube_adjacency(n)
    calls = []
    for name in ("_residual_norms", "_kron_power"):
        monkeypatch.setattr(spectra, name, lambda *args, name=name: calls.append(name))
    sizes = _record_sizes(monkeypatch, "eigh")
    eig_sym(M)
    assert calls == [] and sizes == [3]


def _count_censuses(monkeypatch):
    """The shapes of the matrices `cubegraphs._tile_census` reads from now
    on, in call order."""
    calls = []
    census = cubegraphs._tile_census

    def counting(entries):
        calls.append(entries.shape)
        return census(entries)

    monkeypatch.setattr(cubegraphs, "_tile_census", counting)
    return calls


@pytest.mark.parametrize("make", [
    lambda: pow_cube_adjacency(7),
    # a relabelled order is solved on its gathered natural-order entries,
    # which a bijection leaves symmetric and within the kind's rule, so no
    # second GraphMatrix validates them
    lambda: pow_cube_adjacency(6, "ternary-gray"),
], ids=["powcube-2187-kronecker", "powcube-729-gray"])
def test_eig_sym_takes_no_second_census(monkeypatch, make):
    # validation took the census when M was built; no route reads one
    M = make()
    calls = _count_censuses(monkeypatch)
    validations = []
    post_init = GraphMatrix.__post_init__
    monkeypatch.setattr(GraphMatrix, "__post_init__", lambda m: validations.append(post_init(m)))
    eig_sym(M)
    assert calls == [] and validations == []


def test_raw_array_takes_no_census(monkeypatch):
    # only `GraphMatrix` validation takes a census; the raw-array gate and
    # the undeclared routes' one-GEMM check take none
    entries = np.array(pow_cube_adjacency(6, "ternary-gray").entries)
    calls = _count_censuses(monkeypatch)
    eig_sym(entries)
    assert calls == []
    assert not hasattr(spectra, "_tile_census")


def test_tiled_residual_failure_raises():
    with pytest.raises(ResidualError):
        eig_sym(pow_cube_adjacency(6), tol=1e-20)


def _nudged_powtri(n, pair, delta):
    """powtri's entries with the symmetric pair at `pair` raised by delta and
    its two diagonal entries lowered by delta (row sums stay zero), declaring
    the unchanged factor; a delta that int8 cannot hold goes into a float64
    copy."""
    M = pow_tricube_laplacian(n).entries.astype(np.result_type(np.int8, delta))
    i, j = pair(M)
    M[i, j] += delta
    M[j, i] += delta
    M[i, i] -= delta
    M[j, j] -= delta
    return GraphMatrix("powtri", LAPLACIAN, n, "ternary", M, Structure(KRONECKER, _PATH3_LAP))


@pytest.mark.parametrize("n,pair", [
    (6, lambda M: tuple(np.add(_minus_identity_tile(M), (3, 5)))),
    (6, lambda M: (0, 1)),
    (4, lambda M: (0, 1)),
], ids=["minus-identity-tile-729", "general-tile-729", "untiled-81"])
def test_kron_route_residual_finds_entries_off_the_factor(n, pair):
    # 1e-6 in a float64 copy, and its integer twin 1 in the int8 entries
    for delta in (1e-6, 1):
        with pytest.raises(ResidualError):
            eig_sym(_nudged_powtri(n, pair, delta))


def test_eig_sym_peak_allocation_on_the_kron_route():
    # the certificate compares M with the Kronecker sum in M's int8, and
    # forms no Kronecker power of Q nor any float64 copy of M
    M = pow_cube_adjacency(7)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        eig_sym(M)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.15 * 8 * M.N**2


def test_kron_eigh_peak_allocation():
    # the eigenvector matrix itself is 8 N^2 bytes; the gather that fills
    # it must not add a temporary of a sizeable fraction of that
    N = 3**7
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        w, Q = np.linalg.eigh(_PATH3_ADJ)
        values = functools.reduce(lambda v, _: np.add.outer(v, w).ravel(), range(6), w)
        spectra._kron_vectors(Q, 7, np.argsort(values, kind="stable"))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * N**2


def test_kron_route_values_only_never_form_the_vectors():
    # the certificate forms no eigenvector column; the 8 N^2 bytes of the
    # sorted eigenvector matrix are spent only when Spectrum.vectors is read
    M = pow_cube_adjacency(7)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        spec = eig_sym(M)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(spec.values) == M.N
    assert peak < 0.5 * 8 * M.N**2


@pytest.mark.parametrize("make,kind", [
    (lambda: tricube_laplacian(5), WALSH),
    (lambda: negated(tricube_laplacian(5)), WALSH),
    (lambda: regular_tricube_adjacency(6), WALSH),
    (lambda: hamming_distance_matrix(1), WALSH),
    (lambda: pow_hamming_matrix(3), LOW_RANK),
    (lambda: pow_hamming_matrix(4), LOW_RANK),
    (lambda: pow_hamming_matrix(4, "ternary-gray"), LOW_RANK),
], ids=["tricube-5", "tricube-5-oln", "regtricube-6", "hamming-1", "powhamming-3",
        "powhamming-4", "powhamming-4-gray"])
def test_structured_routes_return_checked_eigenpairs(monkeypatch, make, kind):
    M = make()
    assert M.structure.kind == kind
    sizes = _record_sizes(monkeypatch, "eigh")
    spec = eig_sym(M)
    # the Walsh route solves nothing; the low-rank route one (n + 1)-order eigh
    assert sizes == ([] if kind == WALSH else [M.n + 1])
    assert np.array_equal(spec.values, np.sort(spec.values))
    V = spec.vectors
    assert spec.vectors is V
    assert np.abs(M.entries @ V - V * spec.values).max() <= 1e-12 * spec.scale
    assert np.abs(V.T @ V - np.eye(M.N)).max() <= 1e-12


def test_walsh_vectors_are_the_sorted_sylvester_columns():
    M = regular_tricube_adjacency(5)
    spec = eig_sym(M)
    k = np.arange(M.N)
    H = (-1.0) ** np.bitwise_count(k[:, None] & k)
    order = np.argsort(H @ M.entries[0], kind="stable")
    assert np.array_equal(spec.vectors, H[:, order] / math.sqrt(M.N))


def _nudged(M, i, j, delta):
    """M's entries with the symmetric pair (i, j) raised by delta and, for a
    Laplacian, its two diagonal entries lowered by delta (row sums stay
    zero), declaring M's unchanged structure; a delta that int8 cannot hold
    goes into a float64 copy."""
    E = M.entries.astype(np.result_type(M.entries, delta))
    E[i, j] += delta
    E[j, i] += delta
    if M.kind == LAPLACIAN:
        E[i, i] -= delta
        E[j, j] -= delta
    return GraphMatrix(M.family, M.kind, M.n, M.ordering, E, M.structure)


@pytest.mark.parametrize("make,i,j,delta", [
    # 2 sqrt(2) delta / sqrt(N) against tol * scale = 1.6e-7
    (lambda: tricube_laplacian(8), 0, 3, 1e-5),
    (lambda: tricube_laplacian(8), 17, 200, 1e-5),
    # sqrt(2) delta against tol * scale, about 2e-5
    (lambda: pow_hamming_matrix(6), 0, 1, 1e-3),
    (lambda: pow_hamming_matrix(6, "ternary-gray"), 100, 500, 1e-3),
    # the integer twins, in the int8 entries
    (lambda: tricube_laplacian(8), 0, 3, 1),
    (lambda: tricube_laplacian(8), 17, 200, 1),
    (lambda: pow_hamming_matrix(6), 0, 1, 1),
    (lambda: pow_hamming_matrix(6, "ternary-gray"), 100, 500, 1),
], ids=["walsh-row-0", "walsh-inner", "low-rank", "low-rank-gray", "walsh-row-0-int8",
        "walsh-inner-int8", "low-rank-int8", "low-rank-gray-int8"])
def test_structured_route_residual_finds_entries_off_the_structure(make, i, j, delta):
    M = make()
    eig_sym(M)
    with pytest.raises(ResidualError, match="eigenpair residual"):
        eig_sym(_nudged(M, i, j, delta))


def test_false_structure_fails_residual():
    # a shuffled cube is not a function of i ^ j
    P = ncube_adjacency(4, _seeded_permutation(4))
    with pytest.raises(ResidualError, match="eigenpair residual"):
        eig_sym(GraphMatrix("ncube", ADJACENCY, 4, "binary", P.entries, Structure(WALSH)))
    # the Gray map is linear over Z_2, so the gray cube is a function of
    # i ^ j, but not of popcount(i ^ j)
    G = ncube_adjacency(4, "gray")
    with pytest.raises(ResidualError, match="popcount"):
        eig_sym(GraphMatrix("ncube", ADJACENCY, 4, "binary", G.entries, Structure(WALSH)))
    # powcube's adjacency at n = 3 has rank 20, far past the n + 1 = 4 of the bits
    A, bits = pow_cube_adjacency(3), pow_hamming_matrix(3).structure.data
    with pytest.raises(ResidualError, match="eigenpair residual"):
        eig_sym(GraphMatrix("powcube", ADJACENCY, 3, "ternary", A.entries,
                            Structure(LOW_RANK, bits)))
    # a bijection that is not the entries' ordering relabels them to another
    # matrix: the binary perm (the identity) declared on gray entries, and
    # the ternary one on ternary-gray entries
    with pytest.raises(ResidualError, match="popcount"):
        eig_sym(GraphMatrix("ncube", ADJACENCY, 4, "gray", G.entries,
                            Structure(WALSH, perm=np.arange(16))))
    T = pow_tricube_laplacian(3, "ternary-gray")
    with pytest.raises(ResidualError, match="eigenpair residual"):
        eig_sym(GraphMatrix("powtri", LAPLACIAN, 3, "ternary-gray", T.entries,
                            Structure(KRONECKER, _PATH3_LAP, np.arange(27))))
    # and a seeded bijection, on each route
    with pytest.raises(ResidualError, match="eigenpair residual"):
        eig_sym(GraphMatrix("powtri", LAPLACIAN, 3, "ternary-gray", T.entries, Structure(
            KRONECKER, _PATH3_LAP, np.random.default_rng(3).permutation(27))))
    H = hamming_distance_matrix(5, "gray")
    with pytest.raises(ResidualError, match="eigenpair residual"):
        eig_sym(GraphMatrix("hamming", DISTANCE, 5, "gray", H.entries,
                            Structure(WALSH, perm=np.random.default_rng(5).permutation(32))))


def test_walsh_values_must_depend_on_popcount_only():
    # a Cayley graph of Z_2^3 joined along bit 0 only: exactly a function of
    # i ^ j, so every residual is 0, but lambda_k = (-1)^(k & 1)
    k = np.arange(8)
    A = ((k[:, None] ^ k) == 1).astype(float)
    M = GraphMatrix("ncube", ADJACENCY, 3, "binary", A, Structure(WALSH))
    with pytest.raises(ResidualError, match="popcount"):
        eig_sym(M)


def _kron_fault_places(n):
    """(i, j): one entry of each block class at every level of the
    Kronecker certificate's walk, in diagonal block p = P - 1 of side 3 s:
    in every off-diagonal sub-block (a, b), its last diagonal entry and,
    while s > 1, an off-diagonal entry; and in every diagonal sub-block
    (a, a), an off-diagonal entry, or at the last level, where sub-blocks
    are single entries, M's diagonal entry."""
    places = []
    for level in range(n):
        P, s = 3**level, 3 ** (n - 1 - level)
        corner = (P - 1) * 3 * s
        for a in range(3):
            for b in range(3):
                i, j = corner + a * s, corner + b * s
                if a != b:
                    places.append((i + s - 1, j + s - 1))
                if s > 1:
                    places.append((i, j + s - 1))
                elif a == b:
                    places.append((i, j))
    return places


@pytest.mark.parametrize("make,factor", [
    (pow_cube_adjacency, _PATH3_ADJ), (pow_tricube_laplacian, _PATH3_LAP),
], ids=["powcube", "powtri"])
@pytest.mark.parametrize("n", [2, 4])
def test_kron_certificate_finds_a_fault_in_every_block_class_at_every_level(make, factor, n):
    # one +1 at one entry, in the int8 entries, so that nothing but the
    # certificate's read of that entry can find it
    entries = make(n).entries
    spectra._declared_eig(entries, KRONECKER, factor, n, spectra.RESIDUAL_TOL)
    places = _kron_fault_places(n)
    assert len(places) == 15 * (n - 1) + 9
    for i, j in places:
        faulty = entries.copy()
        faulty[i, j] += 1
        with pytest.raises(ResidualError, match="eigenpair residual"):
            spectra._declared_eig(faulty, KRONECKER, factor, n, spectra.RESIDUAL_TOL)


@pytest.mark.parametrize("make", [ncube_adjacency, tricube_laplacian, hamming_distance_matrix])
def test_walsh_certificate_finds_a_fault_at_every_doubling_level(make):
    # one +1 at one entry of rows [h, 2h) for every h, and one in row 0,
    # which every other row is compared with
    n = 6
    entries = make(n).entries
    spectra._declared_eig(entries, WALSH, None, n, spectra.RESIDUAL_TOL)
    rows = [0] + [h + (h - 1) // 2 for h in (1 << k for k in range(n))]
    for i in rows:
        faulty = entries.copy()
        faulty[i, (5 * i + 3) % 2**n] += 1
        with pytest.raises(ResidualError, match="eigenpair residual"):
            spectra._declared_eig(faulty, WALSH, None, n, spectra.RESIDUAL_TOL)


CERTIFIED = [
    (lambda: tricube_laplacian(7), WALSH, None),
    (lambda: regular_tricube_adjacency(6), WALSH, None),
    (lambda: pow_tricube_laplacian(4), KRONECKER, _PATH3_LAP),
    (lambda: pow_cube_adjacency(5), KRONECKER, _PATH3_ADJ),
]
CERTIFIED_IDS = ["walsh-tricube-7", "walsh-regtricube-6", "kron-powtri-4", "kron-powcube-5"]


@pytest.mark.parametrize("make,kind,factor", CERTIFIED, ids=CERTIFIED_IDS)
@pytest.mark.parametrize("where", ["row-0", "inner"])
def test_certificates_take_float_nudges_against_tol(make, kind, factor, where):
    # a symmetric nudge of delta moves ||M - S|| by delta (by 2 delta in
    # row 0 of a Walsh matrix, whose S moves with it): ten times tol * scale
    # fails, a hundredth of it passes, and the passing bound covers it
    M = make()
    entries, n = M.entries.astype(float), M.n
    i, j = (0, 3) if where == "row-0" else (M.N - 9, M.N - 2)
    limit = spectra.RESIDUAL_TOL * eig_sym(M).scale
    for delta, fails in ((10 * limit, True), (limit / 100, False)):
        nudged = entries.copy()
        nudged[i, j] += delta
        nudged[j, i] += delta
        solve = functools.partial(
            spectra._declared_eig, nudged, kind, factor, n, spectra.RESIDUAL_TOL
        )
        if fails:
            with pytest.raises(ResidualError, match="eigenpair residual"):
                solve()
        else:
            spec = solve()
            V = spec.vectors
            assert np.linalg.norm(nudged @ V - V * spec.values, axis=0).max() <= 2 * delta + 1e-12


@pytest.mark.parametrize("make,kind,factor", CERTIFIED, ids=CERTIFIED_IDS)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["row-0", "inner", "diagonal"])
def test_certificates_fail_non_finite_entries(make, kind, factor, value, where):
    # a GraphMatrix rejects NaN and inf when it is made, so they go into a
    # float64 copy, through the route eig_sym runs after validation
    M = make()
    entries = M.entries.astype(float)
    i, j = {"row-0": (0, 1), "inner": (M.N - 4, M.N - 1), "diagonal": (M.N - 2, M.N - 2)}[where]
    entries[i, j] = entries[j, i] = value
    with np.errstate(all="ignore"), pytest.raises(ResidualError, match="eigenpair residual"):
        spectra._declared_eig(entries, kind, factor, M.n, spectra.RESIDUAL_TOL)


@pytest.mark.parametrize("make", [
    lambda: tricube_laplacian(5), lambda: tricube_laplacian(5, "gray"),
    lambda: pow_cube_adjacency(4), lambda: pow_tricube_laplacian(3, "ternary-gray"),
], ids=["walsh", "walsh-gray", "kron", "kron-ternary-gray"])
def test_certified_routes_fail_a_tolerance_below_the_rounding(make):
    # the bound always carries the rounding term rho > 0, so no certificate
    # passes at tol = 1e-20, exact entries or not
    with pytest.raises(ResidualError, match="eigenpair residual"):
        eig_sym(make(), tol=1e-20)


SOUNDNESS_CASES = [
    (family, n, ordering)
    for family in ("ncube", "hamming", "tricube", "regtricube")
    for n in range(FAMILIES[family].min_n, 11)
    for ordering in ("binary", "gray", "custom")
] + [
    (family, n, ordering)
    for family in ("powcube", "powtri")
    for n in range(2, 8)
    for ordering in ("ternary", "ternary-gray")
]


@pytest.mark.parametrize("family,n,ordering", SOUNDNESS_CASES,
                         ids=[f"{f}-{n}-{o}" for f, n, o in SOUNDNESS_CASES])
def test_certificate_bound_dominates_the_measured_residual(monkeypatch, family, n, ordering):
    # the bound eig_sym gates on, against one dense GEMM on the returned
    # vectors in the input's own ordering
    bounds = []
    checked = spectra._checked

    def recording(spec, residual, *args):
        bounds.append(float(np.max(residual)))
        return checked(spec, residual, *args)

    monkeypatch.setattr(spectra, "_checked", recording)
    M = build(family, n, _seeded_permutation(n) if ordering == "custom" else ordering)
    spec = eig_sym(M)
    V = spec.vectors
    measured = np.linalg.norm(M.entries @ V - V * spec.values, axis=0)
    assert len(bounds) == 1 and measured.max() <= bounds[0]
    assert bounds[0] <= 1e-10 * spec.scale


@pytest.mark.parametrize("entries,n,structure", [
    (ncube_adjacency(2).entries, 3, Structure(WALSH)),
    (ncube_adjacency(2).entries, 2, Structure(WALSH, np.zeros((4, 2)))),
    (pow_hamming_matrix(2).entries, 2, Structure(LOW_RANK, np.zeros((9, 3)))),
    (pow_hamming_matrix(2).entries, 2, Structure(LOW_RANK)),
    (pow_hamming_matrix(2).entries, 2, Structure("fourier")),
    # a relabelling must be an integer bijection on range(N)
    (ncube_adjacency(2).entries, 2, Structure(WALSH, perm=np.array([0, 1, 1, 3]))),
    (ncube_adjacency(2).entries, 2, Structure(WALSH, perm=np.array([0, 1, 2]))),
    (ncube_adjacency(2).entries, 2, Structure(WALSH, perm=np.array([0, 1, 2, 4]))),
    (ncube_adjacency(2).entries, 2, Structure(WALSH, perm=np.arange(4.0))),
    (ncube_adjacency(2).entries, 2, Structure(WALSH, perm=[0, 1, 2, 3])),
    (pow_cube_adjacency(2).entries, 2, Structure(KRONECKER, _PATH3_ADJ, np.zeros(9, int))),
], ids=["walsh-N!=2^n", "walsh-with-data", "low-rank-shape", "low-rank-no-bits", "unknown",
        "perm-repeated-index", "perm-too-short", "perm-out-of-range", "perm-float",
        "perm-list", "kronecker-perm-constant"])
def test_graph_matrix_rejects_malformed_structure(entries, n, structure):
    with pytest.raises(ValueError, match="structure|Walsh|low-rank"):
        GraphMatrix("hamming", DISTANCE, n, "binary", entries, structure)


@pytest.mark.parametrize("make", [
    lambda: hamming_distance_matrix(10), lambda: pow_hamming_matrix(7),
], ids=["walsh-hamming-1024", "low-rank-powhamming-2187"])
def test_structured_routes_values_only_never_form_the_vectors(make):
    M = make()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        spec = eig_sym(M)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(spec.values) == M.N
    assert peak < 0.5 * 8 * M.N**2


@pytest.mark.parametrize("make,n", [(hamming_distance_matrix, 12), (pow_hamming_matrix, 7)])
def test_structured_reach_takes_no_large_eigh(monkeypatch, make, n):
    M = make(n)
    recorded = [_record_sizes(monkeypatch, name) for name in ("eigh", "eigvalsh")]
    spec = eig_sym(M)
    assert all(size <= n + 1 for sizes in recorded for size in sizes)
    # the distance matrices' spectra: Hamming n 2^(n-1), -2^(n-1) n times
    # and 0; powhamming two closed-form extremes, -4 3^(n-2) n - 1 times
    # and 0
    if make is hamming_distance_matrix:
        expected = np.concatenate(
            [[-(2.0 ** (n - 1))] * n, np.zeros(M.N - n - 1), [n * 2.0 ** (n - 1)]]
        )
        assert np.array_equal(spec.values, expected)
    else:
        s = math.sqrt(2 * (2 * n + 1) * (n + 2))
        lo, hi = (2 * (n - 1) - s) * 3 ** (n - 2), (2 * (n - 1) + s) * 3 ** (n - 2)
        expected = np.concatenate(
            [[lo], [-4.0 * 3 ** (n - 2)] * (n - 1), np.zeros(M.N - n - 1), [hi]]
        )
        assert np.abs(spec.values - expected).max() <= 1e-9 * spec.scale


@pytest.mark.parametrize("n", range(2, 11))
def test_ramanujan_split_matches_single_eigvalsh(monkeypatch, n):
    A = regular_tricube_adjacency(n)
    values = np.abs(np.linalg.eigvalsh(A.entries))
    dense = values[np.abs(values - n * (n + 1) // 2) > 1e-6].max()
    sizes = _record_sizes(monkeypatch, "eigvalsh")
    eigh_sizes = _record_sizes(monkeypatch, "eigh")
    split = ramanujan_check(A)
    # the binary ordering takes eig_sym's Walsh route, with no LAPACK solve
    assert sizes == eigh_sizes == []
    assert split.max_nontrivial == pytest.approx(dense, abs=1e-9)
    # and so does a custom ordering, a relabelling of it
    single = ramanujan_check(regular_tricube_adjacency(n, _seeded_permutation(n)))
    assert sizes == eigh_sizes == []
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
    clusters = cluster_eigenvalues([0.0, 1e-8, 1.0, 2.0, 2.0 + 5e-7])
    assert [m for _, m in clusters] == [2, 1, 2]


def greedy_clusters(values, tol):
    """Reference: one ascending pass, a value opening a cluster when it
    exceeds the cluster's first value by more than tol."""
    clusters, group = [], []
    for v in values:
        if group and v - group[0] > tol:
            clusters.append((float(np.mean(group)), len(group)))
            group = []
        group.append(float(v))
    if group:
        clusters.append((float(np.mean(group)), len(group)))
    return tuple(clusters)


@pytest.mark.parametrize("shift", [1e-6, 1e-9, 0.0, 0.5])
def test_cluster_eigenvalues_matches_the_greedy_pass(shift):
    # spreads near CLUSTER_TOL, and copies shifted by exactly CLUSTER_TOL,
    # put values on the boundary of the rule, where v - first and first +
    # CLUSTER_TOL round apart; `shift` moves every value, and so the rounding
    rng = np.random.default_rng(17)
    for _ in range(60):
        N = int(rng.integers(1, 100))
        base = rng.integers(-5, 6, N) * rng.choice([1.0, SQRT2, 0.1, 1e-6])
        spread = rng.choice([0.0, 1e-7, 5e-7, 1e-6, 2e-6, 1e-3])
        v = np.sort(base + rng.standard_normal(N) * spread) + shift
        for values in (v, np.sort(np.concatenate([v, v + CLUSTER_TOL, v + 2 * CLUSTER_TOL]))):
            assert cluster_eigenvalues(values) == greedy_clusters(values, CLUSTER_TOL)
    assert cluster_eigenvalues([]) == ()


def test_eig_sym_clusters_on_the_first_read_of_clusters(monkeypatch):
    calls = []

    def recording(values):
        calls.append(len(values))
        return cluster_eigenvalues(values)

    monkeypatch.setattr(spectra, "cluster_eigenvalues", recording)
    spec = eig_sym(tricube_laplacian(3))
    assert calls == []
    assert spec.clusters == spec.clusters == cluster_eigenvalues(spec.values)
    assert calls == [8]


def _lattice_counts_loop(values, unit, tol=CLUSTER_TOL):
    """The per-value reference: Python's round, in order of appearance;
    None when a value lies farther than tol from unit * Z."""
    counts = {}
    for v in values:
        k = round(v / unit)
        if abs(v - k * unit) > tol:
            return None
        counts[k] = counts.get(k, 0) + 1
    return counts


def _on_lattice(counts, unit):
    """{k: c} on unit * Z as the exact {k * unit: c} multiset."""
    return {k * unit: c for k, c in counts.items()}


def test_classify_lattice():
    values = eig_sym(pow_cube_adjacency(2)).values
    counts = {-2: 1, -1: 2, 0: 3, 1: 2, 2: 1}
    assert _lattice_counts_loop(values, SQRT2) == counts
    assert verify._deviation(values, _on_lattice(counts, SQRT2)).max() <= CLUSTER_TOL
    values = eig_sym(pow_tricube_laplacian(2)).values
    counts = {0: 1, 1: 2, 2: 1, 3: 2, 4: 2, 6: 1}
    assert _lattice_counts_loop(values, 1.0) == counts
    assert verify._deviation(values, counts).max() <= CLUSTER_TOL
    # 3n - 1 = 5 is no eigenvalue: a multiplicity moved onto it fails
    moved = {0: 1, 1: 2, 2: 1, 3: 2, 4: 1, 5: 1, 6: 1}
    assert verify._deviation(values, moved).max() > CLUSTER_TOL
    # +-sqrt(2) lie off the integer lattice
    values = eig_sym(pow_cube_adjacency(1)).values
    assert _lattice_counts_loop(values, 1.0) is None
    assert verify._deviation(values, {-1: 1, 0: 1, 1: 1}).max() > CLUSTER_TOL


@pytest.mark.parametrize("family,n", [
    (family, n) for family, row in cubegraphs.FAMILIES.items() for n in range(row.min_n, 6)
])
def test_classify_lattice_matches_per_value_loop(family, n):
    # rounding is monotone, so the ascending eigenvalues pair with the
    # ascending expansion of their rounded multiset value by value: the
    # deviation is each value's own distance to its lattice point, in
    # whatever order the multiset's keys were inserted
    values = eig_sym(cubegraphs.build(family, n)).values
    assert np.all(np.diff(values) >= 0)
    for unit in (1.0, 2.0, SQRT2):
        rounded = Counter(round(v / unit) for v in values[::-1])
        dev = verify._deviation(values, _on_lattice(rounded, unit))
        assert dev.tolist() == [abs(v - round(v / unit) * unit) for v in values]
        counts = _lattice_counts_loop(values, unit)
        assert (counts is None) == bool(dev.max() > CLUSTER_TOL)
        assert counts is None or counts == rounded


@pytest.mark.parametrize("values,tol,expected", [
    ([0.5, 1.5, 2.5, 3.0], 0.5, {0: 1, 2: 2, 3: 1}),  # ties go to the even neighbour
    ([1.0, 2.0 + 0.999e-6], 1e-6, {1: 1, 2: 1}),
    ([1.0, 2.0 + 1.001e-6], 1e-6, None),  # just past tol
], ids=["ties-to-even", "inside-tol", "past-tol"])
def test_classify_lattice_edge_values(values, tol, expected):
    assert _lattice_counts_loop(values, 1.0, tol) == expected
    rounded = Counter(round(v) for v in values[::-1])
    dev = verify._deviation(np.array(values), rounded)
    assert bool(dev.max() <= tol) == (expected is not None)


@pytest.mark.parametrize("n", range(2, 9))
def test_tricube_classifies_on_even_lattice(n):
    values = eig_sym(tricube_laplacian(n)).values
    assert _lattice_counts_loop(values, 2.0) == {k: math.comb(n, k) for k in range(n + 1)}
    binomial = {2 * k: math.comb(n, k) for k in range(n + 1)}
    assert verify._deviation(values, binomial).max() <= CLUSTER_TOL


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
    minus, plus = spectra._centro_blocks(tricube_laplacian(2, "gray").entries)
    assert np.allclose(np.linalg.eigvalsh(minus), [2, 4], atol=1e-12)
    assert np.allclose(np.linalg.eigvalsh(plus), [0, 2], atol=1e-12)


def test_centro_blocks_odd_dimension():
    minus, plus = spectra._centro_blocks(pow_tricube_laplacian(1).entries)
    assert np.allclose(np.linalg.eigvalsh(minus), [1.0], atol=1e-12)
    assert np.allclose(np.linalg.eigvalsh(plus), [0.0, 3.0], atol=1e-12)


@pytest.mark.parametrize("make,n", [(tricube_laplacian, 4), (pow_tricube_laplacian, 3)])
def test_centro_blocks_preserve_spectrum(make, n):
    M = make(n)
    minus, plus = spectra._centro_blocks(M.entries)
    combined = np.sort(np.concatenate([np.linalg.eigvalsh(minus), np.linalg.eigvalsh(plus)]))
    assert np.allclose(combined, np.linalg.eigvalsh(M.entries), atol=1e-9)
    assert plus.shape[0] == (M.N + 1) // 2
    assert minus.shape[0] == M.N // 2
    # the blocks are float64 and exact: the int8 sums of M's entries would
    # be the same numbers, as the float64 copy's blocks are
    for block, copy in zip((minus, plus), spectra._centro_blocks(M.entries.astype(float))):
        assert block.dtype == np.float64 and np.array_equal(block, copy)


def test_int8_centro_does_not_wrap():
    # 100 - (-100) wraps to -56 in int8 arithmetic, and -100 + (-100) to 56;
    # both are taken in float64, as for the float64 copy
    M = np.array([[1, -100], [100, 1]], dtype=np.int8)
    assert centro_deviation(M) == centro_deviation(M.astype(float)) == 200.0
    B = np.array([[-100, 0, -100], [0, 1, 0], [-100, 0, -100]], dtype=np.int8)
    for block, copy in zip(spectra._centro_blocks(B), spectra._centro_blocks(B.astype(float))):
        assert np.array_equal(block, copy)
    assert spectra._centro_blocks(B)[1][1, 1] == -200.0


def _dense_k(N):
    """K = [[I, -J], [I, J]] / sqrt(2), with a sqrt(2) centre row for odd N."""
    m = N // 2
    J = np.fliplr(np.eye(m))
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
    minus, plus = spectra._centro_blocks(M)
    # each off-diagonal entry of K M K^T is half the sum of two entries of
    # M - J M J (the centre row and column at most 1/sqrt(2) of one), so
    # the deviation that the split accepts bounds them
    dense_offdiag = max(np.abs(O[:m, m:]).max(), np.abs(O[m:, :m]).max())
    assert 1e-11 <= dense_offdiag <= centro_deviation(M) <= cubegraphs.STRUCTURE_TOL
    assert np.abs(minus - O[:m, :m]).max() <= 1e-10
    assert np.abs(plus - O[m:, m:]).max() <= 1e-10


def test_ramanujan_results():
    assert ramanujan_check(regular_tricube_adjacency(5)).is_ramanujan
    assert not ramanujan_check(regular_tricube_adjacency(6)).is_ramanujan
    result = ramanujan_check(ncube_adjacency(4))
    assert result.max_nontrivial == pytest.approx(2.0, abs=1e-9)
    assert result.degree == 4
    with pytest.raises(ValueError):
        ramanujan_check(_PATH3_ADJ)


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


def test_asymmetric_input_is_rejected():
    # a directed 3-cycle: its lower triangle alone looks like a Ramanujan graph,
    # and its "Laplacian" agrees with the identity and gets a pseudoinverse
    # and a Dirichlet energy
    cycle = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    L = np.eye(3) - cycle
    with pytest.raises(ValueError, match="not symmetric"):
        ramanujan_check(cycle)
    with pytest.raises(ValueError, match="not symmetric"):
        eig_identity_check(L, np.eye(3)[:, :2])
    with pytest.raises(ValueError, match="not symmetric"):
        pseudoinverse(L)
    with pytest.raises(ValueError, match="not symmetric"):
        dirichlet_energy(L, [1.0, 0.0, -1.0])


@pytest.mark.parametrize("M", [np.arange(3.0), np.zeros((2, 3))], ids=["1-d", "2x3"])
def test_raw_arrays_must_be_square_and_2d(M):
    for call in (eig_sym, pseudoinverse, ramanujan_check, lambda A: dirichlet_energy(A, np.zeros(3))):
        with pytest.raises(ValueError, match="square"):
            call(M)


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
