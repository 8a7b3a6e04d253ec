import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubelab import cubegraphs
from cubelab.bitspace import (
    BINARY_SCHEMES,
    TERNARY_SCHEMES,
    binary_ordering,
    bits_of,
    enumerate_addresses,
    hamming,
    ternary_ordering,
    ternary_vertex,
)
from cubelab.cubegraphs import (
    ADJACENCY,
    DISTANCE,
    FAMILIES,
    KRONECKER,
    LAPLACIAN,
    LOW_RANK,
    WALSH,
    GraphMatrix,
    _PATH3_ADJ,
    _PATH3_LAP,
    _ternary_product,
    asymmetry,
    build,
    eulerian_circuit,
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
from negation import negated


def brute_distance_matrix(n, ordering):
    """Oracle: direct Hamming loop over the ordered address list; the
    ordering is a scheme tag or an explicit permutation of the vertices."""
    if isinstance(ordering, str):
        addrs = enumerate_addresses(n, ordering)
    else:
        addrs = [bits_of(v, n) for v in ordering]
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
    expected = kron_ternary_product(factor, n)
    assert np.array_equal(_ternary_product(factor, n), expected)
    # with the vertices at the positions of a seeded permutation
    perm = np.random.default_rng(n).permutation(3**n)
    assert np.array_equal(_ternary_product(factor, n, perm), expected[np.ix_(perm, perm)])


def test_graph_matrix_symmetry_bound_is_absolute():
    # construction is the only symmetry test a GraphMatrix gets, with the
    # 1e-10 absolute bound that `spectra` applies to raw arrays; 1e-9 once
    # passed it (np.allclose, rtol 1e-5); the faults go into float64 copies
    # of the int8 entries, and their integer twins into the int8 entries
    D = hamming_distance_matrix(2).entries.astype(float)
    D[0, 1] += 5e-11
    GraphMatrix("hamming", DISTANCE, 2, "binary", D.copy())
    D[0, 1] += 1e-9
    with pytest.raises(ValueError, match="symmetric"):
        GraphMatrix("hamming", DISTANCE, 2, "binary", D)
    D = hamming_distance_matrix(2).entries.copy()
    D[0, 1] += 1
    with pytest.raises(ValueError, match="symmetric"):
        GraphMatrix("hamming", DISTANCE, 2, "binary", D)
    L = tricube_laplacian(2).entries.astype(float)
    L[0, 1] = L[1, 0] = np.nan
    with pytest.raises(ValueError, match="symmetric"):
        GraphMatrix("tricube", LAPLACIAN, 2, "binary", L)
    L = tricube_laplacian(2).entries.copy()
    L[0, 1] += 1
    L[1, 0] += 1
    with pytest.raises(ValueError, match="zero row sums"):
        GraphMatrix("tricube", LAPLACIAN, 2, "binary", L)


@pytest.mark.parametrize("kind, entries, deviation", [
    (LAPLACIAN, [[-100, 100], [-28, 28]], 128.0),
    (DISTANCE, [[0, 127], [-128, 0]], 255.0),
], ids=["difference-wraps-to-minus-128", "difference-wraps-to-minus-1"])
def test_int8_asymmetry_does_not_wrap(kind, entries, deviation):
    # in int8 arithmetic 100 - (-28) wraps to -128, whose magnitude wraps
    # too, and 127 - (-128) to -1; the deviation is taken in float64, as
    # for the float64 copy, so the first matrix is refused although its
    # row sums are zero
    entries = np.array(entries, dtype=np.int8)
    assert asymmetry(entries) == asymmetry(entries.astype(float)) == deviation
    with pytest.raises(ValueError, match="symmetric"):
        GraphMatrix("x", kind, 1, "custom", entries)


def full_asymmetry(entries):
    """Reference: the whole |M - M^T| at once, inf on NaN."""
    deviation = float(np.abs(entries - entries.T).max())
    return math.inf if math.isnan(deviation) else deviation


@pytest.mark.parametrize("N, edits", [
    (300, []),
    (300, [((299, 260), 0.5)]),
    (256, [((127, 128), 1e-3)]),
    (256, [((128, 127), -2.0), ((5, 200), 1e-12)]),
    (300, [((3, 290), np.nan)]),
    (130, [((129, 129), np.nan)]),
], ids=["symmetric-N=300", "last-slab", "straddles-127-128", "two-slabs", "nan", "nan-diagonal"])
def test_asymmetry_matches_full_deviation(N, edits):
    # 128-row slabs: N = 300 ends in a partial one, N = 256 in a full one
    A = np.random.default_rng(N).standard_normal((N, N))
    M = A + A.T
    for (j, k), delta in edits:
        M[j, k] += delta
    assert asymmetry(M) == full_asymmetry(M)
    assert (asymmetry(M) == 0.0) == (edits == [])


def _tile(entries, r, s):
    """Tile (r, s) of the 81 x 81 grid, as a view."""
    return entries[81 * r : 81 * (r + 1), 81 * s : 81 * (s + 1)]


def _tile_pair(entries, test):
    """(r, s), r < s, of the first tile above the diagonal that passes test."""
    count = entries.shape[0] // 81
    return next(
        (r, s) for r in range(count) for s in range(r + 1, count) if test(_tile(entries, r, s))
    )


def _set_tile_pair(entries, test, tile):
    """The first tile above the diagonal that passes test, and its partner,
    set to tile and its transpose."""
    r, s = _tile_pair(entries, test)
    _tile(entries, r, s)[...] = tile
    _tile(entries, s, r)[...] = tile.T
    return entries


def _is_zero(tile):
    return not tile.any()


def _is_scaled(c):
    return lambda tile: np.array_equal(tile, c * np.eye(81))


def _stray_in_zero_tile(n):
    A = pow_cube_adjacency(n).entries.copy()
    r, s = _tile_pair(A, _is_zero)
    _tile(A, r, s)[3, 5] = 1.0
    return ADJACENCY, A


def _partner_scales_differ(n):
    L = pow_tricube_laplacian(n).entries.copy()
    r, s = _tile_pair(L, _is_scaled(-1.0))
    _tile(L, r, s)[...] = -2.0 * np.eye(81)
    return LAPLACIAN, L


def _asymmetric_general_tile(delta):
    # a delta that int8 cannot hold goes into a float64 copy
    def make(n):
        L = pow_tricube_laplacian(n).entries.astype(np.result_type(np.int8, delta))
        L[0, 1] += delta  # tile (0, 0) is general
        return LAPLACIAN, L
    return make


def _scaled_tiles_set_to(make, kind, c, new):
    return lambda n: (
        kind, _set_tile_pair(make(n).entries.astype(new.dtype), _is_scaled(c), new)
    )


def _pair_set_to(make, kind, test, j, k, value):
    """Entry (j, k) of the first tile that passes test, and its partner, set
    to value; a NaN goes into a float64 copy."""
    def pair_set_to(n):
        M = make(n).entries.astype(np.result_type(np.int8, value))
        r, s = _tile_pair(M, test)
        _tile(M, r, s)[j, k] = _tile(M, s, r)[k, j] = value
        return kind, M
    return pair_set_to


@pytest.mark.parametrize("n", [6, 7], ids=["N=729", "N=2187"])
@pytest.mark.parametrize("make,message", [
    (_stray_in_zero_tile, "symmetric"),
    (_partner_scales_differ, "symmetric"),
    (_asymmetric_general_tile(1e-6), "symmetric"),
    (_scaled_tiles_set_to(pow_cube_adjacency, ADJACENCY, 1.0, 2 * np.eye(81, dtype=np.int8)),
     "hollow 0/1"),
    # powcube's entries are hollow and nonnegative, so a valid distance matrix
    (_scaled_tiles_set_to(pow_cube_adjacency, DISTANCE, 1.0, -np.eye(81, dtype=np.int8)),
     "nonnegative"),
    (_scaled_tiles_set_to(pow_tricube_laplacian, LAPLACIAN, -1.0, -(1 + 1e-8) * np.eye(81)),
     "zero row sums"),
    (_pair_set_to(pow_cube_adjacency, ADJACENCY, _is_zero, 3, 5, np.nan), "symmetric"),
    (_pair_set_to(pow_tricube_laplacian, LAPLACIAN, _is_scaled(-1.0), 7, 7, np.nan),
     "symmetric"),
    # the integer twins of the non-integer faults above, in the int8 entries
    (_asymmetric_general_tile(1), "symmetric"),
    (_scaled_tiles_set_to(pow_tricube_laplacian, LAPLACIAN, -1.0, -2 * np.eye(81, dtype=np.int8)),
     "zero row sums"),
    (_pair_set_to(pow_cube_adjacency, ADJACENCY, _is_zero, 3, 5, 2), "hollow 0/1"),
    (_pair_set_to(pow_tricube_laplacian, LAPLACIAN, _is_scaled(-1.0), 7, 7, 0), "zero row sums"),
], ids=[
    "stray-entry-in-zero-tile", "partner-scaled-tiles-differ", "general-tile-asymmetric-1e-6",
    "2I-tile-in-adjacency", "negative-scaled-tile-in-distance",
    "row-sum-error-in-scaled-tile", "nan-in-zero-tile", "nan-on-scaled-diagonal",
    "general-tile-asymmetric-1", "row-sum-error-1-in-scaled-tile", "2-in-zero-tile",
    "0-on-scaled-diagonal",
])
def test_tiled_validation_rejects_one_wrong_place(make, message, n):
    kind, entries = make(n)
    with pytest.raises(ValueError, match=message):
        GraphMatrix("test", kind, n, "ternary", entries)


@pytest.mark.parametrize("n", [6, 7], ids=["N=729", "N=2187"])
@pytest.mark.parametrize("make", [
    _asymmetric_general_tile(1e-12),
    lambda n: (DISTANCE, pow_cube_adjacency(n).entries.copy()),
], ids=["general-tile-asymmetric-1e-12", "powcube-as-distance"])
def test_tiled_validation_accepts(make, n):
    kind, entries = make(n)
    GraphMatrix("test", kind, n, "ternary", entries)


def brute_census(entries):
    """Reference: each 81 x 81 tile compared whole with c I (c its first
    entry, nonzero) and with zero."""
    count = entries.shape[0] // 81
    scales, general = np.zeros((count, count)), np.zeros((count, count), dtype=bool)
    for r in range(count):
        for s in range(count):
            tile = _tile(entries, r, s)
            c = tile[0, 0]
            if c != 0 and np.array_equal(tile, np.diag(np.full(81, c))):
                scales[r, s] = c
            elif np.count_nonzero(tile):
                general[r, s] = True
    return scales, general


def _shift_and_inf_tiles():
    """2 I_810 with a cyclic shift in tile (0, 1) and its transpose in
    (1, 0) (81 nonzeros, none on the tile diagonal), inf I tiles at (2, 3)
    and (3, 2), and one NaN on the diagonal of tile (4, 4)."""
    M = 2.0 * np.eye(810)
    shift = np.roll(np.eye(81), 1, axis=1)
    _tile(M, 0, 1)[...], _tile(M, 1, 0)[...] = shift, shift.T
    _tile(M, 2, 3)[...] = _tile(M, 3, 2)[...] = np.diag(np.full(81, np.inf))
    _tile(M, 4, 4)[5, 5] = np.nan
    return M


@pytest.mark.parametrize("make", [
    lambda: pow_cube_adjacency(6),
    lambda: pow_cube_adjacency(6, "ternary-gray"),
    lambda: pow_tricube_laplacian(7),
    lambda: negated(pow_tricube_laplacian(6)),
    lambda: pow_hamming_matrix(6),
    _shift_and_inf_tiles,
], ids=["powcube-729", "powcube-729-gray", "powtri-2187", "powtri-729-oln", "powhamming-729",
        "shift-and-inf-tiles-810"])
def test_census_matches_brute_force_classification(make):
    M = make()
    entries = M.entries if isinstance(M, GraphMatrix) else M
    census = cubegraphs._tile_census(entries)
    scales, general = brute_census(entries)
    assert np.array_equal(census.scales, scales) and np.array_equal(census.general, general)
    covered = np.zeros_like(general)
    for r, row_runs in enumerate(census.runs):
        for start, stop in row_runs:
            assert not covered[r, start // 81 : stop // 81].any()
            covered[r, start // 81 : stop // 81] = True
    assert np.array_equal(covered, general)


def _recorded_censuses(monkeypatch):
    """(entries read, census returned) for every `_tile_census` call from
    now on."""
    calls = []
    census = cubegraphs._tile_census

    def recording(entries):
        calls.append((entries, census(entries)))
        return calls[-1][1]

    monkeypatch.setattr(cubegraphs, "_tile_census", recording)
    return calls


def test_census_is_kept_only_for_entries_that_own_their_memory(monkeypatch):
    # a view is copied before validation, so the census reads the copy, and
    # writes to the view's base after construction change neither the
    # entries nor what the census read; the NaN goes into a float64 base,
    # its integer twin into an int8 one.  The matrix keeps no census.
    entries = pow_cube_adjacency(6).entries.copy()
    calls = _recorded_censuses(monkeypatch)
    M = GraphMatrix("powcube", ADJACENCY, 6, "ternary", entries)
    assert [(e is entries, c is not None) for e, c in calls] == [(True, True)]
    assert not hasattr(M, "_census")
    for dtype, value in ((np.float64, np.nan), (np.int8, 2)):
        base = pow_cube_adjacency(6).entries.astype(dtype)
        calls.clear()
        M = GraphMatrix("powcube", ADJACENCY, 6, "ternary", base.view())
        assert [(e is M.entries, c is not None) for e, c in calls] == [(True, True)]
        assert M.entries.flags.owndata
        base[0, 1] = base[1, 0] = value
        assert np.array_equal(M.entries, pow_cube_adjacency(6).entries)
    assert cubegraphs._tile_census(pow_cube_adjacency(5).entries) is None


@pytest.mark.parametrize("family,n,ordering", [
    ("powcube", 7, "ternary"), ("powtri", 7, "ternary"), ("powcube", 6, "ternary-gray"),
    ("powhamming", 6, "ternary"), ("powhamming", 6, "ternary-gray"),
])
def test_tileable_build_never_reads_the_whole_transpose(monkeypatch, family, n, ordering):
    calls = []

    def recording(entries):
        calls.append(entries.shape)
        return asymmetry(entries)

    monkeypatch.setattr(cubegraphs, "asymmetry", recording)
    censuses = _recorded_censuses(monkeypatch)
    M = build(family, n, ordering)
    assert [(e is M.entries, c is not None) for e, c in censuses] == [(True, True)]
    # only the 3 x 3 factor of a Kronecker declaration is tested for symmetry
    assert set(calls) <= {(3, 3)}


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


def binary_oracle(family, n, ordering):
    D = brute_distance_matrix(n, ordering)
    A = (D == 1).astype(float)
    if family == "ncube":
        return A
    if family == "hamming":
        return D
    if family == "tricube":
        return n * np.eye(2**n) - A
    return ((D == 1) | (D == 2)).astype(float)


def ternary_oracle(family, n, ordering):
    if family == "powcube":
        M = brute_pow_adjacency(n)
    elif family == "powtri":
        M = kron_ternary_product(_PATH3_LAP, n)
    else:
        addrs = [ternary_vertex(n, m).address for m in range(3**n)]
        M = np.array([[hamming(a, b) for b in addrs] for a in addrs], dtype=float)
    perm = ternary_ordering(n, ordering)
    return M[np.ix_(perm, perm)]


@settings(deadline=None)
@given(st.data())
def test_build_matches_oracles(data):
    family = data.draw(st.sampled_from(sorted(FAMILIES)))
    row = FAMILIES[family]
    if row.base == 2:
        n = data.draw(st.integers(row.min_n, 6))
        ordering = data.draw(st.sampled_from(["binary", "gray"]) | st.permutations(range(2**n)))
        expected = binary_oracle(family, n, ordering)
    else:
        n = data.draw(st.integers(row.min_n, 4))
        ordering = data.draw(st.sampled_from(["ternary", "ternary-gray"]))
        expected = ternary_oracle(family, n, ordering)
    gm = build(family, n, ordering)
    assert (gm.family, gm.n) == (family, n)
    assert gm.ordering == (ordering if isinstance(ordering, str) else "custom")
    assert gm.entries.dtype == np.int8 and gm.entries.flags.c_contiguous
    assert np.array_equal(gm.entries, expected)
    built = [gm]
    if row.kind == LAPLACIAN:
        # -L keeps the declared structure, negated; bytes, not values: the
        # zeros of the float64 -L are -0.0 and the constructor must keep them so
        built.append(negated(gm))
        assert built[1].entries.tobytes() == (-gm.entries.astype(float)).tobytes()
    # every ordering declares its family's structure
    if row.factor is not None:
        declared = KRONECKER if n >= 2 else None
    elif row.base == 3:
        declared = LOW_RANK if n >= 3 else None
    else:
        declared = WALSH
    vertices = (ternary_ordering if row.base == 3 else binary_ordering)(n, ordering)
    # the factor and Walsh rows carry a permuted ordering as the relabelling
    # `perm` of the natural one; the low-rank bits are given per position
    relabelled = declared in (KRONECKER, WALSH) and vertices != sorted(vertices)
    for m in built:
        assert (m.structure and m.structure.kind) == declared
        natural = m.entries
        if relabelled:
            assert m.structure.perm.tolist() == vertices
            inv = np.argsort(vertices)
            natural = m.entries[np.ix_(inv, inv)]
        elif declared is not None:
            assert m.structure.perm is None
        if declared == KRONECKER:
            assert np.array_equal(kron_ternary_product(m.structure.data, n), natural)
        elif declared == WALSH:  # entry (i, j) is entry (0, 2^popcount(i ^ j) - 1)
            i = np.arange(2**n)
            weight = np.bitwise_count(i[:, None] ^ i).astype(int)
            assert np.array_equal(natural, natural[0, (1 << weight) - 1])
        elif declared == LOW_RANK:
            addresses = [ternary_vertex(n, v).address for v in vertices]
            assert np.array_equal(m.structure.data, addresses)


PROFILE_FILLS = [
    (family, n, ordering)
    for family, row in FAMILIES.items() if row.profile is not None
    for n in range(row.min_n, 11 if row.base == 2 else 8)
    for ordering in (("binary", "gray", "custom") if row.base == 2 else ("ternary", "ternary-gray"))
]


@pytest.mark.parametrize("family,n,ordering", PROFILE_FILLS,
                         ids=[f"{f}-{n}-{o}" for f, n, o in PROFILE_FILLS])
def test_profile_fill_matches_bitwise_count_reference(family, n, ordering):
    # the XOR doubling of the natural binary order, the row-block gathers of
    # a relabelled 2^n order and the address gathers of the 3^n circulant,
    # against g_n(popcount(a_i ^ a_j)) for every entry at once
    row = FAMILIES[family]
    if ordering == "custom":
        ordering = np.random.default_rng(n).permutation(2**n).tolist()
    if row.base == 2:
        addresses = np.array(binary_ordering(n, ordering))
    else:
        addresses = np.array([
            sum(bit << k for k, bit in enumerate(ternary_vertex(n, m).address))
            for m in ternary_ordering(n, ordering)
        ])
    table = np.asarray(row.profile(np.arange(n + 1), n)).astype(np.int8)
    expected = table[np.bitwise_count(addresses[:, None] ^ addresses)]
    M = build(family, n, ordering)
    assert M.entries.dtype == np.int8 and np.array_equal(M.entries, expected)


def _traced_peak(call):
    """call()'s result and the peak bytes that tracemalloc saw it allocate
    above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("family,n,ordering", [
    ("hamming", 12, "binary"), ("regtricube", 12, "binary"), ("ncube", 12, "gray"),
    ("powhamming", 7, "ternary"), ("powtri", 7, "ternary"),
    ("powtri", 7, "ternary-gray"), ("powcube", 7, "ternary-gray"),
])
def test_build_peak_allocation_is_at_most_twice_the_entries(family, n, ordering):
    # profile rows are filled one block of rows at a time, factor rows
    # straight into their permuted positions, and the entry rules read slabs
    # of rows, so no N x N temporary is made; the N x N XOR table, its
    # popcount and the 0/1 test's three N x N masks once took the peak to
    # 3-4 times the int8 entries, and gathering a permuted factor row from
    # the natural one to 2
    build(family, 3, ordering)
    M, peak = _traced_peak(lambda: build(family, n, ordering))
    assert M.entries.dtype == np.int8
    assert peak <= 2 * M.entries.nbytes


def _built_past_guard(*args):
    raise AssertionError("built past the order guard")


@pytest.mark.parametrize("family,n", [("ncube", 14), ("powcube", 9), ("powhamming", 9)])
def test_build_order_guard(family, n, monkeypatch):
    # every ordering and array builder fails the test instead of allocating
    stubs = {2: ("binary", _built_past_guard), 3: ("ternary", _built_past_guard)}
    monkeypatch.setattr(cubegraphs, "_ORDERINGS", stubs)
    monkeypatch.setattr(cubegraphs, "_ternary_product", _built_past_guard)
    with pytest.raises(ValueError, match="dense float64 entries exceed 1024 MiB"):
        build(family, n)
    # the largest orders still pass the guard (and stop at the stub)
    with pytest.raises(AssertionError, match="past the order guard"):
        build(family, n - 1)


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


@pytest.mark.parametrize("n", range(2, 9))
def test_euler_neighbor_lists_match_the_dense_adjacency(n):
    adj = regular_tricube_adjacency(n).entries
    masks, order = cubegraphs._regtricube_masks(n)
    neighbors = np.arange(2**n)[:, None] ^ masks[order]
    assert neighbors.tolist() == [np.flatnonzero(row).tolist() for row in adj]


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


def per_entry_csv_rows(entries):
    """Reference: every entry through repr(float(x)), one at a time."""
    return "".join(",".join(repr(float(x)) for x in row) + "\n" for row in entries)


CSV_MATRICES = {
    f"{family}-{n}-{ordering}": build(family, n, ordering)
    for family, row in FAMILIES.items()
    for n in range(row.min_n, 5)
    for ordering in (BINARY_SCHEMES if row.base == 2 else TERNARY_SCHEMES)
}
CSV_MATRICES["hamming-3-custom"] = build("hamming", 3, [5, 0, 7, 2, 1, 6, 3, 4])
CSV_MATRICES["tricube-4-binary-oln"] = negated(tricube_laplacian(4))
_mixed = tricube_laplacian(2).entries.astype(float)
_mixed[0, 3] = _mixed[3, 0] = -0.0  # beside the 0.0 entries: must print as -0.0
CSV_MATRICES["tricube-2-mixed-zeros"] = GraphMatrix("tricube", LAPLACIAN, 2, "binary", _mixed)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("scheme", [0, 1], ids=["default-ordering", "gray-ordering"])
def test_export_bytes_match_the_float64_copy(tmp_path, family, scheme):
    # the int8 entries write the bytes that their float64 copy writes: CSV
    # and JSON both print 2.0, not 2
    row = FAMILIES[family]
    ordering = (BINARY_SCHEMES if row.base == 2 else TERNARY_SCHEMES)[scheme]
    gm = build(family, 3, ordering)
    copy = GraphMatrix(
        gm.family, gm.kind, gm.n, gm.ordering, gm.entries.astype(float), gm.structure
    )
    assert gm.entries.dtype == np.int8
    for write in (matrix_to_csv, matrix_to_json):
        write(gm, tmp_path / "int8")
        write(copy, tmp_path / "float64")
        assert (tmp_path / "int8").read_bytes() == (tmp_path / "float64").read_bytes()


def test_matrix_to_csv_forms_no_float64_copy(tmp_path):
    # the value table is keyed on the int8 bits themselves: the sorted copy
    # and its run mask take 2 N^2 bytes, a float64 copy would take 8 N^2
    gm = hamming_distance_matrix(9)
    _, peak = _traced_peak(lambda: matrix_to_csv(gm, tmp_path / "m.csv"))
    assert peak <= 4 * gm.entries.nbytes


@pytest.mark.parametrize("name", CSV_MATRICES)
def test_matrix_to_csv_matches_per_entry_repr(tmp_path, name):
    gm = CSV_MATRICES[name]
    path = tmp_path / "m.csv"
    matrix_to_csv(gm, path)
    header = f"family,kind,n,ordering,N\n{gm.family},{gm.kind},{gm.n},{gm.ordering},{gm.N}\n"
    assert path.read_text() == header + per_entry_csv_rows(gm.entries)


def test_constructor_preconditions():
    with pytest.raises(ValueError):
        ncube_adjacency(0)
    with pytest.raises(ValueError):
        regular_tricube_adjacency(1)
    with pytest.raises(ValueError):
        pow_cube_adjacency(2, "binary")
    with pytest.raises(ValueError, match="unknown family"):
        build("cube", 3)
