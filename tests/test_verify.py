import dataclasses
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cubelab import cubegraphs, harmonic, meshcotan, spectra, verify
from cubelab.bitspace import TERNARY
from cubelab.cli import main
from cubelab.cubegraphs import STRUCTURE_TOL, regular_tricube_adjacency
from cubelab.predicates import n_related, n_shared
from cubelab.spectra import Spectrum, centro_deviation, eig_sym, ramanujan_check
from cubelab.verify import CLAIMS, run_verification


def test_unknown_claim_rejected():
    with pytest.raises(ValueError):
        run_verification(claims=["theorem0"])


def test_repeated_claim_ids_run_once():
    repeated = run_verification(claims=["theorem4", "euler", "theorem4"], n_range=range(2, 4))
    once = run_verification(claims=["theorem4", "euler"], n_range=range(2, 4))
    assert repeated.entries == once.entries
    with pytest.raises(ValueError):
        run_verification(claims=["theorem4", "theorem0", "theorem4"])


def test_entries_unique_and_statuses_legal():
    report = run_verification(claims=["theorem2", "theorem3", "theorem4", "euler"])
    keys = [(e["claim"], e["n"]) for e in report.entries]
    assert len(keys) == len(set(keys))
    assert all(e["status"] in ("pass", "fail", "discrepancy-noted") for e in report.entries)


def test_n_range_restriction():
    report = run_verification(claims=["theorem2"], n_range=range(3, 5))
    assert [e["n"] for e in report.entries] == [3, 4]
    # out-of-domain requests are dropped rather than widened
    report = run_verification(claims=["theorem1"], n_range=range(1, 4))
    assert [e["n"] for e in report.entries] == [3]


def test_n_range_repeats_no_n():
    report = run_verification(["theorem2"], [3, 3, 4])
    assert [e["n"] for e in report.entries] == [3, 4]


class _MembershipOnly:
    """A selection that answers `n in` it but cannot be walked."""

    def __contains__(self, n):
        return n in (3, 4)

    def __iter__(self):
        raise AssertionError("the selection was walked")


def test_n_range_is_asked_membership_only():
    report = run_verification(["theorem2", "theorem4", "euler"], _MembershipOnly())
    assert [(e["claim"], e["n"]) for e in report.entries] == [
        ("theorem2", 3), ("theorem2", 4), ("theorem4", None), ("euler", 3), ("euler", 4),
    ]


def test_report_json_round_trip(tmp_path):
    report = run_verification(claims=["theorem4", "poisson"])
    path = tmp_path / "report.json"
    report.write(path)
    payload = json.loads(path.read_text())
    assert payload["summary"] == report.summary()
    assert payload["summary"]["fail"] == 0
    assert report.ok


def test_every_claim_id_has_a_check():
    assert all(callable(check) for check, _ in CLAIMS.values())
    report = run_verification(
        claims=["theorem5", "theorem6", "theorem7"], n_range=range(1, 3)
    )
    assert {e["claim"] for e in report.entries} == {"theorem5", "theorem6", "theorem7"}
    assert report.ok


def test_caf_checks_every_fixed_subset(monkeypatch):
    # one census count off at n = 3, rank 4, for the fixed subset {1, 2},
    # which is not the prefix {0, 1} of its size: every fixed subset is
    # compared with the formulas, not one per size
    census = verify._caf_census
    for counts in (1, 2):  # the related, then the shared counts

        def one_off(n):
            taken = census(n)
            if n == 3:
                taken[counts][0b110 - 1, 3] += 1
            return taken

        monkeypatch.setattr(verify, "_caf_census", one_off)
        [entry] = run_verification(claims=["caf"]).entries
        assert entry["status"] == "fail"


@pytest.mark.parametrize("name, formula", [("n_related", n_related), ("n_shared", n_shared)])
def test_caf_census_catches_one_wrong_count(monkeypatch, name, formula):
    def off_by_one_at_3_4_2(n, r, p):
        return formula(n, r, p) + ((n, r, p) == (3, 4, 2))

    monkeypatch.setattr(verify, name, off_by_one_at_3_4_2)
    [entry] = run_verification(claims=["caf"]).entries
    assert entry["status"] == "fail"


@pytest.mark.parametrize("n", range(1, 7))
def test_powtri_oracle_is_the_enumeration_of_0_1_3(n):
    # every sum over {0,1,3}^n, split by the parity of its count of 1-digits
    plus, minus = Counter(), Counter()
    for digits in itertools.product((0, 1, 3), repeat=n):
        (minus if digits.count(1) % 2 else plus)[sum(digits)] += 1
    assert verify._powtri_parity_spectra(n) == (plus, minus)


def test_properties_d_fails_on_a_shortcut_distance(monkeypatch):
    # binary n = 4: d(0, 3) = 2 cut to 1, with its transpose and its mirror
    # under J, so that the matrix stays symmetric, hollow, centrosymmetric
    # and keeps its counterdiagonal; only the triangle inequality sees it,
    # d(0, 7) = 3 > d(0, 3) + d(3, 7) = 2
    build = verify.hamming_distance_matrix

    def shortcut(n, ordering):
        D = build(n, ordering).entries.copy()
        if ordering == "binary":
            for i, j in ((0, 3), (15, 12)):
                D[i, j] = D[j, i] = 1
        return SimpleNamespace(entries=D)

    monkeypatch.setattr(verify, "hamming_distance_matrix", shortcut)
    [entry] = run_verification(["properties-D"], [4]).entries
    assert entry["status"] == "fail" and entry["max_abs_err"] == 1.0


def test_theorem3_n3_noted_only_for_lambda2(monkeypatch):
    # regtricube n = 3: lambda_1 = 0 is the formula, |lambda_2| = 2 the oracle
    values = np.linalg.eigvalsh(regular_tricube_adjacency(3).entries)
    assert np.allclose(values, [-2, -2, -2, 0, 0, 0, 0, 6], rtol=0, atol=1e-12)

    def max_nontrivial_3(adj):
        return dataclasses.replace(ramanujan_check(adj), max_nontrivial=3.0)

    monkeypatch.setattr(verify, "ramanujan_check", max_nontrivial_3)
    [entry] = run_verification(claims=["theorem3"], n_range=[3]).entries
    assert entry["status"] == "fail"


def test_euler_checks_the_exact_edge_count(monkeypatch):
    # add the antipodal edge {0, 7} and drop the triangle's other two edges
    # {0, 1}, {1, 7}: every degree stays even, so a circuit still exists
    # and covers the constructor's graph, over 23 edges instead of 24
    def one_edge_fewer(n):
        gm = regular_tricube_adjacency(n)
        adj = gm.entries.copy()
        adj[0, 7] = adj[7, 0] = 1
        adj[0, 1] = adj[1, 0] = adj[1, 7] = adj[7, 1] = 0
        # no longer a function of popcount(i ^ j), so declaring no structure
        return dataclasses.replace(gm, entries=adj, structure=None)

    monkeypatch.setattr(cubegraphs, "regular_tricube_adjacency", one_edge_fewer)
    monkeypatch.setattr(verify, "regular_tricube_adjacency", one_edge_fewer)
    [entry] = run_verification(claims=["euler"], n_range=[3]).entries
    assert entry["status"] == "fail"


def test_deviation_is_inf_when_the_multiplicities_do_not_total_n():
    values = np.array([0.0, 2.0, 2.0, 4.0])
    assert verify._deviation(values, {0: 1, 2: 2, 4: 1}).tolist() == [0.0] * 4
    for exact in ({0: 1, 2: 2}, {0: 1, 2: 2, 4: 2}):
        assert verify._deviation(values, exact).tolist() == [np.inf] * 4


def test_one_moved_multiplicity_fails_every_spectral_claim(monkeypatch):
    # the last copy of the first repeated eigenvalue takes the next distinct
    # value: N and the distinct set stay, one multiplicity moves by one
    def moved(M):
        values = eig_sym(M).values.copy()
        apart = np.diff(values) > 1e-6
        j = next(i for i in range(1, len(apart)) if apart[i] and not apart[i - 1])
        values[j] = values[j + 1]
        return Spectrum(values, None)

    monkeypatch.setattr(verify, "eig_sym", moved)
    claims = ["theorem2", "theorem5", "theorem6", "extremes"]
    entries = [e for e in run_verification(claims, n_range=[3]).entries if e["n"] == 3]
    assert [(e["claim"], e["status"]) for e in entries] == [(c, "fail") for c in claims]


def test_doubled_mesh_weights_fail_theorem1_and_the_boundary_form(monkeypatch):
    # the fault goes into the geometric builder: the doubled weights are
    # still a function of popcount, so the matrices are made, and only the
    # entries that read the mesh may fail
    edge_weights = meshcotan._edge_weights

    def doubled(*args):
        return 2.0 * edge_weights(*args)

    monkeypatch.setattr(meshcotan, "_edge_weights", doubled)
    entries = run_verification(["theorem1", "theorem2"]).entries
    assert [(e["claim"], e["n"], e["status"], e["max_abs_err"]) for e in entries] == [
        ("theorem1", n, "fail", float(n)) for n in range(3, 7)
    ] + [("theorem2", 2, "fail", 2.0)] + [
        ("theorem2", n, "pass", 0.0) for n in range(3, 9)
    ]


def test_theorem7_fails_when_ternary_gray_is_the_natural_order(monkeypatch):
    def natural(n, scheme):
        return list(range(3**n))

    monkeypatch.setitem(cubegraphs._ORDERINGS, 3, (TERNARY, natural))
    entries = run_verification(["theorem7"]).entries
    assert [(e["n"], e["status"]) for e in entries] == [(1, "pass")] + [
        (n, "fail") for n in range(2, 7)
    ]


def test_properties_l_fails_on_a_non_bisymmetric_laplacian(monkeypatch, tmp_path):
    # a seeded relabelling of the vertices keeps the Laplacian symmetric
    # but moves it off bisymmetry, so it cannot be split into blocks
    rng = np.random.default_rng(3)
    built = []

    def shuffled(n):
        built.append(cubegraphs.build("tricube", n, rng.permutation(2**n).tolist()))
        return built[-1]

    monkeypatch.setattr(verify, "tricube_laplacian", shuffled)
    (entry,) = run_verification(["properties-L"], [3]).entries
    deviation = centro_deviation(built[0].entries)
    assert deviation > STRUCTURE_TOL
    assert (entry["status"], entry["max_abs_err"]) == ("fail", deviation)
    report = tmp_path / "report.json"
    args = ["verify", "--claims", "properties-L", "--n-range", "3", "--report", str(report)]
    assert main(args) == 1
    assert json.loads(report.read_text())["summary"]["fail"] == 1


def test_properties_l_solves_each_matrix_once(monkeypatch):
    orders = []

    def counting(M, *args, **kwargs):
        orders.append(M.N)
        return eig_sym(M, *args, **kwargs)

    monkeypatch.setattr(verify, "eig_sym", counting)
    monkeypatch.setattr(harmonic, "eig_sym", counting)
    entries = list(verify._check_properties_l(range(1, 7)))
    assert [e["status"] for e in entries] == ["pass"] * 6
    # tricube n = 1..6 and powtri n = 1..5, one solve each
    assert sorted(orders) == sorted([2**n for n in range(1, 7)] + [3**n for n in range(1, 6)])


def _changed_basis(monkeypatch, N, change):
    """verify.eig_sym, with `change(values, vectors)` applied to a copy of
    the eigenvectors of the order-N matrix; the changed spectra are
    appended to the returned list."""
    changed = []

    def changing(M, *args, **kwargs):
        spec = eig_sym(M, *args, **kwargs)
        if M.N != N:
            return spec
        vectors = spec.vectors.copy()
        change(spec.values, vectors)
        changed.append(Spectrum(spec.values, vectors))
        return changed[-1]

    monkeypatch.setattr(verify, "eig_sym", changing)
    return changed


def test_properties_l_fails_on_values_of_the_other_j_parity(monkeypatch):
    # tricube n = 3: Walsh column k has value 2 popcount(k) and J-parity
    # (-1)^popcount(k).  A lambda = 2 column (odd) swapped with a lambda = 4
    # column (even) leaves every column exactly J-(anti)symmetric, but puts
    # a 2 among the even values and a 4 among the odd ones
    def swap(values, vectors):
        i, j = np.flatnonzero(values == 2)[0], np.flatnonzero(values == 4)[0]
        vectors[:, [i, j]] = vectors[:, [j, i]]

    _changed_basis(monkeypatch, 8, swap)
    (entry,) = run_verification(["properties-L"], [3]).entries
    assert (entry["status"], entry["max_abs_err"]) == ("fail", 2.0)


def _no_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def test_report_json_refuses_a_non_finite_value_outside_max_abs_err():
    report = verify.VerificationReport(({"claim": "x", "n": 1, "status": "fail",
                                         "max_abs_err": 0.0, "details": math.nan},))
    with pytest.raises(ValueError):
        report.to_json()


def test_a_moved_walsh_value_fails_theorem2_and_properties_l(monkeypatch):
    # the Walsh route's values are the transform of row 0, asserted by no
    # solver check of its own: one value moved by 1 must fail both claims
    fwht = spectra._fwht

    def moved(x):
        out = fwht(x)
        out[3] += 1.0
        return out

    monkeypatch.setattr(spectra, "_fwht", moved)
    entries = run_verification(["theorem2", "properties-L", "identity"], [3]).entries
    assert [(e["claim"], e["status"]) for e in entries] == [
        ("theorem2", "fail"), ("properties-L", "fail"), ("identity", "fail"),
    ]


@pytest.mark.parametrize("value", [0.0, 2.5], ids=["second-zero", "non-integer"])
def test_identity_needs_integer_eigenvalues_and_a_simple_kernel(monkeypatch, value):
    # one eigenvalue 2 set to 0 leaves a kernel of dimension 2, and set to
    # 2.5 leaves a P that is no integer: either way no draw is judged, and
    # err is inf.  (At 2.5 an int() of each value would keep P and pass.)
    def changed(M):
        values = eig_sym(M).values.copy()
        values[1] = value
        return Spectrum(values, None)

    monkeypatch.setattr(verify, "eig_sym", changed)
    entries = run_verification(["identity"]).entries
    assert [(e["n"], e["status"], e["max_abs_err"]) for e in entries] == [
        (2, "fail", math.inf), (3, "fail", math.inf),
    ]


def test_identity_judges_ten_nonsingular_draws_per_n(monkeypatch):
    # a singular [B | 1] makes both sides 0, so it is drawn again: with the
    # seed, 3 of the first 13 draws at n = 2 and 1 of the first 11 at n = 3
    calls, det = [], verify._det

    def recording(M):
        calls.append((len(M), det(M)))
        return calls[-1][1]

    monkeypatch.setattr(verify, "_det", recording)
    entries = run_verification(["identity"]).entries
    assert [e["status"] for e in entries] == ["pass", "pass"]
    for N, drawn, singular in ((4, 13, 3), (8, 11, 1)):
        stacked = [d for order, d in calls if order == N]
        judged = [d for order, d in calls if order == N - 1]
        assert (len(stacked), stacked.count(0)) == (drawn, singular)
        assert len(judged) == 10 and 0 not in judged


def _fraction_det(M):
    """det(M) by Gaussian elimination over Fractions, with a row swap at a
    zero pivot."""
    A = [[Fraction(int(x)) for x in row] for row in M]
    det = Fraction(1)
    for k in range(len(A)):
        pivot = next((i for i in range(k, len(A)) if A[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            A[k], A[pivot], det = A[pivot], A[k], -det
        det *= A[k][k]
        for i in range(k + 1, len(A)):
            f = A[i][k] / A[k][k]
            A[i] = [a - f * b for a, b in zip(A[i], A[k])]
    return det


def test_det_matches_fraction_elimination():
    rng = np.random.default_rng(1968)
    cases = [rng.integers(-1, 2, size=(m, m)) for m in range(1, 9) for _ in range(30)]
    # every leading pivot 0: the order-8 index reversal, of det +1
    cases.append(np.eye(8, dtype=np.int64)[::-1])
    dets = [verify._det(M) for M in cases]
    assert all(type(d) is int for d in dets)
    assert dets == [_fraction_det(M) for M in cases]
    assert dets[-1] == 1
    # the draws hold singular matrices and zero leading pivots at every
    # order from 2 on, and nonsingular ones at every order
    for m in range(2, 9):
        drawn = [(M, d) for M, d in zip(cases, dets) if len(M) == m]
        assert any(d == 0 for _, d in drawn) and any(d != 0 for _, d in drawn)
        assert any(M[0, 0] == 0 and d != 0 for M, d in drawn)


@pytest.mark.parametrize("degrees", [45, 30])
def test_properties_l_fails_on_an_eigenbasis_of_mixed_j_parity(monkeypatch, degrees):
    # powtri n = 3's eigenvalue 3 has even vectors, the digit patterns
    # (0,0,3) and their permutations, and one odd, (1,1,1).  One even and
    # one odd column turned by an angle still span the eigenspace, but
    # neither is J-symmetric or J-antisymmetric.  At 45 degrees both have
    # v^T J v = 0 to rounding and fall on one side of the split; at 30
    # they keep their sides, and only max |J v - e v| is off
    def rotate(values, vectors):
        three = np.flatnonzero(np.abs(values - 3.0) <= 1e-9)
        parity = np.einsum("ij,ij->j", vectors[:, three], vectors[::-1, three])
        i, j = three[parity > 0][0], three[parity < 0][0]
        a, b = vectors[:, i].copy(), vectors[:, j].copy()
        c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
        vectors[:, i], vectors[:, j] = c * a + s * b, c * b - s * a

    changed = _changed_basis(monkeypatch, 27, rotate)
    report = run_verification(["properties-L"], [3])
    (entry,) = report.entries
    assert entry["status"] == "fail" and entry["max_abs_err"] > 0.1
    # at 45 degrees the two sides' multiplicities do not total theirs, so
    # err is inf, which the JSON report writes as null (RFC 8259 has no
    # Infinity), while the in-memory entry keeps the float
    written = json.loads(report.to_json(), parse_constant=_no_constant)["entries"][0]
    if degrees == 45:
        assert entry["max_abs_err"] == math.inf and written["max_abs_err"] is None
    else:
        assert written["max_abs_err"] == entry["max_abs_err"]
    (spec,) = changed
    P = cubegraphs.pow_tricube_laplacian(3).entries
    assert np.abs(P @ spec.vectors - spec.vectors * spec.values).max() <= 1e-12
    assert np.abs(spec.vectors.T @ spec.vectors - np.eye(27)).max() <= 1e-12


def _not_dynamic_openblas():
    """Why OPENBLAS_CORETYPE cannot select the BLAS kernels here, or None:
    it acts only on an OpenBLAS built with DYNAMIC_ARCH."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    config = blas.get("openblas configuration", "")
    if "openblas" in blas.get("name", "").lower() and "DYNAMIC_ARCH" in config:
        return None
    return f"numpy's BLAS is {blas.get('name')!r} ({config!r}), not a DYNAMIC_ARCH OpenBLAS"


_NO_KERNEL_CHOICE = _not_dynamic_openblas()


@pytest.mark.skipif(_NO_KERNEL_CHOICE is not None, reason=str(_NO_KERNEL_CHOICE))
def test_properties_l_and_identity_reports_are_the_same_on_every_blas_kernel():
    # properties-L reads the split from eig_sym's eigenbasis, and identity
    # compares integers, so no LAPACK solve of the full matrix can move
    # their bytes (other claims still do)
    script = (
        "import sys; from cubelab.verify import run_verification; "
        "sys.stdout.write(run_verification(claims=['properties-L', 'identity']).to_json())"
    )
    src = str(Path(verify.__file__).resolve().parents[1])
    digests = set()
    for coretype in (None, "Haswell", "Prescott"):
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            env["OPENBLAS_NUM_THREADS"] = threads
            if coretype is not None:
                env["OPENBLAS_CORETYPE"] = coretype
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, check=True,
                timeout=120,
            ).stdout
            assert json.loads(out)["summary"] == {"pass": 8, "fail": 0, "discrepancy-noted": 0}
            digests.add(hashlib.sha256(out).hexdigest())
    assert len(digests) == 1
