"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check lives once, in `cubelab.verify`; each criterion asserts on the
entries `run_verification` yields for its claims: the exact n covered,
every status, and the largest error against a tolerance pinned here, not
calibrated elsewhere.  The heavy cases (3^7 = 2187 eigensolves) carry
their stated runtime budgets.
"""

import time

import pytest

from cubelab.verify import CLAIMS, run_verification

# the one entry reported rather than failed, with its exact error: the
# formula n(n-3)/2 gives lambda_1 = 0 where the oracle's largest
# nontrivial |eig| is |lambda_2| = 2
NOTED = {("theorem3", 3): 2.0}


def report(criterion, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def runs():
    """claim -> (entries, seconds) of one `run_verification` per claim."""
    out = {}
    for claim in CLAIMS:
        start = time.perf_counter()
        entries = run_verification(claims=[claim]).entries
        out[claim] = (entries, time.perf_counter() - start)
    return out


# criterion -> (label, runtime budget in seconds or None, {claim: (the
# exact n of its entries, tolerance on max_abs_err)})
CRITERIA = {
    1: ("triangulation invariance, n=3..6", 5.0, {"theorem1": (range(3, 7), 0.0)}),
    2: ("spectrum 2k x C(n,k), n=2..8; boundary {0,1,1,2}", None,
        {"theorem2": (range(2, 9), 1e-8)}),
    3: ("Ramanujan iff n<6; formula n(n-3)/2 for n=4..10; n=3 noted", None,
        {"theorem3": (range(2, 11), 1e-8)}),
    4: ("A075848/A072221 terms and exact 2*sqrt(n(n+1)/2-1)", None,
        {"theorem4": ((None,), 0.0)}),
    5: ("sqrt(2)-lattice spectra with trinomial multiplicities, n=1..7", None,
        {"theorem5": (range(1, 8), 1e-6)}),
    6: ("spectrum = sums over {0,1,3}^n, 3n-1 absent, n=1..7", 60.0,
        {"theorem6": (range(1, 8), 1e-8)}),
    7: ("identical distance matrices under both encodings, n=1..6", None,
        {"theorem7": (range(1, 7), 0.0)}),
    8: ("closed-form extremes, multiplicities, 5832 coincidence", None,
        {"extremes": ((*range(2, 7), None), 1e-6)}),
    9: ("minimum energy 2/3 at parity patterns {2,3,5,8}/{1,4,6,7}", None,
        {"poisson": ((3,), 1e-10)}),
    10: ("linear p=1, saturation, oracle + invariance at n<=3", None, {"caf": ((None,), 0.0)}),
    11: ("circuits for n=3 (24 edges), n=4 (80); none for n=5,6", None,
         {"euler": (range(3, 7), 0.0)}),
    12: ("bisymmetry, traces, radii, gaps, J-parity split, identity", None,
         {"properties-L": (range(1, 7), 1e-9), "properties-D": (range(2, 9), 0.0),
          "identity": (range(2, 4), 0.0)}),
    13: ("generators match offline fixtures; fine structure at pi", None,
         {"sequences": ((None,), 1e-9)}),
}


def criterion(number):
    """The test of one `CRITERIA` row: its claims cover exactly the listed
    n, every entry passes (or is the noted one) within its tolerance, and
    the claims run within the budget."""
    label, budget, expected = CRITERIA[number]

    def test(runs):
        problems, worst, seconds = [], 0.0, 0.0
        for claim, (ns, tol) in expected.items():
            entries, elapsed = runs[claim]
            seconds += elapsed
            got = [e["n"] for e in entries]
            if got != list(ns):
                problems.append(f"{claim} covers n={got}, expected {list(ns)}")
            for e in entries:
                key = (claim, e["n"])
                status = "discrepancy-noted" if key in NOTED else "pass"
                err = abs(e["max_abs_err"] - NOTED.get(key, 0.0))
                worst = max(worst, err)
                if e["status"] != status or not err <= tol:
                    problems.append(f"{key} {e['status']} err {err:.2e} tol {tol:.0e}")
        if budget is not None and seconds >= budget:
            problems.append(f"{seconds:.2f}s over the {budget:.0f}s budget")
        detail = f"max err {worst:.2e}, {seconds:.2f}s"
        report(f"criterion {number} ({label})", not problems, "; ".join([detail, *problems]))

    return test


test_criterion_01_triangulation_invariance = criterion(1)
test_criterion_02_laplacian_spectrum_is_doubled_binomial = criterion(2)
test_criterion_03_ramanujan_and_max_nontrivial = criterion(3)
test_criterion_04_pell_sequences_and_integrality = criterion(4)
test_criterion_05_adjacency_trinomial_lattice = criterion(5)
test_criterion_06_laplacian_spectrum_enumeration_oracle = criterion(6)
test_criterion_07_distance_matrix_ordering_invariance = criterion(7)
test_criterion_08_distance_extremes = criterion(8)
test_criterion_09_minimum_energy_pattern = criterion(9)
test_criterion_10_activation_function = criterion(10)
test_criterion_11_eulerian_circuits = criterion(11)
test_criterion_12_structure_checks = criterion(12)
test_criterion_13_sequence_fixtures_and_fine_structure = criterion(13)


def test_full_verify_suite_under_two_minutes():
    start = time.time()
    result = run_verification()
    elapsed = time.time() - start
    counts = result.summary()
    report(
        "full verify suite (wall clock and outcomes)",
        result.ok and elapsed < 120.0 and counts["discrepancy-noted"] == 1,
        f"{counts}, {elapsed:.1f}s",
    )
