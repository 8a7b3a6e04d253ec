import math
from fractions import Fraction
from itertools import combinations

import pytest

from cubelab.predicates import caf, caf_table, logistic, n_related, n_shared


def census(n):
    """Oracle: every nonempty subset of the 2^n vertices, grouped by rank."""
    vertices = range(2**n)
    return {
        r: [frozenset(c) for c in combinations(vertices, r)]
        for r in range(1, 2**n + 1)
    }


def test_n_shared_values():
    assert n_shared(3, 2, 2) == 1   # two objects share one edge
    assert n_shared(3, 3, 3) == 1   # three objects share one face
    assert n_shared(2, 3, 1) == math.comb(3, 2) == 3
    with pytest.raises(ValueError):
        n_shared(2, 1, 2)


def test_n_related_values():
    for r in range(1, 9):
        assert n_related(3, r, 1) == math.comb(7, r - 1)
    assert n_related(2, 2, 4) == math.comb(4, 2) == 6
    assert n_related(2, 2, 2) == 5
    # the defining sum: the predicates whose first member among the p fixed
    # vertices is the l-th hold it, none of the l - 1 before it, and r - 1
    # of the other 2^n - l vertices
    for n in range(1, 6):
        for r in range(1, 2**n + 1):
            for p in range(1, 2**n + 1):
                by_first = sum(math.comb(2**n - l, r - 1) for l in range(1, p + 1))
                assert n_related(n, r, p) == by_first


def test_caf_linear_sequence_for_single_vertex():
    assert [caf(3, r, 1) for r in range(1, 9)] == [Fraction(r, 8) for r in range(1, 9)]


def test_caf_saturates():
    for n in (1, 2, 3, 4):
        for r in range(1, 2**n + 1):
            assert caf(n, r, 2**n) == 1
        assert caf(n, 2**n, 1) == 1


def test_caf_values_and_errors():
    assert caf(2, 2, 2) == Fraction(5, 6)
    with pytest.raises(ValueError):
        caf(3, 0, 1)
    with pytest.raises(ValueError):
        caf(2, 5, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ugly_duckling_invariance(n):
    """Shared and related counts are blind to which vertices are chosen."""
    by_rank = census(n)
    vertices = list(range(2**n))
    for r in range(1, 2**n + 1):
        for p in range(1, 2**n + 1):
            related_counts = {
                sum(1 for s in by_rank[r] if s & frozenset(combo))
                for combo in combinations(vertices, p)
            }
            assert related_counts == {n_related(n, r, p)}
            (related,) = related_counts
            assert caf(n, r, p) == Fraction(related, math.comb(2**n, r))
            if p <= r:
                shared_counts = {
                    sum(1 for s in by_rank[r] if frozenset(combo) <= s)
                    for combo in combinations(vertices, p)
                }
                assert shared_counts == {n_shared(n, r, p)}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_caf_monotone_in_rank_and_support(n):
    top = 2**n
    for p in range(1, top + 1):
        for r in range(1, top):
            assert caf(n, r + 1, p) >= caf(n, r, p)
    for r in range(1, top + 1):
        for p in range(1, top):
            assert caf(n, r, p + 1) >= caf(n, r, p)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_caf_exactly_rational(n):
    for r in (1, 2, 2**n - 1, 2**n):
        for p in (1, 2, 2**n):
            f = caf(n, r, p)
            assert math.comb(2**n, r) % f.denominator == 0
    assert all(caf(n, r, 1) == Fraction(r, 2**n) for r in range(1, 2**n + 1))


def test_logistic():
    assert logistic(0.0, 5.0) == 0.5
    assert logistic(50.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert logistic(1.0, 1.0) == pytest.approx(0.7310585786300049, abs=1e-15)
    # exp(-mu x) overflows: the limit, not an OverflowError
    assert logistic(-1000.0) == 0.0
    assert logistic(1.0, -800.0) == 0.0


def test_caf_table_shape():
    rows = caf_table(3)
    assert len(rows) == 64
    r, p, num, den, value, ref = rows[0]
    assert (r, p) == (1, 1) and Fraction(num, den) == Fraction(1, 8)
    assert value == pytest.approx(0.125)
    assert ref == pytest.approx(logistic(1.0))
