import math
from itertools import product

import pytest
from hypothesis import given, strategies as st

from cubelab.bitspace import (
    BINARY,
    GRAY,
    TERNARY,
    TERNARY_GRAY,
    binary_ordering,
    enumerate_addresses,
    hamming,
    ternary_digits,
    ternary_gray_digits,
    ternary_ordering,
    ternary_vertex,
)


def numerals(addresses):
    """Each address as a numeral string, most significant bit first."""
    return ["".join(str(b) for b in reversed(a)) for a in addresses]


def ternary_index(digits):
    return sum(d * 3**k for k, d in enumerate(digits))


def reflected_gray_words(n):
    """Independent oracle: reflect-and-prefix construction, msb-first strings."""
    words = ["0", "1"]
    for _ in range(n - 1):
        words = ["0" + w for w in words] + ["1" + w for w in reversed(words)]
    return words


def test_gray_2():
    assert numerals(enumerate_addresses(2, GRAY)) == ["00", "01", "11", "10"]


def test_binary_1():
    assert numerals(enumerate_addresses(1, BINARY)) == ["0", "1"]


def test_gray_3_matches_reflect_and_prefix():
    assert numerals(enumerate_addresses(3, GRAY)) == reflected_gray_words(3)


@pytest.mark.parametrize("n", range(1, 13))
def test_gray_visits_every_address_with_unit_steps(n):
    seq = enumerate_addresses(n, GRAY)
    assert len(set(seq)) == 2**n
    assert all(hamming(a, b) == 1 for a, b in zip(seq, seq[1:]))
    # wrap distance is recorded for interest; the reflected code closes at 1
    assert hamming(seq[-1], seq[0]) == 1


def test_unsupported_scheme_rejected():
    with pytest.raises(ValueError):
        enumerate_addresses(3, TERNARY)
    with pytest.raises(ValueError):
        enumerate_addresses(0, BINARY)


def test_hamming_basics():
    assert hamming((1, 0, 1), (1, 1, 0)) == 2
    assert hamming((0, 0, 0), (1, 1, 1)) == 3
    a = (0, 1, 1, 0)
    assert hamming(a, a) == 0
    with pytest.raises(ValueError):
        hamming((0, 1), (0, 1, 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_hamming_triangle_inequality_exhaustive(n):
    addrs = enumerate_addresses(n, BINARY)
    for a, b, c in product(addrs, repeat=3):
        assert hamming(a, b) <= hamming(a, c) + hamming(c, b)


def test_ternary_vertex_center_of_3cube():
    v = ternary_vertex(3, 13)
    assert v.coords == (0, 0, 0)
    assert v.address == (0, 0, 0)


def test_ternary_vertex_corners():
    assert ternary_vertex(1, 0).coords == (-1,)
    assert ternary_vertex(1, 0).address == (1,)
    v = ternary_vertex(3, 0)
    assert v.coords == (-1, -1, -1) and v.address == (1, 1, 1)
    with pytest.raises(ValueError):
        ternary_vertex(2, 9)


@given(st.integers(min_value=1, max_value=8), st.data())
def test_ternary_round_trip(n, data):
    m = data.draw(st.integers(min_value=0, max_value=3**n - 1))
    v = ternary_vertex(n, m)
    assert ternary_index(v.digits) == m
    assert all(d - 1 == c for d, c in zip(v.digits, v.coords))
    assert all((c != 0) == bool(b) for c, b in zip(v.coords, v.address))


@pytest.mark.parametrize("n", range(1, 9))
def test_k_norm_census(n):
    counts = [0] * (n + 1)
    for m in range(3**n):
        counts[sum(ternary_vertex(n, m).address)] += 1
    assert counts == [math.comb(n, k) * 2**k for k in range(n + 1)]


def test_ternary_orderings():
    assert ternary_ordering(1, TERNARY) == [0, 1, 2]
    assert ternary_ordering(1, TERNARY_GRAY) == [0, 1, 2]
    words = [
        "".join(str(d) for d in reversed(ternary_digits(m, 2)))
        for m in ternary_ordering(2, TERNARY_GRAY)
    ]
    assert words == ["00", "01", "02", "12", "11", "10", "20", "21", "22"]
    with pytest.raises(ValueError):
        ternary_ordering(2, BINARY)


@pytest.mark.parametrize("n", range(0, 8))
def test_ternary_gray_ordering_matches_the_digit_oracle(n):
    ordering = ternary_ordering(n, TERNARY_GRAY)
    assert ordering == [ternary_index(ternary_gray_digits(m, n)) for m in range(3**n)]
    assert all(type(v) is int for v in ordering)


@pytest.mark.parametrize("n", range(1, 8))
def test_ternary_gray_steps_by_one_digit(n):
    seq = [ternary_gray_digits(m, n) for m in range(3**n)]
    assert len(set(seq)) == 3**n
    for a, b in zip(seq, seq[1:]):
        diffs = [(x, y) for x, y in zip(a, b) if x != y]
        assert len(diffs) == 1 and abs(diffs[0][0] - diffs[0][1]) == 1


def test_custom_binary_ordering_must_be_bijection():
    assert binary_ordering(2, [3, 1, 2, 0]) == [3, 1, 2, 0]
    with pytest.raises(ValueError):
        binary_ordering(2, [0, 1, 1, 3])
