"""Vertex address spaces for the cube families.

Addresses live in {0,1}^n (binary / Gray ordered) or, for the 3^n-vertex
families, in {-1,0,1}^n with a base-3 index and a derived binary address
whose bit k records whether coordinate k is nonzero.

Bit k of an address corresponds to axis k, i.e. the 3^k digit position
(least significant digit = axis 0).
"""

from dataclasses import dataclass

import numpy as np

BINARY = "binary"
GRAY = "gray"
TERNARY = "ternary"
TERNARY_GRAY = "ternary-gray"

BINARY_SCHEMES = (BINARY, GRAY)
TERNARY_SCHEMES = (TERNARY, TERNARY_GRAY)


def gray_value(i: int) -> int:
    """Value of the i-th word of the standard reflected binary Gray code."""
    return i ^ (i >> 1)


def bits_of(value: int, n: int) -> tuple[int, ...]:
    """n-bit address of an integer, least significant bit first."""
    return tuple((value >> k) & 1 for k in range(n))


def enumerate_addresses(n: int, scheme: str = BINARY) -> list[tuple[int, ...]]:
    """All 2^n addresses in the given ordering.

    For Gray the sequence is the standard reflected Gray code, so
    consecutive addresses differ in exactly one bit.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if scheme not in BINARY_SCHEMES:
        raise ValueError(f"unsupported scheme {scheme!r} for a 2^n-vertex family")
    if scheme == GRAY:
        return [bits_of(gray_value(i), n) for i in range(1 << n)]
    return [bits_of(i, n) for i in range(1 << n)]


def hamming(a, b) -> int:
    """Number of differing bit positions between two equal-length addresses."""
    if len(a) != len(b):
        raise ValueError(f"address length mismatch: {len(a)} vs {len(b)}")
    return sum(x != y for x, y in zip(a, b))


@dataclass(frozen=True)
class TernaryVertex:
    """A vertex of a 3^n-vertex family.

    index  = sum of digits[k] * 3^k
    coords = digits - 1, componentwise, in {-1, 0, 1}
    address bit k = 1 iff coords[k] != 0
    """

    n: int
    index: int
    digits: tuple[int, ...]
    coords: tuple[int, ...]
    address: tuple[int, ...]


def ternary_digits(m: int, n: int) -> tuple[int, ...]:
    """Base-3 digits of m, least significant first."""
    return tuple((m // 3**k) % 3 for k in range(n))


def ternary_vertex(n: int, m: int) -> TernaryVertex:
    if not 0 <= m < 3**n:
        raise ValueError(f"index {m} out of range [0, 3^{n})")
    digits = ternary_digits(m, n)
    coords = tuple(d - 1 for d in digits)
    address = tuple(int(c != 0) for c in coords)
    return TernaryVertex(n=n, index=m, digits=digits, coords=coords, address=address)


def ternary_gray_digits(m: int, n: int) -> tuple[int, ...]:
    """Digits of the m-th word of the reflected ternary Gray sequence.

    Scanning from the most significant digit, a digit is reflected
    (d -> 2 - d) whenever the sum of the more significant source digits
    is odd.  Consecutive words differ in one digit by +-1.
    """
    d = ternary_digits(m, n)
    g = [0] * n
    parity = 0
    for k in range(n - 1, -1, -1):
        g[k] = d[k] if parity % 2 == 0 else 2 - d[k]
        parity += d[k]
    return tuple(g)


def ternary_ordering(n: int, scheme: str = TERNARY) -> list[int]:
    """Permutation of [0, 3^n): base-3 vertex index at each position.

    The ternary-Gray words are `ternary_gray_digits`'s, taken for every
    position at once by digit arithmetic, most significant digit first.
    """
    if scheme not in TERNARY_SCHEMES:
        raise ValueError(f"unsupported scheme {scheme!r} for a 3^n-vertex family")
    if scheme == TERNARY:
        return list(range(3**n))
    position = np.arange(3**n)
    index = np.zeros_like(position)
    parity = np.zeros_like(position)  # sum of the more significant source digits
    for k in range(n - 1, -1, -1):
        digit = position // 3**k % 3
        index += np.where(parity % 2, 2 - digit, digit) * 3**k
        parity += digit
    return index.tolist()


def binary_ordering(n: int, scheme=BINARY) -> list[int]:
    """Permutation of [0, 2^n): vertex value at each position.

    Accepts a scheme tag or an explicit custom permutation.
    """
    size = 1 << n
    if isinstance(scheme, str):
        if scheme == BINARY:
            return list(range(size))
        if scheme == GRAY:
            return [gray_value(i) for i in range(size)]
        raise ValueError(f"unsupported scheme {scheme!r} for a 2^n-vertex family")
    perm = list(scheme)
    if sorted(perm) != list(range(size)):
        raise ValueError(f"custom ordering is not a bijection on [0, {size})")
    return perm
