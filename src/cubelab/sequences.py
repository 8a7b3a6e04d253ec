"""Closed-form generators for the integer sequences and scalar formulas
attached to the cube families.

`SEQUENCES` holds one row per tag: its generator, the index of its first
term, and the OEIS entry the bundled fixture check compares it against.
Triangle tags (start None) return row lists, numbered row by row from 0;
scalar tags return flat integer (or Fraction) lists starting at the
tag's natural index, the row's `start`.  The Pell-type pairs
A075848/A072221 are computed by integer recurrence rather than floating
powers of 3 +- 2*sqrt(2), so they stay exact at large k.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

# bound on the rows or terms of `generate`: the terms grow with their
# index, so the work grows faster than count^2; powtrimult, the slowest
# tag, takes ~1.3 s for 1000 rows and ~5 s for 2000
MAX_SEQUENCE_COUNT = 1000

TRINOMIAL = "trinomial"
POW_TRI_MULT = "powtrimult"
A013609 = "A013609"
A038220 = "A038220"
A080956_NEG = "A080956neg"
A075848 = "A075848"
A072221 = "A072221"
A120908 = "A120908"
PROD_SEQ = "prodseq"
A003946_NEG = "A003946neg"
A060188 = "A060188"
A279019 = "A279019"
BALL_COEFF = "ballcoeff"


def _poly_power_rows(coeffs: dict, count: int) -> list[list[int]]:
    """Rows of coefficients of p(x)^n for n = 0..count-1, where p is given
    as {exponent: coefficient}."""
    rows = [[1]]
    for _ in range(count - 1):
        prev = rows[-1]
        deg = len(prev) - 1 + max(coeffs)
        row = [0] * (deg + 1)
        for i, c in enumerate(prev):
            for e, k in coeffs.items():
                row[i + e] += c * k
        rows.append(row)
    return rows[:count]


def trinomial_row(n: int) -> list[int]:
    """Coefficients of (1 + x + x^2)^n."""
    return generate(TRINOMIAL, n + 1)[n]


def powtri_mult_row(n: int) -> list[int]:
    """Multiplicities of the glued-cube Laplacian eigenvalues 0..3n:
    coefficients of (1 + x + x^3)^n, i.e. counts of n-tuples over {0,1,3}
    with a given sum.  The coefficient of 3n-1 is always zero."""
    return generate(POW_TRI_MULT, n + 1)[n]


def _a075848(count: int) -> list[int]:
    seq = [0, 6]
    while len(seq) < count:
        seq.append(6 * seq[-1] - seq[-2])
    return seq[:count]


def _a072221(count: int) -> list[int]:
    seq = [1, 4]
    while len(seq) < count:
        seq.append(6 * seq[-1] - seq[-2] + 2)
    return seq[:count]


def ball_coefficient(n: int) -> Fraction:
    """Radius-free n-ball coefficient: f_0 = 1, f_1 = 2, f_n = 2 f_{n-2} / n."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    f = Fraction(1) if n % 2 == 0 else Fraction(2)
    for m in range(2 + n % 2, n + 1, 2):
        f = 2 * f / m
    return f


@dataclass(frozen=True)
class Sequence:
    """One generated sequence.

    `terms(count)` gives the first `count` rows of a triangle (`start`
    None) or terms numbered from `start`.  `oeis` is the (A-number, b-file
    offset, sign) the bundled fixture check compares sign * terms against,
    or None when no OEIS entry is reproduced.
    """

    terms: Callable[[int], list]
    start: int | None
    oeis: tuple[str, int, int] | None


def _closed_form(start: int, formula, oeis=None) -> Sequence:
    return Sequence(lambda count: [formula(i) for i in range(start, start + count)], start, oeis)


def _powers(coeffs: dict, anum: str) -> Sequence:
    """The triangle whose row n holds the coefficients of p(x)^n, with p
    given as {exponent: coefficient}."""
    return Sequence(lambda count: _poly_power_rows(coeffs, count), None, (anum, 0, 1))


SEQUENCES = {
    TRINOMIAL: _powers({0: 1, 1: 1, 2: 1}, "A027907"),
    POW_TRI_MULT: _powers({0: 1, 1: 1, 3: 1}, "A038717"),
    A013609: _powers({0: 1, 1: 2}, "A013609"),  # (1 + 2x)^n: C(n,k) 2^k
    A038220: _powers({0: 3, 1: 2}, "A038220"),  # (3 + 2x)^n: C(n,k) 3^(n-k) 2^k
    A080956_NEG: _closed_form(0, lambda k: (k + 1) * (k - 2) // 2, ("A080956", 0, -1)),
    A075848: Sequence(_a075848, 0, ("A075848", 0, 1)),
    A072221: Sequence(_a072221, 0, ("A072221", 0, 1)),
    A120908: _closed_form(2, lambda n: 4 * (n - 1) * 3 ** (n - 2), ("A120908", 2, 1)),
    PROD_SEQ: _closed_form(1, lambda n: -2 * n * 3 ** (2 * n - 2)),
    A003946_NEG: _closed_form(2, lambda n: -4 * 3 ** (n - 2), ("A003946", 1, -1)),
    A060188: _closed_form(0, lambda n: 3**n - n - 1, ("A060188", 0, 1)),
    A279019: _closed_form(0, lambda n: n * (n + 1), ("A279019", 0, 1)),
    BALL_COEFF: _closed_form(0, ball_coefficient),
}


def generate(tag: str, count: int):
    """First `count` rows (triangle tags) or terms (scalar tags); a count
    over `MAX_SEQUENCE_COUNT` raises ValueError before any term is made."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if tag not in SEQUENCES:
        raise ValueError(f"unknown sequence tag {tag!r}")
    if count > MAX_SEQUENCE_COUNT:
        raise ValueError(f"{tag}: count {count} exceeds the bound {MAX_SEQUENCE_COUNT}")
    return SEQUENCES[tag].terms(count)


@dataclass(frozen=True)
class ExtremesResult:
    n: int
    lambda_min: float
    lambda_max: float
    sum: int
    product: int


def pow_hamming_extremes(n: int) -> ExtremesResult:
    """Closed-form extreme eigenvalues of the 3^n-vertex Hamming distance
    matrix: [2(n-1) -+ sqrt(2(2n+1)(n+2))] * 3^(n-2), with integer sum
    4(n-1)*3^(n-2) and product -2n*3^(2n-2).  An n whose extremes leave the
    float64 range (n >= 641) raises ValueError."""
    if n < 2:
        raise ValueError(f"closed forms need n >= 2, got {n}")
    root = math.sqrt(2.0 * (2 * n + 1) * (n + 2))
    try:
        scale = 3.0 ** (n - 2)
    except OverflowError:
        scale = math.inf
    lambda_max = (2 * (n - 1) + root) * scale
    if not math.isfinite(lambda_max):
        raise ValueError(f"powhamming extremes at n={n} exceed the float64 range")
    return ExtremesResult(
        n=n,
        lambda_min=(2 * (n - 1) - root) * scale,
        lambda_max=lambda_max,
        sum=4 * (n - 1) * 3 ** (n - 2),
        product=-2 * n * 3 ** (2 * n - 2),
    )


@dataclass(frozen=True)
class BallMeasures:
    volume: float
    surface: float


def ball_measures(n: int, radius: float) -> BallMeasures:
    """Volume and surface of the n-ball: V = pi^floor(n/2) f_n R^n and
    S = n V / R, satisfying S_n = 2 pi R V_{n-2}."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if radius <= 0:
        raise ValueError("radius must be positive")
    f = float(ball_coefficient(n))
    volume = math.pi ** (n // 2) * f * radius**n
    surface = n * math.pi ** (n // 2) * f * radius ** (n - 1)
    return BallMeasures(volume=volume, surface=surface)


_KISSING_KNOWN = {1: 2, 2: 6, 3: 12, 4: 24, 8: 240, 24: 196560}


@dataclass(frozen=True)
class VectorEquilibrium:
    n: int
    v_count: int
    kissing_known: int | None
    cartesian_embeddable: bool


def vector_equilibrium(n: int) -> VectorEquilibrium:
    """External vertex count n(n+1) of the radially equilateral polytope
    family, the known kissing number where one exists, and whether the
    leftover vertices n^2 - n + 2 match the 2^n a Cartesian frame needs."""
    if n < -1:
        raise ValueError("dimension must be >= -1")
    return VectorEquilibrium(
        n=n,
        v_count=n * (n + 1),
        kissing_known=_KISSING_KNOWN.get(n),
        cartesian_embeddable=(n * n - n + 2 == 2**n),
    )


def fine_structure(x: float) -> float:
    """Cubic evaluation 4x^3 + x^2 + x; at pi it lands near the inverse
    fine-structure constant."""
    return 4.0 * x**3 + x**2 + x
