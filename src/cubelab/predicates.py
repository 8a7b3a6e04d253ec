"""Predicate combinatorics over {0,1}^n and the activation function built
from them.

A compound predicate of rank r is a choice of r of the 2^n vertices.  The
number related to (touching) a fixed set of p vertices, divided by the
total count of rank-r predicates, defines a vertex-dependent activation
function that is linear for p = 1 and sigmoid-like for larger p.

All counts use exact big-integer arithmetic; binomial(a, b) follows the
falling-factorial convention (zero whenever b > a).
"""

import math
from fractions import Fraction

# bound on the work of `caf_table`, len(p) 4^n: every p at n = 8 (2^24)
# takes ~0.6 s, one p at n = 12 ~2.6 s, and every p at n = 14 would not
# finish
MAX_CAF_WORK = 1 << 24


def n_shared(n: int, r: int, p: int) -> int:
    """Rank-r predicates containing all of a fixed set of p vertices.

    Independent of which vertices are picked (any two distinguishable
    objects are equally similar).
    """
    if p > r:
        raise ValueError(f"p={p} exceeds r={r}")
    if not 0 <= p <= r <= 2**n:
        raise ValueError(f"need 0 <= p <= r <= 2^{n}")
    return math.comb(2**n - p, r - p)


def n_related(n: int, r: int, p: int) -> int:
    """Rank-r predicates touching at least one of a fixed set of p vertices:
    all C(2^n, r) less the C(2^n - p, r) that avoid them, which by the
    hockey-stick identity is the sum of C(2^n - l, r - 1) over l = 1..p."""
    if not (1 <= r <= 2**n and 1 <= p <= 2**n):
        raise ValueError(f"need 1 <= r, p <= 2^{n}")
    return math.comb(2**n, r) - math.comb(2**n - p, r)


def caf(n: int, r: int, p: int) -> Fraction:
    """Activation level: fraction of rank-r predicates related to p active
    vertices.  Undefined at r = 0 (no vertex active); equals 1 at p = 2^n."""
    if r == 0:
        raise ValueError("activation is undefined if no vertex is active (r = 0)")
    if not (1 <= r <= 2**n and 1 <= p <= 2**n):
        raise ValueError(f"need 1 <= r, p <= 2^{n}")
    return Fraction(n_related(n, r, p), math.comb(2**n, r))


def logistic(x: float, mu: float = 1.0) -> float:
    """Logistic activation 1 / (exp(-mu x) + 1), the comparison curve; 0.0,
    its limit, where exp(-mu x) overflows."""
    try:
        return 1.0 / (math.exp(-mu * x) + 1.0)
    except OverflowError:
        return 0.0


def caf_table(n: int, p_values=None, mu: float = 1.0, scale: float = 1.0):
    """Rows (r, p, numerator, denominator, value, logistic(r*scale, mu))
    for every rank r and each p of the sequence `p_values` (default: all);
    n must be >= 1, and mu and scale finite.  A table whose work, len(p) 4^n
    (its len(p) 2^n rows times the ~2^n bits of their binomials), exceeds
    `MAX_CAF_WORK` raises ValueError before any row is made."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    for name, value in (("mu", mu), ("scale", scale)):
        if not math.isfinite(value):
            raise ValueError(f"logistic {name} must be a finite number, got {value!r}")
    # 4^n alone is past the bound once 2n reaches its bit length; testing
    # that first spares computing a huge power
    if 2 * n < MAX_CAF_WORK.bit_length() and p_values is None:
        p_values = range(1, 2**n + 1)
    if 2 * n >= MAX_CAF_WORK.bit_length() or len(p_values) << 2 * n > MAX_CAF_WORK:
        raise ValueError(f"activation n={n}: len(p) 4^n exceeds the work bound {MAX_CAF_WORK}")
    rows = []
    for p in p_values:
        for r in range(1, 2**n + 1):
            f = caf(n, r, p)
            rows.append((r, p, f.numerator, f.denominator, float(f), logistic(r * scale, mu)))
    return rows
