import math
from fractions import Fraction
from importlib import resources
from itertools import product

import numpy as np
import pytest

from cubelab import sequences
from cubelab.cubegraphs import pow_hamming_matrix
from cubelab.sequences import (
    ball_coefficient,
    ball_measures,
    fine_structure,
    generate,
    pow_hamming_extremes,
    powtri_mult_row,
    trinomial_row,
    vector_equilibrium,
)


def test_trinomial_rows():
    assert trinomial_row(2) == [1, 2, 3, 2, 1]
    assert generate(sequences.TRINOMIAL, 3) == [[1], [1, 1, 1], [1, 2, 3, 2, 1]]


@pytest.mark.parametrize("n", range(0, 9))
def test_trinomial_row_oracle(n):
    counts = [0] * (2 * n + 1)
    for t in product((0, 1, 2), repeat=n):
        counts[sum(t)] += 1
    row = trinomial_row(n)
    assert row == counts
    assert sum(row) == 3**n
    assert row == row[::-1]


@pytest.mark.parametrize("n", range(0, 8))
def test_powtri_mult_row_oracle(n):
    counts = [0] * (3 * n + 1)
    for t in product((0, 1, 3), repeat=n):
        counts[sum(t)] += 1
    row = powtri_mult_row(n)
    assert row == counts
    if n >= 1:
        assert row[3 * n - 1] == 0
        assert row[0] == 1 and row[3 * n] == 1


def test_pell_type_sequences():
    assert generate(sequences.A075848, 5) == [0, 6, 36, 210, 1224]
    assert generate(sequences.A072221, 5) == [1, 4, 25, 148, 865]


@pytest.mark.parametrize("k", range(9))
def test_ramanujan_integrality_link(k):
    """A072221(k)(A072221(k)+1)/2 - 1 is a perfect square with doubled
    root A075848(k)."""
    n = generate(sequences.A072221, k + 1)[k]
    target = generate(sequences.A075848, k + 1)[k]
    d = n * (n + 1) // 2 - 1
    root = math.isqrt(d)
    assert root * root == d
    assert 2 * root == target


def test_scalar_formula_sequences():
    assert generate(sequences.A080956_NEG, 7) == [-1, -1, 0, 2, 5, 9, 14]
    assert generate(sequences.A120908, 6) == [4, 24, 108, 432, 1620, 5832]
    assert generate(sequences.A003946_NEG, 4) == [-4, -12, -36, -108]
    assert generate(sequences.A060188, 5) == [0, 1, 6, 23, 76]
    assert generate(sequences.A279019, 5) == [0, 2, 6, 12, 20]
    assert generate(sequences.PROD_SEQ, 4) == [-2, -36, -486, -5832]


def test_triangle_row_sums():
    for n in range(11):
        assert sum(generate(sequences.A038220, n + 1)[n]) == 5**n
        assert sum(generate(sequences.A013609, n + 1)[n]) == 3**n


def test_ball_coefficients():
    assert [ball_coefficient(n) for n in range(6)] == [
        Fraction(1), Fraction(2), Fraction(1), Fraction(4, 3), Fraction(1, 2), Fraction(8, 15),
    ]
    assert generate(sequences.BALL_COEFF, 3) == [Fraction(1), Fraction(2), Fraction(1)]


def test_ball_measures_classical_values():
    m = ball_measures(3, 1.0)
    assert m.volume == pytest.approx(4.0 * math.pi / 3.0, abs=1e-14)
    assert m.surface == pytest.approx(4.0 * math.pi, abs=1e-14)
    assert ball_measures(4, 1.0).volume == pytest.approx(math.pi**2 / 2.0, abs=1e-14)


@pytest.mark.parametrize("n", range(2, 10))
def test_surface_volume_recursion(n):
    for radius in (0.5, 1.0, 2.5):
        s = ball_measures(n, radius).surface
        v = ball_measures(n - 2, radius).volume
        assert s == pytest.approx(2.0 * math.pi * radius * v, rel=1e-13)


def test_extremes_closed_forms():
    e = pow_hamming_extremes(2)
    assert e.lambda_min == pytest.approx(2.0 - 2.0 * math.sqrt(10.0), abs=1e-12)
    assert e.lambda_max == pytest.approx(2.0 + 2.0 * math.sqrt(10.0), abs=1e-12)
    assert e.sum == 4 and e.product == -36
    assert abs(pow_hamming_extremes(7).sum) == 5832
    assert abs(pow_hamming_extremes(4).product) == 5832
    with pytest.raises(ValueError):
        pow_hamming_extremes(1)


@pytest.mark.parametrize("n", range(2, 5))
def test_extremes_match_eigensolve(n):
    values = np.linalg.eigvalsh(pow_hamming_matrix(n).entries)
    e = pow_hamming_extremes(n)
    assert values[0] == pytest.approx(e.lambda_min, rel=1e-9)
    assert values[-1] == pytest.approx(e.lambda_max, rel=1e-9)
    assert values[0] * values[-1] == pytest.approx(e.product, rel=1e-9)
    assert values[0] + values[-1] == pytest.approx(e.sum, rel=1e-9)


def test_vector_equilibrium():
    ve = vector_equilibrium(3)
    assert (ve.v_count, ve.kissing_known, ve.cartesian_embeddable) == (12, 12, True)
    ve = vector_equilibrium(4)
    assert (ve.v_count, ve.kissing_known, ve.cartesian_embeddable) == (20, 24, False)
    assert vector_equilibrium(8).v_count == 72
    assert vector_equilibrium(-1).v_count == 0
    assert [vector_equilibrium(n).cartesian_embeddable for n in range(1, 6)] == [
        True, True, True, False, False,
    ]


def test_fine_structure():
    assert fine_structure(math.pi) == pytest.approx(137.036303776, abs=1e-9)
    assert fine_structure(0.0) == 0.0
    assert fine_structure(4.0) / 2.0 - 1.0 == 137.0


def test_bundled_fixtures_are_the_sequence_table_entries():
    bundled = {ref.name for ref in (resources.files("cubelab") / "fixtures").iterdir()}
    named = {f"b{seq.oeis[0][1:]}.txt" for seq in sequences.SEQUENCES.values() if seq.oeis}
    assert bundled == named


def test_generate_rejects_unknown():
    with pytest.raises(ValueError):
        generate("A000000", 5)
    with pytest.raises(ValueError):
        generate(sequences.TRINOMIAL, 0)
