"""Claim-by-claim verification harness behind the `verify` CLI command.

Each claim function yields report entries {claim, n, status, max_abs_err,
details}.  Status is "pass", "fail", or "discrepancy-noted"; the latter is
reserved for the known formula-vs-oracle mismatch of the degree-regular
cube at n = 3, so known ambiguities never break CI.  Reports are
deterministic: fixed RNG seeds, no timestamps, sorted JSON keys.

`CLAIMS` maps each claim id, in report order, to its check and its
default dimensions; `run_verification` keeps those that lie in the
requested n, each once, and hands each check its list of n.  The
`sequences` claim checks every `sequences.SEQUENCES` row that names an
OEIS entry against that entry's bundled b-file.  The spectral claims
compare the ascending eigenvalues with an exact {value: multiplicity}
oracle; `properties-L` compares them split by the J-parity of the
eigenvectors that `eig_sym` returns, so no check calls LAPACK itself.
The `identity` claim compares two Python ints per draw of B,
N det(B^T L B) and P det([B | 1])^2, P the product of tricube's nonzero
integer eigenvalues, with determinants by exact Bareiss elimination.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import oeisclient, sequences
from .bitspace import ternary_vertex
from .cubegraphs import (
    _ORDERINGS,
    STRUCTURE_TOL,
    eulerian_circuit,
    hamming_distance_matrix,
    pow_cube_adjacency,
    pow_hamming_matrix,
    pow_tricube_laplacian,
    regular_tricube_adjacency,
    tricube_laplacian,
)
from .harmonic import kernel_from_spectrum, min_energy_search
from .meshcotan import BOTH, EVEN, ODD, build_cube_cotan_geometric
from .predicates import caf, n_related, n_shared
from .spectra import centro_deviation, eig_sym, ramanujan_check, spectral_stats

@dataclass(frozen=True)
class VerificationReport:
    entries: tuple

    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "discrepancy-noted": 0}
        for e in self.entries:
            counts[e["status"]] += 1
        return counts

    @property
    def ok(self) -> bool:
        return self.summary()["fail"] == 0

    def to_json(self) -> str:
        """The report as RFC 8259 JSON: a non-finite `max_abs_err` is
        written as null, and any other NaN or infinity raises ValueError."""
        entries = [
            {**e, "max_abs_err": e["max_abs_err"] if math.isfinite(e["max_abs_err"]) else None}
            for e in self.entries
        ]
        payload = {"entries": entries, "summary": self.summary()}
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())


def _entry(claim, n, ok, err, details="", status="pass") -> dict:
    """A report entry whose status is `status` when ok, else "fail"."""
    return {
        "claim": claim,
        "n": n,
        "status": status if ok else "fail",
        "max_abs_err": float(err),
        "details": details,
    }


def _check_theorem1(ns):
    for n in ns:
        ref = tricube_laplacian(n).entries
        err = 0.0
        for arrangement in (EVEN, ODD, BOTH):
            geo = build_cube_cotan_geometric(n, arrangement).entries
            err = max(err, float(np.abs(geo - ref).max()))
        yield _entry("theorem1", n, err == 0.0, err, "geometric == n*I - E, all arrangements")


def _deviation(values: np.ndarray, exact: dict) -> np.ndarray:
    """|values - oracle| per position: the ascending eigenvalues against
    the ascending expansion of the exact {value: multiplicity} multiset,
    or all inf when the total multiplicity is not len(values)."""
    if sum(exact.values()) != len(values):
        return np.full(len(values), math.inf)
    keys = sorted(exact)
    return np.abs(values - np.repeat(np.array(keys, dtype=float), [exact[k] for k in keys]))


def _check_theorem2(ns):
    for n in ns:
        spec = eig_sym(tricube_laplacian(n))
        binomial = {2 * k: math.comb(n, k) for k in range(n + 1)}
        err = float(_deviation(spec.values, binomial).max())
        ok = err <= 1e-8
        details = "spectrum = 2k with multiplicity C(n,k)"
        if n == 2:
            boundary = eig_sym(build_cube_cotan_geometric(2, EVEN))
            berr = float(_deviation(boundary.values, {0: 1, 1: 2, 2: 1}).max())
            err = max(err, berr)
            ok = ok and berr <= 1e-10
            details += "; boundary form spectrum = {0,1,1,2}"
        yield _entry("theorem2", n, ok, err, details)


def _check_theorem3(ns):
    for n in ns:
        result = ramanujan_check(regular_tricube_adjacency(n))
        ram_ok = result.is_ramanujan == (n < 6)
        formula = n * (n - 3) / 2.0
        err = abs(result.max_nontrivial - formula)
        details = f"Ramanujan {result.is_ramanujan} (bound {result.bound:.6f})"
        status = "pass"
        if n == 3:
            # the spectrum is {6, 0 x4, -2 x3}
            ok = ram_ok and abs(result.max_nontrivial - 2.0) <= 1e-8
            status = "discrepancy-noted"
            details += (
                f"; formula n(n-3)/2 = {formula} is lambda_1, the k = 1 eigenvalue, but the "
                f"largest nontrivial |eig| is |lambda_2| = 2 (oracle {result.max_nontrivial:.6f})"
            )
        elif n >= 4:
            ok = ram_ok and err <= 1e-8
            details += "; formula matches oracle"
        else:
            ok, err = ram_ok, 0.0
        yield _entry("theorem3", n, ok, err, details, status)


def _check_theorem4():
    a = sequences.generate(sequences.A075848, 6)
    b = sequences.generate(sequences.A072221, 6)
    ok = a[:5] == [0, 6, 36, 210, 1224] and b[:5] == [1, 4, 25, 148, 865]
    for k in range(6):
        d = b[k] * (b[k] + 1) // 2 - 1
        root = math.isqrt(d) if d >= 0 else -1
        ok = ok and d >= 0 and root * root == d and 2 * root == a[k]
    yield _entry(
        "theorem4", None, ok, 0.0,
        "recurrence terms and exact integrality of 2*sqrt(n(n+1)/2 - 1) at n in A072221",
    )


def _check_theorem5(ns):
    unit = math.sqrt(2.0)
    for n in ns:
        spec = eig_sym(pow_cube_adjacency(n))
        row = sequences.trinomial_row(n)
        lattice = {j * unit: row[j + n] for j in range(-n, n + 1)}
        err = float(_deviation(spec.values, lattice).max())
        ok = err <= 1e-6
        yield _entry("theorem5", n, ok, err, "sqrt(2) lattice with trinomial multiplicities")


def _powtri_parity_spectra(n: int) -> tuple[Counter, Counter]:
    """The independent oracle of powtri: every sum over {0,1,3}^n,
    enumerated, as exact {value: multiplicity} multisets split by the
    parity of the number of 1-digits, (even, odd): the values of the
    J-symmetric and of the J-antisymmetric eigenvectors."""
    digits = np.array([0, 1, 3])[np.indices((3,) * n).reshape(n, -1)]
    sums, odd = digits.sum(axis=0), (digits == 1).sum(axis=0) % 2
    return tuple(Counter(sums[odd == p].tolist()) for p in (0, 1))


def _check_theorem6(ns):
    for n in ns:
        spec = eig_sym(pow_tricube_laplacian(n))
        plus, minus = _powtri_parity_spectra(n)
        counts = plus + minus
        err = float(_deviation(spec.values, counts).max())
        present = all(k in counts for k in range(3 * n + 1) if k != 3 * n - 1)
        absent = 3 * n - 1 not in counts
        # the multiplicities the paper names: row n of A038717
        row = sequences.powtri_mult_row(n)
        a038717 = counts == {k: m for k, m in enumerate(row) if m}
        ok = err <= 1e-8 and present and absent and a038717
        yield _entry(
            "theorem6", n, ok, err,
            "spectrum = sums over {0,1,3}^n; all integers 0..3n except 3n-1; "
            "multiplicities = A038717 row n",
        )


def _check_theorem7(ns):
    _, vertex_ordering = _ORDERINGS[3]
    for n in ns:
        a = pow_hamming_matrix(n, "ternary").entries
        b = pow_hamming_matrix(n, "ternary-gray").entries
        # from n = 2 on, the two encodings must order the vertices apart,
        # or the equality below holds by construction
        reordered = n < 2 or vertex_ordering(n, "ternary-gray") != list(range(3**n))
        ok = reordered and np.array_equal(a, b)
        err = 0.0 if ok else float(np.abs(a - b).max())
        yield _entry("theorem7", n, ok, err, "distance matrix identical under both encodings")


def _laplacian_structure_err(gm, radius, eigengap, spectral_gap, split) -> tuple[float, bool]:
    """(err, bisymmetric); a matrix off bisymmetry is not solved, and its
    err is its `centro_deviation`.

    A bisymmetric matrix splits by J, the index reversal: its eigenbasis
    can be taken J-symmetric (J v = v) or J-antisymmetric (J v = -v) column
    by column (Cantoni & Butler 1976).  Each returned column v takes e = -1
    where v^T J v < 0, else +1; err takes max |J v - e v|, and the values
    of the e = +1 and e = -1 columns are compared with the exact multisets
    of `split`, (plus, minus).
    """
    entries = gm.entries
    err = centro_deviation(entries)
    if err > STRUCTURE_TOL:
        return err, False
    spec = eig_sym(gm)
    stats = spectral_stats(spec)
    err = max(err, abs(stats.radius - radius))
    if eigengap is not None:
        err = max(err, abs(stats.eigengap - eigengap))
    if spectral_gap is not None:
        err = max(err, abs(stats.spectral_gap - spectral_gap))
    V = spec.vectors
    JV = V[::-1]
    odd = np.einsum("ij,ij->j", V, JV) < 0
    err = max(err, float(np.abs(JV - np.where(odd, -V, V)).max()))
    plus, minus = split
    dev = np.concatenate([_deviation(spec.values[~odd], plus), _deviation(spec.values[odd], minus)])
    kernel_from_spectrum(entries, spec)
    return max(err, float(dev.max())), True


def _check_properties_l(ns):
    for n in ns:
        L = tricube_laplacian(n)
        binomial = [{2 * k: math.comb(n, k) for k in range(p, n + 1, 2)} for p in (0, 1)]
        err, ok = _laplacian_structure_err(L, radius=2.0 * n, eigengap=2.0, spectral_gap=2.0,
                                           split=binomial)
        err = max(err, float(np.abs(L.entries.sum(axis=1)).max()))
        details = (
            "tricube: bisymmetric, trace n*2^n exactly, radius 2n, eigengap 2, "
            "J-parity split: 2k x C(n,k) by the parity of k"
        )
        ok = ok and float(np.trace(L.entries)) == n * 2**n
        if n <= 5:
            P = pow_tricube_laplacian(n)
            perr, p_ok = _laplacian_structure_err(
                P, radius=3.0 * n, eigengap=1.0 if n >= 2 else None, spectral_gap=2.0,
                split=_powtri_parity_spectra(n),
            )
            diag = np.diag(P.entries)
            perr = max(perr, abs(diag.min() - n), abs(diag.max() - 2 * n))
            err = max(err, perr)
            # reversing the ternary index maps x to -x, so the odd order 3^n
            # leaves exactly one fixed vertex, the origin, at the centre index
            ok = ok and p_ok and P.N % 2 == 1 and not any(ternary_vertex(n, P.N // 2).coords)
            details += (
                "; powtri: radius 3n, spectral gap 2, diagonal n..2n, origin at centre, "
                "J-parity split by the parity of the count of 1-digits"
            )
        yield _entry("properties-L", n, ok and err <= 1e-9, err, details)


def _check_properties_d(ns):
    for n in ns:
        err = 0.0
        N = 1 << n
        for ordering, counterdiag in (("binary", float(n)), ("gray", 1.0)):
            D = hamming_distance_matrix(n, ordering).entries
            err = max(err, float(np.abs(D - D.T).max()), float(np.abs(np.diag(D)).max()))
            err = max(err, abs(float(np.trace(D))))
            err = max(err, centro_deviation(D))
            err = max(err, float(np.abs(np.fliplr(D).diagonal() - counterdiag).max()))
            if n <= 6:
                # slack[i, k, j] = D[i, k] + D[k, j] - D[i, j], in one pass
                slack = D[:, :, None] + D[None, :, :] - D[:, None, :]
                err = max(err, max(0.0, -float(slack.min())))
        ok = err == 0.0 and (n < 2 or N % 4 == 0)
        yield _entry(
            "properties-D", n, ok, err,
            "symmetric hollow, trace 0, centrosymmetric, counterdiagonal, triangle inequality",
        )


def _check_sequences():
    # each generator with an OEIS entry against its b-file: 15 terms, or
    # the first 40 entries of a triangle's rows
    mismatches = []
    for tag, seq in sequences.SEQUENCES.items():
        if seq.oeis is None:
            continue
        anum, offset, sign = seq.oeis
        if seq.start is None:
            local = [v for row in sequences.generate(tag, 7) for v in row][:40]
        else:
            local = sequences.generate(tag, 15)
        bfile = oeisclient.fetch(anum)
        result = oeisclient.compare([sign * v for v in local], bfile, offset=offset)
        if result.first_mismatch is not None or result.matched < min(15, len(local)):
            mismatches.append(f"{tag} vs {anum}: {result}")
    ok = not mismatches

    for n in range(11):
        ok = ok and sum(sequences.generate(sequences.A038220, n + 1)[n]) == 5**n
        row = sequences.trinomial_row(n)
        ok = ok and sum(row) == 3**n and row == row[::-1]
        mult = sequences.powtri_mult_row(n)
        ok = ok and mult[0] == 1 and mult[3 * n] == 1
        ok = ok and (n == 0 or mult[3 * n - 1] == 0)

    err = abs(sequences.fine_structure(math.pi) - 137.036303776)
    ok = ok and err <= 1e-9
    ok = ok and sequences.fine_structure(4) / 2 - 1 == 137

    for n, radius in ((2, 1.0), (3, 1.0), (4, 2.0), (7, 1.5)):
        m = sequences.ball_measures(n, radius)
        lower = sequences.ball_measures(n - 2, radius)
        identity = abs(m.surface - 2 * math.pi * radius * lower.volume)
        err = max(err, identity)
        ok = ok and identity <= 1e-12 * max(1.0, m.surface)

    for n, v, kiss, emb in ((3, 12, 12, True), (4, 20, 24, False), (8, 72, 240, False)):
        ve = sequences.vector_equilibrium(n)
        ok = ok and ve.v_count == v and ve.kissing_known == kiss and ve.cartesian_embeddable == emb

    details = "fixtures, row sums, fine structure, ball identity, vector equilibrium"
    if mismatches:
        details += "; mismatches: " + "; ".join(mismatches)
    yield _entry("sequences", None, ok, err, details)


def _check_extremes(ns):
    for n in ns:
        spec = eig_sym(pow_hamming_matrix(n))
        closed = sequences.pow_hamming_extremes(n)
        mult_neg, mult_zero = n - 1, 3**n - n - 1
        exact = {
            closed.lambda_min: 1, -4.0 * 3 ** (n - 2): mult_neg, 0: mult_zero,
            closed.lambda_max: 1,
        }
        dev = _deviation(spec.values, exact)
        # relative on the two ends, absolute in between
        rel = max(dev[0] / abs(closed.lambda_min), dev[-1] / abs(closed.lambda_max))
        ok = rel <= 1e-6 and dev[1:-1].max() <= 1e-6
        yield _entry(
            "extremes", n, ok, rel,
            f"closed-form extremes; mult(-4*3^(n-2)) = {mult_neg}, mult(0) = {mult_zero}",
        )
    e7 = sequences.pow_hamming_extremes(7)
    e4 = sequences.pow_hamming_extremes(4)
    ok = abs(e7.sum) == 5832 and abs(e4.product) == 5832
    yield _entry("extremes", None, ok, 0.0, "|sum(7)| = |product(4)| = 5832")


def _validate_circuit(circuit, adjacency, n_edges: int) -> bool:
    """A closed walk over distinct edges of `adjacency` that covers all of
    them, n_edges in number."""
    if circuit[0] != circuit[-1]:
        return False
    edges = set()
    for a, b in zip(circuit, circuit[1:]):
        if adjacency[a, b] != 1 or (a, b) in edges or (b, a) in edges:
            return False
        edges.add((a, b))
    return len(edges) == n_edges and 2 * n_edges == int(adjacency.sum())


def _check_euler(ns):
    for n in ns:
        circuit = eulerian_circuit(n)
        degree = n * (n + 1) // 2
        if degree % 2 == 0:
            edges = degree * 2 ** (n - 1)
            adj = regular_tricube_adjacency(n).entries
            ok = circuit is not None and _validate_circuit(circuit, adj, edges)
            details = f"circuit over {edges} = n(n+1)/2 * 2^(n-1) edges validated"
        else:
            ok = circuit is None
            details = f"no circuit (odd degree {degree})"
        yield _entry("euler", n, ok, 0.0, details)


def _check_poisson():
    result = min_energy_search(3)
    err = abs(result.best_energy - Fraction(2, 3))
    ok = result.best_energy == Fraction(2, 3)
    ok = ok and result.best_patterns == ((0, 3, 5, 6), (1, 2, 4, 7))
    yield _entry(
        "poisson", 3, ok, err,
        "minimum energy 2/3 at the parity patterns {2,3,5,8}/{1,4,6,7} (1-based)",
    )


def _caf_census(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exhaustive census over every nonempty subset of the 2^n vertices,
    each a bitmask: per fixed subset, its size p and, per rank r = 1..2^n,
    the number of rank-r subsets that meet it and that contain it.

    meet[f, s] = fixed subset f & subset s, and each count is taken per
    rank r of s through the one-hot `of_rank`.
    """
    subsets = np.arange(1, 1 << 2**n)
    size = np.bitwise_count(subsets)
    of_rank = (size[:, None] == np.arange(1, 2**n + 1)).astype(np.int64)
    meet = subsets[:, None] & subsets
    return size, (meet != 0) @ of_rank, (meet == subsets[:, None]) @ of_rank


def _check_caf():
    ok = all(caf(3, r, 1) == Fraction(r, 8) for r in range(1, 9))
    for n in range(1, 6):
        ok = ok and all(caf(n, 2**n, p) == 1 for p in range(1, 2**n + 1))
        ok = ok and all(caf(n, r, 2**n) == 1 for r in range(1, 2**n + 1))
    # every fixed subset's census against the formulas, which also checks
    # that the counts depend only on its size p: the formulas are asked once
    # per (n, r, p), into tables indexed by p - 1
    for n in range(1, 4):
        size, related, shared = _caf_census(n)
        ranks = sizes = range(1, 2**n + 1)
        # a rank-r subset holds no fixed subset of size p > r, hence the 0
        want_related = np.array([[n_related(n, r, p) for r in ranks] for p in sizes])
        want_shared = np.array([[n_shared(n, r, p) if p <= r else 0 for r in ranks] for p in sizes])
        ok = ok and np.array_equal(related, want_related[size - 1])
        ok = ok and np.array_equal(shared, want_shared[size - 1])
    yield _entry(
        "caf", None, ok, 0.0,
        "linear p=1 sequence, saturation, exhaustive oracle and invariance at n <= 3",
    )


def _det(M) -> int:
    """det(M) of a square integer array, exactly: Bareiss's fraction-free
    elimination (1968) over Python ints, every division exact, with a row
    swap at a zero pivot."""
    A = M.tolist()
    m, sign, prev = len(A), 1, 1
    for k in range(m - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, m) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap], sign = A[swap], A[k], -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1] if A else 1


def _check_identity(ns):
    rng = np.random.default_rng(20240913)
    for n in ns:
        L = tricube_laplacian(n)
        N, entries = L.N, L.entries.astype(np.int64)
        values = eig_sym(L).values
        nonzero = values[values != 0]
        # L's integer rows sum to 0 (a LAPLACIAN is checked for that when
        # made), so with one zero among integer eigenvalues the unit kernel
        # vector is 1/sqrt(N), and the identity reads, in integers,
        # N det(B^T L B) = P det([B | 1])^2
        simple = nonzero.size == N - 1 and np.array_equal(nonzero, np.round(nonzero))
        P = math.prod(int(v) for v in nonzero) if simple else 0
        ok, err, checked = simple, (0.0 if simple else math.inf), 0
        while simple and checked < 10:
            B = rng.integers(-1, 2, size=(N, N - 1))
            rhs = P * _det(np.column_stack([B, np.ones(N, np.int64)])) ** 2
            if rhs == 0:
                continue  # both sides 0: a singular [B | 1] proves nothing
            lhs = N * _det(B.T @ entries @ B)
            ok = ok and lhs == rhs
            err = max(err, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
            checked += 1
        yield _entry(
            "identity", n, ok, err,
            "N det(B^T L B) == P det([B | 1])^2 in integers, P the product of the nonzero "
            "integer eigenvalues, on 10 {-1,0,1} B with det([B | 1]) != 0",
        )


# claim id -> (check, default dimensions, or None for a claim without n)
CLAIMS = {
    "theorem1": (_check_theorem1, range(3, 7)),
    "theorem2": (_check_theorem2, range(2, 9)),
    "theorem3": (_check_theorem3, range(2, 11)),
    "theorem4": (_check_theorem4, None),
    "theorem5": (_check_theorem5, range(1, 8)),
    "theorem6": (_check_theorem6, range(1, 8)),
    "theorem7": (_check_theorem7, range(1, 7)),
    "properties-L": (_check_properties_l, range(1, 7)),
    "properties-D": (_check_properties_d, range(2, 9)),
    "sequences": (_check_sequences, None),
    "extremes": (_check_extremes, range(2, 7)),
    "euler": (_check_euler, range(3, 7)),
    "poisson": (_check_poisson, None),
    "caf": (_check_caf, None),
    "identity": (_check_identity, range(2, 4)),
}


def run_verification(claims=None, n_range=None) -> VerificationReport:
    """Run the requested claims (all by default) and collect a report.

    A claim with default dimensions checks those of them in `n_range`
    (all of them when it is None), in the default's order: `n_range` is
    asked only `n in n_range`, so its width costs nothing.  A claim
    without n ignores `n_range`.
    """
    if claims is None:
        claims = CLAIMS
    entries = []
    for claim in dict.fromkeys(claims):
        if claim not in CLAIMS:
            raise ValueError(f"unknown claim id {claim!r}")
        check, default = CLAIMS[claim]
        if default is not None:
            entries.extend(check([n for n in default if n_range is None or n in n_range]))
        else:
            entries.extend(check())
    return VerificationReport(entries=tuple(entries))
