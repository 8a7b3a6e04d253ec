"""Claim-by-claim verification harness behind the `verify` CLI command.

Each claim function yields report entries {claim, n, status, max_abs_err,
details}.  Status is "pass", "fail", or "discrepancy-noted"; the latter is
reserved for the known formula-vs-oracle mismatch of the degree-regular
cube at n = 3, so known ambiguities never break CI.  Reports are
deterministic: fixed RNG seeds, no timestamps, sorted JSON keys.
"""

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import oeisclient, sequences
from .bitspace import ternary_vertex
from .cubegraphs import (
    eulerian_circuit,
    hamming_distance_matrix,
    pow_cube_adjacency,
    pow_hamming_matrix,
    pow_tricube_laplacian,
    regular_tricube_adjacency,
    tricube_laplacian,
)
from .harmonic import kernel_basis, min_energy_search
from .meshcotan import BOTH, EVEN, ODD, build_cube_cotan_geometric
from .predicates import caf, n_related, n_shared
from .spectra import (
    centro_block_diagonalize,
    classify_lattice,
    eig_identity_check,
    eig_sym,
    ramanujan_check,
    spectral_stats,
)

CLAIM_IDS = (
    "theorem1",
    "theorem2",
    "theorem3",
    "theorem4",
    "theorem5",
    "theorem6",
    "theorem7",
    "properties-L",
    "properties-D",
    "sequences",
    "extremes",
    "euler",
    "poisson",
    "caf",
    "identity",
)

DEFAULT_RANGES = {
    "theorem1": range(3, 7),
    "theorem2": range(2, 9),
    "theorem3": range(2, 11),
    "theorem5": range(1, 8),
    "theorem6": range(1, 8),
    "theorem7": range(1, 7),
    "properties-L": range(2, 7),
    "properties-D": range(2, 9),
    "extremes": range(2, 7),
    "euler": range(3, 7),
    "identity": range(2, 4),
}


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
        payload = {"entries": list(self.entries), "summary": self.summary()}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())


def _entry(claim, n, ok, err, details="") -> dict:
    return {
        "claim": claim,
        "n": n,
        "status": "pass" if ok else "fail",
        "max_abs_err": float(err),
        "details": details,
    }


def _restrict(claim: str, n_range) -> list[int]:
    default = DEFAULT_RANGES[claim]
    if n_range is None:
        return list(default)
    return [n for n in n_range if n in default]


def _check_theorem1(n_range):
    for n in _restrict("theorem1", n_range):
        ref = tricube_laplacian(n).entries
        err = 0.0
        for arrangement in (EVEN, ODD, BOTH):
            geo = build_cube_cotan_geometric(n, arrangement).entries
            err = max(err, float(np.abs(geo - ref).max()))
        yield _entry("theorem1", n, err <= 1e-12, err, "geometric == n*I - E, all arrangements")


def _binomial_laplacian_spectrum(n: int) -> np.ndarray:
    values = []
    for k in range(n + 1):
        values.extend([2.0 * k] * math.comb(n, k))
    return np.array(sorted(values))


def _check_theorem2(n_range):
    for n in _restrict("theorem2", n_range):
        spec = eig_sym(tricube_laplacian(n))
        err = float(np.abs(spec.values - _binomial_laplacian_spectrum(n)).max())
        ok = err <= 1e-8
        details = "spectrum = 2k with multiplicity C(n,k)"
        if n == 2:
            boundary = eig_sym(build_cube_cotan_geometric(2, EVEN))
            berr = float(np.abs(boundary.values - np.array([0.0, 1.0, 1.0, 2.0])).max())
            err = max(err, berr)
            ok = ok and berr <= 1e-10
            details += "; boundary form spectrum = {0,1,1,2}"
        yield _entry("theorem2", n, ok, err, details)


def _check_theorem3(n_range):
    for n in _restrict("theorem3", n_range):
        result = ramanujan_check(regular_tricube_adjacency(n))
        ram_ok = result.is_ramanujan == (n < 6)
        formula = n * (n - 3) / 2.0
        err = abs(result.max_nontrivial - formula)
        if n == 3:
            status = "discrepancy-noted" if ram_ok else "fail"
            yield {
                "claim": "theorem3",
                "n": n,
                "status": status,
                "max_abs_err": err,
                "details": (
                    f"formula n(n-3)/2 = {formula} but oracle max nontrivial |eig| "
                    f"= {result.max_nontrivial:.6f}; Ramanujan status OK"
                ),
            }
            continue
        if n >= 4:
            ok = ram_ok and err <= 1e-8
            details = f"Ramanujan {result.is_ramanujan} (bound {result.bound:.6f}); formula matches oracle"
        else:
            ok, err = ram_ok, 0.0
            details = f"Ramanujan {result.is_ramanujan} (bound {result.bound:.6f})"
        yield _entry("theorem3", n, ok, err, details)


def _check_theorem4(n_range):
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


def _check_theorem5(n_range):
    unit = math.sqrt(2.0)
    for n in _restrict("theorem5", n_range):
        spec = eig_sym(pow_cube_adjacency(n))
        err = float(np.abs(spec.values - np.round(spec.values / unit) * unit).max())
        counts = classify_lattice(spec, unit)
        row = sequences.trinomial_row(n)
        expected = {j - n: row[j] for j in range(2 * n + 1)}
        ok = counts == expected and err <= 1e-6
        yield _entry("theorem5", n, ok, err, "sqrt(2) lattice with trinomial multiplicities")


def _powtri_oracle(n: int) -> np.ndarray:
    sums = [float(sum(t)) for t in itertools.product((0, 1, 3), repeat=n)]
    return np.array(sorted(sums))


def _check_theorem6(n_range):
    for n in _restrict("theorem6", n_range):
        spec = eig_sym(pow_tricube_laplacian(n))
        oracle = _powtri_oracle(n)
        err = float(np.abs(spec.values - oracle).max())
        counts = classify_lattice(spec, 1.0, tol=1e-8)
        present = counts is not None and all(
            counts.get(k, 0) > 0 for k in range(3 * n + 1) if k != 3 * n - 1
        )
        absent = counts is not None and counts.get(3 * n - 1, 0) == 0
        ok = err <= 1e-8 and present and absent
        yield _entry(
            "theorem6", n, ok, err,
            "spectrum = sums over {0,1,3}^n; all integers 0..3n except 3n-1",
        )


def _check_theorem7(n_range):
    for n in _restrict("theorem7", n_range):
        a = pow_hamming_matrix(n, "ternary").entries
        b = pow_hamming_matrix(n, "ternary-gray").entries
        ok = np.array_equal(a, b)
        err = 0.0 if ok else float(np.abs(a - b).max())
        yield _entry("theorem7", n, ok, err, "distance matrix identical under both encodings")


def _laplacian_structure_err(gm, radius, eigengap, spectral_gap) -> float:
    entries = gm.entries
    # J M J with J the exchange matrix, as a reversed view
    err = float(np.abs(entries[::-1, ::-1] - entries).max())
    spec = eig_sym(gm)
    stats = spectral_stats(spec)
    err = max(err, abs(stats.radius - radius))
    if eigengap is not None:
        err = max(err, abs(stats.eigengap - eigengap))
    if spectral_gap is not None:
        err = max(err, abs(stats.spectral_gap - spectral_gap))
    blocks = centro_block_diagonalize(gm)
    err = max(err, blocks.offdiag_norm)
    block_values = np.sort(
        np.concatenate(
            [np.linalg.eigvalsh(blocks.minus_block), np.linalg.eigvalsh(blocks.plus_block)]
        )
    )
    # eig_sym may solve the input through these same blocks, so the full
    # matrix's own spectrum is the independent reference here
    full_values = np.linalg.eigvalsh(entries)
    err = max(err, float(np.abs(block_values - full_values).max()))
    kernel_basis(gm)
    return err


def _check_properties_l(n_range):
    for n in _restrict("properties-L", n_range):
        L = tricube_laplacian(n)
        err = _laplacian_structure_err(L, radius=2.0 * n, eigengap=2.0, spectral_gap=2.0)
        err = max(err, abs(float(np.trace(L.entries)) - n * 2**n))
        err = max(err, float(np.abs(L.entries.sum(axis=1)).max()))
        details = "tricube: bisymmetric, trace n*2^n, radius 2n, eigengap 2, blocks"
        structure_ok = True
        if n <= 5:
            P = pow_tricube_laplacian(n)
            perr = _laplacian_structure_err(
                P, radius=3.0 * n, eigengap=1.0 if n >= 2 else None, spectral_gap=2.0
            )
            diag = np.diag(P.entries)
            perr = max(perr, abs(diag.min() - n), abs(diag.max() - 2 * n))
            err = max(err, perr)
            # reversing the ternary index maps x to -x, so the odd order 3^n
            # leaves exactly one fixed vertex, the origin, at the centre
            # index; it borders the plus block
            structure_ok = P.N % 2 == 1 and not any(ternary_vertex(n, P.N // 2).coords)
            details += "; powtri: radius 3n, spectral gap 2, diagonal n..2n, origin at centre"
        yield _entry("properties-L", n, structure_ok and err <= 1e-9, err, details)


def _check_properties_d(n_range):
    for n in _restrict("properties-D", n_range):
        err = 0.0
        N = 1 << n
        for ordering, counterdiag in (("binary", float(n)), ("gray", 1.0)):
            D = hamming_distance_matrix(n, ordering).entries
            err = max(err, float(np.abs(D - D.T).max()), float(np.abs(np.diag(D)).max()))
            err = max(err, abs(float(np.trace(D))))
            err = max(err, float(np.abs(D[::-1, ::-1] - D).max()))
            err = max(err, float(np.abs(np.fliplr(D).diagonal() - counterdiag).max()))
            if n <= 6:
                for k in range(N):
                    slack = D[:, k][:, None] + D[k, :][None, :] - D
                    err = max(err, max(0.0, -float(slack.min())))
        ok = err == 0.0 and (n < 2 or N % 4 == 0)
        yield _entry(
            "properties-D", n, ok, err,
            "symmetric hollow, trace 0, centrosymmetric, counterdiagonal, triangle inequality",
        )


_FIXTURE_CHECKS = (
    # (generator tag, fixture id, offset into the b-file, negate local)
    (sequences.A013609, "A013609", 0, False),
    (sequences.A038220, "A038220", 0, False),
    (sequences.POW_TRI_MULT, "A038717", 0, False),
    (sequences.TRINOMIAL, "A027907", 0, False),
    (sequences.A075848, "A075848", 0, False),
    (sequences.A072221, "A072221", 0, False),
    (sequences.A080956_NEG, "A080956", 0, True),
    (sequences.A120908, "A120908", 2, False),
    (sequences.A003946_NEG, "A003946", 1, True),
    (sequences.A060188, "A060188", 0, False),
    (sequences.A279019, "A279019", 0, False),
)


def _local_terms(tag: str, min_terms: int = 15) -> list[int]:
    if tag in sequences.TRIANGLE_TAGS:
        rows = sequences.generate(tag, 7)
        return [v for row in rows for v in row][:40]
    return sequences.generate(tag, min_terms)


def _check_sequences(n_range, offline=True):
    mismatches = []
    for tag, anum, offset, negate in _FIXTURE_CHECKS:
        local = _local_terms(tag)
        if negate:
            local = [-v for v in local]
        bfile = oeisclient.fetch(anum, offline=offline)
        result = oeisclient.compare(local, bfile, offset=offset)
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


def _check_extremes(n_range):
    for n in _restrict("extremes", n_range):
        spec = eig_sym(pow_hamming_matrix(n))
        closed = sequences.pow_hamming_extremes(n)
        lo, hi = float(spec.values[0]), float(spec.values[-1])
        rel = max(
            abs(lo - closed.lambda_min) / abs(closed.lambda_min),
            abs(hi - closed.lambda_max) / abs(closed.lambda_max),
        )
        neg = -4.0 * 3 ** (n - 2)
        mult_neg = int(np.sum(np.abs(spec.values - neg) <= 1e-6))
        mult_zero = int(np.sum(np.abs(spec.values) <= 1e-6))
        ok = rel <= 1e-6 and mult_neg >= n - 1 and mult_zero == 3**n - n - 1
        yield _entry(
            "extremes", n, ok, rel,
            f"closed-form extremes; mult(-4*3^(n-2)) = {mult_neg}, mult(0) = {mult_zero}",
        )
    e7 = sequences.pow_hamming_extremes(7)
    e4 = sequences.pow_hamming_extremes(4)
    ok = abs(e7.sum) == 5832 and abs(e4.product) == 5832
    yield _entry("extremes", None, ok, 0.0, "|sum(7)| = |product(4)| = 5832")


def _validate_circuit(circuit, adjacency) -> bool:
    if circuit[0] != circuit[-1]:
        return False
    edges = set()
    for a, b in zip(circuit, circuit[1:]):
        if adjacency[a, b] != 1 or (a, b) in edges or (b, a) in edges:
            return False
        edges.add((a, b))
    return 2 * len(edges) == int(adjacency.sum())


def _check_euler(n_range):
    for n in _restrict("euler", n_range):
        circuit = eulerian_circuit(n)
        degree = n * (n + 1) // 2
        if degree % 2 == 0:
            adj = regular_tricube_adjacency(n).entries
            ok = circuit is not None and _validate_circuit(circuit, adj)
            details = f"circuit over {int(adj.sum()) // 2} edges validated"
        else:
            ok = circuit is None
            details = f"no circuit (odd degree {degree})"
        yield _entry("euler", n, ok, 0.0, details)


def _check_poisson(n_range):
    result = min_energy_search(3)
    err = abs(result.best_energy - 2.0 / 3.0)
    ok = err <= 1e-10
    ok = ok and result.energy_as_fraction() == Fraction(2, 3)
    ok = ok and result.best_patterns == ((0, 3, 5, 6), (1, 2, 4, 7))
    yield _entry(
        "poisson", 3, ok, err,
        "minimum energy 2/3 at the parity patterns {2,3,5,8}/{1,4,6,7} (1-based)",
    )


def _predicate_oracle(n: int):
    """Exhaustive census of all nonempty vertex subsets by rank."""
    vertices = range(2**n)
    by_rank: dict[int, list[frozenset]] = {}
    for r in range(1, 2**n + 1):
        by_rank[r] = [frozenset(c) for c in itertools.combinations(vertices, r)]
    return by_rank


def _check_caf(n_range):
    ok = all(caf(3, r, 1) == Fraction(r, 8) for r in range(1, 9))
    for n in range(1, 6):
        ok = ok and all(caf(n, 2**n, p) == 1 for p in (1, 2, 2**n))
        ok = ok and all(caf(n, r, 2**n) == 1 for r in range(1, 2**n + 1))
    for n in range(1, 4):
        by_rank = _predicate_oracle(n)
        px = list(range(2**n))
        for r in range(1, 2**n + 1):
            for p in range(1, 2**n + 1):
                fixed = frozenset(px[:p])
                related = sum(1 for s in by_rank[r] if s & fixed)
                ok = ok and related == n_related(n, r, p)
                if p <= r:
                    shared = {
                        sum(1 for s in by_rank[r] if frozenset(combo) <= s)
                        for combo in itertools.combinations(px, p)
                    }
                    ok = ok and shared == {n_shared(n, r, p)}
    yield _entry(
        "caf", None, ok, 0.0,
        "linear p=1 sequence, saturation, exhaustive oracle and invariance at n <= 3",
    )


def _check_identity(n_range, seed: int = 20240913):
    rng = np.random.default_rng(seed)
    for n in _restrict("identity", n_range):
        L = tricube_laplacian(n)
        worst = 0.0
        ok = True
        for _ in range(10):
            B = rng.uniform(-1.0, 1.0, size=(L.N, L.N - 1))
            res = eig_identity_check(L, B)
            ok = ok and res.agree
            worst = max(worst, res.rel_err)
        yield _entry("identity", n, ok, worst, "det(B^T L B) identity on 10 random B")


_CHECKS = {
    "theorem1": _check_theorem1,
    "theorem2": _check_theorem2,
    "theorem3": _check_theorem3,
    "theorem4": _check_theorem4,
    "theorem5": _check_theorem5,
    "theorem6": _check_theorem6,
    "theorem7": _check_theorem7,
    "properties-L": _check_properties_l,
    "properties-D": _check_properties_d,
    "sequences": _check_sequences,
    "extremes": _check_extremes,
    "euler": _check_euler,
    "poisson": _check_poisson,
    "caf": _check_caf,
    "identity": _check_identity,
}


def run_verification(claims=None, n_range=None, offline: bool = True) -> VerificationReport:
    """Run the requested claims (all by default) and collect a report."""
    if claims is None:
        claims = CLAIM_IDS
    entries = []
    for claim in claims:
        if claim not in _CHECKS:
            raise ValueError(f"unknown claim id {claim!r}")
        check = _CHECKS[claim]
        if claim == "sequences":
            entries.extend(check(n_range, offline=offline))
        else:
            entries.extend(check(n_range))
    return VerificationReport(entries=tuple(entries))
