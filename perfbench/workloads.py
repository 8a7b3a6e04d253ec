"""The benchmark's three workloads.

Each workload is built from a seed, which only generates its inputs, and
hands the worker three things: `first_op()`, the untimed op whose end
marks the end of set-up; `round_ops()`, the ops of one measured round; and
`final_check()`, a once-per-run correctness check made outside the timed
ops.  An op has a `run` (the timed call into the library), a `check` that
returns an error string or None, and an optional untimed `prepare`.
`digest` holds the hashes of what the first checked op wrote, so that
run.py can compare them across the processes of one run.

The library is always reached through module attributes at call time
(`verify.run_verification`, `cubegraphs.matrix_to_csv`, `cli.main`), so
the tracer's rebinding sees these calls.  Why each workload exists is in
NOTES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from cubelab import cli, cubegraphs, verify

# The default claims with every (claim, n) entry a full verification
# produces: 68 entries, n = None for claims without a dimension.
DEFAULT_ENTRIES = {
    "theorem1": range(3, 7),
    "theorem2": range(2, 9),
    "theorem3": range(2, 11),
    "theorem4": (None,),
    "theorem5": range(1, 8),
    "theorem6": range(1, 8),
    "theorem7": range(1, 7),
    "properties-L": range(2, 7),
    "properties-D": range(2, 9),
    "sequences": (None,),
    "extremes": (*range(2, 7), None),
    "euler": range(3, 7),
    "poisson": (3,),
    "caf": (None,),
    "identity": range(2, 4),
}
EXPECTED_ENTRIES = {(claim, n) for claim, ns in DEFAULT_ENTRIES.items() for n in ns}
NOTED_ENTRY = ("theorem3", 3)

# family -> (constructor in cubelab.cubegraphs, base, smallest n)
FAMILIES = {
    "ncube": ("ncube_adjacency", 2, 1),
    "hamming": ("hamming_distance_matrix", 2, 1),
    "tricube": ("tricube_laplacian", 2, 1),
    "regtricube": ("regular_tricube_adjacency", 2, 2),
    "powcube": ("pow_cube_adjacency", 3, 1),
    "powtri": ("pow_tricube_laplacian", 3, 1),
    "powhamming": ("pow_hamming_matrix", 3, 1),
}
# largest verified n per vertex base, and the orderings each base accepts
LARGEST_N = {2: 10, 3: 7}
ORDERINGS = {2: ("binary", "gray"), 3: ("ternary", "ternary-gray")}

SEQ_IDS = (
    "trinomial", "powtrimult", "A013609", "A038220", "A080956neg", "A075848", "A072221",
    "A120908", "prodseq", "A003946neg", "A060188", "A279019", "ballcoeff",
)


@dataclass
class Op:
    run: Callable
    check: Callable
    prepare: Callable | None = None


def _file_digest(path):
    """sha256 and line count of a file, read in chunks."""
    digest, lines = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 22):
            digest.update(chunk)
            lines += chunk.count(b"\n")
    return digest.hexdigest(), lines


def _build(family, n, ordering):
    return getattr(cubegraphs, FAMILIES[family][0])(n, ordering)


def _ternary_gray_perm(n):
    """Vertex index at each position of the reflected ternary Gray order:
    going from the most significant digit down, a digit d becomes 2 - d
    when the digits above it sum to an odd number."""
    m = np.arange(3**n)
    index = np.zeros_like(m)
    above = np.zeros_like(m)
    for k in range(n - 1, -1, -1):
        digit = (m // 3**k) % 3
        index += np.where(above % 2 == 0, digit, 2 - digit) * 3**k
        above += digit
    return index


def _perm(base, n, ordering):
    size = base**n
    if not isinstance(ordering, str):
        return np.array(ordering)
    if ordering == "gray":
        i = np.arange(size)
        return i ^ (i >> 1)
    if ordering == "ternary-gray":
        return _ternary_gray_perm(n)
    return np.arange(size)


class VerifyDefault:
    """One op: `run_verification()` over the default claims and ranges,
    in a claim order shuffled by the seed."""

    name = "verify-default"
    warmup_rounds = 0

    def __init__(self, seed, workdir):
        self.claims = list(DEFAULT_ENTRIES)
        random.Random(seed).shuffle(self.claims)
        self.digest = None
        self.op = Op(run=self._run, check=self._check)

    def _run(self):
        return verify.run_verification(claims=self.claims)

    def _check(self, report):
        keys = [(e["claim"], e["n"]) for e in report.entries]
        wrong = [
            (k, e["status"])
            for k, e in zip(keys, report.entries)
            if e["status"] != ("discrepancy-noted" if k == NOTED_ENTRY else "pass")
        ]
        if wrong:
            return f"unexpected statuses {wrong}"
        missing = EXPECTED_ENTRIES - set(keys)
        if missing or len(keys) != len(set(keys)):
            return f"entries missing {sorted(missing, key=str)} or repeated"
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            return "report differs from the first pass of this run"
        return None

    def first_op(self):
        return self.op

    def round_ops(self):
        return [self.op]

    def final_check(self):
        return None


class BuildExport:
    """One op: build all seven families at their largest verified n in a
    seed-drawn ordering and write each with `matrix_to_csv`."""

    name = "build-export"
    warmup_rounds = 0

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.plan = []
        for family, (_, base, _) in FAMILIES.items():
            n = LARGEST_N[base]
            choices = ORDERINGS[base] + (("custom",) if base == 2 else ())
            ordering = choices[int(rng.integers(len(choices)))]
            if ordering == "custom":
                ordering = rng.permutation(base**n).tolist()
            self.plan.append((family, base, n, ordering, os.path.join(workdir, f"{family}.csv")))
        self.digest = None
        self.op = Op(run=self._run, check=self._check)

    def _run(self):
        for family, _, n, ordering, path in self.plan:
            cubegraphs.matrix_to_csv(_build(family, n, ordering), path)

    def _check(self, _):
        digests = []
        for family, base, n, _, path in self.plan:
            digest, lines = _file_digest(path)
            if lines != base**n + 2:
                return f"{family}: {lines} lines, expected {base**n + 2}"
            digests.append(digest)
        if self.digest is None:
            self.digest = digests
        elif digests != self.digest:
            return "exported files differ from the first op of this run"
        return None

    def first_op(self):
        return self.op

    def round_ops(self):
        return [self.op]

    def final_check(self):
        """Each seeded-ordering matrix is the canonical one permuted."""
        for family, base, n, ordering, _ in self.plan:
            seeded = _build(family, n, ordering).entries
            canonical = _build(family, n, ORDERINGS[base][0]).entries
            perm = _perm(base, n, ordering)
            if not np.array_equal(seeded, canonical[np.ix_(perm, perm)]):
                return f"{family} n={n}: seeded ordering is not the canonical matrix permuted"
        return None


def _call_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        status = cli.main(argv)
    return status, out.getvalue()


def _remove(path):
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def _check_verify(path):
    entries = json.loads(Path(path).read_text())["entries"]
    failed = [(e["claim"], e["n"]) for e in entries if e["status"] == "fail"]
    return f"fail entries {failed}" if failed else None


def _expect_lines(count):
    def check(path):
        lines = _file_digest(path)[1]
        return None if lines == count else f"{lines} lines, expected {count}"

    return check


def _check_nonempty(path):
    return None if os.path.getsize(path) > 0 else "empty output"


def _check_poisson(path):
    return None if json.loads(Path(path).read_text())["patterns"] else "no patterns"


def _cli_op(argv, path, check_file):
    """An op for one `cli.main(argv)` call that writes `path` (or, when
    `path` is None, whose stdout `check_file` inspects)."""

    def check(result):
        status, text = result
        if status != 0:
            return f"{' '.join(argv)}: exit status {status}: {text.strip()[-200:]}"
        if path is not None and not os.path.exists(path):
            return f"{' '.join(argv)}: {path} not written"
        error = check_file(path if path is not None else text)
        return f"{' '.join(argv)}: {error}" if error else None

    prepare = (lambda: _remove(path)) if path is not None else None
    return Op(run=lambda: _call_cli(argv), check=check, prepare=prepare)


def _expect_euler(n):
    """A circuit exists iff the degree n(n+1)/2 is even; it has 2^n * degree / 2 edges."""
    degree = n * (n + 1) // 2
    expected = f"{2**n * degree // 2} edges" if degree % 2 == 0 else "no Eulerian circuit"

    def check(text):
        last = text.strip().splitlines()[-1]
        return None if last.startswith(expected) else f"last line {last!r}, expected {expected!r}"

    return check


class CliSmall:
    """One op: a single in-process `cli.main(argv)` call at small n; a
    round is the whole seed-shuffled list of calls."""

    name = "cli-small"
    warmup_rounds = 1
    digest = None

    def __init__(self, seed, workdir):
        out = os.path.join(workdir, "cli")
        os.makedirs(out, exist_ok=True)
        ops = []

        def add(argv, ext, check_file, flag="--out"):
            path = os.path.join(out, f"{len(ops)}.{ext}") if ext else None
            ops.append(_cli_op(argv + [flag, path] if path else argv, path, check_file))

        for claim in DEFAULT_ENTRIES:
            for k in range(1, 6):
                add(["verify", "--claims", claim, "--n-range", str(k)], "json", _check_verify,
                    flag="--report")
        for family, (_, base, lowest) in FAMILIES.items():
            for n in range(lowest, 6):
                for ordering in ORDERINGS[base]:
                    spec = ["--family", family, "--n", str(n), "--ordering", ordering]
                    add(["build", *spec], "csv", _expect_lines(base**n + 2))
                    add(["spectrum", *spec], "csv", _expect_lines(base**n + 1))
        for n in range(1, 5):
            add(["activation", "--n", str(n)], "csv", _check_nonempty)
        for n in (3, 4):
            add(["poisson", "--n", str(n)], "json", _check_poisson)
        for seq_id in SEQ_IDS:
            add(["seq", "--id", seq_id], "txt", _check_nonempty)
        for n in range(3, 9):
            add(["euler", "--n", str(n)], None, _expect_euler(n))
        add(["plotdata", "--what", "extremes", "--n-range", "2..7"], "csv", _expect_lines(7))
        random.Random(seed).shuffle(ops)
        self.ops = ops
        path = os.path.join(out, "first.csv")
        self.first = _cli_op(
            ["spectrum", "--family", "powtri", "--n", "3", "--out", path], path, _expect_lines(28)
        )

    def first_op(self):
        return self.first

    def round_ops(self):
        return self.ops

    def final_check(self):
        return None


WORKLOADS = {w.name: w for w in (VerifyDefault, BuildExport, CliSmall)}
