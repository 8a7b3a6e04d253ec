"""OEIS b-files, read from the fixtures bundled with the package.

Every A-number that `cubelab verify` compares against ships as a b-file
under `cubelab/fixtures/`; nothing else is consulted, so the verdict does
not depend on the machine it runs on.
"""

import re
from dataclasses import dataclass
from importlib import resources

_ANUM_RE = re.compile(r"^A\d{6}$")


class FetchError(RuntimeError):
    """Raised when a b-file cannot be obtained."""


@dataclass(frozen=True)
class BFile:
    anum: str
    terms: tuple
    source: str

    def as_dict(self) -> dict:
        return dict(self.terms)


def parse_bfile(text: str) -> tuple:
    """Parse b-file lines 'index value'; '#' lines are comments.

    Indices must be strictly increasing; anything else is malformed.
    """
    terms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed b-file line {lineno}: {raw!r}")
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"malformed b-file line {lineno}: {raw!r}") from None
        if terms and index <= terms[-1][0]:
            raise ValueError(f"non-increasing index at b-file line {lineno}")
        terms.append((index, value))
    return tuple(terms)


def fetch(anum: str) -> BFile:
    """The b-file of `anum` bundled under `cubelab/fixtures/`.

    Raises ValueError for a malformed identifier and FetchError when no
    fixture is bundled for it.
    """
    if not _ANUM_RE.match(anum or ""):
        raise ValueError(f"invalid OEIS identifier {anum!r}")
    ref = resources.files("cubelab") / "fixtures" / f"b{anum[1:]}.txt"
    if not ref.is_file():
        raise FetchError(f"no b-file bundled for {anum}")
    return BFile(anum, parse_bfile(ref.read_text()), "fixture")


@dataclass(frozen=True)
class CompareResult:
    matched: int
    first_mismatch: tuple | None


def compare(local, remote: BFile, offset: int = 0) -> CompareResult:
    """Compare local[i] against the remote value at index offset + i.

    Stops at the end of the overlap; a mismatch reports (position, local
    value, remote value).
    """
    if len(local) == 0:
        raise ValueError("local sequence is empty")
    values = remote.as_dict()
    matched = 0
    for i, x in enumerate(local):
        if offset + i not in values:
            break
        if values[offset + i] != x:
            return CompareResult(matched=matched, first_mismatch=(i, x, values[offset + i]))
        matched += 1
    return CompareResult(matched=matched, first_mismatch=None)
