"""OEIS b-file access with an on-disk cache and bundled offline fixtures.

Offline is the default: only the cache and the fixtures shipped with the
package are consulted, keeping the test suite deterministic.  Online mode
falls back to the b-file endpoint and writes through to the cache; it needs
`requests`, which the `online` extra installs.  A cache file that does not
parse is passed over, never trusted.
"""

import os
import re
import threading
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

_ANUM_RE = re.compile(r"^A\d{6}$")
_BFILE_URL = "https://oeis.org/{anum}/b{digits}.txt"

_locks_guard = threading.Lock()
_locks: dict[str, threading.Lock] = {}


class FetchError(RuntimeError):
    """Raised when a b-file cannot be obtained."""


@dataclass(frozen=True)
class BFile:
    anum: str
    terms: tuple
    source: str

    def as_dict(self) -> dict:
        return dict(self.terms)


def _lock_for(anum: str) -> threading.Lock:
    with _locks_guard:
        return _locks.setdefault(anum, threading.Lock())


def cache_dir() -> Path:
    env = os.environ.get("CUBELAB_OEIS_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "cubelab" / "oeis"


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


def _fixture_text(anum: str) -> str | None:
    name = f"b{anum[1:]}.txt"
    ref = resources.files("cubelab") / "fixtures" / name
    if ref.is_file():
        return ref.read_text()
    return None


def fetch(anum: str, offline: bool = True, timeout: float = 10.0) -> BFile:
    """Fetch a b-file: cache, then fixture; online mode adds the network
    endpoint and caches what it downloads.

    A cache file that fails `parse_bfile` (truncated or corrupt) is
    skipped; the download replaces it atomically.
    """
    if not _ANUM_RE.match(anum or ""):
        raise ValueError(f"invalid OEIS identifier {anum!r}")
    cache_path = cache_dir() / f"b{anum[1:]}.txt"
    with _lock_for(anum):
        if cache_path.is_file():
            try:
                return BFile(anum, parse_bfile(cache_path.read_text()), "cache")
            except ValueError:
                pass  # corrupt cache: fall through to the fixture or the network
        fixture = _fixture_text(anum)
        if fixture is not None:
            return BFile(anum, parse_bfile(fixture), "fixture")
        if offline:
            raise FetchError(f"{anum} not cached and no fixture bundled (offline mode)")
        try:
            import requests
        except ImportError:
            raise FetchError(
                f"online fetch of {anum} needs requests: pip install cubelab[online]"
            ) from None

        url = _BFILE_URL.format(anum=anum, digits=anum[1:])
        try:
            response = requests.get(url, timeout=timeout)
            response.raise_for_status()
        except requests.RequestException as exc:
            raise FetchError(f"network fetch of {anum} failed: {exc}") from exc
        terms = parse_bfile(response.text)
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        # readers never see a partly written file: write aside, then rename
        partial = cache_path.with_name(f"{cache_path.name}.{os.getpid()}.tmp")
        partial.write_text(response.text)
        os.replace(partial, cache_path)
        return BFile(anum, terms, "network")


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
