import pytest
import requests

from cubelab.oeisclient import BFile, FetchError, compare, fetch, parse_bfile


def test_fixture_fetch():
    b = fetch("A038717", offline=True)
    assert b.source == "fixture"
    assert b.terms[:5] == ((0, 1), (1, 1), (2, 1), (3, 0), (4, 1))


def test_invalid_identifier():
    for bad in ("A000000x", "B123456", "A12345", ""):
        with pytest.raises(ValueError):
            fetch(bad)


def test_valid_identifier_without_fixture_offline():
    with pytest.raises(FetchError):
        fetch("A000045", offline=True)


def test_parse_skips_comments_and_rejects_junk():
    terms = parse_bfile("# a comment\n0 1\n1 -5\n\n2 9\n")
    assert terms == ((0, 1), (1, -5), (2, 9))
    with pytest.raises(ValueError):
        parse_bfile("0 1\n1 two\n")
    with pytest.raises(ValueError):
        parse_bfile("0 1 2\n")
    with pytest.raises(ValueError):
        parse_bfile("1 1\n1 2\n")  # non-increasing index


def test_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("CUBELAB_OEIS_CACHE", str(tmp_path))
    first = fetch("A075848", offline=True)
    assert first.source == "fixture"
    (tmp_path / "b075848.txt").write_text("0 0\n1 6\n2 36\n")
    cached = fetch("A075848", offline=True)
    assert cached.source == "cache"
    assert cached.terms == ((0, 0), (1, 6), (2, 36))


def test_truncated_cache_does_not_shadow_fixture(tmp_path, monkeypatch):
    monkeypatch.setenv("CUBELAB_OEIS_CACHE", str(tmp_path))
    (tmp_path / "b075848.txt").write_text("0 0\n1 6\n2")  # cut mid-line
    b = fetch("A075848", offline=True)
    assert b.source == "fixture"
    assert b.terms[:3] == ((0, 0), (1, 6), (2, 36))


class _Response:
    text = "0 0\n1 1\n2 1\n3 2\n"

    def raise_for_status(self):
        pass


def test_corrupt_cache_is_replaced_from_network(tmp_path, monkeypatch):
    monkeypatch.setenv("CUBELAB_OEIS_CACHE", str(tmp_path))
    monkeypatch.setattr(requests, "get", lambda url, timeout: _Response())
    (tmp_path / "b000045.txt").write_text("0 0\n1 x\n")
    with pytest.raises(FetchError):
        fetch("A000045", offline=True)
    b = fetch("A000045", offline=False)
    assert b.source == "network" and b.terms[3] == (3, 2)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b000045.txt"]
    assert fetch("A000045", offline=True).source == "cache"


def test_compare_identical():
    remote = BFile("A000001", tuple(enumerate([3, 1, 4, 1, 5])), "fixture")
    result = compare([3, 1, 4, 1, 5], remote)
    assert result.matched == 5 and result.first_mismatch is None


def test_compare_mismatch_position():
    remote = BFile("A000001", tuple(enumerate([3, 1, 4, 1, 5])), "fixture")
    result = compare([3, 1, 9, 1, 5], remote)
    assert result.matched == 2
    assert result.first_mismatch == (2, 9, 4)


def test_compare_overlap_capped():
    remote = BFile("A000001", tuple(enumerate([3, 1])), "fixture")
    result = compare([3, 1, 4, 1], remote)
    assert result.matched == 2 and result.first_mismatch is None
    with pytest.raises(ValueError):
        compare([], remote)


def test_compare_with_offset():
    remote = BFile("A000001", ((2, 10), (3, 11), (4, 12)), "fixture")
    result = compare([10, 11, 12], remote, offset=2)
    assert result.matched == 3 and result.first_mismatch is None
