import pytest

from cubelab.oeisclient import BFile, FetchError, compare, fetch, parse_bfile
from cubelab.verify import run_verification


def test_fixture_fetch():
    b = fetch("A038717")
    assert b.source == "fixture"
    assert b.terms[:5] == ((0, 1), (1, 1), (2, 1), (3, 0), (4, 1))


def test_invalid_identifier():
    for bad in ("A000000x", "B123456", "A12345", ""):
        with pytest.raises(ValueError):
            fetch(bad)


def test_valid_identifier_without_fixture_offline():
    with pytest.raises(FetchError, match="no b-file bundled for A000045"):
        fetch("A000045")


def test_parse_skips_comments_and_rejects_junk():
    terms = parse_bfile("# a comment\n0 1\n1 -5\n\n2 9\n")
    assert terms == ((0, 1), (1, -5), (2, 9))
    with pytest.raises(ValueError):
        parse_bfile("0 1\n1 two\n")
    with pytest.raises(ValueError):
        parse_bfile("0 1 2\n")
    with pytest.raises(ValueError):
        parse_bfile("1 1\n1 2\n")  # non-increasing index


def test_verify_ignores_old_cache(tmp_path, monkeypatch):
    # a wrong but parseable A038717 where the old cache lived: at
    # $CUBELAB_OEIS_CACHE and under ~/.cache
    wrong = "0 1\n1 1\n2 1\n3 1\n"
    env_cache = tmp_path / "env-cache"
    home_cache = tmp_path / "home" / ".cache" / "cubelab" / "oeis"
    for cache in (env_cache, home_cache):
        cache.mkdir(parents=True)
        (cache / "b038717.txt").write_text(wrong)
    monkeypatch.setenv("CUBELAB_OEIS_CACHE", str(env_cache))
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert fetch("A038717").source == "fixture"
    entries = run_verification(claims=["sequences"]).entries
    assert [e["status"] for e in entries] == ["pass"]


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
