import json
from types import SimpleNamespace

import numpy as np
import pytest

from cubelab import cli, cubegraphs, oeisclient
from cubelab.cli import main
from cubelab.cubegraphs import LAPLACIAN, GraphMatrix


def test_build_tricube_csv(tmp_path):
    out = tmp_path / "tri.csv"
    assert main(["build", "--family", "tricube", "--n", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "tricube,laplacian,3,binary,8"
    entries = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    assert entries.shape == (8, 8)
    assert np.all(np.diag(entries) == 3)


def test_build_powhamming_json(tmp_path):
    out = tmp_path / "ph.json"
    rc = main(["build", "--family", "powhamming", "--n", "1", "--out", str(out), "--format", "json"])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["N"] == 3
    assert payload["entries"] == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


def test_build_precondition_error(tmp_path, capsys):
    rc = main(["build", "--family", "ncube", "--n", "0", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_build_beyond_order_guard_exits_cleanly(tmp_path, monkeypatch, capsys):
    def built_past_guard(*args):
        raise AssertionError("built past the order guard")

    monkeypatch.setattr(cubegraphs, "_kron_tripling", built_past_guard)
    out = tmp_path / "x.csv"
    rc = main(["build", "--family", "powcube", "--n", "9", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "1024 MiB" in err[0]
    assert not out.exists()


def test_spectrum_powtri(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--family", "powtri", "--n", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 28  # header + 27 eigenvalues


def test_spectrum_of_a_relabelled_order_solves_only_the_factor(tmp_path, monkeypatch):
    # ternary-gray powtri n = 7 is the natural one relabelled: one LAPACK
    # call, on the 3x3 factor, and the natural order's spectrum to the byte
    shapes = []
    for name in ("eigh", "eigvalsh", "qr", "svd"):
        def recording(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    out = {}
    for ordering in ("ternary-gray", "ternary"):
        out[ordering] = tmp_path / f"{ordering}.csv"
        argv = ["spectrum", "--family", "powtri", "--n", "7", "--ordering", ordering]
        assert main([*argv, "--out", str(out[ordering])]) == 0
        assert shapes == [(3, 3)]
        shapes.clear()
    text = out["ternary-gray"].read_text()
    assert len(text.splitlines()) == 2188
    assert text == out["ternary"].read_text()


def test_spectrum_residual_failure_exits_cleanly(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--family", "powtri", "--n", "2", "--tol", "1e-20", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: eigenpair residual")
    assert not out.exists()


@pytest.mark.parametrize("tol", ["inf", "-1", "0", "nan"])
def test_spectrum_rejects_a_tolerance_that_is_not_finite_and_positive(tmp_path, capsys, tol):
    # inf would switch the residual check off; the others failed it with a
    # misleading residual message
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--family", "powcube", "--n", "3", "--tol", tol, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: residual tolerance must be a finite number > 0, got {float(tol)!r}"]
    assert not out.exists()


def test_spectrum_non_finite_exits_cleanly(tmp_path, monkeypatch, capsys):
    # finite entries whose eigenvalue 2e308 overflows to inf (a matrix with
    # an infinite entry is refused when it is made)
    def overflowing_laplacian(family, n, ordering):
        entries = np.array([[1e308, -1e308], [-1e308, 1e308]])
        return GraphMatrix(family, LAPLACIAN, n, "binary", entries)

    monkeypatch.setattr(cli, "build", overflowing_laplacian)
    out = tmp_path / "spec.csv"
    with np.errstate(all="ignore"):
        rc = main(["spectrum", "--family", "hamming", "--n", "1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: eigenpair residual")
    assert not out.exists()


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    spec = tmp_path / "spec.csv"
    spectrum = ["spectrum", "--family", "powtri", "--n", "2", "--out", str(spec)]
    assert main(spectrum + ["--tol", "1e-300"]) == 2
    assert main(spectrum) == 0
    out = tmp_path / "m.out"
    build = ["build", "--family", "ncube", "--n", "2", "--out", str(out)]
    assert main(build + ["--format", "json"]) == 0
    assert main(build) == 0
    assert out.read_text().splitlines()[0] == "family,kind,n,ordering,N"
    capsys.readouterr()
    assert main(["euler", "--n", "3", "--one-based"]) == 0
    assert capsys.readouterr().out.split()[0] == "1"
    assert main(["euler", "--n", "3"]) == 0
    assert capsys.readouterr().out.split()[0] == "0"


def test_verify_fetch_failure_exits_cleanly(tmp_path, monkeypatch, capsys):
    # a package without its fixtures directory
    monkeypatch.setattr(oeisclient, "resources", SimpleNamespace(files=lambda package: tmp_path))
    assert main(["verify", "--claims", "sequences"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "no b-file bundled" in err[0]


def test_verify_subset_and_determinism(tmp_path):
    report_a = tmp_path / "a.json"
    report_b = tmp_path / "b.json"
    args = ["verify", "--claims", "theorem4,poisson,caf", "--report"]
    assert main(args + [str(report_a)]) == 0
    assert main(args + [str(report_b)]) == 0
    assert report_a.read_bytes() == report_b.read_bytes()
    payload = json.loads(report_a.read_text())
    assert payload["summary"]["fail"] == 0
    assert {e["claim"] for e in payload["entries"]} == {"theorem4", "poisson", "caf"}


def test_verify_discrepancy_does_not_fail_exit(tmp_path):
    report = tmp_path / "t3.json"
    rc = main(["verify", "--claims", "theorem3", "--n-range", "2..4", "--report", str(report)])
    assert rc == 0
    payload = json.loads(report.read_text())
    statuses = {e["n"]: e["status"] for e in payload["entries"]}
    assert statuses == {2: "pass", 3: "discrepancy-noted", 4: "pass"}


def test_verify_unknown_claim():
    assert main(["verify", "--claims", "theorem99"]) == 2


def test_activation_csv(tmp_path):
    out = tmp_path / "caf.csv"
    rc = main(["activation", "--n", "3", "--p", "1..8", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,p,numerator,denominator,value,logistic"
    assert len(lines) == 65  # header + 8 ranks x 8 supports
    first = lines[1].split(",")
    assert first[:4] == ["1", "1", "1", "8"]


@pytest.mark.parametrize("option", [["--scale", "-1000"], ["--mu", "-800"]])
def test_activation_with_overflowing_logistic(tmp_path, option):
    out = tmp_path / "caf.csv"
    assert main(["activation", "--n", "2", *option, "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 16  # 4 ranks x 4 supports
    assert {row.split(",")[-1] for row in rows} == {"0.0"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_activation_rejects_a_mu_that_is_not_finite(tmp_path, capsys, value):
    out = tmp_path / "caf.csv"
    assert main(["activation", "--n", "3", f"--mu={value}", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: logistic mu must be a finite number, got {float(value)!r}"]
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_activation_rejects_a_scale_that_is_not_finite(tmp_path, capsys, value):
    out = tmp_path / "caf.csv"
    assert main(["activation", "--n", "3", f"--scale={value}", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: logistic scale must be a finite number, got {float(value)!r}"]
    assert not out.exists()


@pytest.mark.parametrize("n", [-1, 0])
def test_activation_rejects_a_dimension_below_1(tmp_path, capsys, n):
    out = tmp_path / "caf.csv"
    assert main(["activation", "--n", str(n), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: dimension must be >= 1, got {n}"]
    assert not out.exists()


def test_poisson_json(tmp_path, capsys):
    out = tmp_path / "poisson.json"
    assert main(["poisson", "--n", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["best_energy_num"] == 2 and payload["best_energy_den"] == 3
    assert payload["patterns"] == [[1, 4, 6, 7], [2, 3, 5, 8]]
    assert payload["norm_l2"] == pytest.approx(2**0.5 / 3.0, abs=1e-10)


def test_seq_bfile_output(capsys):
    assert main(["seq", "--id", "A075848", "--count", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["0 0", "1 6", "2 36", "3 210", "4 1224"]


def test_seq_triangle_output(capsys):
    assert main(["seq", "--id", "trinomial", "--count", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[:4] == ["0 1", "1 1", "2 1", "3 1"]
    assert len(lines) == 1 + 3 + 5


# the first three rows or terms of every `seq` id, with its index column
SEQ_STDOUT = {
    "A003946neg": ["2 -4", "3 -12", "4 -36"],
    "A013609": ["0 1", "1 1", "2 2", "3 1", "4 4", "5 4"],
    "A038220": ["0 1", "1 3", "2 2", "3 9", "4 12", "5 4"],
    "A060188": ["0 0", "1 1", "2 6"],
    "A072221": ["0 1", "1 4", "2 25"],
    "A075848": ["0 0", "1 6", "2 36"],
    "A080956neg": ["0 -1", "1 -1", "2 0"],
    "A120908": ["2 4", "3 24", "4 108"],
    "A279019": ["0 0", "1 2", "2 6"],
    "ballcoeff": ["0 1/1", "1 2/1", "2 1/1"],
    "powtrimult": ["0 1", "1 1", "2 1", "3 0", "4 1", "5 1", "6 2", "7 1", "8 2", "9 2",
                   "10 0", "11 1"],
    "prodseq": ["1 -2", "2 -36", "3 -486"],
    "trinomial": ["0 1", "1 1", "2 1", "3 1", "4 1", "5 2", "6 3", "7 2", "8 1"],
}


@pytest.mark.parametrize("seq_id", sorted(SEQ_STDOUT))
def test_seq_stdout_of_every_id(capsys, seq_id):
    assert main(["seq", "--id", seq_id, "--count", "3"]) == 0
    assert capsys.readouterr().out == "\n".join(SEQ_STDOUT[seq_id]) + "\n"


def test_euler_output(capsys):
    assert main(["euler", "--n", "3", "--one-based"]) == 0
    out = capsys.readouterr().out.splitlines()
    vertices = [int(v) for v in out[0].split()]
    assert len(vertices) == 25 and min(vertices) == 1
    assert out[1] == "24 edges"

    assert main(["euler", "--n", "5"]) == 0
    assert "no Eulerian circuit" in capsys.readouterr().out


def test_euler_beyond_circuit_guard_exits_cleanly(monkeypatch, capsys):
    def built_past_guard(*args):
        raise AssertionError("built past the circuit guard")

    # every even-degree n >= 19 is refused before its edge masks exist
    monkeypatch.setattr(cubegraphs, "_regtricube_masks", built_past_guard)
    for n in (19, 20, 24, 10**9):
        assert main(["euler", "--n", str(n)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "edges" in err[0]
        assert captured.out == ""
    # odd degrees still have no circuit, and n = 16 passes the guard (and
    # stops at the stub)
    assert main(["euler", "--n", "18"]) == 0
    assert "no Eulerian circuit" in capsys.readouterr().out
    with pytest.raises(AssertionError, match="past the circuit guard"):
        main(["euler", "--n", "16"])


def test_plotdata_extremes(tmp_path):
    out = tmp_path / "ext.csv"
    rc = main(["plotdata", "--what", "extremes", "--n-range", "2..7", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,lambda_min,lambda_max,sum,product"
    assert len(lines) == 7
    assert lines[1].split(",")[3] == "4"


def test_plotdata_bad_n_writes_no_file(tmp_path, capsys):
    out = tmp_path / "p.csv"
    rc = main(["plotdata", "--what", "extremes", "--n-range", "0..2", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: closed forms need n >= 2")
    assert not out.exists()


def test_plotdata_caf(tmp_path):
    # the caf and spectrum aliases are gone: `activation` and `spectrum` make that data
    out = tmp_path / "caf.csv"
    for what in ("caf", "spectrum"):
        with pytest.raises(SystemExit) as exc:
            main(["plotdata", "--what", what, "--out", str(out)])
        assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["verify", "--n-range", "5..3"], "--report"),
    (["activation", "--n", "3", "--p", "5..2"], "--out"),
    (["plotdata", "--what", "extremes", "--n-range", "5..3"], "--out"),
], ids=["verify", "activation", "plotdata"])
def test_inverted_range_exits_2_and_writes_nothing(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert main([*argv, flag, str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: range ") and "inverted" in err[0]
    assert not out.exists()


def _work_began(*args, **kwargs):
    raise AssertionError("work began past the bound")


def _stub_heavy_calls(monkeypatch):
    """Every call that would start the work of a bounded input fails the
    test instead: the activation rows, each sequence's terms, the orderings
    and factor fill of `build`, and the Poisson search's Laplacian."""
    from cubelab import harmonic, predicates, sequences

    monkeypatch.setattr(predicates, "caf", _work_began)
    for tag, row in list(sequences.SEQUENCES.items()):
        monkeypatch.setitem(sequences.SEQUENCES, tag,
                            sequences.Sequence(_work_began, row.start, row.oeis))
    monkeypatch.setattr(cubegraphs, "_ORDERINGS", {2: ("binary", _work_began),
                                                   3: ("ternary", _work_began)})
    monkeypatch.setattr(cubegraphs, "_kron_tripling", _work_began)
    monkeypatch.setattr(harmonic, "tricube_laplacian", _work_began)


# argv past a work, memory or float64 bound; the stubs fail the test if
# the work of any but plotdata's cheap rows begins
BOUNDED_INPUTS = {
    "activation-n-14": ["activation", "--n", "14"],
    "activation-n-9-every-p": ["activation", "--n", "9"],
    "activation-n-12-two-p": ["activation", "--n", "12", "--p", "1..2"],
    "activation-n-3-p-to-1e12": ["activation", "--n", "3", "--p", "1..1000000000000"],
    "activation-n-1e9": ["activation", "--n", "1000000000"],
    "seq-powtrimult-1e8": ["seq", "--id", "powtrimult", "--count", "100000000"],
    "seq-ballcoeff-1001": ["seq", "--id", "ballcoeff", "--count", "1001"],
    "seq-trinomial-1e18": ["seq", "--id", "trinomial", "--count", str(10**18)],
    "build-ncube-14": ["build", "--family", "ncube", "--n", "14"],
    "build-powhamming-1e9": ["build", "--family", "powhamming", "--n", "1000000000"],
    "spectrum-powcube-9": ["spectrum", "--family", "powcube", "--n", "9"],
    "poisson-n-5": ["poisson", "--n", "5"],
    "plotdata-n-to-3000": ["plotdata", "--what", "extremes", "--n-range", "2..3000"],
}


@pytest.mark.parametrize("argv", BOUNDED_INPUTS.values(), ids=BOUNDED_INPUTS.keys())
def test_every_bounded_input_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys, argv):
    _stub_heavy_calls(monkeypatch)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv", [
    ["activation", "--n", "8"], ["activation", "--n", "12", "--p", "7"],
    ["seq", "--id", "powtrimult", "--count", "1000"],
], ids=["activation-n-8-every-p", "activation-n-12-one-p", "seq-count-1000"])
def test_the_largest_bounded_inputs_pass_the_bound(tmp_path, monkeypatch, argv):
    # and stop at the stubs
    _stub_heavy_calls(monkeypatch)
    with pytest.raises(AssertionError, match="past the bound"):
        main([*argv, "--out", str(tmp_path / "out")])
