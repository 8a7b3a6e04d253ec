"""Command-line surface: matrix building, spectra, claim verification,
activation tables, Poisson search, sequences, Eulerian circuits, and the
powhamming eigenvalue extremes as plot data (CSV only; rendering is out of
scope).  `build` and `spectrum` take their family choices from
`cubegraphs.FAMILIES` and make the matrix with `cubegraphs.build`; `seq`
takes its ids and index origin from `sequences.SEQUENCES`.

The parser is built on the first `main` call and reused by every later
one, so `main` may be called repeatedly in-process.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import sequences, verify
from .cubegraphs import FAMILIES, build, eulerian_circuit, matrix_to_csv, matrix_to_json
from .harmonic import min_energy_search
from .predicates import caf_table
from .oeisclient import FetchError
from .spectra import RESIDUAL_TOL, ResidualError, eig_sym, spectrum_to_csv

def _parse_range(text: str) -> range:
    """`lo..hi` (both ends included) or one integer; hi < lo is an error."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"range {text!r} is inverted: {hi} < {lo}")
        return range(lo, hi + 1)
    value = int(text)
    return range(value, value + 1)


def cmd_build(args) -> int:
    gm = build(args.family, args.n, args.ordering)
    if args.format == "json":
        matrix_to_json(gm, args.out)
    else:
        matrix_to_csv(gm, args.out)
    print(f"wrote {gm.family} {gm.kind} n={gm.n} ({gm.N}x{gm.N}) to {args.out}")
    return 0


def cmd_spectrum(args) -> int:
    gm = build(args.family, args.n, args.ordering)
    spec = eig_sym(gm, tol=args.tol)
    spectrum_to_csv(spec, args.out)
    print(f"wrote {gm.N} eigenvalues to {args.out}")
    return 0


def cmd_verify(args) -> int:
    claims = args.claims.split(",") if args.claims else None
    n_range = _parse_range(args.n_range) if args.n_range else None
    report = verify.run_verification(claims=claims, n_range=n_range)
    if args.report:
        report.write(args.report)
    for e in report.entries:
        n = "-" if e["n"] is None else e["n"]
        print(f"[{e['status']:>17}] {e['claim']:<12} n={n:<4} err={e['max_abs_err']:.3e}  {e['details']}")
    counts = report.summary()
    print(f"pass={counts['pass']} fail={counts['fail']} noted={counts['discrepancy-noted']}")
    return 0 if report.ok else 1


def cmd_activation(args) -> int:
    p_values = _parse_range(args.p) if args.p else None
    rows = caf_table(args.n, p_values, mu=args.mu, scale=args.scale)
    with open(args.out, "w") as fh:
        fh.write("r,p,numerator,denominator,value,logistic\n")
        for r, p, num, den, value, ref in rows:
            fh.write(f"{r},{p},{num},{den},{value!r},{ref!r}\n")
    print(f"wrote {len(rows)} activation rows to {args.out}")
    return 0


def cmd_poisson(args) -> int:
    result = min_energy_search(args.n)
    energy = result.best_energy
    payload = {
        "n": result.n,
        "best_energy_float": float(energy),
        "best_energy_num": energy.numerator,
        "best_energy_den": energy.denominator,
        "patterns": [[i + 1 for i in pattern] for pattern in result.best_patterns],
        "norm_l2": result.norm_l2,
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def cmd_seq(args) -> int:
    values = sequences.generate(args.id, args.count)
    start = sequences.SEQUENCES[args.id].start
    if start is None:  # a triangle, numbered row by row from 0
        values, start = [v for row in values for v in row], 0
    lines = []
    for i, v in enumerate(values):
        if isinstance(v, Fraction):
            lines.append(f"{start + i} {v.numerator}/{v.denominator}")
        else:
            lines.append(f"{start + i} {v}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def cmd_euler(args) -> int:
    circuit = eulerian_circuit(args.n)
    if circuit is None:
        print(f"no Eulerian circuit: degree n(n+1)/2 = {args.n * (args.n + 1) // 2} is odd")
        return 0
    shift = 1 if args.one_based else 0
    print(" ".join(str(v + shift) for v in circuit))
    print(f"{len(circuit) - 1} edges")
    return 0


def cmd_plotdata(args) -> int:
    n_range = _parse_range(args.n_range) if args.n_range else range(2, 8)
    # every row before the file is opened, so a bad n leaves no partial file
    rows = [sequences.pow_hamming_extremes(n) for n in n_range]
    with open(args.out, "w") as fh:
        fh.write("n,lambda_min,lambda_max,sum,product\n")
        for e in rows:
            fh.write(f"{e.n},{e.lambda_min!r},{e.lambda_max!r},{e.sum},{e.product}\n")
    print(f"wrote extremes for n in {list(n_range)} to {args.out}")
    return 0


def _add_ordering(parser):
    parser.add_argument(
        "--ordering",
        choices=["binary", "gray", "ternary", "ternary-gray"],
        default=None,
        help="vertex ordering (family default when omitted)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `cubelab` parser, built once per process and shared by every
    `main` call; callers must not mutate it."""
    # the first paragraph of the module docstring; the rest is for readers of the code
    parser = argparse.ArgumentParser(prog="cubelab", description=__doc__.partition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write a family matrix to CSV or JSON")
    p.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_ordering(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("spectrum", help="eigendecompose a family matrix to CSV")
    p.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_ordering(p)
    p.add_argument("--tol", type=float, default=RESIDUAL_TOL, help="eigensolve residual tolerance")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="run the claim verification harness")
    p.add_argument("--claims", help="comma-separated claim ids (default: all)")
    p.add_argument("--n-range", help="override dimension range, e.g. 2..6")
    p.add_argument("--report", help="write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("activation", help="emit activation-function CSV data")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", help="active-vertex counts, e.g. 1..8 (default: all)")
    p.add_argument("--mu", type=float, default=1.0, help="logistic steepness")
    p.add_argument("--scale", type=float, default=1.0,
                   help="x-axis scale for the logistic comparison column")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_activation)

    p = sub.add_parser("poisson", help="minimum-energy balanced sign-pattern search")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=cmd_poisson)

    p = sub.add_parser("seq", help="emit sequence terms, b-file style")
    p.add_argument("--id", choices=sorted(sequences.SEQUENCES), required=True)
    p.add_argument("--count", type=int, default=15)
    p.add_argument("--out")
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("euler", help="Eulerian circuit of the cube plus both diagonals")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--one-based", action="store_true")
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser(
        "plotdata",
        help="emit the powhamming eigenvalue extremes as plottable CSV "
        "(activation and spectrum data come from their own subcommands)",
    )
    p.add_argument("--what", choices=["extremes"], required=True)
    p.add_argument("--n-range", help="dimension range, e.g. 2..7 (the default)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plotdata)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ResidualError, FetchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
