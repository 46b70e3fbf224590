"""Command-line front end.

Commands: `bound` (one eigenvalue lower bound), `table` (explicit-value
and comparison tables), `verify` (named check suites), `scan` (one-line
CSV rows over a parameter range).  Stdout carries exactly one JSON
record or one CSV document; diagnostics go to stderr.  Exit codes:
0 success, 1 solver or check failure, 2 validity violation, 64 usage.
"""

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from .bounds import (
    explicit_bound_table,
    kahler_dirichlet_bound,
    kahler_neumann_bound,
    lichnerowicz_comparison,
    riemannian_dirichlet_bound,
    riemannian_neumann_bound,
)
from .coefficients import CurvatureParams
from .errors import (
    DiameterExceedsMaximal,
    InradiusExceedsValidity,
    SolverError,
    ValidityError,
)
from .suites import DEFAULT_SEED, SUITE_NAMES, run_suite

__all__ = ["main", "build_parser"]

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_VALIDITY = 2
EXIT_USAGE = 64

MAX_RANGE_POINTS = 10_000


def _params(a):
    return CurvatureParams(m=a.m, kappa1=a.k1, kappa2=a.k2)


# family -> (flags echoed in "inputs", solve).  The last flag is the one the
# family requires.  Each solve names its bound function at call time, so a
# caller that swaps the module attribute (a tracer) sees every call.
FAMILIES = {
    "kahler-neumann": (
        ("m", "k1", "k2", "D"),
        lambda a: kahler_neumann_bound(_params(a), a.D, tol=a.tol, n=a.grid),
    ),
    "kahler-dirichlet": (
        ("m", "k1", "k2", "lambda", "R"),
        lambda a: kahler_dirichlet_bound(_params(a), a.lam, a.R, tol=a.tol, n=a.grid),
    ),
    "riemannian-neumann": (
        ("n", "k", "D"),
        lambda a: riemannian_neumann_bound(a.n, a.k, a.D, tol=a.tol, n=a.grid),
    ),
    "riemannian-dirichlet": (
        ("n", "k", "lambda", "R"),
        lambda a: riemannian_dirichlet_bound(a.n, a.k, a.lam, a.R, tol=a.tol, n=a.grid),
    ),
}


def _attr(flag):
    """The argparse attribute of a flag: `--lambda` is stored as `lam`."""
    return "lam" if flag == "lambda" else flag


class _Parser(argparse.ArgumentParser):
    """argparse maps its own errors to exit 2; the contract wants 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be lo:hi:step, got {text!r}")
    lo, hi, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError(f"range must be finite, got {text!r}")
    if not step > 0:
        raise ValueError(f"range step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"range is empty: lo={lo} exceeds hi={hi}")
    # the points lo + k*step grow with k, so point MAX_RANGE_POINTS decides
    if lo + MAX_RANGE_POINTS * step <= hi + 1e-9 * step:
        raise ValueError(f"range holds more than {MAX_RANGE_POINTS} points, got {text!r}")
    values = []
    k = 0
    while True:
        v = lo + k * step
        if v > hi + 1e-9 * step:
            break
        values.append(v)
        k += 1
    return values


def nonnegative_int(text):
    """argparse type of --seed: numpy refuses a negative seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _add_common(p):
    p.add_argument("--tol", type=float, default=1e-10, help="solver tolerance")
    p.add_argument("--grid", type=int, default=2000, help="finite-difference grid size")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eigenbounds", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    pb = sub.add_parser("bound", help="compute one eigenvalue lower bound")
    pb.add_argument("family", choices=tuple(FAMILIES))
    pb.add_argument("--m", type=int, default=1, help="complex dimension")
    pb.add_argument("--k1", type=float, default=0.0, help="holomorphic sectional lower bound")
    pb.add_argument("--k2", type=float, default=0.0, help="orthogonal bisectional lower bound")
    pb.add_argument("--D", type=float, help="diameter")
    pb.add_argument("--lambda", dest="lam", type=float, default=0.0, help="boundary shape parameter")
    pb.add_argument("--R", type=float, help="inradius")
    pb.add_argument("--n", type=int, default=2, help="real dimension (riemannian families)")
    pb.add_argument("--k", type=float, default=0.0, help="Ricci lower bound over n - 1 (riemannian)")
    _add_common(pb)
    pb.add_argument("--format", choices=("json", "csv"), default="json")

    pt = sub.add_parser("table", help="explicit-value or comparison table")
    pt.add_argument("name", choices=("prop13", "lichnerowicz"))
    pt.add_argument("--m", type=int, default=1)
    pt.add_argument("--k1", type=float, default=0.0)
    pt.add_argument("--k2", type=float, default=0.0)
    pt.add_argument("--D-grid", dest="D_grid", help="lo:hi:step diameter grid (lichnerowicz)")
    _add_common(pt)
    pt.add_argument("--format", choices=("json", "csv"), default="json")

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("suite", choices=SUITE_NAMES)
    pv.add_argument("--seed", type=nonnegative_int, default=DEFAULT_SEED)
    _add_common(pv)
    pv.add_argument("--format", choices=("json", "csv"), default="json")

    ps = sub.add_parser("scan", help="bound values over a parameter range, CSV by default")
    ps.add_argument("--param", required=True, choices=("D", "k1", "k2", "lambda", "R"))
    ps.add_argument("--range", dest="rng", required=True, help="lo:hi:step")
    ps.add_argument("--m", type=int, default=1)
    ps.add_argument("--k1", type=float, default=0.0)
    ps.add_argument("--k2", type=float, default=0.0)
    ps.add_argument("--D", type=float)
    ps.add_argument("--lambda", dest="lam", type=float, default=0.0)
    ps.add_argument("--R", type=float)
    _add_common(ps)
    ps.add_argument("--format", choices=("json", "csv"), default="csv")

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser `main` reuses: it holds no state between parses."""
    return build_parser()


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(args, command, inputs, results, warnings, header, rows):
    """Write one JSON record, or the warnings to stderr and then one CSV."""
    if args.format == "csv":
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "warnings": list(warnings),
    }
    json.dump(record, sys.stdout, indent=2, default=_jsonable)
    sys.stdout.write("\n")


def cmd_bound(parser, args) -> int:
    fam = args.family
    flags, solve = FAMILIES[fam]
    if getattr(args, _attr(flags[-1])) is None:
        parser.error(f"bound {fam} requires --{flags[-1]}")
    res = solve(args)
    inputs = {f: getattr(args, _attr(f)) for f in (*flags, "tol", "grid")}
    _emit(
        args, f"bound {fam}", inputs, res.to_dict(), res.warnings,
        ["family", "value", "shooting_value", "fd_value", "fd_error", "method_agreement",
         "is_limit", "limit_error"],
        [[fam, res.value, res.shooting_value, res.fd_value, res.fd_error,
          res.method_agreement, int(res.is_limit), res.limit_error]],
    )
    return EXIT_OK


def cmd_table(parser, args) -> int:
    if args.name == "prop13":
        rows = explicit_bound_table(tol=args.tol, n=args.grid)
        dev = max(abs(r["ratio"] - 1.0) for r in rows)
        inputs = {"tol": args.tol, "grid": args.grid}
        results = {"rows": rows, "max_ratio_deviation": dev, "tolerance": 1e-6}
        warnings = [] if dev <= 1e-6 else [f"ratio deviation {dev:.3e} exceeds 1e-6"]
        header = ["case", "m", "kappa1", "kappa2", "D", "expected", "computed", "ratio"]
        csv_rows = [[r[h] for h in header] for r in rows]
        code = EXIT_OK if dev <= 1e-6 else EXIT_SOLVER
    else:
        if args.D_grid is None:
            parser.error("table lichnerowicz requires --D-grid lo:hi:step")
        try:
            grid = _parse_range(args.D_grid)
        except ValueError as exc:
            parser.error(str(exc))
        params = _params(args)
        rows = []
        warnings = []
        worst = None
        for D in grid:
            rep = lichnerowicz_comparison(params, D, tol=args.tol, n=args.grid)
            slack = 1e-9 + rep.bound.value * rep.bound.method_agreement
            rows.append(
                {
                    "D": D,
                    "bound": rep.bound.value,
                    "reference": rep.reference_bound,
                    "reference_name": rep.reference_name,
                    "margin": rep.margin,
                }
            )
            short = rep.margin + slack
            worst = short if worst is None else min(worst, short)
        inputs = {
            "m": args.m, "k1": args.k1, "k2": args.k2, "D_grid": args.D_grid,
            "tol": args.tol, "grid": args.grid,
        }
        results = {"rows": rows, "worst_margin_with_slack": worst}
        if worst < 0:
            warnings.append(f"comparison margin fell below numerical slack by {-worst:.3e}")
        header = ["D", "bound", "reference", "reference_name", "margin"]
        csv_rows = [[r[h] for h in header] for r in rows]
        code = EXIT_OK if worst >= 0 else EXIT_SOLVER
    _emit(args, f"table {args.name}", inputs, results, warnings, header, csv_rows)
    return code


def cmd_verify(parser, args) -> int:
    result = run_suite(args.suite, seed=args.seed, tol=args.tol, grid=args.grid)
    inputs = {"suite": args.suite, "seed": args.seed, "tol": args.tol, "grid": args.grid}
    if result.series:
        header = ["flow", "t", "oscillation"]
        rows = [
            [name, t, o]
            for name, (ts, osc) in result.series.items()
            for t, o in zip(ts, osc)
        ]
    else:
        header = ["check", "ok", "tol"]
        rows = [[c["name"], int(c["ok"]), c["tol"]] for c in result.checks]
    _emit(args, f"verify {args.suite}", inputs, result.to_dict(), [], header, rows)
    if args.format == "csv" and not result.ok:
        print(
            f"verify {args.suite}: {result.failed} of {len(result.checks)} checks failed",
            file=sys.stderr,
        )
    return EXIT_OK if result.ok else EXIT_SOLVER


def cmd_scan(parser, args) -> int:
    try:
        values = _parse_range(args.rng)
    except ValueError as exc:
        parser.error(str(exc))
    name = args.param
    if name in ("k1", "k2") and args.D is None:
        parser.error(f"scan --param {name} requires a fixed --D")
    if name == "lambda" and args.R is None:
        parser.error("scan --param lambda requires a fixed --R")
    # a scan is the `bound` request of its family with one flag varied
    _, solve = FAMILIES["kahler-neumann" if name in ("D", "k1", "k2") else "kahler-dirichlet"]
    rows = []
    warnings = []
    for v in values:
        try:
            res = solve(argparse.Namespace(**{**vars(args), _attr(name): v}))
        except (DiameterExceedsMaximal, InradiusExceedsValidity) as exc:
            warnings.append(f"scan truncated at {name}={v:.6g}: {exc}")
            break
        rows.append({name: v, "value": res.value, "method_agreement": res.method_agreement})
    if name == "D" and len(rows) > 1:
        vals = [r["value"] for r in rows]
        if any(b >= a for a, b in zip(vals, vals[1:])):
            raise SolverError("bound failed to decrease strictly along the diameter scan")
    inputs = {
        "param": name, "range": args.rng, "m": args.m, "k1": args.k1, "k2": args.k2,
        "D": args.D, "lambda": args.lam, "R": args.R, "tol": args.tol, "grid": args.grid,
    }
    _emit(
        args, "scan", inputs, {"rows": rows}, warnings, [name, "value", "method_agreement"],
        [[r[name], r["value"], r["method_agreement"]] for r in rows],
    )
    return EXIT_OK


def _join_range_flags(argv):
    """Merge `--range -1:2:0.5` into `--range=-1:2:0.5`.

    Range strings that open with a negative bound would otherwise be
    read as option tokens by argparse.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--range", "--D-grid") and i + 1 < len(argv) and ":" in argv[i + 1]:
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _shared_parser()
    args = parser.parse_args(_join_range_flags(list(argv)))
    handler = {
        "bound": cmd_bound,
        "table": cmd_table,
        "verify": cmd_verify,
        "scan": cmd_scan,
    }[args.command]
    try:
        return handler(parser, args)
    except ValidityError as exc:
        print(f"eigenbounds: validity: {exc}", file=sys.stderr)
        return EXIT_VALIDITY
    except SolverError as exc:
        print(f"eigenbounds: solver: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
