"""Run a fixed grid of CLI commands in process and write one JSON line each.

    python tests/cli_diff.py --src SRC_DIR --out FILE.jsonl [--against PARENT.jsonl]

Imports `eigenbounds` from SRC_DIR (by default the `src` next to this
file), runs every command of the grid through `cli.main`, and writes for
each its argv, exit code, stdout, stderr and the warnings it raised.  Two
source trees give the same CLI output on a host exactly when their files
compare equal, so a claim that a change leaves the output byte-identical is
`cmp parent.jsonl change.jsonl`.

The grid is 4,066 commands: the four bound families over dimensions,
curvatures and diameters or inradii (the caps and the validity radii
approached, met and passed), in JSON and CSV and at three FD grids, plus
`table` commands (lichnerowicz tables that complete, one ending on the
kappa1 cap, and a few it refuses), `verify` and `scan` commands and some
usage errors.  Warnings are
recorded by category and message, without the file and line a warning
names, so moved source lines do not show as a difference.  An exception
that escapes `cli.main` is recorded by its type and message; it is a
traceback at the command line.  This file is not a test module; pytest does
not collect it.

With --against, the output just written is compared with an earlier file of
the same grid, for a change that moves values only at rounding level.  It
prints the number of byte-identical commands, every command whose exit code,
stderr or warnings differ or whose output changed other than in its numbers,
and for each field of the output (a JSON key, or a CSV column) how many
values moved and the largest relative move.  It exits 1 if any command is
listed.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import warnings

PI = math.pi


def _first_zero(kappa, lam):
    """First zero of c_kappa - lam s_kappa, inf if none (the validity radius
    of one factor of a Dirichlet weight)."""
    if kappa > 0:
        root = math.sqrt(kappa)
        return (0.5 * PI - math.atan(lam / root)) / root
    if kappa == 0:
        return 1.0 / lam if lam > 0 else math.inf
    root = math.sqrt(-kappa)
    return math.atanh(root / lam) / root if lam > root else math.inf


def _num(x):
    return repr(float(x))


def _lengths(fixed, cap, near):
    """The fixed lengths, then `near` fractions of a finite cap."""
    out = list(fixed)
    if math.isfinite(cap):
        out += [f * cap for f in near]
    return [_num(x) for x in out]


NEUMANN_NEAR = (0.5, 0.9, 0.99, 0.9999, 1.0, 1.01)
DIRICHLET_NEAR = (0.5, 0.9, 0.999, 1.0 - 1e-9, 1.0)


def commands():
    """The fixed grid of argv lists."""
    cmds = []
    # kahler-neumann: caps pi/(2 sqrt(k1)) and, for m >= 2, pi/sqrt(k2)
    for m in (1, 2, 3, 6, 20, 50):
        for k1 in (-1.0, 0.0, 0.25, 1.0):
            for k2 in (-1.0, 0.0, 0.5, 2.0):
                cap = min(
                    PI / (2.0 * math.sqrt(k1)) if k1 > 0 else math.inf,
                    PI / math.sqrt(k2) if k2 > 0 and m >= 2 else math.inf,
                )
                for D in _lengths((0.05, 0.5, 1.5, 4.0), cap, NEUMANN_NEAR):
                    cmds.append(["bound", "kahler-neumann", "--m", str(m), "--k1", _num(k1),
                                 "--k2", _num(k2), "--D", D])
    # kahler-dirichlet: the radius is the smallest first zero of the factors
    for m in (1, 2, 5, 20):
        for k1 in (-1.0, 0.0, 0.5):
            for k2 in (-1.0, 0.0, 0.5):
                for lam in (-0.5, 0.0, 0.5, 1.5):
                    rad = _first_zero(4.0 * k1, lam)
                    if m > 1:
                        rad = min(rad, _first_zero(k2, lam))
                    for R in _lengths((0.05, 0.5, 2.0), rad, DIRICHLET_NEAR):
                        cmds.append(["bound", "kahler-dirichlet", "--m", str(m), "--k1", _num(k1),
                                     "--k2", _num(k2), "--lambda", _num(lam), "--R", R])
    # riemannian-neumann: cap pi/sqrt(k)
    for n in (2, 3, 5, 20, 500, 2000):
        for k in (-4.0, -1.0, 0.0, 0.5, 1.0, 4.0):
            cap = PI / math.sqrt(k) if k > 0 else math.inf
            for D in _lengths((0.05, 0.5, 2.0, 6.0), cap, NEUMANN_NEAR):
                cmds.append(["bound", "riemannian-neumann", "--n", str(n), "--k", _num(k), "--D", D])
    # riemannian-dirichlet
    for n in (2, 3, 5, 20, 500, 2000):
        for k in (-1.0, 0.0, 0.5, 1.0, 4.0):
            for lam in (-1.0, 0.0, 0.5, 2.0):
                rad = _first_zero(k, lam)
                for R in _lengths((0.05, 0.5, 2.0), rad, DIRICHLET_NEAR):
                    cmds.append(["bound", "riemannian-dirichlet", "--n", str(n), "--k", _num(k),
                                 "--lambda", _num(lam), "--R", R])
    # every fifth bound again in CSV, and at one of two other FD grids
    bounds = list(cmds)
    for i, argv in enumerate(bounds[::5]):
        cmds.append(argv + ["--format", "csv"])
        cmds.append(argv + ["--grid", ("500", "8000")[i % 2]])
    # tables: prop13 ignores --m, --k1 and --k2, so each format runs once
    for fmt in ("json", "csv"):
        cmds.append(["table", "prop13", "--format", fmt])
    # lichnerowicz tables that complete: k1 > 0, k2 >= 0, four diameters
    # inside the caps, and one grid whose last diameter sits on the k1 cap
    lich = []
    for m in (1, 2, 3, 5):
        for k1 in (0.25, 0.5, 1.0):
            for k2 in (0.0, 0.5, 1.0):
                cap = PI / (2.0 * math.sqrt(k1))
                if k2 > 0 and m >= 2:
                    cap = min(cap, PI / math.sqrt(k2))
                step = cap / 5.0
                lich.append((m, k1, k2, f"{_num(step)}:{_num(4.0 * step)}:{_num(step)}"))
    lich.append((2, 1.0, 0.0, f"{_num(PI / 2 - 1.0)}:{_num(PI / 2)}:0.5"))
    for m, k1, k2, d_grid in lich:
        for fmt in ("json", "csv"):
            cmds.append(["table", "lichnerowicz", "--m", str(m), "--k1", _num(k1), "--k2", _num(k2),
                         "--D-grid", d_grid, "--format", fmt])
    # and refusals: k1 <= 0, k2 < 0, a diameter past the k1 cap
    for k1, k2, d_grid, fmt in (
        (0.0, 0.0, "0.5:1.5:0.5", "json"),
        (-1.0, 0.0, "0.5:1.5:0.5", "json"),
        (0.5, -1.0, "0.5:1.5:0.5", "json"),
        (0.5, 0.0, "0.5:2.5:0.5", "json"),
        (0.5, 0.0, "0.5:2.5:0.5", "csv"),
    ):
        cmds.append(["table", "lichnerowicz", "--m", "2", "--k1", _num(k1), "--k2", _num(k2),
                     "--D-grid", d_grid, "--format", fmt])
    # verify suites
    from eigenbounds.suites import SUITE_NAMES

    for suite in SUITE_NAMES:
        for seed in (0, 3):
            cmds.append(["verify", suite, "--seed", str(seed)])
        cmds.append(["verify", suite, "--format", "csv"])
    # scans
    for m in (1, 2, 5):
        for k1 in (-0.5, 0.0, 0.25):
            cmds.append(["scan", "--param", "D", "--range", "0.2:3.2:0.25", "--m", str(m),
                         "--k1", _num(k1), "--k2", "0.5"])
            for param, rng in (("k1", "-1:1:0.25"), ("k2", "-1:1:0.25")):
                cmds.append(["scan", "--param", param, "--range", rng, "--m", str(m),
                             "--k1", _num(k1), "--D", "1.2"])
            cmds.append(["scan", "--param", "lambda", "--range", "-1:1.5:0.25", "--m", str(m),
                         "--k1", _num(k1), "--k2", "0.5", "--R", "0.6", "--format", "json"])
            cmds.append(["scan", "--param", "R", "--range", "0.1:2.5:0.2", "--m", str(m),
                         "--k1", _num(k1), "--lambda", "0.3"])
    # usage and validity errors
    cmds += [
        [], ["bound"], ["bound", "kahler-neumann"], ["bound", "kahler-neumann", "--D", "-1"],
        ["bound", "kahler-neumann", "--D", "nan"], ["bound", "kahler-neumann", "--D", "inf"],
        ["bound", "kahler-neumann", "--D", "1e-160"], ["bound", "kahler-neumann", "--D", "1e150"],
        ["bound", "kahler-neumann", "--m", "0", "--D", "1"], ["bound", "riemannian-neumann", "--n", "1", "--D", "1"],
        ["bound", "kahler-dirichlet", "--R", "1", "--lambda", "nan"], ["bound", "kahler-neumann", "--D", "1", "--grid", "8"],
        ["scan", "--param", "D", "--range", "1:0:1"], ["scan", "--param", "k1", "--range", "0:1:0.5"],
        ["scan", "--param", "D", "--range", "0:1e6:1e-3"], ["scan", "--param", "D", "--range", "0:inf:1"],
        ["scan", "--param", "D", "--range", "0:1:0"], ["scan", "--param", "lambda", "--range", "0:1:0.5"],
        ["verify", "all", "--seed", "-1"],
        ["table", "lichnerowicz", "--D-grid", "1:2"], ["bound", "nope", "--D", "1"],
    ]
    return cmds


def run(argv, main):
    """(exit code, stdout, stderr, warnings) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback at the command line
                code = f"traceback: {type(exc).__name__}: {exc}"
    seen = [f"{w.category.__name__}: {w.message}" for w in caught]
    return code, out.getvalue(), err.getvalue(), seen


def _leaves(stdout):
    """(field, value) pairs of a command's output, in order: the scalars of a
    JSON document under their innermost key, or the cells of CSV rows under
    their column."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        rows = list(csv.reader(io.StringIO(stdout)))
        return [(col, _number(cell)) for row in rows[1:] for col, cell in zip(rows[0], row)]
    leaves = []

    def walk(node, key):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, k)
        elif isinstance(node, list):
            for v in node:
                walk(v, key)
        else:
            leaves.append((key, node))

    walk(doc, None)
    return leaves


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def summarize(parent, change):
    """Print how the records `change` differ from `parent`; returns the
    number of commands listed as differing beyond their numbers."""
    if [r["argv"] for r in parent] != [r["argv"] for r in change]:
        raise SystemExit("the two files do not hold the same grid of commands")
    identical = 0
    listed = []
    # field: [values moved, largest relative move, largest |value| before, after]
    fields = {}
    for old, new in zip(parent, change):
        identical += old == new
        if any(old[k] != new[k] for k in ("exit", "stderr", "warnings")):
            listed.append(("exit code, stderr or warnings", new["argv"]))
            continue
        a, b = _leaves(old["stdout"]), _leaves(new["stdout"])
        if [k for k, _ in a] != [k for k, _ in b]:
            listed.append(("output fields", new["argv"]))
            continue
        for (key, x), (_, y) in zip(a, b):
            if not (_is_number(x) and _is_number(y)):
                if x != y:
                    listed.append((f"non-numeric {key}", new["argv"]))
                    break
                continue
            stat = fields.setdefault(key, [0, 0.0, 0.0, 0.0])
            stat[2], stat[3] = max(stat[2], abs(x)), max(stat[3], abs(y))
            if x != y:
                scale = max(abs(x), abs(y))
                stat[0] += 1
                stat[1] = max(stat[1], abs(x - y) / scale if math.isfinite(scale) else math.inf)
    print(f"{identical} of {len(change)} commands byte-identical")
    print(f"{len(listed)} commands differ beyond their numbers")
    for what, argv in listed:
        print(f"  {what}: {' '.join(argv)}")
    print("numeric field: values moved, largest relative move, largest |value| before -> after")
    for key in sorted(fields, key=str):
        moved, rel, before, after = fields[key]
        print(f"  {key}: {moved}, {rel:.3g}, {before:.3g} -> {after:.3g}")
    return len(listed)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(here, os.pardir, "src"), help="source tree to import")
    ap.add_argument("--out", required=True, help="JSON-lines file to write")
    ap.add_argument("--against", help="an earlier output of this grid to summarize the change against")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from eigenbounds import cli

    grid = commands()
    records = []
    with open(args.out, "w") as f:
        for argv in grid:
            code, out, err, seen = run(argv, cli.main)
            record = {"argv": argv, "exit": code, "stdout": out, "stderr": err, "warnings": seen}
            line = json.dumps(record)
            f.write(line + "\n")
            records.append(json.loads(line))
    print(f"{len(grid)} commands written to {args.out}", file=sys.stderr)
    if args.against:
        with open(args.against) as f:
            parent = [json.loads(line) for line in f]
        sys.exit(1 if summarize(parent, records) else 0)


if __name__ == "__main__":
    main()
