"""List the `src/` statements that the CLI grid and the benchmark never run.

    python tests/traffic_coverage.py [--src SRC_DIR]

Imports `eigenbounds` from SRC_DIR (by default the `src` next to this
file) under `sys.settrace`, then runs every command of the `cli_diff.py`
grid through `cli.main`, the benchmark's rounds (`bench/workloads.py`:
both workloads, seeds 1 to 3, 4 rounds each) and its defect ops.  It
prints, per function of the package, the lines of the statements that
never ran, or that the function was never called.  A name that shows here
has no caller in what the CLI is asked or what the benchmark measures.

It exits 1 unless the functions never called, each outside any other
function never called, are exactly the keys of KEPT, each kept for the
reason given there: code that nothing runs either goes or says why it
stays.

The benchmark files are only imported, never changed.  It needs Python
3.11 or later (`co_qualname`) and takes about 30 s on a 2-core VM.  This
file is not a test module; pytest does not collect it.
"""

import argparse
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_SEEDS = (1, 2, 3)
WORKLOAD_ROUNDS = 4

# module.qualname of each function that no traffic calls, with why it stays
KEPT = {
    "sturm_liouville.eigen_limit": (
        "looked up by the benchmark tracer as bounds.eigen_limit; goes with its span"
        " (ROADMAP item 2)"
    ),
    "sturm_liouville.eigh_tridiagonal": (
        "looked up by the benchmark tracer for its eigh_tridiagonal spans; goes with them"
        " (ROADMAP item 2)"
    ),
    "coefficients.t_kappa.<locals>.f.<locals>.series": (
        "the near-zero series of the drift: the flows sample their drifts at least half"
        " a cell (0.0078) from t = 0, at curvatures 0 or of size 1, so never at"
        " |k| t^2 < SERIES_THRESHOLD with k != 0"
    ),
    "surfaces.capsule_profile.<locals>.d2f": (
        "f'' of the capsule, a field every SurfaceProfile carries: the capsules feed only"
        " the collapsing-family check, which reads their spectra and diameters, never"
        " their curvature"
    ),
}


def _executable(path):
    """{(qualname, first line): set of lines with code} for each code object
    compiled from the file at `path`."""
    with open(path) as f:
        root = compile(f.read(), path, "exec")
    found = {}
    stack = [root]
    while stack:
        code = stack.pop()
        lines = {line for _, _, line in code.co_lines() if line}
        found[(code.co_qualname, code.co_firstlineno)] = lines
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return found


class LineTracer:
    """Records (file, qualname, first line) -> lines run, for files under `root`."""

    def __init__(self, root):
        self.root = root
        self.seen = {}

    def _call(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.root):
            return None
        lines = self.seen.setdefault(
            (code.co_filename, code.co_qualname, code.co_firstlineno), set()
        )
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def _ranges(lines):
    """'3-5, 9' for [3, 4, 5, 9]."""
    out = []
    for line in sorted(lines):
        if out and line == out[-1][1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def report(package_dir, seen):
    """One line per function with statements that never ran, and the
    module.qualname of each function never called whose enclosing function
    ran."""
    rows, uncalled = [], []
    for name in sorted(os.listdir(package_dir)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package_dir, name)
        dead = []
        for (qualname, first), lines in sorted(_executable(path).items(), key=lambda kv: kv[0][1]):
            ran = seen.get((path, qualname, first))
            if ran is None:
                rows.append(f"{name}:{first} {qualname}: never called ({_ranges(lines)})")
                if not any(qualname.startswith(outer + ".") for outer in dead):
                    uncalled.append(f"{name[:-3]}.{qualname}")
                dead.append(qualname)
            elif lines - ran:
                rows.append(f"{name}:{first} {qualname}: {_ranges(lines - ran)}")
    return rows, uncalled


def run_traffic(bench_dir):
    """The cli_diff grid, then the benchmark's rounds and defect ops."""
    sys.path.insert(1, bench_dir)
    import cli_diff
    from eigenbounds import cli
    from workloads import WORKLOADS, defect_ops, execute, make_rounds

    grid = cli_diff.commands()
    for argv in grid:
        cli_diff.run(argv, cli.main)
    ops = 0
    for workload in WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            for round_ in make_rounds(workload, seed, rounds=WORKLOAD_ROUNDS):
                for op in round_:
                    execute(op)
                    ops += 1
        for op in defect_ops(workload):
            execute(op)
            ops += 1
    return len(grid), ops


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(HERE, os.pardir, "src"), help="source tree to import")
    args = ap.parse_args()
    src = os.path.abspath(args.src)
    package_dir = os.path.join(src, "eigenbounds")
    sys.path.insert(0, src)
    with LineTracer(package_dir + os.sep) as tracer:
        import eigenbounds  # noqa: F401  (module-level lines run under the tracer)

        commands, ops = run_traffic(os.path.join(HERE, os.pardir, "bench"))
    print(f"{commands} grid commands and {ops} benchmark ops; statements never run in {package_dir}:")
    rows, uncalled = report(package_dir, tracer.seen)
    for row in rows:
        print(row)
    unexplained = sorted(set(uncalled) - set(KEPT))
    stale = sorted(set(KEPT) - set(uncalled))
    for name in unexplained:
        print(f"never called and not in KEPT: {name}")
    for name in stale:
        print(f"in KEPT but not a function never called: {name}")
    return 1 if unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
