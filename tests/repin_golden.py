"""Re-pin named fields of golden_bounds.json after a meant change of behaviour.

    PYTHONPATH=src python tests/repin_golden.py FIELD [FIELD ...]

Runs every golden command and takes each FIELD (a key at any depth, such as
`fd_value` or a scan row's `method_agreement`) from its output, printing
old -> new for every value that moves.  Every other field must still match
under test_cli's comparator (floats to 1e-12 relative), and every command
must exit 0 with nothing on stderr; otherwise the offending fields are
listed, nothing is written and the exit status is 1.  The file name keeps
pytest from collecting it.
"""

import contextlib
import io
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from test_cli import _csv_field, assert_same_record, parse_csv, parse_json  # noqa: E402

from eigenbounds.cli import main  # noqa: E402

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "golden_bounds.json"


def repin(actual, expected, fields, where, moved, repinned):
    """`expected` with each of `fields` taken from `actual`; the paths of other
    values that do not match go to `moved`, the re-pinned ones that change to
    `repinned` as (path, old, new)."""
    if isinstance(expected, dict) and isinstance(actual, dict) and list(actual) == list(expected):
        out = {}
        for key, old in expected.items():
            if key in fields:
                out[key] = actual[key]
                if actual[key] != old:
                    repinned.append((f"{where}.{key}", old, actual[key]))
            else:
                out[key] = repin(actual[key], old, fields, f"{where}.{key}", moved, repinned)
        return out
    if isinstance(expected, list) and isinstance(actual, list) and len(actual) == len(expected):
        return [
            repin(a, e, fields, f"{where}[{i}]", moved, repinned)
            for i, (a, e) in enumerate(zip(actual, expected))
        ]
    try:
        assert_same_record(actual, expected, where)
    except AssertionError:
        moved.append(where)
    return expected


def main_repin(fields):
    golden = json.loads(GOLDEN_PATH.read_text())
    moved, repinned = [], []
    for case in golden:
        where = " ".join(case["argv"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(case["argv"]))
        if code != 0 or err.getvalue():
            moved.append(f"{where}: exit {code}, stderr {err.getvalue()!r}")
            continue
        if "csv" in case["argv"]:
            # compared as numbers, pinned as the CSV text
            (row,) = parse_csv(out.getvalue())
            number = lambda rec: {k: _csv_field(v) for k, v in rec.items()}
            repin(number(row), number(case["results"]), fields, where, moved, [])
            new = {k: row.get(k, v) if k in fields else v for k, v in case["results"].items()}
            repinned += [(f"{where}.{k}", v, new[k]) for k, v in case["results"].items() if new[k] != v]
            case["results"] = new
        else:
            results = parse_json(out.getvalue())["results"]
            case["results"] = repin(results, case["results"], fields, where, moved, repinned)
    for path, old, new in repinned:
        print(f"{path}: {old!r} -> {new!r}")
    if moved:
        print("not re-pinned, as these moved too:", *moved, sep="\n  ", file=sys.stderr)
        return 1
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main_repin(set(sys.argv[1:])))
