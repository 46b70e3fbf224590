"""Command-line contract: output records, CSV shapes, exit codes."""

import csv
import io
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from eigenbounds import cli
from eigenbounds.cli import main
from eigenbounds.suites import DEFAULT_SEED
from eigenbounds.surfaces import comparison_check, random_convex_profile


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_json(stdout):
    rec = json.loads(stdout)
    assert set(rec) == {"schema_version", "command", "inputs", "results", "warnings"}
    assert rec["schema_version"] == "1"
    return rec


def parse_csv(stdout):
    return list(csv.DictReader(io.StringIO(stdout)))


# pinned `results` of bound commands (the CSV case keeps its row), one
# scan and one table: a float that moves beyond 1e-12 relative is a
# change of behaviour
GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_bounds.json").read_text())


def assert_same_record(actual, expected, where="results"):
    """Floats agree to 1e-12 relative; every other field is equal."""
    if isinstance(expected, float):
        assert isinstance(actual, float), where
        assert actual == pytest.approx(expected, rel=1e-12), where
    elif isinstance(expected, dict):
        assert list(actual) == list(expected), where
        for key in expected:
            assert_same_record(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_same_record(a, e, f"{where}[{i}]")
    else:
        assert type(actual) is type(expected) and actual == expected, where


def _csv_field(text):
    try:
        return float(text)
    except ValueError:
        return text


class TestBound:
    def test_flat_kahler_neumann_json(self, capsys):
        code, out, err = run_cli(
            capsys, "bound", "kahler-neumann", "--m", "2", "--k1", "0", "--k2", "0", "--D", "1"
        )
        assert code == 0 and err == ""
        rec = parse_json(out)
        assert rec["command"] == "bound kahler-neumann"
        assert rec["inputs"]["D"] == 1.0 and rec["inputs"]["m"] == 2
        assert rec["results"]["value"] == pytest.approx(math.pi**2, rel=1e-9)

    def test_bound_csv_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "kahler-neumann", "--D", "1", "--format", "csv"
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["value"]) == pytest.approx(math.pi**2, rel=1e-9)
        assert float(rows[0]["method_agreement"]) < 1e-7

    def test_riemannian_dirichlet_flat(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "riemannian-dirichlet",
            "--n", "3", "--k", "0", "--lambda", "0", "--R", "1",
        )
        assert code == 0
        rec = parse_json(out)
        assert rec["results"]["value"] == pytest.approx(math.pi**2 / 4, rel=1e-9)

    def test_diameter_cap_exits_2_with_message(self, capsys):
        code, out, err = run_cli(
            capsys, "bound", "kahler-neumann", "--m", "1", "--k1", "1", "--D", "2.0"
        )
        assert code == 2 and out == ""
        assert "1.5707963" in err

    def test_inradius_cap_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "kahler-dirichlet", "--m", "2", "--k1", "1", "--R", "1"
        )
        assert code == 2 and "validity radius" in err

    def test_missing_required_flag_is_usage(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["bound", "kahler-neumann"])
        assert ei.value.code == 64

    def test_nonfinite_curvature_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "bound", "riemannian-neumann", "--n", "3", "--k", "nan", "--D", "1"
        )
        assert code == 2 and out == ""
        assert err == "eigenbounds: validity: kappa must be finite\n"

    def test_m40_sharp_bound_returns_closed_form(self, capsys):
        # the m = 40 weight c^78 is subnormal near the sharp endpoint; both
        # methods still give 2m - 1
        code, out, err = run_cli(
            capsys, "bound", "kahler-neumann", "--m", "40", "--k2", "1",
            "--D", "3.141592653589793",
        )
        assert code == 0 and err == ""
        res = parse_json(out)["results"]
        assert res["value"] == pytest.approx(79.0, abs=1e-9)
        assert res["fd_value"] == pytest.approx(79.0, abs=1e-9)

    def test_grid_above_cap_exits_2(self, capsys):
        # refused before any finite-difference array is allocated
        code, out, err = run_cli(
            capsys, "bound", "kahler-neumann", "--D", "1", "--grid", "200000000"
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("eigenbounds: validity:")

    def test_weight_overflow_exits_1(self, capsys):
        # the m = 50 weight cosh(2t)^98 overflows long before D = 1000: one
        # solver line, no numpy warnings
        code, out, err = run_cli(
            capsys, "bound", "kahler-neumann", "--m", "50", "--k2", "-4", "--D", "1000"
        )
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("eigenbounds: solver:")

    @pytest.mark.parametrize(
        "case", GOLDEN,
        ids=lambda c: " ".join(c["argv"][1:] if c["argv"][0] == "bound" else c["argv"]),
    )
    def test_golden_results(self, capsys, case):
        code, out, err = run_cli(capsys, *case["argv"])
        assert code == 0 and err == ""
        if "csv" in case["argv"]:
            (row,) = parse_csv(out)
            expected = {k: _csv_field(v) for k, v in case["results"].items()}
            assert_same_record({k: _csv_field(v) for k, v in row.items()}, expected)
        else:
            assert_same_record(parse_json(out)["results"], case["results"])

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "bound", "kahler-neumann", "--D", "1.3")
        _, out2, _ = run_cli(capsys, "bound", "kahler-neumann", "--D", "1.3")
        assert out1 == out2


# sharp bounds whose weight vanishes to order 2m - 2 (n - 1) at the
# endpoint: the symmetrized FD pencil lost these eigenvalues as the order
# grew, and at m = 40 and 50 the weight underflows on the grid
SHARP_PI = "3.141592653589793"
SHARP_ROWS = [
    (("kahler-neumann", "--m", str(m), "--k2", "1", "--D", SHARP_PI), 2.0 * m - 1.0)
    for m in (5, 7, 14, 20, 40, 50)
] + [(("riemannian-neumann", "--n", "20", "--k", "1", "--D", SHARP_PI), 20.0)]


class TestSharpRows:
    @pytest.mark.parametrize("argv, exact", SHARP_ROWS, ids=[" ".join(a) for a, _ in SHARP_ROWS])
    def test_methods_agree_within_their_errors(self, capsys, argv, exact):
        code, out, _ = run_cli(capsys, "bound", *argv)
        assert code == 0
        res = parse_json(out)["results"]
        gap = abs(res["shooting_value"] - res["fd_value"])
        assert gap <= res["fd_error"] + res["shooting_residual"]
        assert res["fd_value"] == pytest.approx(exact, abs=1e-9)
        assert res["value"] == pytest.approx(exact, abs=1e-9)


class TestTable:
    def test_prop13_ratios(self, capsys):
        code, out, _ = run_cli(capsys, "table", "prop13")
        assert code == 0
        rec = parse_json(out)
        rows = rec["results"]["rows"]
        assert len(rows) == 12
        for row in rows:
            assert row["ratio"] == pytest.approx(1.0, abs=1e-6)

    def test_prop13_csv_header(self, capsys):
        code, out, _ = run_cli(capsys, "table", "prop13", "--format", "csv")
        assert code == 0
        first = out.splitlines()[0]
        assert first == "case,m,kappa1,kappa2,D,expected,computed,ratio"

    def test_lichnerowicz_margins_nonnegative(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "lichnerowicz", "--m", "2", "--k1", "1",
            "--D-grid", "0.5:1.55:0.15",
        )
        assert code == 0
        rec = parse_json(out)
        margins = [r["margin"] for r in rec["results"]["rows"]]
        assert len(margins) == 8
        assert all(m >= 0 for m in margins)
        # margin shrinks toward zero at the maximal diameter
        assert all(b < a for a, b in zip(margins, margins[1:]))

    def test_lichnerowicz_requires_grid(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["table", "lichnerowicz", "--k1", "1"])
        assert ei.value.code == 64

    def test_unknown_table_is_usage(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["table", "nosuch"])
        assert ei.value.code == 64


class TestVerify:
    def test_lemma32_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "lemma32")
        assert code == 0
        rec = parse_json(out)
        assert rec["results"]["passed"] == 5 and rec["results"]["failed"] == 0
        assert rec["results"]["ok"] is True

    def test_lemma32_passes_on_fine_grid(self, capsys):
        # the full-interval solver keeps relative accuracy on fine grids
        code, out, _ = run_cli(capsys, "verify", "lemma32", "--grid", "100000")
        assert code == 0
        checks = parse_json(out)["results"]["checks"]
        assert len(checks) == 5
        assert all(c["values"]["agreement"] < 1e-12 for c in checks)

    def test_monotonicity_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "monotonicity", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert all(set(r) == {"check", "ok", "tol"} for r in rows)
        assert all(r["ok"] == "1" for r in rows)

    def test_surfaces_bound_uses_grid(self, capsys):
        # the echoed --grid is the FD grid of each profile's bound
        code, out, _ = run_cli(capsys, "verify", "surfaces", "--grid", "4000")
        assert code == 0
        rec = parse_json(out)
        assert rec["inputs"]["grid"] == 4000
        first = random_convex_profile(np.random.default_rng(DEFAULT_SEED))
        check = rec["results"]["checks"][0]
        assert check["name"] == "convex_profile_0"
        assert check["values"]["slack"] == comparison_check(first, grid=4000).slack

    @pytest.mark.parametrize("suite", ["surfaces", "heatflow"])
    def test_negative_seed_is_usage(self, capsys, suite):
        with pytest.raises(SystemExit) as ei:
            main(["verify", suite, "--seed", "-1"])
        assert ei.value.code == 64
        out = capsys.readouterr()
        assert out.out == "" and "Traceback" not in out.err
        assert "--seed: must be non-negative" in out.err

    def test_unknown_suite_is_usage(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["verify", "nosuch"])
        assert ei.value.code == 64


class TestScan:
    def test_flat_diameter_scan_matches_closed_form(self, capsys):
        code, out, err = run_cli(
            capsys, "scan", "--param", "D", "--m", "2", "--k1", "0", "--k2", "0",
            "--range", "0.5:3:0.25",
        )
        assert code == 0 and err == ""
        rows = parse_csv(out)
        assert len(rows) == 11
        for r in rows:
            D = float(r["D"])
            assert float(r["value"]) == pytest.approx(math.pi**2 / D**2, rel=1e-8)

    def test_cap_truncates_with_warning(self, capsys):
        code, out, err = run_cli(
            capsys, "scan", "--param", "D", "--m", "1", "--k1", "1", "--range", "1.0:3.0:0.5"
        )
        assert code == 0
        rows = parse_csv(out)
        assert [float(r["D"]) for r in rows] == [1.0, 1.5]
        assert "truncated" in err

    def test_negative_lambda_range_parses(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--param", "lambda", "--m", "2", "--R", "0.5",
            "--range", "-1:0.9:0.5",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [float(r["lambda"]) for r in rows] == [-1.0, -0.5, 0.0, 0.5]
        values = [float(r["value"]) for r in rows]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_scan_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--param", "D", "--range", "1:2:0.5", "--format", "json"
        )
        assert code == 0
        rec = parse_json(out)
        assert rec["command"] == "scan"
        assert len(rec["results"]["rows"]) == 3

    def test_k_scan_requires_fixed_D(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["scan", "--param", "k1", "--range", "0:1:0.5"])
        assert ei.value.code == 64

    def test_bad_range_is_usage(self, capsys):
        bad_ranges = (
            "bad", "1:2", "1:2:-0.5", "2:1:0.5", "nan:1:0.5", "1:inf:0.5", "1:2:inf", "1:1e12:1",
        )
        for bad in bad_ranges:
            with pytest.raises(SystemExit) as ei:
                main(["scan", "--param", "D", "--range", bad])
            assert ei.value.code == 64

    # a scan row is the `bound` request of its family with the scanned flag
    # set to the row's value, so the two agree bit for bit
    @pytest.mark.parametrize(
        "param, bound_argv",
        [
            ("D", "kahler-neumann --m 2 --D 1.5"),
            ("k1", "kahler-neumann --m 2 --k1 0.5 --D 1.5"),
            ("k2", "kahler-neumann --m 3 --k2 0.5 --D 1.5"),
            ("lambda", "kahler-dirichlet --m 2 --k1 0.25 --lambda 0.5 --R 0.5"),
            ("R", "kahler-dirichlet --m 2 --k1 0.25 --R 0.5"),
        ],
    )
    def test_scan_row_is_bound_record(self, capsys, param, bound_argv):
        family, *flags = bound_argv.split()
        v = flags[flags.index(f"--{param}") + 1]
        code, out, _ = run_cli(capsys, "bound", family, *flags)
        assert code == 0
        expected = parse_json(out)["results"]
        code, out, _ = run_cli(
            capsys, "scan", "--param", param, "--range", f"{v}:{v}:1", *flags, "--format", "json"
        )
        assert code == 0
        (row,) = parse_json(out)["results"]["rows"]
        assert row[param] == float(v)
        assert row["value"] == expected["value"]
        assert row["method_agreement"] == expected["method_agreement"]


def _outcome(capsys, argv):
    """Exit code, stdout and stderr of one `main` call, usage exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEntryPoint:
    def test_reused_parser_matches_fresh(self, capsys, monkeypatch):
        calls = [
            ("bound", "kahler-neumann", "--D", "1"),
            ("bound", "kahler-neumann", "--D", "1", "--format", "csv"),
            ("table", "lichnerowicz"),
            ("scan", "--param", "D", "--range", "1:1.2:0.1"),
            ("bound", "nosuch"),
            ("verify", "lemma32"),
            ("bound", "riemannian-neumann", "--n", "3", "--D", "1"),
            ("scan", "--help"),
            ("bound", "kahler-neumann", "--D", "1"),
        ]
        reused = [_outcome(capsys, argv) for argv in calls]
        monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
        fresh = [_outcome(capsys, argv) for argv in calls]
        assert reused == fresh
        assert [r[0] for r in reused] == [0, 0, 64, 0, 64, 0, 0, 0, 0]


    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eigenbounds.cli", "bound", "kahler-neumann", "--D", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        rec = json.loads(proc.stdout)
        assert rec["results"]["value"] == pytest.approx(math.pi**2, rel=1e-9)
