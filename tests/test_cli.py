"""Command-line contract: output records, CSV shapes, exit codes."""

import argparse
import csv
import io
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from eigenbounds import bounds, cli
from eigenbounds.cli import main
from eigenbounds.coefficients import CurvatureParams
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
        assert "(first zero of the 4*kappa1 factor)" in err
        # the Riemannian violation names its factor too
        code, _, err = run_cli(
            capsys, "bound", "riemannian-dirichlet", "--n", "3", "--k", "1", "--R", "2"
        )
        assert code == 2
        assert err == (
            "eigenbounds: validity: R = 2.0 reaches the validity radius 1.5707963267948966 "
            "(first zero of the kappa factor)\n"
        )

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
        # argparse's negative-number pattern misses -inf
        code, out, err = run_cli(capsys, "bound", "kahler-neumann", "--k1", "-inf", "--D", "1")
        assert code == 2 and out == ""
        assert err == "eigenbounds: validity: kappa1 must be finite\n"

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
        # at D = 1e300 the eigenvalue pi^2/D^2 underflows: one line that says
        # so, never 0 or a subnormal as a bound
        code, out, err = run_cli(capsys, "bound", "kahler-neumann", "--m", "2", "--D", "1e300")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("eigenbounds: solver: the eigenvalue underflows in floating point")

    def test_weight_range_overflow_names_the_cause(self, capsys):
        # C(1, -1)^499 rises and then falls towards 0 near the validity radius
        # over more orders of magnitude than a float holds: the sweep
        # overflows, and the one solver line says why
        code, out, err = run_cli(
            capsys, "bound", "riemannian-dirichlet", "--n", "500", "--k", "1.0",
            "--lambda", "-1.0", "--R", "2.3538382957021526",
        )
        assert code == 1 and out == ""
        assert err == (
            "eigenbounds: solver: shooting integration overflowed: the weight spans more"
            " orders of magnitude on the interval than floating point holds\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("kahler-neumann", "--m", "2", "--D", "1e-300"),
            ("kahler-neumann", "--m", "2", "--D", "1e-160"),
            ("kahler-neumann", "--m", "2", "--D", "1e-155"),
            # the solver gets D/2: a diameter below twice the floor used to
            # be refused as an "interval length" of D/2
            ("kahler-neumann", "--m", "2", "--D", "1.5e-152"),
            ("kahler-dirichlet", "--m", "2", "--lambda", "1e300", "--R", "1e-301"),
            ("kahler-dirichlet", "--m", "2", "--R", "1e-160"),
            ("riemannian-neumann", "--n", "3", "--D", "1e-160"),
            ("riemannian-neumann", "--n", "3", "--D", "1.5e-152"),
            ("riemannian-dirichlet", "--n", "3", "--R", "1e-160"),
        ],
        ids=" ".join,
    )
    def test_tiny_interval_exits_2(self, capsys, argv):
        # the eigenvalue scale 1/length^2 overflows: refused in one line that
        # names the length given, a diameter at twice the solved floor
        code, out, err = run_cli(capsys, "bound", *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        what, floor = ("diameter", "2e-152") if "--D" in argv else ("inradius", "1e-152")
        assert err.startswith(f"eigenbounds: validity: {what} must be at least {floor} ")
        assert err.endswith(f"got {argv[-1]}\n")

    def test_tiny_interval_floor_keeps_values(self, capsys):
        # D = 1e-150 still solves, on the flat closed form pi^2 / D^2
        code, out, err = run_cli(capsys, "bound", "kahler-neumann", "--m", "2", "--D", "1e-150")
        assert code == 0 and err == ""
        res = parse_json(out)["results"]
        assert res["value"] == pytest.approx(math.pi**2 * 1e300, rel=1e-13)
        assert res["fd_value"] == pytest.approx(math.pi**2 * 1e300, rel=1e-12)

    @pytest.mark.parametrize("D", ["1e-120", "1e-103", "1e100", "1e150"])
    def test_extreme_lengths_keep_the_closed_form(self, capsys, D):
        # the solvers work at a power-of-two length scale, so the RK4 band's
        # h^3 and h^4 neither underflow (small D) nor overflow (large D)
        code, out, err = run_cli(capsys, "bound", "kahler-neumann", "--m", "2", "--D", D)
        assert code == 0 and err == ""
        res = parse_json(out)["results"]
        exact = math.pi**2 / float(D) ** 2
        assert res["value"] == pytest.approx(exact, rel=1e-13)
        assert res["fd_value"] == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize(
        "argv, exact",
        [
            (("kahler-neumann", "--m", "50", "--k2", "1", "--D", repr(0.9999 * math.pi)), 99.0),
            (("kahler-neumann", "--m", "50", "--k2", "1", "--D", repr((1 - 1e-6) * math.pi)), 99.0),
            (("kahler-neumann", "--m", "50", "--k2", "1", "--D", repr((1 - 1e-9) * math.pi)), 99.0),
            (("kahler-neumann", "--m", "20", "--k2", "1", "--D", repr((1 - 1e-9) * math.pi)), 39.0),
            (("riemannian-neumann", "--n", "2000", "--k", "1", "--D", repr(0.99 * math.pi)), 2e3),
            (("riemannian-neumann", "--n", "2000", "--k", "1", "--D", repr(0.9 * math.pi)), 2e3),
            (("riemannian-neumann", "--n", "2000", "--k", "1", "--D", repr((1 - 1e-5) * math.pi)), 2e3),
            (("riemannian-neumann", "--n", "500", "--k", "1", "--D", repr((1 - 1e-13) * math.pi)), 5e2),
        ],
        ids=["m50-0.9999", "m50-1e-6", "m50-1e-9", "m20-1e-9", "n2000-0.99", "n2000-0.9",
             "n2000-1e-5", "n500-1e-13"],
    )
    def test_near_cap_weight_underflow_is_cut(self, capsys, argv, exact):
        # the weight underflows on the last cells of the shooting mesh; the
        # mesh ends before the samples below 8 times the smallest normal
        # float, as the FD grid ends before its zeros, and the bound sits just
        # above the sharp value at the cap.  The last row is on the cap within
        # SHARP_RTOL, a cut problem whose weight underflows short of the cut
        code, out, err = run_cli(capsys, "bound", *argv)
        assert code == 0 and err == ""
        res = parse_json(out)["results"]
        assert res["value"] == pytest.approx(exact, rel=1e-8) and res["value"] > exact
        assert res["method_agreement"] < 1e-8

    def test_near_cap_bound_is_not_above_the_model_value(self, capsys):
        # D = 1.44 is 0.917 of the kappa1 cap: FD at n = 32,000 and a uniform
        # shooting mesh agree on 26.4005433544030, and a mesh graded into the
        # gap to the cap returned 26.400590875055894, a lower bound 1.8e-6 too high
        code, out, err = run_cli(
            capsys, "bound", "kahler-neumann", "--m", "6", "--k1", "1", "--k2", "2", "--D", "1.44"
        )
        assert code == 0 and err == ""
        res = parse_json(out)["results"]
        assert res["value"] == pytest.approx(26.4005433544030, rel=1e-12)
        assert res["method_agreement"] < 1e-12

    def test_negative_exponent_flag_is_a_value(self, capsys):
        # argparse's negative-number pattern misses exponent notation
        decimal = run_cli(capsys, "bound", "kahler-neumann", "--k1", "-0.001", "--D", "1")
        assert decimal[0] == 0
        assert run_cli(capsys, "bound", "kahler-neumann", "--k1", "-1e-3", "--D", "1") == decimal
        code, out, _ = run_cli(
            capsys, "bound", "kahler-dirichlet", "--m", "2", "--lambda", "-5e-05", "--R", "0.5"
        )
        assert code == 0 and parse_json(out)["inputs"]["lambda"] == -5e-05

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
# grew, and at m = 40 and 50 the weight underflows on the grid.  The
# kappa1-sharp rows vanish to order 1 (2m - 1 with kappa2 sharp too); the
# truncation-limit fit left the first 4.9e-8 off
SHARP_PI = "3.141592653589793"
SHARP_ROWS = [
    (("kahler-neumann", "--m", str(m), "--k2", "1", "--D", SHARP_PI), 2.0 * m - 1.0)
    for m in (5, 7, 14, 20, 40, 50)
] + [
    (("riemannian-neumann", "--n", "20", "--k", "1", "--D", SHARP_PI), 20.0),
    (("kahler-neumann", "--m", "2", "--k1", "1", "--D", "1.5707963267948966"), 8.0),
    (("kahler-neumann", "--m", "3", "--k1", "0.25", "--k2", "1", "--D", SHARP_PI), 6.0),
]


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
        assert abs(res["value"] - exact) <= 1e-12 * exact


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

    def test_monotonicity_failure_keeps_the_record(self, capsys, monkeypatch):
        # a bound that fails to decrease is a failed check in the record,
        # with the scan's message; `verify` still prints and exits 1
        flat = bounds.kahler_neumann_bound(CurvatureParams(m=2, kappa1=0.0), 1.0)
        monkeypatch.setattr(bounds, "kahler_neumann_bound", lambda params, D, n=2000: flat)
        code, out, _ = run_cli(capsys, "verify", "monotonicity")
        assert code == 1
        checks = parse_json(out)["results"]["checks"]
        assert [c["ok"] for c in checks] == [False, False]
        assert all("failed to decrease" in c["values"]["error"] for c in checks)
        code, out, err = run_cli(capsys, "verify", "all", "--format", "csv")
        assert code == 1
        assert parse_csv(out) and "checks failed" in err and len(err.splitlines()) == 1

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


class TestOptions:
    # each option a subcommand takes: a new knob is a visible change here
    OPTIONS = {
        "bound": {"--m", "--k1", "--k2", "--D", "--lambda", "--R", "--n", "--k", "--grid",
                  "--format"},
        "table": {"--m", "--k1", "--k2", "--D-grid", "--grid", "--format"},
        "verify": {"--seed", "--grid", "--format"},
        "scan": {"--param", "--range", "--m", "--k1", "--k2", "--D", "--lambda", "--R", "--grid",
                 "--format"},
    }

    def test_option_set_is_pinned(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {
            name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert options == self.OPTIONS

    @pytest.mark.parametrize(
        "argv",
        [
            ("bound", "kahler-neumann", "--D", "1"),
            ("table", "prop13"),
            ("verify", "lemma32"),
            ("scan", "--param", "D", "--range", "1:1.5:0.5"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_tol_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as ei:
            main([*argv, "--tol", "1e-10"])
        assert ei.value.code == 64
        out = capsys.readouterr()
        assert out.out == "" and "unrecognized arguments: --tol 1e-10" in out.err


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

    def test_commands_load_no_unused_scipy(self):
        # the commands use two LAPACK routines of scipy's compiled _flapack,
        # loaded on its own: the scipy.linalg package (with scipy._lib and
        # the numpy.f2py it pulls in), scipy.sparse, scipy.optimize,
        # scipy.integrate and scipy.special serve no command, and importing
        # them took longer than a bound
        script = """
import contextlib, io, json, math, sys
from eigenbounds.cli import main
argvs = (
    ["bound", "kahler-neumann", "--m", "2", "--k1", "0.25", "--D", "2"],
    ["bound", "kahler-neumann", "--m", "2", "--k1", "1", "--D", repr(math.pi / 2)],
    ["table", "prop13"],
    ["verify", "surfaces", "--seed", "3"],
)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in argvs]
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0, 0, 0, 0], ["scipy.linalg._flapack"]]


    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eigenbounds.cli", "bound", "kahler-neumann", "--D", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        rec = json.loads(proc.stdout)
        assert rec["results"]["value"] == pytest.approx(math.pi**2, rel=1e-9)


class TestCliDiffSummary:
    def test_summary_counts_moved_values_and_lists_other_changes(self, capsys):
        import cli_diff

        def rec(argv, stdout, code=0, stderr=""):
            return {"argv": argv, "exit": code, "stdout": stdout, "stderr": stderr, "warnings": []}

        parent = [
            rec(["a"], json.dumps({"results": {"value": 2.0, "fd_value": 1.0}})),
            rec(["b"], "family,fd_value\nx,4.0\n"),
            rec(["c"], "", 1, "no bracket\n"),
            rec(["d"], json.dumps({"ok": True})),
        ]
        change = [
            parent[0],
            rec(["b"], "family,fd_value\nx,4.000000000000001\n"),
            rec(["c"], "", 1, "not finite\n"),
            rec(["d"], json.dumps({"ok": False})),
        ]
        assert cli_diff.summarize(parent, change) == 2
        out = capsys.readouterr().out
        assert "1 of 4 commands byte-identical" in out
        assert "  exit code, stderr or warnings: c\n" in out and "  non-numeric ok: d\n" in out
        assert "  fd_value: 1, 2.22e-16, 4 -> 4\n" in out and "  value: 0, 0, 2 -> 2\n" in out
        with pytest.raises(SystemExit):
            cli_diff.summarize(parent, change[:3])
