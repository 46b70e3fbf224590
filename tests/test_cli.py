"""Command-line contract: output records, CSV shapes, exit codes."""

import csv
import io
import json
import math
import pathlib
import subprocess
import sys

import pytest

from eigenbounds.cli import main


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


# pinned `results` of bound commands (the CSV case keeps its row): a
# float that moves beyond 1e-12 relative is a change of behaviour
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

    def test_fd_pencil_underflow_exits_1(self, capsys):
        # the m = 40 weight c^78 underflows near the sharp endpoint, so the
        # FD mass products vanish; this must be a one-line solver failure
        code, out, err = run_cli(
            capsys, "bound", "kahler-neumann", "--m", "40", "--k2", "1",
            "--D", "3.141592653589793",
        )
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("eigenbounds: solver:")

    @pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"][1:]))
    def test_golden_results(self, capsys, case):
        code, out, err = run_cli(capsys, *case["argv"])
        assert code == 0 and err == ""
        if "--format" in case["argv"]:
            (row,) = parse_csv(out)
            expected = {k: _csv_field(v) for k, v in case["results"].items()}
            assert_same_record({k: _csv_field(v) for k, v in row.items()}, expected)
        else:
            assert_same_record(parse_json(out)["results"], case["results"])

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "bound", "kahler-neumann", "--D", "1.3")
        _, out2, _ = run_cli(capsys, "bound", "kahler-neumann", "--D", "1.3")
        assert out1 == out2


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

    def test_monotonicity_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "monotonicity", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert all(set(r) == {"check", "ok", "tol"} for r in rows)
        assert all(r["ok"] == "1" for r in rows)

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
        for bad in ("bad", "1:2", "1:2:-0.5", "2:1:0.5"):
            with pytest.raises(SystemExit) as ei:
                main(["scan", "--param", "D", "--range", bad])
            assert ei.value.code == 64


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eigenbounds.cli", "bound", "kahler-neumann", "--D", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        rec = json.loads(proc.stdout)
        assert rec["results"]["value"] == pytest.approx(math.pi**2, rel=1e-9)
