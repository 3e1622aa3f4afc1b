import argparse
import json
import math
import numbers
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import jmatrix
from jmatrix import cli, morse, opfamilies
from jmatrix.cli import build_parser, main
from jmatrix.errors import ValidationError
from jmatrix.polycore import format_scalar
from test_golden import CASES, golden_path


def run_json(capsys, argv):
    status = main(argv)
    out = capsys.readouterr().out
    return status, json.loads(out)


class TestMorseCommand:
    def test_levels(self, capsys):
        status, report = run_json(capsys, ["morse", "--b", "2.25", "--levels"])
        assert status == 0
        assert report["schema"] == "jmatrix/1"
        eigs = report["results"]["bound_states"]["eigenvalues"]
        assert abs(eigs[0] + 3.0625) <= 1e-10 and abs(eigs[1] + 0.5625) <= 1e-10

    def test_identity_and_tridiag(self, capsys):
        status, report = run_json(
            capsys, ["morse", "--b", "9/4", "--identity", "0", "--tridiag", "4"]
        )
        assert status == 0
        ident = report["results"]["expansion_identity"]
        assert ident["C"] == "2/3" and ident["max_residual"] == 0.0 and ident["exact"]
        assert report["results"]["tridiag"]["split_index"] == 1

    def test_half_integer_is_usage_error(self, capsys):
        assert main(["morse", "--b", "1.5", "--levels"]) == 1

    @pytest.mark.parametrize(
        "mode, b", [("float", "inf"), ("float", "-inf"), ("float", "nan"), ("float", "1e400"), ("exact", "1e400")]
    )
    def test_non_finite_b_is_usage_error(self, capsys, mode, b):
        assert main(["--mode", mode, "morse", f"--b={b}", "--levels"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "finite" in err and err.count("\n") == 1

    def test_large_b_levels(self, capsys):
        # energies of size 2.5e5, a 499-by-499 block; the in-process
        # test_largest_model_passes takes N = 1000, whose report is 4 times larger
        status, report = run_json(capsys, ["morse", "--b", "499.25", "--levels"])
        assert status == 0
        eigs = report["results"]["bound_states"]["eigenvalues"]
        assert len(eigs) == 499 and abs(eigs[0] + 498.75**2) <= 1e-10 * 498.75**2

    def test_float_identity_beyond_its_rounding_is_an_error(self, capsys):
        assert main(["--mode", "float", "morse", "--b", "129/4", "--identity", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: --identity 3 at N = 32:") and "rational" in err

    def test_float_identity_within_its_rounding(self, capsys):
        status, report = run_json(capsys, ["--mode", "float", "morse", "--b", "65/4", "--identity", "3"])
        ident = report["results"]["expansion_identity"]
        assert status == 0 and not ident["exact"] and ident["max_residual"] <= 1e-9

    def test_residual_is_over_its_rounding_scale(self, capsys):
        # the absolute residual read 7.9e-9 here, beyond --residual-tol, and exited 0
        status, report = run_json(capsys, ["morse", "--b", "3999/4", "--residual", "100"])
        res = report["results"]["action_residual"]
        assert status == 0 and res["max_residual"] <= 1e-13 and set(res) == {"n_max", "grid", "max_residual"}

    def test_huge_exponent_is_usage_error(self, capsys):
        assert main(["morse", "--b", "1e-100000000", "--levels"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --b:") and "exponent" in err and err.count("\n") == 1

    def test_csv_levels(self, capsys):
        status = main(["--out", "csv", "morse", "--b", "2.25", "--levels"])
        assert status == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 and float(lines[0]) < float(lines[1]) < 0


class TestLameCommand:
    def test_spectrum_trace(self, capsys):
        status, report = run_json(capsys, ["lame", "--e", "3,-1,-2", "--m", "2", "--spectrum"])
        assert status == 0
        eigs = report["results"]["even_spectrum"]["eigenvalues"]
        assert len(eigs) == 2 and abs(sum(eigs)) <= 1e-12
        assert max(report["results"]["even_spectrum"]["ode_residuals"]) <= 1e-9

    def test_spectrum_of_a_large_block(self, capsys):
        # m = 60 exited 2 while P_{k+1} was cross-checked through monomials
        status, report = run_json(capsys, ["lame", "--e", "3,-1,-2", "--m", "60", "--spectrum"])
        spec = report["results"]["even_spectrum"]
        assert status == 0 and len(spec["eigenvalues"]) == 31 and max(spec["ode_residuals"]) <= 1e-12
        assert "root_eigenvalues" not in spec

    def test_spectrum_residual_beyond_the_tolerance_is_an_error(self, capsys):
        assert main(["--residual-tol", "1e-20", "lame", "--e", "3,-1,-2", "--m", "4", "--spectrum"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("error: --spectrum at m = 4: residual")

    def test_residuals_exact_zero(self, capsys):
        status, report = run_json(capsys, ["lame", "--e", "3,-1,-2", "--m", "2", "--residuals", "5"])
        assert status == 0
        for row in report["results"]["tridiag_residuals"]:
            assert row["residual_coeffs"] == []

    def test_diagnostic(self, capsys):
        status, report = run_json(
            capsys, ["lame", "--e", "3,-1,-2", "--m", "3/2", "--diagnostic", "300"]
        )
        assert status == 0
        diag = report["results"]["selfadjoint_diagnostic"]
        assert diag["sign"] == -1 and diag["heuristic"] is True

    def test_bad_branch_values(self):
        assert main(["lame", "--e", "3,-1", "--m", "2", "--spectrum"]) == 1


class TestOtherCommands:
    def test_tridiag_schema(self, capsys):
        status, report = run_json(
            capsys, ["tridiag", "--A", "0,0,0,1", "--B", "0,0,1", "--C", "0,1", "--n", "4"]
        )
        assert status == 0
        res = report["results"]
        assert set(res) == {"A_n", "B_n", "C_n", "y"}
        assert res["A_n"][0] == "1" and res["y"][1] == ["0", "1"]

    def test_tridiag_q_variant(self, capsys):
        status, report = run_json(
            capsys,
            ["tridiag", "--A", "0,0,0,1", "--B", "0,0,1", "--C", "0,1", "--n", "3", "--q", "1/2"],
        )
        assert status == 0

    def test_quad_csv(self, capsys):
        status = main(["--out", "csv", "quad", "--family", "jacobi:0,0", "--n", "2"])
        assert status == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "node,weight"
        node = float(lines[1].split(",")[0])
        assert abs(abs(node) - 1 / math.sqrt(3)) <= 1e-12

    def test_families_recurrence(self, capsys):
        status, report = run_json(
            capsys, ["families", "--family", "chebyshev", "--n", "2", "--recurrence"]
        )
        assert status == 0
        rows = report["results"]["recurrence"]
        assert rows[1]["u"] == "1/2" and rows[1]["w"] == "1/2"

    def test_integer_jacobi_parameters_are_exact(self, capsys):
        status, report = run_json(
            capsys, ["families", "--family", "jacobi:1,0", "--n", "2", "--recurrence"]
        )
        assert status == 0
        rows = report["results"]["recurrence"]
        assert [(r["u"], r["v"], r["w"]) for r in rows] == [
            ("2/3", "-1/3", 0), ("3/5", "-1/15", "1/3"), ("4/7", "-1/35", "2/5")
        ]

    @pytest.mark.parametrize(
        "decimal, rational, argv, table, fields",
        [
            ("cdh:2.75,0.25,1.75", "cdh:11/4,1/4,7/4", ["--n", "4", "--recurrence"], "recurrence", "uvw"),
            ("jacobi:2.25,0.5", "jacobi:9/4,1/2", ["--n", "10", "--asc"], "structure_relation", "ABC"),
        ],
    )
    def test_decimal_family_matches_its_rational_spelling(self, capsys, decimal, rational, argv, table, fields):
        # both decimal spellings used to exit 2 (a float solve failed its residual gate)
        tables = []
        for spec in (decimal, rational):
            status, report = run_json(capsys, ["--mode", "exact", "families", "--family", spec, *argv])
            assert status == 0
            tables.append(report["results"][table])
        for got, want in zip(*tables):
            for field in fields:
                g, w = float(got[field]), float(Fraction(want[field]))
                assert abs(g - w) <= 1e-13 * abs(w)

    @pytest.mark.parametrize("spec, degree", [("bessel:0,2", 1), ("bessel:-1,2", 2), ("bessel:-4,2", 3)])
    @pytest.mark.parametrize("key", ["--recurrence", "--asc"])
    def test_degenerate_bessel_is_an_error(self, capsys, spec, degree, key):
        assert main(["families", "--family", spec, key]) == 1
        params = ", ".join(spec.partition(":")[2].split(","))
        assert capsys.readouterr().err == (
            f"error: bessel({params}) degenerates at degree {degree} (leading coefficient vanished)\n"
        )

    @pytest.mark.parametrize(
        "argv, quantity",
        [
            (["quad", "--family", "laguerre:171", "--n", "4"], "weight mass of laguerre:171"),
            (["quad", "--family", "jacobi:1100,0", "--n", "4"], "weight mass of jacobi:1100,0"),
            (["quad", "--family", "laguerre:1e308", "--n", "4"], "weight mass of laguerre:1e+308"),
            (["families", "--family", "bessel:1/2,1e-320", "--n", "3", "--bochner"],
             "Bessel coefficients of bessel:1/2,1e-320"),
            (["families", "--family", "bessel:1/2,1e200", "--n", "3", "--bochner"],
             "Bessel coefficients of bessel:1/2,1e+200"),
        ],
    )
    def test_float_range_error_names_family_and_quantity(self, capsys, argv, quantity):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {quantity} ")

    @pytest.mark.parametrize(
        "argv, quantity",
        [
            (["families", "--family", "jacobi:1e200,1e200", "--n", "3", "--bochner"],
             "Jacobi coefficients of jacobi:1e+200,1e+200"),
            (["families", "--family", "laguerre:1/2", "--n", "200", "--bochner"],
             "Laguerre coefficients of laguerre:1/2"),
        ],
    )
    def test_series_float_range_error_names_family(self, capsys, argv, quantity):
        # the leading coefficient 1/(u_0 u_1) = 5e399 overflows; 1/200! underflows to 0
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {quantity} leave the float range\n"

    @pytest.mark.parametrize(
        "argv, cap",
        [
            (["quad", "--family", "hermite", "--n", "1001"], 1000),
            (["tridiag", "--A", "0,0,0,1", "--B", "0,0,1", "--C", "0,1", "--n", "201"], 200),
            (["families", "--family", "jacobi:1/2,1/3", "--n", "3001", "--eval", "1/3"], 3000),
        ],
    )
    def test_oversize_count_is_usage_error(self, capsys, argv, cap):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"usage error: argument --n: at most {cap}, got {cap + 1}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["quad", "--family", "jacobi:0,0", "--n", "1000"],
            ["tridiag", "--A", "0,0,0,1", "--B", "0,0,1", "--C", "0,1", "--n", "200"],
            ["families", "--family", "hermite", "--n", "3000", "--recurrence"],
        ],
    )
    def test_caps_admit_their_own_size(self, argv):
        n = argv[argv.index("--n") + 1]
        assert build_parser().parse_args(argv).n == int(n)

    def test_family_value_beyond_the_int_text_limit_names_the_family(self, capsys):
        # the exact laguerre(1/2) value at 1/3 passes 4300 digits at degree 1251
        assert main(["families", "--family", "laguerre:1/2", "--n", "1260", "--eval", "1/3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: laguerre:1/2 value at degree 1251 has more than {sys.get_int_max_str_digits()} digits\n"

    def test_family_values_stop_at_the_first_value_too_long(self, capsys, monkeypatch):
        # the pass ends at degree 1251; it used to run on to n = 3000 first
        asked = []
        coeffs = opfamilies.recurrence_coeffs
        monkeypatch.setattr(opfamilies, "recurrence_coeffs", lambda f, n: asked.append(n) or coeffs(f, n))
        assert main(["families", "--family", "laguerre:1/2", "--n", "3000", "--eval", "1/3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: laguerre:1/2 value at degree 1251 has more than {sys.get_int_max_str_digits()} digits\n"
        assert max(asked) == 1250

    def test_bochner_is_capped_before_any_work(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("work done past the --bochner cap")

        monkeypatch.setattr(opfamilies, "bochner_residual", refuse)
        monkeypatch.setattr(opfamilies.Family, "parse", refuse)
        assert main(["families", "--family", "hermite", "--n", "301", "--bochner"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"usage error: --bochner: --n at most {cli.BOCHNER_MAX_N}, got 301\n"

    def test_bochner_cap_admits_its_own_size(self, capsys, monkeypatch):
        monkeypatch.setattr(opfamilies, "bochner_residual", lambda f, n, samples: 0.0)
        status, report = run_json(capsys, ["families", "--family", "hermite", "--n", "300", "--bochner"])
        assert status == 0 and [r["n"] for r in report["results"]["ode_residuals"]] == list(range(301))

    def test_identity_is_capped_before_any_work(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("work done past the --identity cap")

        monkeypatch.setattr(morse, "expansion_identity", refuse)
        assert main(["morse", "--b", "261/4", "--identity", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"usage error: --identity: N at most {cli.IDENTITY_MAX_N}, got 65\n"

    def test_identity_cap_admits_its_own_size(self, capsys, monkeypatch):
        levels = []
        stub = lambda model, m: levels.append((model.N, m)) or morse.ExpansionIdentity(C=1, max_residual=0.0, exact=True)
        monkeypatch.setattr(morse, "expansion_identity", stub)
        status, report = run_json(capsys, ["morse", "--b", "257/4", "--identity", "3"])
        assert status == 0 and levels == [(cli.IDENTITY_MAX_N, 3)]
        assert report["results"]["expansion_identity"]["level"] == 3

    @pytest.mark.parametrize("n", ["3", "6"])
    def test_vanishing_q_coefficient_below_n_is_an_error(self, capsys, n):
        # d(2) = (1 - (-1)^2) / 2 = 0, and L x^2 is formed for n >= 3
        argv = ["--mode", "exact", "tridiag", "--A", "0,0,0,1", "--B", "0,0,1", "--C", "0,1", "--q", "-1", "--n", n]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: D_q[q=-1]: d(2) = 0 at k >= shift\n"

    def test_vanishing_q_coefficient_at_n_is_not_read(self, capsys):
        argv = ["--mode", "exact", "tridiag", "--A", "0,0,0,1", "--B", "0,0,1", "--C", "0,1", "--q", "-1", "--n", "2"]
        status, report = run_json(capsys, argv)
        assert status == 0
        assert report["results"] == {"A_n": ["1", "2"], "B_n": ["0", "0"], "C_n": ["0", "0"],
                                     "y": [["1"], ["0", "1"], ["0", "0", "1"]]}

    def test_family_values_are_one_pass(self, capsys, monkeypatch):
        # the values come from one recurrence, not one per degree; they were
        # O(n^2) recurrence steps before
        calls = []
        recurrence = opfamilies._recurrence
        monkeypatch.setattr(opfamilies, "_recurrence", lambda *a: calls.append(a[2]) or recurrence(*a))
        status, report = run_json(capsys, ["families", "--family", "jacobi:1/2,-1/4", "--n", "8", "--eval", "1/3"])
        assert status == 0 and calls == [8]
        assert [row["value"] for row in report["results"]["values"]] == [
            format_scalar(opfamilies.eval_family(opfamilies.Family.parse("jacobi:1/2,-1/4"), n, Fraction(1, 3)))
            for n in range(9)
        ]

    def test_verify_single_suite(self, capsys):
        status = main(["verify", "--suite", "weight-ode"])
        captured = capsys.readouterr()
        assert status == 0
        assert "PASS" in captured.err
        assert json.loads(captured.out)["results"]["all_passed"] is True

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "nonsense"]) == 1


class TestScalarInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["lame", "--e", "1e400,-1,-2", "--m", "2", "--spectrum"],
            ["lame", "--e", "3,-1,-2", "--m", "1e400", "--spectrum"],
            ["--mode", "float", "morse", "--b", "9/4", "--residual", "2", "--grid", "1e400"],
            ["--mode", "float", "tridiag", "--A", "0,0,0,1", "--B", "0,0,1", "--C", "0,1", "--n", "3", "--q", "1e400"],
            ["--mode", "float", "families", "--family", "jacobi:0,0", "--eval", "1e400"],
        ],
    )
    def test_non_finite_flag_is_usage_error(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "finite" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mode", "float", "families", "--family", "jacobi:1e400,0", "--n", "2", "--recurrence"],
            ["--mode", "float", "tridiag", "--A", "0,0,0,1e400", "--B", "0,0,1", "--C", "0,1", "--n", "3"],
            ["families", "--family", "jacobi:1/0,0", "--n", "2", "--recurrence"],
            ["families", "--family", "jacobi:nan,0", "--n", "2", "--recurrence"],
            ["families", "--family", "laguerre:inf", "--n", "2", "--recurrence"],
            ["tridiag", "--A", "0,0,0,1/0", "--B", "0,0,1", "--C", "0,1", "--n", "3"],
        ],
    )
    def test_bad_lexeme_is_an_error(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scalar") and err.count("\n") == 1

    def test_exact_mode_reads_decimals_as_rationals(self, capsys):
        status, report = run_json(capsys, ["families", "--family", "monomial", "--n", "2", "--eval", "0.1"])
        assert status == 0
        assert [row["value"] for row in report["results"]["values"]] == ["1", "1/10", "1/100"]


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        argv = ["lame", "--e", "3,-1,-2", "--m", "2", "--spectrum"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_tolerances_echoed(self, capsys):
        status, report = run_json(
            capsys, ["--quad-rtol", "1e-9", "morse", "--b", "2.25", "--levels"]
        )
        assert report["tolerances"]["quad_rtol"] == 1e-9
        assert set(report["tolerances"]) == {"quad_rtol", "residual_tol"}
        assert report["tolerances"]["residual_tol"] == 1e-9

    def test_env_mode_override(self, capsys, monkeypatch):
        monkeypatch.setenv("JMATRIX_MODE", "float")
        status, report = run_json(capsys, ["morse", "--b", "2.25", "--levels"])
        assert status == 0 and report["mode"] == "float"

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        status = main(["--output", str(path), "morse", "--b", "2.25", "--levels"])
        assert status == 0
        assert json.loads(path.read_text())["command"] == "morse"

    def test_non_finite_report_leaves_no_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        argv = ["--output", str(path), "families", "--family", "jacobi:1e308,1e308", "--n", "3", "--recurrence"]
        assert main(argv) == 1
        assert not path.exists()
        assert capsys.readouterr().err.startswith("error: the report holds a number that is not finite")

    def test_output_into_missing_directory(self, tmp_path, capsys):
        path = tmp_path / "missing" / "report.json"
        status = main(["--output", str(path), "morse", "--b", "2.25", "--levels"])
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "No such file or directory" in err
        assert err.count("\n") == 1


class TestParserReuse:
    """``main`` parses every call with one parser built on its first call."""

    BETWEEN = [
        (["morse", "--b", "9/4", "--parseval", "1"], 1, "usage error:"),
        (["families", "--family", "jacobi:1e308,1e308", "--n", "3", "--recurrence"], 1, "error:"),
        (["--out", "csv", "--mode", "float", "morse", "--b", "2.25", "--levels"], 0, ""),
    ]

    def test_reused_parser_carries_no_state(self, capsys, monkeypatch):
        monkeypatch.delenv("JMATRIX_MODE", raising=False)
        names = list(CASES)
        for name in names:
            assert main(CASES[name]) == 0
            assert capsys.readouterr().out == golden_path(name).read_text(), name
        for argv, status, err_start in self.BETWEEN:
            assert main(argv) == status
            out, err = capsys.readouterr()
            if status:
                assert out == "" and err.startswith(err_start) and err.count("\n") == 1
            else:
                assert len(out.splitlines()) == 2
        for name in reversed(names):
            assert main(CASES[name]) == 0
            assert capsys.readouterr().out == golden_path(name).read_text(), name

    def test_mode_follows_the_environment(self, capsys, monkeypatch):
        for mode in ("float", "exact", "float"):
            monkeypatch.setenv("JMATRIX_MODE", mode)
            status, report = run_json(capsys, ["morse", "--b", "9/4", "--levels"])
            assert status == 0 and report["mode"] == mode

    def test_main_does_not_build_a_parser_per_call(self, capsys, monkeypatch):
        assert main(["morse", "--b", "9/4", "--levels"]) == 0

        def fail():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", fail)
        assert main(["morse", "--b", "9/4", "--levels"]) == 0

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


def _jsonable(value):
    """The recursive normalisation the CLI used before it handed json a
    ``default``: the oracle for byte-identical reports."""
    if isinstance(value, Fraction):
        return format_scalar(value)
    if isinstance(value, (bool, type(None), str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


class TestSerialisation:
    ARGS = argparse.Namespace(out="json", output=None)
    TRICKY = {
        "fraction": Fraction(-7, 3),
        "whole_fraction": Fraction(4),
        "int64": np.int64(-(2**62)),
        "int8": np.int8(-5),
        "uint64": np.uint64(2**64 - 1),
        "float32": np.float32(0.1),
        "neg_zero": np.float64(-0.0),
        "float64": np.float64(1 / 3),
        "np_bool": np.bool_(True),
        "bool": False,
        "none": None,
        "big": 10**40,
        "text": "1/2",
        "matrix": np.arange(6, dtype=np.float64).reshape(2, 3) / 7,
        "objects": np.array([Fraction(1, 3), np.int64(2), np.float32(1.5), None, "s"], dtype=object),
        "bools": np.array([True, False]),
        "empty": np.zeros((0, 2)),
        "tuple": (np.float32(2.5), Fraction(1, 2), (np.int16(3), ())),
        "complex": 1 + 2j,
        "np_complex": np.complex128(1 - 1j),
        "nested": [{"a": np.float64(1e300), "b": [np.int32(7), -0.0]}, {}],
    }

    def test_emit_matches_the_walk(self, capsys):
        cli._emit(self.TRICKY, self.ARGS)
        want = json.dumps(_jsonable(self.TRICKY), indent=2, allow_nan=False) + "\n"
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("bad", [math.nan, np.float32("inf"), np.array([[1.0, math.nan]]), (Fraction(1), -math.inf)])
    def test_non_finite_value_writes_nothing(self, capsys, bad):
        with pytest.raises(ValidationError, match="not finite"):
            cli._emit({"ok": 1, "bad": bad}, self.ARGS)
        assert capsys.readouterr().out == ""


def test_closed_pipe_exits_1_quietly():
    # about 268 KB of output, far more than a pipe buffers: the writer meets
    # the closed pipe whatever the timing
    env = dict(os.environ)
    src = str(Path(jmatrix.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "jmatrix.cli", "families", "--family", "hermite", "--n", "3000", "--recurrence"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(50)) == 50
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err
