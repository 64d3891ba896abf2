import json
import os
from importlib import resources

import pytest

from farkas.cli import (
    EXIT_FAILURE,
    EXIT_IO,
    EXIT_PASS,
    EXIT_USAGE,
    builtin_config_names,
    decimal_str,
    gaussian_decimal_str,
    load_builtin_config,
    load_identity_config,
    main,
    parse_gaussian_pair,
)
from farkas.foundations import gaussian
from fractions import Fraction

P37_5_19 = str(resources.files("farkas").joinpath("configs", "p37_5_19.json"))


class TestVerifyCommand:
    def test_pass_exit_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["verify", "--p", "5", "--kind", "conv", "--nmax", "200", "--out", str(out)]
        )
        assert code == EXIT_PASS
        data = json.loads(out.read_text())
        assert data["outcome"] == "pass"
        assert data["params"]["p"] == 5

    def test_failure_exit_one_with_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["verify", "--p", "29", "--kind", "conv", "--nmax", "10", "--out", str(out)]
        )
        assert code == EXIT_FAILURE
        data = json.loads(out.read_text())
        assert data["outcome"] == "first_failure"
        assert data["first_failure"]["n"] in (1, 2)
        # exact fraction strings, no floats in canonical fields
        assert "/" in data["first_failure"]["rhs"]

    def test_usage_error_no_partial_output(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["verify", "--p", "4", "--kind", "conv", "--nmax", "10", "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_io_error(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.json"
        code = main(
            [
                "verify",
                "--p",
                "5",
                "--kind",
                "conv",
                "--nmax",
                "10",
                "--out",
                str(missing_dir),
            ]
        )
        assert code == EXIT_IO

    def test_farkas_kind(self, tmp_path):
        out = tmp_path / "f.json"
        assert (
            main(["verify", "--kind", "farkas", "--nmax", "200", "--out", str(out)])
            == EXIT_PASS
        )

    def test_config_kind(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "p": 5,
                    "chi": "quartic-i",
                    "terms": [{"A": "1/1,0/1", "B": 1, "C": 1}],
                    "rhs": {"kind": "sigma_prime", "coefficients": ["3/5,0/1"]},
                }
            )
        )
        out = tmp_path / "out.json"
        code = main(
            [
                "verify",
                "--kind",
                "config",
                "--config",
                str(cfg),
                "--nmax",
                "100",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_PASS

    def test_bad_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"p": 5, "chi": "quartic-i"}')
        assert main(["verify", "--kind", "config", "--config", str(cfg)]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--p", "5", "--kind", "conv", "--nmax", "-5"],
            ["verify", "--p", "5", "--kind", "conv", "--nmax", "2000000"],
            ["verify", "--kind", "farkas", "--nmax", "-1"],
            ["asympt", "--p", "29", "--kind", "conv", "--nmax", "-5"],
            ["asympt", "--p", "29", "--kind", "square", "--nmax", "2000000"],
        ],
    )
    def test_out_of_range_nmax_is_usage_error(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--nmax must be in 0..1000000" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # the generator mod 37 has order 36: its values leave Q(i)
            (
                ["verify", "--p", "37", "--kind", "conv", "--chi", "generator",
                 "--nmax", "10"],
                "error: character of order 36 takes values outside Q(i)",
            ),
            # p37_5_19 reads F up to 95 * nmax, past the fast-path cap
            (
                ["verify", "--kind", "config", "--config", P37_5_19, "--nmax", "20000"],
                "error: fast path needs 0 <= N <= 1000000, got 1900000",
            ),
        ],
    )
    def test_library_value_error_is_usage_error(self, argv, message, capsys):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [message]


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", "--p", "13", "--kind", "square", "--nmax", "100"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        ja, jb = json.loads(a.read_text()), json.loads(b.read_text())
        del ja["elapsed_ms"], jb["elapsed_ms"]
        assert json.dumps(ja, sort_keys=True) == json.dumps(jb, sort_keys=True)

    def test_round_trip(self, tmp_path):
        out = tmp_path / "r.json"
        main(["verify", "--p", "29", "--kind", "conv", "--nmax", "5", "--out", str(out)])
        data = json.loads(out.read_text())
        assert json.loads(json.dumps(data)) == data


class TestSearchCommand:
    def test_dichotomy_table(self, tmp_path):
        out = tmp_path / "s.json"
        code = main(
            ["search", "--pmax", "150", "--nmax", "10", "--out", str(out)]
        )
        assert code == EXIT_PASS
        data = json.loads(out.read_text())
        assert data["passing_primes"] == [5, 13]
        pairs = {tuple(s["factor_pair"]) for s in data["discriminant_solutions"]}
        assert (36, 20) in pairs and (60, 12) in pairs

    def test_safe_primes(self, tmp_path):
        out = tmp_path / "sp.json"
        main(["search", "--safe-primes", "--pmax", "230", "--out", str(out)])
        assert json.loads(out.read_text())["safe_primes"] == [
            11,
            59,
            83,
            107,
            179,
            227,
        ]

    def test_requires_bound(self, capsys):
        assert main(["search"]) == EXIT_USAGE


class TestAsymptCommand:
    def test_csv_header_and_content(self, tmp_path):
        out = tmp_path / "a.csv"
        code = main(
            ["asympt", "--p", "29", "--kind", "conv", "--nmax", "60", "--out", str(out)]
        )
        assert code == EXIT_PASS
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,kron,lhs,rhs,ratio,ratio_dec"
        ns = [int(line.split(",")[0]) for line in lines[1:]]
        assert all(n % 29 != 0 for n in ns)

    def test_p5_ratio_cells(self, tmp_path):
        out = tmp_path / "a5.csv"
        main(["asympt", "--p", "5", "--kind", "conv", "--nmax", "40", "--out", str(out)])
        for line in out.read_text().strip().splitlines()[1:]:
            cells = line.split(",")
            assert cells[4] == "3/5"
            assert cells[5] == decimal_str(Fraction(3, 5))


class TestPolyCommand:
    def test_p11(self, tmp_path):
        out = tmp_path / "p.json"
        code = main(["poly", "--p", "11", "--out", str(out)])
        assert code == EXIT_PASS
        data = json.loads(out.read_text())
        assert data["b0"] == 10 and data["b1"] == 6
        assert data["divisible_by_xq_plus_1"] and data["coprime_with_xq_minus_1"]

    def test_p13_rejected(self, capsys):
        assert main(["poly", "--p", "13"]) == EXIT_USAGE

    def test_p59_odd_rows_zero(self, tmp_path):
        out = tmp_path / "p59.json"
        main(["poly", "--p", "59", "--out", str(out)])
        rows = json.loads(out.read_text())["rows"]
        for row in rows:
            if row["parity"] == "odd":
                assert row["obstruction"] == "zero"
            else:
                assert row["obstruction"] == "nonzero"


class TestConfigParsing:
    def test_gaussian_pair(self):
        assert parse_gaussian_pair("3/5,-1/2") == gaussian("3/5", "-1/2")
        with pytest.raises(ValueError):
            parse_gaussian_pair("3/5")

    def test_builtin_configs_load(self):
        names = builtin_config_names()
        assert names == [
            "p37_2_17.json",
            "p37_2_19.json",
            "p37_5_17.json",
            "p37_5_19.json",
        ]
        cfg = load_builtin_config("p37_2_17.json")
        assert cfg.p == 37
        assert cfg.rhs_coefficients == (gaussian(18),)

    def test_field_diagnostics(self, tmp_path):
        bad = tmp_path / "b.json"
        bad.write_text(
            json.dumps(
                {
                    "p": 37,
                    "chi": "quartic-i",
                    "terms": [{"A": "oops", "B": 1, "C": 1}],
                    "rhs": {"kind": "sigma_prime", "coefficients": ["1/1,0/1"]},
                }
            )
        )
        with pytest.raises(ValueError, match=r"terms\[0\]"):
            load_identity_config(str(bad))


class TestDecimalRendering:
    def test_exact_decimals(self):
        assert decimal_str(Fraction(3, 5)) == "0.600000000000"
        assert decimal_str(Fraction(-1, 3)) == "-0.333333333333"

    def test_gaussian_decimal(self):
        assert gaussian_decimal_str(gaussian("1/2", "-1/4")) == (
            "0.500000000000-0.250000000000i"
        )
        assert gaussian_decimal_str(gaussian("1/2")) == "0.500000000000"
