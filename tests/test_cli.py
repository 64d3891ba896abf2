import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import stat
import subprocess
import sys
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from farkas import characters, cli, identities, qseries
from farkas.cli import (
    EXIT_FAILURE,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_PASS,
    EXIT_USAGE,
    load_identity_config,
    main,
    parse_gaussian_pair,
)
from farkas.foundations import GaussianRational
from farkas.identities import (
    RHS_SIEVE_FLOOR, check_configured_identity, constants_for, resolve_character,
)
from fractions import Fraction
from oracles import builtin_config_names, gaussian, load_builtin_config, parse_gaussian
from test_identities import per_row_report

P37_5_19 = str(resources.files("farkas").joinpath("configs", "p37_5_19.json"))


class _Stop(BaseException):
    """Raised by a spy to end a command early: no exit-code handler catches it."""


@contextlib.contextmanager
def _no_int_digit_limit():
    """Lift Python's int-to-str digit limit, so that rendered values of more
    than 4300 digits parse back."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _reported_exactly(report, cfg, nmax):
    """The first_failure of a verify report holds the exact lhs and rhs of
    ``check_configured_identity(cfg, nmax)``, each parsed back from its string."""
    want = check_configured_identity(cfg, nmax)
    failure = report["first_failure"]
    with _no_int_digit_limit():
        got = [parse_gaussian(failure[side]) for side in ("lhs", "rhs")]
    return failure["n"] == want.failure_n and got == [want.lhs, want.rhs]


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

    @pytest.mark.parametrize("existing", [None, 0o604], ids=["new", "replaced"])
    def test_out_gets_the_mode_open_would_give(self, tmp_path, existing):
        # a new report takes 0o666 less the umask and a replaced one keeps
        # its file's mode, as open(path, "w") would; mkstemp's own is 0o600
        out = tmp_path / "report.json"
        if existing is not None:
            out.write_text("old")
            out.chmod(existing)
        umask = os.umask(0o022)
        try:
            argv = ["verify", "--p", "5", "--kind", "conv", "--nmax", "10", "--out", str(out)]
            assert main(argv) == EXIT_PASS
        finally:
            os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == (0o644 if existing is None else existing)
        assert json.loads(out.read_text())["outcome"] == "pass"

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--kind", "farkas", "--p", "7"], "--p cannot be used with --kind farkas"),
            (["--kind", "farkas", "--chi", "quartic-i"], "--chi cannot be used with --kind farkas"),
            (
                ["--kind", "config", "--config", P37_5_19, "--p", "5", "--chi", "quartic-minus-i"],
                "--p and --chi cannot be used with --kind config",
            ),
            (
                ["--kind", "conv", "--p", "5", "--config", P37_5_19],
                "--config cannot be used with --kind conv",
            ),
        ],
        ids=["farkas-p", "farkas-chi", "config-p-chi", "conv-config"],
    )
    def test_an_option_the_kind_does_not_read_is_refused(self, argv, message, tmp_path, capsys):
        # farkas is the mod-3 identity, and a config names its own p and chi:
        # these options were ignored, and the report named another p
        out = tmp_path / "report.json"
        assert main(["verify", *argv, "--nmax", "10", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[0] == f"error: {message}"
        assert not out.exists()

    def test_python_m_farkas_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        argv = ["verify", "--p", "5", "--kind", "conv", "--nmax", "10"]
        done = subprocess.run(
            [sys.executable, "-m", "farkas", *argv],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == EXIT_PASS, done.stderr
        assert json.loads(done.stdout)["outcome"] == "pass"

    @pytest.mark.parametrize("p", ["-3", "4", "7", "21", "29"])
    @pytest.mark.parametrize("command", [["verify", "--kind", "conv"], ["asympt", "--kind", "conv"]])
    def test_verify_and_asympt_take_primes_5_mod_8(self, command, p, capsys):
        code = main([*command, "--p", p, "--nmax", "10"])
        err = capsys.readouterr().err
        if p == "29":
            assert code in (EXIT_PASS, EXIT_FAILURE) and not err
        else:
            assert code == EXIT_USAGE
            assert err.splitlines()[0] == f"error: p must be a prime = 5 (mod 8), got {p}"

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

    def test_huge_exact_values_are_reported(self, tmp_path, capsys):
        # lhs(1) = 10**4400 + ... and rhs(1) has a 4351-digit denominator:
        # both past Python's 4300-digit int-to-str limit
        data = json.loads(open(P37_5_19, encoding="utf-8").read())
        data["terms"][0]["A"] = "1e4400,0"
        data["rhs"]["coefficients"][0] = "18e-4350,1/3"
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(data))
        argv = ["verify", "--kind", "config", "--config", str(cfg), "--nmax", "10"]
        assert main(argv) == EXIT_FAILURE
        report = json.loads(capsys.readouterr().out)
        assert report["first_failure"]["n"] == 1
        assert len(report["first_failure"]["lhs"]) > 4400
        assert _reported_exactly(report, load_identity_config(str(cfg)), 10)

    @pytest.mark.parametrize(
        "pair", ["1e10001,0", "0,-1e-3000000", "1E3000000,0", "1e1" + "0" * 5000 + ",0"]
    )
    def test_a_huge_exponent_is_a_usage_error(self, pair, tmp_path, capsys):
        data = json.loads(open(P37_5_19, encoding="utf-8").read())
        data["terms"][0]["A"] = pair
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(data))
        with mock.patch.object(cli, "Fraction", wraps=Fraction) as spy:
            assert main(["verify", "--kind", "config", "--config", str(cfg)]) == EXIT_USAGE
        # refused before Fraction builds the power of ten
        assert not [c for c in spy.call_args_list if "e" in str(c.args[:1]).lower()]
        err = capsys.readouterr().err
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert line.startswith("error: bad config file: terms[0].A: the exponent of")
        assert "-10000..10000" in line and "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda c: c.update(p="37"), "config.p"),
            (lambda c: c.update(p=37.0), "config.p"),
            (lambda c: c.update(terms=5), "config.terms"),
            (lambda c: c.update(terms=[7]), "terms[0]"),
            (lambda c: c["terms"][0].update(A=5), "terms[0].A"),
            (lambda c: 7, "config"),
            (lambda c: c["terms"][0].update(A="1/0,0"), "terms[0].A"),
            (lambda c: c.update(p=True), "config.p"),
            (lambda c: c["terms"][1].update(B=True), "terms[1].B"),
            (lambda c: c["terms"][1].update(C=True), "terms[1].C"),
            # chi is resolved as the config loads: these name the value
            (lambda c: c.update(chi="quartic-x"), "unknown character selector 'quartic-x'"),
            (lambda c: c.update(chi=5), "unknown character selector 5"),
            (lambda c: c.update(p=41), "quartic pair requires a prime p = 5 (mod 8), got 41"),
            (lambda c: c.update(p=39), "modulus 39 is not prime"),
        ],
        ids=[
            "p-string", "p-float", "terms-int", "term-int", "A-int", "top-level-int",
            "A-zero-den", "p-bool", "B-bool", "C-bool", "chi-unknown", "chi-int",
            "p-not-5-mod-8", "p-composite",
        ],
    )
    def test_mistyped_config_fields_are_usage_errors(self, edit, field, tmp_path, capsys):
        data = json.loads(open(P37_5_19, encoding="utf-8").read())
        data = edit(data) or data  # an edit in place returns None
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        assert main(["verify", "--kind", "config", "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert line.startswith(f"error: bad config file: {field}")

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
            # p37_5_19 reads F up to 95 * nmax, past the fast-path cap
            (
                ["verify", "--kind", "config", "--config", P37_5_19, "--nmax", "20000"],
                "error: --nmax 20000 makes the lookup (N // B) * C = (20000 // 1) * 95"
                " read F(1900000), past the fast path's 1000000; use --nmax 10526 or less",
            ),
        ],
    )
    def test_library_value_error_is_usage_error(self, argv, message, capsys):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [message]

    @pytest.mark.parametrize("nmax", [20000, 10527])
    def test_config_reach_is_refused_before_any_sieve(self, nmax, capsys):
        argv = ["verify", "--kind", "config", "--config", P37_5_19, "--nmax", str(nmax)]
        with mock.patch.object(qseries, "_sieve", wraps=qseries._sieve) as spy:
            assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--nmax" in err and f"F({nmax * 95})" in err and "Traceback" not in err
        assert spy.call_count == 0

    def test_config_at_the_offered_nmax_starts(self):
        # the largest N the message offers: (10526 // 1) * 95 = 999970 <= 10**6
        argv = ["verify", "--kind", "config", "--config", P37_5_19, "--nmax", "10526"]
        sieve = qseries._sieve

        def short_tables_only(table, N, *args, **kwargs):
            if N > RHS_SIEVE_FLOOR:
                raise _Stop
            return sieve(table, N, *args, **kwargs)

        qseries.convolver.cache_clear()
        with mock.patch.object(qseries, "_sieve", side_effect=short_tables_only) as spy:
            with pytest.raises(_Stop):
                main(argv)
        # the first block's tables stay short; the first long one reaches
        # the top lookup
        assert spy.call_args.args[1] == 999970

    def test_generator_character_is_not_a_choice(self, capsys):
        # the order-(p - 1) character leaves Q(i) for every p but 5, where it
        # is a quartic character: argparse rejects the name
        argv = ["verify", "--p", "5", "--kind", "conv", "--chi", "generator", "--nmax", "10"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "invalid choice: 'generator'" in err and "Traceback" not in err

    # 3037000573 = 5 (mod 8) is prime with p**2 >= 2**63; 8388637 is the
    # first prime = 5 (mod 8) past MAX_PRIME, and 8389163 = 2q + 1 (q = 1
    # mod 4 prime) the first safe-prime shape; 383723 is the first such
    # shape past MAX_POLY_PRIME, which ``poly`` names for both
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--p", "3037000573", "--kind", "conv", "--nmax", "3"],
            ["verify", "--p", "8388637", "--kind", "square", "--nmax", "3"],
            ["asympt", "--p", "3037000573", "--kind", "conv", "--nmax", "3"],
            ["search", "--pmax", "100000000000"],
            ["search", "--safe-primes", "--pmax", "100000000000"],
            ["poly", "--p", "8389163"],
            ["poly", "--p", "383723"],
            ["config", "3037000573"],
        ],
    )
    def test_a_prime_past_the_table_bound_is_refused_before_any_table(
        self, argv, monkeypatch, tmp_path, capsys
    ):
        # no table, scan or polynomial is built: each of them raises here
        def unreachable(*args, **kwargs):
            raise _Stop

        for module, name in ((characters, "discrete_log_table"), (qseries, "discrete_log_table"),
                             (qseries, "kronecker_table"), (identities, "kronecker_table"),
                             (cli, "dichotomy_scan"), (cli, "safe_prime_scan"),
                             (cli, "even_character_obstruction")):
            monkeypatch.setattr(module, name, unreachable)
        if argv[0] == "config":
            data = json.loads(open(P37_5_19, encoding="utf-8").read())
            cfg = tmp_path / "big.json"
            cfg.write_text(json.dumps({**data, "p": int(argv[1])}))
            argv = ["verify", "--kind", "config", "--config", str(cfg), "--nmax", "3"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert not captured.out and "Traceback" not in captured.err
        (line,) = [line for line in captured.err.splitlines() if "error:" in line]
        bound = "MAX_POLY_PRIME = 383479" if argv[0] == "poly" else "MAX_PRIME = 8388608"
        assert bound in line, line


def _config_pair(z: GaussianRational) -> str:
    """z in the config format 're_num/re_den,im_num/im_den'."""
    return ",".join(f"{x.numerator}/{x.denominator}" for x in (z.re, z.im))


class TestBuiltinsAsConfigs:
    @pytest.mark.parametrize("p", [13, 29, 37])
    @pytest.mark.parametrize("chi", ["quartic-i", "quartic-minus-i"])
    @pytest.mark.parametrize("kind", ["conv", "square"])
    def test_a_builtin_reports_as_its_config(self, p, chi, kind, tmp_path, capsys):
        # F = alpha sigma' and H = alpha' sigma~ + beta' sigma^ as configs:
        # the one term F(n) or H(n) (A = B = C = 1) and the built-in's rhs.
        # n = 0, which only the built-in checks, holds by the constants
        const = constants_for(p, resolve_character(p, chi))
        rhs = (
            {"kind": "sigma_prime", "coefficients": [_config_pair(GaussianRational(const.alpha))]}
            if kind == "conv" else
            {"kind": "tilde_hat", "coefficients": [_config_pair(const.alpha_prime),
                                                   _config_pair(const.beta_prime)]}
        )
        path = tmp_path / "builtin.json"
        path.write_text(json.dumps(
            {"p": p, "chi": chi, "terms": [{"A": "1/1,0/1", "B": 1, "C": 1}], "rhs": rhs}
        ))
        reports = []
        for argv in (["--p", str(p), "--chi", chi, "--kind", kind],
                     ["--kind", "config", "--config", str(path)]):
            code = main(["verify", *argv, "--nmax", "2000"])
            reports.append((code, json.loads(capsys.readouterr().out)))
        (code, builtin), (config_code, config) = reports
        assert code == config_code == (EXIT_PASS if p == 13 else EXIT_FAILURE)
        assert config["params"]["character"] == builtin["params"]["character"]
        assert config["outcome"] == builtin["outcome"]
        assert config.get("first_failure") == builtin.get("first_failure")


class TestDeterminism:
    @staticmethod
    def _assert_byte_identical(tmp_path, argv):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        ja, jb = json.loads(a.read_text()), json.loads(b.read_text())
        del ja["elapsed_ms"], jb["elapsed_ms"]
        assert json.dumps(ja, sort_keys=True) == json.dumps(jb, sort_keys=True)

    def test_byte_identical_reports(self, tmp_path):
        argv = ["verify", "--p", "13", "--kind", "square", "--nmax", "100"]
        self._assert_byte_identical(tmp_path, argv)

    @pytest.mark.parametrize(
        "argv",
        [["poly", "--p", "59"], ["search", "--safe-primes", "--pmax", "500"]],
        ids=["poly", "safe-primes"],
    )
    def test_byte_identical_poly_and_search_reports(self, tmp_path, argv):
        self._assert_byte_identical(tmp_path, argv)

    def test_poly_p59_fields_pinned(self, tmp_path):
        out = tmp_path / "poly.json"
        assert main(["poly", "--p", "59", "--out", str(out)]) == EXIT_PASS
        data = json.loads(out.read_text())
        assert {k: data[k] for k in ("b0", "b1", "b_p_minus_1", "b_p", "f_at_one")} == {
            "b0": 58, "b1": 30, "b_p_minus_1": 0, "b_p": 0, "f_at_one": 884,
        }
        assert data["flagged_zero_coefficients"] == [60, 64, 65, 66, 76, 108, 109, 110, 111]

    def test_round_trip(self, tmp_path):
        out = tmp_path / "r.json"
        main(["verify", "--p", "29", "--kind", "conv", "--nmax", "5", "--out", str(out)])
        data = json.loads(out.read_text())
        assert json.loads(json.dumps(data)) == data


def _timing_free_sha256(argv, capsys, code=EXIT_PASS) -> str:
    """sha256 of the report's JSON with elapsed_ms dropped, keys sorted."""
    capsys.readouterr()
    assert main(argv) == code
    data = json.loads(capsys.readouterr().out)
    del data["elapsed_ms"]
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


# the scan reports as the Fraction and long-division implementation wrote them
PINNED_SCAN_REPORTS = {
    "search --pmax 1000 --nmax 50":
        "b084d439ab6266239560bd13248ae79f06f89fad023404935e95765911e5c87a",
    "search --pmax 300 --nmax 3":
        "b6e7dea0214e69e17f31c81d7afec66ee30a6238235a3018e656f28b8d207d07",
    "search --safe-primes --pmax 100000":
        "55bacd3ee7c68defcb243c0266b0c4575d58fb7abf6dba3023bea54e5eeb3b4c",
    # every safe prime below 1100
    "poly --p 11": "f48d8de6e7df5b0233843a7a1c35fb1690ea272d13fc334902609a4cdb9d5080",
    "poly --p 59": "bd944c0a96c382c81f1fb88db3202844aa3194eb63ea7a79fa02d678c43d2e11",
    "poly --p 83": "4efcf0fa1fab9a5ec9237d4195f0200735bf34a2d47d536c4cd1b7c90e30edeb",
    "poly --p 107": "6ccc945f5fc67ace261f128784e920f2276f0528eed02fbd258acdaecca96934",
    "poly --p 179": "54cb449800f128bcee5268a4f569f623ed9e3c5160ffb70c1a43bd8d077c2c35",
    "poly --p 227": "773f37d1dc3a32c1f516ac3a468e585c912f63ca2ebbb6190a957de8c7d05a7a",
    "poly --p 347": "482e1401fa171928fceb41f45cc1685eb9699a65aaca66b146a82575ed1a2e83",
    "poly --p 467": "8d62f9c508e00ab3c65c84cdadd566457a4cce1bd9d87732405d52f1721a11d8",
    "poly --p 563": "90c55ee12192248745ceb4917f66ae98130d8543f4e7304a34fad4653bc5d950",
    "poly --p 587": "8413b24550166f6e5bd57c1e4297dc18fcdcd91838b57e2c1454b7efe6dccf6d",
    "poly --p 1019": "59ab529e6e8163c79082a787099221f2a6de513d96021d4b3d95f8171fc8e9c9",
}


# fails at n = 1999 only, where the lhs adds H(190000) to H(1999): every H(n)
# for n < 1999 and that one long index read are pinned by the report
TILDE_HAT_FAILS_AT_1999 = {
    "p": 13,
    "chi": "quartic-i",
    "terms": [{"A": "1,0", "B": 1, "C": 1}, {"A": "1,0", "B": 1999, "C": 190000}],
    "rhs": {"kind": "tilde_hat", "coefficients": ["0,-1/2", "1,3/2"]},
}

# the verify reports as the int64-dot index reads and the tail schedule of
# sieve x4 / tail x2 wrote them; a --config name is a built-in config or,
# for tilde_hat_fails_at_1999, the config above written to a file
PINNED_VERIFY_REPORTS = {
    **{
        f"verify --kind config --config {name} --nmax 2000":
            "8345f3ec944ca5b81d7ae7eaa29a706e7157c2f1e5e23ab2849c9e28082e045f"
        for name in ("p37_2_17.json", "p37_2_19.json", "p37_5_17.json", "p37_5_19.json")
    },
    "verify --kind config --config tilde_hat_fails_at_1999 --nmax 2000":
        "af7027a7512338cd5515a4bf1da4fa9c55dde27a198286dcc4901a451ac6b7f1",
    "verify --p 13 --chi quartic-i --kind conv --nmax 15000":
        "04c4b79460efb9daea953490b4e645b760d58f521f6e7e36f362d3975f7f2585",
    "verify --p 13 --chi quartic-minus-i --kind conv --nmax 15000":
        "441f88e38d9246c096ba709e2170c6e6fd3aa03bb363213c96a8b9e232cf65e3",
    "verify --p 13 --chi quartic-i --kind square --nmax 15000":
        "e4e54691af37e04a43d87d33c945d734b17b6d000b97982e054f59512384fa3b",
    "verify --p 13 --chi quartic-minus-i --kind square --nmax 15000":
        "86aef50e459782e8cdbee988ed2e1a98cf56fd00b21d41546814941ee94b5b95",
    "verify --kind farkas --nmax 10000":
        "4541f94ff54728f5909c1090410ce2e5897bea299ee8c202c2b197f98b09ef19",
    # first failures: only these render lhs and rhs, which a sweep divides
    # by its scale D; csv and text are pinned byte for byte
    "verify --p 29 --kind conv --nmax 2000":
        "5cf36814a294d32954e1a6232045ef1edb6d2b1b0bfa1b33cb60fe5cacc1703f",
    "verify --p 37 --kind square --chi quartic-minus-i --nmax 2000":
        "6a24e0063b81145563ae791dda955476d0088f667fc74829b4164580a9924826",
    "verify --p 29 --kind conv --nmax 2000 --format csv":
        "1340bb53c93187142449148e44beeb0fffd89c67c37a5a68d587f0499ee4c011",
    "verify --p 29 --kind conv --nmax 2000 --format text":
        "961cc6fe84e50952ea7b009cc29fb7b1838f55a3fd107a9a3d7af1cb589fc6f7",
}
# the pinned reports of an identity that fails, so verify exits EXIT_FAILURE
FAILING_VERIFY_REPORTS = {
    "verify --kind config --config tilde_hat_fails_at_1999 --nmax 2000",
    *(a for a in PINNED_VERIFY_REPORTS if a.startswith(("verify --p 29 ", "verify --p 37 "))),
}


class TestPinnedVerifyReports:
    @pytest.mark.parametrize("argv", list(PINNED_VERIFY_REPORTS))
    def test_report_hash_is_pinned(self, argv, tmp_path, capsys):
        args = argv.split()
        if "--config" in args:
            i = args.index("--config") + 1
            if args[i] in builtin_config_names():
                args[i] = str(resources.files("farkas").joinpath("configs", args[i]))
            else:
                path = tmp_path / "tilde_hat.json"
                path.write_text(json.dumps(TILDE_HAT_FAILS_AT_1999))
                args[i] = str(path)
        expected = EXIT_FAILURE if argv in FAILING_VERIFY_REPORTS else EXIT_PASS
        digest = _raw_timing_free_sha256 if "--format" in args else _timing_free_sha256
        assert digest(args, capsys, expected) == PINNED_VERIFY_REPORTS[argv]

    def test_the_tilde_hat_config_fails_at_1999(self, tmp_path, capsys):
        path = tmp_path / "tilde_hat.json"
        path.write_text(json.dumps(TILDE_HAT_FAILS_AT_1999))
        argv = ["verify", "--kind", "config", "--config", str(path), "--nmax", "2000"]
        assert main(argv) == EXIT_FAILURE
        assert json.loads(capsys.readouterr().out)["first_failure"]["n"] == 1999


class TestPinnedScanReports:
    @pytest.mark.parametrize("argv", list(PINNED_SCAN_REPORTS))
    def test_report_hash_is_pinned(self, argv, capsys):
        assert _timing_free_sha256(argv.split(), capsys) == PINNED_SCAN_REPORTS[argv]

    def test_a_large_safe_prime_is_pinned(self, capsys):
        # f's exponent sums are counted a chunk of rows at a time; at
        # p = 20123 they take 37 chunks, so every chunk boundary is pinned
        argv = ["poly", "--p", "20123"]
        assert _timing_free_sha256(argv, capsys) == (
            "5c1c101af68c6d97521175e781385a7b324200aa8e1ae3048e5faa5ccaa8483a"
        )

    def test_every_safe_prime_below_1100_is_pinned(self):
        from farkas.charpoly import safe_prime_scan

        pinned = [int(a.split()[-1]) for a in PINNED_SCAN_REPORTS if a.startswith("poly")]
        assert pinned == safe_prime_scan(1100)


def _raw_timing_free_sha256(argv, capsys, code=EXIT_PASS) -> str:
    """sha256 of the report's stdout bytes as written, its elapsed_ms line dropped."""
    capsys.readouterr()
    assert main(argv) == code
    lines = capsys.readouterr().out.encode("utf-8").splitlines(keepends=True)
    return hashlib.sha256(b"".join(x for x in lines if b"elapsed_ms" not in x)).hexdigest()


# the scan reports byte for byte, indentation, line ends and key order
# included, in each format, as the per-residue row dicts rendered them
PINNED_SCAN_BYTES = {
    "poly --p 11 --format json":
        "e98ea71552a83dc7288fd0c0ec327b6193db053687003ed36282e95f36e99278",
    "poly --p 11 --format csv":
        "486105a058c86f27e18cf01bef85fb6df62d70a9760da9a64e2d4093f25fdbfe",
    "poly --p 11 --format text":
        "3d198a3d302cbc7186cab9709c8261fd52032ee9ee7f15e04a1653028b53bcc1",
    "poly --p 59 --format json":
        "ab240fdb60ec0ad325e547df6e8bfcd5be389642f4fdef87fd554fb1add17495",
    "poly --p 59 --format csv":
        "875174520769dc004f69ebb2aa79f1ee009b56620d1412cdad8205e8db455cd3",
    "poly --p 59 --format text":
        "72f6786cad3dfa03d7d43c3d092a2a3cc0b71e07ade97de6d8333ee530a10b54",
    "poly --p 347 --format json":
        "1bf3513f3d38106994e7bf6d621695dd097606f5961643a94bd46e23af3728b1",
    "poly --p 347 --format csv":
        "71aa4d3240aeabd8ac1258eb0f94f919ec7be475f140da590728e33ea57d4d53",
    "poly --p 347 --format text":
        "019215c1a6b1b599ae27d7b21c3f08743ac8295553a5141cdb97a32f2711a3aa",
    "poly --p 467 --format json":
        "c7dc73c6c6330fff41f588f3e3981954925bc740be368c2631727e968dd23f65",
    "poly --p 467 --format csv":
        "b602d589fbb7ca921ead5a377d5032b3c7ec1d4ede95db3c4cd5853e8b9fdc99",
    "poly --p 467 --format text":
        "7b380f52a0dfd8f86204504bde42808ea9e8e387b706e430eeeaa54c537fd3e2",
    "poly --p 5939 --format json":
        "7a3446c7b88f6845fe4e9953a25e46b36922cc9fac500120e77d4e859c097842",
    "poly --p 5939 --format csv":
        "7e55d456b9b9cd5aade476bff94ff7cd6dd3085219ed2f15d9b0fd7c14b347bc",
    "poly --p 5939 --format text":
        "9a7b97e117ee39645edbffd91561ba24b48d755646242d00dbaa83b7b159f637",
    "poly --p 20123 --format json":
        "f708b4831f45bde3772de5231e0792231f40dda26ab24fbef0a16583293d26c0",
    "poly --p 20123 --format csv":
        "7b1aa0d4dc620d879fcdb6ef90a77c44b74c4262a16a9d903eec188f2f2f6dfd",
    "poly --p 20123 --format text":
        "6ca5fb8281089f4d1e16481d37c3713f0d44b4c8cb25352e9d769314651408e3",
    "search --pmax 1000 --nmax 50 --format json":
        "3dc2ef227c833735cd9ff13913160504d5ed2fad2d7548f46eeeea5b0434bdb5",
    "search --pmax 1000 --nmax 50 --format csv":
        "719e171b2a11e9f90ad8285687a9737fd4bdb425ac5267880927ba25b4d8bd0f",
    "search --pmax 1000 --nmax 50 --format text":
        "3b10656f7a0f10438a9d5bbe293924d5cd20f9de147f9dddf4a84e485fd11728",
    "search --safe-primes --pmax 5000 --format json":
        "6712a431faa84ae57fb11ae46f95a5bac4f023f60e3e5b968dda7c2cce63c67e",
    "search --safe-primes --pmax 5000 --format csv":
        "27ea689d4e0cc19f270631cb230bef29b2aa73e099e65e22bd1e69c8750c20f3",
    "search --safe-primes --pmax 5000 --format text":
        "78203d7a20512ea324baf92abc646bdff9e72071e9230a75e5e3355bd78b3340",
}


class TestPinnedScanBytes:
    @pytest.mark.parametrize("argv", list(PINNED_SCAN_BYTES))
    def test_report_bytes_are_pinned(self, argv, capsys):
        assert _raw_timing_free_sha256(argv.split(), capsys) == PINNED_SCAN_BYTES[argv]


# every --help text, as argparse wraps it at 80 columns: the options, their
# choices and their help strings are the CLI's contract
PINNED_HELP = {
    "": """\
usage: farkas [-h] {verify,search,asympt,poly} ...

Exact verification of divisor-sum convolution identities for quartic Dirichlet
characters.

positional arguments:
  {verify,search,asympt,poly}
    verify              verify an identity exactly up to nmax
    search              dichotomy and factorization searches
    asympt              ratio table CSV for the asymptotic claims
    poly                integer-polynomial obstruction report

options:
  -h, --help            show this help message and exit
""",
    "verify": """\
usage: farkas verify [-h] [--p P] [--chi {quartic-i,quartic-minus-i}] --kind
                     {conv,square,farkas,config} [--nmax NMAX]
                     [--config CONFIG] [--out OUT] [--format {json,csv,text}]

options:
  -h, --help            show this help message and exit
  --p P
  --chi {quartic-i,quartic-minus-i}
  --kind {conv,square,farkas,config}
  --nmax NMAX
  --config CONFIG       identity config file (JSON)
  --out OUT             output file (atomic write)
  --format {json,csv,text}
""",
    "search": """\
usage: farkas search [-h] [--pmax PMAX] [--nmax NMAX] [--discriminant]
                     [--safe-primes] [--out OUT] [--format {json,csv,text}]

options:
  -h, --help            show this help message and exit
  --pmax PMAX
  --nmax NMAX
  --discriminant
  --safe-primes
  --out OUT             output file (atomic write)
  --format {json,csv,text}
""",
    "asympt": """\
usage: farkas asympt [-h] --p P [--chi {quartic-i,quartic-minus-i}] --kind
                     {conv,square} [--nmax NMAX] [--out OUT]

options:
  -h, --help            show this help message and exit
  --p P
  --chi {quartic-i,quartic-minus-i}
  --kind {conv,square}
  --nmax NMAX
  --out OUT
""",
    "poly": """\
usage: farkas poly [-h] --p P [--out OUT] [--format {json,csv,text}]

options:
  -h, --help            show this help message and exit
  --p P
  --out OUT             output file (atomic write)
  --format {json,csv,text}
""",
}


class TestPinnedHelp:
    @pytest.mark.parametrize("command", list(PINNED_HELP))
    def test_help_text_is_pinned(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert main([command, "--help"] if command else ["--help"]) == EXIT_PASS
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (PINNED_HELP[command], "")


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

    def test_the_two_searches_are_refused_together(self, tmp_path, capsys):
        # --discriminant was ignored, and only the safe-prime scan ran
        out = tmp_path / "s.json"
        argv = ["search", "--safe-primes", "--discriminant", "--pmax", "100", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[0] == (
            "error: --safe-primes and --discriminant are two searches: give one"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--discriminant", "--pmax", "100"], "--pmax cannot be used with --discriminant"),
            (["--discriminant", "--nmax", "7"], "--nmax cannot be used with --discriminant"),
            (
                ["--discriminant", "--pmax", "3", "--nmax", "-1"],
                "--pmax and --nmax cannot be used with --discriminant",
            ),
            (
                ["--safe-primes", "--pmax", "100", "--nmax", "7"],
                "--nmax cannot be used with --safe-primes",
            ),
        ],
        ids=["discriminant-pmax", "discriminant-nmax", "discriminant-both", "safe-primes-nmax"],
    )
    def test_an_option_the_search_does_not_read_is_refused(self, argv, message, tmp_path, capsys):
        # the discriminant search reads no bound and the safe-prime scan
        # checks no identity: these options were checked and then ignored
        out = tmp_path / "s.json"
        assert main(["search", *argv, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[0] == f"error: {message}"
        assert not out.exists()

    def test_the_dichotomy_scan_checks_to_50_by_default(self):
        scan = mock.patch.object(cli, "dichotomy_scan", wraps=cli.dichotomy_scan)
        with scan as spy, contextlib.redirect_stdout(io.StringIO()):
            assert main(["search", "--pmax", "150"]) == EXIT_PASS
        spy.assert_called_once_with(150, nmax=50)

    @pytest.mark.parametrize("pmax", ["-3", "0", "4"])
    def test_bound_below_five_is_usage_error(self, pmax, capsys):
        assert main(["search", "--pmax", pmax]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --pmax must be at least 5" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("nmax", ["-1", "2000000"])
    def test_out_of_range_nmax_is_usage_error(self, nmax, tmp_path, capsys):
        # -1 compared nothing and listed 29 and 37 as passing; 2000000
        # failed in the sieve, naming its reach and not the option
        out = tmp_path / "s.json"
        argv = ["search", "--pmax", "40", "--nmax", nmax, "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert f"error: --nmax must be in 0..1000000, got {nmax}" in captured.err
        assert "Traceback" not in captured.err


def _per_row_csv(p, kind, nmax, rows=None) -> bytes:
    """The asympt table of the quartic-i character, written one row at a
    time by csv.writer from the exact Fractions of ``per_row_report``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "kron", "lhs", "rhs", "ratio", "ratio_dec"])
    reference, _ = per_row_report(p, resolve_character(p, "quartic-i"), kind, nmax)
    for r in reference:
        writer.writerow([
            r.n, r.kron, fraction_gaussian_exact_str(r.lhs), r.rhs.re,
            fraction_gaussian_exact_str(r.ratio), fraction_gaussian_decimal_str(r.ratio),
        ])
    assert rows is None or len(reference) == rows
    return buf.getvalue().encode()


@contextlib.contextmanager
def _step_dtypes():
    """The set of dtypes that ``_ratio_bytes`` ran the ratio's integer
    steps in, read off each ``_fraction_fields`` call over its denominators."""
    seen, real = set(), cli._fraction_fields

    def spy(x, d, present=None):
        if isinstance(d, np.ndarray):  # not the lhs, over the one D
            seen.add(np.result_type(x, d))
        return real(x, d, present)

    with mock.patch.object(cli, "_fraction_fields", spy):
        yield seen


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

    @pytest.mark.parametrize("nmax", ["5", "0"])
    def test_empty_top_decile_bucket_is_usage_error(self, nmax, tmp_path, capsys):
        out = tmp_path / "a.csv"
        argv = ["asympt", "--p", "13", "--kind", "square", "--nmax", nmax]
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: no n in the top decile {nmax}..{nmax} with Kronecker symbol +1"
            " at p = 13; try a larger --nmax"
        ]
        assert not out.exists()

    # sha256 of the CSVs that the per-row Fraction code wrote at N = 3000;
    # conv is the same table for chi and its conjugate, since F(chibar) = F(chi)
    PINNED_SHA256 = {
        (29, "conv"): "091b5cb0cd8c2e7e4cae9cd1096aaedd91b8318f56feee204ca242d17e1d52cf",
        (29, "square", "quartic-i"): "d4362e6c59936f7c47c478cd5218015f512e72b763511b25b3ef02c37ca8846c",
        (29, "square", "quartic-minus-i"): "53288bbeb50b4341abb0e18223e3a40d64143aca574baddb82db36ee2a94f564",
        (37, "conv"): "9df676d5d784eac523665d291114d93178a10d4915dd8e1fac7372c08e0318cc",
        (37, "square", "quartic-i"): "e3a90f3563fcfc09a49e0284395ed971b529c0b87310b17f1f38ddd64e93cd8a",
        (37, "square", "quartic-minus-i"): "053899d2001da3306abfba5531fa9c811a327b5fa835afe2a5557d7847cb7cee",
    }

    @pytest.mark.parametrize("p", [29, 37])
    @pytest.mark.parametrize("chi", ["quartic-i", "quartic-minus-i"])
    @pytest.mark.parametrize("kind", ["conv", "square"])
    def test_csv_is_byte_identical_to_the_pinned_table(self, p, chi, kind, tmp_path):
        out = tmp_path / "a.csv"
        argv = ["asympt", "--p", str(p), "--chi", chi, "--kind", kind, "--nmax", "3000"]
        assert main(argv + ["--out", str(out)]) == EXIT_PASS
        key = (p, kind) if kind == "conv" else (p, kind, chi)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED_SHA256[key]

    # sha256 of the p = 200029 tables at N = 5000: three chunks, each with a
    # D max |sigma| 10**6 past 2**63, so no integer step of any chunk fits int64
    PINNED_PAST_THE_BOUND = {
        "conv": "8b502d3e6696ac5ff9b5d12da8e70317e01f2d3079f20edba7ef84cf6c95171a",
        "square": "c113d9ffadf39b3f5cf2dc0cb4a710f7fd4631d5cabc24dfc23391920212b9fe",
    }

    @pytest.mark.parametrize("kind", ["conv", "square"])
    def test_tables_past_the_int64_bound_are_pinned(self, kind, tmp_path):
        p, nmax = 200029, 5000
        report = identities.asymptotic_report(p, resolve_character(p, "quartic-i"), kind, nmax)
        chunks = [
            report.sigma[lo : lo + cli.CSV_CHUNK_ROWS]
            for lo in range(0, len(report.n), cli.CSV_CHUNK_ROWS)
        ]
        assert len(chunks) == 3
        assert all(report.denominator * int(abs(s).max()) * 10**6 >= 2**63 for s in chunks)
        out = tmp_path / "a.csv"
        argv = ["asympt", "--p", str(p), "--kind", kind, "--nmax", str(nmax)]
        assert main(argv + ["--out", str(out)]) == EXIT_PASS
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED_PAST_THE_BOUND[kind]

    @pytest.mark.parametrize(
        "error, code",
        [(RuntimeError, EXIT_INTERNAL), (ValueError, EXIT_USAGE), (KeyboardInterrupt, None)],
    )
    def test_a_row_that_raises_leaves_no_file(self, error, code, tmp_path, capsys):
        # chunks of rows stream into the temporary file; one that raises
        # partway through must leave neither the target nor the temporary file
        out = tmp_path / "a.csv"
        real, seen, partial = cli._ratio_bytes, [], []
        last = (10000 - 10000 // 29) // cli.CSV_CHUNK_ROWS  # the last full chunk

        def chunk(*columns):
            seen.append(1)
            if len(seen) == last:
                partial.extend(f.read_bytes().count(b"\n") for f in tmp_path.glob(".farkas-*"))
                raise error(f"chunk {last}")
            return real(*columns)

        argv = ["asympt", "--p", "29", "--kind", "conv", "--nmax", "10000", "--out", str(out)]
        with mock.patch.object(cli, "_ratio_bytes", side_effect=chunk):
            if code is None:
                with pytest.raises(error):
                    main(argv)
            else:
                assert main(argv) == code
        assert last > 1 and len(seen) == last
        # earlier rows were already on disk: the table is never held whole
        assert len(partial) == 1 and partial[0] >= cli.CSV_CHUNK_ROWS
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["conv", "square"])
    @pytest.mark.parametrize("chunks", [1, 2])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_chunk_edges_equal_a_per_row_reference(self, kind, chunks, extra, tmp_path):
        # the table with CSV_CHUNK_ROWS * chunks + extra rows, against rows
        # written one at a time by csv.writer from the exact Fractions
        p, rows = 37, cli.CSV_CHUNK_ROWS * chunks + extra
        nmax = next(m for m in itertools.count() if m - m // p == rows)
        out = tmp_path / "a.csv"
        argv = ["asympt", "--p", str(p), "--kind", kind, "--nmax", str(nmax)]
        assert main(argv + ["--out", str(out)]) == EXIT_PASS
        assert out.read_bytes() == _per_row_csv(p, kind, nmax, rows)

    @pytest.mark.parametrize("kind", ["conv", "square"])
    def test_a_chunk_past_the_int64_bound_renders_in_python_ints(self, kind, tmp_path):
        # at p = 200029, D = (2p)**2 is about 1.6e11, so D sigma 10**6 passes
        # 2**63 within n <= 200: the chunk's columns are int64, but its
        # integer steps run on Python ints
        p, nmax = 200029, 200
        out = tmp_path / "a.csv"
        argv = ["asympt", "--p", str(p), "--kind", kind, "--nmax", str(nmax)]
        with _step_dtypes() as steps, \
                mock.patch.object(cli, "_ratio_bytes", wraps=cli._ratio_bytes) as kernel:
            assert main(argv + ["--out", str(out)]) == EXIT_PASS
        assert kernel.call_count == 1
        assert {c.dtype for c in kernel.call_args.args[:5]} == {np.dtype(np.int64)}
        assert steps == {np.dtype(object)}
        assert out.read_bytes() == _per_row_csv(p, kind, nmax)

    @pytest.mark.parametrize("kind", ["conv", "square"])
    def test_object_columns_render_the_int64_table(self, kind, tmp_path):
        # a cap of 1 makes the report's numerators Python ints
        nmax = cli.CSV_CHUNK_ROWS + 100
        argv = ["asympt", "--p", "37", "--kind", kind, "--nmax", str(nmax)]
        with _step_dtypes() as steps:
            main(argv + ["--out", str(tmp_path / "int64.csv")])
        assert steps == {np.dtype(np.int64)}
        with mock.patch.object(qseries, "INT64_CAP", 1), _step_dtypes() as steps:
            assert main(argv + ["--out", str(tmp_path / "object.csv")]) == EXIT_PASS
        assert steps == {np.dtype(object)}
        assert (tmp_path / "object.csv").read_bytes() == (tmp_path / "int64.csv").read_bytes()

    def test_every_p37_square_line_is_six_plain_cells(self, tmp_path):
        out = tmp_path / "a.csv"
        argv = ["asympt", "--p", "37", "--kind", "square", "--nmax", "3000"]
        assert main(argv + ["--out", str(out)]) == EXIT_PASS
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == 3000 - 3000 // 37
        for line, cells in zip(lines, csv.reader(lines)):
            assert len(cells) == 6 and ",".join(cells) == line

    def test_stdout_and_file_get_the_same_bytes(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        argv = ["asympt", "--p", "37", "--kind", "square", "--nmax", "500"]
        assert main(argv + ["--out", str(out)]) == EXIT_PASS
        capsys.readouterr()
        assert main(argv) == EXIT_PASS
        assert capsys.readouterr().out == out.read_bytes().decode("utf-8")

    def test_p5_ratio_cells(self, tmp_path):
        out = tmp_path / "a5.csv"
        main(["asympt", "--p", "5", "--kind", "conv", "--nmax", "40", "--out", str(out)])
        for line in out.read_text().strip().splitlines()[1:]:
            cells = line.split(",")
            assert cells[4] == "3/5"
            assert cells[5] == fraction_decimal_str(Fraction(3, 5)) == "0.600000000000"


# argv -> exit code, for reports with and without rows and nested values
FORMAT_ARGV = {
    "verify-pass": (["verify", "--p", "5", "--kind", "conv", "--nmax", "20"], EXIT_PASS),
    "verify-failure": (["verify", "--p", "29", "--kind", "conv", "--nmax", "20"], EXIT_FAILURE),
    "search": (["search", "--pmax", "60", "--nmax", "10"], EXIT_PASS),
    "search-safe-primes": (["search", "--safe-primes", "--pmax", "300"], EXIT_PASS),
    "poly": (["poly", "--p", "59"], EXIT_PASS),
}


class TestReportFormats:
    @staticmethod
    def _run(argv, fmt, code):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv + ["--format", fmt]) == code
        return out.getvalue()

    @staticmethod
    def _assert_cell(key, cell, want):
        if key == "elapsed_ms":
            float(cell)  # a timing: differs between runs
        elif isinstance(want, (dict, list)):
            assert cell == json.dumps(want, sort_keys=True, separators=(",", ":"))
            assert json.loads(cell) == want
        else:
            assert cell == str(want)

    @pytest.mark.parametrize("name", list(FORMAT_ARGV))
    def test_csv_parses_back_to_the_json_report(self, name):
        argv, code = FORMAT_ARGV[name]
        want = json.loads(self._run(argv, "json", code))
        lines = list(csv.reader(io.StringIO(self._run(argv, "csv", code), newline="")))
        if "rows" in want:  # the rows alone
            assert sorted(lines[0]) == sorted(want["rows"][0])
            assert len(lines) == len(want["rows"]) + 1
            for cells, row in zip(lines[1:], want["rows"]):
                for key, cell in zip(lines[0], cells, strict=True):
                    self._assert_cell(key, cell, row[key])
            return
        assert sorted(key for key, _ in lines) == sorted(want)  # json sorts its keys
        for key, cell in lines:
            self._assert_cell(key, cell, want[key])

    @pytest.mark.parametrize("name", list(FORMAT_ARGV))
    def test_text_lines_carry_the_json_report(self, name):
        argv, code = FORMAT_ARGV[name]
        want = json.loads(self._run(argv, "json", code))
        rows, keys = [], []
        for line in self._run(argv, "text", code).splitlines():
            if line.startswith("  "):
                rows.append(dict(pair.split("=", 1) for pair in line.split()))
            else:
                key, cell = line.split(": ", 1)
                keys.append(key)
                self._assert_cell(key, cell, want[key])
        assert sorted(keys) == sorted(key for key in want if key != "rows")
        assert len(rows) == len(want.get("rows", []))
        for got, row in zip(rows, want.get("rows", [])):
            assert sorted(got) == sorted(row)
            for key, cell in got.items():
                self._assert_cell(key, cell, row[key])


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

    def test_p83_flags_no_zero_past_the_leading_coefficient(self, tmp_path):
        # deg f = 161 at p = 83: an untrimmed f would also flag 2p - 4 = 162
        out = tmp_path / "p83.json"
        main(["poly", "--p", "83", "--out", str(out)])
        assert json.loads(out.read_text())["flagged_zero_coefficients"][-1] == 159

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

    def test_exponents_up_to_the_cap_parse(self):
        assert cli.MAX_EXPONENT == 10_000
        assert parse_gaussian_pair("1e10000,-2.5E-1_0000") == GaussianRational(
            Fraction(10**10000), Fraction(-25, 10**10001)
        )
        assert parse_gaussian_pair("3e+0,00e-00010") == gaussian(3, 0)
        for pair in ("1e10001,0", "0,1e-10001", "1e0010001,0", "1e1_0001,0"):
            with pytest.raises(ValueError, match="exponent"):
                parse_gaussian_pair(pair)
        for pair in ("1e,0", "1e5.5,0", "e5,0"):  # no integer exponent: Fraction refuses
            with pytest.raises(ValueError, match="Invalid literal"):
                parse_gaussian_pair(pair)

    def test_builtin_configs_load(self):
        names = builtin_config_names()
        assert names == [
            "p37_2_17.json",
            "p37_2_19.json",
            "p37_5_17.json",
            "p37_5_19.json",
        ]
        cfg = load_builtin_config("p37_2_17.json")
        assert cfg.chi.p == 37
        assert cfg.rhs == ((gaussian(18), qseries.sigma_prime_values),)

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
        assert [dec for _, dec in _ratio_cells([3, -1], [0, 0], [5, 3])] == [
            "0.600000000000", "-0.333333333333",
        ]

    def test_gaussian_decimal(self):
        assert [dec for _, dec in _ratio_cells([2, 1], [-1, 0], [4, 2])] == [
            "0.500000000000-0.250000000000i", "0.500000000000",
        ]


class TestInternalError:
    def test_unexpected_exception_exits_four_with_a_traceback(self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_asympt", broken)
        argv = ["asympt", "--p", "29", "--kind", "conv", "--nmax", "10"]
        assert main(argv) == EXIT_INTERNAL == 4
        err = capsys.readouterr().err
        assert err.splitlines()[0] == "internal error: RuntimeError('boom')"
        assert "Traceback (most recent call last)" in err and err.rstrip().endswith(
            "RuntimeError: boom"
        )

    def test_an_inexact_fft_product_exits_four_in_one_line(self, capsys):
        # an inverse transform that puts one value 0.3 off its integer: the
        # product's check raises, and the sweep ends with one line and exit
        # 4, never a traceback and never exit 1 (an identity failure)
        real = qseries.irfft

        def perturbed(*args, **kwargs):
            out = real(*args, **kwargs)
            out[1] += 0.3
            return out

        argv = ["verify", "--p", "13", "--kind", "square", "--nmax", "5000"]
        try:
            with mock.patch.object(qseries, "irfft", perturbed):
                code = main(argv)
        finally:
            qseries.convolver.cache_clear()  # no tail of the perturbed run stays cached
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL and not captured.out
        [line] = captured.err.splitlines()
        assert line.startswith("internal error: FFT product of length ") and "0.3 from" in line

    def test_a_perturbed_class_spectrum_exits_four_in_one_line(self, capsys):
        # 0.3 n added to the zero-frequency bin of a summed class spectrum
        # puts every value of its inverse 0.3 off its integer: the config's
        # first dilated read (F(95 k), 95 classes of 2001 coefficients)
        # raises, and the command ends with one line and exit 4
        real = qseries.irfft

        def perturbed(spectrum, n):
            spectrum = spectrum.copy()
            spectrum[..., 0] += 0.3 * n
            return real(spectrum, n)

        argv = ["verify", "--kind", "config", "--config", P37_5_19, "--nmax", "2000"]
        try:
            with mock.patch.object(qseries, "irfft", perturbed):
                code = main(argv)
        finally:
            qseries.convolver.cache_clear()
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL and not captured.out
        [line] = captured.err.splitlines()
        assert line.startswith("internal error: FFT product of length 2001: a value lies 0.3 from")

    def test_known_errors_keep_their_codes(self, monkeypatch, capsys):
        for exc, code in ((ValueError("v"), EXIT_USAGE), (OSError("o"), EXIT_IO)):
            def broken(args, exc=exc):
                raise exc

            monkeypatch.setattr(cli, "cmd_verify", broken)
            assert main(["verify", "--kind", "farkas"]) == code
        assert "Traceback" not in capsys.readouterr().err


# a fresh interpreter: the tracked objects after import, then the freeze
# count after each of two in-process main calls, with their exit codes
FREEZE_PROBE = """
import contextlib, gc, io, json
import farkas.cli
gc.collect()
tracked = len(gc.get_objects())
argv = ["verify", "--p", "13", "--kind", "conv", "--nmax", "50"]
with contextlib.redirect_stdout(io.StringIO()):
    first = farkas.cli.main(argv), gc.get_freeze_count()
    second = farkas.cli.main(argv), gc.get_freeze_count()
print(json.dumps([tracked, *first, *second]))
"""


START_UP_PROBE = """
import inspect, json, sys
import farkas.cli
classes = [
    f"{name}.{attr}"
    for name, mod in list(sys.modules.items()) if name.split(".")[0] == "farkas"
    for attr, obj in vars(mod).items()
    if inspect.isclass(obj) and hasattr(obj, "__dataclass_fields__")
]
print(json.dumps([sorted({"csv", "dataclasses"} & set(sys.modules)), classes]))
"""


class TestStartupHeap:
    def test_the_import_loads_no_dataclasses_and_no_csv(self):
        # no command needs them: the records are plain classes, whose
        # methods are not compiled at import, and csv loads with a csv report
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", START_UP_PROBE], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert json.loads(done.stdout) == [[], []]

    def test_main_freezes_the_start_up_heap_once(self):
        # the objects of the imports move to the permanent generation on the
        # first call, which the shutdown collections no longer walk; a second
        # call freezes nothing more
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", FREEZE_PROBE], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        tracked, code1, frozen1, code2, frozen2 = json.loads(done.stdout)
        assert code1 == code2 == EXIT_PASS
        assert tracked > 1000 and frozen1 >= tracked
        assert frozen2 == frozen1


# the renderings of the per-row Fraction path, kept as oracles
def fraction_decimal_str(x: Fraction, places: int = 12) -> str:
    sign = "-" if x < 0 else ""
    scaled = abs(x) * 10**places
    intpart, fracpart = divmod(scaled.numerator // scaled.denominator, 10**places)
    return f"{sign}{intpart}.{fracpart:0{places}d}"


def fraction_gaussian_decimal_str(z: GaussianRational) -> str:
    if z.is_real():
        return fraction_decimal_str(z.re)
    sign = "+" if z.im >= 0 else "-"
    return f"{fraction_decimal_str(z.re)}{sign}{fraction_decimal_str(abs(z.im))}i"


def fraction_gaussian_exact_str(z: GaussianRational) -> str:
    return str(z.re) if z.is_real() else str(z)


numerators = st.one_of(
    st.integers(-(2**80), 2**80),  # past 2**63 both ways
    st.integers(-3, 3),  # zero parts, and |x| < 10**-12 over a large den
)
denominators = st.one_of(
    st.integers(1, 2**80), st.integers(10**12 + 1, 2**80), st.integers(-(2**80), -1)
)


# columns that mix values past 2**63, zero imaginary parts and d = +-1
column_rows = st.lists(
    st.tuples(
        numerators,
        st.one_of(numerators, st.just(0)),
        st.one_of(denominators, st.sampled_from([1, -1])),
    ),
    min_size=1,
    max_size=40,
)


def _column(values, as_object=False):
    """An int64 array of ``values``, or an object array of Python ints when
    ``as_object`` or some value is outside int64."""
    fits = all(-(2**63) <= v <= INT64_MAX for v in values)
    return np.array(values, dtype=np.int64 if fits and not as_object else object)


def fraction_chunk_csv(n, kron, re, im, sigma, D) -> bytes:
    """The ratio-table rows of a chunk, written one at a time by csv.writer
    from exact Fractions: lhs = (re + i im)/D, rhs = sigma, ratio = lhs/sigma."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in zip(*(c.tolist() for c in (n, kron, re, im, sigma))):
        k, s, (x, y) = row[1], row[4], row[2:4]
        lhs = GaussianRational(Fraction(x, D), Fraction(y, D))
        ratio = GaussianRational(Fraction(x, D * s), Fraction(y, D * s))
        writer.writerow([
            row[0], k, fraction_gaussian_exact_str(lhs), s,
            fraction_gaussian_exact_str(ratio), fraction_gaussian_decimal_str(ratio),
        ])
    return buf.getvalue().encode()


def _ratio_cells(re, im, dens) -> list[list[str]]:
    """The ratio and ratio_dec cells of (x + i y)/d for each x, y, d != 0,
    as ``_ratio_bytes`` renders them with D = 1."""
    n = np.arange(len(re), dtype=np.int64)
    got = cli._ratio_bytes(n, 0 * n, _column(re), _column(im), _column(dens), 1)
    return [line.split(",")[4:] for line in got.decode("ascii").splitlines()]


class TestColumnRenderer:
    @settings(deadline=None)
    @given(column_rows)
    @example([(2**64 + 1, 0, 1), (-(2**70), 3, -1), (5, 0, -(10**13)), (0, -7, 2**63)])
    @example([(-1, 0, 10**13)])  # "-0.000000000000"
    @example([(1, -1, -(10**13))])  # both parts round to zero, signs from den
    @example([(0, 5, 7)])  # zero real part, imaginary part kept
    @example([(2**64 + 1, 0, 3)])  # real value past int64
    @example([(-(2**70), 2**70, 2**70)])  # reduces to -1+1i
    def test_columns_equal_the_fraction_path(self, rows):
        re, im, dens = map(list, zip(*rows))
        zs = [GaussianRational(Fraction(x, d), Fraction(y, d)) for x, y, d in rows]
        assert _ratio_cells(re, im, dens) == [
            [fraction_gaussian_exact_str(z), fraction_gaussian_decimal_str(z)] for z in zs
        ]
        positive = [abs(d) for d in dens]
        zs = [GaussianRational(Fraction(x, d), Fraction(y, d)) for x, y, d in zip(re, im, positive)]
        assert _ratio_cells(re, im, positive) == [
            [fraction_gaussian_exact_str(z), fraction_gaussian_decimal_str(z)] for z in zs
        ]


INT64_MAX = 2**63 - 1


@st.composite
def int64_chunks(draw):
    """Chunk columns (n, kron, re, im, sigma) of int64 and a D > 0, with
    sigma of both signs up to the bound D |sigma| STEP <= 2**63 - 1, re and
    im over all of int64 but -2**63, zero imaginary parts, and numerators
    that reduce a ratio or lhs to d = 1."""
    D = draw(st.one_of(st.integers(1, 10**4), st.integers(1, INT64_MAX // cli.STEP)))
    top = INT64_MAX // (D * cli.STEP)  # the largest |sigma| within the bound
    rows = []
    for _ in range(draw(st.integers(1, 24))):
        sigma = draw(st.one_of(st.integers(1, top), st.just(top)))
        sigma *= draw(st.sampled_from([1, -1]))
        ratio_one, lhs_one = INT64_MAX // (D * abs(sigma)), INT64_MAX // D

        def part():
            return draw(st.one_of(
                st.integers(-INT64_MAX, INT64_MAX),
                st.integers(-3, 3),
                st.sampled_from([INT64_MAX, -INT64_MAX]),
                st.integers(-ratio_one, ratio_one).map(lambda t: t * D * abs(sigma)),
                st.integers(-lhs_one, lhs_one).map(lambda t: t * D),
            ))

        im = 0 if draw(st.booleans()) else part()
        n = draw(st.integers(-INT64_MAX, INT64_MAX))
        rows.append((n, draw(st.integers(-1, 1)), part(), im, sigma))
    columns = [np.array(c, dtype=np.int64) for c in zip(*rows)]
    return columns, D


@st.composite
def python_int_chunks(draw):
    """Chunk columns (n, kron, re, im, sigma) and a D > 0 past the int64
    bound: parts up to 10**60, sigma of both signs up to 10**30, D up to
    2**62, zero imaginary parts, and numerators that reduce a ratio or lhs
    to d = 1; each column int64 where its values fit it (and a draw does
    not make it object), else object."""
    D = draw(st.one_of(st.integers(1, 10**4), st.integers(1, 2**62)))
    rows = []
    for _ in range(draw(st.integers(1, 24))):
        sigma = draw(st.one_of(st.integers(1, 10**4), st.integers(1, 10**30)))
        sigma *= draw(st.sampled_from([1, -1]))

        def part():
            return draw(st.one_of(
                st.integers(-(10**60), 10**60),
                st.integers(-INT64_MAX, INT64_MAX),
                st.integers(-3, 3),
                st.integers(-(10**6), 10**6).map(lambda t: t * D * abs(sigma)),
                st.integers(-(10**6), 10**6).map(lambda t: t * D),
            ))

        im = 0 if draw(st.booleans()) else part()
        n = draw(st.integers(-INT64_MAX, INT64_MAX))
        rows.append((n, draw(st.integers(-1, 1)), part(), im, sigma))
    columns = [_column(list(c), draw(st.booleans())) for c in zip(*rows)]
    return columns, D


class TestByteRenderer:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(int64_chunks(), python_int_chunks()))
    def test_bytes_equal_the_fraction_oracle(self, chunk):
        columns, D = chunk
        assert cli._ratio_bytes(*columns, D) == fraction_chunk_csv(*columns, D)

    def test_the_bound_and_dtypes_decide_the_path(self):
        # exact_sum picks the steps' dtype: int64 while D |sigma| STEP stays
        # below 2 INT64_CAP = 2**63 and every |re|, |im| below INT64_CAP,
        # whatever the input dtype
        D = 10**6
        top = INT64_MAX // (D * cli.STEP)

        def chunk(sigma, re=5, dtype=np.int64):
            return [np.array([v], dtype=dtype) for v in (1, 1, re, 0, sigma)]

        def steps(columns):
            with _step_dtypes() as seen:
                assert cli._ratio_bytes(*columns, D) == fraction_chunk_csv(*columns, D)
            [dtype] = seen
            return dtype

        int64, python_ints = np.dtype(np.int64), np.dtype(object)
        assert steps(chunk(top)) == steps(chunk(-top)) == int64
        assert steps(chunk(top + 1)) == python_ints  # D |sigma| STEP > 2**63 - 1
        assert steps(chunk(-top - 1)) == python_ints
        assert steps(chunk(1, re=-(2**63))) == python_ints  # |re| leaves int64
        assert steps(chunk(1, re=qseries.INT64_CAP)) == python_ints
        assert steps(chunk(1, re=qseries.INT64_CAP - 1)) == int64
        assert steps(chunk(1, dtype=object)) == int64  # small Python ints
        assert steps(chunk(top + 1, dtype=object)) == python_ints
        with pytest.raises(AssertionError):  # sigma is never 0 where p does not divide n
            cli._ratio_bytes(*chunk(0), D)


# argv for the property below: mostly valid values, with out-of-range
# integers, text that is no integer, and missing options mixed in
HOSTILE = st.sampled_from(["", "x", "1.5", "1e3", "-", "0x10"])
PRIMES = st.sampled_from(["5", "13", "29", "37", "53", "61", "11", "59", "83"])


def _value(valid, lo, hi):
    return st.one_of(valid, valid, st.integers(lo, hi).map(str), HOSTILE)


def _option(flag, values):
    given_ = values.map(lambda v: [flag, v])
    return st.one_of(st.just([]), given_, given_, given_)


def _command(name, *options):
    return st.tuples(*options).map(lambda parts: [name] + [a for part in parts for a in part])


CONFIGS = [str(resources.files("farkas").joinpath("configs", n)) for n in builtin_config_names()]
CHIS = st.sampled_from(["quartic-i", "quartic-minus-i", "generator", ""])
NMAX = _value(st.integers(0, 300).map(str), -10, 300)
ARGV = st.one_of(
    _command(
        "verify",
        _option("--p", _value(PRIMES, -10, 200)),
        _option("--chi", CHIS),
        _option("--kind", st.sampled_from(["conv", "square", "farkas", "config", "bogus"])),
        _option("--nmax", NMAX),
        _option("--config", st.sampled_from(CONFIGS + ["no/such/config.json", ""])),
    ),
    _command(
        "search",
        _option("--pmax", _value(st.integers(5, 200).map(str), -10, 200)),
        _option("--nmax", NMAX),
        st.sampled_from([[], [], ["--discriminant"], ["--safe-primes"]]),
    ),
    _command(
        "asympt",
        _option("--p", _value(PRIMES, -10, 200)),
        _option("--chi", CHIS),
        _option("--kind", st.sampled_from(["conv", "square", "bogus"])),
        _option("--nmax", NMAX),
    ),
    _command(  # well formed, so that many runs reach a verdict
        "verify",
        PRIMES.map(lambda v: ["--p", v]),
        st.sampled_from(["conv", "square"]).map(lambda v: ["--kind", v]),
        st.integers(0, 300).map(lambda v: ["--nmax", str(v)]),
        _option("--chi", CHIS),
    ),
    _command("poly", _option("--p", _value(PRIMES, -10, 200))),
    st.sampled_from([[], ["bogus"], ["verify", "--nmax"]]),
)


class TestArgvContract:
    @settings(deadline=None)
    @given(ARGV)
    def test_exit_codes_and_reports_under_any_argv(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        event(f"exit {code}")
        assert code in (EXIT_PASS, EXIT_FAILURE, EXIT_USAGE, EXIT_IO), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == EXIT_FAILURE:
            report = json.loads(out.getvalue())
            assert report["outcome"] == "first_failure" and "n" in report["first_failure"]


# --config contents for the property below: a valid config (a built-in one,
# or random terms that mostly fail), then up to two fields replaced by any
# JSON value (ints, floats with NaN and infinities, bools, strings, lists,
# dicts, null) or a pair with a zero denominator, or deleted
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-10, 10**6), st.floats(),
        st.text(alphabet="0123456789/,-. xi", max_size=10),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.sampled_from("ABCkp"), inner, max_size=3)
    ),
    max_leaves=6,
)
MISSING = object()
HOSTILE_VALUES = st.one_of(
    JSON_VALUES,
    st.sampled_from(["1/0,0", "0,5/0", "1/0,1/0", "0/0,1", "1e3000000,0", "0,-7e-10001"]),
    st.just(MISSING),
)
# values of more than 4300 digits among them: past Python's int-to-str limit
PAIRS = st.sampled_from([
    "1/1,0/1", "5,0", "-3/2,1/4", "0,1", "40/1,0/1", "1e4400,0", "0,-7e4301", "3e-4400,1/2",
])
RANDOM_CONFIG = st.fixed_dictionaries({
    "p": st.sampled_from([5, 13, 29, 37]),
    "chi": st.sampled_from(["quartic-i", "quartic-minus-i"]),
    "terms": st.lists(
        st.fixed_dictionaries(
            {"A": PAIRS, "B": st.integers(1, 30), "C": st.integers(1, 200)}
        ),
        min_size=1, max_size=4,
    ),
    "rhs": st.sampled_from([("sigma_prime", 1), ("tilde_hat", 2)]).flatmap(
        lambda kind: st.fixed_dictionaries({
            "kind": st.just(kind[0]),
            "coefficients": st.lists(PAIRS, min_size=kind[1], max_size=kind[1]),
        })
    ),
})
CONFIG_PATHS = st.sampled_from([
    (), ("p",), ("chi",), ("terms",), ("terms", 0), ("terms", 0, "A"), ("terms", 0, "B"),
    ("terms", 0, "C"), ("rhs",), ("rhs", "kind"), ("rhs", "coefficients"),
    ("rhs", "coefficients", 0),
])


def _corrupt(config, path, value):
    """config with the value at path replaced by value (MISSING: deleted);
    a path that no longer exists leaves it as it is."""
    if not path:
        return value
    parent = config
    try:
        for key in path[:-1]:
            parent = parent[key]
        if value is MISSING:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass
    return config


@st.composite
def config_files(draw):
    """The text of a --config file."""
    config = draw(st.one_of(
        st.sampled_from(CONFIGS).map(lambda path: json.loads(open(path, encoding="utf-8").read())),
        RANDOM_CONFIG,
    ))
    for path, value in draw(st.lists(st.tuples(CONFIG_PATHS, HOSTILE_VALUES), max_size=2)):
        config = _corrupt(config, path, value)
    return "" if config is MISSING else json.dumps(config)


class TestConfigContract:
    @settings(deadline=None)
    @given(config_files(), st.integers(0, 60))
    def test_exit_codes_and_reports_under_any_config(self, tmp_path_factory, text, nmax):
        path = tmp_path_factory.mktemp("cfg") / "c.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        argv = ["verify", "--kind", "config", "--config", str(path), "--nmax", str(nmax)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        event(f"exit {code}")
        assert code in (EXIT_PASS, EXIT_FAILURE, EXIT_USAGE), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == EXIT_FAILURE:
            report = json.loads(out.getvalue())
            assert report["outcome"] == "first_failure" and "n" in report["first_failure"]

    @settings(deadline=None, max_examples=50)
    @given(RANDOM_CONFIG, st.integers(0, 60))
    def test_valid_configs_report_exact_values_of_any_size(self, tmp_path_factory, config, nmax):
        path = tmp_path_factory.mktemp("cfg") / "c.json"
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        argv = ["verify", "--kind", "config", "--config", str(path), "--nmax", str(nmax)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        event(f"exit {code}")
        assert code in (EXIT_PASS, EXIT_FAILURE), (code, err.getvalue())
        if code == EXIT_FAILURE:
            report = json.loads(out.getvalue())
            assert _reported_exactly(report, load_identity_config(str(path)), nmax)


def _inits(argv):
    """How many GaussianRational values one CLI run builds."""
    calls = 0
    original = GaussianRational.__init__

    def counted(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        original(self, *args, **kwargs)

    with mock.patch.object(GaussianRational, "__init__", counted):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) in (EXIT_PASS, EXIT_FAILURE)
    return calls


class TestExactValuesOnlyAtTheEdges:
    @pytest.mark.parametrize(
        "argv, small, large",
        [
            (["verify", "--p", "13", "--kind", "square"], 1000, 4000),
            (["verify", "--kind", "config", "--config", P37_5_19], 200, 800),
            (["asympt", "--p", "29", "--kind", "square"], 1000, 4000),
        ],
        ids=["verify-square", "verify-config", "asympt-square"],
    )
    def test_gaussian_rationals_do_not_grow_with_nmax(self, argv, small, large):
        # a GaussianRational per coefficient would make the larger run build
        # thousands more; the constants and rendered values are a fixed few
        _inits(argv + ["--nmax", str(small)])  # fill the per-prime caches
        counts = [_inits(argv + ["--nmax", str(n)]) for n in (small, large)]
        assert counts[0] == counts[1] > 0, counts
