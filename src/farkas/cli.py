"""Command-line entry point: verification sweeps, finite searches,
ratio tables, and the integer-polynomial reports.

Exit codes: 0 pass, 1 identity failure (report still written), 2 usage
error, 3 I/O error.  Exact values serialize as reduced fraction strings;
decimal columns are advisory renderings only.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import time
from fractions import Fraction
from importlib import resources

from .charpoly import even_character_obstruction, is_safe_prime_shape, safe_prime_scan
from .foundations import GaussianRational, is_prime
from .identities import (
    ConfiguredIdentity,
    asymptotic_report,
    check_configured_identity,
    dichotomy_scan,
    discriminant_search,
    resolve_character,
    verify_farkas,
    verify_id1,
    verify_id2,
)
from .qseries import MAX_FAST_N

EXIT_PASS = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


def decimal_str(x: Fraction, places: int = 12) -> str:
    """Exact fixed-point rendering of a rational to `places` decimals."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaled = x * 10**places
    q = scaled.numerator // scaled.denominator
    intpart, fracpart = divmod(q, 10**places)
    return f"{sign}{intpart}.{fracpart:0{places}d}"


def gaussian_decimal_str(z: GaussianRational, places: int = 12) -> str:
    if z.is_real():
        return decimal_str(z.re, places)
    sign = "+" if z.im >= 0 else "-"
    return f"{decimal_str(z.re, places)}{sign}{decimal_str(abs(z.im), places)}i"


def gaussian_exact_str(z: GaussianRational) -> str:
    """Reduced-fraction rendering; real values drop the imaginary part."""
    return str(z.re) if z.is_real() else str(z)


def parse_gaussian_pair(text: str) -> GaussianRational:
    """Parse the config format 're_num/re_den,im_num/im_den'."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 're/den,im/den', got {text!r}")
    return GaussianRational(Fraction(parts[0].strip()), Fraction(parts[1].strip()))


def load_identity_config(path_or_file) -> ConfiguredIdentity:
    """Read a ConfiguredIdentity from a JSON config file."""
    if hasattr(path_or_file, "read"):
        raw = path_or_file.read()
    else:
        with open(path_or_file, encoding="utf-8") as fh:
            raw = fh.read()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc

    def need(key, obj=data, where="config"):
        if key not in obj:
            raise ValueError(f"{where}: missing field {key!r}")
        return obj[key]

    p = need("p")
    chi = need("chi")
    terms = []
    for idx, term in enumerate(need("terms")):
        where = f"terms[{idx}]"
        try:
            a = parse_gaussian_pair(need("A", term, where))
        except ValueError as exc:
            raise ValueError(f"{where}.A: {exc}") from exc
        b = need("B", term, where)
        c = need("C", term, where)
        if not isinstance(b, int) or not isinstance(c, int):
            raise ValueError(f"{where}: B and C must be integers")
        terms.append((a, b, c))
    rhs = need("rhs")
    kind = need("kind", rhs, "rhs")
    coeffs = tuple(
        parse_gaussian_pair(c) for c in need("coefficients", rhs, "rhs")
    )
    return ConfiguredIdentity(p, chi, tuple(terms), kind, coeffs)


def builtin_config_names() -> list[str]:
    root = resources.files("farkas").joinpath("configs")
    return sorted(e.name for e in root.iterdir() if e.name.endswith(".json"))


def load_builtin_config(name: str) -> ConfiguredIdentity:
    root = resources.files("farkas").joinpath("configs")
    with root.joinpath(name).open(encoding="utf-8") as fh:
        return load_identity_config(fh)


def write_output(text: str, path: str | None) -> None:
    """Write atomically (write-then-rename); stdout when no path given."""
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".farkas-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def render_report(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        rows = payload.get("rows")
        if rows:
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow(row.values())
        else:
            for key, value in payload.items():
                writer.writerow([key, value])
        return buf.getvalue()
    if fmt == "text":
        lines = []
        for key, value in payload.items():
            if key == "rows":
                for row in value:
                    lines.append("  " + " ".join(f"{k}={v}" for k, v in row.items()))
            else:
                lines.append(f"{key}: {value}")
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown output format {fmt!r}")


# ---------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------

def _check_nmax(nmax: int) -> None:
    if not 0 <= nmax <= MAX_FAST_N:
        raise UsageError(f"--nmax must be in 0..{MAX_FAST_N}, got {nmax}")


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    _check_nmax(args.nmax)
    if args.kind == "farkas":
        report = verify_farkas(args.nmax)
    elif args.kind == "config":
        if args.config is None:
            raise UsageError("--kind config requires --config FILE")
        try:
            cfg = load_identity_config(args.config)
        except (OSError, ValueError) as exc:
            raise UsageError(f"bad config file: {exc}")
        report = check_configured_identity(cfg, args.nmax)
    else:
        if args.p is None:
            raise UsageError("--p is required for conv/square verification")
        p = args.p
        if p % 8 != 5 or not _is_prime(p):
            raise UsageError(f"p must be a prime = 5 (mod 8), got {p}")
        chi = resolve_character(p, args.chi)
        if args.kind == "conv":
            report = verify_id1(p, args.nmax, chi)
        else:
            report = verify_id2(p, chi, args.nmax)
    payload = {
        "command": "verify",
        "params": {
            "p": report.p,
            "character": report.character,
            "kind": report.kind,
            "nmax": report.nmax,
        },
        "outcome": report.outcome,
        "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
    }
    if report.failure_n is not None:
        payload["first_failure"] = {
            "n": report.failure_n,
            "lhs": str(report.lhs),
            "rhs": str(report.rhs),
        }
    write_output(render_report(payload, args.format), args.out)
    return EXIT_PASS if report.passed else EXIT_FAILURE


def cmd_search(args) -> int:
    t0 = time.perf_counter()
    payload: dict = {"command": "search", "params": {}}
    if args.safe_primes:
        if args.pmax is None:
            raise UsageError("--safe-primes requires --pmax")
        payload["params"]["pmax"] = args.pmax
        payload["safe_primes"] = safe_prime_scan(args.pmax)
        payload["outcome"] = "pass"
    elif args.discriminant:
        sols = discriminant_search()
        payload["discriminant_solutions"] = [
            {"factor_pair": list(s.factor_pair), "p": s.p, "x": s.x} for s in sols
        ]
        payload["passing_primes"] = sorted({s.p for s in sols})
        payload["outcome"] = "pass"
    else:
        if args.pmax is None:
            raise UsageError("search requires --pmax (or --discriminant/--safe-primes)")
        payload["params"]["pmax"] = args.pmax
        rows = dichotomy_scan(args.pmax, nmax=args.nmax)
        payload["rows"] = [
            {
                "p": r.p,
                "id1": "pass" if r.id1_pass else f"fail@{r.id1_failure_n}",
                "id2": "pass" if r.id2_pass else f"fail@{r.id2_failure_n}",
                "obstruction1": "consistent" if r.obstruction1_consistent else "inconsistent",
                "obstruction2": "accepted" if r.obstruction2_accepted else "rejected",
            }
            for r in rows
        ]
        payload["passing_primes"] = [r.p for r in rows if r.id1_pass and r.id2_pass]
        sols = discriminant_search()
        payload["discriminant_solutions"] = [
            {"factor_pair": list(s.factor_pair), "p": s.p, "x": s.x} for s in sols
        ]
        payload["outcome"] = "pass"
    payload["elapsed_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    write_output(render_report(payload, args.format), args.out)
    return EXIT_PASS


def cmd_asympt(args) -> int:
    _check_nmax(args.nmax)
    p = args.p
    if p % 8 != 5 or not _is_prime(p):
        raise UsageError(f"p must be a prime = 5 (mod 8), got {p}")
    chi = resolve_character(p, args.chi)
    report = asymptotic_report(p, chi, args.kind, args.nmax)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "kron", "lhs", "rhs", "ratio", "ratio_dec"])
    for row in report.rows:
        writer.writerow(
            [
                row.n,
                row.kron,
                gaussian_exact_str(row.lhs),
                gaussian_exact_str(row.rhs),
                gaussian_exact_str(row.ratio),
                gaussian_decimal_str(row.ratio),
            ]
        )
    write_output(buf.getvalue(), args.out)
    return EXIT_PASS


def cmd_polynomial(args) -> int:
    t0 = time.perf_counter()
    p = args.p
    if not is_safe_prime_shape(p):
        raise UsageError(f"p must be 2q+1 with q = 1 (mod 4) prime, got {p}")
    report = even_character_obstruction(p)
    payload = {
        "command": "poly",
        "params": {"p": p},
        "b0": report.b0,
        "b1": report.b1,
        "b_p_minus_1": report.b_p_minus_1,
        "b_p": report.b_p,
        "divisible_by_xq_plus_1": report.divisible_by_xq_plus_1,
        "coprime_with_xq_minus_1": report.coprime_with_xq_minus_1,
        "f_at_one": report.f_at_one,
        "flagged_zero_coefficients": report.flagged_zero_coefficients,
        "rows": [
            {"k": r.k, "parity": r.parity, "obstruction": "zero" if r.is_zero else "nonzero"}
            for r in report.rows
        ],
        "outcome": "pass",
        "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
    }
    write_output(render_report(payload, args.format), args.out)
    return EXIT_PASS


def _is_prime(n: int) -> bool:
    return n >= 2 and is_prime(n)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="farkas",
        description="Exact verification of divisor-sum convolution identities "
        "for quartic Dirichlet characters.",
    )
    sub = parser.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--out", default=None, help="output file (atomic write)")
        sp.add_argument(
            "--format", default="json", choices=["json", "csv", "text"]
        )

    sp = sub.add_parser("verify", help="verify an identity exactly up to nmax")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument(
        "--chi",
        default="quartic-i",
        choices=["quartic-i", "quartic-minus-i", "generator"],
    )
    sp.add_argument(
        "--kind", required=True, choices=["conv", "square", "farkas", "config"]
    )
    sp.add_argument("--nmax", type=int, default=2000)
    sp.add_argument("--config", default=None, help="identity config file (JSON)")
    common(sp)

    sp = sub.add_parser("search", help="dichotomy and factorization searches")
    sp.add_argument("--pmax", type=int, default=None)
    sp.add_argument("--nmax", type=int, default=50)
    sp.add_argument("--discriminant", action="store_true")
    sp.add_argument("--safe-primes", dest="safe_primes", action="store_true")
    common(sp)

    sp = sub.add_parser("asympt", help="ratio table CSV for the asymptotic claims")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument(
        "--chi",
        default="quartic-i",
        choices=["quartic-i", "quartic-minus-i"],
    )
    sp.add_argument("--kind", required=True, choices=["conv", "square"])
    sp.add_argument("--nmax", type=int, default=1000)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("poly", help="integer-polynomial obstruction report")
    sp.add_argument("--p", type=int, required=True)
    common(sp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    handler = {
        "verify": cmd_verify,
        "search": cmd_search,
        "asympt": cmd_asympt,
        "poly": cmd_polynomial,
    }[args.command]
    try:
        return handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
