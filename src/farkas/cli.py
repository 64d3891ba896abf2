"""Command-line entry point: verification sweeps, finite searches,
ratio tables, and the integer-polynomial reports.

Exit codes: 0 pass, 1 identity failure (report still written), 2 usage
error, 3 I/O error, 4 internal error (a bug: the traceback goes to
stderr).  Exact values serialize as reduced fraction strings; decimal
columns are advisory renderings only.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import tempfile
import time
from fractions import Fraction
from importlib import resources
from math import gcd
from operator import floordiv, mul

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
EXIT_INTERNAL = 4
CSV_CHUNK_ROWS = 256  # asympt rows rendered per write
# largest |e| of a config value written with a decimal exponent, as in 1e4400:
# 10**e has e + 1 digits, and 1e3000000 would take seconds to build
MAX_EXPONENT = 10_000


class UsageError(Exception):
    pass


def _fraction_column(nums: list[int], dens: list[int]) -> list[str]:
    """str(Fraction(x, d)) for each x, d with d > 0."""
    gs = list(map(gcd, nums, dens))
    return [
        f"{x}/{d}" if d != 1 else str(x)
        for x, d in zip(map(floordiv, nums, gs), map(floordiv, dens, gs))
    ]


def _fixed_column(nums: list[int], dens: list[int], places: int) -> list[str]:
    """x/d for each x, d with d > 0, truncated toward zero to `places`
    decimals; a negative value keeps its '-' even when it truncates to zero."""
    scale = 10**places
    return [
        "%s%d.%0*d" % ("-" if x < 0 else "", q // scale, places, q % scale)
        for x, q in zip(nums, map(floordiv, [abs(x) * scale for x in nums], dens))
    ]


def _gaussian_column(
    re: list[int], im: list[int], dens: list[int], places: int | None = None
) -> list[str]:
    """(x + i y)/d for each x, y, d with d > 0, as reduced fractions, or to
    `places` decimals: the real part alone when y = 0, else x+|y|i or x-|y|i.
    The one renderer of exact and decimal cells, from ints alone; each kind
    of part is built once for the whole column."""
    if places is None:
        column, args = _fraction_column, ()
    else:
        column, args = _fixed_column, (places,)
    real = column(re, dens, *args)
    if not any(im):
        return real
    imag = column(list(map(abs, im)), dens, *args)
    return [f"{a}{'+' if y > 0 else '-'}{b}i" if y else a for a, y, b in zip(real, im, imag)]


def _ratio_columns(
    re: list[int], im: list[int], dens: list[int]
) -> tuple[list[str], list[str]]:
    """The exact and 12-place columns of (x + i y)/d for d != 0: the sign of
    each d moves into its numerators."""
    if min(dens) < 0:
        signs = [-1 if d < 0 else 1 for d in dens]
        re, im = list(map(mul, re, signs)), list(map(mul, im, signs))
        dens = list(map(abs, dens))
    return _gaussian_column(re, im, dens), _gaussian_column(re, im, dens, 12)


def _ratio_chunk(n, kron, re, im, sigma, D: int) -> str:
    """CSV text of ratio-table rows from lists of ints, built a column at a
    time: lhs = (re + i im)/D, rhs = sigma, and their exact and 12-place
    ratio.  Rows end in \\r\\n, as csv.writer ends them; no cell needs
    quoting, since each holds only digits and -+/.i."""
    lhs = _gaussian_column(re, im, [D] * len(re))
    ratio, ratio_dec = _ratio_columns(re, im, [D * s for s in sigma])
    return "".join(
        f"{a},{b},{c},{d},{e},{f}\r\n"
        for a, b, c, d, e, f in zip(n, kron, lhs, sigma, ratio, ratio_dec)
    )


def _rational(text: str) -> Fraction:
    """Fraction(text), but a decimal exponent beyond MAX_EXPONENT is refused
    before Fraction builds its power of ten."""
    _, e, exponent = text.lower().partition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isascii() and digits.isdigit():
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise ValueError(
                f"the exponent of {text!r} is out of range -{MAX_EXPONENT}..{MAX_EXPONENT}"
            )
    return Fraction(text)


def parse_gaussian_pair(text: str) -> GaussianRational:
    """Parse the config format 're_num/re_den,im_num/im_den'."""
    parts = text.split(",") if isinstance(text, str) else ()
    if len(parts) != 2:
        raise ValueError(f"expected 're/den,im/den', got {text!r}")
    try:
        return GaussianRational(_rational(parts[0].strip()), _rational(parts[1].strip()))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def load_identity_config(path_or_file) -> ConfiguredIdentity:
    """Read a ConfiguredIdentity from a JSON config file; a field of the
    wrong type or value raises a ValueError that names it."""
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
        if not isinstance(obj, dict):
            raise ValueError(f"{where} must be a JSON object")
        if key not in obj:
            raise ValueError(f"{where}: missing field {key!r}")
        return obj[key]

    def integer(key, obj=data, where="config"):
        value = need(key, obj, where)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{where}.{key} must be an integer, got {value!r}")
        return value

    def items(key, obj=data, where="config"):
        value = need(key, obj, where)
        if not isinstance(value, list):
            raise ValueError(f"{where}.{key} must be a list")
        return enumerate(value)

    def pair(text, where):
        try:
            return parse_gaussian_pair(text)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc

    p = integer("p")
    chi = need("chi")
    terms = []
    for idx, term in items("terms"):
        where = f"terms[{idx}]"
        a = pair(need("A", term, where), f"{where}.A")
        terms.append((a, integer("B", term, where), integer("C", term, where)))
    rhs = need("rhs")
    kind = need("kind", rhs, "rhs")
    coeffs = tuple(
        pair(c, f"rhs.coefficients[{i}]") for i, c in items("coefficients", rhs, "rhs")
    )
    return ConfiguredIdentity(p, chi, tuple(terms), kind, coeffs)


def builtin_config_names() -> list[str]:
    root = resources.files("farkas").joinpath("configs")
    return sorted(e.name for e in root.iterdir() if e.name.endswith(".json"))


def load_builtin_config(name: str) -> ConfiguredIdentity:
    root = resources.files("farkas").joinpath("configs")
    with root.joinpath(name).open(encoding="utf-8") as fh:
        return load_identity_config(fh)


@contextlib.contextmanager
def _output(path: str | None):
    """A text stream for a report: stdout when no path is given, else a
    temporary file beside `path`, renamed into place only once the block
    ends cleanly.  On any exception it is removed and `path` is untouched."""
    if path is None:
        yield sys.stdout
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".farkas-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_output(text: str, path: str | None) -> None:
    """Write atomically (write-then-rename); stdout when no path given."""
    with _output(path) as fh:
        fh.write(text)
        if path is None and not text.endswith("\n"):
            fh.write("\n")


def _flat(value) -> object:
    """A csv or text cell: a dict or list as compact JSON, else the value."""
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return value


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
                writer.writerow(map(_flat, row.values()))
        else:
            for key, value in payload.items():
                writer.writerow([key, _flat(value)])
        return buf.getvalue()
    if fmt == "text":
        lines = []
        for key, value in payload.items():
            if key == "rows":
                for row in value:
                    lines.append("  " + " ".join(f"{k}={_flat(v)}" for k, v in row.items()))
            else:
                lines.append(f"{key}: {_flat(value)}")
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
    if args.pmax is not None and args.pmax < 5:
        raise UsageError(
            f"--pmax must be at least 5, the smallest prime = 5 (mod 8), got {args.pmax}"
        )
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
    columns = (report.n, report.kron, report.lhs_re, report.lhs_im, report.sigma)
    # one write per CSV_CHUNK_ROWS rows, each chunk built a column at a time
    # from the integer arrays: the table text is never held whole, and an
    # unbuffered stdout (PYTHONUNBUFFERED) takes one system call per chunk
    with _output(args.out) as fh:
        fh.write("n,kron,lhs,rhs,ratio,ratio_dec\r\n")
        for lo in range(0, len(report.n), CSV_CHUNK_ROWS):
            chunk = (c[lo : lo + CSV_CHUNK_ROWS].tolist() for c in columns)
            fh.write(_ratio_chunk(*chunk, report.denominator))
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
        choices=["quartic-i", "quartic-minus-i"],
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
    except Exception as exc:  # a bug, never an identity failure (exit 1)
        import traceback  # only on this path: it is not loaded at start-up

        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
