"""Command-line entry point: verification sweeps, finite searches,
ratio tables, and the integer-polynomial reports.

Exit codes: 0 pass, 1 identity failure (report still written), 2 usage
error, 3 I/O error, 4 internal error (a bug: an FFT product that fails
its exactness check prints one ``internal error:`` line, any other
exception that line and the traceback, on stderr).  Exact values
serialize as reduced fraction strings; decimal columns are advisory
renderings only.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
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

import numpy as np

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
from .qseries import MAX_FAST_N, MAX_PRIME

# largest p of a ``poly`` report: the report and its rendering peak near
# 1.1 kB per residue (tracemalloc: 1063 B per residue for ``poly --p 99707``,
# of which ``even_character_obstruction`` takes under 460 at p = 243707), so
# the 2**28 bytes (256 MiB) that MAX_PRIME allows the tables admit p up to
# 2**28 // 1100 = 244032, past 99707, the largest safe prime below 10**5
MAX_POLY_PRIME = 2**28 // 1100
assert 99707 <= MAX_POLY_PRIME < MAX_PRIME

EXIT_PASS = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4
# asympt rows rendered per write.  Measured on the p = 29 tables: a row of
# _ratio_bytes costs 1.1 us from 2048 to 4096 rows, 1.3 at 1024 and 2.4 at
# 256 (the column builders 4.0); its scratch, about 0.4 kB a row, stays
# within what the int64 report columns save at 2048 rows, not at 4096
CSV_CHUNK_ROWS = 2048
PLACES = 12  # decimals of the ratio_dec column
STEP_DIGITS = PLACES // 2  # _ratio_bytes takes them in two steps of 10**6
STEP = 10**STEP_DIGITS
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
    return _gaussian_column(re, im, dens), _gaussian_column(re, im, dens, PLACES)


def _ratio_chunk(n, kron, re, im, sigma, D: int) -> str:
    """CSV text of ratio-table rows from lists of ints, built a column at a
    time: lhs = (re + i im)/D, rhs = sigma, and their exact and 12-place
    ratio.  Rows end in \\r\\n, as csv.writer ends them; no cell needs
    quoting, since each holds only digits and -+/.i.  The path for any
    chunk that ``_ratio_bytes`` cannot render exactly, and its oracle."""
    lhs = _gaussian_column(re, im, [D] * len(re))
    ratio, ratio_dec = _ratio_columns(re, im, [D * s for s in sigma])
    return "".join(
        f"{a},{b},{c},{d},{e},{f}\r\n"
        for a, b, c, d, e, f in zip(n, kron, lhs, sigma, ratio, ratio_dec)
    )


# _ratio_bytes lays a row out as a list of fields: (text, present), the
# constant bytes where the bool array ``present`` holds (None: in every row),
# or a ``_digits`` field of int64 values >= 0
DIGIT_GROUP = 4  # digits cut from a number per int64 division


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of each g < 10**DIGIT_GROUP, zero-padded, as one
    uint32 per g; and the column 10**18, ..., 10, 1.  Built on the first
    byte render, not at import, which every command pays for."""
    digits = (
        np.arange(10**DIGIT_GROUP, dtype=np.uint16)[:, None]
        // (10 ** np.arange(DIGIT_GROUP - 1, -1, -1)).astype(np.uint16) % 10
    ).astype(np.uint8) + ord("0")
    return digits.view(np.uint32).ravel(), 10 ** np.arange(18, -1, -1, dtype=np.int64)[:, None]


def _digits(values, present=None, width=None):
    """A field of the decimal digits of int64 values >= 0, right-aligned:
    zero-padded to ``width`` digits, or (None) without leading zeros, as
    wide as the largest value."""
    padded = width is not None
    if not padded:
        width = len(str(int(values.max())))
    return values, present, width, padded


def _signed_fields(v):
    return [(b"-", v < 0), _digits(np.abs(v))]


def _fraction_fields(x, d, present=None):
    """x/d reduced, as ``_fraction_column`` writes it, for int64 x >= 0 and
    d > 0 (an array or an int): x/g, then /(d/g) unless d/g is 1."""
    g = np.gcd(x, d)
    den = d // g
    shown = den != 1  # false where x = 0, so also where the part is absent
    return [_digits(x // g, present), (b"/", shown), _digits(den, shown)]


def _fixed_fields(x, d, present=None):
    """x/d truncated to PLACES decimals, as ``_fixed_column`` writes it, for
    int64 x >= 0 and d > 0 with d STEP < 2**63: the integer part, then two
    steps of long division, each exact in int64 and STEP_DIGITS digits long."""
    whole = x // d
    r = (x - whole * d) * STEP
    head = r // d
    tail = (r - head * d) * STEP // d
    return [
        _digits(whole, present), (b".", present),
        _digits(head, present, STEP_DIGITS), _digits(tail, present, STEP_DIGITS),
    ]


def _gaussian_fields(x, y, d, part):
    """(x + i y)/d, d > 0, as ``_gaussian_column`` writes it: the real part,
    then +|y| or -|y| and i where y != 0, each part rendered by ``part``;
    a chunk with no y != 0 (every conv table) builds no imaginary fields."""
    real = [(b"-", x < 0), *part(np.abs(x), d)]
    imag = y != 0
    if not imag.any():
        return real
    return real + [(b"+", y > 0), (b"-", y < 0), *part(np.abs(y), d, imag), (b"i", imag)]


def _ratio_fits(columns, D: int) -> bool:
    """Whether ``_ratio_bytes`` renders a chunk exactly: all five columns
    int64 with no entry -2**63 (so abs stays in int64), no sigma zero, and
    D max |sigma| STEP < 2**63, so that the ratio's denominators D |sigma|
    and every remainder times STEP fit int64."""
    n, kron, re, im, sigma = columns
    if any(c.dtype != np.int64 for c in columns) or not len(n) or not sigma.all():
        return False
    if min(int(c.min()) for c in columns) == -(2**63):
        return False
    return D * max(int(sigma.max()), -int(sigma.min())) * STEP < 2**63


def _fill_digits(text, values) -> None:
    """Write the last len(text) decimal digits of int64 values >= 0 down the
    rows of the uint8 matrix ``text`` (one column per value), DIGIT_GROUP
    digits per division, looked up in ``_digit_tables``."""
    width, v = len(text), values
    groups = _digit_tables()[0]
    for right in range(width, 0, -DIGIT_GROUP):
        q = v // 10**DIGIT_GROUP
        left = max(right - DIGIT_GROUP, 0)
        digits = groups[v - q * 10**DIGIT_GROUP].view(np.uint8).reshape(len(v), DIGIT_GROUP)
        text[left:right] = digits.T[left - right :]
        v = q


def _ratio_bytes(n, kron, re, im, sigma, D: int) -> bytes:
    """The bytes of ``_ratio_chunk`` for int64 columns that ``_ratio_fits``:
    lhs = (re + i im)/D, and the ratio over D sigma, with the sign of sigma
    moved into its numerators.

    gcd, floor division and remainder run in int64, under the bound that
    ``_ratio_fits`` checks.  Each field of a row gets fixed byte positions,
    each number's digits right-aligned in its field, and a bool matrix
    keeps the bytes that the row shows.  Both matrices are built a field
    at a time with the rows contiguous, then transposed, so that one
    boolean gather reads all six cells of every row, in order, as one
    ``bytes``."""
    assert _ratio_fits((n, kron, re, im, sigma), D)
    sign = np.where(sigma < 0, -1, 1)
    x, y, den = re * sign, im * sign, D * np.abs(sigma)
    comma = (b",", None)
    fields = [
        *_signed_fields(n), comma, *_signed_fields(kron), comma,
        *_gaussian_fields(re, im, D, _fraction_fields), comma,
        *_signed_fields(sigma), comma,
        *_gaussian_fields(x, y, den, _fraction_fields), comma,
        *_gaussian_fields(x, y, den, _fixed_fields), (b"\r\n", None),
    ]
    widths = [len(f[0]) if isinstance(f[0], bytes) else f[2] for f in fields]
    text = np.empty((sum(widths), len(n)), dtype=np.uint8)  # byte position x row
    keep = np.empty(text.shape, dtype=bool)
    at = 0
    for i, width in enumerate(widths):
        field, fields[i] = fields[i], None  # free each field's arrays once written
        t, k = text[at : at + width], keep[at : at + width]
        at += width
        if isinstance(field[0], bytes):
            const, present = field
            t[:] = np.frombuffer(const, dtype=np.uint8)[:, None]
            k[:] = True if present is None else present
            continue
        values, present, _, padded = field
        _fill_digits(t, values)
        if padded:
            k[:] = True
        else:  # position j shows a digit of v >= 10**(width - 1 - j), and 0
            powers = _digit_tables()[1]
            np.greater_equal(values, powers[len(powers) - width :], out=k)
            k[-1] = True
        if present is not None:
            k &= present
    # row by row: transpose one matrix at a time, to hold three, not four
    # (the slices t, k would keep the originals alive); a bool mask gathers
    # with no index array (np.compress makes one of 8 bytes per byte kept)
    del t, k
    keep = np.ascontiguousarray(keep.view(np.uint8).T).view(bool)
    text = np.ascontiguousarray(text.T)
    return text.ravel()[keep.ravel()].tobytes()


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


def _check_prime_bound(flag: str, p: int) -> None:
    """A p (or a scan's pmax) past MAX_PRIME is refused before any table
    is built."""
    if p > MAX_PRIME:
        raise UsageError(
            f"{flag} must be at most MAX_PRIME = {MAX_PRIME}, the largest p whose"
            f" tables (32 bytes per residue) are built, got {p}"
        )


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
        p = _quartic_prime(args.p)
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
    _check_nmax(args.nmax)
    payload: dict = {"command": "search", "params": {}}
    if args.pmax is not None and args.pmax < 5:
        raise UsageError(
            f"--pmax must be at least 5, the smallest prime = 5 (mod 8), got {args.pmax}"
        )
    if args.pmax is not None:
        _check_prime_bound("--pmax", args.pmax)
    if args.safe_primes:
        if args.pmax is None:
            raise UsageError("--safe-primes requires --pmax")
        payload["params"]["pmax"] = args.pmax
        payload["safe_primes"] = safe_prime_scan(args.pmax)
        payload["outcome"] = "pass"
    elif args.discriminant:
        sols = discriminant_search()
        payload["discriminant_solutions"] = _solution_rows(sols)
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
        payload["discriminant_solutions"] = _solution_rows(discriminant_search())
        payload["outcome"] = "pass"
    payload["elapsed_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    write_output(render_report(payload, args.format), args.out)
    return EXIT_PASS


def cmd_asympt(args) -> int:
    _check_nmax(args.nmax)
    p = _quartic_prime(args.p)
    chi = resolve_character(p, args.chi)
    report = asymptotic_report(p, chi, args.kind, args.nmax)
    columns = (report.n, report.kron, report.lhs_re, report.lhs_im, report.sigma)
    # one write per CSV_CHUNK_ROWS rows: the table text is never held whole,
    # and an unbuffered stdout (PYTHONUNBUFFERED) takes one system call per
    # chunk.  A chunk of int64 columns within the bound of _ratio_fits is
    # one numpy byte pass; any other goes through the column builders
    with _output(args.out) as fh:
        fh.write("n,kron,lhs,rhs,ratio,ratio_dec\r\n")
        for lo in range(0, len(report.n), CSV_CHUNK_ROWS):
            chunk = [c[lo : lo + CSV_CHUNK_ROWS] for c in columns]
            if _ratio_fits(chunk, report.denominator):
                fh.write(_ratio_bytes(*chunk, report.denominator).decode("ascii"))
            else:
                fh.write(_ratio_chunk(*(c.tolist() for c in chunk), report.denominator))
    return EXIT_PASS


def cmd_polynomial(args) -> int:
    t0 = time.perf_counter()
    p = args.p
    if p > MAX_POLY_PRIME:  # checked before any table, as MAX_PRIME is
        raise UsageError(
            f"--p must be at most MAX_POLY_PRIME = {MAX_POLY_PRIME}, the largest p whose"
            f" report (about 1.1 kB per residue) is built, got {p}"
        )
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


def _quartic_prime(p: int) -> int:
    """p, if it is a prime = 5 (mod 8), the primes with quartic characters
    that the verify and asympt commands take; else a usage error."""
    _check_prime_bound("--p", p)
    if p < 5 or p % 8 != 5 or not is_prime(p):
        raise UsageError(f"p must be a prime = 5 (mod 8), got {p}")
    return p


def _solution_rows(sols) -> list[dict]:
    """The report rows of the discriminant search's solutions."""
    return [{"factor_pair": list(s.factor_pair), "p": s.p, "x": s.x} for s in sols]


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


@functools.cache
def _freeze_start_up_heap() -> None:
    """Move everything tracked so far (about 22 700 objects after `import
    farkas.cli`, most of them numpy's) to the permanent generation, which no
    collection walks: CPython's shutdown collections re-walked them on every
    run, about 28 ms of a refutation's process wall time, against about 7 ms
    in ``main``.  Once per process (cached): a later in-process call would
    make its caller's pending cyclic garbage permanent too, and
    ``gc.get_freeze_count`` walks the whole permanent generation, so it is
    no cheap guard (8.9 ms at 347 000 frozen objects)."""
    gc.freeze()


def main(argv=None) -> int:
    _freeze_start_up_heap()
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
    except FloatingPointError as exc:  # an FFT product failed its exactness check
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a bug, never an identity failure (exit 1)
        import traceback  # only on this path: it is not loaded at start-up

        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
