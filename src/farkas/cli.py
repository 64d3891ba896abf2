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
import functools
import gc
import io
import json
import os
import stat
import sys
import tempfile
import time
from fractions import Fraction

import numpy as np

from .charpoly import even_character_obstruction, is_safe_prime_shape, safe_prime_scan
from .foundations import GaussianRational, is_prime
from .identities import (
    Identity,
    asymptotic_report,
    check_configured_identity,
    configured_identity,
    dichotomy_scan,
    discriminant_search,
    resolve_character,
    verify_farkas,
    verify_id1,
    verify_id2,
)
from .qseries import MAX_FAST_N, MAX_PRIME, exact_sum

# largest p of a ``poly`` report: its peak is f_poly's, whose divisor table
# and row arrays (five int64 arrays over the table's ~p ln p entries) hold
# near 0.6 kB per residue (tracemalloc over the whole command: 572 B per
# residue at p = 120587, 607 at 243707, 619 at 382883, growing with ln p);
# the rows render from four verdicts, below that peak.  So the 2**28 bytes
# (256 MiB) that MAX_PRIME allows the tables admit p up to 2**28 // 700 =
# 383479, past 99707, the largest safe prime below 10**5
MAX_POLY_PRIME = 2**28 // 700
assert 99707 <= MAX_POLY_PRIME < MAX_PRIME

EXIT_PASS = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4
# asympt rows rendered per write.  Measured on the p = 29 tables: a row of
# _ratio_bytes costs 1.1 us from 2048 to 4096 rows, 1.3 at 1024 and 2.4 at
# 256; its scratch, about 0.4 kB a row, stays within what the int64 report
# columns save at 2048 rows, not at 4096
CSV_CHUNK_ROWS = 2048
PLACES = 12  # decimals of the ratio_dec column
STEP_DIGITS = PLACES // 2  # _ratio_bytes takes them in two steps of 10**6
STEP = 10**STEP_DIGITS
# largest |e| of a config value written with a decimal exponent, as in 1e4400:
# 10**e has e + 1 digits, and 1e3000000 would take seconds to build
MAX_EXPONENT = 10_000


class UsageError(Exception):
    pass


# _ratio_bytes lays a row out as a list of fields: (text, present), the
# constant bytes where the bool array ``present`` holds (None: in every row),
# or a ``_digits`` field of integer values >= 0
DIGIT_GROUP = 4  # digits cut from a number per division


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
    """A field of the decimal digits of integer values >= 0, right-aligned:
    zero-padded to ``width`` digits (values below 10**width), or (None)
    without leading zeros, as wide as the largest value.  Values that fit
    int64 are cut in int64, whatever their dtype."""
    padded = width is not None
    top = 10**width - 1 if padded else int(values.max())
    if not padded:
        width = len(str(top))
    if top < 2**63:
        values = values.astype(np.int64, copy=False)
    return values, present, width, padded


def _signed_fields(v):
    return [(b"-", v < 0), _digits(np.abs(v))]


def _fraction_fields(x, d, present=None):
    """x/d reduced, as str(Fraction(x, d)) writes it, for x >= 0 and d > 0
    (an array or an int): x/g, then /(d/g) unless d/g is 1."""
    g = np.gcd(x, d)
    den = d // g
    shown = den != 1  # false where x = 0, so also where the part is absent
    return [_digits(x // g, present), (b"/", shown), _digits(den, shown)]


def _fixed_fields(x, d, present=None):
    """x/d truncated toward zero to PLACES decimals, for x >= 0 and d > 0:
    the integer part, then two steps of long division, each STEP_DIGITS
    digits long (exact in int64 when d STEP < 2**63)."""
    whole = x // d
    r = (x - whole * d) * STEP
    head = r // d
    tail = (r - head * d) * STEP // d
    return [
        _digits(whole, present), (b".", present),
        _digits(head, present, STEP_DIGITS), _digits(tail, present, STEP_DIGITS),
    ]


def _gaussian_fields(x, y, d, part):
    """(x + i y)/d, d > 0: the real part, '-' where x < 0, then +|y| or -|y|
    and i where y != 0, each part rendered by ``part``; a chunk with no
    y != 0 (every conv table) builds no imaginary fields."""
    real = [(b"-", x < 0), *part(np.abs(x), d)]
    imag = y != 0
    if not imag.any():
        return real
    return real + [(b"+", y > 0), (b"-", y < 0), *part(np.abs(y), d, imag), (b"i", imag)]


def _fill_digits(text, values) -> None:
    """Write the last len(text) decimal digits of integer values >= 0 down
    the rows of the uint8 matrix ``text`` (one column per value),
    DIGIT_GROUP digits per division, looked up in ``_digit_tables``."""
    width, v = len(text), values
    groups = _digit_tables()[0]
    for right in range(width, 0, -DIGIT_GROUP):
        q = v // 10**DIGIT_GROUP
        left = max(right - DIGIT_GROUP, 0)
        group = (v - q * 10**DIGIT_GROUP).astype(np.int64, copy=False)
        digits = groups[group].view(np.uint8).reshape(len(v), DIGIT_GROUP)
        text[left:right] = digits.T[left - right :]
        v = q


def _ratio_bytes(n, kron, re, im, sigma, D: int) -> bytes:
    """CSV bytes of ratio-table rows n, kron, lhs, rhs, ratio, ratio_dec:
    lhs = (re + i im)/D, rhs = sigma, and the ratio lhs/sigma, exact and
    truncated to PLACES decimals, with the sign of sigma moved into its
    numerators.  Rows end in \\r\\n, as csv.writer ends them; no cell needs
    quoting, since each holds only digits and -+/.i.

    The integer steps (gcd, floor division, remainder) run in int64 or on
    Python ints, as ``qseries.exact_sum``, the package's one choice
    between the two, gives re and im, and D |sigma| STEP / 2, which it
    computes: int64 when each is below INT64_CAP, so that D |sigma| STEP,
    which bounds every product of the decimal steps (a remainder below
    D |sigma|, times STEP), is below 2 INT64_CAP <= 2**63.  A field of
    Python ints whose values fit int64 is cut in int64 again.  n, kron and
    sigma are int64 above -2**63 or Python ints, and 0 < D < 2**63.

    Each field of a row gets fixed byte positions, each number's digits
    right-aligned in its field, and a bool matrix keeps the bytes that the
    row shows.  Both matrices are built a field at a time with the rows
    contiguous, then transposed, so that one boolean gather reads all six
    cells of every row, in order, as one ``bytes``."""
    # sigma(n) != 0 wherever p does not divide n: sigma'(n) >= 1 (the
    # divisor 1), and sigma~ = sum_{d | n} psi(d) d is multiplicative, with
    # psi = (p/.) = +-1 at every prime q | n, so each local factor
    # sum_{i <= e} (psi(q) q)**i is 1 mod q, hence nonzero
    assert sigma.all()
    re, im = exact_sum([((1, 0), (re, im))])
    scaled, _ = exact_sum([((D * STEP // 2, 0), (np.abs(sigma), None))])
    sign = np.where(sigma < 0, -1, 1)
    x, y, den = re * sign, im * sign, scaled // (STEP // 2)
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
            if values.dtype == np.int64:
                powers = _digit_tables()[1]
                np.greater_equal(values, powers[len(powers) - width :], out=k)
            else:  # Python ints: from the first digit that is not 0
                np.logical_or.accumulate(t != ord("0"), axis=0, out=k)
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


def load_identity_config(path_or_file) -> Identity:
    """Read the ``configured_identity`` of a JSON config file; a field of
    the wrong type or value raises a ValueError that names it."""
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
    return configured_identity(p, chi, terms, kind, coeffs)


@contextlib.contextmanager
def _output(path: str | None):
    """A text stream for a report: stdout when no path is given, else a
    temporary file beside `path`, renamed into place only once the block
    ends cleanly.  On any exception it is removed and `path` is untouched.
    The report gets the mode ``open(path, "w")`` would give it: that of the
    file it replaces, else 0o666 less the umask (mkstemp's own is 0o600)."""
    if path is None:
        yield sys.stdout
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".farkas-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, mode)
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


def _flat(value) -> object:
    """A csv or text cell: a dict or list as compact JSON, else the value."""
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return value


def render_report(payload: dict, fmt: str, rows: str | None = None) -> str:
    """The report text of ``payload`` in ``fmt``.  ``rows``, when given, is
    the text of the rows already in ``fmt`` (``_poly_rows``), and
    ``payload["rows"]`` is None, holding their place."""
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if rows is None:
            return text
        return text.replace('"rows": null', f'"rows": [\n{rows[:-2]}\n  ]', 1)
    if fmt == "csv":
        if rows is not None:
            return rows
        import csv  # only on this path: it is not loaded at start-up

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
            if key == "rows" and rows is not None:
                lines.append(rows[:-1])
            elif key == "rows":
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


# the verify options that each kind does not read, and the search options
# that each of its two searches does not read: given, they are refused
UNREAD_OPTIONS = {
    "conv": ("config",), "square": ("config",), "farkas": ("p", "chi", "config"),
    "config": ("p", "chi"),
}
UNREAD_SEARCH_OPTIONS = {"--safe-primes": ("nmax",), "--discriminant": ("pmax", "nmax")}


def _refuse_unread(args, names, mode: str) -> None:
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        raise UsageError(f"{' and '.join(given)} cannot be used with {mode}")


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    _check_nmax(args.nmax)
    _refuse_unread(args, UNREAD_OPTIONS[args.kind], f"--kind {args.kind}")
    if args.kind == "farkas":
        report = verify_farkas(args.nmax)
    elif args.kind == "config":
        if args.config is None:
            raise UsageError("--kind config requires --config FILE")
        try:
            identity = load_identity_config(args.config)
        except (OSError, ValueError) as exc:
            raise UsageError(f"bad config file: {exc}")
        report = check_configured_identity(identity, args.nmax)
    else:
        if args.p is None:
            raise UsageError("--p is required for conv/square verification")
        p = _quartic_prime(args.p)
        chi = resolve_character(p, args.chi or "quartic-i")
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
    if args.safe_primes and args.discriminant:
        raise UsageError("--safe-primes and --discriminant are two searches: give one")
    search = "--safe-primes" if args.safe_primes else "--discriminant" if args.discriminant else ""
    if search:
        _refuse_unread(args, UNREAD_SEARCH_OPTIONS[search], search)
    if args.nmax is not None:
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
        rows = dichotomy_scan(args.pmax, nmax=50 if args.nmax is None else args.nmax)
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
    # one numpy byte pass and one write per CSV_CHUNK_ROWS rows: the table
    # text is never held whole, and an unbuffered stdout (PYTHONUNBUFFERED)
    # takes one system call per chunk
    with _output(args.out) as fh:
        fh.write("n,kron,lhs,rhs,ratio,ratio_dec\r\n")
        for lo in range(0, len(report.n), CSV_CHUNK_ROWS):
            chunk = [c[lo : lo + CSV_CHUNK_ROWS] for c in columns]
            fh.write(_ratio_bytes(*chunk, report.denominator).decode("ascii"))
    return EXIT_PASS


# a poly report's rows as render_report writes the row dicts {"k": k,
# "parity": ..., "obstruction": ...}: the csv header, and one row with k left
# as %d, ending in its separator (",\n" between json rows, "\n" between text
# lines), which render_report drops after the last row
POLY_ROWS = {
    "json": ("", '    {\n      "k": %%d,\n      "obstruction": "%(obstruction)s",'
                 '\n      "parity": "%(parity)s"\n    },\n'),
    "csv": ("k,parity,obstruction\r\n", "%%d,%(parity)s,%(obstruction)s\r\n"),
    "text": ("", "  k=%%d parity=%(parity)s obstruction=%(obstruction)s\n"),
}


def _poly_rows(report, fmt: str) -> str:
    """The rows (k, parity, obstruction) of a poly report, k = 0..p-2, in
    ``fmt``: one template per (parity, obstruction), picked for every k by
    numpy from the report's per-order verdicts, and filled with every k by
    one ``%``, so no object is built per row."""
    head, row = POLY_ROWS[fmt]
    templates = [
        row % {"parity": parity, "obstruction": obstruction}
        for obstruction in ("nonzero", "zero") for parity in ("even", "odd")
    ]
    n = report.p - 1
    picks = 2 * report.zero_characters() + np.arange(n) % 2
    return head + "".join(map(templates.__getitem__, picks.tolist())) % tuple(range(n))


def cmd_polynomial(args) -> int:
    t0 = time.perf_counter()
    p = args.p
    if p > MAX_POLY_PRIME:  # checked before any table, as MAX_PRIME is
        raise UsageError(
            f"--p must be at most MAX_POLY_PRIME = {MAX_POLY_PRIME}, the largest p whose"
            f" report (about 0.7 kB per residue) is built, got {p}"
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
        "rows": None,  # rendered by _poly_rows
        "outcome": "pass",
        "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
    }
    write_output(render_report(payload, args.format, _poly_rows(report, args.format)), args.out)
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
    sp.add_argument("--chi", default=None, choices=["quartic-i", "quartic-minus-i"])
    sp.add_argument(
        "--kind", required=True, choices=["conv", "square", "farkas", "config"]
    )
    sp.add_argument("--nmax", type=int, default=2000)
    sp.add_argument("--config", default=None, help="identity config file (JSON)")
    common(sp)

    sp = sub.add_parser("search", help="dichotomy and factorization searches")
    sp.add_argument("--pmax", type=int, default=None)
    sp.add_argument("--nmax", type=int, default=None)
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
    """Move everything tracked so far (about 21 900 objects after `import
    farkas.cli`, whose 69 ms are numpy's 61.5, the stdlib's 5.2 and
    farkas's 2.4) to the permanent generation, which no collection walks:
    CPython's shutdown collections re-walked them on every run, about 28 ms
    of a refutation's process wall time, against about 7 ms in ``main``.
    Once per process (cached): a later in-process call would make its
    caller's pending cyclic garbage permanent too, and
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
