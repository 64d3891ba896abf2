"""Verification and falsification of the Farkas-type convolution identities.

Covers: both identities at desk scale for the quartic characters, the
original mod-3 identity, the finite searches behind the p in {5, 13}
dichotomy (discriminant of the n = 1,2 obstruction, Bernoulli screen for
the squared identity), empirical ratio sweeps for the asymptotic claims,
and verification of configured Hecke-eliminated identities.

Every identity checked here is one ``Identity``, sum_i A_i Conv(n C_i /
B_i) = sum_k c_k s_k(n) with Conv = F or H of chi mod p, and
``check_configured_identity`` runs them all: exact reads of F or H
(``Convolver``) against a linear combination of divisor sums
(``_linear_rhs``), block by block (``_run_verification``).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, lcm
from typing import Optional

import numpy as np

from .characters import DirichletCharacter, canonical_quartic, quadratic_character
from .foundations import (
    PRIMES_CACHED, FrozenRecord, GaussianRational, Record, is_prime, prime_sieve,
)
from .qseries import (
    MAX_FAST_N,
    MAX_PRIME,
    _delta0_numerator,
    bernoulli_B2_psi,
    character_table,
    convolver,
    delta_constant,
    exact_sum,
    kronecker_table,
    sigma_hat_values,
    sigma_prime_values,
    sigma_tilde_values,
)

HALF = Fraction(1, 2)
# a sweep's blocks end at FIRST_BLOCK, 4 FIRST_BLOCK, 16 FIRST_BLOCK, ...
# (``_run_verification``).  The first block is n <= 3: a prime scan reads
# the verdicts of n <= 2 off the obstruction equations (``dichotomy_scan``),
# and a configured identity refuted there stops before its long lookups
FIRST_BLOCK = 4
# the least n to which a sweep sieves its rhs divisor sums (at most nmax).
# It buys no speed: it stays only because perfbench/test_perfbench.py
# asserts sieve_useful_ratio < 0.01 on the ``refute`` workload, whose
# identities fail in the first block, and sieving the rhs to that block's
# end alone reads 1/3 there
RHS_SIEVE_FLOOR = 2048


class IdentityConstants(FrozenRecord):
    """The exact proportionality constants forced by the constant terms."""

    def __init__(
        self, alpha: Fraction, alpha_prime: GaussianRational, beta_prime: GaussianRational
    ):
        self.__dict__.update(alpha=alpha, alpha_prime=alpha_prime, beta_prime=beta_prime)


def _same_modulus(p: int, chi: DirichletCharacter) -> None:
    if chi.p != p:  # its F or H would meet another prime's divisor sums
        raise ValueError(f"chi is a character mod {chi.p}, not mod p = {p}")


@lru_cache(maxsize=2 * PRIMES_CACHED)
def constants_for(p: int, chi: DirichletCharacter) -> IdentityConstants:
    """alpha = |delta_chi(0)|**2 / sigma'(0), alpha' = delta_chi(0)**2 /
    sigma~(0) and beta' = 2 delta_chi(0) - alpha', with sigma'(0) = (p-1)/24
    and sigma~(0) = -B_{2,psi}/4.

    In z = 2p delta_chi(0) = u + iv and B_{2,psi} = b/d they are
    alpha = 6 (u**2 + v**2) / (p**2 (p-1)), alpha' = -d z**2 / (p**2 b) and
    beta' = (p b z + d z**2) / (p**2 b): Gaussian-integer numerators over
    one denominator each, and one Fraction per part.  Cached like the
    other per-prime tables, so both sweeps of a scan share one copy."""
    _same_modulus(p, chi)
    u, v = _delta0_numerator(chi)
    B = bernoulli_B2_psi(p)
    b, d = B.numerator, B.denominator
    zz_re, zz_im = u * u - v * v, 2 * u * v  # z**2
    den = p * p * b
    return IdentityConstants(
        Fraction(6 * (u * u + v * v), p * p * (p - 1)),
        GaussianRational(Fraction(-d * zz_re, den), Fraction(-d * zz_im, den)),
        GaussianRational(
            Fraction(p * b * u + d * zz_re, den), Fraction(p * b * v + d * zz_im, den)
        ),
    )


class VerificationReport(Record):
    def __init__(
        self,
        p: int,
        character: str,
        kind: str,
        nmax: int,
        outcome: str,
        failure_n: Optional[int] = None,
        lhs: Optional[GaussianRational] = None,
        rhs: Optional[GaussianRational] = None,
    ):
        self.p = p
        self.character = character
        self.kind = kind
        self.nmax = nmax
        self.outcome = outcome  # "pass" | "first_failure"
        self.failure_n = failure_n
        self.lhs = lhs
        self.rhs = rhs

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"


class Identity(FrozenRecord):
    """sum_i A_i Conv(n C_i / B_i) = sum_k c_k s_k(n), Conv = H_chi if
    ``use_H`` else F_chi for chi mod p = chi.p, a term 0 where B_i does not
    divide n: ``lhs`` the (A_i, B_i, C_i), ``rhs`` the pairs (c_k, array
    builder of s_k, as ``sigma_prime_values``), ``zero`` the value at n = 0
    (None: checked from n = 1) and ``kind`` the report's label."""

    def __init__(self, chi: DirichletCharacter, use_H: bool, lhs: tuple, rhs: tuple,
                 zero: Optional[GaussianRational], kind: str):
        self.__dict__.update(chi=chi, use_H=use_H, lhs=lhs, rhs=rhs, zero=zero, kind=kind)


def _denominator(*values: Optional[GaussianRational]) -> int:
    """Least common denominator of the real and imaginary parts (None skipped)."""
    return lcm(*(x.denominator for z in values if z is not None for x in (z.re, z.im)))


def _scaled(z: GaussianRational, D: int) -> tuple[int, int]:
    """D * z as an int pair; D must clear the denominators of z."""
    re, im = z.re * D, z.im * D
    assert re.denominator == im.denominator == 1, (z, D)
    return re.numerator, im.numerator


def _linear_rhs(p: int, D: int, terms, nmax: int, constant: Optional[GaussianRational] = None):
    """(lo, hi) -> D * sum_k c_k s_k[n] for n in [lo, hi), as arrays (re, im),
    for ``terms`` of pairs (exact c_k, array builder of the divisor sum s_k
    of p, as ``sigma_prime_values``) and the value ``constant`` at n = 0
    (None: n = 0 is not swept).  D must clear every denominator.  Each
    block first grows the series to its end, at least RHS_SIEVE_FLOOR and
    at most nmax, sieving only the new indices; ``exact_sum`` picks each
    block's dtype."""
    builders = [build for _, build in terms]
    scaled = [_scaled(c, D) for c, _ in terms]
    zero = None if constant is None else _scaled(constant, D)
    series = [np.zeros(1, dtype=np.int64)] * len(builders)

    def rhs(lo: int, hi: int):
        N = min(nmax, max(hi - 1, RHS_SIEVE_FLOOR))
        if N >= len(series[0]):
            series[:] = [build(p, N, s) for build, s in zip(builders, series)]
        blocks = [(c, (s[lo:hi], None)) for c, s in zip(scaled, series)]
        return exact_sum(blocks, zero if lo == 0 else None)

    return rhs


def _run_verification(
    p: int, character: str, kind: str, nmax: int, D: int, lhs_block, rhs_block,
    start: int = 0,
) -> VerificationReport:
    """Compare D * lhs(n) with D * rhs(n) as Gaussian integers for
    n = start..nmax, stopping in the block of the first n where they differ.

    ``lhs_block(lo, hi)``, ``rhs_block(lo, hi)``: (re, im) arrays over
    [lo, hi), int64 or object arrays of Python ints, each exact (see
    ``exact_sum``); only a failing coefficient becomes Python ints.
    Block ends hi run FIRST_BLOCK = 4, 16, 64, ..., and the first hi >=
    nmax is nmax + 1 instead.  The lhs reads a tail of hi coefficients per
    block, so a sweep to N builds tails of 4, 16, ..., 4**k and N + 1
    coefficients, each but the last half its FFT length; the last block
    starts at 4**k with N/4 <= 4**k < N, so no tail is built for a single
    coefficient.  A block [lo, hi) past the first has hi - 1 <= 4 lo, so a
    failure at n >= 1 is found by a block that reads no index past 4 n.
    """
    lo, hi, bad = start, FIRST_BLOCK, None
    while lo <= nmax and bad is None:
        if hi >= nmax:
            hi = nmax + 1
        (lhs_re, lhs_im), (rhs_re, rhs_im) = lhs_block(lo, hi), rhs_block(lo, hi)
        differ = np.flatnonzero((lhs_re != rhs_re) | (lhs_im != rhs_im))
        if len(differ):
            i = int(differ[0])
            bad = lo + i
            lhs, rhs = (int(lhs_re[i]), int(lhs_im[i])), (int(rhs_re[i]), int(rhs_im[i]))
        lo, hi = hi, 4 * hi
    if bad is None:
        return VerificationReport(p, character, kind, nmax, "pass")
    return VerificationReport(
        p, character, kind, nmax, "first_failure", failure_n=bad,
        lhs=GaussianRational(Fraction(lhs[0], D), Fraction(lhs[1], D)),
        rhs=GaussianRational(Fraction(rhs[0], D), Fraction(rhs[1], D)),
    )


# the lhs F(n) or H(n) of the paper's identities and Farkas' original
CONVOLUTION = ((GaussianRational(1), 1, 1),)


def check_configured_identity(identity: Identity, nmax: int) -> VerificationReport:
    """Exact check of ``identity`` for n <= nmax (from n = 1 if ``zero`` is
    None) in D lhs = D rhs, D = lcm(s**2 den(A_i), the rhs's denominators),
    s = 2p; a lookup past MAX_FAST_N is refused before any sieve.  Each
    block reads each term's F(k C) at n = k B through ``numerators``.
    Past the first block, so that a refutation there stops before it, a
    term with B C > 1 slices one read of F(k C), k = 1..nmax // B."""
    reach, b, c = max(((nmax // b) * c, b, c) for _, b, c in identity.lhs)
    if reach > MAX_FAST_N:
        most = min(b * (MAX_FAST_N // c + 1) - 1 for _, b, c in identity.lhs)
        raise ValueError(
            f"--nmax {nmax} makes the lookup (N // B) * C = ({nmax} // {b}) * {c}"
            f" read {'H' if identity.use_H else 'F'}({reach}), past the fast path's"
            f" {MAX_FAST_N}; use --nmax {most} or less"
        )
    conv = convolver(identity.chi)
    s2 = conv.denominator
    D = lcm(s2 * _denominator(*(a for a, _, _ in identity.lhs)),
            _denominator(*(c_k for c_k, _ in identity.rhs), identity.zero))
    terms = [(_scaled(a, D // s2), b, c) for a, b, c in identity.lhs]
    sign, read = (1, conv.H) if identity.use_H else (-1, conv.F)
    lookups = None  # past the first block: term i -> its F(k C), k = 1..nmax // B

    def lhs(lo: int, hi: int):
        nonlocal lookups
        if lookups is None and lo >= FIRST_BLOCK:
            lookups = {i: read(c, (nmax // b) * c + 1, c)
                       for i, (_, b, c) in enumerate(terms) if b * c > 1}
        blocks = []
        for i, (scalar, b, c) in enumerate(terms):
            first, stop = -(-lo // b), -(-hi // b)  # n = k B in [lo, hi) for k in [first, stop)
            if i in (lookups or ()):
                values = [v[first - 1 : stop - 1] for v in lookups[i]]
            else:
                values = conv.numerators(first * c, stop * c, sign, c)
            if b > 1:
                placed = tuple(np.zeros(hi - lo, dtype=v.dtype) for v in values)
                for to, v in zip(placed, values):
                    to[first * b - lo :: b] = v
                values = placed
            blocks.append((scalar, values))
        return exact_sum(blocks)

    rhs = _linear_rhs(identity.chi.p, D, identity.rhs, nmax, identity.zero)
    return _run_verification(
        identity.chi.p, identity.chi.label(), identity.kind, nmax, D, lhs, rhs,
        start=0 if identity.zero is not None else 1,
    )


def verify_id1(
    p: int, nmax: int, chi: Optional[DirichletCharacter] = None
) -> VerificationReport:
    """Exact check of F_chi(n) = alpha * sigma'_p(n) for 0 <= n <= nmax."""
    if chi is None:
        chi = canonical_quartic(p)
    alpha = GaussianRational(constants_for(p, chi).alpha)
    rhs, zero = ((alpha, sigma_prime_values),), alpha * Fraction(p - 1, 24)
    return check_configured_identity(Identity(chi, False, CONVOLUTION, rhs, zero, "conv"), nmax)


def verify_id2(p: int, chi: DirichletCharacter, nmax: int) -> VerificationReport:
    """Exact check of H_chi(n) = alpha' sigma~_p(n) + beta' sigma^_p(n)."""
    const = constants_for(p, chi)
    rhs = ((const.alpha_prime, sigma_tilde_values), (const.beta_prime, sigma_hat_values))
    zero = const.alpha_prime * (-bernoulli_B2_psi(p) / 4)
    return check_configured_identity(Identity(chi, True, CONVOLUTION, rhs, zero, "square"), nmax)


def verify_farkas(nmax: int) -> VerificationReport:
    """The original mod-3 identity in normalized form:
    sum_{j=0}^n delta_F(j) delta_F(n-j) = (1/3) sigma'_3(n),
    with delta_F(0) = 1/6 and sigma'_3(0) = 1/12.
    """
    third = GaussianRational(Fraction(1, 3))
    rhs, chi = ((third, sigma_prime_values),), quadratic_character(3)
    return check_configured_identity(
        Identity(chi, False, CONVOLUTION, rhs, third / 12, "farkas"), nmax
    )


# ---------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------

class AsymptoticReport(Record):
    """The ratio table as arrays over the n <= nmax with p not dividing n.

    lhs(n) = (lhs_re[i] + i lhs_im[i]) / denominator exactly, rhs(n) =
    sigma[i], and the ratio is lhs / rhs.  lhs_re and lhs_im are int64 when
    ``exact_sum`` bounds them below INT64_CAP (every table at p = 29, 37
    and N = 10**6), else object arrays of Python ints; n, kron
    and sigma are int64.  The CLI renders each chunk of rows in one numpy
    byte pass (``cli._ratio_bytes``), in int64 or over Python ints.
    """

    def __init__(
        self,
        p: int,
        character: str,
        kind: str,
        nmax: int,
        n: np.ndarray,
        kron: np.ndarray,
        lhs_re: np.ndarray,
        lhs_im: np.ndarray,
        sigma: np.ndarray,
        denominator: int,
        alpha: Optional[Fraction] = None,
        max_dev_top_decile: Optional[Fraction] = None,
        limit_plus: Optional[GaussianRational] = None,
        limit_minus: Optional[GaussianRational] = None,
        gamma_estimate: Optional[GaussianRational] = None,
        alpha_prime_estimate: Optional[GaussianRational] = None,
    ):
        self.p = p
        self.character = character
        self.kind = kind
        self.nmax = nmax
        self.n = n
        self.kron = kron
        self.lhs_re = lhs_re
        self.lhs_im = lhs_im
        self.sigma = sigma
        self.denominator = denominator
        self.alpha = alpha
        self.max_dev_top_decile = max_dev_top_decile
        self.limit_plus = limit_plus
        self.limit_minus = limit_minus
        self.gamma_estimate = gamma_estimate
        self.alpha_prime_estimate = alpha_prime_estimate


def _tree_sum(terms: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """sum (x + i y)/s over the (x, y, s) of ``terms`` (s != 0), as one such
    triple: summed in pairs, then pairs of pairs, and reduced by
    gcd(x, y, s) at each merge.

    A reduced partial sum's s divides the lcm of its terms' s, so no
    integer outgrows about ell, the lcm of all s, and the work is
    O(log |terms|) levels of such products; an lcm-weighted sum instead
    multiplies every one of the |terms| numerators by a weight of ell's
    size."""
    while len(terms) > 1:
        merged = []
        for (x1, y1, s1), (x2, y2, s2) in zip(terms[::2], terms[1::2]):
            g = gcd(s1, s2)
            w1, w2 = s2 // g, s1 // g
            x, y, s = x1 * w1 + x2 * w2, y1 * w1 + y2 * w2, s1 * w1
            g = gcd(x, y, s)
            merged.append((x // g, y // g, s // g))
        if len(terms) % 2:
            merged.append(terms[-1])
        terms = merged
    return terms[0]


def asymptotic_report(
    p: int, chi: DirichletCharacter, kind: str, nmax: int
) -> AsymptoticReport:
    """Ratio sweep over n <= nmax with p not dividing n.

    'conv' tabulates F(n)/sigma'(n) and the max deviation from alpha over
    the top decile.  'square' tabulates H(n)/sigma~(n), estimates the
    subsequence limits L+ and L- for Kronecker symbol +1 / -1 as top-decile
    averages, and reports gamma = (L+ - L-)/2 and alpha' = (L+ + L-)/2.
    The table stays in integer arrays, and so do the top-decile statistics
    until each is one exact Fraction: no Fraction is built per row.
    """
    _same_modulus(p, chi)
    if kind == "conv":
        c, sigma_values = -1, sigma_prime_values
    elif kind == "square":
        c, sigma_values = 1, sigma_tilde_values
    else:
        raise ValueError(f"unknown asymptotic kind {kind!r}")
    conv = convolver(chi)
    re, im = conv.numerators(0, nmax + 1, c)
    n = np.arange(1, nmax + 1, dtype=np.int64)
    n = n[n % p != 0]
    kron = kronecker_table(p)  # (p/n) = kron[n % p]
    D = conv.denominator
    report = AsymptoticReport(
        p, chi.label(), kind, nmax, n, kron[n % p], re[n], im[n],
        sigma_values(p, nmax)[n], D,
    )
    decile_lo = nmax - (nmax // 10)
    top = n >= decile_lo
    top_re, top_sigma = report.lhs_re[top].tolist(), report.sigma[top].tolist()

    if kind == "conv":
        if np.count_nonzero(report.lhs_im):
            raise AssertionError("conv ratio must be real")
        report.alpha = constants_for(p, chi).alpha
        a, b = report.alpha.numerator, report.alpha.denominator
        # |x/(D s) - a/b| = |b x - a D s| / (b D |s|): keep the largest
        # quotient dev/den by cross-multiplying, the common b D left out
        dev, den = 0, 1
        for x, s in zip(top_re, top_sigma):
            d = abs(b * x - a * D * s)
            if d * den > dev * abs(s):
                dev, den = d, abs(s)
        report.max_dev_top_decile = Fraction(dev, b * D * den)
        return report

    top_rows = list(zip(report.kron[top].tolist(), top_re, report.lhs_im[top].tolist(), top_sigma))
    limits = {}
    for k in (1, -1):
        bucket = [(x, y, s) for kk, x, y, s in top_rows if kk == k]
        if not bucket:
            raise ValueError(
                f"no n in the top decile {decile_lo}..{nmax} with Kronecker "
                f"symbol {k:+d} at p = {p}; try a larger --nmax"
            )
        # the mean of (x + i y)/(D s): the sum of the (x + i y)/s over D |bucket|
        sum_re, sum_im, den = _tree_sum(bucket)
        den *= D * len(bucket)
        limits[k] = GaussianRational(Fraction(sum_re, den), Fraction(sum_im, den))
    report.limit_plus, report.limit_minus = limits[1], limits[-1]
    report.gamma_estimate = (limits[1] - limits[-1]) / Fraction(2)
    report.alpha_prime_estimate = (limits[1] + limits[-1]) / Fraction(2)
    return report


# ---------------------------------------------------------------------
# configured (Hecke-eliminated) identities
# ---------------------------------------------------------------------

def resolve_character(p: int, selector: str) -> DirichletCharacter:
    if selector == "quartic-i":
        return canonical_quartic(p, +1)
    if selector == "quartic-minus-i":
        return canonical_quartic(p, -1)
    raise ValueError(f"unknown character selector {selector!r}")


def configured_identity(
    p: int, selector: str, terms: tuple, rhs_kind: str, coefficients: tuple
) -> Identity:
    """A config's ``Identity``, checked from n = 1: F = c sigma' ("sigma_prime")
    or H = c1 sigma~ + c2 sigma^ ("tilde_hat") over the ``terms`` (A_i, B_i,
    C_i).  p is checked before chi's tables are built, and the builders are
    read from the module per call, so a wrapper rebound there sees them."""
    if p > MAX_PRIME:
        raise ValueError(
            f"modulus {p} is past MAX_PRIME = {MAX_PRIME}, the largest p whose"
            " tables are built"
        )
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if not terms:
        raise ValueError("at least one term required")
    for a, b, c in terms:
        if b < 1 or c < 1:
            raise ValueError(f"B and C must be positive integers, got ({b}, {c})")
    if rhs_kind == "sigma_prime":
        builders, takes = (sigma_prime_values,), "one coefficient"
    elif rhs_kind == "tilde_hat":
        builders, takes = (sigma_tilde_values, sigma_hat_values), "two coefficients"
    else:
        raise ValueError(f"unknown rhs kind {rhs_kind!r}")
    if len(coefficients) != len(builders):
        raise ValueError(f"{rhs_kind} rhs takes exactly {takes}")
    return Identity(
        resolve_character(p, selector), rhs_kind == "tilde_hat", tuple(terms),
        tuple(zip(coefficients, builders)), None, f"config:{rhs_kind}",
    )


# ---------------------------------------------------------------------
# finite searches / obstructions
# ---------------------------------------------------------------------

class DiscriminantSolution(FrozenRecord):
    def __init__(self, factor_pair: tuple[int, int], p: int, x: int):
        self.__dict__.update(factor_pair=factor_pair, p=p, x=x)


def discriminant_search() -> list[DiscriminantSolution]:
    """Solve (p+23)**2 - 720 = x**2 over factorizations of 720.

    Each factor pair a*b = 720 with a >= b and a = b (mod 2) gives
    p = (a+b)/2 - 23 and x = (a-b)/2; keep p prime with p = 5 (mod 8).
    """
    out = []
    for b in range(1, 27):
        if 720 % b != 0:
            continue
        a = 720 // b
        if a < b or (a - b) % 2 != 0:
            continue
        p = (a + b) // 2 - 23
        x = (a - b) // 2
        if p >= 2 and p % 8 == 5 and is_prime(p):
            out.append(DiscriminantSolution((a, b), p, x))
    return out


def _times(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The product of two Gaussian integers, each an int pair (re, im)."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


class Obstruction1Report(Record):
    def __init__(
        self, p: int, consistent: bool, eq_n1_holds: bool, eq_n2_holds: bool, z: tuple[int, int]
    ):
        self.p = p
        self.consistent = consistent
        self.eq_n1_holds = eq_n1_holds
        self.eq_n2_holds = eq_n2_holds
        self.z = z  # 2p delta_chi(0) as (re, im)


def obstruction_id1(p: int) -> Obstruction1Report:
    """The n in {1, 2} consistency equations for the convolution identity.

    With L = 2 delta_chi(0), the identity at n = 1 forces
    (p-1)/6 * Re(L) = |L|^2 and at n = 2 forces
    (p-1)/18 * (Re(L) + s*Im(L) + 1) = |L|^2 where chi(2) = s*i.  With
    z = p L = 2p delta_chi(0) = u + iv, a Gaussian integer, times 6 p**2
    and 18 p**2 these are (p-1) p u = 6 (u**2 + v**2) and
    (p-1) p (u + s v + p) = 18 (u**2 + v**2): decided in integers.
    """
    chi = canonical_quartic(p)
    u, v = _delta0_numerator(chi)
    norm = u * u + v * v
    eq1 = (p - 1) * p * u == 6 * norm
    s = 1  # canonical chi has chi(2) = +i
    eq2 = (p - 1) * p * (u + s * v + p) == 18 * norm
    return Obstruction1Report(p, eq1 and eq2, eq1, eq2, (u, v))


class Branch(FrozenRecord):
    def __init__(
        self,
        chi3: GaussianRational,
        implied_delta0: Optional[GaussianRational],
        implied_B: Optional[GaussianRational],
        admissible: bool,
    ):
        self.__dict__.update(
            chi3=chi3, implied_delta0=implied_delta0, implied_B=implied_B, admissible=admissible
        )


class Obstruction2Report(Record):
    def __init__(
        self,
        p: int,
        accepted: bool,
        quad_eq_holds: bool,
        combined_eq_holds: bool,
        actual_delta0: GaussianRational,
        actual_B: Fraction,
        branches: Optional[list[Branch]] = None,
    ):
        self.p = p
        self.accepted = accepted
        self.quad_eq_holds = quad_eq_holds
        self.combined_eq_holds = combined_eq_holds
        self.actual_delta0 = actual_delta0
        self.actual_B = actual_B
        self.branches = [] if branches is None else branches


def _implied_bernoulli(x2: GaussianRational, d0: GaussianRational):
    denom = x2 * d0 + HALF
    if denom.is_zero():
        return None
    return d0 * d0 * 4 / denom


@lru_cache(maxsize=None)
def _branches(x2: GaussianRational) -> tuple[Branch, ...]:
    """The four chi(3) branches of the combined n = 3 equation: each depends
    on chi(2) alone, so they are solved once per value of chi(2)."""
    branches = []
    for chi3 in (GaussianRational(Fraction(1)), GaussianRational(Fraction(-1)),
                 GaussianRational(Fraction(0), Fraction(1)),
                 GaussianRational(Fraction(0), Fraction(-1))):
        psi3 = chi3 * chi3
        # combined equation as A*delta0 = C
        coeff = (1 + chi3) * 2 + x2 * (1 + psi3 * 3) - (2 + x2) * (3 + psi3)
        const = (
            -HALF * (1 + psi3 * 3)
            + HALF * (3 + psi3)
            - (1 + x2) * 2
        )
        if coeff.is_zero():
            branches.append(Branch(chi3, None, None, False))
            continue
        implied_d0 = const / coeff
        implied_B = _implied_bernoulli(x2, implied_d0)
        admissible = (
            implied_B is not None
            and implied_B.is_real()
            and implied_B.re <= 4
        )
        branches.append(Branch(chi3, implied_d0, implied_B, admissible))
    return tuple(branches)


def obstruction_id2(p: int, chi: Optional[DirichletCharacter] = None) -> Obstruction2Report:
    """Bernoulli screen for the squared identity at n in {2, 3}.

    The n = 2 equation is delta0**2 / (-B/4) = -chi(2) delta0 - 1/2; the
    n = 3 equation, with that substituted, pins delta0 linearly for each
    of the four possible values of chi(3).  A branch is admissible when
    the implied B_{2,psi} is rational and at most 4; the verdict checks
    both equations against the actual exact values.

    The verdict is decided in Gaussian integers, from z = 2p delta0 and
    B = b/d: the n = 2 equation, times -B/4 and then 8 p**2 d, is
    2 d z**2 = b p (chi(2) z + p) (B > 0: both factors are nonzero),
    and the n = 3 equation
        2 (1 + chi(3)) delta0 + 2 (1 + chi(2))
          = (-chi(2) delta0 - 1/2)(1 + 3 psi(3))
            + ((2 + chi(2)) delta0 + 1/2)(3 + psi(3)),
    psi(3) = chi(3)**2 = +-1, times 2p is
        2 (1 + chi(3)) z + 4p (1 + chi(2))
          = (-chi(2) z - p)(1 + 3 psi(3)) + ((2 + chi(2)) z + p)(3 + psi(3)).
    """
    if chi is None:
        chi = canonical_quartic(p)
    _same_modulus(p, chi)
    B = bernoulli_B2_psi(p)  # p = 1 (mod 4), so p > 3: chi(3) is in the table
    b, d = B.numerator, B.denominator
    u, v = z = _delta0_numerator(chi)
    re, im = character_table(chi)
    x2, x3 = (int(re[2]), int(im[2])), (int(re[3]), int(im[3]))

    zz, x2z = _times(z, z), _times(x2, z)
    quad_eq = (2 * d * zz[0], 2 * d * zz[1]) == (b * p * (x2z[0] + p), b * p * x2z[1])

    psi3 = x3[0] ** 2 - x3[1] ** 2  # chi(3)**2, real for chi(3) in {+-1, +-i}
    x3z = _times((1 + x3[0], x3[1]), z)
    lhs3 = (2 * x3z[0] + 4 * p * (1 + x2[0]), 2 * x3z[1] + 4 * p * x2[1])
    rhs3 = (
        (-x2z[0] - p) * (1 + 3 * psi3) + (2 * u + x2z[0] + p) * (3 + psi3),
        -x2z[1] * (1 + 3 * psi3) + (2 * v + x2z[1]) * (3 + psi3),
    )
    combined_eq = lhs3 == rhs3

    return Obstruction2Report(
        p, quad_eq and combined_eq, quad_eq, combined_eq, delta_constant(chi), B,
        list(_branches(GaussianRational(*x2))),
    )


def quartic_primes(pmax: int) -> list[int]:
    """All primes p = 5 (mod 8) with p <= pmax, read off one ``prime_sieve``
    of pmax + 1 bytes (about 8 MiB at MAX_PRIME) rather than tested one
    candidate at a time."""
    sieve = prime_sieve(max(pmax, 0))
    return (np.flatnonzero(sieve[5::8]) * 8 + 5).tolist()


class DichotomyRow(Record):
    def __init__(
        self,
        p: int,
        id1_pass: bool,
        id1_failure_n: Optional[int],
        id2_pass: bool,
        id2_failure_n: Optional[int],
        obstruction1_consistent: bool,
        obstruction2_accepted: bool,
    ):
        self.p = p
        self.id1_pass = id1_pass
        self.id1_failure_n = id1_failure_n
        self.id2_pass = id2_pass
        self.id2_failure_n = id2_failure_n
        self.obstruction1_consistent = obstruction1_consistent
        self.obstruction2_accepted = obstruction2_accepted


def _verdict(first: Optional[int], nmax: int, sweep) -> tuple[bool, Optional[int]]:
    """(passed, failure_n) of an identity checked to nmax whose first failure
    at n <= 2 is ``first``, or, when n <= 2 all hold (``first`` None), of
    its ``sweep()``."""
    if first is None:
        report = sweep()
        return report.passed, report.failure_n
    return (True, None) if first > nmax else (False, first)


def dichotomy_scan(pmax: int, nmax: int = 50) -> list[DichotomyRow]:
    """Dichotomy sweep over primes p = 5 (mod 8) up to pmax: both identities
    of the canonical quartic chi checked to nmax, with the verdicts of
    ``verify_id1`` and ``verify_id2``, and both obstructions.

    The obstructions decide n <= 2 of both identities, as the sweeps do:
    - F(0) = alpha sigma'(0), H(0) = alpha' sigma~(0) and H(1) = alpha' +
      beta' = 2 delta_chi(0) hold by the definitions of alpha, alpha' and
      beta' (sigma~(1) = sigma^(1) = 1, and H(1) = 2 delta_chi(0)
      delta_chi(1));
    - ``eq_n1`` and ``eq_n2`` of ``obstruction_id1`` are F(1) = alpha and
      F(2) = 3 alpha (sigma'(1) = 1, sigma'(2) = 3), each times a nonzero
      factor;
    - ``quad_eq`` of ``obstruction_id2`` is H(2) = -alpha' + beta', because
      p = 5 (mod 8) makes (p/2) = -1, so sigma~(2) = 1 - 2 = -1 and
      sigma^(2) = 2 - 1 = 1.
    So F first fails at 1 unless eq_n1 holds, else at 2 unless eq_n2
    holds, and H at 2 unless quad_eq holds; a first failure past nmax
    reads pass.  An identity that holds at every n <= 2 (both, at p = 5
    and 13 only below 20 000) runs its sweep from n = 0 at once, while the
    per-prime caches still hold its prime's tables, so the scan holds no
    O(p) array past its prime.
    """
    rows = []
    for p in quartic_primes(pmax):
        chi = canonical_quartic(p)
        ob1, ob2 = obstruction_id1(p), obstruction_id2(p, chi)
        f_first = 1 if not ob1.eq_n1_holds else 2 if not ob1.eq_n2_holds else None
        h_first = None if ob2.quad_eq_holds else 2
        rows.append(DichotomyRow(
            p,
            *_verdict(f_first, nmax, partial(verify_id1, p, nmax, chi)),
            *_verdict(h_first, nmax, partial(verify_id2, p, chi, nmax)),
            ob1.consistent, ob2.accepted,
        ))
    return rows
