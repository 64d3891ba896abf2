"""Verification and falsification of the Farkas-type convolution identities.

Covers: both identities at desk scale for the quartic characters, the
original mod-3 identity, the finite searches behind the p in {5, 13}
dichotomy (discriminant of the n = 1,2 obstruction, Bernoulli screen for
the squared identity), empirical ratio sweeps for the asymptotic claims,
and verification of configured Hecke-eliminated identities.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, lcm
from typing import NamedTuple, Optional

import numpy as np

from .characters import DirichletCharacter, canonical_quartic, quadratic_character, quartic_pair
from .foundations import PRIMES_CACHED, GaussianRational, is_prime
from .qseries import (
    MAX_FAST_N,
    MAX_PRIME,
    _delta0_numerator,
    _kronecker_values,
    bernoulli_B2_psi,
    character_table,
    convolver,
    delta_constant,
    exact_sum,
    sigma_hat_values,
    sigma_prime_values,
    sigma_tilde_values,
)

HALF = Fraction(1, 2)
# a sweep's first block is n < FIRST_BLOCK: n <= 2, where a prime scan reads
# both identities' verdicts off the obstruction equations (``dichotomy_scan``)
FIRST_BLOCK = 3
SWEEP_BLOCK = 2048  # most coefficients a sweep compares at once
# a sweep's sieved tables grow at least this many times over, chosen with
# the tail's growth of about 4 (``Convolver.numerators`` rebuilds it to
# 4 lo - 1 within the sieved length): with 4 here, the sieve's 8192 cut
# short the tail that a sweep to N in (8192, 12284] needed, which was then
# built again to N; 8 takes the sieve from 2048 straight to 16384
SIEVE_GROWTH = 8


@dataclass(frozen=True)
class IdentityConstants:
    """The exact proportionality constants forced by the constant terms."""

    alpha: Fraction
    alpha_prime: GaussianRational
    beta_prime: GaussianRational


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
    d0 = delta_constant(chi)
    u, v = int(d0.re * (2 * p)), int(d0.im * (2 * p))
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


@dataclass
class VerificationReport:
    p: int
    character: str
    kind: str
    nmax: int
    outcome: str  # "pass" | "first_failure"
    failure_n: Optional[int] = None
    lhs: Optional[GaussianRational] = None
    rhs: Optional[GaussianRational] = None

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"


def _denominator(*values: GaussianRational) -> int:
    """Least common denominator of the real and imaginary parts."""
    return lcm(*(x.denominator for z in values for x in (z.re, z.im)))


def _scaled(z: GaussianRational, D: int) -> tuple[int, int]:
    """D * z as an int pair; D must clear the denominators of z."""
    re, im = z.re * D, z.im * D
    assert re.denominator == im.denominator == 1, (z, D)
    return re.numerator, im.numerator


def _sieve_reach(hi: int, capacity: int, nmax: int) -> int:
    """How far a sweep to nmax sieves a table that holds n <= ``capacity``
    before it reads the block [lo, hi): not at all while hi - 1 fits, else
    to max(hi - 1, SWEEP_BLOCK, SIEVE_GROWTH * capacity), at most nmax.

    A sweep that stops at n thus sieves O(n + SWEEP_BLOCK) coefficients, and
    one that runs to N sieves each n <= N once, in O(log N) segments."""
    if hi - 1 <= capacity:
        return capacity
    return min(nmax, max(hi - 1, SWEEP_BLOCK, SIEVE_GROWTH * capacity))


def _series(name: str, p: int):
    """``build(N, prefix)``, extending ``prefix`` to the divisor sum
    ``name`` of p at 0..N.  The builders are looked up at each call, so a
    wrapper rebound over this module's names (perfbench's tracer) sees them."""
    values = {
        "sigma_prime": sigma_prime_values,
        "sigma_tilde": sigma_tilde_values,
        "sigma_hat": sigma_hat_values,
    }
    return partial(values[name], p)


class _Rhs(NamedTuple):
    """D sum_k c_k s_k(n) of an identity in integers: the divisor sums s_k
    of p named in ``names`` (``_series``), the int pairs D c_k in
    ``scaled``, and ``zero``, D times the value at n = 0 (None: n = 0 is
    not swept)."""

    p: int
    D: int
    names: tuple
    scaled: tuple
    zero: Optional[tuple]


def _scaled_rhs(p: int, D: int, terms, constant: Optional[GaussianRational] = None) -> _Rhs:
    """The ``_Rhs`` of sum_k c_k s_k for ``terms`` of pairs (c_k, name of
    s_k), exact c_k, and its value ``constant`` at n = 0, scaled by D,
    which must clear every denominator."""
    return _Rhs(
        p, D, tuple(name for _, name in terms), tuple(_scaled(c, D) for c, _ in terms),
        None if constant is None else _scaled(constant, D),
    )


def _linear_rhs(spec: _Rhs, nmax: int):
    """(lo, hi) -> D * sum_k c_k s_k[n] for n in [lo, hi) of ``spec``, as
    arrays (re, im): each block first grows the series to ``_sieve_reach``,
    sieving only the new indices.  ``exact_sum`` picks each block's dtype."""
    builds = [_series(name, spec.p) for name in spec.names]
    series = [np.zeros(1, dtype=np.int64)] * len(builds)

    def rhs(lo: int, hi: int):
        N = _sieve_reach(hi, len(series[0]) - 1, nmax)
        if N >= len(series[0]):
            series[:] = [build(N, s) for build, s in zip(builds, series)]
        blocks = [(c, (s[lo:hi], None)) for c, s in zip(spec.scaled, series)]
        return exact_sum(blocks, spec.zero if lo == 0 else None)

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
    Block ends hi run FIRST_BLOCK = 3, 6, 12, ..., 3072, then grow by
    SWEEP_BLOCK: a failure at n >= 3 is found by hi <= 2n, and no block
    holds more than SWEEP_BLOCK coefficients.
    """
    lo, hi, bad = start, FIRST_BLOCK, None
    while lo <= nmax and bad is None:
        hi = min(hi, nmax + 1)
        (lhs_re, lhs_im), (rhs_re, rhs_im) = lhs_block(lo, hi), rhs_block(lo, hi)
        differ = np.flatnonzero((lhs_re != rhs_re) | (lhs_im != rhs_im))
        if len(differ):
            i = int(differ[0])
            bad = lo + i
            lhs, rhs = (int(lhs_re[i]), int(lhs_im[i])), (int(rhs_re[i]), int(rhs_im[i]))
        lo, hi = hi, hi + min(hi, SWEEP_BLOCK)
    if bad is None:
        return VerificationReport(p, character, kind, nmax, "pass")
    return VerificationReport(
        p, character, kind, nmax, "first_failure", failure_n=bad,
        lhs=GaussianRational(Fraction(lhs[0], D), Fraction(lhs[1], D)),
        rhs=GaussianRational(Fraction(rhs[0], D), Fraction(rhs[1], D)),
    )


def _scales(p: int, terms, constant: GaussianRational) -> tuple[int, _Rhs]:
    """(k, rhs) for an identity F or H = sum_k c_k s_k of a character mod p
    with ``terms`` (c_k, name of s_k) and rhs ``constant`` at n = 0: with D
    the least common multiple of s**2 = (2p)**2 and every denominator of
    the c_k and the constant, a sweep compares D F or D H, which the
    Convolver gives as k s**2 F, k = D / s**2, with the ``_Rhs`` at D."""
    s2 = (2 * p) ** 2
    D = lcm(s2, _denominator(*(c for c, _ in terms), constant))
    return D // s2, _scaled_rhs(p, D, terms, constant)


def _identity(p: int, chi: DirichletCharacter, kind: str) -> tuple[int, int, _Rhs]:
    """(c, k, rhs) of an identity of chi in the integers a sweep compares
    (see ``_scales``): "conv" is F = alpha sigma'_p (c = -1), "square" is
    H = alpha' sigma~_p + beta' sigma^_p (c = 1)."""
    const = constants_for(p, chi)
    if kind == "conv":
        alpha = GaussianRational(const.alpha)
        return -1, *_scales(p, [(alpha, "sigma_prime")], alpha * Fraction(p - 1, 24))
    terms = [(const.alpha_prime, "sigma_tilde"), (const.beta_prime, "sigma_hat")]
    return 1, *_scales(p, terms, const.alpha_prime * (-bernoulli_B2_psi(p) / 4))


def _verify_product(
    p: int, chi: DirichletCharacter, kind: str, nmax: int, c: int, k: int, rhs: _Rhs
) -> VerificationReport:
    """Check D F(n) (c = -1) or D H(n) (c = 1) of chi, read as k s**2 F or
    k s**2 H, against ``rhs`` (at D) for 0 <= n <= nmax.  delta_chi and
    the divisor sums are sieved as the blocks reach them; the cached
    Convolver drops its whole-series tail when the sweep ends."""
    conv = convolver(chi)

    def lhs(lo: int, hi: int):
        conv.extend(_sieve_reach(hi, conv.capacity, nmax))
        return conv.numerators(lo, hi, c, scale=k)

    try:
        return _run_verification(
            p, chi.label(), kind, nmax, rhs.D, lhs, _linear_rhs(rhs, nmax)
        )
    finally:
        conv.release()


def verify_id1(
    p: int, nmax: int, chi: Optional[DirichletCharacter] = None
) -> VerificationReport:
    """Exact check of F_chi(n) = alpha * sigma'_p(n) for 0 <= n <= nmax."""
    if chi is None:
        chi = canonical_quartic(p)
    return _verify_product(p, chi, "conv", nmax, *_identity(p, chi, "conv"))


def verify_id2(p: int, chi: DirichletCharacter, nmax: int) -> VerificationReport:
    """Exact check of H_chi(n) = alpha' sigma~_p(n) + beta' sigma^_p(n)."""
    return _verify_product(p, chi, "square", nmax, *_identity(p, chi, "square"))


def verify_farkas(nmax: int) -> VerificationReport:
    """The original mod-3 identity in normalized form:
    sum_{j=0}^n delta_F(j) delta_F(n-j) = (1/3) sigma'_3(n),
    with delta_F(0) = 1/6 and sigma'_3(0) = 1/12.
    """
    third = GaussianRational(Fraction(1, 3))
    return _verify_product(
        3, quadratic_character(3), "farkas", nmax, -1,
        *_scales(3, [(third, "sigma_prime")], third * Fraction(1, 12)),
    )


# ---------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------

@dataclass
class AsymptoticReport:
    """The ratio table as arrays over the n <= nmax with p not dividing n.

    lhs(n) = (lhs_re[i] + i lhs_im[i]) / denominator exactly, rhs(n) =
    sigma[i], and the ratio is lhs / rhs.  lhs_re and lhs_im are int64 when
    ``exact_sum`` bounds them below INT64_CAP (every table at p = 29, 37
    and N = 10**6), else object arrays of Python ints; n, kron
    and sigma are int64.  The CLI renders chunks of int64 columns in one
    numpy byte pass (``cli._ratio_bytes``) and any other chunk with its
    column builders.
    """

    p: int
    character: str
    kind: str
    nmax: int
    n: np.ndarray
    kron: np.ndarray
    lhs_re: np.ndarray
    lhs_im: np.ndarray
    sigma: np.ndarray
    denominator: int
    alpha: Optional[Fraction] = None
    max_dev_top_decile: Optional[Fraction] = None
    limit_plus: Optional[GaussianRational] = None
    limit_minus: Optional[GaussianRational] = None
    gamma_estimate: Optional[GaussianRational] = None
    alpha_prime_estimate: Optional[GaussianRational] = None


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
    if kind == "conv":
        c, sigma_values = -1, sigma_prime_values
    elif kind == "square":
        c, sigma_values = 1, sigma_tilde_values
    else:
        raise ValueError(f"unknown asymptotic kind {kind!r}")
    conv = convolver(chi)
    re, im = conv.numerators(0, nmax + 1, c)
    conv.release()  # re, im are new arrays: the tail is no longer needed
    n = np.arange(1, nmax + 1, dtype=np.int64)
    n = n[n % p != 0]
    kron = _kronecker_values(p, nmax)  # (p/n) = kron[n % len(kron)]
    D = conv.denominator
    report = AsymptoticReport(
        p, chi.label(), kind, nmax, n, kron[n % len(kron)], re[n], im[n],
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

@dataclass(frozen=True)
class ConfiguredIdentity:
    """One Hecke-eliminated identity: sum_i A_i Conv(n C_i / B_i) = rhs(n)."""

    p: int
    chi_selector: str
    terms: tuple[tuple[GaussianRational, int, int], ...]  # (A_i, B_i, C_i)
    rhs_kind: str  # "sigma_prime" | "tilde_hat"
    rhs_coefficients: tuple[GaussianRational, ...]

    def __post_init__(self):
        if self.p > MAX_PRIME:
            raise ValueError(
                f"modulus {self.p} is past MAX_PRIME = {MAX_PRIME}, the largest p whose"
                " tables are built"
            )
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if not self.terms:
            raise ValueError("at least one term required")
        for a, b, c in self.terms:
            if b < 1 or c < 1:
                raise ValueError(f"B and C must be positive integers, got ({b}, {c})")
        if self.rhs_kind == "sigma_prime":
            if len(self.rhs_coefficients) != 1:
                raise ValueError("sigma_prime rhs takes exactly one coefficient")
        elif self.rhs_kind == "tilde_hat":
            if len(self.rhs_coefficients) != 2:
                raise ValueError("tilde_hat rhs takes exactly two coefficients")
        else:
            raise ValueError(f"unknown rhs kind {self.rhs_kind!r}")


def resolve_character(p: int, selector: str) -> DirichletCharacter:
    if selector == "quartic-i":
        return canonical_quartic(p, +1)
    if selector == "quartic-minus-i":
        return canonical_quartic(p, -1)
    raise ValueError(f"unknown character selector {selector!r}")


def check_configured_identity(
    cfg: ConfiguredIdentity, nmax: int
) -> VerificationReport:
    """Exact check of the configured identity for 1 <= n <= nmax.

    The lookups run to max (nmax // B) C; one past MAX_FAST_N is refused
    before any table is built.  Each term's lookups are one dilated read
    before the sweep, whose tail the cached Convolver then drops."""
    use_H = cfg.rhs_kind == "tilde_hat"
    reach, b, c = max(((nmax // b) * c, b, c) for _, b, c in cfg.terms)
    if reach > MAX_FAST_N:
        most = min(b * (MAX_FAST_N // c + 1) - 1 for _, b, c in cfg.terms)
        raise ValueError(
            f"--nmax {nmax} makes the lookup (N // B) * C = ({nmax} // {b}) * {c}"
            f" read {'H' if use_H else 'F'}({reach}), past the fast path's"
            f" {MAX_FAST_N}; use --nmax {most} or less"
        )
    chi = resolve_character(cfg.p, cfg.chi_selector)
    conv = convolver(chi)

    # D * A_i * F(m) = (D * A_i / s**2) * (s**2 F(m)), with s**2 F(m) integral
    s2 = conv.denominator
    D = lcm(
        s2 * _denominator(*(a for a, _, _ in cfg.terms)),
        _denominator(*cfg.rhs_coefficients),
    )
    read = conv.H if use_H else conv.F
    try:
        # term i looks up F(k C) for k = 1..nmax // B: one dilated read
        lookups = [
            (_scaled(a, D // s2), b, read(c, (nmax // b) * c + 1, c)) for a, b, c in cfg.terms
        ]
    finally:
        conv.release()  # the lookups are new arrays: the tails are no longer needed

    def lhs(lo: int, hi: int):
        # the multiples n = k B in [lo, hi) take F(k C), placed at their n
        # in a block of hi - lo values
        blocks = []
        for scalar, b, values in lookups:
            first, stop = -(-lo // b), -(-hi // b)
            placed = tuple(np.zeros(hi - lo, dtype=v.dtype) for v in values)
            for to, v in zip(placed, values):
                to[first * b - lo :: b] = v[first - 1 : stop - 1]
            blocks.append((scalar, placed))
        return exact_sum(blocks)

    series = ["sigma_tilde", "sigma_hat"] if use_H else ["sigma_prime"]
    rhs = _linear_rhs(_scaled_rhs(cfg.p, D, list(zip(cfg.rhs_coefficients, series))), nmax)

    return _run_verification(
        cfg.p, chi.label(), f"config:{cfg.rhs_kind}", nmax, D, lhs, rhs, start=1
    )


# ---------------------------------------------------------------------
# finite searches / obstructions
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class DiscriminantSolution:
    factor_pair: tuple[int, int]
    p: int
    x: int


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


@dataclass
class Obstruction1Report:
    p: int
    consistent: bool
    eq_n1_holds: bool
    eq_n2_holds: bool
    z: tuple[int, int]  # 2p delta_chi(0) as (re, im)


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


@dataclass(frozen=True)
class Branch:
    chi3: GaussianRational
    implied_delta0: Optional[GaussianRational]
    implied_B: Optional[GaussianRational]
    admissible: bool


@dataclass
class Obstruction2Report:
    p: int
    accepted: bool
    quad_eq_holds: bool
    combined_eq_holds: bool
    actual_delta0: GaussianRational
    actual_B: Fraction
    branches: list[Branch] = field(default_factory=list)


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
    """All primes p = 5 (mod 8) with p <= pmax."""
    return [p for p in range(5, pmax + 1, 8) if is_prime(p)]


@dataclass
class DichotomyRow:
    p: int
    id1_pass: bool
    id1_failure_n: Optional[int]
    id2_pass: bool
    id2_failure_n: Optional[int]
    obstruction1_consistent: bool
    obstruction2_accepted: bool


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
