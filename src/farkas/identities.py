"""Verification and falsification of the Farkas-type convolution identities.

Covers: both identities at desk scale for the quartic characters, the
original mod-3 identity, the finite searches behind the p in {5, 13}
dichotomy (discriminant of the n = 1,2 obstruction, Bernoulli screen for
the squared identity), empirical ratio sweeps for the asymptotic claims,
and verification of configured Hecke-eliminated identities.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Optional

from .characters import DirichletCharacter, canonical_quartic, quadratic_character, quartic_pair
from .foundations import GaussianRational, is_prime, kronecker
from .qseries import (
    Convolver,
    QSeries,
    bernoulli_B2_psi,
    convolver,
    delta_constant,
    delta_series,
    sigma_hat_series,
    sigma_hat_values,
    sigma_prime_series,
    sigma_prime_values,
    sigma_tilde_series,
    sigma_tilde_values,
)

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class IdentityConstants:
    """The exact proportionality constants forced by the constant terms."""

    alpha: Fraction
    alpha_prime: GaussianRational
    beta_prime: GaussianRational


def constants_for(p: int, chi: DirichletCharacter) -> IdentityConstants:
    d0 = delta_constant(chi)
    alpha = d0.norm_sq() / Fraction(p - 1, 24)
    tilde0 = -bernoulli_B2_psi(p) / 4
    alpha_prime = d0 * d0 / tilde0
    beta_prime = d0 * 2 - alpha_prime
    return IdentityConstants(alpha, alpha_prime, beta_prime)


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
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"

    def to_dict(self) -> dict:
        out = {
            "p": self.p,
            "character": self.character,
            "kind": self.kind,
            "nmax": self.nmax,
            "outcome": self.outcome,
        }
        if self.failure_n is not None:
            out["first_failure"] = {
                "n": self.failure_n,
                "lhs": str(self.lhs),
                "rhs": str(self.rhs),
            }
        out["elapsed_ms"] = self.elapsed_ms
        return out


GaussianInt = tuple[int, int]


def _denominator(*values: GaussianRational) -> int:
    """Least common denominator of the real and imaginary parts."""
    return lcm(*(x.denominator for z in values for x in (z.re, z.im)))


def _scaled(z: GaussianRational, D: int) -> GaussianInt:
    """D * z as an int pair; D must clear the denominators of z."""
    re, im = z.re * D, z.im * D
    assert re.denominator == im.denominator == 1, (z, D)
    return re.numerator, im.numerator


def _linear_rhs(D: int, terms, constant: Optional[GaussianRational] = None):
    """n -> D * sum_k c_k s_k[n] as an int pair, for exact c_k and int64
    arrays s_k; ``constant`` is the value at n = 0 (None: not swept)."""
    scaled = [(_scaled(c, D), s) for c, s in terms]
    at_zero = None if constant is None else _scaled(constant, D)

    def rhs(n: int) -> GaussianInt:
        if n == 0:
            return at_zero
        re = im = 0
        for (cr, ci), s in scaled:
            v = int(s[n])
            re += cr * v
            im += ci * v
        return re, im

    return rhs


def _run_verification(
    p: int, character: str, kind: str, nmax: int, D: int,
    lhs_fn: Callable[[int], GaussianInt], rhs_fn: Callable[[int], GaussianInt],
    start: int = 0,
) -> VerificationReport:
    """Compare D * lhs(n) with D * rhs(n) as Gaussian integers for
    n = start..nmax, stopping at the first n where they differ."""
    t0 = time.perf_counter()
    bad = next((n for n in range(start, nmax + 1) if lhs_fn(n) != rhs_fn(n)), None)
    elapsed = (time.perf_counter() - t0) * 1000.0
    if bad is None:
        return VerificationReport(p, character, kind, nmax, "pass", elapsed_ms=elapsed)
    lhs, rhs = lhs_fn(bad), rhs_fn(bad)
    return VerificationReport(
        p, character, kind, nmax, "first_failure", failure_n=bad,
        lhs=GaussianRational(Fraction(lhs[0], D), Fraction(lhs[1], D)),
        rhs=GaussianRational(Fraction(rhs[0], D), Fraction(rhs[1], D)),
        elapsed_ms=elapsed,
    )


def _verify_product(
    p: int, chi: DirichletCharacter, kind: str, nmax: int,
    product: Callable, terms: list, constant: GaussianRational,
) -> VerificationReport:
    """Check product(n) = sum_k c_k s_k[n] for 0 <= n <= nmax, where product
    is Convolver.F or .H of chi and ``constant`` is the rhs at n = 0."""
    conv = convolver(chi)
    conv.ensure(nmax)
    D = lcm(conv.denominator, _denominator(*(c for c, _ in terms), constant))
    return _run_verification(
        p, chi.label(), kind, nmax, D,
        lambda n: product(conv, n, D), _linear_rhs(D, terms, constant),
    )


def verify_id1(
    p: int, nmax: int, chi: Optional[DirichletCharacter] = None
) -> VerificationReport:
    """Exact check of F_chi(n) = alpha * sigma'_p(n) for 0 <= n <= nmax."""
    if chi is None:
        chi = canonical_quartic(p)
    alpha = GaussianRational(constants_for(p, chi).alpha)
    terms = [(alpha, sigma_prime_values(p, nmax))]
    return _verify_product(
        p, chi, "conv", nmax, Convolver.F, terms, alpha * Fraction(p - 1, 24)
    )


def verify_id2(p: int, chi: DirichletCharacter, nmax: int) -> VerificationReport:
    """Exact check of H_chi(n) = alpha' sigma~_p(n) + beta' sigma^_p(n)."""
    c = constants_for(p, chi)
    terms = [
        (c.alpha_prime, sigma_tilde_values(p, nmax)),
        (c.beta_prime, sigma_hat_values(p, nmax)),
    ]
    constant = c.alpha_prime * (-bernoulli_B2_psi(p) / 4)
    return _verify_product(p, chi, "square", nmax, Convolver.H, terms, constant)


def verify_farkas(nmax: int) -> VerificationReport:
    """The original mod-3 identity in normalized form:
    sum_{j=0}^n delta_F(j) delta_F(n-j) = (1/3) sigma'_3(n),
    with delta_F(0) = 1/6 and sigma'_3(0) = 1/12.
    """
    third = GaussianRational(Fraction(1, 3))
    terms = [(third, sigma_prime_values(3, nmax))]
    return _verify_product(
        3, quadratic_character(3), "farkas", nmax, Convolver.F, terms,
        third * Fraction(1, 12),
    )


def residual_series(
    p: int,
    chi: DirichletCharacter,
    kind: str,
    N: int,
    subtract_hat: bool = False,
) -> QSeries:
    """Exact lhs - rhs coefficient series.

    kind 'conv' subtracts alpha * sigma'; kind 'square' subtracts
    alpha' * sigma~ (and additionally beta' * sigma^ when subtract_hat
    is set, which for p in {5, 13} leaves the zero series).
    """
    consts = constants_for(p, chi)
    if kind == "conv":
        lhs = delta_series(chi, N) * delta_series(chi.conj(), N)
        rhs = sigma_prime_series(p, N).scale(consts.alpha)
    elif kind == "square":
        d = delta_series(chi, N)
        lhs = d * d
        rhs = sigma_tilde_series(p, N).scale(consts.alpha_prime)
        if subtract_hat:
            lhs = lhs - sigma_hat_series(p, N).scale(consts.beta_prime)
    else:
        raise ValueError(f"unknown residual kind {kind!r}")
    return lhs - rhs


# ---------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------

@dataclass
class RatioRow:
    n: int
    kron: int
    lhs: GaussianRational
    rhs: GaussianRational
    ratio: GaussianRational


@dataclass
class AsymptoticReport:
    p: int
    character: str
    kind: str
    nmax: int
    rows: list[RatioRow]
    alpha: Optional[Fraction] = None
    max_dev_top_decile: Optional[Fraction] = None
    limit_plus: Optional[GaussianRational] = None
    limit_minus: Optional[GaussianRational] = None
    gamma_estimate: Optional[GaussianRational] = None
    alpha_prime_estimate: Optional[GaussianRational] = None


def asymptotic_report(
    p: int, chi: DirichletCharacter, kind: str, nmax: int
) -> AsymptoticReport:
    """Ratio sweep over n <= nmax with p not dividing n.

    'conv' tabulates F(n)/sigma'(n) and the max deviation from alpha over
    the top decile.  'square' tabulates H(n)/sigma~(n), estimates the
    subsequence limits L+ and L- for Kronecker symbol +1 / -1 as top-decile
    averages, and reports gamma = (L+ - L-)/2 and alpha' = (L+ + L-)/2.
    """
    conv = convolver(chi)
    conv.ensure(nmax)
    consts = constants_for(p, chi)
    rows: list[RatioRow] = []
    decile_lo = nmax - (nmax // 10)

    if kind == "conv":
        sp = sigma_prime_values(p, nmax)
        max_dev = Fraction(0)
        for n in range(1, nmax + 1):
            if n % p == 0:
                continue
            lhs = conv.F(n)
            rhs = GaussianRational(Fraction(int(sp[n])))
            ratio = lhs / rhs
            rows.append(RatioRow(n, kronecker(p, n), lhs, rhs, ratio))
            if n >= decile_lo:
                dev = abs(ratio.re - consts.alpha)
                if ratio.im != 0:
                    raise AssertionError("conv ratio must be real")
                max_dev = max(max_dev, dev)
        return AsymptoticReport(
            p, chi.label(), kind, nmax, rows,
            alpha=consts.alpha, max_dev_top_decile=max_dev,
        )

    if kind == "square":
        st = sigma_tilde_values(p, nmax)
        buckets: dict[int, list[GaussianRational]] = {1: [], -1: []}
        for n in range(1, nmax + 1):
            if n % p == 0:
                continue
            lhs = conv.H(n)
            rhs = GaussianRational(Fraction(int(st[n])))
            ratio = lhs / rhs
            k = kronecker(p, n)
            rows.append(RatioRow(n, k, lhs, rhs, ratio))
            if n >= decile_lo:
                buckets[k].append(ratio)

        l_plus, l_minus = (
            sum(b, GaussianRational()) / len(b) for b in (buckets[1], buckets[-1])
        )
        return AsymptoticReport(
            p, chi.label(), kind, nmax, rows,
            limit_plus=l_plus, limit_minus=l_minus,
            gamma_estimate=(l_plus - l_minus) / Fraction(2),
            alpha_prime_estimate=(l_plus + l_minus) / Fraction(2),
        )

    raise ValueError(f"unknown asymptotic kind {kind!r}")


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
    from .foundations import primitive_root

    if selector == "quartic-i":
        return canonical_quartic(p, +1)
    if selector == "quartic-minus-i":
        return canonical_quartic(p, -1)
    if selector == "generator":
        return DirichletCharacter(p, primitive_root(p), 1)
    raise ValueError(f"unknown character selector {selector!r}")


def check_configured_identity(
    cfg: ConfiguredIdentity, nmax: int
) -> VerificationReport:
    """Exact check of the configured identity for 1 <= n <= nmax."""
    chi = resolve_character(cfg.p, cfg.chi_selector)
    conv = convolver(chi)
    use_H = cfg.rhs_kind == "tilde_hat"
    conv.ensure(max(1, *((nmax // b) * c for _, b, c in cfg.terms)))

    # D * A_i * F(m) = (D * A_i / s**2) * (s**2 F(m)), with s**2 F(m) integral
    s2 = conv.denominator
    D = lcm(
        s2 * _denominator(*(a for a, _, _ in cfg.terms)),
        _denominator(*cfg.rhs_coefficients),
    )
    terms = [(_scaled(a, D // s2), b, c) for a, b, c in cfg.terms]
    single = conv.H if use_H else conv.F

    def lhs(n: int) -> GaussianInt:
        re = im = 0
        for (ar, ai), b, c in terms:
            if n % b == 0:
                fr, fi = single((n // b) * c, s2)
                re += ar * fr - ai * fi
                im += ar * fi + ai * fr
        return re, im

    if use_H:
        series = [sigma_tilde_values(cfg.p, nmax), sigma_hat_values(cfg.p, nmax)]
    else:
        series = [sigma_prime_values(cfg.p, nmax)]
    rhs = _linear_rhs(D, zip(cfg.rhs_coefficients, series))

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


@dataclass
class Obstruction1Report:
    p: int
    consistent: bool
    eq_n1_holds: bool
    eq_n2_holds: bool
    L: GaussianRational


def obstruction_id1(p: int) -> Obstruction1Report:
    """The n in {1, 2} consistency equations for the convolution identity.

    With L = 2 delta_chi(0), the identity at n = 1 forces
    (p-1)/6 * Re(L) = |L|^2 and at n = 2 forces
    (p-1)/18 * (Re(L) + s*Im(L) + 1) = |L|^2 where chi(2) = s*i.
    """
    chi = canonical_quartic(p)
    L = delta_constant(chi) * 2
    norm = L.norm_sq()
    eq1 = Fraction(p - 1, 6) * L.re == norm
    s = 1  # canonical chi has chi(2) = +i
    eq2 = Fraction(p - 1, 18) * (L.re + s * L.im + 1) == norm
    return Obstruction1Report(p, eq1 and eq2, eq1, eq2, L)


@dataclass
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


def obstruction_id2(p: int, chi: Optional[DirichletCharacter] = None) -> Obstruction2Report:
    """Bernoulli screen for the squared identity at n in {2, 3}.

    The n = 2 equation is delta0**2 / (-B/4) = -chi(2) delta0 - 1/2; the
    n = 3 equation, with that substituted, pins delta0 linearly for each
    of the four possible values of chi(3).  A branch is admissible when
    the implied B_{2,psi} is rational and at most 4; the verdict checks
    both equations against the actual exact values.
    """
    if chi is None:
        chi = canonical_quartic(p)
    d0 = delta_constant(chi)
    x2 = chi.value(2)
    x3 = chi.value(3)
    B = bernoulli_B2_psi(p)
    tilde0 = GaussianRational(-B / 4)

    quad_eq = d0 * d0 / tilde0 == -x2 * d0 - HALF

    def combined_sides(chi3, delta0):
        psi3 = chi3 * chi3
        lhs = (1 + chi3) * delta0 * 2 + (1 + x2) * 2
        rhs = (-x2 * delta0 - HALF) * (1 + psi3 * 3) + (
            delta0 * 2 + x2 * delta0 + HALF
        ) * (3 + psi3)
        return lhs, rhs

    lhs3, rhs3 = combined_sides(x3, d0)
    combined_eq = lhs3 == rhs3

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

    return Obstruction2Report(
        p, quad_eq and combined_eq, quad_eq, combined_eq, d0, B, branches
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


def dichotomy_scan(pmax: int, nmax: int = 50) -> list[DichotomyRow]:
    """Dichotomy sweep over primes p = 5 (mod 8) up to pmax."""
    rows = []
    for p in quartic_primes(pmax):
        chi = canonical_quartic(p)
        r1 = verify_id1(p, nmax, chi)
        r2 = verify_id2(p, chi, nmax)
        rows.append(
            DichotomyRow(
                p,
                r1.passed,
                r1.failure_n,
                r2.passed,
                r2.failure_n,
                obstruction_id1(p).consistent,
                obstruction_id2(p, chi).accepted,
            )
        )
    return rows
