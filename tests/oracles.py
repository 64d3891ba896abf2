"""Slow, independent oracles that the tests check the package's fast paths
against, and the test-only helpers that no command calls.  Nothing in
``farkas`` imports this module.

Products and tables:
- ``kronecker_product``: the whole-series product by Kronecker
  substitution in libmpdec, O(m log m) through its number-theoretic
  transform and exact by construction.  It shares no code and no
  arithmetic with ``qseries._full_product``'s float64 FFT.
- ``bernoulli_B2_psi_cohen``: Cohen's divisor-sum formula for B_{2,psi},
  against ``qseries.bernoulli_B2_psi``.
- ``discrete_log_walk``: the discrete-log table by one multiplication per
  power of g, against ``foundations.discrete_log_table``.
- ``quartic_primes_walk`` and ``safe_prime_walk``: the prime scans as
  their definitions read, one primality test per candidate, against
  ``identities.quartic_primes`` and ``charpoly.safe_prime_scan``.

Polynomials, over sympy:
- ``f_coefficients_per_j``: f_xi's exponent sums counted one j at a time,
  against ``charpoly.f_poly``.
- ``cyclotomic`` and ``poly_product``: sympy's Phi_d and products, as
  int64 coefficient arrays like ``charpoly``'s f and g, and ``remainder``
  by ``IntPolynomial.divmod_exact``: the division oracles of
  ``charpoly.cyclotomic_zeros``.
- ``divisible_by_xq_plus_1`` and ``coprime_with_xq_minus_1``: sympy's
  remainder and gcd, against ``charpoly.xq_flags``.
- ``zero_sum_check`` and ``zero_sum_is_zero``: the obstruction sum in Q(i)
  from scalar delta coefficients, or as f_chi reduced mod Phi_{p-1}.

Series and scalars:
- ``from_ints`` and the ``sigma_*_series``: the divisor sums as exact
  ``QSeries`` with their constant terms, for the generic Cauchy product.
- ``sigma1``, ``omega``, ``gaussian``, ``parse_gaussian``,
  ``trivial_character`` and ``all_characters``: small helpers the tests
  build their inputs and expectations from.

Configs:
- ``builtin_config_names`` and ``load_builtin_config``: the shipped p = 37
  config files, by name, each loaded by ``cli.load_identity_config``.

``qseries.QSeries``, ``cauchy_product``, ``delta_series``,
``delta_coefficient`` and the scalar ``sigma_prime``, ``sigma_tilde`` and
``sigma_hat`` are oracles too, but stay in ``farkas.qseries`` while the
benchmark's own test imports them from there.
"""
import decimal
from fractions import Fraction
from importlib import resources

import numpy as np
import sympy

from farkas.characters import DirichletCharacter
from farkas.charpoly import IntPolynomial, f_poly, is_safe_prime_shape, reduce_g, two_generates
from farkas.cli import load_identity_config
from farkas.foundations import GaussianRational, _as_fraction, divisors, factorize, is_prime
from farkas.identities import Identity
from farkas.qseries import (
    QSeries, bernoulli_B2_psi, delta_coefficient, sigma_hat_values, sigma_prime_values,
    sigma_tilde_values,
)

# integer arithmetic in libmpdec: a product that would round raises instead
EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.Overflow, decimal.Inexact, decimal.Rounded],
)


def pack(x: np.ndarray, w: int) -> decimal.Decimal:
    """The integer sum_j x[j] 10**(w j), for int64 0 <= x[j] < 10**w."""
    digits = np.empty((len(x), w), dtype=np.uint8)
    v = x[::-1]  # the text starts with the most significant slot
    for k in range(w - 1, -1, -1):
        v, digits[:, k] = np.divmod(v, 10)
    digits += ord("0")
    return EXACT.create_decimal(digits.tobytes().decode("ascii"))


def unpack(z: decimal.Decimal, m: int, w: int) -> np.ndarray:
    """int64 slots 0..m-1 of the integer z = sum_n z_n 10**(w n), 0 <= z_n < 10**w."""
    text = str(z).encode("ascii")
    if len(text) < m * w:
        text = text.rjust(m * w, b"0")
    digits = np.frombuffer(text, dtype=np.uint8)[-m * w:].reshape(m, w)[::-1]
    out = np.zeros(m, dtype=np.int64)
    for k in range(w):  # column by column, most significant digit first
        out *= 10
        out += digits[:, k] - ord("0")
    return out


def kronecker_product(a: np.ndarray, b: np.ndarray, K: int) -> np.ndarray:
    """int64 c[n] = sum_{j=0}^{n} a[j] b[n-j] for n < m = len(a) = len(b),
    by Kronecker substitution, for K = max |a|, |b|.

    x = a + K and y = b + K are non-negative and slot n of the packed
    product is sum_j x[j] y[n-j] <= min(sum x max y, max x sum y): the
    digit count of that bound (or of max x, max y, when it is 0) is the
    slot width w, so every x[j], y[j] fits a slot and no slot carries.
    (a + K)(b + K)[n] = ab[n] + K (A[n] + B[n]) + K**2 (n + 1) with prefix
    sums A, B removes the offset.  Each of those terms is at most m (2K)**2,
    asserted below 2**63.  A square (b is a) packs one operand.
    """
    m = len(a)
    assert m * (2 * K) ** 2 < 2**63, (m, K)
    x = np.add(a, K, dtype=np.int64)  # int64 even from int16 a, b
    y = x if b is a else np.add(b, K, dtype=np.int64)
    xmax, ymax = int(x.max()), int(y.max())
    top = max(min(int(x.sum()) * ymax, xmax * int(y.sum())), xmax, ymax)
    w = len(str(top))
    X = pack(x, w)
    xy = unpack(EXACT.multiply(X, X if y is x else pack(y, w)), m, w)
    A, B = np.cumsum(a, dtype=np.int64), np.cumsum(b, dtype=np.int64)
    xy -= K * (A + B) + K * K * np.arange(1, m + 1, dtype=np.int64)
    return xy


def bernoulli_B2_psi_cohen(p: int) -> Fraction:
    """B_{2,psi} for psi = (p/.), p = 1 (mod 4), by Cohen's formula:
    (2/5) times the sum over all integers s (positive and negative counted
    separately) with (p - s**2)/4 a positive integer of
    sigma((p - s**2)/4); for p = 1 (mod 4) these are the odd s with
    s**2 <= p - 4."""
    total = 0
    s = 1
    while s * s <= p - 4:
        total += 2 * sigma1((p - s * s) // 4)
        s += 2
    return Fraction(2 * total, 5)


def discrete_log_walk(p: int, g: int) -> list[int]:
    """t with g**t[a] = a (mod p) for a in 1..p-1 and t[0] = -1, by walking
    the powers of g; raises ValueError when g does not generate (Z/pZ)*."""
    table = [-1] * p
    x = 1
    for k in range(p - 1):
        if table[x] >= 0:
            raise ValueError(f"{g} is not a primitive root mod {p}")
        table[x] = k
        x = x * g % p
    if x != 1:
        raise ValueError(f"{g} is not a primitive root mod {p}")
    return table


def quartic_primes_walk(pmax: int) -> list[int]:
    """All primes p = 5 (mod 8) with p <= pmax, one is_prime per candidate."""
    return [p for p in range(5, pmax + 1, 8) if is_prime(p)]


def safe_prime_walk(bound: int) -> list[int]:
    """All p <= bound with ``is_safe_prime_shape``, each candidate p = 3
    (mod 8) tested on its own; asserts 2 generates each group."""
    out = []
    for p in range(11, bound + 1, 8):
        if is_safe_prime_shape(p):
            if not two_generates(p):
                raise ValueError(f"2 is not a primitive root mod {p}")
            out.append(p)
    return out


def f_coefficients_per_j(xi) -> list[int]:
    """The coefficients of f_xi, degree 0..2p-4: for each j in 1..p-1, the
    bincount of t_xi(d) + t_xibar(e) over d | j and e | p - j, with the
    divisors listed by ``divisors``."""
    p = xi.p
    t = xi.exponent_table()
    counts = np.zeros(2 * p - 3, dtype=np.int64)
    for j in range(1, p):
        d = np.array(divisors(j))
        e = np.array(divisors(p - j))
        sums = np.add.outer(t[d], -t[e] % (p - 1)).ravel()
        counts += np.bincount(sums, minlength=len(counts))
    return counts.tolist()


# ---------------------------------------------------------------------
# polynomials, over sympy
# ---------------------------------------------------------------------

X = sympy.Symbol("x")


def to_sympy(f) -> sympy.Poly:
    """The polynomial with coefficients ``f`` (a sequence, index = degree)."""
    return sympy.Poly([int(c) for c in reversed(f)] or [0], X, domain="ZZ")


def from_sympy(f: sympy.Poly) -> np.ndarray:
    """The int64 coefficients of ``f``, index = degree, trailing zeros trimmed."""
    coeffs = np.array([int(c) for c in reversed(f.all_coeffs())], dtype=np.int64)
    return np.trim_zeros(coeffs, "b")


def cyclotomic(d: int) -> np.ndarray:
    """Phi_d, from sympy."""
    return from_sympy(sympy.cyclotomic_poly(d, X, polys=True))


def poly_product(*factors) -> np.ndarray:
    """The product of ``factors``, by sympy."""
    out = sympy.Poly(1, X, domain="ZZ")
    for f in factors:
        out *= to_sympy(f)
    return from_sympy(out)


def remainder(g, divisor) -> IntPolynomial:
    """g mod ``divisor``, coefficient sequences, by ``IntPolynomial.divmod_exact``."""
    return IntPolynomial.make(g).divmod_exact(IntPolynomial.make(divisor))[1]


def divisible_by_xq_plus_1(g, q: int) -> bool:
    """x**q + 1 | g, by sympy's remainder."""
    return sympy.rem(to_sympy(g), sympy.Poly(X**q + 1, X)).is_zero


def coprime_with_xq_minus_1(g, q: int) -> bool:
    """gcd(g, x**q - 1) = 1, by sympy's gcd."""
    return sympy.gcd(to_sympy(g), sympy.Poly(X**q - 1, X)).degree() == 0


def zero_sum_check(chi: DirichletCharacter):
    """The exact sum sum_{j=1}^{p-1} delta_chi(j) delta_chibar(p-j).

    Characters of order dividing 4 are evaluated directly in Q(i); for
    general order the value is returned as the ``IntPolynomial`` g reduced
    mod the (p-1)-st cyclotomic polynomial (the zero polynomial encodes
    a zero sum).
    """
    p = chi.p
    if 4 % chi.order == 0:
        total = GaussianRational()
        chibar = chi.conj()
        for j in range(1, p):
            total = total + delta_coefficient(chi, j) * delta_coefficient(chibar, p - j)
        return total
    return remainder(reduce_g(f_poly(chi), p), cyclotomic(p - 1))


def zero_sum_is_zero(chi: DirichletCharacter) -> bool:
    value = zero_sum_check(chi)
    return value.is_zero()


# ---------------------------------------------------------------------
# series and scalars
# ---------------------------------------------------------------------

def from_ints(values, constant=None) -> QSeries:
    """Build a QSeries from integer coefficients (optional exact c(0))."""
    coeffs = [GaussianRational(Fraction(int(v))) for v in values]
    if constant is not None:
        coeffs[0] = GaussianRational(constant)
    return QSeries(tuple(coeffs))


def sigma_prime_series(p: int, N: int) -> QSeries:
    """sigma'_p series with c(0) = (p-1)/24."""
    return from_ints(sigma_prime_values(p, N)[: N + 1], constant=Fraction(p - 1, 24))


def sigma_tilde_series(p: int, N: int) -> QSeries:
    """sigma~_p series with c(0) = -B_{2,psi}/4."""
    c0 = -bernoulli_B2_psi(p) / 4
    return from_ints(sigma_tilde_values(p, N)[: N + 1], constant=c0)


def sigma_hat_series(p: int, N: int) -> QSeries:
    """sigma^_p series with c(0) = 0."""
    return from_ints(sigma_hat_values(p, N)[: N + 1], constant=Fraction(0))


def sigma1(n: int) -> int:
    """Sum of the positive divisors of n."""
    if n < 1:
        raise ValueError("sigma1 expects a positive integer")
    total = 1
    for p, e in factorize(n).items():
        total *= (p ** (e + 1) - 1) // (p - 1)
    return total


def omega(n: int) -> int:
    """Number of distinct prime factors; omega(1) = 0."""
    if n < 1:
        raise ValueError("omega expects a positive integer")
    return len(factorize(n))


def gaussian(re, im=0) -> GaussianRational:
    """Convenience constructor accepting ints, Fractions, or fraction strings."""
    if isinstance(re, str):
        re = Fraction(re)
    if isinstance(im, str):
        im = Fraction(im)
    return GaussianRational(_as_fraction(re), _as_fraction(im))


def parse_gaussian(text: str) -> GaussianRational:
    """Inverse of str(): accepts 'a/b+c/di' (and 'a/b-c/di')."""
    s = text.strip()
    if not s.endswith("i"):
        raise ValueError(f"not a Gaussian rational string: {text!r}")
    body = s[:-1]
    # split at the sign separating real and imaginary parts
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "+-/":
            re_part, im_part = body[:k], body[k:]
            break
    else:
        raise ValueError(f"not a Gaussian rational string: {text!r}")
    return GaussianRational(Fraction(re_part), Fraction(im_part))


def trivial_character(p: int) -> DirichletCharacter:
    return DirichletCharacter(p, 0)


def all_characters(p: int) -> list[DirichletCharacter]:
    """The full cyclic character group mod p, ordered by exponent."""
    return [DirichletCharacter(p, e) for e in range(p - 1)]


def builtin_config_names() -> list[str]:
    root = resources.files("farkas").joinpath("configs")
    return sorted(e.name for e in root.iterdir() if e.name.endswith(".json"))


def load_builtin_config(name: str) -> Identity:
    root = resources.files("farkas").joinpath("configs")
    with root.joinpath(name).open(encoding="utf-8") as fh:
        return load_identity_config(fh)
