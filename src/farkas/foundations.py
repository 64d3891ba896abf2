"""Exact arithmetic scalars and elementary number-theory primitives.

Everything here is pure and deterministic: arbitrary-precision integers,
auto-reducing rationals (``fractions.Fraction``), Gaussian rationals, and
the small factorization / residue toolbox the rest of the package is
built on.  No floating point anywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

Scalar = Union[int, Fraction, "GaussianRational"]

# deterministic Miller-Rabin witness set, valid for all n < 3.3e24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic primality test for n up to at least 2**63."""
    if n < 1:
        raise ValueError("is_prime expects a positive integer")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; inputs are desk scale."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for q in (d, d + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, strictly increasing."""
    if n < 1:
        raise ValueError("divisors expects a positive integer")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


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


def kronecker(p: int, n: int) -> int:
    """Kronecker symbol (p/n) for an odd prime p and any integer n."""
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"kronecker expects an odd prime, got {p}")
    if n == 0:
        return 0
    result = 1
    if n < 0:
        n = -n  # (p/-1) = 1 since p > 0
    while n % 2 == 0:
        n //= 2
        if p % 8 in (3, 5):
            result = -result
    # Jacobi-style reciprocity loop on the odd part
    a = p % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def primitive_root(p: int) -> int:
    """Smallest generator of (Z/pZ)* for an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"primitive_root expects an odd prime, got {p}")
    order_factors = list(factorize(p - 1))
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in order_factors):
            return g
    raise AssertionError("unreachable: every odd prime has a primitive root")


@lru_cache(maxsize=None)
def discrete_log_table(p: int, g: int) -> dict[int, int]:
    """Map a -> dlog_g(a) on 1..p-1, with g**dlog(a) = a (mod p)."""
    table: dict[int, int] = {}
    x = 1
    for k in range(p - 1):
        if x in table:
            raise ValueError(f"{g} is not a primitive root mod {p}")
        table[x] = k
        x = x * g % p
    if x != 1 or len(table) != p - 1:
        raise ValueError(f"{g} is not a primitive root mod {p}")
    return table


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class GaussianRational:
    """An element of Q(i) as an exact pair of rationals."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(x: Scalar) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(_as_fraction(x))

    def __add__(self, other: Scalar) -> "GaussianRational":
        o = self._coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "GaussianRational":
        o = self._coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: Scalar) -> "GaussianRational":
        return self._coerce(other) - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: Scalar) -> "GaussianRational":
        o = self._coerce(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "GaussianRational":
        o = self._coerce(other)
        d = o.norm_sq()
        if d == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other: Scalar) -> "GaussianRational":
        return self._coerce(other) / self

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- structure ----------------------------------------------------

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    # -- formatting ---------------------------------------------------

    def __str__(self) -> str:
        sign = "+" if self.im >= 0 else "-"
        return f"{_frac_str(self.re)}{sign}{_frac_str(abs(self.im))}i"

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
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
        return cls(Fraction(re_part), Fraction(im_part))


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))
I = GaussianRational(Fraction(0), Fraction(1))

#: The four fourth roots of unity, indexed by the power of i.
FOURTH_ROOTS = (ONE, I, -ONE, -I)


def gaussian(re, im=0) -> GaussianRational:
    """Convenience constructor accepting ints, Fractions, or fraction strings."""
    if isinstance(re, str):
        re = Fraction(re)
    if isinstance(im, str):
        im = Fraction(im)
    return GaussianRational(_as_fraction(re), _as_fraction(im))
