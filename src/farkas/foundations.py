"""Exact arithmetic scalars and elementary number-theory primitives.

Everything here is pure and deterministic: arbitrary-precision integers,
auto-reducing rationals (``fractions.Fraction``), Gaussian rationals, and
the small factorization / residue toolbox the rest of the package is
built on.  No floating point anywhere.
"""
from __future__ import annotations

import decimal
import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

import numpy as np

Scalar = Union[int, Fraction, "GaussianRational"]

# deterministic Miller-Rabin witness set, valid for all n < 3.3e24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# the per-prime caches (tables, characters, constants) hold the entries of
# this many primes, two characters each: a scan over primes frees a prime's
# tables soon after it moves on, so its memory stays O(p), not O(pmax**2)
PRIMES_CACHED = 2


@lru_cache(maxsize=8)
def is_prime(n: int) -> bool:
    """Deterministic primality test for n up to at least 2**63.

    The last few answers are cached: a prime scan validates each p once per
    table it builds (the character pair, its primitive root and character,
    B_{2,psi}, the Kronecker table), and those all ask about the same p."""
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


def prime_sieve(n: int) -> np.ndarray:
    """Bool array s of length n + 1 with s[m] = whether m is prime, by
    Eratosthenes: one slice assignment per prime up to sqrt(n), so a scan
    over candidates up to n reads them all off one array instead of testing
    each.  One byte per m: 8 MiB at MAX_PRIME = 2**23."""
    if n < 0:
        raise ValueError("prime_sieve expects a non-negative bound")
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    return sieve


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


@lru_cache(maxsize=PRIMES_CACHED)
def discrete_log_table(p: int, g: int) -> np.ndarray:
    """Read-only int64 array t of length p with g**t[a] = a (mod p) and
    0 <= t[a] <= p - 2 for a in 1..p-1; t[0] = -1, as 0 has no logarithm.

    Shanks' baby steps and giant steps fill the whole table: with
    B = ceil(sqrt(p - 1)), the B baby steps g**i and the giant steps
    g**(B j) are taken in Python ints, and their int64 outer product mod p
    (p**2 < 2**63, asserted) holds g**(B j + i) at the flat index B j + i,
    so scattering 0..p-2 at its first p - 1 values writes each logarithm.
    O(sqrt(p)) interpreter steps and O(p) numpy work.  g generates
    (Z/pZ)* exactly when those p - 1 powers are all of 1..p-1: a residue
    left unwritten means it does not, and raises ``ValueError``, as does
    a p with p**2 >= 2**63."""
    if p * p >= 2**63:
        raise ValueError(f"discrete-log table mod {p}: p**2 does not fit int64")
    B = math.isqrt(p - 2) + 1  # ceil(sqrt(p - 1))
    steps = [1]
    for _ in range(B - 1):
        steps.append(steps[-1] * g % p)
    giant, giants = steps[-1] * g % p, [1]
    for _ in range(-(-(p - 1) // B) - 1):
        giants.append(giants[-1] * giant % p)
    powers = np.array(giants, dtype=np.int64)[:, None] * np.array(steps, dtype=np.int64)
    powers %= p
    table = np.full(p, -1, dtype=np.int64)
    table[powers.ravel()[: p - 1]] = np.arange(p - 1, dtype=np.int64)
    if g % p == 0 or np.count_nonzero(table < 0) != 1:  # t[0] = -1 and no other
        raise ValueError(f"{g} is not a primitive root mod {p}")
    table.flags.writeable = False
    return table


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


class Record:
    """A value whose fields are the attributes its ``__init__`` sets, in
    that order: equal to a record of its own class with equal fields,
    unhashable, and repr'd as ``Name(field=value, ...)``.  Written out here,
    not generated by ``dataclasses``, whose decorator compiles every
    record class's methods in every process that imports the package."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record that hashes by its fields and refuses assignment: its
    ``__init__`` writes the fields into ``__dict__`` directly."""

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GaussianRational(FrozenRecord):
    """An element of Q(i) as an exact pair of rationals."""

    def __init__(self, re: int | Fraction = Fraction(0), im: int | Fraction = Fraction(0)):
        # every arithmetic result is built here, from Fraction parts: they
        # skip the conversion call
        fields = self.__dict__
        fields["re"] = re if isinstance(re, Fraction) else _as_fraction(re)
        fields["im"] = im if isinstance(im, Fraction) else _as_fraction(im)

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


def _int_str(x: int) -> str:
    """The decimal digits of x at any size: str(x) refuses more than
    sys.get_int_max_str_digits() digits, while a Decimal built from x
    converts without that limit and prints exponent-free."""
    return str(decimal.Decimal(x))


def _frac_str(x: Fraction) -> str:
    num = _int_str(x.numerator)
    return f"{num}/{_int_str(x.denominator)}" if x.denominator != 1 else num


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))
I = GaussianRational(Fraction(0), Fraction(1))

#: The four fourth roots of unity, indexed by the power of i.
FOURTH_ROOTS = (ONE, I, -ONE, -I)
