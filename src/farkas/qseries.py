"""Truncated q-expansions of the divisor-sum generating functions.

Provides the weight-one delta series attached to a character, the three
weight-two divisor-sum series (with their exact constant-term
conventions), the generalized Bernoulli number B_{2,psi} via Cohen's
divisor-sum formula, and exact Cauchy products.

The fast path is one integer layer: cached one-period tables of chi and
(p/.) feed one divisor sieve for the int64 arrays of delta_chi(n) and
sigma'_p, sigma~_p, sigma^_p (n >= 1); with s = 2p, s * delta_chi(0) is a
Gaussian integer, so the Convolver computes s**2 F_chi(n), s**2 H_chi(n)
in Gaussian integers.  Per-n scalars and ``cauchy_product`` are oracles.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .characters import DirichletCharacter
from .foundations import GaussianRational, divisors, is_prime, kronecker, sigma1

MAX_FAST_N = 1_000_000  # largest N of the int64 sieves and kernel
MAX_DIVISOR_COUNT = 240  # max d(n) for n <= MAX_FAST_N, at n = 720720 (tested)
# |Re|, |Im| of delta_chi(n) are at most d(n): an int64 kernel dot sums at
# most MAX_FAST_N products, each at most MAX_DIVISOR_COUNT**2
assert MAX_FAST_N * MAX_DIVISOR_COUNT**2 < 2**63


@dataclass(frozen=True)
class QSeries:
    """Truncated q-expansion: coefficients c(0..N), exact."""

    coefficients: tuple[GaussianRational, ...]

    @property
    def truncation(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int) -> GaussianRational:
        if not 0 <= n <= self.truncation:
            raise IndexError(
                f"coefficient index {n} outside truncation range 0..{self.truncation}"
            )
        return self.coefficients[n]

    def __mul__(self, other: "QSeries") -> "QSeries":
        return cauchy_product(self, other)

    def __sub__(self, other: "QSeries") -> "QSeries":
        if self.truncation != other.truncation:
            raise ValueError("truncation orders differ")
        return QSeries(
            tuple(a - b for a, b in zip(self.coefficients, other.coefficients))
        )

    def scale(self, c) -> "QSeries":
        return QSeries(tuple(a * c for a in self.coefficients))

    def conj(self) -> "QSeries":
        return QSeries(tuple(a.conj() for a in self.coefficients))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coefficients)


def cauchy_product(a: QSeries, b: QSeries) -> QSeries:
    """Exact product of truncated series; (A*B)(n) uses only indices <= n."""
    if a.truncation != b.truncation:
        raise ValueError(
            f"truncation orders differ: {a.truncation} vs {b.truncation}"
        )
    ca, cb = a.coefficients, b.coefficients
    out = [
        sum((ca[j] * cb[n - j] for j in range(n + 1)), GaussianRational())
        for n in range(len(ca))
    ]
    return QSeries(tuple(out))


def from_ints(values, constant=None) -> QSeries:
    """Build a QSeries from integer coefficients (optional exact c(0))."""
    coeffs = [GaussianRational(Fraction(int(v))) for v in values]
    if constant is not None:
        coeffs[0] = GaussianRational(constant)
    return QSeries(tuple(coeffs))


# ---------------------------------------------------------------------
# periodic tables and the divisor sieve
# ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def character_table(chi: DirichletCharacter) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) int64 arrays of chi(a) for a in 0..p-1, one period of chi.

    Built from ``chi.value``, which rejects characters whose values leave Q(i).
    """
    values = [chi.value(a) for a in range(chi.p)]
    table = np.array([(int(v.re), int(v.im)) for v in values], dtype=np.int64).T
    table.flags.writeable = False
    return table[0], table[1]


@lru_cache(maxsize=None)
def kronecker_table(p: int) -> np.ndarray:
    """int64 array of (p/a) for a in 0..P-1, P = p when p = 1 (mod 4), else 4p.

    For p = 1 (mod 4), (p/.) = (./p) has period p.  For p = 3 (mod 4), P is
    the period over odd a only: (3/2) = -1 but (3/14) = (3/2)(3/7) = +1.
    """
    period = p if p % 4 == 1 else 4 * p
    table = np.array([kronecker(p, a) for a in range(period)], dtype=np.int64)
    table.flags.writeable = False
    return table


def _kronecker_values(p: int, N: int) -> np.ndarray:
    """A table from which the sieve reads (p/d) correctly for d <= N."""
    table = kronecker_table(p)
    if p % 4 == 3:  # no period: spell out 0..N using (p/2d) = (p/2)(p/d)
        table = table[np.arange(N + 1) % len(table)]
        for d in range(2, N + 1, 2):
            table[d] = kronecker(p, 2) * table[d // 2]
    return table


def _sieve(
    table: np.ndarray, N: int, times_d: bool = False, quotient: bool = False
) -> np.ndarray:
    """int64 array of sum_{d | n} c(d) w(n/d) for n in 1..N (index 0 is zero).

    c(d) = table[d mod len(table)], multiplied by d when ``times_d``;
    w(q) = q when ``quotient``, else 1.
    """
    if not 0 <= N <= MAX_FAST_N:
        raise ValueError(f"fast path needs 0 <= N <= {MAX_FAST_N}, got {N}")
    values = table.tolist()
    period = len(values)
    out = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, N + 1):
        c = values[d % period] * (d if times_d else 1)
        if not c:
            continue
        out[d::d] += c * np.arange(1, N // d + 1, dtype=np.int64) if quotient else c
    return out


# ---------------------------------------------------------------------
# delta series
# ---------------------------------------------------------------------

def _delta0_numerator(chi: DirichletCharacter) -> tuple[int, int]:
    """2p * delta_chi(0) = -sum_{a=1}^{p-1} chi(a) a, a Gaussian integer."""
    if chi.is_trivial():
        raise ValueError("delta constant is defined for non-trivial characters only")
    re, im = character_table(chi)
    a = np.arange(chi.p, dtype=np.int64)
    return -int(re @ a), -int(im @ a)


def delta_constant(chi: DirichletCharacter) -> GaussianRational:
    """delta_chi(0) = -(1/2p) * sum_{a=1}^{p-1} chi(a) a, exact in Q(i)."""
    re, im = _delta0_numerator(chi)
    return GaussianRational(Fraction(re, 2 * chi.p), Fraction(im, 2 * chi.p))


def delta_coefficient(chi: DirichletCharacter, n: int) -> GaussianRational:
    """delta_chi(n) = sum_{d | n} chi(d), for n >= 1."""
    if n < 1:
        raise ValueError("delta_coefficient expects n >= 1")
    total = GaussianRational()
    for d in divisors(n):
        total = total + chi.value(d)
    return total


def delta_series(chi: DirichletCharacter, N: int) -> QSeries:
    if N < 0:
        raise ValueError("truncation order must be >= 0")
    coeffs = [delta_constant(chi)]
    coeffs.extend(delta_coefficient(chi, n) for n in range(1, N + 1))
    return QSeries(tuple(coeffs))


def delta_int_arrays(chi: DirichletCharacter, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) int64 arrays of delta_chi(n) for n in 1..N (index 0 is zero)."""
    re, im = character_table(chi)
    return _sieve(re, N), _sieve(im, N)


# ---------------------------------------------------------------------
# weight-two divisor sums
# ---------------------------------------------------------------------

def sigma_prime(p: int, n: int) -> int:
    """sigma'_p(n) = sum of divisors of n not divisible by p (n >= 1)."""
    if n < 1:
        raise ValueError("sigma_prime expects n >= 1")
    return sum(d for d in divisors(n) if d % p != 0)


def sigma_tilde(p: int, n: int) -> int:
    """sigma~_p(n) = sum_{d|n} (p/d) d (n >= 1)."""
    if n < 1:
        raise ValueError("sigma_tilde expects n >= 1")
    return sum(kronecker(p, d) * d for d in divisors(n))


def sigma_hat(p: int, n: int) -> int:
    """sigma^_p(n) = sum_{d|n} (p/d) (n/d) (n >= 1)."""
    if n < 1:
        raise ValueError("sigma_hat expects n >= 1")
    return sum(kronecker(p, d) * (n // d) for d in divisors(n))


def sigma_prime_values(p: int, N: int) -> np.ndarray:
    """int64 array of sigma'_p(n), n in 1..N (index 0 is zero)."""
    coprime = np.sign(np.arange(p, dtype=np.int64))  # 0 at a = 0, else 1
    return _sieve(coprime, N, times_d=True)


def sigma_tilde_values(p: int, N: int) -> np.ndarray:
    """int64 array of sigma~_p(n), n in 1..N (index 0 is zero)."""
    return _sieve(_kronecker_values(p, N), N, times_d=True)


def sigma_hat_values(p: int, N: int) -> np.ndarray:
    """int64 array of sigma^_p(n), n in 1..N (index 0 is zero)."""
    return _sieve(_kronecker_values(p, N), N, quotient=True)


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


def bernoulli_B2_psi(p: int) -> Fraction:
    """B_{2,psi} for the quadratic character mod p, via Cohen's formula.

    B_{2,psi} = (2/5) * sum over s of sigma((p - s**2)/4), the sum running
    over all integers s (positive and negative counted separately) for
    which (p - s**2)/4 is a positive integer; for p = 1 (mod 4) these are
    exactly the odd s with s**2 <= p - 4.
    """
    if p % 4 != 1 or not is_prime(p):
        raise ValueError(f"B_2,psi requires a prime p = 1 (mod 4), got {p}")
    total = 0
    s = 1
    while s * s <= p - 4:
        total += 2 * sigma1((p - s * s) // 4)
        s += 2
    return Fraction(2 * total, 5)


# ---------------------------------------------------------------------
# convolutions F and H
# ---------------------------------------------------------------------

class Convolver:
    """F_chi / H_chi over the common denominator s**2, s = 2p: int64 dots
    over delta_chi(j), 0 < j < n, plus cross terms with L = s delta_chi(0)."""

    def __init__(self, chi: DirichletCharacter):
        self.chi = chi
        self.denominator = (2 * chi.p) ** 2
        self._L = _delta0_numerator(chi)
        self._re = self._im = np.zeros(1, dtype=np.int64)

    def ensure(self, n: int) -> None:
        capacity = len(self._re) - 1
        if n > capacity:
            cap = max(n, min(2 * capacity, MAX_FAST_N), 1024)
            self._re, self._im = delta_int_arrays(self.chi, cap)

    def _product(self, n: int, c: int, scale: int | None):
        """sum_{j=0}^{n} delta_chi(j) delta'(n-j), where delta' is delta_chi
        (c = 1) or its conjugate (c = -1); exact, or times ``scale``."""
        if n < 0:
            raise ValueError("F and H expect n >= 0")
        u, v = self._L
        if n == 0:  # L L', with L' = u + i c v
            re, im = u * u - c * v * v, (1 + c) * u * v
        else:  # s**2 (tail over 0 < j < n) + s (L delta'(n) + delta(n) L')
            self.ensure(n)
            a, b = self._re[1:n], self._im[1:n]
            ar, br = self._re[n - 1:0:-1], self._im[n - 1:0:-1]
            x, y = int(self._re[n]), int(self._im[n])
            s = 2 * self.chi.p
            re = s * s * (int(a @ ar) - c * int(b @ br)) + 2 * s * (u * x - c * v * y)
            im = s * s * (c * int(a @ br) + int(b @ ar)) + (1 + c) * s * (u * y + v * x)
        if scale is None:
            return GaussianRational(
                Fraction(re, self.denominator), Fraction(im, self.denominator)
            )
        k, rem = divmod(scale, self.denominator)
        if rem:
            raise ValueError(f"scale {scale} is not a multiple of {self.denominator}")
        return k * re, k * im

    def F(self, n: int, scale: int | None = None):
        """F_chi(n) = sum_{j=0}^{n} delta_chi(j) delta_chibar(n-j), exact in Q(i).

        With an integer ``scale`` that ``denominator`` divides, returns
        scale * F_chi(n) as an int pair instead: the form the sweeps compare.
        """
        return self._product(n, -1, scale)

    def H(self, n: int, scale: int | None = None):
        """H_chi(n) = sum_{j=0}^{n} delta_chi(j) delta_chi(n-j); ``scale`` as for F."""
        return self._product(n, 1, scale)


@lru_cache(maxsize=None)
def convolver(chi: DirichletCharacter) -> Convolver:
    return Convolver(chi)
