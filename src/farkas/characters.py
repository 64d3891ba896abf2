"""Dirichlet characters modulo a prime.

A character is p and one exponent e against the least primitive root g
of p: chi(g) = zeta_{p-1}**e, quartic at e = (p-1)/4 and quadratic at
e = (p-1)/2.  Evaluation goes through the discrete logarithm table, and
all general-order manipulation is exponent arithmetic mod p-1; values
only materialize as Gaussian rationals when the order divides 4.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

from .foundations import (
    FOURTH_ROOTS,
    PRIMES_CACHED,
    ZERO,
    FrozenRecord,
    GaussianRational,
    discrete_log_table,
    is_prime,
    primitive_root,
)


class DirichletCharacter(FrozenRecord):
    """chi mod p with chi(g) = zeta_{p-1}**e for the least primitive root g."""

    def __init__(self, p: int, e: int):
        if p == 2 or not is_prime(p):
            raise ValueError(f"modulus must be an odd prime, got {p}")
        if not 0 <= e <= p - 2:
            raise ValueError(f"exponent {e} out of range [0, {p - 2}]")
        self.__dict__.update(p=p, e=e)

    @property
    def g(self) -> int:
        return primitive_root(self.p)

    # -- group structure ----------------------------------------------

    @property
    def order(self) -> int:
        return (self.p - 1) // gcd(self.e, self.p - 1)

    def is_even(self) -> bool:
        return self.e % 2 == 0

    def parity(self) -> str:
        return "even" if self.is_even() else "odd"

    def is_trivial(self) -> bool:
        return self.e == 0

    def conj(self) -> "DirichletCharacter":
        return DirichletCharacter(self.p, -self.e % (self.p - 1))

    def power(self, k: int) -> "DirichletCharacter":
        return DirichletCharacter(self.p, k * self.e % (self.p - 1))

    # -- evaluation ---------------------------------------------------

    def t_exponent(self, d: int) -> int:
        """The exponent t with chi(d) = zeta_{p-1}**t, for p not dividing d."""
        if d % self.p == 0:
            raise ValueError(f"{d} is divisible by the modulus {self.p}")
        dlog = int(discrete_log_table(self.p)[d % self.p])
        return (self.e * dlog) % (self.p - 1)

    def exponent_table(self) -> np.ndarray:
        """int64 array of ``t_exponent(a)`` for a in 0..p-1, with a placeholder
        0 at a = 0, where chi vanishes.  e * dlog < p**2 stays far inside int64
        for any p whose discrete-log table fits in memory."""
        t = self.e * discrete_log_table(self.p) % (self.p - 1)
        t[0] = 0
        return t

    def value(self, a: int) -> GaussianRational:
        """chi(a) as an exact Gaussian rational; requires order | 4."""
        if a % self.p == 0:
            return ZERO
        t = self.t_exponent(a)
        quarter, rem = divmod(4 * t, self.p - 1)
        if rem != 0:
            raise ValueError(
                f"character of order {self.order} takes values outside Q(i)"
            )
        return FOURTH_ROOTS[quarter % 4]

    def label(self) -> str:
        return f"chi[p={self.p},g={self.g},e={self.e}]"


def quadratic_character(p: int) -> DirichletCharacter:
    """The non-trivial real character mod p (the Kronecker symbol for p odd)."""
    return DirichletCharacter(p, (p - 1) // 2)


@lru_cache(maxsize=PRIMES_CACHED)
def quartic_pair(p: int) -> tuple[DirichletCharacter, DirichletCharacter]:
    """The two exact-order-4 characters mod p, for p = 5 (mod 8).

    The first component is the canonical choice with chi(2) = +i (the
    Kronecker symbol forces chi(2) in {i, -i}); the second is its
    conjugate.  One pair per prime: the tables keyed by chi hit by identity."""
    if p % 8 != 5 or not is_prime(p):
        raise ValueError(f"quartic pair requires a prime p = 5 (mod 8), got {p}")
    q = (p - 1) // 4  # g**q has order 4: chi(2) = +i at e = q iff 2**q = g**q
    e = q if pow(2, q, p) == pow(primitive_root(p), q, p) else 3 * q
    return DirichletCharacter(p, e), DirichletCharacter(p, 4 * q - e)


def canonical_quartic(p: int, sign: int = +1) -> DirichletCharacter:
    """The quartic character with chi(2) = sign * i."""
    chi, chibar = quartic_pair(p)
    if sign == +1:
        return chi
    if sign == -1:
        return chibar
    raise ValueError("sign must be +1 or -1")
