"""Integer-polynomial route to the even-character obstruction.

For p = 2q+1 with q = 1 (mod 4) prime, 2 generates (Z/pZ)* and the
character group is generated by chi with chi(2) = zeta_{p-1}.  The
obstruction sums sum_j delta_xi(j) delta_xibar(p-j) become values of an
integer polynomial f_chi at roots of unity, so vanishing questions
reduce to exact divisibility: by x^q + 1 (odd powers) and to polynomial
gcd with x^q - 1 (even powers).  No numeric root-of-unity evaluation
anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Optional, Union

from .characters import DirichletCharacter
from .foundations import GaussianRational, divisors, is_prime


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer-coefficient polynomial; index = degree."""

    coeffs: tuple[int, ...]

    @staticmethod
    def make(coeffs) -> "IntPolynomial":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPolynomial(tuple(int(c) for c in cs))

    @staticmethod
    def monomial(degree: int, coeff: int = 1) -> "IntPolynomial":
        return IntPolynomial.make([0] * degree + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial.make(
            [self[i] + other[i] for i in range(n)]
        )

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial.make(
            [self[i] - other[i] for i in range(n)]
        )

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial.make([-c for c in self.coeffs])

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial.make(out)

    def scale(self, c: int) -> "IntPolynomial":
        return IntPolynomial.make([c * a for a in self.coeffs])

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod_exact(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Long division; requires the divisor's leading coefficient to be +-1."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lc = divisor.coeffs[-1]
        if lc not in (1, -1):
            raise ValueError("division requires a unit leading coefficient")
        rem = list(self.coeffs)
        dd = divisor.degree
        quot = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c * lc  # c // lc for lc = +-1
            quot[i - dd] = q
            for j, b in enumerate(divisor.coeffs):
                rem[i - dd + j] -= q * b
        return IntPolynomial.make(quot), IntPolynomial.make(rem)

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive(self) -> "IntPolynomial":
        c = self.content()
        if c in (0, 1):
            return self
        sign = 1 if self.coeffs[-1] > 0 else -1
        return IntPolynomial.make([a // (sign * c) for a in self.coeffs])

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            term = f"{c}" if i == 0 else (f"{c}*x^{i}" if i > 1 else f"{c}*x")
            parts.append(term)
        return " + ".join(parts).replace("+ -", "- ")


ONE_POLY = IntPolynomial((1,))


def pseudo_remainder(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """prem(f, g): lc(g)**(deg f - deg g + 1) * f reduced mod g, over Z."""
    if g.is_zero():
        raise ZeroDivisionError("pseudo-remainder by zero")
    rem = list(f.coeffs)
    dg = g.degree
    lc = g.coeffs[-1]
    while len(rem) - 1 >= dg and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dg:
            break
        c = rem[-1]
        rem = [lc * a for a in rem]
        shift = len(rem) - 1 - dg
        for j, b in enumerate(g.coeffs):
            rem[shift + j] -= c * b
        rem.pop()
    return IntPolynomial.make(rem)


def poly_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """gcd over Q, returned as a primitive integer polynomial with a
    positive leading coefficient (subresultant-style PRS)."""
    a, b = f.primitive(), g.primitive()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        r = pseudo_remainder(a, b).primitive()
        a, b = b, r
    a = a.primitive()
    if a.coeffs and a.coeffs[-1] < 0:
        a = -a
    return a


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, by exact division of x^n - 1."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    num = IntPolynomial.monomial(n) - ONE_POLY
    for d in divisors(n):
        if d < n:
            q, r = num.divmod_exact(cyclotomic(d))
            assert r.is_zero()
            num = q
    return num


# ---------------------------------------------------------------------
# the h / f / g machinery
# ---------------------------------------------------------------------

def h_poly(xi: DirichletCharacter, j: int) -> IntPolynomial:
    """h_{xi,j}(x) = sum_{d | j} x**t(xi,d), for 1 <= j <= p-1."""
    p = xi.p
    if not 1 <= j <= p - 1:
        raise ValueError(f"j must lie in 1..{p - 1}, got {j}")
    coeffs = [0] * (p - 1)
    for d in divisors(j):
        coeffs[xi.t_exponent(d)] += 1
    return IntPolynomial.make(coeffs)


def f_poly(xi: DirichletCharacter) -> IntPolynomial:
    """f_xi(x) = sum_{j=1}^{p-1} h_{xi,j}(x) h_{xibar,p-j}(x); degree <= 2p-4."""
    p = xi.p
    xibar = xi.conj()
    total = IntPolynomial(())
    for j in range(1, p):
        total = total + h_poly(xi, j) * h_poly(xibar, p - j)
    assert total.degree <= 2 * p - 4
    return total


def reduce_g(f: IntPolynomial, p: int) -> IntPolynomial:
    """f reduced mod x**(p-1) - 1: fold coefficient i onto i mod (p-1)."""
    folded = [0] * (p - 1)
    for i, c in enumerate(f.coeffs):
        folded[i % (p - 1)] += c
    return IntPolynomial.make(folded)


def divisible_by_xq_plus_1(g: IntPolynomial, q: int) -> bool:
    _, rem = g.divmod_exact(IntPolynomial.monomial(q) + ONE_POLY)
    return rem.is_zero()


def coprime_with_xq_minus_1(g: IntPolynomial, q: int) -> bool:
    d = poly_gcd(g, IntPolynomial.monomial(q) - ONE_POLY)
    return d.degree == 0 and not d.is_zero()


# ---------------------------------------------------------------------
# obstruction reports
# ---------------------------------------------------------------------

def is_safe_prime_shape(p: int) -> bool:
    """p = 2q+1 with q prime, q = 1 (mod 4), and p itself prime."""
    if p < 11 or p % 2 == 0 or not is_prime(p):
        return False
    q = (p - 1) // 2
    return q % 4 == 1 and is_prime(q)


def safe_prime_scan(bound: int) -> list[int]:
    """All p <= bound of the required shape; asserts 2 generates each group."""
    out = []
    for p in range(11, bound + 1, 2):
        if is_safe_prime_shape(p):
            DirichletCharacter(p, 2, 1)  # raises if 2 is not a generator
            out.append(p)
    return out


@dataclass
class CharacterRow:
    k: int
    parity: str
    is_zero: bool


@dataclass
class EvenObstructionReport:
    p: int
    q: int
    b0: int
    b1: int
    b_p_minus_1: int
    b_p: int
    divisible_by_xq_plus_1: bool
    coprime_with_xq_minus_1: bool
    f_at_one: int
    rows: list[CharacterRow]
    flagged_zero_coefficients: list[int]

    def all_even_nonzero(self) -> bool:
        return all(not r.is_zero for r in self.rows if r.parity == "even")

    def all_odd_zero(self) -> bool:
        return all(r.is_zero for r in self.rows if r.parity == "odd")


def even_character_obstruction(p: int) -> EvenObstructionReport:
    """Per-character vanishing table of sum_j delta_xi(j) delta_xibar(p-j).

    The sum for xi = chi**k equals f_chi(zeta**k); vanishing is decided
    exactly by cyclotomic divisibility of the folded polynomial g.
    """
    if not is_safe_prime_shape(p):
        raise ValueError(f"{p} is not 2q+1 with q = 1 (mod 4) prime")
    q = (p - 1) // 2
    chi = DirichletCharacter(p, 2, 1)
    f = f_poly(chi)
    g = reduce_g(f, p)

    # zeta**k has order (p-1)/gcd(k, p-1); f(zeta**k) = 0 iff the
    # corresponding cyclotomic polynomial divides g
    zero_for_order: dict[int, bool] = {}
    for d in divisors(p - 1):
        _, rem = g.divmod_exact(cyclotomic(d))
        zero_for_order[d] = rem.is_zero()

    rows = []
    for k in range(p - 1):
        order = (p - 1) // gcd(k, p - 1) if k else 1
        rows.append(
            CharacterRow(
                k,
                "even" if k % 2 == 0 else "odd",
                zero_for_order[order],
            )
        )

    flagged = [
        i
        for i in range(2 * p - 3)
        if f[i] == 0 and i not in (p - 1, p) and i <= f.degree
    ]
    return EvenObstructionReport(
        p,
        q,
        f[0],
        f[1],
        f[p - 1],
        f[p],
        divisible_by_xq_plus_1(g, q),
        coprime_with_xq_minus_1(g, q),
        f.evaluate(1),
        rows,
        flagged,
    )


# ---------------------------------------------------------------------
# zero-sum cross-check
# ---------------------------------------------------------------------

def zero_sum_check(chi: DirichletCharacter) -> Union[GaussianRational, IntPolynomial]:
    """The exact sum sum_{j=1}^{p-1} delta_chi(j) delta_chibar(p-j).

    Characters of order dividing 4 are evaluated directly in Q(i); for
    general order the value is returned as an integer polynomial reduced
    mod the (p-1)-st cyclotomic polynomial (the zero polynomial encodes
    a zero sum).
    """
    from .qseries import delta_coefficient

    p = chi.p
    if 4 % chi.order == 0:
        total = GaussianRational()
        chibar = chi.conj()
        for j in range(1, p):
            total = total + delta_coefficient(chi, j) * delta_coefficient(chibar, p - j)
        return total
    g = reduce_g(f_poly(chi), p)
    _, rem = g.divmod_exact(cyclotomic(p - 1))
    return rem


def zero_sum_is_zero(chi: DirichletCharacter) -> bool:
    value = zero_sum_check(chi)
    return value.is_zero()
