"""Integer-polynomial route to the even-character obstruction.

For p = 2q+1 with q = 1 (mod 4) prime, 2 generates (Z/pZ)* and the
character group is generated by chi with chi(2) = zeta_{p-1}.  The
obstruction sums sum_j delta_xi(j) delta_xibar(p-j) become values of an
integer polynomial f_chi at roots of unity, so vanishing questions
reduce to exact divisibility of its fold g = f mod (x**(p-1) - 1) by the
cyclotomic polynomials Phi_d, d | p - 1.  No numeric root-of-unity
evaluation anywhere.

Cost: ``f_poly`` counts exponent pairs with one numpy divisor table and
a chunk of about 2p sums at a time, each chunk one ``np.repeat``, one
gather and one ``np.bincount``: O(log**2 p) interpreter steps and
O(p log**2 p) numpy work.  The cyclotomic tests, for p - 1 = 2q, take the two
remainders of g by x**q - 1 and x**q + 1, not four divisions by Phi_1,
Phi_2, Phi_q and Phi_2q: ``divmod_exact`` visits only the nonzero divisor
coefficients, so each remainder is O(p) integer steps, and the four tests
read them (``cyclotomic_zeros``).  A report holds those four verdicts, one
per order of zeta**k, not a row per character.  The report's two flags,
x**q + 1 | g and gcd(g, x**q - 1) = 1, follow from the same four tests
(see ``xq_flags``).  f and g stay int64 arrays; ``IntPolynomial`` holds
only the division behind the two remainders.  The tests check these steps
against sympy's Phi_d, products, remainders and gcds.
"""
from __future__ import annotations

import numpy as np

from .characters import DirichletCharacter
from .foundations import FrozenRecord, Record, is_prime, prime_sieve


class IntPolynomial(FrozenRecord):
    """Dense integer-coefficient polynomial; index = degree."""

    def __init__(self, coeffs: tuple[int, ...]):
        self.__dict__.update(coeffs=coeffs)

    @staticmethod
    def make(coeffs) -> "IntPolynomial":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPolynomial(tuple(map(int, cs)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def divmod_exact(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Long division; requires the divisor's leading coefficient to be +-1."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lc = divisor.coeffs[-1]
        if lc not in (1, -1):
            raise ValueError("division requires a unit leading coefficient")
        rem = list(self.coeffs)
        dd = divisor.degree
        terms = [(j - dd, b) for j, b in enumerate(divisor.coeffs) if b]
        quot = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c * lc  # c // lc for lc = +-1
            quot[i - dd] = q
            for j, b in terms:  # the nonzero terms only: O(1) for x**q -+ 1
                rem[i + j] -= q * b
        return IntPolynomial.make(quot), IntPolynomial.make(rem)


# ---------------------------------------------------------------------
# the h / f / g machinery
# ---------------------------------------------------------------------

def _divisor_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(start, divs): the divisors of j are divs[start[j]:start[j+1]], for
    1 <= j < n, in increasing order; one numpy sieve over the pairs (d, m d),
    put in order by one sort of the keys m n + d (m n + d < n**2 < 2**63)."""
    d = np.arange(1, n, dtype=np.int64)
    count = (n - 1) // d  # multiples of d below n
    first = np.cumsum(count) - count
    ds = np.repeat(d, count)
    keys = ds * (np.arange(len(ds), dtype=np.int64) - np.repeat(first, count) + 1)
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=start[1:])
    keys *= n
    keys += ds
    keys.sort()
    return start, keys % n


def f_at_one_bound(p: int) -> int:
    """A bound on f(1) <= (sum_{j<p} d(j))**2, so on any sum of f's or g's
    coefficients: sum_{j<p} d(j) < p (1 + ln p), and ln p < p.bit_length()."""
    return (p * (p.bit_length() + 1)) ** 2


def f_poly(xi: DirichletCharacter) -> np.ndarray:
    """f_xi(x) = sum_{j=1}^{p-1} h_{xi,j}(x) h_{xibar,p-j}(x), degree <= 2p-4,
    with h_{xi,j}(x) = sum_{d | j} x**t_xi(d), as int64 coefficients, index
    = degree, trailing zeros trimmed; each is below 2**63 (the assert).

    Coefficient i counts the triples (j, d | j, e | p - j) with
    t_xi(d) + t_xibar(e) = i, so f sums the bincounts of the exponent sums.
    They are laid out in rows, one per entry (j, d) of the divisor table,
    in its order: row (j, d) holds the d(p - j) sums over the divisors e
    of p - j, one contiguous block of the table, so the table position of
    e is that of the sum plus a shift fixed per row.

    About p log**2 p sums in all, counted a chunk of rows at a time, each
    chunk ending before the first row that reaches the next multiple of
    C = 2p - 3 sums, as many as f has coefficients: a bincount never costs
    more than its chunk, and the loop runs over under (ln p)**2 / 2 chunks
    (15 at p = 347, 49 at p = 99707), not over j.  A chunk starts within
    one row of the multiple of C before it, and a row holds d(p - j) <
    2 sqrt(p) sums (the divisors of m pair up as e, m/e with e < sqrt(m)),
    so a chunk holds fewer than 2p + 2 sqrt(p) sums, in three int64
    arrays.  The peak is the five int64 arrays over the table's
    sum_{j<p} d(j) ~ p ln p entries: t_xi(d), t_xibar(d), row length,
    row end and shift.
    """
    p = xi.p
    assert f_at_one_bound(p) < 2**63
    t = xi.exponent_table()
    start, td = _divisor_table(p)
    td = t[td]  # t_xi of each table entry; its divisor is not needed again
    te = np.negative(td)
    te %= p - 1  # t_xibar
    count = np.diff(start[1:])  # d(j), j = 1..p-1
    rowlen = np.repeat(count[::-1], count)  # row (j, d) holds d(p - j) sums
    ends = np.cumsum(rowlen)
    # row (j, d)'s first e is at start[p - j] in the table, its first sum at
    # ends - rowlen among the sums: the shift is their difference
    shift = np.repeat(start[p - 1 : 0 : -1], count)
    shift -= ends
    shift += rowlen
    counts = np.zeros(2 * p - 3, dtype=np.int64)
    C = len(counts)
    cuts = [0, *np.searchsorted(ends, np.arange(C, ends[-1], C)).tolist(), len(ends)]
    for lo, hi in zip(cuts, cuts[1:]):
        epos = np.repeat(shift[lo:hi], rowlen[lo:hi])
        epos += np.arange(ends[lo] - rowlen[lo], ends[hi - 1])
        sums = np.repeat(td[lo:hi], rowlen[lo:hi])
        sums += te[epos]
        counts += np.bincount(sums, minlength=C)
    return np.trim_zeros(counts, "b")


def reduce_g(f: np.ndarray, p: int) -> np.ndarray:
    """The p - 1 int64 coefficients of g = f mod (x**(p-1) - 1), f as from
    ``f_poly``: coefficient i folds onto i mod (p-1), and deg f <= 2p - 4 <
    2(p - 1), so g is f's bottom p - 1 coefficients plus its top ones, each
    sum at most f(1) < 2**63 (``f_poly``'s assert)."""
    g = np.zeros(2 * (p - 1), dtype=np.int64)
    g[: len(f)] = f
    return g[: p - 1] + g[p - 1 :]


def _remainder_coefficients(g: IntPolynomial, divisor: IntPolynomial, q: int) -> list[int]:
    """The q coefficients of g mod ``divisor``, a divisor of degree q."""
    rem = g.divmod_exact(divisor)[1].coeffs
    return list(rem) + [0] * (q - len(rem))


def cyclotomic_zeros(g: np.ndarray, n: int) -> dict[int, bool]:
    """d -> whether Phi_d divides g, for the divisors d = 1, 2, q, 2q of
    n = 2q, q an odd prime, from the remainders r = g mod (x**q - 1) and
    s = g mod (x**q + 1), each of q coefficients; g is an int64 array.

    Phi_1 Phi_q = x**q - 1, so Phi_d | g iff Phi_d | r for d in {1, q}:
    Phi_1 | r iff r(1) = sum r_i = 0, and, since deg r < q = deg Phi_q + 1,
    Phi_q = 1 + x + ... + x**(q-1) divides r iff r is a constant multiple
    of it, iff all r_i are equal.  Likewise Phi_2 Phi_2q = x**q + 1, and
    Phi_2q(x) = Phi_q(-x) for odd q: Phi_2 | g iff s(-1) = sum (-1)**i s_i
    = 0, and Phi_2q | g iff the (-1)**i s_i are all equal.  Two divisions
    by two-term divisors: O(deg g) steps in all.
    """
    q = n // 2
    if n != 2 * q or q < 3 or not is_prime(q):
        raise ValueError(f"expected n = 2q with q an odd prime, got {n}")
    g = IntPolynomial.make(g.tolist())
    zeros = (0,) * (q - 1)
    r, s = (_remainder_coefficients(g, IntPolynomial((c, *zeros, 1)), q) for c in (-1, 1))
    s_alt = [-c if i % 2 else c for i, c in enumerate(s)]
    return {
        1: sum(r) == 0,
        2: sum(s_alt) == 0,
        q: len(set(r)) == 1,
        n: len(set(s_alt)) == 1,
    }


def xq_flags(zero: dict[int, bool], q: int) -> tuple[bool, bool]:
    """(x**q + 1 | g, gcd(g, x**q - 1) = 1) from ``zero = cyclotomic_zeros(g, 2q)``.

    For q an odd prime, x**q - 1 = Phi_1 Phi_q and x**q + 1 = Phi_2 Phi_2q.
    The Phi_d are irreducible and pairwise coprime over Q, and monic, so
    division by them is exact over Z as over Q.  Hence x**q + 1 divides g
    iff both Phi_2 and Phi_2q do, and gcd(g, x**q - 1) is the product of
    the Phi_d (d = 1, q) that divide g, which is 1 iff neither does.
    """
    return zero[2] and zero[2 * q], not zero[1] and not zero[q]


# ---------------------------------------------------------------------
# obstruction reports
# ---------------------------------------------------------------------

def is_safe_prime_shape(p: int) -> bool:
    """p = 2q+1 with q prime, q = 1 (mod 4), and p itself prime.

    q = 1 (mod 4) iff p = 3 (mod 8), which is tested before either
    primality test runs."""
    if p < 11 or p % 8 != 3:
        return False
    return is_prime(p) and is_prime((p - 1) // 2)


def two_generates(p: int) -> bool:
    """Whether 2 generates (Z/pZ)*, for a prime p = 2q + 1 with q an odd prime.

    2**(2q) = 1, so 2**q = +-1 (mod p).  If 2**q = 1, the order of 2 divides
    q < p - 1.  If 2**q = -1, it divides 2q but not q, so it is 2 or 2q, and
    not 2, since 2**2 = 4 is not 1 mod p >= 7.  O(log p) steps and no
    discrete-log table.
    """
    return pow(2, (p - 1) // 2, p) == p - 1


def safe_prime_scan(bound: int) -> list[int]:
    """All p <= bound of the required shape; asserts 2 generates each group.

    Only p = 3 (mod 8) can have the shape (``is_safe_prime_shape``).  Both
    p and q = (p - 1)/2 are read off one ``prime_sieve`` of bound + 1 bytes
    (about 8 MiB at MAX_PRIME), so no candidate is tested on its own."""
    sieve = prime_sieve(max(bound, 0))
    candidates = np.flatnonzero(sieve[11::8]) * 8 + 11
    out = candidates[sieve[(candidates - 1) // 2]].tolist()
    for p in out:
        if not two_generates(p):
            raise ValueError(f"2 is not a primitive root mod {p}")
    return out


class EvenObstructionReport(Record):
    def __init__(
        self,
        p: int,
        q: int,
        b0: int,
        b1: int,
        b_p_minus_1: int,
        b_p: int,
        divisible_by_xq_plus_1: bool,
        coprime_with_xq_minus_1: bool,
        f_at_one: int,
        zero_for_order: dict[int, bool],
        flagged_zero_coefficients: list[int],
    ):
        self.p = p
        self.q = q
        self.b0 = b0
        self.b1 = b1
        self.b_p_minus_1 = b_p_minus_1
        self.b_p = b_p
        self.divisible_by_xq_plus_1 = divisible_by_xq_plus_1
        self.coprime_with_xq_minus_1 = coprime_with_xq_minus_1
        self.f_at_one = f_at_one
        # d -> whether f(zeta**k) = 0 when zeta**k has order d
        self.zero_for_order = zero_for_order
        self.flagged_zero_coefficients = flagged_zero_coefficients

    def zero_characters(self) -> np.ndarray:
        """Bool array over k = 0..p-2: whether the sum for xi = chi**k
        vanishes, the verdict of the order (p-1)/gcd(k, p-1) of zeta**k."""
        n = self.p - 1
        orders = n // np.gcd(np.arange(n), n)
        return np.isin(orders, [d for d, zero in self.zero_for_order.items() if zero])

    # k is even iff zeta**k has odd order: 1 (k = 0) or q (gcd(k, 2q) = 2);
    # k is odd iff it has even order: 2 (k = q) or 2q (gcd(k, 2q) = 1)
    def all_even_nonzero(self) -> bool:
        return not self.zero_for_order[1] and not self.zero_for_order[self.q]

    def all_odd_zero(self) -> bool:
        return self.zero_for_order[2] and self.zero_for_order[2 * self.q]


def even_character_obstruction(p: int) -> EvenObstructionReport:
    """The vanishing of sum_j delta_xi(j) delta_xibar(p-j), xi = chi**k,
    as four verdicts, one per order d in {1, 2, q, 2q} of zeta**k.

    The sum for xi = chi**k equals f_chi(zeta**k), and zeta**k has order
    (p-1)/gcd(k, p-1); f(zeta**k) = 0 iff the corresponding cyclotomic
    polynomial divides the folded polynomial g, which is decided exactly
    from its remainders by x**q -+ 1.  The two x**q -+ 1 flags are read from
    the same four tests (``xq_flags``), and b_i, f(1) and the flagged zero
    coefficients from f's int64 array; a b_i past f's end is 0.
    """
    if not is_safe_prime_shape(p):
        raise ValueError(f"{p} is not 2q+1 with q = 1 (mod 4) prime")
    q = (p - 1) // 2
    f = f_poly(DirichletCharacter(p, 2, 1))
    zero_for_order = cyclotomic_zeros(reduce_g(f, p), p - 1)
    divisible, coprime = xq_flags(zero_for_order, q)
    b = [int(f[i]) if i < len(f) else 0 for i in (0, 1, p - 1, p)]
    flagged = np.flatnonzero(f == 0)
    return EvenObstructionReport(
        p,
        q,
        *b,
        divisible,
        coprime,
        int(f.sum()),  # at most f_at_one_bound(p) < 2**63
        zero_for_order,
        flagged[(flagged != p - 1) & (flagged != p)].tolist(),
    )
