"""Slow, independent oracles that the tests check the package's fast paths
against.  Nothing in ``farkas`` imports this module.

``kronecker_product`` is the whole-series product by Kronecker
substitution in libmpdec, O(m log m) through its number-theoretic
transform and exact by construction: it shares no code and no arithmetic
with ``qseries._full_product``'s float64 FFT.  ``bernoulli_B2_psi_cohen``
is Cohen's divisor-sum formula for B_{2,psi}, and ``discrete_log_walk``
the discrete-log table by one multiplication per power of g.
``quartic_primes_walk`` and ``safe_prime_walk`` are the prime scans as
their definitions read, one primality test per candidate, and
``f_coefficients_per_j`` counts f_xi's exponent sums one j at a time.
"""
import decimal
from fractions import Fraction

import numpy as np

from farkas.charpoly import is_safe_prime_shape, two_generates
from farkas.foundations import divisors, is_prime, sigma1

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
