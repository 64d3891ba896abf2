"""Truncated q-expansions of the divisor-sum generating functions.

Provides the weight-one delta coefficients attached to a character, the
three weight-two divisor sums, the generalized Bernoulli number B_{2,psi}
as one dot over the Kronecker table, and exact products of whole series.

The fast path is one integer layer: cached one-period tables of chi and
(p/.) feed one divisor sieve for the int16 arrays of delta_chi(n) and the
int64 arrays of sigma'_p, sigma~_p, sigma^_p (n >= 1); with s = 2p,
s * delta_chi(0) is a Gaussian integer, so the Convolver computes
s**2 F_chi(n), s**2 H_chi(n) in Gaussian integers.  The per-n scalars,
``QSeries`` and ``cauchy_product`` at the end of the module are test
oracles only.

The (p/.) table, for p = 1 (mod 4), is one period built in numpy from the
squares mod p and reciprocity, with no ``kronecker`` call per entry.  The
sieve splits the pairs d q <= N at sqrt(N) (Dirichlet's hyperbola method):
one strided slice per small d, and one per cofactor q for each block of
SIEVE_BLOCK large d.
That is O(sqrt(N) + (N / SIEVE_BLOCK) log N) interpreter steps, for the
same O(N log N) numpy work, with scratch beside the result bounded by a
few blocks plus one N-entry array.  The sieve fills any range [lo, N] of
an array whose prefix it is given, so an array grows without re-sieving:
the sweeps sieve delta_chi and the divisor sums as they read, one segment
per sweep block (``Convolver.extend`` and the ``prefix`` of the array
builders), and a sweep that stops at n sieves O(n) coefficients of
delta_chi.

delta_chi is stored once, as the int16 pair (Re, Im): |delta_chi(n)| is at
most d(n) <= MAX_DIVISOR_COUNT = 240, and H's tails form Re +- Im, at most
480 < 2**15 (both asserted below).  That pair is all a sweep holds of
delta_chi, 4 bytes per index.  It is sieved in one int32 pass over the
packed table Re chi * 2**16 + Im chi, and the pair is the two int16
halves of that one array (see ``delta_int_arrays``).

Every F and H value the Convolver gives, a sweep block or the dilated
lookups F(95 n) of a configured identity, is read from a tail built by
one ``_full_product`` call on the int16 delta_chi arrays as they are: a
read of n = r + k C sums the weighted, shifted products of the residue
rows delta(u C + t), and a step-1 read is C = 1 (``_class_product``).
Every compared block, F and H as much as the sweeps' rhs, is one sum
sum_k (c_k + i d_k)(x_k + i y_k) built by ``exact_sum``, the one place
that chooses int64 (under a bound below INT64_CAP = 2**62, from the
block's largest values and every scalar) or object arrays of Python
ints.  A product of more than DIRECT_PRODUCT = 128 coefficients is one
float64 FFT (``_fft_product``), O(m log m), with one ``irfft`` and
``rint`` per shift, exact under Percival's error bound, derived there for
numpy's pocketfft and asserted at most 1/8 on every call (and at import
for the largest class sum of any read up to MAX_FAST_N); every value
must also lie within 1/8 of an integer, or it raises.  A shorter product
is ``np.convolve`` in int64.  float64 is the package's one float type,
and only ``_fft_product`` names it.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.fft import irfft, rfft

from .characters import DirichletCharacter
from .foundations import (
    PRIMES_CACHED, FrozenRecord, GaussianRational, discrete_log_table, divisors, is_prime,
    kronecker,
)

MAX_FAST_N = 1_000_000  # largest N of the sieves and kernel
# largest p whose tables are built: the int64 discrete logs, Re and Im chi
# and (p/.) hold 32 bytes per residue, 256 MiB at p = 2**23, with at most
# as much again in scratch while they are built; p**2 fits int64
MAX_PRIME = 2**23
assert MAX_PRIME**2 < 2**63
MAX_DIVISOR_COUNT = 240  # max d(n) for n <= MAX_FAST_N, at n = 720720 (tested)
INT16_MAX = 2**15 - 1
# |Re|, |Im| of delta_chi(n) are at most d(n) <= MAX_DIVISOR_COUNT, and H's
# tails add and subtract them: both fit the int16 store
assert 2 * MAX_DIVISOR_COUNT <= INT16_MAX
# delta_chi is sieved once as Re * PACK + Im in int32: each part's partial
# sums lie within +-MAX_DIVISOR_COUNT < PACK / 2, so after a bias of PACK / 2
# the halves hold Re and (flipped) Im, and the sum stays inside int32
PACK = 2**16
assert MAX_DIVISOR_COUNT < PACK // 2 and MAX_DIVISOR_COUNT * (PACK + 1) + PACK // 2 < 2**31
# an exact block (``exact_sum``) is int64 when a bound on every scalar,
# intermediate and value of its expression is below this, else an object
# array of Python ints: one bit of headroom, so the sum or difference of
# two such blocks fits int64 as well
INT64_CAP = 2**62
assert 2 * INT64_CAP <= 2**63
SIEVE_BLOCK = 1 << 13  # large divisors whose c(d) the sieve builds at once
DIRECT_PRODUCT = 128  # longest product taken by int64 np.convolve, not the FFT (measured)
FLOAT64_UNIT = 2.0**-53  # unit roundoff u: a rounded operation errs by at most u |result|
TWIDDLE_ERROR = 4 * FLOAT64_UNIT  # beta, the relative error of pocketfft's twiddles (tested)
FFT_ERROR = 1 / 8  # largest error bound of an FFT product: 4x below the 1/2 rounding needs


# ---------------------------------------------------------------------
# periodic tables and the divisor sieve
# ---------------------------------------------------------------------

@lru_cache(maxsize=2 * PRIMES_CACHED)
def character_table(chi: DirichletCharacter) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) int64 arrays of chi(a) for a in 0..p-1, one period of chi.

    chi(g) = zeta_{p-1}**e lies in Q(i) exactly when (p - 1) divides 4e,
    and then chi(g**t) = i**(j t) with j = 4e / (p - 1): the tables are
    two lookups of j t mod 4 over the discrete logarithms t.  Like
    ``chi.value``, it rejects characters whose values leave Q(i).
    """
    p, e = chi.p, chi.e
    j, rem = divmod(4 * e, p - 1)
    if rem:
        raise ValueError(f"character of order {chi.order} takes values outside Q(i)")
    quarter = j * discrete_log_table(p) & 3  # chi(a) = i**quarter[a]
    table = []
    for powers_of_i in ((1, 0, -1, 0), (0, 1, 0, -1)):  # re, im
        part = np.array(powers_of_i, dtype=np.int64)[quarter]
        part[0] = 0  # chi(0) = 0
        part.flags.writeable = False
        table.append(part)
    return table[0], table[1]


@lru_cache(maxsize=PRIMES_CACHED)
def kronecker_table(p: int) -> np.ndarray:
    """int64 array of (p/a) for a in 0..p-1, one period of (p/.), for a
    prime p = 1 (mod 4): then (p/.) = (./p) by reciprocity, +1 on the
    squares k**2 mod p, -1 on the other units and 0 at a = 0.  For
    p = 3 (mod 4), (p/.) has no period over all arguments ((3/2) = -1 but
    (3/14) = +1), and no identity of this package reads it.
    """
    if p % 4 != 1 or not is_prime(p):
        raise ValueError(f"kronecker_table requires a prime p = 1 (mod 4), got {p}")
    table = np.full(p, -1, dtype=np.int64)  # (a/p): +1 on the squares k**2
    table[0] = 0
    k = np.arange(1, p // 2 + 1, dtype=np.int64)
    table[k * k % p] = 1
    table.flags.writeable = False
    return table


def _sieve(
    table: np.ndarray, N: int, times_d: bool = False, quotient: bool = False,
    prefix: np.ndarray | None = None, dtype=np.int64,
) -> np.ndarray:
    """``dtype`` array of sum_{d | n} c(d) w(n/d) for n in 1..N (index 0 is
    zero); int64 unless the caller bounds every partial sum, as
    ``delta_int_arrays`` does for int16.

    c(d) = table[d mod len(table)], multiplied by d when ``times_d``;
    w(q) = q when ``quotient``, else 1.  With ``prefix``, the values at
    n < lo = len(prefix) are copied from it and only n in [lo, N] are
    sieved, straight into the result: an array grows without re-sieving
    its prefix, and sieving [1, N1] then [N1 + 1, N] gives the one-shot
    array.

    Dirichlet's hyperbola split of the pairs d q <= N at r = isqrt(N): each
    small d <= r adds one strided slice, out[d q0::d] from its first
    multiple d q0 >= lo.  A large d > r has cofactor q <= N // (r + 1) <= r,
    so c(d) is built for SIEVE_BLOCK large d at a time, and each q with a
    multiple of the block in [lo, N] adds c(d) w(q) for those d in one
    slice out[q d1 : q d2 : q].  Interpreter steps for lo = 1: r + sum over
    the blocks of 1 + N // d_lo, about 2 sqrt(N) + (N / SIEVE_BLOCK)
    (2 + ln N): 999 at N = 2 * 10**5, 2705 at N = 10**6; a block whose
    first d is d_lo skips the q below lo / (d_lo + SIEVE_BLOCK).  Scratch
    beside ``out``: at most four SIEVE_BLOCK-entry arrays (d, d mod period,
    c, and the last block's c), or one (N - lo + 1)-entry weight array for
    d = 1 when ``quotient``.  The c(d) of all small d are one vectorised
    lookup before the loop: a table read per d cost the ``prove`` benchmark
    about 10 % of its throughput.
    """
    if not 0 <= N <= MAX_FAST_N:
        raise ValueError(f"fast path needs 0 <= N <= {MAX_FAST_N}, got {N}")
    out = np.zeros(N + 1, dtype=dtype)
    if prefix is not None:
        if len(prefix) > N + 1:
            raise ValueError(f"a prefix of {len(prefix)} values does not fit 0..{N}")
        out[: len(prefix)] = prefix
    lo = 1 if prefix is None else max(len(prefix), 1)
    period = len(table)
    r = math.isqrt(N)
    small = np.arange(1, r + 1, dtype=np.int64)
    c_small = table[small % period] * (small if times_d else 1)
    for d, c in zip(range(1, r + 1), c_small.tolist()):
        if not c:
            continue
        q0 = -(-lo // d)
        # c w(q) for q = q0..N//d; with w(q) = q that is c q0, c (q0 + 1), ...
        # (a temporary: no weight array outlives its d)
        out[d * q0 :: d] += (
            np.arange(c * q0, c * (N // d + 1), c, dtype=np.int64) if quotient else c
        )
    for d_lo in range(r + 1, N + 1, SIEVE_BLOCK):
        d_hi = min(d_lo + SIEVE_BLOCK, N + 1)
        q_first = -(-lo // (d_hi - 1))  # q d < lo for every d of the block below it
        if q_first > N // d_lo:
            continue
        d = np.arange(d_lo, d_hi, dtype=np.int64)
        c = table[d % period]
        if times_d:
            c *= d
        for q in range(q_first, N // d_lo + 1):
            i = max(-(-lo // q) - d_lo, 0)  # d from d_lo + i on have q d >= lo
            k = min(d_hi, N // q + 1) - d_lo  # d below d_lo + k have q d <= N
            out[q * (d_lo + i) : q * (d_lo + k) : q] += (
                q * c[i:k] if quotient and q > 1 else c[i:k]
            )
    return out


# ---------------------------------------------------------------------
# delta series
# ---------------------------------------------------------------------

@lru_cache(maxsize=2 * PRIMES_CACHED)
def _delta0_numerator(chi: DirichletCharacter) -> tuple[int, int]:
    """2p * delta_chi(0) = -sum_{a=1}^{p-1} chi(a) a, a Gaussian integer.

    Cached like ``character_table``: the constants, the Convolver and both
    obstructions of a scan read it for one character, and it is one O(p)
    dot."""
    if chi.is_trivial():
        raise ValueError("delta constant is defined for non-trivial characters only")
    re, im = character_table(chi)
    a = np.arange(chi.p, dtype=np.int64)
    return -int(re @ a), -int(im @ a)


def delta_constant(chi: DirichletCharacter) -> GaussianRational:
    """delta_chi(0) = -(1/2p) * sum_{a=1}^{p-1} chi(a) a, exact in Q(i)."""
    re, im = _delta0_numerator(chi)
    return GaussianRational(Fraction(re, 2 * chi.p), Fraction(im, 2 * chi.p))


def delta_int_arrays(
    chi: DirichletCharacter, N: int, prefix: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) int16 arrays of delta_chi(n) for n in 1..N (index 0 is zero).

    One int32 sieve of the packed table Re chi * 2**16 + Im chi: the table
    holds -1, 0, 1 in each part, so each partial sum is P = R 2**16 + I
    with |R|, |I| <= d(n) <= MAX_DIVISOR_COUNT < 2**15 (asserted at
    import), which fits int32.  P + 2**15 = R 2**16 + (I + 2**15) with
    0 < I + 2**15 < 2**16, so its high 16 bits are R and its low 16 bits,
    with the top bit flipped, are I: the pair is two strided int16 views
    of the one little-endian int32 array, split in place with no copy.
    ``prefix``, such a pair to a lower N, is packed and extended: only the
    new indices are sieved."""
    re, im = character_table(chi)
    if prefix is not None:
        prefix = prefix[0].astype(np.int32) * PACK + prefix[1]
    packed = _sieve(re * PACK + im, N, prefix=prefix, dtype=np.dtype("<i4"))
    packed += PACK // 2
    halves = packed.view(np.dtype("<i2")).reshape(-1, 2)  # (low, high) per index
    halves[:, 0] ^= np.int16(-PACK // 2)  # flip the top bit: I
    return halves[:, 1], halves[:, 0]


# ---------------------------------------------------------------------
# weight-two divisor sums
# ---------------------------------------------------------------------

# each sigma_*_values(p, N, prefix) extends ``prefix``, the array to a lower
# N, sieving only the new indices

def sigma_prime_values(p: int, N: int, prefix: np.ndarray | None = None) -> np.ndarray:
    """int64 array of sigma'_p(n), n in 1..N (index 0 is zero)."""
    coprime = np.sign(np.arange(p, dtype=np.int64))  # 0 at a = 0, else 1
    return _sieve(coprime, N, times_d=True, prefix=prefix)


def sigma_tilde_values(p: int, N: int, prefix: np.ndarray | None = None) -> np.ndarray:
    """int64 array of sigma~_p(n), n in 1..N (index 0 is zero)."""
    return _sieve(kronecker_table(p), N, times_d=True, prefix=prefix)


def sigma_hat_values(p: int, N: int, prefix: np.ndarray | None = None) -> np.ndarray:
    """int64 array of sigma^_p(n), n in 1..N (index 0 is zero)."""
    return _sieve(kronecker_table(p), N, quotient=True, prefix=prefix)


@lru_cache(maxsize=PRIMES_CACHED)
def bernoulli_B2_psi(p: int) -> Fraction:
    """B_{2,psi} for the quadratic character psi = (p/.) mod p, p = 1 (mod 4):
    sum_{a<p} psi(a) a**2 / p, one O(p) dot over ``kronecker_table(p)``.

    B_{2,psi} = p sum_{a=1}^{p} psi(a) B_2(a/p) with B_2(x) = x**2 - x + 1/6,
    that is sum psi(a) a**2 / p - sum psi(a) a + (p / 6) sum psi(a).  psi
    is even, so sum psi(a) = 0 and a <-> p - a gives sum psi(a) a =
    p sum psi(a) - sum psi(a) a = 0.  The dot runs over chunks of
    L = 2**63 // p**2 terms (one chunk for p < 2**21): every partial sum
    of a chunk is at most L p**2 <= 2**63 in magnitude, so int64 holds it,
    and the chunk sums add in Python ints.  (Cohen's divisor-sum formula is
    the tests' oracle.)
    """
    if p % 4 != 1 or not is_prime(p):
        raise ValueError(f"B_2,psi requires a prime p = 1 (mod 4), got {p}")
    assert p * p < 2**63, p
    psi, step, total = kronecker_table(p), 2**63 // (p * p), 0
    for lo in range(0, p, step):
        a = np.arange(lo, min(lo + step, p), dtype=np.int64)
        total += int(psi[lo : lo + step] @ (a * a))
    return Fraction(total, p)


# ---------------------------------------------------------------------
# exact whole-series products
# ---------------------------------------------------------------------

def _fft_error(r: int, m: int, Kx: int, Ky: int) -> float:
    """Percival's bound on the error of every value of ``_fft_product``
    for pairs of weight sum r and length m, factors at most Kx and Ky in
    magnitude, at the transform length n = 2**k >= 2 m - 1 (see there)."""
    k = (2 * m - 2).bit_length()
    growth = (
        (3 * k + r - 1) * math.log1p(FLOAT64_UNIT)
        + (3 * k + 1) * math.log1p(math.sqrt(5) * FLOAT64_UNIT)
        + 3 * k * math.log1p(TWIDDLE_ERROR)
    )
    return r * m * Kx * Ky * math.expm1(growth)


# the largest class sum of any tail: H's factors (|entries| <= 480) over the
# most classes ``_split`` takes, D (D - 1) <= MAX_FAST_N, at weight sum D.
# F's and every smaller D give less (tested): no tail is inverted in groups
MAX_CLASSES = (1 + math.isqrt(4 * MAX_FAST_N + 1)) // 2
assert _fft_error(
    MAX_CLASSES, MAX_FAST_N // MAX_CLASSES + 1, 2 * MAX_DIVISOR_COUNT, 2 * MAX_DIVISOR_COUNT
) <= FFT_ERROR


def _fft_product(pairs, Kx: int, Ky: int) -> np.ndarray:
    """``_full_product``'s c for factors at most Kx and Ky in magnitude:
    one float64 FFT product per shift, rounded, under an error bound
    asserted at most FFT_ERROR = 1/8.

    Take n = 2**k, the least power of two >= 2 m - 1, so that the cyclic
    convolution of the zero-padded factors is the linear one.  Each factor
    is transformed once by ``rfft`` (a square, y is x, once in all), each
    pair's spectrum times its weight w (2 or 1: exact) is summed in place
    into the spectrum of its shift s, and one ``irfft`` per shift returns c~_s,
    which ``rint`` takes to the nearest integers, added to c at n >= s.

    Exact.  Percival's theorem (Math. Comp. 72 (2003); Brent and
    Zimmermann, Modern Computer Arithmetic, section 3.3): for a product by
    radix-2 transforms of length 2**k, in arithmetic of unit roundoff u
    (2**-53) with twiddle factors of relative error at most beta,
        |c~[n] - c[n]| < |x| |y| ((1 + u)**(3k) (1 + sqrt(5) u)**(3k+1)
                                  (1 + beta)**(3k) - 1),
    |.| the Euclidean norm: k levels for each of the three transforms,
    sqrt(5) u for each rounded complex product (the twiddles, and the
    spectra once).  What runs is numpy's pocketfft, at n = 2**k in
    radix-4 passes and at most one radix-2 pass.  A radix-4 pass forms
    each output by two levels of rounded additions (the inner factor -i is
    a swap and a sign, exact) and one rounded twiddle product: the two
    additions of two radix-2 levels and one of their two products, so its
    factor (1 + u)**2 (1 + sqrt(5) u)(1 + beta) is at most theirs, and the
    bound for k radix-2 levels covers it.  ``rfft`` and ``irfft`` run the
    real-data form of the same passes: each value they store is a value of
    the complex transform of the real input, formed by the same additions
    and products written out in real operations (a rounded complex
    addition errs by at most u times its result, and a product by the
    standard formula by sqrt(5) u), and the values the symmetry supplies
    are skipped, not rounded.  The scaling by 1/n is exact.  Doubling a
    spectrum is exact and doubles its error: a pair of weight w counts as
    w pairs.  So with r the weight sum, summing the spectra of a shift
    rounds each summand up to r - 1 more times, (1 + u)**(r-1) on the sum
    of the bounds w |x| |y| <= w m Kx Ky, at most r m Kx Ky, and every
    |c~_s[n] - c_s[n]| is at most ``_fft_error(r, m, Kx, Ky)``, with beta
    = TWIDDLE_ERROR = 4 u for pocketfft's twiddles (tested against long
    double).  For F's tail at m = 10**6 + 1, r = 2 and 240, that is
    5.9e-3; for a pair of 480 at that length, 1.2e-2; for the largest
    class sum of any read (MAX_CLASSES), 3.2e-2.  No product whose bound
    exceeds 1/8 is routed here (asserted again below), four times below
    the 1/2 under which the nearest integer is c_s[n].  Every |c[n]| is
    at most r m Kx Ky, asserted below 2**63 by the caller (and below 2**53
    by the bound), so each c~_s rounds and casts to the exact int64.

    Checked too: every c~_s[n] must lie within FFT_ERROR of an integer,
    or ``FloatingPointError`` is raised (the CLI exits 4); no value is
    ever taken from elsewhere.  Scratch at 10**6 (step 1, one shift): two
    spectra of n / 2 + 1 complex values, 33.6 MB, then the n-value
    inverse and the rounded m values.
    """
    m, r = len(pairs[0][0]), sum(w for _, _, w, _ in pairs)
    assert _fft_error(r, m, Kx, Ky) <= FFT_ERROR, (r, m, Kx, Ky)
    n = 1 << (2 * m - 2).bit_length()
    spectra = {}  # shift -> the summed spectrum of its pairs
    for x, y, w, s in pairs:
        X = rfft(x, n)
        X *= X if y is x else rfft(y, n)
        if w != 1:
            X *= w
        spectrum = spectra.setdefault(s, X)
        if spectrum is not X:
            spectrum += X
        del X, spectrum
    out = np.zeros(m, dtype=np.int64)
    for s in sorted(spectra):
        c = irfft(spectra.pop(s), n)[: m - s]
        rounded = np.rint(c)
        c -= rounded
        distance = max(c.max(), -c.min())
        if not distance <= FFT_ERROR:  # NaN fails too
            raise FloatingPointError(
                f"FFT product of length {m}: a value lies {distance:.3g} from the "
                f"nearest integer, past the {FFT_ERROR} its error bound allows"
            )
        del c
        out[s:] += rounded.astype(np.int64)
    return out


def _full_product(*pairs, bounds: tuple[int, int] | None = None) -> np.ndarray:
    """int64 c[n] = sum over the pairs (x, y, w, s) of w sum_{j=0}^{n-s}
    x[j] y[n-s-j] for n < m, from int16 or int64 x, y all of one length
    m >= 1, weights w in {1, 2} and shifts s in {0, 1}; (x, y) is
    (x, y, 1, 0).  Exact.  The Convolver passes its int16 delta arrays, or
    strided views of their residue rows, with no wider copy: one call per
    tail (see ``_class_product``).

    With Kx, Ky the largest |x|, |y| (``bounds``, if the caller has them)
    and r the weight sum, every value and partial sum is at most
    r m Kx Ky, asserted below 2**63.  A product of more than
    DIRECT_PRODUCT = 128 coefficients is one float64 FFT
    (``_fft_product``), O(m log m), whenever its error bound
    ``_fft_error`` is at most FFT_ERROR = 1/8, as for every tail up to
    MAX_FAST_N (asserted at import).  A shorter one, or one of entries
    too large for that bound, is ``np.convolve`` in int64, exact by the
    bound above.  The 128 is
    measured on F's tail a*a + b*b of p = 13 (2-core Xeon VM, Python
    3.11, numpy 2.4; min of 9 runs): np.convolve took 11.0 us against the
    FFT's 25.9 us at m = 64, 28.0 against 29.3 us at m = 128, and 55.2
    against 32.9 us at m = 192.
    """
    pairs = [(*pair, 1, 0)[:4] for pair in pairs]
    lengths = [len(v) for pair in pairs for v in pair[:2]]
    m = lengths[0]
    if m == 0 or set(lengths) != {m}:
        raise ValueError(f"expected non-empty series of one length, got {lengths}")
    dtypes = {v.dtype for pair in pairs for v in pair[:2]}
    assert dtypes <= {np.dtype(np.int16), np.dtype(np.int64)}, dtypes
    assert all(w in (1, 2) and s in (0, 1) for _, _, w, s in pairs)
    Kx, Ky = bounds or (max(max_abs(pair[i]) for pair in pairs) for i in (0, 1))
    r = sum(w for _, _, w, _ in pairs)
    assert r * m * Kx * Ky < 2**63, (r, m, Kx, Ky)
    if m > DIRECT_PRODUCT and _fft_error(r, m, Kx, Ky) <= FFT_ERROR:
        return _fft_product(pairs, Kx, Ky)
    c = np.zeros(m, dtype=np.int64)
    for x, y, w, s in pairs:
        if m > s:
            x, y = w * x[: m - s].astype(np.int64), y[: m - s].astype(np.int64)
            c[s:] += np.convolve(x, y)[: m - s]
    return c


# ---------------------------------------------------------------------
# convolutions F and H
# ---------------------------------------------------------------------

def max_abs(arr: np.ndarray) -> int:
    """max |arr| as a Python int (0 when empty), for int16, int64 or object arr."""
    return max(int(arr.max()), -int(arr.min())) if len(arr) else 0


def exact_sum(terms, at_zero: tuple[int, int] | None = None):
    """sum_k (c_k + i d_k)(x_k + i y_k) as two arrays (re, im) of one dtype,
    exact, for ``terms`` of pairs ((c_k, d_k), (x_k, y_k)): Python-int
    scalars and integer arrays of one length, y_k None for 0.  ``at_zero``,
    an int pair, replaces the value at index 0.

    The one choice between int64 and object arrays of Python ints.  With
    M = max |x_k|, |y_k| over the block, every scalar, product, partial
    sum and value of the expression is at most
    max(|c_k|, |d_k|, sum_k (|c_k| + |d_k|) M, |at_zero|): int64 when that
    is below INT64_CAP, else object.  M takes one ``max_abs`` per array."""
    M = max((max_abs(v) for _, xy in terms for v in xy if v is not None), default=0)
    bound = max(
        max(max(abs(c), abs(d)) for (c, d), _ in terms),
        sum(abs(c) + abs(d) for (c, d), _ in terms) * M,
        *map(abs, at_zero or ()),
    )
    dtype = np.dtype(np.int64) if bound < INT64_CAP else np.dtype(object)
    re, im = (np.zeros(len(terms[0][1][0]), dtype=dtype) for _ in range(2))
    for (c, d), (x, y) in terms:
        # x adds c x to re and d x to im; y adds -d y and c y
        for v, to_re, to_im in ((x, c, d), (y, -d, c)):
            if v is None:
                continue
            v = v.astype(dtype, copy=False)
            if to_re:
                re += to_re * v
            if to_im:
                im += to_im * v
    if at_zero is not None:
        re[0], im[0] = at_zero
    return re, im


def _residue_rows(v: np.ndarray, m: int, C: int) -> list[np.ndarray]:
    """rows[t][u] = v[u C + t] for t < C, u < m: the residue classes of the
    indices of v mod C, as strided views of v (of a copy padded with zeros
    when v ends before m C)."""
    short = m * C - len(v)
    if short > 0:
        v = np.concatenate((v, np.zeros(short, dtype=v.dtype)))
    return [v[t : m * C : C] for t in range(C)]


def _class_product(factors, m: int, C: int, r: int) -> np.ndarray:
    """int64 T[k] = sum over (x, y) in ``factors`` of sum_{0<=j<=n} x[j]
    y[n-j] at n = r + k C, for k < m and 0 <= r < C, from arrays x, y that
    reach at least r + (m - 1) C + 1 (the entries past it are never read),
    in one ``_full_product`` call.

    Split j = u C + t with t < C, and write x_t, y_t for the residue rows
    x[u C + t], y[u C + t] (``_residue_rows``).  Then n - j = (k - u) C +
    r - t, so
        T[k] = sum_{t<=r} (x_t * y_{r-t})[k] + sum_{t>r} (x_t * y_{C+r-t})[k-1]:
    C pairs (x_t, y_s, weight, shift) of length m per factor, shift 1 for
    t > r.  For a square x * x, as F's factors are, the classes (t, s)
    and (s, t) give one product: only t <= s is taken, t < s at weight 2,
    as many multiply-adds as summing each pair (j, n - j) once.  Step 1 is
    C = 1, the whole-series product (a square passes one row object twice,
    which the FFT transforms once)."""
    pairs = []
    for x, y in factors:
        X = _residue_rows(x, m, C)
        Y = X if y is x else _residue_rows(y, m, C)
        for t in range(C):
            s = (r - t) % C
            if y is not x or t <= s:  # a square takes (t, s) and (s, t) once
                pairs.append((X[t], Y[s], 1 + (y is x and t < s), int(t > r)))
    Kx = max(max_abs(x) for x, _ in factors)
    Ky = Kx if all(y is x for x, y in factors) else max(max_abs(y) for _, y in factors)
    return _full_product(*pairs, bounds=(Kx, Ky))


def _split(step: int, top: int) -> int:
    """The modulus D of the residue rows of a read of step ``step`` up to
    index ``top``: the largest divisor D of step with D (D - 1) <= top, so
    that there are no more rows than each row has coefficients, top // D +
    1.  The lookups of a configured identity take D = step; a read of a
    few values far out takes fewer, longer rows and every (step / D)-th k
    of their tail, so that it makes O(sqrt(top)) products, not one per
    residue class of step.  Step 1 is D = 1."""
    return max(d for d in divisors(step) if d * (d - 1) <= top)


class Convolver:
    """F_chi / H_chi over the common denominator s**2, s = 2p.

    With a, b the int16 arrays of Re, Im delta_chi(j) (a[0] = b[0] = 0) and
    L = s delta_chi(0), for n >= 1
        s**2 F(n) = s**2 T(n) + s (L delta'(n) + delta(n) L'),
    where delta' is conj(delta_chi) for F and delta_chi for H, L' likewise,
    and T(n) = sum_{0<j<n} delta(j) delta'(n-j) is the tail.  For F,
    T = a*a + b*b: the imaginary part cancels under j <-> n - j.  For H,
    T = (a+b)*(a-b) + 2i a*b.

    There is one read, ``numerators(lo, hi, c, step)``: F or H at n = lo,
    lo + step, ... below hi, from the tail T(r + k D), r = lo mod D, over
    k = 0..top for the last n = r + top D, and a divisor D of step
    (``_split``: 1 for a sweep, step for the lookups F(k C) of a
    configured identity).  Each read builds its own tail with
    ``_class_product``, in one ``_full_product`` call per tail (F's one,
    H's Re and Im two) from the pairs of the D residue classes, each of
    length top + 1: past DIRECT_PRODUCT coefficients one float64 FFT
    product, O(m log m), with one inverse transform per shift (one at
    D = 1, at most two at D > 1), and int64 np.convolve up to it.  No tail
    outlives its read, so a Convolver holds only a and b.  ``F`` and
    ``H`` are thin calls into it.  A sweep's blocks end at powers of 4
    (``identities._run_verification``), so the tails of a sweep to N are
    4, 16, ..., 4**k and N + 1 coefficients, all but the last half their
    transform length, and O(N) coefficients in all.

    a, b are sieved only as far as asked, 4 bytes per index: a read
    ``extend``s them to its last n, sieving only the new indices.
    ``numerators`` sums the expression above with ``exact_sum``: int64 or
    object arrays of Python ints, as its bound decides.
    """

    def __init__(self, chi: DirichletCharacter):
        self.chi = chi
        self.denominator = (2 * chi.p) ** 2
        self._L = _delta0_numerator(chi)
        self._re = self._im = np.zeros(1, dtype=np.int16)

    @property
    def capacity(self) -> int:
        """The largest n whose delta_chi(n) is sieved."""
        return len(self._re) - 1

    def extend(self, n: int) -> None:
        """Sieve delta_chi to exactly n, if it is not sieved that far: only
        the new indices are sieved."""
        if n > self.capacity:
            self._re, self._im = delta_int_arrays(self.chi, n, prefix=(self._re, self._im))

    def _whole_tail(self, m: int, c: int, D: int, r: int):
        """(Re T, Im T) at r + k D for k = 0..m, Im T None for F: one
        ``_class_product`` per part."""
        n = min((m + 1) * D, len(self._re))
        a, b = self._re[:n], self._im[:n]  # |a +- b| <= 480: int16
        if c < 0:
            factors = [(a, a)] if not b.any() else [(a, a), (b, b)]  # b*b = 0 for a real chi
            return _class_product(factors, m + 1, D, r), None
        re = _class_product([(a + b, a - b)], m + 1, D, r)
        im = _class_product([(a, b)], m + 1, D, r)
        im *= 2
        return re, im

    def numerators(
        self, lo: int, hi: int, c: int, step: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """``denominator`` times F (c = -1) or H (c = 1) at n = lo,
        lo + step, ... below hi, as two arrays (re, im) of one dtype: int64
        or object arrays of Python ints, as ``exact_sum`` bounds the block
        from its largest |T| and |delta_chi|.  delta_chi is sieved to the
        last n, and T is read from the tail T(r + k D) built to it, D =
        ``_split(step, ..)``, r = lo mod D, at k = lo // D, lo // D +
        step / D, ...

        With delta_chi = x + i y over the block and L = u + i v, s (L
        delta' + delta L') is 2 s (u x + v y) for F and 2 s L delta for H,
        and n = 0 takes s**2 delta_chi(0) delta'(0) = L L', L' = u + i c v."""
        if not 0 <= lo <= hi:
            raise ValueError(f"F and H expect 0 <= lo <= hi, got [{lo}, {hi})")
        if step < 1:
            raise ValueError(f"F and H expect step >= 1, got {step}")
        ns = range(lo, hi, step)
        if not ns:  # nothing to read: no sieve, no tail
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        D = _split(step, ns[-1])
        self.extend(ns[-1])
        tail_re, tail_im = (
            None if t is None else t[lo // D :: step // D]
            for t in self._whole_tail(ns[-1] // D, c, D, lo % D)
        )
        x, y = self._re[lo:hi:step], self._im[lo:hi:step]
        (u, v), s = self._L, 2 * self.chi.p
        if c < 0:
            terms = [((s * s, 0), (tail_re, None)), ((2 * s * u, 0), (x, None)),
                     ((2 * s * v, 0), (y, None))]
        else:
            terms = [((s * s, 0), (tail_re, tail_im)), ((2 * s * u, 2 * s * v), (x, y))]
        zero = (u * u - c * v * v, (1 + c) * u * v) if lo == 0 else None
        return exact_sum(terms, zero)

    def F(self, n: int, stop: int | None = None, step: int = 1):
        """``denominator`` times F_chi(n) = sum_{j=0}^{n} delta_chi(j)
        delta_chibar(n-j), as an int pair (re, im).  With ``stop``, the same
        at n, n + step, ... below stop (none when stop <= n), as two arrays
        in the format of ``numerators``: one ``numerators`` read."""
        return self._read(n, stop, step, -1)

    def H(self, n: int, stop: int | None = None, step: int = 1):
        """``denominator`` times H_chi(n) = sum_{j=0}^{n} delta_chi(j)
        delta_chi(n-j), as an int pair (re, im); with ``stop``, as ``F``."""
        return self._read(n, stop, step, 1)

    def _read(self, n: int, stop: int | None, step: int, c: int):
        """``F`` (c = -1) or ``H`` (c = 1); ``numerators`` rejects n < 0."""
        re, im = self.numerators(n, n + 1 if stop is None else max(n, stop), c, step=step)
        return (re, im) if stop is not None else (int(re[0]), int(im[0]))


@lru_cache(maxsize=2 * PRIMES_CACHED)
def convolver(chi: DirichletCharacter) -> Convolver:
    return Convolver(chi)


# ---------------------------------------------------------------------
# slow oracles
# ---------------------------------------------------------------------
# Exact series of Gaussian rationals, the generic O(N**2) Cauchy product and
# the per-coefficient scalars: no command calls them, and the tests check
# the fast path against them.  They stay in this module only because the
# benchmark's own test imports them from here; they join tests/oracles.py
# when the benchmark next changes.

class QSeries(FrozenRecord):
    """Truncated q-expansion: coefficients c(0..N), exact."""

    def __init__(self, coefficients: tuple[GaussianRational, ...]):
        self.__dict__.update(coefficients=coefficients)

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
