import ast
import decimal
import math
import operator
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farkas import qseries
from farkas.characters import (
    DirichletCharacter, canonical_quartic, quadratic_character, quartic_pair,
)
from farkas.foundations import GaussianRational, divisors, is_prime, kronecker
from farkas.cli import load_builtin_config
from farkas.identities import check_configured_identity, verify_id1
from farkas.qseries import (
    DIRECT_PRODUCT,
    MAX_DIVISOR_COUNT,
    MAX_FAST_N,
    Convolver,
    QSeries,
    SIEVE_BLOCK,
    _fft_product,
    _full_product,
    _sieve,
    bernoulli_B2_psi,
    cauchy_product,
    character_table,
    delta_coefficient,
    delta_constant,
    delta_int_arrays,
    delta_series,
    exact_sum,
    kronecker_table,
    sigma_hat,
    sigma_hat_values,
    sigma_prime,
    sigma_prime_values,
    sigma_tilde,
    sigma_tilde_values,
)

import oracles
from oracles import (
    from_ints, gaussian, kronecker_product, omega, sigma_hat_series, sigma_prime_series,
    sigma_tilde_series, trivial_character,
)


class TestDeltaConstant:
    def test_p5(self):
        chi, chibar = quartic_pair(5)
        assert delta_constant(chi) == gaussian("3/10", "1/10")
        assert delta_constant(chibar) == gaussian("3/10", "-1/10")

    def test_p13(self):
        chi, _ = quartic_pair(13)
        assert delta_constant(chi) == gaussian("1/2", "1/2")

    def test_rejects_trivial(self):
        with pytest.raises(ValueError):
            delta_constant(trivial_character(5))

    def test_farkas_constant(self):
        assert delta_constant(quadratic_character(3)) == gaussian("1/6")

    @staticmethod
    def _oracle_values(p, g, e):
        """chi(g**k) = i**(4ek/(p-1)) with chi(g) = zeta_{p-1}**e, order | 4."""
        powers_of_i = ((1, 0), (0, 1), (-1, 0), (0, -1))
        values = [GaussianRational()] * p
        for k in range(p - 1):
            quarter, rem = divmod(4 * e * k, p - 1)
            assert rem == 0
            values[pow(g, k, p)] = gaussian(*powers_of_i[quarter % 4])
        return values

    @pytest.mark.parametrize("p, g, e", [(7, 3, 1), (13, 2, 1), (13, 2, 4)])
    def test_table_rejects_values_outside_gaussian_rationals(self, p, g, e):
        chi = DirichletCharacter(p, g, e)
        with pytest.raises(ValueError, match="outside Q\\(i\\)") as table_error:
            character_table(chi)
        with pytest.raises(ValueError) as value_error:
            [chi.value(a) for a in range(p)]
        assert str(table_error.value) == str(value_error.value)

    def test_table_and_constant_match_power_oracle(self):
        ps = [p for p in range(5, 500, 8) if all(p % q for q in range(2, p))]
        chars = [chi for p in ps for chi in quartic_pair(p)] + [quadratic_character(3)]
        for chi in chars:
            values = self._oracle_values(chi.p, chi.g, chi.e)
            re, im = character_table(chi)
            assert [gaussian(int(x), int(y)) for x, y in zip(re, im)] == values
            total = sum((v * a for a, v in enumerate(values)), GaussianRational())
            assert delta_constant(chi) == total * Fraction(-1, 2 * chi.p)


class TestDeltaSeries:
    def test_p5_coefficients(self):
        chi, _ = quartic_pair(5)
        s = delta_series(chi, 6)
        assert s[1] == gaussian(1)
        assert s[2] == gaussian(1, 1)  # 1 + chi(2)
        assert s[4] == gaussian(0, 1)  # 1 + i + (-1)

    def test_out_of_range_is_error(self):
        chi, _ = quartic_pair(5)
        s = delta_series(chi, 4)
        with pytest.raises(IndexError):
            s[5]
        with pytest.raises(IndexError):
            s[-1]

    def test_conjugate_series(self):
        chi, chibar = quartic_pair(13)
        assert delta_series(chibar, 40) == delta_series(chi, 40).conj()

    def test_multiplicativity(self):
        rng = random.Random(17)
        for p in (5, 13):
            chi, _ = quartic_pair(p)
            for _ in range(300):
                m = rng.randrange(1, 100)
                n = rng.randrange(1, 100)
                if math.gcd(m, n) == 1 and m * n <= 10000:
                    assert delta_coefficient(chi, m * n) == delta_coefficient(
                        chi, m
                    ) * delta_coefficient(chi, n)

    def test_triangle_bound(self):
        chi, _ = quartic_pair(13)
        for n in range(1, 2000):
            d = len(divisors(n))
            assert delta_coefficient(chi, n).norm_sq() <= d * d

    def test_int_arrays_match_exact(self):
        for chi in (quartic_pair(5)[0], quartic_pair(13)[0], quadratic_character(3)):
            re, im = delta_int_arrays(chi, 300)
            for n in range(1, 301):
                assert delta_coefficient(chi, n) == GaussianRational(
                    Fraction(int(re[n])), Fraction(int(im[n]))
                )


class TestPackedDeltaSieve:
    """delta_int_arrays sieves Re * 2**16 + Im once and splits it."""

    @staticmethod
    def _two_passes(chi, N):
        re, im = character_table(chi)
        return _sieve(re, N, dtype=np.int16), _sieve(im, N, dtype=np.int16)

    @pytest.mark.parametrize(
        "chi", [quartic_pair(5)[0], quartic_pair(13)[1], quartic_pair(29)[0],
                quartic_pair(37)[1], quadratic_character(3)],
        ids=["p5", "p13-minus-i", "p29", "p37-minus-i", "mod3"],
    )
    def test_matches_the_two_pass_arrays_and_grows_from_a_prefix(self, chi):
        for N in (0, 1, 2, 100, 5000):
            got = delta_int_arrays(chi, N)
            assert [v.dtype for v in got] == [np.int16, np.int16]
            assert all(map(np.array_equal, got, self._two_passes(chi, N))), N
        pair = delta_int_arrays(chi, 1)
        for N in (37, 1000, 1001, 5000):  # each growth from the last pair
            pair = delta_int_arrays(chi, N, prefix=pair)
            assert all(map(np.array_equal, pair, self._two_passes(chi, N))), N

    @pytest.mark.parametrize("sign", [1, -1])
    def test_both_parts_at_the_divisor_count_bound(self, sign):
        # a table of Re = sign, Im = -sign gives delta(n) = sign d(n) (1 - i):
        # both parts reach +-240 at n = 720720, and the low half still
        # splits off when Im is negative
        ones = np.ones(1, dtype=np.int64)
        table = (sign * ones, -sign * ones)
        with mock.patch.object(qseries, "character_table", lambda chi: table):
            re, im = delta_int_arrays(quartic_pair(5)[0], MAX_FAST_N)
        d = _sieve(ones, MAX_FAST_N)
        assert np.array_equal(re, sign * d) and np.array_equal(im, -sign * d)
        K = MAX_DIVISOR_COUNT
        assert (int(re[720720]), int(im[720720])) == (sign * K, -sign * K)


class TestSigmaSeries:
    def test_sigma_prime_p5(self):
        s = sigma_prime_series(5, 6)
        assert s[0] == gaussian("1/6")  # (p-1)/24
        assert s[2] == gaussian(3)
        assert s[5] == gaussian(1)

    def test_sigma_tilde_p5(self):
        s = sigma_tilde_series(5, 4)
        assert s[0] == gaussian("-1/5")  # -B_{2,psi}/4
        assert s[1] == gaussian(1)
        assert s[2] == gaussian(-1)

    def test_sigma_tilde_c2_all_p(self):
        for p in (5, 13, 29, 37):
            assert sigma_tilde(p, 2) == -1
            assert sigma_hat(p, 2) == 1
            assert sigma_tilde(p, 1) == sigma_hat(p, 1) == 1

    def test_sigma_hat_series(self):
        s = sigma_hat_series(5, 10)
        assert s[0] == gaussian(0)
        # 10: (5/1)*10 + (5/2)*5 + (5/5)*2 + (5/10)*1 = 10 - 5 + 0 + 0
        assert s[10] == gaussian(5)

    def test_value_arrays_match_scalars(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 29, 37):
            pairs = [(sigma_prime_values, sigma_prime)]
            if p % 4 == 1:  # (p/.) is read at p = 1 (mod 4) only
                pairs += [(sigma_tilde_values, sigma_tilde), (sigma_hat_values, sigma_hat)]
            for values, scalar in pairs:
                got = values(p, 200)
                assert [int(v) for v in got[1:]] == [scalar(p, n) for n in range(1, 201)], p

    def test_kronecker_table_is_one_period_of_the_odd_arguments(self):
        # for p = 1 (mod 4), (p/.) has period p over all arguments, even
        # ones included
        primes = [p for p in range(5, 200, 4) if is_prime(p)]
        assert primes[:4] == [5, 13, 17, 29] and primes[-1] == 197
        for p in primes:
            table = kronecker_table(p)
            assert len(table) == p
            assert table.tolist() == [kronecker(p, a) for a in range(p)]
            for n in range(1, 3 * p):
                assert table[n % p] == kronecker(p, n)

    def test_kronecker_table_rejects_a_non_prime(self):
        for p in (2, 9, 15):
            with pytest.raises(ValueError):
                kronecker_table(p)

    def test_tilde_and_hat_refuse_p_3_mod_4(self):
        # over all arguments (p/.) has no period for p = 3 (mod 4): (3/2) =
        # -1 but (3/14) = +1; every identity here reads it at p = 1 (mod 4)
        assert kronecker(3, 2) == -1 and kronecker(3, 14) == 1
        for p in (3, 7, 11, 19):
            for build in (kronecker_table, lambda p: sigma_tilde_values(p, 10),
                          lambda p: sigma_hat_values(p, 10)):
                with pytest.raises(ValueError):
                    build(p)

    def test_divisor_count_bound_behind_the_kernel_cap(self):
        d = _sieve(np.ones(1, dtype=np.int64), MAX_FAST_N)
        assert int(d.max()) == MAX_DIVISOR_COUNT == len(divisors(720720))
        assert int(d[720720]) == MAX_DIVISOR_COUNT

    def test_multiplicativity(self):
        rng = random.Random(23)
        for p in (5, 13, 29, 37):
            for _ in range(250):
                m = rng.randrange(1, 100)
                n = rng.randrange(1, 100)
                if math.gcd(m, n) == 1 and m * n <= 10000:
                    assert sigma_tilde(p, m * n) == sigma_tilde(p, m) * sigma_tilde(p, n)
                    assert sigma_hat(p, m * n) == sigma_hat(p, m) * sigma_hat(p, n)

    def test_hat_tilde_relation(self):
        # sigma^(n) = (p/n) sigma~(n) when p does not divide n
        for p in (5, 13):
            for n in range(1, 500):
                if n % p:
                    assert sigma_hat(p, n) == kronecker(p, n) * sigma_tilde(p, n)

    def test_tilde_lower_bound(self):
        # |sigma~(n)| >= n / 2**omega(n)
        for p in (5, 13):
            for n in range(1, 500):
                if n % p:
                    assert abs(sigma_tilde(p, n)) * 2 ** omega(n) >= n


def _naive_sieve(table, N, times_d=False, quotient=False):
    """sum_{d | n} c(d) w(n/d) for n in 0..N by the divisor double loop."""
    values = [int(v) for v in table]
    out = [0] * (N + 1)
    for d in range(1, N + 1):
        c = values[d % len(values)] * (d if times_d else 1)
        for q in range(1, N // d + 1):
            out[d * q] += c * (q if quotient else 1)
    return out


FLAGS = [(False, False), (True, False), (False, True), (True, True)]


def _sieve_tables(N):
    """Tables of period 1 and p, and seeded random tables in {-1, 0, 1} of
    period 4p = 28 and spelled out to N, with no period."""
    rng = np.random.default_rng(7)
    return [
        np.ones(1, dtype=np.int64),
        character_table(quartic_pair(13)[0])[1],
        rng.integers(-1, 2, 28),
        rng.integers(-1, 2, N + 1),
    ]


def _sizes_at_block_edges(block, sizes):
    """The N in ``sizes`` whose last block of large d (d > isqrt(N)) ends one
    before, at or one past a multiple of ``block``, or within 1 of a square."""
    def near_square(n):
        return min(abs(n - r * r) for r in (math.isqrt(n), math.isqrt(n) + 1)) <= 1

    return [
        n for n in sizes
        if (n - math.isqrt(n)) % block in (block - 1, 0, 1) or near_square(n)
    ]


def _lows_at_edges(N, block):
    """The lower ends lo in 1..N + 1 within 1 of 1, r = isqrt(N), r**2, N,
    a multiple of ``block`` or the first d of a block of large d."""
    r = math.isqrt(N)
    edges = {1, r, r * r, r + 1, N, *range(block, N + 1, block), *range(r + 1, N + 1, block)}
    return sorted({e + s for e in edges for s in (-1, 0, 1)} & set(range(1, N + 2)))


SENTINEL = -7  # a prefix value the sieve must copy, never add to


class TestSieve:
    def _check_lows(self, sizes, block):
        # [lo, N] sieved into the tail of a prefix of sentinels: the prefix
        # is copied as given and the rest equals the double loop
        nmax = max(sizes)
        for table in _sieve_tables(nmax):
            for times_d, quotient in FLAGS:
                want = _naive_sieve(table, nmax, times_d, quotient)
                for N in sizes:
                    for lo in _lows_at_edges(N, block):
                        prefix = np.full(lo, SENTINEL, dtype=np.int64)
                        got = _sieve(table, N, times_d, quotient, prefix=prefix)
                        assert len(got) == N + 1
                        assert got[:lo].tolist() == [SENTINEL] * lo
                        assert got[lo:].tolist() == want[lo : N + 1], (len(table), N, lo)

    def _check(self, sizes):
        nmax = max(sizes)
        for table in _sieve_tables(nmax):
            for times_d, quotient in FLAGS:
                want = _naive_sieve(table, nmax, times_d, quotient)
                for N in sizes:
                    got = _sieve(table, N, times_d, quotient)
                    assert got.dtype == np.int64 and len(got) == N + 1
                    assert got.tolist() == want[: N + 1], (len(table), N, times_d, quotient)

    def test_small_blocks_match_the_double_loop(self):
        sizes = _sizes_at_block_edges(16, range(301))
        assert sizes[:5] == [0, 1, 2, 3, 4] and 272 in sizes  # 272 - 16 = 16 * 16
        with mock.patch.object(qseries, "SIEVE_BLOCK", 16):
            self._check(sizes)

    def test_lower_ends_at_small_block_edges_match_the_double_loop(self):
        with mock.patch.object(qseries, "SIEVE_BLOCK", 16):
            assert 17 in _lows_at_edges(272, 16) and 273 in _lows_at_edges(272, 16)
            self._check_lows([2, 3, 15, 16, 17, 255, 272, 289, 300], 16)

    def test_lower_ends_at_block_edges_match_the_double_loop(self):
        # r = 128: large d start at 129 and 129 + SIEVE_BLOCK = 8321
        assert {128, 129, 130, 8320, 8321, 8322, 16384, 16513, 16514} <= set(
            _lows_at_edges(16513, SIEVE_BLOCK)
        )
        self._check_lows([16384, 16513], SIEVE_BLOCK)

    def test_block_edges_match_the_double_loop(self):
        sizes = _sizes_at_block_edges(
            SIEVE_BLOCK, [*range(8_200, 8_300), *range(16_350, 16_550)]
        )
        # 91**2 +- 1 and N - isqrt(N) = SIEVE_BLOCK +- 1; 128**2 +- 1 and
        # N - isqrt(N) = 2 SIEVE_BLOCK +- 1
        assert SIEVE_BLOCK == 8192
        assert sizes == [8280, 8281, 8282, 8283, 8284,
                         16383, 16384, 16385, 16511, 16512, 16513]
        self._check(sizes)

    def test_series_arrays_match_scalars_at_the_block_edge(self):
        N = 16513
        rng = random.Random(5)
        ns = list(range(N - 40, N + 1)) + rng.sample(range(1, N), 60)
        for chi in (quartic_pair(13)[0], quadratic_character(3)):
            re, im = delta_int_arrays(chi, N)
            for n in ns:
                assert gaussian(int(re[n]), int(im[n])) == delta_coefficient(chi, n)
        for p in (17, 29):
            sp, st_, sh = (f(p, N) for f in (sigma_prime_values, sigma_tilde_values,
                                             sigma_hat_values))
            for n in ns:
                assert int(sp[n]) == sigma_prime(p, n)
                assert int(st_[n]) == sigma_tilde(p, n)
                assert int(sh[n]) == sigma_hat(p, n)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.integers(-5, 5), min_size=1, max_size=40),
        N=st.integers(0, 5000),
        times_d=st.booleans(),
        quotient=st.booleans(),
        block=st.sampled_from([1, 3, 16, 64, SIEVE_BLOCK]),
    )
    def test_property_matches_the_double_loop(self, values, N, times_d, quotient, block):
        table = np.array(values, dtype=np.int64)
        with mock.patch.object(qseries, "SIEVE_BLOCK", block):
            got = _sieve(table, N, times_d, quotient)
        assert got.tolist() == _naive_sieve(table, N, times_d, quotient)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.integers(-5, 5), min_size=1, max_size=40),
        N=st.integers(1, 5000),
        data=st.data(),
        times_d=st.booleans(),
        quotient=st.booleans(),
        block=st.sampled_from([1, 3, 16, 64, SIEVE_BLOCK]),
    )
    def test_property_lower_end_matches_the_double_loop(
        self, values, N, data, times_d, quotient, block
    ):
        lo = data.draw(st.integers(1, N), label="lo")
        table = np.array(values, dtype=np.int64)
        with mock.patch.object(qseries, "SIEVE_BLOCK", block):
            got = _sieve(table, N, times_d, quotient, prefix=np.full(lo, SENTINEL))
        assert got[:lo].tolist() == [SENTINEL] * lo
        assert got[lo:].tolist() == _naive_sieve(table, N, times_d, quotient)[lo:]

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.sampled_from([13, 17]),
        N=st.integers(0, 3000),
        cuts=st.lists(st.integers(0, 3000), max_size=4),
        block=st.sampled_from([16, SIEVE_BLOCK]),
    )
    def test_arrays_grown_in_any_split_equal_the_one_shot_arrays(self, p, N, cuts, block):
        chi = quartic_pair(13)[0]
        builders = {
            "delta": lambda n, prefix: delta_int_arrays(chi, n, prefix),
            "prime": lambda n, prefix: sigma_prime_values(p, n, prefix),
            "tilde": lambda n, prefix: sigma_tilde_values(p, n, prefix),
            "hat": lambda n, prefix: sigma_hat_values(p, n, prefix),
        }
        with mock.patch.object(qseries, "SIEVE_BLOCK", block):
            for name, build in builders.items():
                grown = None
                for end in sorted({c for c in cuts if c < N} | {N}):
                    grown = build(end, grown)
                want = build(N, None)
                assert np.array_equal(grown, want), (name, cuts)

    def test_scratch_memory_is_out_plus_one_array(self):
        # numpy reports its buffers to tracemalloc; allow out, one weight
        # array of the sieved length N - lo + 1 (d = 1 with quotient) and a
        # fixed block allowance; a grown array's prefix exists beforehand
        N = 200_000
        table = kronecker_table(29)
        allowance = 5 * 8 * SIEVE_BLOCK  # the sieve holds at most four blocks
        for lo in (1, 50_001):
            prefix = None if lo == 1 else _sieve(table, lo - 1)
            for times_d, quotient in FLAGS:
                tracemalloc.start()
                try:
                    _sieve(table, N, times_d, quotient, prefix=prefix)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                entries = N + 1 + (N - lo + 1 if quotient else 0)
                assert peak < 8 * entries + allowance, (lo, times_d, quotient, peak)


def _naive_product(a, b):
    """c[n] = sum_{j<=n} a[j] b[n-j] for n < len(a), by the double loop."""
    a, b = [int(v) for v in a], [int(v) for v in b]
    return [sum(a[j] * b[n - j] for j in range(n + 1)) for n in range(len(a))]


@st.composite
def _signed_pairs(draw):
    """Two int64 series of one length 1..300, bounded by K, with +-K and 0 common."""
    K = draw(st.sampled_from([0, 1, 7, 240, 480, 10**6]))
    m = draw(st.integers(1, 300))
    value = st.one_of(st.sampled_from([-K, 0, K]), st.integers(-K, K))
    a, b = (draw(st.lists(value, min_size=m, max_size=m)) for _ in range(2))
    return np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)


def _weighted(product, m, w=1, s=0):
    """w times ``product`` shifted by s and cut to m values: one pair's
    share of ``_full_product``."""
    return w * np.concatenate((np.zeros(s, dtype=np.int64), product))[:m]


def _kernels(*pairs):
    """The sum of the products of ``pairs`` (x, y) or (x, y, w, s) from
    ``_full_product`` and from the Kronecker-substitution oracle."""
    K = max(qseries.max_abs(v) for pair in pairs for v in pair[:2])
    return {
        "full": _full_product(*pairs),
        "kronecker": sum(
            _weighted(kronecker_product(x, y, K), len(x), *ws) for x, y, *ws in pairs
        ),
    }


def _at_the_bound(m, dtype):
    """Pairs (a, b) of length m whose every entry is +-MAX_DIVISOR_COUNT:
    a = 240 and b = -240 throughout, so that every partial sum of a*a + b*b
    is as large as the bound allows, and a pair of random signs."""
    K = MAX_DIVISOR_COUNT
    signs = np.random.default_rng(m).choice([-1, 1], (2, m))
    return [(np.full(m, K, dtype=dtype), np.full(m, -K, dtype=dtype)),
            tuple((K * signs).astype(dtype))]


def _convolve(*pairs):
    """The sum of the products of ``pairs`` (x, y) or (x, y, w, s) by int64
    ``np.convolve``."""
    return sum(
        _weighted(np.convolve(x.astype(np.int64), y.astype(np.int64)), len(x), *ws)
        for x, y, *ws in pairs
    )


@st.composite
def _product_cases(draw):
    """Pairs for ``_full_product``: a length at 2**k - 1, 2**k or 2**k + 1
    (the transform length doubles between the last two) or at the base-case
    edge DIRECT_PRODUCT +- 1; entries of one bound K in {1, 240, 480}, all
    +K, of random signs at +-K, or in [-K, K] with the extremes common;
    int16 or int64; one to three pairs, each a square or not, each (x, y)
    or (x, y, w, s) with weight w in {1, 2} and shift s in {0, 1}; each
    factor a whole array or a strided residue row (``_residue_rows``)."""
    k = draw(st.integers(1, 10))
    m = max(draw(st.sampled_from([2**k - 1, 2**k, 2**k + 1, DIRECT_PRODUCT + k % 3 - 1])), 1)
    K = draw(st.sampled_from([1, 240, 480]))
    dtype = draw(st.sampled_from([np.int16, np.int64]))

    def factor():
        C = draw(st.sampled_from([1, 2, 7]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        fill = draw(st.sampled_from(["all", "signs", "range"]))
        if fill == "all":
            v = np.full(m * C, K)
        elif fill == "signs":
            v = K * rng.choice([-1, 1], m * C)
        else:
            v = rng.integers(-K, K + 1, m * C)
            v[rng.random(m * C) < 0.2] = K
            v[rng.random(m * C) < 0.2] = -K
        return qseries._residue_rows(v.astype(dtype), m, C)[draw(st.integers(0, C - 1))]

    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        x = factor()
        pair = (x, x if draw(st.booleans()) else factor())
        if draw(st.booleans()):
            pair += (draw(st.integers(1, 2)), draw(st.integers(0, 1)))
        pairs.append(pair)
    return pairs


class TestFullProduct:
    @settings(max_examples=80, deadline=None)
    @given(pair=_signed_pairs(), square=st.booleans(), fused=st.booleans())
    def test_property_matches_the_double_loop(self, pair, square, fused):
        a, b = pair
        if square:
            b = a
        want = _naive_product(a, b)
        if fused:  # a*b + b*a, one call with two pairs
            want = [2 * v for v in want]
        inputs = [(a, b)]
        if max(np.abs(a).max(), np.abs(b).max()) <= qseries.INT16_MAX:
            # int16 inputs too, as a Convolver passes them: the kernels widen,
            # so products past 2**15 (K = 240, 480) stay exact
            narrow = a.astype(np.int16)
            inputs.append((narrow, narrow if square else b.astype(np.int16)))
        for a, b in inputs:
            pairs = ((a, b), (b, a)) if fused else ((a, b),)
            for kernel, got in _kernels(*pairs).items():
                assert got.dtype == np.int64 and len(got) == len(a), kernel
                assert got.tolist() == want, (kernel, a.dtype)

    @settings(max_examples=80, deadline=None)
    @given(pairs=_product_cases())
    def test_property_matches_the_kronecker_oracle_and_int64_convolve(self, pairs):
        got = _full_product(*pairs)
        assert got.dtype == np.int64 and len(got) == len(pairs[0][0])
        assert np.array_equal(got, _convolve(*pairs))
        assert np.array_equal(got, _kernels(*pairs)["kronecker"])

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    def test_the_bound_at_every_transform_edge(self, dtype):
        # every entry +-240 with two fused pairs, a*a + b*b as F's tail takes
        # it, at the lengths 2**k - 1, 2**k, 2**k + 1 around each doubling of
        # the transform length n >= 2 m - 1, against int64 np.convolve
        for k in range(7, 12):
            for m in (2**k - 1, 2**k, 2**k + 1):
                for a, b in _at_the_bound(m, dtype):
                    with mock.patch.object(qseries, "_fft_product", wraps=_fft_product) as fft:
                        got = _full_product((a, a), (b, b))
                    assert fft.called == (m > DIRECT_PRODUCT), m
                    assert np.array_equal(got, _convolve((a, a), (b, b))), m

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    def test_the_bound_at_the_crossover(self, dtype):
        # DIRECT_PRODUCT - 1 and DIRECT_PRODUCT by np.convolve,
        # DIRECT_PRODUCT + 1 by the FFT, every entry +-240: a*a + b*b is
        # 2 (n + 1) 240**2 for the pair of constants, and the Kronecker
        # product for random signs
        m = DIRECT_PRODUCT + 1
        (a, b), (c, d) = _at_the_bound(m, dtype)
        K = MAX_DIVISOR_COUNT
        wants = [2 * K * K * np.arange(1, m + 1),
                 kronecker_product(c, c, K) + kronecker_product(d, d, K)]
        for (x, y), want in zip([(a, b), (c, d)], wants):
            for n, fft in ((m - 2, False), (m - 1, False), (m, True)):
                with mock.patch.object(qseries, "_fft_product", wraps=_fft_product) as spy:
                    got = _full_product((x[:n], x[:n]), (y[:n], y[:n]))
                assert spy.called == fft, n
                assert np.array_equal(got, want[:n]), n

    def test_both_kernels_match_the_cauchy_product_at_a_small_crossover(self):
        # lengths about DIRECT_PRODUCT and twice it, with |a| up to 240 and
        # |b| up to 480, the bounds of delta_chi and of Re delta +- Im delta;
        # (A*B)(n) reads indices <= n, so one Cauchy product of the longest
        # serves every length
        rng = np.random.default_rng(12)
        L = DIRECT_PRODUCT
        m = 2 * L + 2
        a = rng.integers(-240, 241, m)
        b = rng.integers(-480, 481, m)
        a[[0, 7]], b[[1, 9]] = (240, -240), (480, -480)
        want = [int(c.re) for c in cauchy_product(from_ints(a), from_ints(b)).coefficients]
        for n in (L - 1, L, L + 1, 2 * L, 2 * L + 1, 2 * L + 2):
            for kernel, got in _kernels((a[:n], b[:n])).items():
                assert got.tolist() == want[:n], (n, kernel)

    def test_every_entry_at_the_bound_at_the_longest_length(self):
        # F's tail a*a + b*b at m = MAX_FAST_N + 1 with a = 240 and b = -240
        # throughout: the largest product a sweep makes, at the largest
        # entries, exact against the Kronecker oracle, under the derived
        # bound of the docstring (5.9e-3)
        m, K = MAX_FAST_N + 1, MAX_DIVISOR_COUNT
        a, b = (np.full(m, v, dtype=np.int16) for v in (K, -K))
        assert 5.8e-3 < qseries._fft_error(2, m, K, K) < 5.9e-3
        assert 1.1e-2 < qseries._fft_error(1, m, 2 * K, 2 * K) < 1.2e-2
        with mock.patch.object(qseries, "_fft_product", wraps=_fft_product) as fft:
            got = _full_product((a, a), (b, b))
        assert fft.called
        want = kronecker_product(a, a, K)
        want += kronecker_product(b, b, K)
        assert np.array_equal(got, want)

    def test_a_float32_fft_rounds_wrong(self):
        # negative control: the same all-240 product of the test above in a
        # float32 FFT (unit roundoff 2**-24) rounds values wrong, so the
        # comparison can fail; the exact values are 2 (n + 1) 240**2
        m, K = MAX_FAST_N + 1, MAX_DIVISOR_COUNT
        n = 1 << (2 * m - 2).bit_length()
        x = np.full(m, K, dtype=np.float32)
        spectrum = np.fft.rfft(x, n)
        assert spectrum.dtype == np.complex64
        spectrum *= spectrum
        spectrum *= 2  # a*a + b*b with b = -a
        c = np.rint(np.fft.irfft(spectrum, n)[:m]).astype(np.int64)
        assert not np.array_equal(c, 2 * K * K * np.arange(1, m + 1, dtype=np.int64))

    def test_a_perturbed_inverse_transform_trips_the_guard(self):
        # 0.3 added to one value of the inverse transform is past the 1/8
        # the check allows: the product raises, and returns nothing
        a = np.arange(-300, 300, dtype=np.int64)

        def perturbed(*args, **kwargs):
            out = np.fft.irfft(*args, **kwargs)
            out[len(a) // 2] += 0.3
            return out

        assert np.array_equal(_full_product((a, a)), _convolve((a, a)))
        with mock.patch.object(qseries, "irfft", perturbed):
            with pytest.raises(FloatingPointError, match="from the nearest integer"):
                _full_product((a, a))

    def test_the_twiddles_are_within_the_assumed_error(self):
        # rfft of the unit impulse e_1 returns exp(-2 pi i j / n) for j <=
        # n / 2, formed from pocketfft's twiddle tables: within TWIDDLE_ERROR
        # of the long double values at every length the FFT products use
        # (m <= MAX_FAST_N + 1, so n <= 2**21)
        pi = np.longdouble("3.14159265358979323846264338327950288")
        assert np.finfo(np.longdouble).eps < 2.0**-60  # a wider type here
        for k in range(8, 22):
            n = 1 << k
            impulse = np.zeros(n)
            impulse[1] = 1
            w = np.fft.rfft(impulse)
            angle = 2 * pi * np.arange(n // 2 + 1, dtype=np.longdouble) / n
            error = np.maximum(np.abs(w.real - np.cos(angle)), np.abs(w.imag + np.sin(angle)))
            assert error.max() <= qseries.TWIDDLE_ERROR, k

    def test_the_cutoff_picks_the_kernel(self):
        a = np.ones(DIRECT_PRODUCT + 1, dtype=np.int64)
        big = np.full(300, 2**20, dtype=np.int64)  # past the FFT's error bound
        assert qseries._fft_error(1, 300, 2**20, 2**20) > qseries.FFT_ERROR
        cases = [(a[:1], False), (a[:DIRECT_PRODUCT], False), (a[: DIRECT_PRODUCT + 1], True),
                 (big, False)]
        for x, fft in cases:
            with mock.patch.object(qseries, "_fft_product", wraps=_fft_product) as f:
                assert _full_product((x, x)).tolist() == _naive_ones(x)
            assert f.call_count == fft, len(x)

    def test_edge_inputs(self):
        for a, b in [
            ([0], [0]), ([-5], [5]), ([0] * 40, [3] * 40),  # K = 0 at n = 0
            ([-9] * 50, [-9] * 50), ([9, -9] * 25, [-9, 9] * 25),  # all at +-K
            ([0] * 7, [0] * 7),  # K = 0: every slot 0
            ([0] * 200, [0] * 200), ([0] * 199 + [7], [5] * 200),  # by the FFT
        ]:
            a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
            assert _full_product((a, b)).tolist() == _naive_product(a, b)
        with pytest.raises(ValueError):
            _full_product((np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64)))
        with pytest.raises(ValueError):
            _full_product((np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)))
        with pytest.raises(ValueError):  # every pair of one length
            three = np.zeros(3, dtype=np.int64)
            _full_product((three, three), (three, np.zeros(4, dtype=np.int64)))

    def test_a_length_and_offset_past_the_int64_bound_is_refused(self):
        a = np.array([2**31, 0], dtype=np.int64)  # r m Kx Ky = 2 * 2**62 = 2**63
        with pytest.raises(AssertionError):
            _full_product((a, a))

    def test_the_context_is_exact(self):
        # the Kronecker oracle's context: prec = MAX_PREC holds every
        # product; a rounding would raise
        ctx = oracles.EXACT
        assert ctx.traps[decimal.Inexact] and ctx.traps[decimal.Rounded]
        assert ctx.prec == decimal.MAX_PREC and ctx.Emax == decimal.MAX_EMAX

    def test_scratch_memory_is_linear_in_the_length(self):
        # one tail of each kind at N = 15000, as a Convolver builds them from
        # its int16 arrays: two spectra of n / 2 + 1 complex values, the
        # n-value inverse, the rounded m values and the result, n = 32768
        N = 15_000
        re, im = delta_int_arrays(quartic_pair(13)[0], N)
        m = N + 1
        n = 1 << (2 * m - 2).bit_length()
        for pairs in (((re, re), (im, im)), ((re + im, re - im),)):
            tracemalloc.start()
            try:
                _full_product(*pairs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 16 * (n // 2 + 1) + 8 * n + 16 * m, (len(pairs), peak)


def _naive_ones(x):
    """x*x by the double loop, for x of equal entries: (n + 1) x[0]**2."""
    return [(n + 1) * int(x[0]) ** 2 for n in range(len(x))]


class TestBernoulli:
    def test_small_prime_values(self):
        assert bernoulli_B2_psi(5) == Fraction(4, 5)
        assert bernoulli_B2_psi(13) == Fraction(4)

    def test_p29_from_divisor_sums(self):
        # odd s in {1,3,5} each counted with -s: 2*(sigma(7)+sigma(5)+sigma(1))
        assert bernoulli_B2_psi(29) == Fraction(2, 5) * (2 * (8 + 6 + 1))
        assert bernoulli_B2_psi(29) == 12

    def test_matches_cohens_formula_at_every_prime_below_20000(self):
        # the O(p) dot over the Kronecker table against Cohen's divisor sums
        primes = [p for p in range(5, 20000, 4) if is_prime(p)]
        assert len(primes) == 1125
        for p in primes:
            assert bernoulli_B2_psi.__wrapped__(p) == oracles.bernoulli_B2_psi_cohen(p), p

    def test_a_prime_past_one_int64_chunk_sums_in_chunks(self):
        # at p = 2097169 > 2**21 the sum of a**2 outgrows int64, so the dot
        # runs in two chunks of at most 2**63 // p**2 terms
        p = 2097169
        assert 2**63 // p**2 < p <= 2 * (2**63 // p**2)
        assert bernoulli_B2_psi.__wrapped__(p) == oracles.bernoulli_B2_psi_cohen(p)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            bernoulli_B2_psi(7)
        with pytest.raises(ValueError):
            bernoulli_B2_psi(15)


class TestCauchyProduct:
    def test_identity_series(self):
        one = from_ints([1, 0, 0, 0])
        assert cauchy_product(one, one) == one

    def test_p5_cross_product_values(self):
        chi, chibar = quartic_pair(5)
        prod = delta_series(chi, 4) * delta_series(chibar, 4)
        assert prod[1] == gaussian("3/5")  # 2*Re((3+i)/10)
        assert prod[2] == gaussian("9/5")

    def test_mismatched_truncation_rejected(self):
        with pytest.raises(ValueError):
            cauchy_product(from_ints([1, 2]), from_ints([1, 2, 3]))

    def test_truncation_locality(self):
        # (A*B)(n) depends only on coefficients up to n
        chi, _ = quartic_pair(13)
        short = delta_series(chi, 10)
        long = delta_series(chi, 25)
        p_short = short * short
        p_long = long * long
        for n in range(11):
            assert p_short[n] == p_long[n]


def exact_sum_bound(terms, at_zero=None) -> int:
    """The bound ``exact_sum`` must take, spelled out in Python ints: every
    |c_k|, |d_k|, sum_k (|c_k| + |d_k|) M for M = max |x_k|, |y_k|, and
    |at_zero|."""
    M = max((abs(int(v)) for _, xy in terms for arr in xy if arr is not None for v in arr), default=0)
    return max(
        *(abs(s) for (c, d), _ in terms for s in (c, d)),
        sum(abs(c) + abs(d) for (c, d), _ in terms) * M,
        *(abs(z) for z in at_zero or ()),
    )


def _python_sum(terms, at_zero=None) -> tuple[list, list]:
    """``exact_sum`` in Python ints, index by index."""
    def at(arr, j):
        return 0 if arr is None else int(arr[j])

    n = len(terms[0][1][0])
    re = [sum(c * at(x, j) - d * at(y, j) for (c, d), (x, y) in terms) for j in range(n)]
    im = [sum(d * at(x, j) + c * at(y, j) for (c, d), (x, y) in terms) for j in range(n)]
    if at_zero is not None:
        re[0], im[0] = at_zero
    return re, im


CAP = 2**20  # a patched INT64_CAP, so that values near it are cheap to draw
_near_cap = st.integers(-(2**12), 2**12) | st.integers(-2 * CAP, 2 * CAP)


@st.composite
def _exact_terms(draw):
    """(terms, at_zero) for ``exact_sum``: one to three terms over int64
    arrays of one length, each y None or an array, values near CAP."""
    n = draw(st.integers(1, 4))
    values = st.lists(_near_cap, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64))
    term = st.tuples(st.tuples(_near_cap, _near_cap), st.tuples(values, st.none() | values))
    at_zero = st.none() | st.tuples(_near_cap, _near_cap)
    return draw(st.lists(term, min_size=1, max_size=3)), draw(at_zero)


class TestExactSum:
    @settings(max_examples=300, deadline=None)
    @given(_exact_terms())
    def test_matches_a_python_int_oracle_on_either_side_of_the_cap(self, case):
        terms, at_zero = case
        with mock.patch.object(qseries, "INT64_CAP", CAP):
            re, im = exact_sum(terms, at_zero)
        dtype = object if exact_sum_bound(terms, at_zero) >= CAP else np.int64
        assert (re.dtype, im.dtype) == (dtype, dtype)
        assert all(type(v) is int for v in re.tolist() + im.tolist())
        assert (re.tolist(), im.tolist()) == _python_sum(terms, at_zero)

    @pytest.mark.parametrize("cap", [CAP, qseries.INT64_CAP])
    def test_each_bound_ingredient_tips_the_block_on_its_own(self, cap):
        # |c|, |d| (with M = 0), M through c and through d, and |at_zero|:
        # each at the cap makes the block object, one below keeps int64
        def block(t):
            return np.array([0, t, -t // 2], dtype=np.int64)

        zero = np.zeros(3, dtype=np.int64)
        cases = [
            lambda t: ([((t, 1), (zero, zero))], None),
            lambda t: ([((1, -t), (zero, None))], None),
            lambda t: ([((1, 0), (block(t), None))], None),
            lambda t: ([((0, -1), (zero, block(t)))], None),
            lambda t: ([((1, 1), (block(t // 2), None))], None),  # |c| + |d| = 2
            lambda t: ([((2, 3), (block(1), zero))], (0, -t)),
        ]
        with mock.patch.object(qseries, "INT64_CAP", cap):
            for i, case in enumerate(cases):
                for t, dtype in ((cap, object), (cap - 2, np.int64)):
                    terms, at_zero = case(t)
                    re, im = exact_sum(terms, at_zero)
                    assert (re.dtype, im.dtype) == (dtype, dtype), (i, t)
                    assert (re.tolist(), im.tolist()) == _python_sum(terms, at_zero), (i, t)

    def test_no_other_function_chooses_int64_or_object(self):
        # the int64-or-object policy lives in exact_sum alone: no other
        # function of the package compares with INT64_CAP or passes
        # ``object`` as a dtype (np.dtype(object), astype(object),
        # dtype=object); module-level asserts on the cap are not functions
        def deciders(node):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Compare):
                    operands = [sub.left, *sub.comparators]
                    if any(getattr(o, "id", getattr(o, "attr", None)) == "INT64_CAP" for o in operands):
                        yield "compares with INT64_CAP"
                if isinstance(sub, ast.Call):
                    args = [*sub.args, *(k.value for k in sub.keywords)]
                    if any(isinstance(a, ast.Name) and a.id == "object" for a in args):
                        yield "builds an object dtype"

        found = {}
        for path in sorted(Path(qseries.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for what in deciders(node):
                        found.setdefault(what, set()).add(f"{path.name}:{node.name}")
        want = {"qseries.py:exact_sum"}
        assert found == {"compares with INT64_CAP": want, "builds an object dtype": want}

    def test_only_the_fft_product_names_floats_or_the_fft(self):
        # one float unit: no other function of the package names a float
        # dtype (np.float64, np.single, "f8", float, ...) or numpy's FFT, so
        # no other one can build a float array, and the FFT is imported by
        # qseries alone
        floats = {"float", "float16", "float32", "float64", "half", "single", "double",
                  "longdouble", "complex64", "complex128", "csingle", "cdouble"}
        fft = {"fft", "rfft", "irfft"}
        strings = floats | {"f2", "f4", "f8", "c8", "c16"}
        strings |= {order + code for order in "<>=" for code in ("f2", "f4", "f8", "c8", "c16")}
        found, importers = set(), set()
        for path in sorted(Path(qseries.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    modules = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                    if any("fft" in name for name in modules):
                        importers.add(path.name)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # the body: a ``-> float`` annotation builds no array
                    for sub in (sub for stmt in node.body for sub in ast.walk(stmt)):
                        if (
                            (isinstance(sub, ast.Attribute) and sub.attr in floats | fft)
                            or (isinstance(sub, ast.Name) and sub.id in floats | fft)
                            or (isinstance(sub, ast.Constant) and sub.value in strings)
                        ):
                            found.add(f"{path.name}:{node.name}")
        assert found == {"qseries.py:_fft_product"}
        assert importers == {"qseries.py"}


def _times(D: int, z: GaussianRational) -> tuple[int, int]:
    """D z as an int pair, the format of ``Convolver.F`` and ``H``."""
    w = z * D
    assert w.re.denominator == w.im.denominator == 1, (D, z)
    return w.re.numerator, w.im.numerator


def _built_tails(spy):
    """(m, c, D, r) of every tail a ``Convolver._whole_tail`` spy saw built:
    T(r + k D) for k = 0..m, F's (c = -1) or H's (c = 1)."""
    return [call.args[1:] for call in spy.call_args_list]


def _tail_spy():
    """A spy on ``Convolver._whole_tail``, read by ``_built_tails``."""
    return mock.patch.object(
        Convolver, "_whole_tail", autospec=True, side_effect=Convolver._whole_tail
    )


def assert_holds_only_delta(conv):
    """``conv`` holds no array but delta_chi's int16 pair: no tail outlives
    its read."""
    held = {name: type(value) for name, value in vars(conv).items()}
    assert held == {"chi": type(conv.chi), "denominator": int, "_L": tuple,
                    "_re": np.ndarray, "_im": np.ndarray}, held
    assert (conv._re.dtype, conv._im.dtype) == (np.int16, np.int16)


class TestConvolutions:
    def test_p5_spot_values(self):
        chi, _ = quartic_pair(5)
        conv = Convolver(chi)
        D = conv.denominator
        assert D == 100
        assert conv.F(0) == _times(D, gaussian("1/10")) == (10, 0)
        assert conv.H(0) == _times(D, gaussian("2/25", "3/50"))  # (4+3i)/50
        assert conv.H(1) == _times(D, gaussian("3/5", "1/5"))  # 2*delta(0)*delta(1)

    def test_fast_path_matches_cauchy_product(self):
        # dual route: the tails vs the exact generic product, read in
        # either order
        for p in (5, 13, 29):
            chi, chibar = quartic_pair(p)
            N = 60
            f_series = delta_series(chi, N) * delta_series(chibar, N)
            h_series = delta_series(chi, N) * delta_series(chi, N)
            for order in (range(N + 1), range(N, -1, -1)):
                conv = Convolver(chi)
                D = conv.denominator
                with _tail_spy() as built:
                    for n in order:
                        assert conv.F(n) == _times(D, f_series[n])
                        assert conv.H(n) == _times(D, h_series[n])
                # an index read is a step-1 read: one tail to n per product
                assert _built_tails(built) == [(n, c, 1, 0) for n in order for c in (-1, 1)]

    def test_F_is_real(self):
        chi, _ = quartic_pair(29)
        conv = Convolver(chi)
        for n in range(200):
            assert conv.F(n)[1] == 0

    def test_negative_index_rejected(self):
        chi, _ = quartic_pair(5)
        conv = Convolver(chi)
        with pytest.raises(ValueError):
            conv.F(-1)

    @pytest.mark.parametrize(
        "chi", [quartic_pair(5)[0], quartic_pair(29)[1], quadratic_character(3)],
        ids=["p5", "p29-minus-i", "mod3"],
    )
    def test_numerators_match_the_cauchy_product(self, chi):
        N = 60
        series = {
            -1: delta_series(chi, N) * delta_series(chi.conj(), N),
            1: delta_series(chi, N) * delta_series(chi, N),
        }
        # each read builds its own tail to hi - 1; an empty one builds none
        reads = [(0, 3), (2, 9), (9, 10), (7, 7), (5, 40), (10, 20), (38, 61), (0, 61)]
        for c, want in series.items():
            conv = Convolver(chi)
            D = conv.denominator
            for lo, hi in reads:
                with _tail_spy() as built:
                    re, im = conv.numerators(lo, hi, c)
                assert len(re) == len(im) == hi - lo
                assert [gaussian(Fraction(x, D), Fraction(y, D)) for x, y in zip(re, im)] == list(
                    want.coefficients[lo:hi]
                ), (lo, hi)
                # far below the cap at N = 60: int64, exact Python ints on tolist
                assert (re.dtype, im.dtype) == (np.int64, np.int64)
                assert all(type(x) is int for x in re.tolist() + im.tolist())
                assert _built_tails(built) == ([(hi - 1, c, 1, 0)] if lo < hi else []), (lo, hi)
        with pytest.raises(ValueError):
            Convolver(chi).numerators(5, 4, 1)

    @pytest.mark.parametrize("chi", [quartic_pair(13)[0], quadratic_character(3)], ids=["p13", "mod3"])
    def test_int64_and_object_numerators_agree_when_the_cap_is_forced_low(self, chi):
        reads = [(0, 3), (3, 40), (40, 41), (41, 41), (0, 300)]
        for c in (-1, 1):
            wide, narrow = Convolver(chi), Convolver(chi)
            for lo, hi in reads:
                re, im = wide.numerators(lo, hi, c)
                assert (re.dtype, im.dtype) == (np.int64, np.int64)
                # a cap of 1 sends every block to Python ints; an empty read
                # returns at once, int64
                with mock.patch.object(qseries, "INT64_CAP", 1):
                    re_obj, im_obj = narrow.numerators(lo, hi, c)
                want = (object, object) if lo < hi else (np.int64, np.int64)
                assert (re_obj.dtype, im_obj.dtype) == want
                assert all(type(x) is int for x in re_obj.tolist() + im_obj.tolist())
                assert re.tolist() == re_obj.tolist() and im.tolist() == im_obj.tolist()
                index = [wide.H(n) if c == 1 else wide.F(n) for n in range(lo, hi)]
                assert index == list(zip(re.tolist(), im.tolist()))

    def test_the_cap_is_taken_over_each_block(self):
        # the bound reads each block's own maxima: a cap between the bounds
        # of a block near 0 and one near 200 makes the first int64 and the
        # second object, in either order
        chi = quartic_pair(13)[0]
        wide = Convolver(chi)
        long, short = wide.numerators(100, 200, 1), wide.numerators(0, 10, 1)
        conv = Convolver(chi)
        with mock.patch.object(qseries, "INT64_CAP", int(np.abs(long[0]).max())):
            second, first = conv.numerators(100, 200, 1), conv.numerators(0, 10, 1)
        assert first[0].dtype == np.int64 and second[0].dtype == object
        assert first[0].tolist() == short[0].tolist() and second[0].tolist() == long[0].tolist()

    def test_each_read_builds_its_own_tail(self):
        chi = quartic_pair(13)[0]
        conv = Convolver(chi)
        with mock.patch.object(qseries, "_full_product", wraps=qseries._full_product) as spy:
            re, im = conv.numerators(0, 101, 1)
            # one whole tail for H: (a+b)(a-b) and ab, of 101 coefficients
            assert [len(call.args[0][0]) for call in spy.call_args_list] == [101, 101]
            # a shorter range builds its own, shorter tail, and so does each
            # index read
            short = conv.numerators(0, 41, 1)
            assert [conv.H(n) for n in range(41)] == list(zip(*short))
            conv.numerators(101, 151, 1)
        lengths = [len(call.args[0][0]) for call in spy.call_args_list]
        assert lengths == [m for m in [101, 41, *range(1, 42), 151] for _ in range(2)]
        assert list(zip(*short)) == list(zip(re[:41], im[:41]))
        assert conv.capacity == 150
        assert_holds_only_delta(conv)
        re0, im0 = conv.numerators(0, 1, -1)
        assert list(zip(re0, im0)) == [conv.F(0)]

    def test_numerators_stay_exact_past_int64(self):
        # the combination s**2 T + s (L delta' + delta L') in Python ints:
        # with a constant L this large, int64 arithmetic would wrap
        chi = quartic_pair(29)[0]
        for c in (-1, 1):
            conv = Convolver(chi)
            conv._L = (3**40, -(5**27))
            re, im = conv.numerators(0, 121, c)
            assert max(abs(x) for x in re.tolist()) > 2**63
            product = conv.F if c < 0 else conv.H
            assert [product(n) for n in range(121)] == list(zip(re, im))

    def test_extend_sieves_exactly_what_is_asked_and_only_the_new_indices(self):
        chi = quartic_pair(13)[0]
        conv = Convolver(chi)
        with mock.patch.object(qseries, "_sieve", wraps=qseries._sieve) as spy:
            conv.extend(50)
            conv.extend(60)  # no doubling
            conv.extend(55)  # already sieved
        assert conv.capacity == 60
        lows = [len(call.kwargs["prefix"]) for call in spy.call_args_list]
        assert lows == [1, 51]  # re and im packed in one sieve, twice
        re, im = delta_int_arrays(chi, 60)
        assert np.array_equal(conv._re, re) and np.array_equal(conv._im, im)

    def test_a_read_sieves_exactly_to_its_last_index(self):
        # a read extends delta_chi to its own last n, no further, and a read
        # within the capacity sieves nothing
        conv = Convolver(quartic_pair(13)[0])
        with mock.patch.object(qseries, "_sieve", wraps=qseries._sieve) as spy:
            capacities = []
            for read in (lambda: conv.F(50), lambda: conv.H(51), lambda: conv.F(0, 101),
                         lambda: conv.H(3, 300, 7), lambda: conv.F(10)):
                read()
                capacities.append(conv.capacity)
        assert capacities == [50, 51, 100, 297, 297]
        assert [len(call.kwargs["prefix"]) for call in spy.call_args_list] == [1, 51, 52, 101]
        with pytest.raises(ValueError):
            conv.F(MAX_FAST_N + 1)


def _oracle(chi: DirichletCharacter, ns, c: int) -> list[tuple[int, int]]:
    """s**2 F (c = -1) or H (c = 1) at each n of ``ns``, s = 2p: four int64
    ``np.dot`` per n of the scaled delta_chi(j) = (X_j + i Y_j) / s, X_0 +
    i Y_0 = 2p delta_chi(0), against its reverse.  No ``_full_product``."""
    N = max(ns, default=0)
    re, im = delta_int_arrays(chi, N)
    X, Y = 2 * chi.p * re.astype(np.int64), 2 * chi.p * im.astype(np.int64)
    X[0], Y[0] = qseries._delta0_numerator(chi)
    out = []
    for n in ns:
        x, y = X[: n + 1], Y[: n + 1]
        xx, yy, xy, yx = (int(np.dot(f, g[::-1])) for f, g in ((x, x), (y, y), (x, y), (y, x)))
        out.append((xx - c * yy, c * xy + yx))  # delta' = conj(delta) for c = -1
    return out


@st.composite
def _reads(draw):
    """(chi, n, stop, step, c): a character of p in {5, 13, 29, 37}, either
    sign, or the real mod-3 one (b = 0); a step of 1, 2, odd or even, and
    an offset r = n mod step.  The read takes k in [k_lo, k_hi), n = r +
    k step, with k_hi within 3 of 1 or of L, 2 L, 4 L for L =
    DIRECT_PRODUCT, so that a fresh Convolver's tails (k_hi coefficients)
    fall on either side of the base case and of a doubling of the
    transform length; at most one k is a read whose step passes stop - n."""
    p = draw(st.sampled_from([5, 13, 29, 37, 3]))
    chi = quadratic_character(3) if p == 3 else quartic_pair(p)[draw(st.integers(0, 1))]
    step = draw(st.sampled_from([1, 2]) | st.integers(3, 24))
    r = draw(st.integers(0, step - 1))
    edge = draw(st.sampled_from([1, DIRECT_PRODUCT, 2 * DIRECT_PRODUCT, 4 * DIRECT_PRODUCT]))
    k_hi = max(edge + draw(st.integers(-3, 3)), 1)
    k_lo = draw(st.integers(0, k_hi) | st.integers(max(k_hi - 2, 0), k_hi))
    n, stop = r + k_lo * step, r + (k_hi - 1) * step + 1 + draw(st.integers(0, step - 1))
    return chi, n, stop, step, draw(st.sampled_from([-1, 1]))


class TestReadsAgainstAnOracle:
    """F(n, stop, step), H(n, stop, step) from the cached tails of
    ``_full_product`` against ``_oracle``, per-n int64 dots: two
    independent routes."""

    def test_the_oracle_is_the_cauchy_product(self):
        for p in (5, 3):
            chi, f_series, h_series = _products(p, 40)
            D = (2 * chi.p) ** 2
            for c, series in ((-1, f_series), (1, h_series)):
                assert _oracle(chi, range(41), c) == [_times(D, z) for z in series.coefficients]

    @settings(max_examples=80, deadline=None)
    @given(_reads())
    def test_reads_equal_the_oracle(self, case):
        chi, n, stop, step, c = case
        conv = Convolver(chi)
        re, im = (conv.F if c < 0 else conv.H)(n, stop, step)
        want = _oracle(chi, range(n, stop, step), c)
        assert list(zip(re.tolist(), im.tolist())) == want

    @pytest.mark.parametrize("step, r", [(1, 0), (7, 3)])
    def test_the_reads_reach_both_kernels(self, step, r):
        # tails of k_hi = DIRECT_PRODUCT and DIRECT_PRODUCT + 1 coefficients
        # are int64 np.convolve and FFT products; both agree with the oracle
        chi = quartic_pair(37)[0]
        for k_hi, fft in ((DIRECT_PRODUCT, False), (DIRECT_PRODUCT + 1, True)):
            ns = range(r, r + (k_hi - 1) * step + 1, step)
            for c in (-1, 1):
                conv = Convolver(chi)
                with mock.patch.object(qseries, "_fft_product", wraps=_fft_product) as f:
                    re, im = (conv.F if c < 0 else conv.H)(ns.start, ns.stop, step)
                assert f.called == fft, (k_hi, c)
                assert list(zip(re.tolist(), im.tolist())) == _oracle(chi, ns, c)
                if step == 1 and fft:
                    # F's a*a and b*b are squarings: one transform each
                    squares = [[x is y for x, y, *_ in call.args[0]] for call in f.call_args_list]
                    assert squares == ([[True, True]] if c < 0 else [[False], [False]]), c


@lru_cache(maxsize=None)
def _products(p: int, N: int):
    """The oracle pair (delta_chi * delta_chibar, delta_chi * delta_chi) for
    the first character of p (quartic_pair, or the mod-3 character)."""
    chi = quadratic_character(3) if p == 3 else quartic_pair(p)[0]
    d, dbar = delta_series(chi, N), delta_series(chi.conj(), N)
    return chi, d * dbar, d * d


class TestIndexReads:
    """F(n), H(n) and F(n, stop, step): thin calls into ``numerators``, the
    dilated ones over residue classes."""

    @pytest.mark.parametrize("p", [5, 13, 29, 3])
    def test_index_read_matches_the_cauchy_product(self, p):
        # n = 0..300: both parities, and n <= 3 where h = (n - 1) // 2 is 0
        N = 300
        chi, f_series, h_series = _products(p, N)
        # for the conjugate character F is the same series and H its conjugate
        for chi_, conj in ((chi, False), (chi.conj(), True)):
            conv = Convolver(chi_)
            D = conv.denominator
            for n in range(N + 1):
                assert conv.F(n) == _times(D, f_series[n]), (chi_.label(), n)
                want = h_series[n].conj() if conj else h_series[n]
                assert conv.H(n) == _times(D, want), (chi_.label(), n)

    def test_an_empty_read_sieves_and_builds_nothing(self):
        # F(n, stop) with stop <= n, as a configured identity's first block
        # makes for a term with no multiple of B below 3, sieved delta_chi
        # to near n and built a tail to 4 n for no value
        conv = Convolver(quartic_pair(13)[0])
        with mock.patch.object(qseries, "_sieve", wraps=qseries._sieve) as sieve, \
                mock.patch.object(qseries, "_full_product", wraps=qseries._full_product) as product:
            for n, stop, step in ((190_000, 190_000, 190_000), (5000, 4000, 1), (19, 19, 19)):
                re, im = conv.F(n, stop, step)
                assert len(re) == len(im) == 0
        assert (sieve.call_count, product.call_count, conv.capacity) == (0, 0, 0)

    @pytest.mark.parametrize("p", [5, 13, 3])
    def test_a_block_read_is_its_per_index_reads(self, p):
        # F(n, stop, step), H(n, stop, step) against the per-index reads and
        # the Cauchy product: all n, odd n, even n, a stride of 19 with both
        # parities, one index, a step past stop - n, and empty reads; int64
        # blocks, and object blocks of the same values when the cap is
        # forced to 1.  A bad n or step is a ValueError, not an assertion
        N = 300
        chi, f_series, h_series = _products(p, N)
        reads = [(0, N + 1, 1), (1, N + 1, 2), (2, N + 1, 2), (5, N, 19), (N, N + 1, 1),
                 (3, 30, 4), (40, 41, 50), (7, 7, 1), (9, 3, 4), (0, 0, 7)]
        for c, series in ((-1, f_series), (1, h_series)):
            conv = Convolver(chi)
            D = conv.denominator
            read = conv.F if c < 0 else conv.H
            for n, stop, step in reads:
                re, im = read(n, stop, step)
                ns = range(n, stop, step)
                assert (re.dtype, im.dtype) == (np.int64, np.int64)
                rows = list(zip(re.tolist(), im.tolist()))
                assert rows == [read(m) for m in ns], (c, n, stop, step)
                assert rows == [_times(D, series[m]) for m in ns], (c, n, stop, step)
                with mock.patch.object(qseries, "INT64_CAP", 1):
                    re_obj, im_obj = read(n, stop, step)
                if ns:
                    assert (re_obj.dtype, im_obj.dtype) == (object, object)
                assert all(type(x) is int for x in re_obj.tolist() + im_obj.tolist())
                assert list(zip(re_obj, im_obj)) == rows
            for args in ((1, 10, 0), (1, 10, -2), (0, None, 0), (-1, 10, 1), (-3, 10, 2), (-1,)):
                with pytest.raises(ValueError):
                    read(*args)

    def test_a_block_read_sieves_once_to_its_largest_index(self):
        # one sieve to the last index for the whole block.  A read of
        # another step or offset builds its own tail from the same sieve
        conv = Convolver(quartic_pair(13)[0])
        with mock.patch.object(qseries, "_sieve", wraps=qseries._sieve) as spy, \
                _tail_spy() as built:
            re, _ = conv.H(3, 1001, 3)
            assert len(re) == 333 and conv.capacity == 999
            conv.F(1, 1000, 2)
        assert spy.call_count == 1  # Re and Im, packed in one sieve
        assert _built_tails(built) == [(333, 1, 3, 0), (499, -1, 2, 1)]

    def test_a_block_read_is_int64_below_its_derived_bound(self):
        # the read's tails stay within 2 (m + 1) K**2, K = max |delta| over
        # the sieved prefix; a cap at the bound of its ``exact_sum`` sends
        # the block to Python ints, one past it keeps int64, and both give
        # the same values
        conv = Convolver(quartic_pair(13)[0])
        with mock.patch.object(qseries, "exact_sum", wraps=qseries.exact_sum) as spy:
            want = conv.H(10, 500, 7)  # the last index is 493
        K = int(max(np.abs(conv._re).max(), np.abs(conv._im).max()))
        (terms, at_zero), _ = spy.call_args
        (_, tail), _ = terms  # (s**2, T) and (2 s L, delta_chi)
        assert at_zero is None and np.abs(tail).max() <= 2 * (493 + 1) * K * K
        bound = exact_sum_bound(terms)
        for cap, dtype in ((bound, object), (bound + 1, np.int64)):
            with mock.patch.object(qseries, "INT64_CAP", cap):
                re, im = conv.H(10, 500, 7)
            assert (re.dtype, im.dtype) == (dtype, dtype), cap
            assert re.tolist() == want[0].tolist() and im.tolist() == want[1].tolist()

    @pytest.mark.parametrize("p", [13, 37])
    def test_dilated_reads_match_the_range_read(self, p):
        # F(95 k), H(95 k) as in the p37_5_19 config, and at the offset 17,
        # from FFT products of 95 residue rows of length 2001, against the
        # tail of one range read to 190 000, one FFT product of that length
        top = 95 * 2000
        for c in (-1, 1):
            re, im = Convolver(quartic_pair(p)[0]).numerators(0, top + 1, c)
            conv = Convolver(quartic_pair(p)[0])
            read = conv.F if c < 0 else conv.H
            for r in (0, 17):
                x, y = read(95 + r, top + 1, 95)
                assert x.tolist() == re[95 + r :: 95].tolist(), (c, r)
                assert y.tolist() == im[95 + r :: 95].tolist(), (c, r)

    @pytest.mark.parametrize(
        "step, r", [(1, 0), (2, 0), (2, 1), (5, 0), (7, 3), (7, 6), (19, 0), (95, 17)]
    )
    def test_a_dilated_read_is_step_class_products(self, step, r):
        # T(r + k step) for k <= reach sums products of residue rows of
        # reach + 1 coefficients, all in one call per tail: H takes all
        # step classes (t, s) in each of its (a+b)*(a-b) and a*b calls; F's
        # squares take the classes t <= s only, t < s at weight 2, a*a and
        # b*b in its one call.  Classes t > r are shifted by one.  Step 1
        # is the whole-series product.  reach >= step - 1: no more rows
        # than coefficients in each
        reach = max(40, step - 1)
        for c in (-1, 1):
            conv = Convolver(quartic_pair(13)[0])
            read = conv.F if c < 0 else conv.H
            ns = range(r, r + reach * step + 1, step)
            with mock.patch.object(qseries, "_full_product", wraps=_full_product) as spy:
                re, im = read(ns.start, ns.stop, step)
            assert list(zip(re.tolist(), im.tolist())) == _oracle(conv.chi, ns, c)
            calls = [call.args for call in spy.call_args_list]
            assert {len(x) for pairs in calls for x, *_ in pairs} == {reach + 1}
            kinds = [sorted((w, s) for _, _, w, s in pairs) for pairs in calls]
            if c < 0:  # t + s = r, and t + s = step + r past r
                per_factor = [(1 + (2 * t < r), 0) for t in range(r // 2 + 1)]
                per_factor += [(1 + (2 * t < step + r), 1) for t in range(r + 1, (step + r) // 2 + 1)]
                assert sum(w for w, _ in per_factor) == step
                assert kinds == [sorted(per_factor * 2)]
            else:
                assert kinds == [[(1, 0)] * (r + 1) + [(1, 1)] * (step - r - 1)] * 2

    def test_a_config_read_takes_one_inverse_transform_per_shift(self):
        # p37_5_19 at N = 2000 reads F(95), F(190), F(285) in its first block, then
        # F(95 k), F(19 k), F(5 k) and F(k): each read builds its tail in
        # one call, and an FFT tail sums its class spectra into at most two
        # inverse transforms (shifts 0 and 1), under the bound of its weight
        # sum, 2 D for F's a*a + b*b over D classes
        reads, real = [], Convolver.numerators

        def numerators(conv, lo, hi, c, step=1):
            before = (fft.call_count, inverse.call_count, errors.call_count)
            out = real(conv, lo, hi, c, step)
            after = (fft.call_count, inverse.call_count, errors.call_count)
            reads.append((step, *(b - a for a, b in zip(before, after))))
            return out

        qseries.convolver.cache_clear()
        with mock.patch.object(qseries, "_full_product", wraps=_full_product) as fft, \
                mock.patch.object(qseries, "irfft", wraps=np.fft.irfft) as inverse, \
                mock.patch.object(qseries, "_fft_error", wraps=qseries._fft_error) as errors, \
                mock.patch.object(Convolver, "numerators", numerators):
            report = check_configured_identity(load_builtin_config("p37_5_19.json"), 2000)
        assert report.passed
        # (step, _full_product calls, inverse transforms, bounds taken)
        # the first block's reads of steps 19, 5 and 1 hold no n: no product
        first = [(95, 1, 0, 0), (19, 0, 0, 0), (5, 0, 0, 0), (1, 0, 0, 0)]
        assert reads == first + [(95, 1, 2, 2), (19, 1, 2, 2), (5, 1, 0, 0), (1, 1, 0, 0)]
        weights = [call.args[0] for call in errors.call_args_list]
        assert weights == [2 * 95, 2 * 95, 2 * 19, 2 * 19]  # _full_product's, then _fft_product's

    def test_the_largest_class_sum_of_any_read_is_within_the_bound(self):
        # every D that ``_split`` can take up to MAX_FAST_N, with tails of at
        # most MAX_FAST_N // D + 1 coefficients: H's factors of 480 at weight
        # sum D, F's of 240 at 2 D.  The worst is H at MAX_CLASSES, the one
        # the import asserts, and it is within FFT_ERROR
        reachable = [D for D in range(1, MAX_FAST_N + 1) if D * (D - 1) <= MAX_FAST_N]
        assert all(qseries._split(D, MAX_FAST_N) == D for D in reachable)
        assert qseries._split(1009, MAX_FAST_N) == 1  # a prime step past the last
        K = MAX_DIVISOR_COUNT
        worst = max(
            (qseries._fft_error(r, MAX_FAST_N // D + 1, k, k), D, r)
            for D in reachable for r, k in ((D, 2 * K), (2 * D, K))
        )
        assert worst[1:] == (qseries.MAX_CLASSES, qseries.MAX_CLASSES) == (1000, 1000)
        assert 3.1e-2 < worst[0] <= qseries.FFT_ERROR

    def test_a_read_of_few_values_far_out_takes_fewer_longer_rows(self):
        # the split is the largest divisor D of the step with D (D - 1) <=
        # the last index: H(190 000) at step 190 000 takes 400 rows of 476
        # coefficients, not 190 000 rows of 2, and a prime step past the
        # bound takes the whole-series product
        assert [qseries._split(95, top) for top in (0, 19, 20, 8929, 8930)] == [1, 1, 5, 19, 95]
        assert qseries._split(190_000, 190_000) == 400
        assert qseries._split(1009, 1009 * 3) == 1
        conv = Convolver(quartic_pair(13)[0])
        with _tail_spy() as built:
            re, im = conv.H(190_000, 190_001, 190_000)
            assert list(zip(re.tolist(), im.tolist())) == _oracle(conv.chi, [190_000], 1)
            for n, stop, step in ((5, 1009 * 3 + 6, 1009), (17, 5000, 300)):
                re, im = conv.F(n, stop, step)
                want = _oracle(conv.chi, range(n, stop, step), -1)
                assert list(zip(re.tolist(), im.tolist())) == want
        # (m, c, D, r): 476 coefficients of 400 rows, the whole product to
        # 5 + 3 * 1009, and the 17 + 16 * 300 = 4817 of 60 rows
        assert _built_tails(built) == [(475, 1, 400, 0), (3032, -1, 1, 0), (80, -1, 60, 17)]

    def test_extreme_deltas_match_a_python_int_oracle(self):
        # every delta is +-240, the divisor-count bound: Re = 240, Im = -240,
        # so F's fused FFT product a*a + b*b and H's a - b = 480 take the
        # largest entries the error bound admits.  Step-1 reads, block reads
        # and dilated reads.
        chi = quartic_pair(13)[0]
        N = 1756
        K = MAX_DIVISOR_COUNT
        assert qseries._fft_error(2, N + 1, 2 * K, 2 * K) <= qseries.FFT_ERROR
        re = np.full(N + 1, MAX_DIVISOR_COUNT, dtype=np.int16)
        im = -re
        re[0] = im[0] = 0
        conv = Convolver(chi)
        with mock.patch.object(qseries, "delta_int_arrays", lambda chi, n, prefix: (re, im)):
            conv.extend(N)
        s = 2 * chi.p
        X = [conv._L[0]] + [s * v for v in re[1:].tolist()]  # s delta(j)
        Y = [conv._L[1]] + [s * v for v in im[1:].tolist()]

        def oracle(n, c):
            # s**2 sum_j delta(j) delta'(n - j), delta' = conj(delta) for c = -1
            def dot(u, v):
                return sum(map(operator.mul, u[: n + 1], reversed(v[: n + 1])))

            return dot(X, X) - c * dot(Y, Y), c * dot(X, Y) + dot(Y, X)

        for c, read in ((-1, conv.F), (1, conv.H)):
            for n in (1, 2, 581, 582, 1164, 1745, N):
                assert read(n) == oracle(n, c), (c, n)
            for lo, stop, step in ((579, 585, 1), (3, N + 1, 7), (0, N + 1, 2)):
                re_, im_ = read(lo, stop, step)
                ns = range(lo, stop, step)
                assert list(zip(re_, im_)) == [oracle(n, c) for n in ns], (c, lo, step)

    def test_a_sweep_holds_only_the_int16_pair(self):
        # a sweep keeps no copy of delta_chi and no tail: 4 bytes per index
        chi = quartic_pair(13)[0]
        qseries.convolver.cache_clear()
        assert verify_id1(13, 20000, chi).passed
        conv = qseries.convolver(chi)
        assert_holds_only_delta(conv)
        assert conv.capacity == 20000
        assert conv._re.nbytes + conv._im.nbytes == 4 * (conv.capacity + 1)

    def test_a_read_does_not_depend_on_the_capacity(self):
        # a read within a larger sieve takes its own prefix: the values
        # below, at and past the old capacity are those of the series
        chi = quartic_pair(13)[0]
        conv = Convolver(chi)
        conv.H(99)
        conv.extend(300)
        _, f_series, h_series = _products(13, 300)
        assert conv.F(300) == _times(conv.denominator, f_series[300])
        assert conv.H(50) == _times(conv.denominator, h_series[50])
        assert conv.H(120) == _times(conv.denominator, h_series[120])
        assert conv.capacity == 300

    @pytest.mark.parametrize("sieved, n", [(0, 190_000), (5000, 1000)])
    def test_a_lone_read_builds_one_product_of_its_length(self, sieved, n):
        # F(n) is one ``_full_product`` call (F's a*a and b*b) of n + 1
        # coefficients, on a fresh Convolver and on one sieved past 4 n
        conv = Convolver(canonical_quartic(13))
        conv.extend(sieved)
        with mock.patch.object(qseries, "_full_product", wraps=_full_product) as spy:
            value = conv.F(n)
        assert [[len(x) for x, *_ in call.args] for call in spy.call_args_list] == [[n + 1] * 2]
        assert conv.capacity == max(n, sieved)
        assert value == _oracle(conv.chi, [n], -1)[0]
