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
from farkas.characters import DirichletCharacter, quadratic_character, quartic_pair
from farkas.foundations import GaussianRational, divisors, gaussian, kronecker, omega
from farkas.identities import verify_id1
from farkas.qseries import (
    MAX_DIVISOR_COUNT,
    FLOAT32_EXACT,
    GEMM_PRODUCT,
    GEMM_ROW,
    MAX_FAST_N,
    Convolver,
    QSeries,
    SIEVE_BLOCK,
    _full_product,
    _gemm_product,
    _gemm_row,
    _kronecker_product,
    _kronecker_values,
    _sieve,
    bernoulli_B2_psi,
    cauchy_product,
    character_table,
    delta_coefficient,
    delta_constant,
    delta_int_arrays,
    delta_series,
    exact_sum,
    from_ints,
    kronecker_table,
    sigma_hat,
    sigma_hat_series,
    sigma_hat_values,
    sigma_prime,
    sigma_prime_series,
    sigma_prime_values,
    sigma_tilde,
    sigma_tilde_series,
    sigma_tilde_values,
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
        from farkas.characters import trivial_character

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
        for p in (3, 5, 7, 11, 13, 19, 29, 37):
            st = sigma_tilde_values(p, 200)
            sh = sigma_hat_values(p, 200)
            sp = sigma_prime_values(p, 200)
            for n in range(1, 201):
                assert int(st[n]) == sigma_tilde(p, n)
                assert int(sh[n]) == sigma_hat(p, n)
                assert int(sp[n]) == sigma_prime(p, n)

    def test_kronecker_table_is_one_period_of_the_odd_arguments(self):
        for p in range(3, 200, 2):
            if any(p % q == 0 for q in range(3, p, 2)):
                continue
            table = kronecker_table(p)
            period = p if p % 4 == 1 else 4 * p
            assert len(table) == period
            assert table.tolist() == [kronecker(p, a) for a in range(period)]
            for n in range(1, 3 * period, 2):
                assert table[n % period] == kronecker(p, n)
        # over all arguments (3/.) is not periodic mod 12
        assert kronecker(3, 2) == -1 and kronecker(3, 14) == 1

    def test_kronecker_table_rejects_a_non_prime(self):
        for p in (2, 9, 15):
            with pytest.raises(ValueError):
                kronecker_table(p)

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
    """Tables of period 1, p and 4p, and the spelled-out (7/.) table to N."""
    return [
        np.ones(1, dtype=np.int64),
        character_table(quartic_pair(13)[0])[1],
        kronecker_table(7),
        _kronecker_values(7, N),
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
        for p in (7, 13):
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
        p=st.sampled_from([7, 13]),
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


def _kernels(*pairs):
    """The sum of the products of ``pairs`` from ``_full_product`` and from
    each kernel: the GEMM only where its bound admits a useful tile row."""
    Kx, Ky = (max(qseries.max_abs(pair[i]) for pair in pairs) for i in (0, 1))
    L = _gemm_row(len(pairs), Kx, Ky)
    out = {
        "full": _full_product(*pairs),
        "kronecker": sum(_kronecker_product(x, y, max(Kx, Ky)) for x, y in pairs),
    }
    if L >= 1:
        out["gemm"] = _gemm_product(pairs, L)
    return out


def _at_the_bound(m, dtype):
    """Pairs (a, b) of length m whose every entry is +-MAX_DIVISOR_COUNT:
    a = 240 and b = -240 throughout, so that every partial sum of a*a + b*b
    is as large as the bound allows, and a pair of random signs."""
    K = MAX_DIVISOR_COUNT
    signs = np.random.default_rng(m).choice([-1, 1], (2, m))
    return [(np.full(m, K, dtype=dtype), np.full(m, -K, dtype=dtype)),
            tuple((K * signs).astype(dtype))]


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

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    def test_the_bound_at_every_tile_edge(self, dtype):
        # every entry +-240 with two fused pairs, a*a + b*b as F's tail takes
        # it: the bound admits the full row, 2 L 240**2 <= 2**24, so a tile's
        # sums reach 2 L 240**2 = 14 745 600 when all signs agree and must
        # still be exact; lengths 1, L - 1, L (one row), L + 1 (two) against
        # the double loop
        L = GEMM_ROW
        assert _gemm_row(2, MAX_DIVISOR_COUNT, MAX_DIVISOR_COUNT) == L
        for m in (1, L - 1, L, L + 1):
            for a, b in _at_the_bound(m, dtype):
                want = [x + y for x, y in zip(_naive_product(a, a), _naive_product(b, b))]
                with mock.patch.object(qseries, "_gemm_product", wraps=_gemm_product) as gemm:
                    assert _full_product((a, a), (b, b)).tolist() == want, m
                assert gemm.call_args.args[1] == L, m  # the full row, one tile or more

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    def test_the_bound_at_the_crossover(self, dtype):
        # GEMM_PRODUCT - 1 and GEMM_PRODUCT by the GEMM, GEMM_PRODUCT + 1 by
        # libmpdec, every entry +-240: a*a + b*b is 2 (n + 1) 240**2 for the
        # pair of constants, and the Kronecker product for random signs
        m = GEMM_PRODUCT + 1
        (a, b), (c, d) = _at_the_bound(m, dtype)
        K = MAX_DIVISOR_COUNT
        wants = [2 * K * K * np.arange(1, m + 1),
                 _kronecker_product(c, c, K) + _kronecker_product(d, d, K)]
        for (x, y), want in zip([(a, b), (c, d)], wants):
            for n, gemm in ((m - 2, True), (m - 1, True), (m, False)):
                with mock.patch.object(qseries, "_gemm_product", wraps=_gemm_product) as spy:
                    got = _full_product((x[:n], x[:n]), (y[:n], y[:n]))
                assert spy.called == gemm, n
                assert np.array_equal(got, want[:n]), n

    def test_both_kernels_match_the_cauchy_product_at_a_small_crossover(self):
        # lengths about L, 2L and a crossover patched to 2L + 1, with |a| up
        # to 240 and |b| up to 480, the bounds of delta_chi and of Re delta
        # +- Im delta; (A*B)(n) reads indices <= n, so one Cauchy product of
        # the longest serves every length
        rng = np.random.default_rng(12)
        L = GEMM_ROW
        m = 2 * L + 2
        a = rng.integers(-240, 241, m)
        b = rng.integers(-480, 481, m)
        a[[0, 7]], b[[1, 9]] = (240, -240), (480, -480)
        want = [int(c.re) for c in cauchy_product(from_ints(a), from_ints(b)).coefficients]
        with mock.patch.object(qseries, "GEMM_PRODUCT", 2 * L + 1):
            for n in (L - 1, L, L + 1, 2 * L, 2 * L + 1, 2 * L + 2):
                for kernel, got in _kernels((a[:n], b[:n])).items():
                    assert got.tolist() == want[:n], (n, kernel)

    def test_a_partial_sum_past_two_to_the_24_rounds(self):
        # negative control: entries 239 (odd) make (n + 1) 239**2 odd at
        # even n, so a row of 512 > 2**24 // 239**2 = 293 terms sums past
        # 2**24 to odd integers float32 cannot hold.  Forced past its bound
        # the GEMM rounds, in the one-row matvec and in the blocked tiles;
        # ``_full_product`` takes rows of GEMM_ROW <= 293 and stays exact
        K = 239
        assert _gemm_row(1, K, K) == GEMM_ROW < FLOAT32_EXACT // K**2 == 293
        a = np.full(1024, K, dtype=np.int64)
        want = [(n + 1) * K * K for n in range(len(a))]
        for m in (512, 1024):
            forced = _gemm_product(((a[:m], a[:m]),), 512).tolist()
            wrong = [n for n in range(m) if forced[n] != want[n]]
            assert wrong and min(wrong) >= 293, m  # exact while within the bound
            assert _full_product((a[:m], a[:m])).tolist() == want[:m]

    def test_the_cutoff_picks_the_kernel(self):
        a = np.ones(GEMM_PRODUCT + 1, dtype=np.int64)
        big = np.full(300, 2**13, dtype=np.int64)  # 2**26 per product: no row
        cases = [(a[:1], True), (a[:GEMM_PRODUCT], True), (a[: GEMM_PRODUCT + 1], False),
                 (big, False)]
        for x, gemm in cases:
            with mock.patch.object(qseries, "_gemm_product", wraps=_gemm_product) as g, \
                    mock.patch.object(qseries, "_kronecker_product", wraps=_kronecker_product) as k:
                assert _full_product((x, x)).tolist() == _naive_ones(x)
            assert (g.call_count, k.call_count) == ((1, 0) if gemm else (0, 1)), len(x)

    def test_edge_inputs(self):
        for a, b in [
            ([0], [0]), ([-5], [5]), ([0] * 40, [3] * 40),  # K = 0 at n = 0
            ([-9] * 50, [-9] * 50), ([9, -9] * 25, [-9, 9] * 25),  # all at +-K
            ([0] * 7, [0] * 7),  # K = 0: every slot 0
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
        a = np.array([2**31, 0], dtype=np.int64)  # 2 (2K)**2 = 2**65
        with pytest.raises(AssertionError):
            _full_product((a, a))

    def test_the_context_is_exact(self):
        # prec = MAX_PREC holds every product; a rounding would raise
        ctx = qseries._EXACT
        assert ctx.traps[decimal.Inexact] and ctx.traps[decimal.Rounded]
        assert ctx.prec == decimal.MAX_PREC and ctx.Emax == decimal.MAX_EMAX

    def test_scratch_memory_is_linear_in_the_length(self):
        # one tail of each kind at N = 15000, as a Convolver builds them from
        # its int16 arrays.  The GEMM holds the result (its float64
        # accumulator, cast in place), float32 rows, padded copies and one
        # block product: 8 + 4 (2 r + 1) bytes per coefficient for r pairs,
        # plus one tile and the padding of the last row; libmpdec about ten
        # bytes per packed digit
        N = 15_000
        re, im = delta_int_arrays(quartic_pair(13)[0], N)
        m = N + 1
        tile = 4 * 2 * GEMM_ROW**2
        for pairs in (((re, re), (im, im)), ((re + im, re - im),)):
            tracemalloc.start()
            try:
                _full_product(*pairs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < (20 + 8 * len(pairs)) * m + tile, (len(pairs), peak)
        for a, b in ((re, re), (re + im, re - im)):
            K = int(max(np.abs(a).max(), np.abs(b).max()))
            w = len(str(m * (2 * K) ** 2))  # at least the slot width
            tracemalloc.start()
            try:
                _kronecker_product(a, b, K)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * m + 10 * m * w, (K, w, peak)


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


def _times(D: int, z: GaussianRational) -> tuple[int, int]:
    """D z as an int pair, the format of ``Convolver.F`` and ``H``."""
    w = z * D
    assert w.re.denominator == w.im.denominator == 1, (D, z)
    return w.re.numerator, w.im.numerator


def _tail_lengths(conv):
    """Conjugation c -> how many coefficients its whole-series tail holds."""
    return {c: len(re) for c, (re, _) in conv._tails.items()}


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
        # dual route: int64 dots vs the exact generic product, in either order
        for p in (5, 13, 29):
            chi, chibar = quartic_pair(p)
            N = 60
            f_series = delta_series(chi, N) * delta_series(chibar, N)
            h_series = delta_series(chi, N) * delta_series(chi, N)
            for order in (range(N + 1), range(N, -1, -1)):
                conv = Convolver(chi)
                D = conv.denominator
                with mock.patch.object(qseries, "_full_product") as spy:
                    for n in order:
                        assert conv.F(n) == _times(D, f_series[n])
                        assert conv.H(n) == _times(D, h_series[n])
                # the index read takes dots and builds no tail
                assert spy.call_count == 0 and _tail_lengths(conv) == {}

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
        # (lo, hi) and the built tail length after the read: a read past the
        # tail rebuilds it to max(hi - 1, twice its reach), within capacity
        reads = [
            ((0, 3), 3), ((2, 9), 9), ((9, 10), 17), ((7, 7), 17), ((5, 40), 40),
            ((10, 20), 40), ((38, 61), 79), ((0, 61), 79),
        ]
        for c, want in series.items():
            conv = Convolver(chi)
            D = conv.denominator
            for (lo, hi), built in reads:
                re, im = conv.numerators(lo, hi, c)
                assert len(re) == len(im) == hi - lo
                assert [gaussian(Fraction(x, D), Fraction(y, D)) for x, y in zip(re, im)] == list(
                    want.coefficients[lo:hi]
                ), (lo, hi)
                # far below the cap at N = 60: int64, exact Python ints on tolist
                assert (re.dtype, im.dtype) == (np.int64, np.int64)
                assert all(type(x) is int for x in re.tolist() + im.tolist())
                assert _tail_lengths(conv) == {c: built}, (lo, hi)
        with pytest.raises(ValueError):
            Convolver(chi).numerators(5, 4, 1)

    @pytest.mark.parametrize("chi", [quartic_pair(13)[0], quadratic_character(3)], ids=["p13", "mod3"])
    @pytest.mark.parametrize("scale", [1, 7])
    def test_int64_and_object_numerators_agree_when_the_cap_is_forced_low(self, chi, scale):
        reads = [(0, 3), (3, 40), (40, 41), (41, 41), (0, 300)]
        for c in (-1, 1):
            wide, narrow = Convolver(chi), Convolver(chi)
            for lo, hi in reads:
                re, im = wide.numerators(lo, hi, c, scale)
                assert (re.dtype, im.dtype) == (np.int64, np.int64)
                # a cap of 1 sends every block to Python ints
                with mock.patch.object(qseries, "INT64_CAP", 1):
                    re_obj, im_obj = narrow.numerators(lo, hi, c, scale)
                assert (re_obj.dtype, im_obj.dtype) == (object, object)
                assert all(type(x) is int for x in re_obj.tolist() + im_obj.tolist())
                assert re.tolist() == re_obj.tolist() and im.tolist() == im_obj.tolist()
                index = [wide.H(n) if c == 1 else wide.F(n) for n in range(lo, hi)]
                assert [(scale * x, scale * y) for x, y in index] == list(zip(re.tolist(), im.tolist()))

    def test_the_cap_is_taken_over_each_block(self):
        # the bound reads each block's own maxima: a cap between the bounds
        # of a block near 0 and one near 200 makes the first int64 and the
        # second object, in either order and from one cached tail
        chi = quartic_pair(13)[0]
        wide = Convolver(chi)
        long, short = wide.numerators(100, 200, 1), wide.numerators(0, 10, 1)
        conv = Convolver(chi)
        with mock.patch.object(qseries, "INT64_CAP", int(np.abs(long[0]).max())):
            second, first = conv.numerators(100, 200, 1), conv.numerators(0, 10, 1)
        assert first[0].dtype == np.int64 and second[0].dtype == object
        assert first[0].tolist() == short[0].tolist() and second[0].tolist() == long[0].tolist()

    def test_numerators_build_one_tail_and_reuse_it(self):
        chi = quartic_pair(13)[0]
        conv = Convolver(chi)
        real, cached = qseries._full_product, []

        def product(*pairs):
            cached.append(1 in conv._tails)
            return real(*pairs)

        with mock.patch.object(qseries, "_full_product", side_effect=product) as spy:
            re, im = conv.numerators(0, 101, 1)
            assert spy.call_count == 2  # one whole tail for H: (a+b)(a-b) and ab
            assert _tail_lengths(conv) == {1: 101}
            # a shorter range reuses the cached tail; index reads take dots
            short = conv.numerators(0, 41, 1)
            assert [conv.H(n) for n in range(41)] == list(zip(*short))
            assert spy.call_count == 2
            # a longer one doubles it once, to the sieve's capacity 200
            conv.numerators(101, 151, 1)
            assert spy.call_count == 4 and _tail_lengths(conv) == {1: 201}
        # a rebuild drops the old tail before its products run (for H at
        # N = 10**6 the old tail is 786177 coefficients in two int64 arrays)
        assert cached == [False] * 4
        assert list(zip(*short)) == list(zip(re[:41], im[:41]))
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

    def test_ensure_sieves_what_is_asked_then_doubles(self):
        conv = Convolver(quartic_pair(13)[0])
        conv.ensure(50)
        assert len(conv._re) == 51
        conv.ensure(51)
        assert len(conv._re) == 101
        conv.ensure(250)
        assert len(conv._re) == 251
        with mock.patch.object(qseries, "MAX_FAST_N", 300):
            conv.ensure(260)
        assert len(conv._re) == 301


SMALL_CROSSOVER = 3 * GEMM_ROW + 1  # a patched GEMM_PRODUCT, so windows past it stay cheap


@st.composite
def _windows(draw):
    """(chi, lo, hi, c): a character of p in {5, 13, 29, 37} or the mod-3
    one, and a window whose end lies within 3 of L, 2 L or SMALL_CROSSOVER,
    so that a fresh Convolver's tail (hi coefficients) falls on either side."""
    p = draw(st.sampled_from([5, 13, 29, 37, 3]))
    chi = quadratic_character(3) if p == 3 else quartic_pair(p)[draw(st.integers(0, 1))]
    edge = draw(st.sampled_from([GEMM_ROW, 2 * GEMM_ROW, SMALL_CROSSOVER]))
    hi = edge + draw(st.integers(-3, 3))
    lo = draw(st.integers(0, hi) | st.integers(max(hi - 8, 0), hi))
    return chi, lo, hi, draw(st.sampled_from([-1, 1]))


class TestRangeReadAgainstIndexReads:
    """The range read (a whole-series tail from ``_full_product``) against
    the index reads (half-length float32 dots): two independent routes."""

    @settings(max_examples=60, deadline=None)
    @given(_windows())
    def test_numerators_equal_the_index_reads(self, case):
        chi, lo, hi, c = case
        with mock.patch.object(qseries, "GEMM_PRODUCT", SMALL_CROSSOVER):
            re, im = Convolver(chi).numerators(lo, hi, c)
        index = Convolver(chi)
        want_re, want_im = (index.F if c < 0 else index.H)(lo, hi)
        assert re.tolist() == want_re.tolist() and im.tolist() == want_im.tolist()

    def test_the_windows_reach_both_kernels(self):
        # the tails of hi = SMALL_CROSSOVER and SMALL_CROSSOVER + 1 coefficients
        # are a GEMM and a libmpdec product; both agree with the index reads
        chi = quartic_pair(37)[0]
        for hi, gemm in ((SMALL_CROSSOVER, True), (SMALL_CROSSOVER + 1, False)):
            for c in (-1, 1):
                with mock.patch.object(qseries, "GEMM_PRODUCT", SMALL_CROSSOVER), \
                        mock.patch.object(qseries, "_gemm_product", wraps=_gemm_product) as g, \
                        mock.patch.object(qseries, "_kronecker_product", wraps=_kronecker_product) as k:
                    re, im = Convolver(chi).numerators(0, hi, c)
                assert (g.called, k.called) == (gemm, not gemm), (hi, c)
                want = (Convolver(chi).F if c < 0 else Convolver(chi).H)(0, hi)
                assert re.tolist() == want[0].tolist() and im.tolist() == want[1].tolist()


def _logged_dots():
    """A patch of ``qseries._dot`` that logs the operand lengths of every
    dot, checking that both are contiguous float32, and the log."""
    log, dot = [], qseries._dot

    def logged(x, y, chunk):
        for v in (x, y):
            assert v.dtype == np.float32 and v.flags.c_contiguous, (v.dtype, v.flags)
        log.append((len(x), len(y)))
        return dot(x, y, chunk)

    return mock.patch.object(qseries, "_dot", logged), log


@lru_cache(maxsize=None)
def _products(p: int, N: int):
    """The oracle pair (delta_chi * delta_chibar, delta_chi * delta_chi) for
    the first character of p (quartic_pair, or the mod-3 character)."""
    chi = quadratic_character(3) if p == 3 else quartic_pair(p)[0]
    d, dbar = delta_series(chi, N), delta_series(chi.conj(), N)
    return chi, d * dbar, d * d


class TestHalfLengthIndexRead:
    """F(n), H(n) sum each symmetric pair (j, n - j) once."""

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

    @pytest.mark.parametrize("p", [5, 13, 3])
    def test_a_block_read_is_its_per_index_reads(self, p):
        # F(n, stop, step), H(n, stop, step) against the per-index reads and
        # the Cauchy product: all n, odd n, even n, a stride of 19 with both
        # parities, one index, and empty reads; int64 blocks, and object
        # blocks of the same values when the cap is forced to 1
        N = 300
        chi, f_series, h_series = _products(p, N)
        reads = [(0, N + 1, 1), (1, N + 1, 2), (2, N + 1, 2), (5, N, 19), (N, N + 1, 1),
                 (7, 7, 1), (9, 3, 4)]
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
            with pytest.raises(ValueError):
                read(1, 10, 0)
            with pytest.raises(ValueError):
                read(-1, 10, 1)

    def test_a_block_read_sieves_once_to_its_largest_index(self):
        # one ensure to the last index and one mirror for the whole block;
        # ascending per-index reads would double the capacity to 1024
        conv = Convolver(quartic_pair(13)[0])
        with mock.patch.object(qseries, "_sieve", wraps=qseries._sieve) as spy:
            re, _ = conv.H(3, 1001, 3)
        assert len(re) == 333 and conv.capacity == 999
        assert spy.call_count == 1  # Re and Im, packed in one sieve
        mirrors = conv._mirrors
        conv.F(1, 1000, 2)
        assert conv._mirrors is mirrors

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
        # F(95 k), H(95 k) as in the p37_5_19 config, against the same
        # Convolver's Kronecker-product tail: an independent route
        conv = Convolver(quartic_pair(p)[0])
        top = 95 * 2000
        ks = sorted({1, 2, 3, 4, 1999, 2000, *random.Random(p).sample(range(5, 1999), 60)})
        assert {k % 2 for k in ks} == {0, 1}
        for c, read in ((-1, conv.F), (1, conv.H)):
            re, im = conv.numerators(0, top + 1, c)
            for k in ks:
                assert read(95 * k) == (re[95 * k], im[95 * k]), (c, k)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 101, 1000])
    def test_dot_lengths(self, n):
        # F: two dots of length h = (n - 1) // 2; H: those two and the two
        # halves a_j b_{n-j}, b_j a_{n-j} of a*b
        conv = Convolver(quartic_pair(13)[0])
        conv.ensure(n)
        want = {conv.F: conv.F(n), conv.H: conv.H(n)}
        h = (n - 1) // 2
        for read, lengths in ((conv.F, [(h, h)] * 2), (conv.H, [(h, h)] * 4)):
            patch, log = _logged_dots()
            with patch:
                assert read(n) == want[read]
            assert log == lengths, read

    def test_split_dots_match_a_python_int_oracle(self):
        # every delta is +-240, the divisor-count bound: Re = 240, Im = -240,
        # so each dot sums like-signed products of 240**2 and is split in
        # chunks of 2**24 // 240**2 = 291 terms, the most whose sum float32
        # holds exactly at this K.  Reads on both sides of each boundary.
        chi = quartic_pair(13)[0]
        chunk = qseries._dot_chunk(MAX_DIVISOR_COUNT)
        assert chunk == 291
        N = 6 * chunk + 10
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

        ns = set()
        for k in (1, 2, 3):
            for h in (k * chunk - 1, k * chunk, k * chunk + 1):
                ns |= {2 * h + 1, 2 * h + 2}  # the odd and the even n with this h
        patch, log = _logged_dots()
        with patch:
            for n in sorted(ns):
                assert conv.F(n) == oracle(n, -1), n
                assert conv.H(n) == oracle(n, 1), n
            # a block read across each boundary: its dots split there too
            for k in (1, 2, 3):
                lo, stop = 2 * k * chunk - 1, 2 * k * chunk + 5
                for c, read in ((-1, conv.F), (1, conv.H)):
                    re, im = read(lo, stop)
                    assert list(zip(re, im)) == [oracle(n, c) for n in range(lo, stop)], (k, c)
        assert conv._chunk == chunk
        assert max(length for length, _ in log) > 3 * chunk  # split in four

    def test_the_chunk_is_the_largest_exact_one(self):
        # chunk K**2 <= 2**24 < (chunk + 1) K**2 at every K the bound admits
        for K in range(1, MAX_DIVISOR_COUNT + 1):
            chunk = qseries._dot_chunk(K)
            assert chunk * K * K <= 2**24 < (chunk + 1) * K * K, K
        # negative control: float32 rounds 2**24 + 1, so a dot past the cap
        # is wrong, and the chunked dot is not
        assert int(np.float32(2**24)) == 2**24
        assert int(np.float32(2**24 + 1)) != 2**24 + 1
        x = np.array([4096, 1], dtype=np.float32)
        assert int(np.dot(x, x)) == 2**24  # 4096**2 + 1 rounded
        assert qseries._dot(x, x, qseries._dot_chunk(4096)) == 2**24 + 1

    def test_a_sweep_holds_only_the_int16_pair(self):
        # a sweep reads ranges, never an index: no mirror, 4 bytes per index
        chi = quartic_pair(13)[0]
        qseries.convolver.cache_clear()
        assert verify_id1(13, 20000, chi).passed
        conv = qseries.convolver(chi)
        assert conv._mirrors is None and conv.capacity >= 20000
        assert (conv._re.dtype, conv._im.dtype) == (np.int16, np.int16)
        assert conv._re.nbytes + conv._im.nbytes == 4 * (conv.capacity + 1)

    def test_an_index_read_adds_twelve_bytes_per_index_of_mirrors(self):
        conv = Convolver(quartic_pair(13)[0])
        for n in (1, 50, 1001, 4999):  # capacities 1, 50, 1001, 4999
            conv.F(n)
            cap = conv.capacity
            a, b, a_rev, b_rev = conv._mirrors
            assert all(x.dtype == np.float32 for x in conv._mirrors)
            assert np.array_equal(a, conv._re[: (cap - 1) // 2 + 1])
            assert np.array_equal(b, conv._im[: (cap - 1) // 2 + 1])
            assert np.array_equal(a_rev, conv._re[::-1])
            assert np.array_equal(b_rev, conv._im[::-1])
            nbytes = sum(x.nbytes for x in (conv._re, conv._im, *conv._mirrors))
            assert nbytes <= 16 * (cap + 1), cap
            if cap % 2:
                assert nbytes == 16 * (cap + 1), cap

    def test_a_growth_drops_the_mirrors_and_the_next_read_rebuilds_them(self):
        chi = quartic_pair(13)[0]
        conv = Convolver(chi)
        conv.H(99)
        old = conv._mirrors
        conv.extend(300)
        assert conv._mirrors is None and conv._chunk is None
        _, f_series, _ = _products(13, 300)
        assert conv.F(300) == _times(conv.denominator, f_series[300])
        assert conv._mirrors is not old and len(conv._mirrors[2]) == 301
        assert np.array_equal(conv._mirrors[2], conv._re[::-1])
        conv.H(120)  # no growth: the same mirrors serve
        assert len(conv._mirrors[2]) == 301
