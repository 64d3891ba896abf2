import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from farkas.foundations import (
    GaussianRational,
    discrete_log_table,
    divisors,
    factorize,
    is_prime,
    kronecker,
    prime_sieve,
    primitive_root,
)
from farkas.qseries import MAX_PRIME
from oracles import discrete_log_walk, gaussian, omega, parse_gaussian, sigma1


def divisors_oracle(n):
    return [d for d in range(1, n + 1) if n % d == 0]


class TestDivisors:
    def test_unit(self):
        assert divisors(1) == [1]

    @pytest.mark.parametrize("n", [6, 34, 360, 997])
    def test_against_trial_division(self, n):
        assert divisors(n) == divisors_oracle(n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            divisors(0)

    def test_count_matches_factorization(self):
        # d(n) = prod (e_i + 1) over the prime factorization
        for n in range(1, 10001):
            expected = 1
            for e in factorize(n).values():
                expected *= e + 1
            assert len(divisors(n)) == expected


class TestSigma1:
    def test_examples(self):
        assert sigma1(1) == 1
        assert sigma1(7) == 8
        assert sigma1(12) == sum(divisors_oracle(12)) == 28

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            sigma1(0)

    def test_multiplicative_on_coprime_pairs(self):
        rng = random.Random(7)
        for _ in range(300):
            m = rng.randrange(1, 100)
            n = rng.randrange(1, 100)
            if math.gcd(m, n) == 1:
                assert sigma1(m * n) == sigma1(m) * sigma1(n)


class TestOmega:
    def test_examples(self):
        assert omega(1) == 0
        assert omega(12) == 2
        assert omega(30) == 3

    def test_robin_style_bound_to_1e6(self):
        # omega(n) < 13841 * ln(n) / ln(ln(n)) for 3 <= n <= 1e6
        N = 1_000_000
        counts = np.zeros(N + 1, dtype=np.int64)
        sieve = np.ones(N + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, N + 1):
            if sieve[p]:
                sieve[2 * p :: p] = False
                counts[p::p] += 1
        n = np.arange(3, N + 1, dtype=np.float64)
        bound = 13841.0 * np.log(n) / np.log(np.log(n))
        assert np.all(counts[3:] < bound)


class TestKronecker:
    def test_paper_value_p5(self):
        assert kronecker(5, 2) == -1

    def test_perfect_square_argument(self):
        assert kronecker(5, 4) == 1

    def test_13_3_against_brute_squares(self):
        squares = {x * x % 13 for x in range(1, 13)}
        assert kronecker(13, 3) == (1 if 3 in squares else -1) == 1

    def test_zero_on_multiples(self):
        assert kronecker(5, 0) == 0
        assert kronecker(5, 10) == 0

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            kronecker(4, 3)
        with pytest.raises(ValueError):
            kronecker(15, 2)

    def test_completely_multiplicative(self):
        rng = random.Random(11)
        for p in (5, 13, 29):
            for _ in range(1000):
                m = rng.randrange(-500, 500)
                n = rng.randrange(-500, 500)
                assert kronecker(p, m * n) == kronecker(p, m) * kronecker(p, n)

    def test_matches_legendre_on_residues(self):
        for p in (5, 13, 29, 37):
            for n in range(1, p):
                legendre = pow(n, (p - 1) // 2, p)
                expected = 1 if legendre == 1 else -1
                # p = 1 (mod 4) makes (p/n) = (n/p)
                assert kronecker(p, n) == expected


class TestIsPrime:
    def test_examples(self):
        assert is_prime(37)
        assert not is_prime(27)
        assert is_prime(107)

    def test_against_trial_division(self):
        def trial(n):
            if n < 2:
                return False
            return all(n % d for d in range(2, int(math.isqrt(n)) + 1))

        for n in range(1, 2000):
            assert is_prime(n) == trial(n)

    def test_large_known(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**61 + 1)


class TestPrimeSieve:
    def test_agrees_with_is_prime_to_two_hundred_thousand(self):
        n = 2 * 10**5
        sieve = prime_sieve(n)
        assert sieve.dtype == bool and len(sieve) == n + 1
        assert sieve.tolist() == [False] + [is_prime(m) for m in range(1, n + 1)]

    def test_small_bounds(self):
        assert prime_sieve(0).tolist() == [False]
        assert prime_sieve(1).tolist() == [False, False]
        assert prime_sieve(2).tolist() == [False, False, True]
        with pytest.raises(ValueError):
            prime_sieve(-1)

    def test_at_max_prime(self):
        # one byte per number: 8 MiB, and the top of it agrees with is_prime
        sieve = prime_sieve(MAX_PRIME)
        assert sieve.nbytes == MAX_PRIME + 1
        top = range(MAX_PRIME - 2000, MAX_PRIME + 1)
        assert sieve[top.start:].tolist() == [is_prime(m) for m in top]
        assert not sieve[MAX_PRIME]


class TestPrimitiveRoot:
    def test_examples(self):
        # order of 2 mod 5 is 4; 2 has order 3 mod 7
        assert primitive_root(5) == 2
        assert primitive_root(7) == 3
        assert primitive_root(11) == 2

    def test_rejects_two(self):
        with pytest.raises(ValueError):
            primitive_root(2)

    def test_generates_group(self):
        for p in (5, 13, 29, 107):
            g = primitive_root(p)
            assert {pow(g, k, p) for k in range(p - 1)} == set(range(1, p))


class TestDiscreteLog:
    def test_examples(self):
        assert discrete_log_table(5, 2)[4] == 2
        assert discrete_log_table(11, 2)[6] == 9  # 2**9 = 512 = 6 (mod 11)
        assert discrete_log_table(13, 2)[1] == 0

    def test_round_trip(self):
        for p, g in ((5, 2), (11, 2), (37, 2)):
            table = discrete_log_table(p, g)
            assert table.dtype == np.int64 and len(table) == p and table[0] == -1
            for a in range(1, p):
                k = int(table[a])
                assert pow(g, k, p) == a
                assert 0 <= k <= p - 2
            assert not table.flags.writeable

    def test_rejects_non_generator(self):
        with pytest.raises(ValueError):
            discrete_log_table(13, 3)  # 3 has order 3 mod 13

    def test_rejects_a_prime_whose_square_passes_int64(self):
        # 3037000573**2 >= 2**63 > 3037000493**2: a ValueError, raised before
        # any O(p) array, not an assertion
        assert 3037000493**2 < 2**63 <= 3037000573**2
        with pytest.raises(ValueError, match="p\\*\\*2 does not fit int64"):
            discrete_log_table.__wrapped__(3037000573, 2)

    def test_matches_the_walk_for_every_prime_below_5000(self):
        # the least primitive root of every odd prime below 5000, and every
        # g mod p at p <= 101: the table equals the walk over the powers of
        # g, and a g that generates nothing less raises like the walk
        build = discrete_log_table.__wrapped__  # no cache between calls
        for p in range(3, 5000, 2):
            if is_prime(p):
                g = primitive_root(p)
                assert build(p, g).tolist() == discrete_log_walk(p, g), p
        for p in range(3, 102, 2):
            if not is_prime(p):
                continue
            for g in range(1, p):
                try:
                    want = discrete_log_walk(p, g)
                except ValueError:
                    with pytest.raises(ValueError):
                        build(p, g)
                else:
                    assert build(p, g).tolist() == want, (p, g)

    def test_takes_order_sqrt_p_interpreter_steps(self):
        # baby steps and giant steps: O(sqrt(p)) traced lines, where the
        # walk over every power of g took about 4 p
        p = 19997
        g = primitive_root(p)
        lines = 0

        def tracer(frame, event, arg):
            nonlocal lines
            lines += event == "line"
            return tracer

        sys.settrace(tracer)
        try:
            table = discrete_log_table.__wrapped__(p, g)
        finally:
            sys.settrace(None)
        assert table.tolist() == discrete_log_walk(p, g)
        assert 0 < lines < 20 * math.isqrt(p), lines

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 37, 101, 127])
    def test_accepts_exactly_the_generators(self, p):
        for g in range(-2, 2 * p + 2):
            generator = len({pow(g, k, p) for k in range(1, p)}) == p - 1
            if generator:
                table = discrete_log_table(p, g)
                assert all(pow(g, int(table[a]), p) == a for a in range(1, p))
            else:
                with pytest.raises(ValueError):
                    discrete_log_table(p, g)


fractions = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
)
gaussians = st.builds(GaussianRational, fractions, fractions)


class TestGaussianRational:
    @given(gaussians, gaussians, gaussians)
    def test_field_axioms_spot_checks(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(gaussians)
    def test_conjugation_and_norm(self, z):
        assert z.conj().conj() == z
        assert z.norm_sq() >= 0
        assert (z.norm_sq() == 0) == z.is_zero()
        assert z * z.conj() == GaussianRational(z.norm_sq())

    @given(gaussians)
    def test_division_inverts_multiplication(self, z):
        if not z.is_zero():
            w = GaussianRational(Fraction(3, 7), Fraction(-2, 5))
            assert (w * z) / z == w

    @given(gaussians)
    def test_str_parse_round_trip(self, z):
        assert parse_gaussian(str(z)) == z

    def test_parse_rejects_malformed_strings(self):
        for text in ("3/5", "1+2", "i", "", "3/5+/2i"):
            with pytest.raises(ValueError):
                parse_gaussian(text)

    def test_formatting(self):
        assert str(gaussian("3/10", "1/10")) == "3/10+1/10i"
        assert str(gaussian(1, -2)) == "1-2i"

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gaussian(1) / gaussian(0)
