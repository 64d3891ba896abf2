import bisect
import math
import random
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from farkas import charpoly
from farkas.characters import DirichletCharacter, quadratic_character, quartic_pair
from farkas.cli import MAX_POLY_PRIME
from farkas.charpoly import (
    IntPolynomial,
    cyclotomic_zeros,
    even_character_obstruction,
    f_at_one_bound,
    f_poly,
    is_safe_prime_shape,
    reduce_g,
    safe_prime_scan,
    two_generates,
    xq_flags,
)
from farkas.foundations import discrete_log_table, divisors, is_prime
from farkas.qseries import MAX_PRIME
from oracles import (
    coprime_with_xq_minus_1,
    cyclotomic,
    divisible_by_xq_plus_1,
    f_coefficients_per_j,
    poly_product,
    remainder,
    safe_prime_walk,
    to_sympy,
    zero_sum_check,
    zero_sum_is_zero,
)


def P(*coeffs):
    """The int64 coefficient array of a polynomial, index = degree."""
    return np.array(coeffs, dtype=np.int64)


IP = IntPolynomial.make


class TestIntPolynomial:
    def test_trimming_and_degree(self):
        assert IP((1, 0, 0)).degree == 0
        assert IP(()).degree == -1 and IP(()).is_zero()

    def test_exact_division(self):
        num = IP((-1, 0, 0, 0, 1))  # x^4 - 1
        q, r = num.divmod_exact(IP((-1, 0, 1)))  # x^2 - 1
        assert r.is_zero() and q == IP((1, 0, 1))

    def test_division_needs_unit_lead(self):
        with pytest.raises(ValueError):
            IP((1, 1)).divmod_exact(IP((1, 2)))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), max_size=30),
        st.lists(st.integers(-3, 3), max_size=12),
        st.sampled_from([1, -1]),
    )
    def test_sparse_divisors_divide_exactly(self, dividend, divisor, lead):
        # the division skips the divisor's zero coefficients: g = q d + r
        # with deg r < deg d still holds for sparse and dense divisors
        g, d = IP(dividend), IP(divisor + [lead])
        q, r = g.divmod_exact(d)
        assert to_sympy(q.coeffs) * to_sympy(d.coeffs) + to_sympy(r.coeffs) == to_sympy(g.coeffs)
        assert r.degree < d.degree

    def test_divmod_exact_matches_sympy_div(self):
        rng = random.Random(42)
        for _ in range(200):
            g = IP(rng.randrange(-9, 10) for _ in range(rng.randrange(0, 20)))
            d = IP([rng.randrange(-3, 4) for _ in range(rng.randrange(0, 8))] + [rng.choice((1, -1))])
            want_q, want_r = sympy.div(to_sympy(g.coeffs), to_sympy(d.coeffs))
            q, r = g.divmod_exact(d)
            assert (to_sympy(q.coeffs), to_sympy(r.coeffs)) == (want_q, want_r)


class TestCyclotomic:
    # the oracle reverses sympy's coefficient order: pin it on known Phi_d
    def test_small_cases(self):
        assert cyclotomic(1).tolist() == [-1, 1]
        assert cyclotomic(2).tolist() == [1, 1]
        assert cyclotomic(5).tolist() == [1, 1, 1, 1, 1]
        assert cyclotomic(10).tolist() == [1, -1, 1, -1, 1]
        assert cyclotomic(12).tolist() == [1, 0, -1, 0, 1]

    def test_product_reconstructs_x_n_minus_1(self):
        for n in (6, 12, 30):
            prod = poly_product(*(cyclotomic(d) for d in divisors(n)))
            assert prod.tolist() == [-1, *[0] * (n - 1), 1]


def f_oracle(xi):
    """f_xi's int64 coefficients, counted one j at a time, trailing zeros trimmed."""
    return np.trim_zeros(np.array(f_coefficients_per_j(xi), dtype=np.int64), "b")


SAFE_PRIMES_BELOW_500 = safe_prime_scan(500)


class TestFPoly:
    @pytest.mark.parametrize("p", SAFE_PRIMES_BELOW_500)
    def test_matches_dense_oracle(self, p):
        chi = DirichletCharacter(p, 2, 1)
        assert f_poly(chi).tolist() == f_oracle(chi).tolist()

    @pytest.mark.parametrize("p", [*SAFE_PRIMES_BELOW_500, 5939, 20123])
    def test_trailing_zeros_are_trimmed(self, p):
        # a zero past f's leading coefficient would be flagged as a zero
        # coefficient of the report: 2p - 4 would join the list
        f = f_poly(DirichletCharacter(p, 2, 1))
        assert f.dtype == np.int64 and len(f) <= 2 * p - 3 and f[-1] != 0

    @pytest.mark.parametrize("p", [5939, 20123])
    def test_many_chunks_match_the_per_j_oracle(self, p):
        # 30 and 37 chunks of rows: every sum is counted once across the
        # chunk boundaries, against an oracle that lists its own divisors
        want = f_coefficients_per_j(DirichletCharacter(p, 2, 1))
        while want[-1] == 0:
            want.pop()
        assert f_poly(DirichletCharacter(p, 2, 1)).tolist() == want

    @pytest.mark.parametrize("p", [11, 59])
    def test_every_power_matches_dense_oracle(self, p):
        chi = DirichletCharacter(p, 2, 1)
        for k in range(p - 1):
            assert f_poly(chi.power(k)).tolist() == f_oracle(chi.power(k)).tolist(), k

    @pytest.mark.parametrize("p, g, e", [(13, 6, 1), (37, 5, 4), (59, 8, 3), (59, 8, 29)])
    def test_other_primitive_roots_match_dense_oracle(self, p, g, e):
        xi = DirichletCharacter(p, g, e)
        assert f_poly(xi).tolist() == f_oracle(xi).tolist()

    @pytest.mark.parametrize("p", [11, 59])
    def test_coefficient_facts(self, p):
        f = f_poly(DirichletCharacter(p, 2, 1))
        assert f[0] == p - 1
        assert f[1] == (p - 1) // 2 + 1
        assert f[p - 1] == 0 and f[p] == 0
        assert len(f) - 1 <= 2 * p - 4
        assert (f >= 0).all()

    def test_value_at_one_counts_divisor_pairs(self):
        p = 11
        f = f_poly(DirichletCharacter(p, 2, 1))
        assert f.sum() == sum(
            len(divisors(j)) * len(divisors(p - j)) for j in range(1, p)
        )


class TestFAtOneBound:
    @pytest.mark.parametrize("p", [MAX_POLY_PRIME, MAX_PRIME])
    def test_fits_int64_at_the_caps(self, p):
        assert f_at_one_bound(p) < 2**63

    @pytest.mark.parametrize("p", [*SAFE_PRIMES_BELOW_500, 5939])
    def test_bounds_f_at_one(self, p):
        divisor_sum = sum(len(divisors(j)) for j in range(1, p))
        assert divisor_sum < p * (1 + math.log(p))
        f = f_poly(DirichletCharacter(p, 2, 1))
        assert f.sum() <= divisor_sum**2 < f_at_one_bound(p)


class TestReduceG:
    def test_folding(self):
        p = 11
        x_p_minus_1 = P(*[0] * (p - 1), 1)
        assert reduce_g(x_p_minus_1, p).tolist() == [1] + [0] * (p - 2)

    def test_low_degree_unchanged(self):
        p = 11
        f = P(3, 0, 2, 1)
        assert reduce_g(f, p).tolist() == [3, 0, 2, 1] + [0] * (p - 5)

    @pytest.mark.parametrize("p", SAFE_PRIMES_BELOW_500)
    def test_gives_p_minus_1_int64_coefficients(self, p):
        g = reduce_g(f_poly(DirichletCharacter(p, 2, 1)), p)
        assert g.dtype == np.int64 and g.shape == (p - 1,)

    def test_preserves_value_at_roots_of_unity_surrogate(self):
        # x**(p-1) - 1 divides f - g, so values at 1 agree
        p = 11
        f = f_poly(DirichletCharacter(p, 2, 1))
        g = reduce_g(f, p)
        assert len(g) - 1 <= p - 2
        assert g.sum() == f.sum()
        diff = to_sympy(f) - to_sympy(g)
        assert sympy.rem(diff, sympy.Poly(sympy.Symbol("x") ** (p - 1) - 1)).is_zero


class TestDivisibilityTests:
    def test_p11_g_divisible(self):
        p, q = 11, 5
        g = reduce_g(f_poly(DirichletCharacter(p, 2, 1)), p)
        assert divisible_by_xq_plus_1(g, q)
        assert coprime_with_xq_minus_1(g, q)

    def test_constructed_cases(self):
        q = 5
        xq_plus_1 = P(1, 0, 0, 0, 0, 1)
        xq_minus_1 = P(-1, 0, 0, 0, 0, 1)
        assert not divisible_by_xq_plus_1(xq_minus_1, q)
        assert divisible_by_xq_plus_1(poly_product(xq_plus_1, P(2, 1)), q)
        assert not coprime_with_xq_minus_1(poly_product(cyclotomic(q), xq_plus_1), q)
        assert coprime_with_xq_minus_1(xq_plus_1, q)


def division_zeros(g, n):
    """Oracle: d -> whether sympy's Phi_d divides g, by long division, for d | n."""
    return {d: remainder(g, cyclotomic(d)).is_zero() for d in divisors(n)}


class TestCyclotomicZeros:
    @pytest.mark.parametrize("p", safe_prime_scan(2000))
    def test_remainders_match_the_division_oracle(self, p):
        g = reduce_g(f_poly(DirichletCharacter(p, 2, 1)), p)
        assert cyclotomic_zeros(g, p - 1) == division_zeros(g, p - 1)

    def test_two_remainders_replace_the_four_divisions(self):
        p, q = 467, 233
        g = reduce_g(f_poly(DirichletCharacter(p, 2, 1)), p)
        with mock.patch.object(
            IntPolynomial, "divmod_exact", autospec=True, side_effect=IntPolynomial.divmod_exact
        ) as spy:
            cyclotomic_zeros(g, p - 1)
        zeros = (0,) * (q - 1)
        assert [call.args[1].coeffs for call in spy.call_args_list] == [(-1, *zeros, 1), (1, *zeros, 1)]

    @pytest.mark.parametrize("n", [4, 9, 18, 2])
    def test_rejects_n_other_than_twice_an_odd_prime(self, n):
        with pytest.raises(ValueError):
            cyclotomic_zeros(P(1), n)


class TestXqFlags:
    @pytest.mark.parametrize("p", SAFE_PRIMES_BELOW_500)
    def test_report_flags_match_oracles(self, p):
        q = (p - 1) // 2
        g = reduce_g(f_poly(DirichletCharacter(p, 2, 1)), p)
        rep = even_character_obstruction(p)
        assert rep.divisible_by_xq_plus_1 == divisible_by_xq_plus_1(g, q)
        assert rep.coprime_with_xq_minus_1 == coprime_with_xq_minus_1(g, q)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([3, 5, 7, 13]),
        st.lists(st.integers(-5, 5), min_size=1, max_size=8),
        st.lists(st.booleans(), min_size=4, max_size=4),
    )
    def test_phi_factor_rule_matches_gcd_oracle(self, q, cofactor, chosen):
        g = poly_product(
            cofactor,
            *(cyclotomic(d) for use, d in zip(chosen, (1, 2, q, 2 * q)) if use),
        )
        zeros = cyclotomic_zeros(g, 2 * q)
        assert zeros == division_zeros(g, 2 * q)
        assert all(zeros[d] for use, d in zip(chosen, (1, 2, q, 2 * q)) if use)
        assert xq_flags(zeros, q) == (
            divisible_by_xq_plus_1(g, q),
            coprime_with_xq_minus_1(g, q),
        )


class TestSafePrimeScan:
    def test_bounds(self):
        assert safe_prime_scan(120) == [11, 59, 83, 107]
        assert safe_prime_scan(10) == []
        scan = safe_prime_scan(230)
        assert 179 in scan and 227 in scan

    def test_shape_predicate(self):
        assert is_safe_prime_shape(11)
        assert not is_safe_prime_shape(13)
        assert not is_safe_prime_shape(7)  # q = 3 is 3 (mod 4)

    def test_two_generates_matches_the_discrete_log_table(self):
        # every p = 2q + 1 < 2000 with q an odd prime, whatever q mod 4, so
        # that both answers occur (2 has order 3 mod 7, and q mod 4 = 3)
        primes = [p for p in range(7, 2000, 2) if is_prime(p) and is_prime(p // 2)]
        answers = []
        for p in primes:
            try:
                DirichletCharacter(p, 2, 1)
                oracle = True
            except ValueError:
                oracle = False
            answers.append(oracle)
            assert two_generates(p) == oracle, p
        assert True in answers and False in answers

    def test_scan_matches_a_walk_over_every_odd_p(self):
        bound = 3000
        oracle = [
            p for p in range(11, bound + 1, 2)
            if is_prime(p) and (p - 1) // 2 % 4 == 1 and is_prime((p - 1) // 2)
        ]
        assert safe_prime_scan(bound) == oracle

    def test_scan_equals_the_per_candidate_walk_at_every_bound(self):
        # the sieve reads every candidate off one array: at each bound up to
        # 20 000 (and below the first candidate, 11) it returns what testing
        # each p = 3 (mod 8) on its own returns
        walk = safe_prime_walk(20000)
        for bound in range(-1, 20001):
            assert safe_prime_scan(bound) == walk[: bisect.bisect_right(walk, bound)], bound

    def test_scan_tests_no_candidate_on_its_own(self):
        walk = safe_prime_walk(5000)
        with mock.patch.object(charpoly, "is_safe_prime_shape", side_effect=AssertionError), \
                mock.patch.object(charpoly, "is_prime", side_effect=AssertionError):
            assert safe_prime_scan(5000) == walk

    def test_shape_tests_q_mod_4_before_any_primality_test(self):
        with mock.patch.object(charpoly, "is_prime", side_effect=AssertionError) as spy:
            for p in range(11, 200):
                if p % 8 != 3:
                    assert not is_safe_prime_shape(p)
        assert spy.call_count == 0

    def test_scan_builds_no_discrete_log_tables(self):
        before = discrete_log_table.cache_info().misses
        assert len(safe_prime_scan(5000)) > 20
        assert discrete_log_table.cache_info().misses == before


class TestEvenObstruction:
    def test_p11_table(self):
        p = 11
        rep = even_character_obstruction(p)
        assert rep.b0 == 10 and rep.b1 == 6
        assert rep.b_p_minus_1 == 0 and rep.b_p == 0
        assert rep.divisible_by_xq_plus_1 and rep.coprime_with_xq_minus_1
        assert rep.zero_characters().tolist() == [k % 2 == 1 for k in range(p - 1)]
        assert rep.f_at_one >= 10  # trivial character sum is positive

    @pytest.mark.parametrize("p", safe_prime_scan(1100))
    def test_each_verdict_is_a_cyclotomic_division(self, p):
        # the verdict of chi**k is that of the order d of zeta**k: whether
        # Phi_d divides g, here by one long division per order
        g = reduce_g(f_poly(DirichletCharacter(p, 2, 1)), p)
        divides = division_zeros(g, p - 1)
        zeros = even_character_obstruction(p).zero_characters()
        assert len(zeros) == p - 1
        for k in range(p - 1):
            assert zeros[k] == divides[(p - 1) // math.gcd(k, p - 1)], k

    def test_p59_even_rows_nonzero(self):
        rep = even_character_obstruction(59)
        assert rep.all_even_nonzero() and rep.all_odd_zero()

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            even_character_obstruction(13)


class TestZeroSum:
    def test_direct_route_quartics(self):
        for p in (5, 13):
            chi, _ = quartic_pair(p)
            assert zero_sum_check(chi).is_zero()

    def test_mod3_quadratic(self):
        # delta(1)delta(2) + delta(2)delta(1) with delta(2) = 1 + chi(2) = 0
        assert zero_sum_check(quadratic_character(3)).is_zero()

    def test_polynomial_route_odd_characters(self):
        chi = DirichletCharacter(11, 2, 1)
        value = zero_sum_check(chi)
        assert isinstance(value, IntPolynomial)
        assert value.is_zero()
        for k in (1, 3, 7):
            assert zero_sum_is_zero(chi.power(k))

    def test_polynomial_route_even_character_nonzero(self):
        chi = DirichletCharacter(11, 2, 1)
        assert not zero_sum_is_zero(chi.power(2))

    def test_routes_agree_for_quartic(self):
        # direct Q(i) evaluation vs the cyclotomic reduction, p = 13 quartic
        chi, _ = quartic_pair(13)
        direct = zero_sum_check(chi)
        g = reduce_g(f_poly(chi), 13)
        assert direct.is_zero() == remainder(g, cyclotomic(12)).is_zero() == True  # noqa: E712
