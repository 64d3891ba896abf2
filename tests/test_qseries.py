import math
import random
from fractions import Fraction

import numpy as np
import pytest

from farkas.characters import DirichletCharacter, quadratic_character, quartic_pair
from farkas.foundations import GaussianRational, divisors, gaussian, kronecker, omega
from farkas.qseries import (
    MAX_DIVISOR_COUNT,
    MAX_FAST_N,
    Convolver,
    QSeries,
    _sieve,
    bernoulli_B2_psi,
    cauchy_product,
    character_table,
    delta_coefficient,
    delta_constant,
    delta_int_arrays,
    delta_series,
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
        for p in (3, 5, 7, 13, 29, 37):
            st = sigma_tilde_values(p, 200)
            sh = sigma_hat_values(p, 200)
            sp = sigma_prime_values(p, 200)
            for n in range(1, 201):
                assert int(st[n]) == sigma_tilde(p, n)
                assert int(sh[n]) == sigma_hat(p, n)
                assert int(sp[n]) == sigma_prime(p, n)

    def test_kronecker_table_is_one_period_of_the_odd_arguments(self):
        for p in (3, 5, 7, 11, 13, 29, 31):
            table = kronecker_table(p)
            assert len(table) == (p if p % 4 == 1 else 4 * p)
            for n in range(1, 600, 2):
                assert table[n % len(table)] == kronecker(p, n)
        # over all arguments (3/.) is not periodic mod 12
        assert kronecker(3, 2) == -1 and kronecker(3, 14) == 1

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


class TestConvolutions:
    def test_p5_spot_values(self):
        chi, _ = quartic_pair(5)
        conv = Convolver(chi)
        assert conv.F(0) == gaussian("1/10")
        assert conv.H(0) == gaussian("2/25", "3/50")  # (4+3i)/50
        assert conv.H(1) == gaussian("3/5", "1/5")  # 2*delta(0)*delta(1)

    def test_fast_path_matches_cauchy_product(self):
        # dual route: int64 tail vs the exact generic product
        for p in (5, 13, 29):
            chi, chibar = quartic_pair(p)
            conv = Convolver(chi)
            N = 60
            f_series = delta_series(chi, N) * delta_series(chibar, N)
            h_series = delta_series(chi, N) * delta_series(chi, N)
            for n in range(N + 1):
                assert conv.F(n) == f_series[n]
                assert conv.H(n) == h_series[n]

    def test_F_is_real(self):
        chi, _ = quartic_pair(29)
        conv = Convolver(chi)
        for n in range(200):
            assert conv.F(n).im == 0

    def test_negative_index_rejected(self):
        chi, _ = quartic_pair(5)
        conv = Convolver(chi)
        with pytest.raises(ValueError):
            conv.F(-1)

    def test_scaled_values_are_exact_multiples(self):
        for chi in (quartic_pair(13)[0], quartic_pair(29)[1], quadratic_character(3)):
            conv = Convolver(chi)
            D = 3 * conv.denominator
            for n in range(40):
                for product in (conv.F, conv.H):
                    assert gaussian(*product(n, D)) == product(n) * D
            with pytest.raises(ValueError):
                conv.F(5, conv.denominator + 1)
