import random
from unittest import mock

import pytest

from farkas import characters
from farkas.characters import DirichletCharacter, canonical_quartic, quadratic_character, quartic_pair
from farkas.foundations import I, ONE, ZERO, is_prime, kronecker, primitive_root
from oracles import all_characters, trivial_character


class TestQuarticPair:
    def test_p5_values(self):
        chi, _ = quartic_pair(5)
        assert chi.value(2) == I
        assert chi.value(3) == -I
        assert chi.value(4) == -ONE
        assert chi.value(1) == ONE

    def test_p13_values(self):
        chi, _ = quartic_pair(13)
        assert chi.value(2) == I
        assert chi.value(4) == -ONE
        assert chi.value(3) == ONE  # dlog_2(3) = 4 mod 13, i**4 = 1

    def test_rejects_wrong_residue(self):
        with pytest.raises(ValueError):
            quartic_pair(7)
        with pytest.raises(ValueError):
            quartic_pair(17)  # prime but 1 (mod 8)

    def test_components_are_conjugates(self):
        for p in (5, 13, 29, 37):
            chi, chibar = quartic_pair(p)
            assert chibar == chi.conj()
            assert chi.order == chibar.order == 4
            for a in range(1, p):
                assert chibar.value(a) == chi.value(a).conj()

    def test_square_is_kronecker(self):
        for p in (5, 13, 29, 37):
            chi, _ = quartic_pair(p)
            psi = chi.power(2)
            for a in range(0, 2 * p):
                expected = kronecker(p, a) if a % p else 0
                got = psi.value(a)
                assert got.im == 0 and got.re == expected


class TestValue:
    def test_reduction_mod_p(self):
        chi, _ = quartic_pair(5)
        assert chi.value(7) == chi.value(2) == I

    def test_zero_on_multiples(self):
        chi, _ = quartic_pair(13)
        assert chi.value(13) == ZERO
        assert chi.value(0) == ZERO

    def test_p13_a8(self):
        chi, _ = quartic_pair(13)
        assert chi.value(8) == -I  # dlog_2(8) = 3, i**3

    def test_general_order_rejected(self):
        chi = DirichletCharacter(11, 2, 1)  # order 10
        with pytest.raises(ValueError):
            chi.value(3)

    def test_multiplicativity(self):
        rng = random.Random(3)
        for p in (5, 13, 29):
            chi, _ = quartic_pair(p)
            for _ in range(1000):
                a = rng.randrange(1, 10 * p)
                b = rng.randrange(1, 10 * p)
                assert chi.value(a * b) == chi.value(a) * chi.value(b)

    def test_exponent_addition(self):
        chi = DirichletCharacter(11, 2, 1)
        rng = random.Random(5)
        for _ in range(200):
            a = rng.randrange(1, 11)
            b = rng.randrange(1, 11)
            if a % 11 and b % 11:
                assert chi.t_exponent(a * b) == (
                    chi.t_exponent(a) + chi.t_exponent(b)
                ) % 10


class TestParity:
    def test_quartic_is_odd(self):
        chi, _ = quartic_pair(5)
        assert chi.parity() == "odd"
        assert chi.value(4) == chi.value(-1 % 5) == -ONE

    def test_trivial_is_even(self):
        assert trivial_character(7).parity() == "even"

    def test_quadratic_mod_13_even(self):
        assert quadratic_character(13).parity() == "even"

    def test_even_count(self):
        for p in range(3, 108):
            if is_prime(p):
                evens = [c for c in all_characters(p) if c.is_even()]
                assert len(evens) == (p - 1) // 2


class TestPower:
    def test_full_power_is_trivial(self):
        chi, _ = quartic_pair(13)
        assert chi.power(12).is_trivial()

    def test_p11_fifth_power_order(self):
        chi = DirichletCharacter(11, 2, 1)
        assert chi.power(5).order == 2

    def test_power_matches_value_power(self):
        chi, _ = quartic_pair(13)
        psi = chi.power(2)
        for a in range(1, 13):
            assert psi.value(a) == chi.value(a) * chi.value(a)

    def test_t_congruence(self):
        chi = DirichletCharacter(11, 2, 1)
        for k in range(1, 10):
            xik = chi.power(k)
            for d in range(1, 11):
                assert xik.t_exponent(d) == (k * chi.t_exponent(d)) % 10


class TestValidateOnce:
    """Characters built from a validated one skip ``__init__``'s validation."""

    @staticmethod
    def _counted():
        """Call-counting patches of the two validation calls."""
        return (
            mock.patch.object(characters, "is_prime", wraps=characters.is_prime),
            mock.patch.object(
                characters, "discrete_log_table", wraps=characters.discrete_log_table
            ),
        )

    def test_conj_and_power_validate_nothing(self):
        chi = DirichletCharacter(13, 2, 3)
        primes, logs = self._counted()
        with primes as is_prime_spy, logs as log_spy:
            conj, powers = chi.conj(), [chi.power(k) for k in (-1, 0, 2, 5, 12, 25)]
        assert is_prime_spy.call_count == log_spy.call_count == 0
        # the same characters, hashes and values as validated constructions
        assert conj == DirichletCharacter(13, 2, 9)
        assert powers == [DirichletCharacter(13, 2, e) for e in (9, 0, 6, 3, 0, 3)]
        assert hash(conj) == hash(DirichletCharacter(13, 2, 9))
        assert [conj.t_exponent(a) for a in range(1, 13)] == [
            DirichletCharacter(13, 2, 9).t_exponent(a) for a in range(1, 13)
        ]

    def test_all_characters_validate_the_modulus_once(self):
        primes, logs = self._counted()
        with primes as is_prime_spy, logs as log_spy:
            group = all_characters(29, 2)
        assert is_prime_spy.call_count == log_spy.call_count == 1
        assert group == [DirichletCharacter(29, 2, e) for e in range(28)]

    def test_a_bad_modulus_or_root_is_still_refused(self):
        for p, g in ((15, 2), (13, 3), (2, 1)):  # 3 has order 3 mod 13
            with pytest.raises(ValueError):
                all_characters(p, g)


class TestTExponent:
    def test_p11_table(self):
        chi = DirichletCharacter(11, 2, 1)
        q = 5
        assert chi.t_exponent(2) == 1
        assert chi.t_exponent(q) == q - 1
        assert chi.t_exponent(q + 1) == 11 - 2

    def test_rejects_multiples_of_p(self):
        chi = DirichletCharacter(11, 2, 1)
        with pytest.raises(ValueError):
            chi.t_exponent(22)

    @pytest.mark.parametrize("p, g, e", [(11, 2, 1), (13, 6, 5), (59, 8, 29), (101, 2, 40)])
    def test_exponent_table_matches_t_exponent(self, p, g, e):
        chi = DirichletCharacter(p, g, e)
        t = chi.exponent_table()
        assert t.dtype.kind == "i" and len(t) == p and t[0] == 0
        assert [int(x) for x in t[1:]] == [chi.t_exponent(a) for a in range(1, p)]


class TestSafePrimeGenerators:
    def test_two_generates_for_safe_primes(self):
        # p = 2q+1 with q = 1 (mod 4) prime
        for p in range(11, 228):
            if not is_prime(p):
                continue
            q = (p - 1) // 2
            if q % 4 == 1 and is_prime(q):
                assert primitive_root(p) == 2


class TestCanonicalQuartic:
    def test_sign_selection(self):
        assert canonical_quartic(5, +1).value(2) == I
        assert canonical_quartic(5, -1).value(2) == -I
        with pytest.raises(ValueError):
            canonical_quartic(5, 0)
