import hashlib
import random
from unittest import mock

import pytest
from sympy import totient

from farkas import characters
from farkas.characters import DirichletCharacter, canonical_quartic, quadratic_character, quartic_pair
from farkas.foundations import I, ONE, ZERO, discrete_log_table, is_prime, kronecker, primitive_root
from farkas.identities import quartic_primes
from oracles import all_characters, discrete_log_walk, trivial_character


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
        chi = DirichletCharacter(11, 1)  # order 10
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
        chi = DirichletCharacter(11, 1)
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
        chi = DirichletCharacter(11, 1)
        assert chi.power(5).order == 2

    def test_power_matches_value_power(self):
        chi, _ = quartic_pair(13)
        psi = chi.power(2)
        for a in range(1, 13):
            assert psi.value(a) == chi.value(a) * chi.value(a)

    def test_t_congruence(self):
        chi = DirichletCharacter(11, 1)
        for k in range(1, 10):
            xik = chi.power(k)
            for d in range(1, 11):
                assert xik.t_exponent(d) == (k * chi.t_exponent(d)) % 10


class TestCheapConstruction:
    """Construction checks p and e only: no discrete-log table is built."""

    @staticmethod
    def _table_spy():
        return mock.patch.object(
            characters, "discrete_log_table", wraps=characters.discrete_log_table
        )

    def test_conj_and_power_build_no_table(self):
        with self._table_spy() as log_spy:
            chi = DirichletCharacter(13, 3)
            conj, powers = chi.conj(), [chi.power(k) for k in (-1, 0, 2, 5, 12, 25)]
        assert log_spy.call_count == 0
        assert conj == DirichletCharacter(13, 9)
        assert [psi.e for psi in powers] == [9, 0, 6, 3, 0, 3]
        assert hash(conj) == hash(DirichletCharacter(13, 9))
        assert [conj.t_exponent(a) for a in range(1, 13)] == [
            -chi.t_exponent(a) % 12 for a in range(1, 13)
        ]

    def test_all_characters_build_no_table(self):
        with self._table_spy() as log_spy:
            group = all_characters(29)
        assert log_spy.call_count == 0
        assert [chi.e for chi in group] == list(range(28))

    def test_a_bad_modulus_or_exponent_is_refused(self):
        for p, e in ((15, 0), (2, 0), (1, 0), (13, -1), (13, 12)):
            with pytest.raises(ValueError):
                DirichletCharacter(p, e)


class TestTExponent:
    def test_p11_table(self):
        chi = DirichletCharacter(11, 1)
        q = 5
        assert chi.t_exponent(2) == 1
        assert chi.t_exponent(q) == q - 1
        assert chi.t_exponent(q + 1) == 11 - 2

    def test_rejects_multiples_of_p(self):
        chi = DirichletCharacter(11, 1)
        with pytest.raises(ValueError):
            chi.t_exponent(22)

    @pytest.mark.parametrize("p, e", [(11, 1), (13, 5), (59, 29), (101, 40)])
    def test_exponent_table_matches_t_exponent(self, p, e):
        chi = DirichletCharacter(p, e)
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


# sha256 of the labels of every quartic_pair(p), p = 5 (mod 8) below 20 000,
# one per line, as chi(2) = +i read through value(2) chose them
QUARTIC_LABELS_SHA256 = "8f834a3bedff8acd58954be2acb0aa4a68b4d23f4e4bb5717fe631bf7a67bc93"


class TestOneNamePerCharacter:
    def test_quartic_pair_makes_the_choice_of_the_value_at_two(self):
        labels = []
        for p in quartic_primes(20000):
            chi = DirichletCharacter(p, (p - 1) // 4)
            if chi.value(2) != I:
                chi = chi.conj()
            assert quartic_pair(p) == (chi, chi.conj()), p
            pair = [c.label() for c in quartic_pair(p)]
            g = primitive_root(p)
            assert pair == [f"chi[p={p},g={g},e={c.e}]" for c in (chi, chi.conj())], p
            labels += pair
        assert len(labels) == 1138
        digest = hashlib.sha256("\n".join(labels).encode()).hexdigest()
        assert digest == QUARTIC_LABELS_SHA256

    @pytest.mark.parametrize("p", [p for p in range(5, 62) if is_prime(p)])
    def test_a_character_against_another_root_is_one_of_these(self, p):
        # chi' with chi'(h) = zeta_{p-1}**f for a primitive root h other than
        # g takes chi'(a) = zeta_{p-1}**(f dlog_h(a)): the values of exactly
        # one DirichletCharacter(p, e), e = f / dlog_g(h) mod p - 1
        by_values = {tuple(chi.exponent_table()[1:].tolist()): chi for chi in all_characters(p)}
        assert len(by_values) == p - 1
        g, dlog_g = primitive_root(p), discrete_log_table(p)
        others = 0
        for h in range(g + 1, p):
            try:
                dlog_h = discrete_log_walk(p, h)
            except ValueError:  # h does not generate
                continue
            others += 1
            inverse = pow(int(dlog_g[h]), -1, p - 1)
            images = []
            for f in range(p - 1):
                chi = by_values[tuple(f * t % (p - 1) for t in dlog_h[1:])]
                assert chi.e == f * inverse % (p - 1), (p, h, f)
                images.append(chi)
            assert len(set(images)) == p - 1
        assert others == totient(p - 1) - 1
