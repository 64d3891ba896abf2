import math
from fractions import Fraction

import pytest

from farkas.characters import canonical_quartic, quartic_pair
from farkas.foundations import divisors, gaussian
from farkas.identities import (
    ConfiguredIdentity,
    asymptotic_report,
    check_configured_identity,
    constants_for,
    dichotomy_scan,
    discriminant_search,
    obstruction_id1,
    obstruction_id2,
    quartic_primes,
    residual_series,
    verify_farkas,
    verify_id1,
    verify_id2,
)
from farkas.qseries import Convolver, convolver, sigma_prime_values


class TestConstants:
    def test_p5(self):
        chi, chibar = quartic_pair(5)
        c = constants_for(5, chi)
        assert c.alpha == Fraction(3, 5)
        assert c.alpha_prime == gaussian("-2/5", "-3/10")  # -(4+3i)/10
        assert c.beta_prime == gaussian(1, "1/2")  # (2+i)/2
        cbar = constants_for(5, chibar)
        assert cbar.alpha == c.alpha
        assert cbar.alpha_prime == c.alpha_prime.conj()
        assert cbar.beta_prime == c.beta_prime.conj()

    def test_p13(self):
        chi, _ = quartic_pair(13)
        c = constants_for(13, chi)
        assert c.alpha == 1
        assert c.alpha_prime == gaussian(0, "-1/2")  # -i/2
        assert c.beta_prime == gaussian(1, "3/2")  # (2+3i)/2


class TestVerifyId1:
    def test_passes_for_5_and_13(self):
        assert verify_id1(5, 400).passed
        assert verify_id1(13, 400).passed

    def test_fails_early_for_29(self):
        report = verify_id1(29, 10)
        assert not report.passed
        assert report.failure_n == 1
        assert (report.lhs, report.rhs) == (gaussian(-1), gaussian("3/7"))

    def test_report_shape(self):
        report = verify_id1(5, 50)
        d = report.to_dict()
        assert d["outcome"] == "pass"
        assert "first_failure" not in d


class TestVerifyId2:
    def test_both_quartic_characters_p5(self):
        chi, chibar = quartic_pair(5)
        assert verify_id2(5, chi, 400).passed
        assert verify_id2(5, chibar, 400).passed

    def test_fails_early_for_37(self):
        chi, chibar = quartic_pair(37)
        report = verify_id2(37, chi, 5)
        assert not report.passed
        assert report.failure_n == 2
        assert (report.lhs, report.rhs) == (gaussian(3), gaussian(1, "-6/5"))
        report = verify_id2(37, chibar, 5)
        assert (report.lhs, report.rhs) == (gaussian(3), gaussian(1, "6/5"))


class TestVerifyFarkas:
    def test_constant_term_identity(self):
        # (1/6)**2 = (1/3)*(1/12)
        assert Fraction(1, 6) ** 2 == Fraction(1, 3) * Fraction(1, 12)

    def test_small_sweep(self):
        assert verify_farkas(300).passed


class TestResidualSeries:
    def test_p5_conv_is_zero(self):
        chi, _ = quartic_pair(5)
        assert residual_series(5, chi, "conv", 40).is_zero()

    def test_p13_square_fully_subtracted_is_zero(self):
        chi, _ = quartic_pair(13)
        assert residual_series(13, chi, "square", 40, subtract_hat=True).is_zero()

    def test_p29_conv_obstruction(self):
        chi, _ = quartic_pair(29)
        res = residual_series(29, chi, "conv", 4)
        assert not (res[1].is_zero() and res[2].is_zero())

    def test_unknown_kind(self):
        chi, _ = quartic_pair(5)
        with pytest.raises(ValueError):
            residual_series(5, chi, "bogus", 4)


class TestAsymptotics:
    def test_p5_conv_ratios_constant(self):
        chi, _ = quartic_pair(5)
        rep = asymptotic_report(5, chi, "conv", 200)
        assert all(r.ratio == gaussian("3/5") for r in rep.rows)
        assert rep.max_dev_top_decile == 0
        assert all(r.n % 5 != 0 for r in rep.rows)

    def test_p13_square_subsequence_limits(self):
        chi, _ = quartic_pair(13)
        c = constants_for(13, chi)
        rep = asymptotic_report(13, chi, "square", 400)
        # identity holds, so L+ = alpha' + gamma and L- = alpha' - gamma
        # exactly, with gamma = beta'
        assert rep.limit_plus == c.alpha_prime + c.beta_prime
        assert rep.limit_minus == c.alpha_prime - c.beta_prime
        assert rep.gamma_estimate == c.beta_prime
        assert rep.alpha_prime_estimate == c.alpha_prime

    def test_p29_deviation_decays(self):
        chi, _ = quartic_pair(29)
        small = asymptotic_report(29, chi, "conv", 100)
        large = asymptotic_report(29, chi, "conv", 2000)
        assert large.max_dev_top_decile < small.max_dev_top_decile


class TestConfiguredIdentities:
    def test_degenerate_config_equals_id1(self):
        chi, _ = quartic_pair(5)
        alpha = constants_for(5, chi).alpha
        cfg = ConfiguredIdentity(
            5,
            "quartic-i",
            ((gaussian(1), 1, 1),),
            "sigma_prime",
            (gaussian(alpha),),
        )
        # lhs F(n) must equal alpha * sigma'(n), i.e. verify_id1 verbatim
        report = check_configured_identity(cfg, 100)
        assert report.passed
        assert verify_id1(5, 100).passed

    def test_malformed_configs_rejected(self):
        with pytest.raises(ValueError):
            ConfiguredIdentity(5, "quartic-i", (), "sigma_prime", (gaussian(1),))
        with pytest.raises(ValueError):
            ConfiguredIdentity(
                5, "quartic-i", ((gaussian(1), 0, 1),), "sigma_prime", (gaussian(1),)
            )
        with pytest.raises(ValueError):
            ConfiguredIdentity(
                5, "quartic-i", ((gaussian(1), 1, 1),), "bogus", (gaussian(1),)
            )
        with pytest.raises(ValueError):
            ConfiguredIdentity(
                5, "quartic-i", ((gaussian(1), 1, 1),), "tilde_hat", (gaussian(1),)
            )

    def test_p37_spot_value(self):
        chi = canonical_quartic(37)
        assert convolver(chi).F(34) == gaussian(18)


class TestDiscriminantSearch:
    def test_exact_solution_set(self):
        sols = discriminant_search()
        assert sorted({s.p for s in sols}) == [5, 13]

    def test_known_pairs(self):
        by_p = {s.p: s for s in discriminant_search()}
        assert by_p[5].factor_pair == (36, 20) and by_p[5].x == 8
        assert by_p[13].factor_pair == (60, 12) and by_p[13].x == 24
        # discriminant sanity: (p+23)**2 - 720 = x**2
        for s in discriminant_search():
            assert (s.p + 23) ** 2 - 720 == s.x**2


class TestObstructions:
    def test_id1_verdicts(self):
        assert obstruction_id1(5).consistent
        assert obstruction_id1(13).consistent
        assert not obstruction_id1(29).consistent

    def test_id2_verdicts(self):
        r5 = obstruction_id2(5)
        assert r5.accepted and r5.actual_B == Fraction(4, 5)
        r13 = obstruction_id2(13)
        assert r13.accepted and r13.actual_B == 4
        r29 = obstruction_id2(29)
        assert not r29.accepted and r29.actual_B == 12

    def test_id2_branch_screen(self):
        # for the passing primes some branch reproduces the actual values
        for p in (5, 13):
            rep = obstruction_id2(p)
            matches = [
                b
                for b in rep.branches
                if b.implied_delta0 == rep.actual_delta0
                and b.implied_B is not None
                and b.implied_B.is_real()
                and b.implied_B.re == rep.actual_B
            ]
            assert matches and all(b.admissible for b in matches)

    def test_agreement_with_sweeps_to_200(self):
        for row in dichotomy_scan(200, nmax=10):
            assert row.id1_pass == row.obstruction1_consistent
            assert row.id2_pass == row.obstruction2_accepted


class TestDeligneStyleBound:
    def test_residual_growth_bound_p29(self):
        # M = max over n <= 1e4 of |a(n)| / (sqrt(n) d(n)) bounds sampled
        # larger n up to 2e4; compared via squares to stay exact
        p = 29
        chi = canonical_quartic(p)
        conv = convolver(chi)
        conv.ensure(20000)
        sp = sigma_prime_values(p, 20000)
        alpha = constants_for(p, chi).alpha

        def ratio_sq(n):
            a = conv.F(n).re - alpha * int(sp[n])
            d = len(divisors(n))
            return a * a / (n * d * d)

        m_sq = max(ratio_sq(n) for n in range(1, 10001) if n % p)
        for n in range(10007, 20001, 97):
            if n % p:
                assert ratio_sq(n) <= m_sq
