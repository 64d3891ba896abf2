import bisect
import math
import sys
import tracemalloc
from fractions import Fraction
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farkas import foundations, identities, qseries
from farkas.characters import canonical_quartic, quadratic_character, quartic_pair
from farkas.foundations import GaussianRational, discrete_log_table, divisors, kronecker
from farkas.identities import (
    FIRST_BLOCK,
    RHS_SIEVE_FLOOR,
    Branch,
    DichotomyRow,
    _tree_sum,
    asymptotic_report,
    check_configured_identity,
    configured_identity,
    constants_for,
    dichotomy_scan,
    discriminant_search,
    obstruction_id1,
    obstruction_id2,
    quartic_primes,
    verify_farkas,
    verify_id1,
    verify_id2,
)
from farkas.qseries import (
    Convolver,
    _delta0_numerator,
    bernoulli_B2_psi,
    character_table,
    convolver,
    delta_constant,
    delta_series,
    kronecker_table,
    sigma_prime_values,
    sigma_tilde_values,
)
from oracles import (
    builtin_config_names, gaussian, load_builtin_config, quartic_primes_walk, sigma_hat_series,
    sigma_prime_series, sigma_tilde_series,
)
from test_qseries import _oracle, assert_holds_only_delta, exact_sum_bound


def _exact(conv, pair):
    """An int pair read from ``conv`` (F, H or a row of ``numerators``) over
    ``conv.denominator``: the exact value in Q(i)."""
    D = conv.denominator
    return GaussianRational(Fraction(pair[0], D), Fraction(pair[1], D))


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


class _Sieved(NamedTuple):
    table: bytes
    times_d: bool
    quotient: bool
    lo: int  # the first index sieved
    N: int  # the last


def _sieved():
    """A patch of ``qseries._sieve`` that logs every call as a ``_Sieved``,
    and the log."""
    log = []
    sieve = qseries._sieve

    def logged(table, N, times_d=False, quotient=False, prefix=None, dtype=np.int64):
        lo = 1 if prefix is None else max(len(prefix), 1)
        log.append(_Sieved(table.tobytes(), times_d, quotient, lo, N))
        return sieve(table, N, times_d, quotient, prefix, dtype)

    return mock.patch.object(qseries, "_sieve", logged), log


def _product_lengths(spy):
    """The length of every class pair a ``_full_product`` spy saw: each
    call builds one tail, and every pair of it (F's a*a and b*b) counts."""
    lengths = [[len(pair[0]) for pair in call.args] for call in spy.call_args_list]
    assert all(len(set(tail)) == 1 for tail in lengths), lengths
    return [m for tail in lengths for m in tail]


class TestVerifyId1:
    def test_passes_for_5_and_13(self):
        assert verify_id1(5, 400).passed
        assert verify_id1(13, 400).passed

    def test_fails_early_for_29(self):
        report = verify_id1(29, 10)
        assert not report.passed
        assert report.failure_n == 1
        assert (report.lhs, report.rhs) == (gaussian(-1), gaussian("3/7"))

    def test_a_refutation_builds_no_long_product(self):
        # the sweep stops in its first block [0, 4): one F tail of 4
        # coefficients, delta_chi sieved to 3 and sigma' to the rhs floor,
        # not to nmax
        chi = canonical_quartic(37)
        convolver.cache_clear()
        patch, sieved = _sieved()
        with patch, mock.patch.object(
            qseries, "_full_product", wraps=qseries._full_product
        ) as spy:
            report = verify_id1(37, 200_000, chi)
        assert report.failure_n is not None and report.failure_n < FIRST_BLOCK
        assert convolver(chi).capacity == FIRST_BLOCK - 1
        assert sorted(s.N for s in sieved) == [FIRST_BLOCK - 1, RHS_SIEVE_FLOOR]
        assert _product_lengths(spy) == [FIRST_BLOCK] * 2

    def test_report_shape(self):
        report = verify_id1(5, 50)
        assert report.outcome == "pass"
        assert report.failure_n is None and report.lhs is None and report.rhs is None


def _watched_rhs(hook):
    """Patch the sweeps' rhs builder to show each block to hook(D, lo, hi, re)."""
    build = identities._linear_rhs

    def patched(p, D, *args, **kwargs):
        block = build(p, D, *args, **kwargs)

        def rhs(lo, hi):
            re, im = block(lo, hi)
            hook(D, lo, hi, re)
            return re, im

        return rhs

    return mock.patch.object(identities, "_linear_rhs", patched)


def _patched_rhs(n):
    """The rhs at n becomes rhs(n) + 1 (D * rhs(n) gains D), so a sweep of a
    true identity fails there."""

    def add_one(D, lo, hi, re):
        if lo <= n < hi:
            re[n - lo] += D

    return _watched_rhs(add_one)


P37_2_17 = load_builtin_config("p37_2_17.json")
NMAX = 2 * RHS_SIEVE_FLOOR + 5


def _config_lhs(cfg, n):
    conv = convolver(cfg.chi)
    return sum(
        (a * _exact(conv, conv.F(n // b * c)) for a, b, c in cfg.lhs if n % b == 0),
        GaussianRational(),
    )


def _p13(n, c):
    """F (c = -1) or H (c = 1) at n for the canonical character mod 13."""
    conv = convolver(canonical_quartic(13))
    return _exact(conv, conv.F(n) if c < 0 else conv.H(n))


SWEEPS = {  # kind -> (the sweep to nmax, the exact lhs at n)
    "conv": (lambda nmax: verify_id1(13, nmax), lambda n: _p13(n, -1)),
    "square": (
        lambda nmax: verify_id2(13, canonical_quartic(13), nmax),
        lambda n: _p13(n, 1),
    ),
    "config": (lambda nmax: check_configured_identity(P37_2_17, nmax), lambda n: _config_lhs(P37_2_17, n)),
}


class TestBlockSweep:
    @pytest.mark.parametrize("kind", list(SWEEPS))
    @pytest.mark.parametrize("n", [None, 7, NMAX])
    def test_int64_and_object_blocks_give_one_report(self, kind, n):
        # a cap of 1 makes every block Python ints; a cap at the rhs bound of
        # the last growth of the sieved series (to NMAX) makes the blocks
        # read before it int64 and those after it object, within one sweep
        sweep, _ = SWEEPS[kind]
        bounds, exact_sum = [], identities.exact_sum

        def recorded(terms, at_zero=None):
            # the rhs blocks' bounds only: a configured identity's lhs blocks
            # pick their dtype by the same rule
            if sys._getframe(1).f_code.co_name == "rhs":
                bounds.append(exact_sum_bound(terms, at_zero))
            return exact_sum(terms, at_zero)

        def run(cap):
            blocks, dtypes = {}, set()

            def hook(D, lo, hi, re):
                dtypes.add(re.dtype)
                if n is not None and lo <= n < hi:
                    re[n - lo] += D
                blocks[lo, hi] = re.tolist()

            with mock.patch.object(qseries, "INT64_CAP", cap), _watched_rhs(hook):
                return sweep(NMAX), blocks, dtypes

        with mock.patch.object(identities, "exact_sum", recorded):
            wide = run(qseries.INT64_CAP)
        mixed, narrow = run(max(bounds)), run(1)
        assert wide[2] == {np.dtype(np.int64)} and narrow[2] == {np.dtype(object)}
        if n != 7:  # a sweep that fails at 7 grows its series once
            assert mixed[2] == {np.dtype(np.int64), np.dtype(object)}
        assert wide[0] == mixed[0] == narrow[0]
        assert wide[0].passed == (n is None)
        assert wide[1] == mixed[1] == narrow[1]

    @pytest.mark.parametrize("kind", list(SWEEPS))
    @pytest.mark.parametrize(
        "n", [0, 1, 2, 3, 4, 5, 15, 16, 17, 1023, 1024, 4095, 4096, NMAX]
    )
    def test_a_patched_rhs_fails_at_exactly_its_n(self, kind, n):
        # blocks end at n = 3, 15, 63, ..., 4095, then NMAX
        sweep, lhs = SWEEPS[kind]
        with _patched_rhs(n):
            report = sweep(NMAX)
        if kind == "config" and n == 0:
            assert report.passed  # a configured identity is swept from n = 1
            return
        assert (report.failure_n, report.lhs, report.rhs) == (n, lhs(n), lhs(n) + 1)

    @pytest.mark.parametrize(
        "nmax, ends",
        [
            (0, [1]), (3, [4]), (4, [5]), (5, [4, 6]), (16, [4, 17]), (17, [4, 16, 18]),
            (10_000, [4, 16, 64, 256, 1024, 4096, 10_001]),
            (16_384, [4, 16, 64, 256, 1024, 4096, 16_385]),
        ],
    )
    def test_blocks_end_at_powers_of_four(self, nmax, ends):
        # the block that would reach nmax ends at nmax + 1 instead: the last
        # block starts at 4**k >= nmax / 4 and holds at least two n
        blocks = []
        with _watched_rhs(lambda D, lo, hi, re: blocks.append((lo, hi))):
            assert verify_id1(13, nmax).passed
        assert [hi for _, hi in blocks] == ends
        assert [lo for lo, _ in blocks] == [0] + ends[:-1]

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 4, 6, 100, 1023, 1024, 4095, 4096, 12000, 16384, 20000]
    )
    def test_a_refutation_at_n_builds_tails_of_order_n(self, n):
        """Whole-series work of a sweep that fails at n >= 1: no tail past
        4 n + 1 coefficients, under 16 n / 3 + 1 in all.

        For n <= 3 the sweep stops in its first block [0, 4): one tail of 4
        coefficients, F's two products of length 4.  Each block [lo, hi)
        reads a tail of hi coefficients.  A block past the first has
        hi <= 4 lo, or is the last, which ends at nmax + 1 <= 4 lo + 1; the
        failing block has lo <= n, so its tail has at most 4 n + 1
        coefficients.  The tails before it are 4, 16, ..., 4**k <= n, under
        4 n / 3 in all.  A tail is two products of its length (F's a*a + b*b,
        fused in one ``_full_product`` call).
        """
        chi = canonical_quartic(13)
        convolver.cache_clear()
        with _patched_rhs(n), mock.patch.object(
            qseries, "_full_product", wraps=qseries._full_product
        ) as spy:
            assert verify_id1(13, 50_000, chi).failure_n == n
        lengths = _product_lengths(spy)
        if n < FIRST_BLOCK:
            assert lengths == [FIRST_BLOCK] * 2
        assert max(lengths) <= 4 * n + 1
        assert 3 * sum(lengths) <= 2 * (16 * n + 3)

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 4, 100, 511, 512, 1023, 1024, 2047, 2048, 4095, 4096, 16384, 20000]
    )
    def test_a_refutation_at_n_sieves_order_n(self, n):
        """A sweep that fails at n >= 1 sieves no table past max(4 n,
        RHS_SIEVE_FLOOR), and delta_chi to 4 n at most.

        A block [lo, hi) sieves delta_chi to hi - 1 and the rhs to max(hi -
        1, RHS_SIEVE_FLOOR), both at most nmax, and the failing block has
        hi - 1 < 4 n, or is the last, with nmax <= 4 lo <= 4 n."""
        convolver.cache_clear()
        patch, sieved = _sieved()
        with _patched_rhs(n), patch:
            assert verify_id1(13, 50_000, canonical_quartic(13)).failure_n == n
        re, im = qseries.character_table(canonical_quartic(13))
        delta_table = (re * qseries.PACK + im).tobytes()  # delta_chi is sieved from this table
        assert max(s.N for s in sieved) <= max(4 * n, RHS_SIEVE_FLOOR)
        assert max(s.N for s in sieved if s.table == delta_table) <= 4 * n
        assert len({s.table for s in sieved}) == 2  # delta (re, im packed) and sigma'

    @pytest.mark.parametrize(
        "kind, nmax",
        [
            ("conv", 2048), ("conv", 15_000), ("conv", 16_384), ("conv", 65_536),
            ("square", 15_000), ("farkas", 10_000),
        ],
    )
    def test_a_passing_sweep_builds_one_tail_per_block_and_sieves_each_index_once(
        self, kind, nmax
    ):
        # tails of 4, 16, ..., 4**k and nmax + 1 coefficients: one per block,
        # each but the last half its FFT length, and none for a single
        # coefficient when nmax is a power of 4 (65 536 ends 16 384, 65 537).
        # Two products per tail, one for the real mod-3 character (Im delta
        # = 0, so F's tail is a*a alone).  Per table, the sieved segments
        # are [1, N1], [N1 + 1, N2], ..., [.., nmax]: one per block at most
        sweeps = {
            "conv": lambda: verify_id1(13, nmax),
            "square": lambda: verify_id2(13, canonical_quartic(13), nmax),
            "farkas": lambda: verify_farkas(nmax),
        }
        convolver.cache_clear()
        patch, sieved = _sieved()
        with patch, mock.patch.object(
            qseries, "_full_product", wraps=qseries._full_product
        ) as spy:
            assert sweeps[kind]().passed
        tails = [4**k for k in range(1, 9) if 4**k < nmax] + [nmax + 1]
        per_tail = 1 if kind == "farkas" else 2
        assert _product_lengths(spy) == [m for m in tails for _ in range(per_tail)]
        segments = {}
        for s in sieved:
            segments.setdefault((s.table, s.times_d, s.quotient), []).append((s.lo, s.N))
        assert len(segments) == (3 if kind == "square" else 2)
        for parts in segments.values():
            assert [lo for lo, _ in parts] == [1] + [N + 1 for _, N in parts[:-1]]
            assert parts[-1][1] == nmax
            assert len(parts) <= len(tails)


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

    def test_a_refutation_sieves_its_first_block(self):
        # fails at n = 2: delta_chi stops at 3, sigma~ and sigma^ at the
        # rhs floor
        chi = quartic_pair(37)[0]
        convolver.cache_clear()
        patch, sieved = _sieved()
        with patch:
            assert verify_id2(37, chi, 200_000).failure_n == 2
        assert convolver(chi).capacity == FIRST_BLOCK - 1
        assert sorted(s.N for s in sieved) == [FIRST_BLOCK - 1] + [RHS_SIEVE_FLOOR] * 2


class TestVerifyFarkas:
    def test_constant_term_identity(self):
        # (1/6)**2 = (1/3)*(1/12)
        assert Fraction(1, 6) ** 2 == Fraction(1, 3) * Fraction(1, 12)

    def test_small_sweep(self):
        assert verify_farkas(300).passed


# ---------------------------------------------------------------------
# slow oracles: whole series from the generic Cauchy product, and the
# ratio table row by row from the index read
# ---------------------------------------------------------------------

def residual_series(p, chi, kind, N, subtract_hat=False):
    """Exact lhs - rhs coefficient series.

    kind 'conv' subtracts alpha * sigma'; kind 'square' subtracts
    alpha' * sigma~ (and additionally beta' * sigma^ when subtract_hat
    is set, which for p in {5, 13} leaves the zero series).
    """
    consts = constants_for(p, chi)
    if kind == "conv":
        lhs = delta_series(chi, N) * delta_series(chi.conj(), N)
        rhs = sigma_prime_series(p, N).scale(consts.alpha)
    elif kind == "square":
        d = delta_series(chi, N)
        lhs = d * d
        rhs = sigma_tilde_series(p, N).scale(consts.alpha_prime)
        if subtract_hat:
            lhs = lhs - sigma_hat_series(p, N).scale(consts.beta_prime)
    else:
        raise ValueError(f"unknown residual kind {kind!r}")
    return lhs - rhs


class Row(NamedTuple):
    """One exact row of the ratio table: lhs(n), rhs(n) = sigma(n), lhs / rhs."""

    n: int
    kron: int
    lhs: GaussianRational
    rhs: GaussianRational
    ratio: GaussianRational


def report_rows(rep):
    """The rows of an ``AsymptoticReport``'s integer arrays, as exact ``Row``s."""
    D = rep.denominator
    return [
        Row(
            n, k,
            GaussianRational(Fraction(re, D), Fraction(im, D)),
            GaussianRational(Fraction(s)),
            GaussianRational(Fraction(re, D * s), Fraction(im, D * s)),
        )
        for n, k, re, im, s in zip(
            rep.n.tolist(), rep.kron.tolist(), rep.lhs_re.tolist(),
            rep.lhs_im.tolist(), rep.sigma.tolist(),
        )
    ]


def per_row_report(p, chi, kind, nmax):
    """The ratio table built row by row from exact F(n) and H(n), each one
    per-n dot (``_oracle``, no Convolver), with the statistics over every
    top-decile row: an oracle for the array report.  Returns (rows, stats)."""
    conv = Convolver(chi)
    alpha = constants_for(p, chi).alpha
    c, sigma = (
        (-1, sigma_prime_values(p, nmax)) if kind == "conv"
        else (1, sigma_tilde_values(p, nmax))
    )
    values = _oracle(chi, range(nmax + 1), c)
    decile_lo = nmax - nmax // 10
    rows, top = [], {1: [], -1: []}
    for n in range(1, nmax + 1):
        if n % p == 0:
            continue
        lhs, s = _exact(conv, values[n]), int(sigma[n])
        ratio = GaussianRational(lhs.re / s, lhs.im / s)
        rows.append(Row(n, kronecker(p, n), lhs, GaussianRational(Fraction(s)), ratio))
        if n >= decile_lo:
            top[rows[-1].kron].append(ratio)
    if kind == "conv":
        ratios = top[1] + top[-1]
        assert all(r.im == 0 for r in ratios)
        return rows, {"max_dev_top_decile": max((abs(r.re - alpha) for r in ratios), default=0)}
    l_plus, l_minus = (sum(b, GaussianRational()) / len(b) for b in (top[1], top[-1]))
    return rows, {
        "limit_plus": l_plus,
        "limit_minus": l_minus,
        "gamma_estimate": (l_plus - l_minus) / 2,
        "alpha_prime_estimate": (l_plus + l_minus) / 2,
    }


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
        rows = report_rows(rep)
        assert all(r.ratio == gaussian("3/5") for r in rows)
        assert rep.max_dev_top_decile == 0
        assert all(r.n % 5 != 0 for r in rows)

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

    def test_square_rejects_an_empty_top_decile_bucket(self):
        chi, _ = quartic_pair(13)
        # the top decile of n <= 5 is {5}, and (13/5) = -1
        with pytest.raises(ValueError, match="Kronecker symbol \\+1"):
            asymptotic_report(13, chi, "square", 5)

    def test_kronecker_column_matches_the_symbol_without_primality_tests(self):
        # kronecker(p, n) runs is_prime(p) on every call
        is_prime, calls = foundations.is_prime, []

        def counted(n):
            calls.append(n)
            return is_prime(n)

        for p in (29, 37):
            chi, _ = quartic_pair(p)
            with mock.patch.object(foundations, "is_prime", counted):
                reps = [asymptotic_report(p, chi, kind, 400) for kind in ("conv", "square")]
            assert calls == []  # no kronecker(p, n) per row
            for rep in reps:
                assert rep.kron.tolist() == [kronecker(p, n) for n in rep.n.tolist()]

    def test_p29_deviation_decays(self):
        chi, _ = quartic_pair(29)
        small = asymptotic_report(29, chi, "conv", 100)
        large = asymptotic_report(29, chi, "conv", 2000)
        assert large.max_dev_top_decile < small.max_dev_top_decile


class TestArrayReportAgainstPerRowOracle:
    @pytest.mark.parametrize("p", [5, 13, 29, 37])
    @pytest.mark.parametrize("kind", ["conv", "square"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_rows_and_statistics_agree_exactly(self, p, kind, sign):
        chi = canonical_quartic(p, sign)
        rep = asymptotic_report(p, chi, kind, 400)
        rows, stats = per_row_report(p, chi, kind, 400)
        got = report_rows(rep)
        assert len(got) == len(rows) == 400 - 400 // p
        assert got == rows
        # exact Python ints in the lhs arrays, whatever their size
        assert all(type(x) is int for x in rep.lhs_re.tolist() + rep.lhs_im.tolist())
        for name, value in stats.items():
            assert getattr(rep, name) == value, name
        # the statistics, summed as Fractions over the exact rows
        top = [r for r in got if r.n >= 400 - 400 // 10]
        if kind == "conv":
            alpha = constants_for(p, chi).alpha
            assert rep.max_dev_top_decile == max(abs(r.ratio.re - alpha) for r in top)
            return
        for k, limit in ((1, rep.limit_plus), (-1, rep.limit_minus)):
            bucket = [r.ratio for r in top if r.kron == k]
            assert limit == sum(bucket, GaussianRational()) / len(bucket)


def lcm_weighted_sum(bucket):
    """Oracle: sum (x + i y)/s over the (x, y, s) of ``bucket`` as (X, Y, ell),
    X + i Y = sum (x + i y) ell / s, ell the lcm of the s."""
    ell = math.lcm(*(s for _, _, s in bucket))
    return (
        sum(x * (ell // s) for x, _, s in bucket),
        sum(y * (ell // s) for _, y, s in bucket),
        ell,
    )


class TestTreeSum:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(-(10**6), 10**6),
                st.integers(-(10**6), 10**6),
                st.integers(1, 10**4).flatmap(lambda s: st.sampled_from([s, -s])),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_equals_the_fraction_sum(self, terms):
        x, y, s = _tree_sum(terms)
        assert len(terms) == 1 or math.gcd(x, y, s) == 1  # reduced at the last merge
        assert Fraction(x, s) == sum(Fraction(a, c) for a, _, c in terms)
        assert Fraction(y, s) == sum(Fraction(b, c) for _, b, c in terms)

    @pytest.mark.parametrize("N", [300, 10**4, 2 * 10**5])
    def test_square_limits_equal_the_lcm_weighted_sum(self, N):
        rep = asymptotic_report(29, canonical_quartic(29), "square", N)
        top = rep.n >= N - N // 10
        for k, limit in ((1, rep.limit_plus), (-1, rep.limit_minus)):
            chosen = top & (rep.kron == k)
            bucket = list(zip(*(col[chosen].tolist() for col in (rep.lhs_re, rep.lhs_im, rep.sigma))))
            x, y, ell = lcm_weighted_sum(bucket)
            den = rep.denominator * ell * len(bucket)
            assert limit == GaussianRational(Fraction(x, den), Fraction(y, den)), k


class TestRhsBuilders:
    @pytest.mark.parametrize("kind", ["conv", "square", "farkas", "config"])
    def test_builders_rebound_on_the_module_are_the_ones_called(self, kind, monkeypatch):
        # an identity reads its divisor-sum builders from the module when it
        # is set up, so a wrapper rebound there (as a tracer does) sees
        # every array the sweep builds
        calls = set()
        for name in ("sigma_prime_values", "sigma_tilde_values", "sigma_hat_values"):
            def traced(p, *args, name=name, build=getattr(identities, name)):
                calls.add((name, p))
                return build(p, *args)

            monkeypatch.setattr(identities, name, traced)
        cfg = load_builtin_config(builtin_config_names()[0])
        sweeps = {
            "conv": (13, lambda: verify_id1(13, 3000)),
            "square": (13, lambda: verify_id2(13, canonical_quartic(13), 3000)),
            "farkas": (3, lambda: verify_farkas(3000)),
            "config": (cfg.chi.p, lambda: check_configured_identity(cfg, 1000)),
        }
        p, sweep = sweeps[kind]
        assert sweep().passed
        square = kind == "square" or (kind == "config" and cfg.use_H)
        names = ("sigma_tilde_values", "sigma_hat_values") if square else ("sigma_prime_values",)
        assert calls == {(name, p) for name in names}


# each entry point that takes p and chi, called with p = 29 and chi mod 13
MISMATCHED = {
    "verify_id1": lambda chi: verify_id1(29, 50, chi),
    "verify_id2": lambda chi: verify_id2(29, chi, 50),
    "constants_for": lambda chi: constants_for(29, chi),
    "asymptotic_report": lambda chi: asymptotic_report(29, chi, "square", 50),
    "obstruction_id2": lambda chi: obstruction_id2(29, chi),
}


@pytest.mark.parametrize("entry", list(MISMATCHED))
def test_a_character_of_another_modulus_is_refused_before_any_sieve(entry):
    # chi mod 13's F or H against p = 29's divisor sums and B_{2,psi}
    # would report a first failure of no identity
    chi = canonical_quartic(13)
    with mock.patch.object(qseries, "_sieve", side_effect=AssertionError("a sieve ran")):
        with pytest.raises(ValueError, match=r"^chi is a character mod 13, not mod p = 29$"):
            MISMATCHED[entry](chi)


class TestConfiguredIdentities:
    def test_degenerate_config_equals_id1(self):
        chi, _ = quartic_pair(5)
        alpha = constants_for(5, chi).alpha
        cfg = configured_identity(
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

    @pytest.mark.parametrize("name", builtin_config_names())
    def test_config_reads_one_dilated_tail_per_term(self, name):
        # past the first block, the lookups F(k C), k = 1..N // B, of a term
        # are one read of step C at the offset 0: one tail of N // B + 1
        # coefficients a term (N // B >= 3 in each).  Before them, each term
        # with a multiple of B in the first block [1, 4) reads its lookups
        # there on its own, from a short tail.  None outlives the check
        cfg = load_builtin_config(name)
        convolver.cache_clear()
        with mock.patch.object(
            Convolver, "_whole_tail", autospec=True, side_effect=Convolver._whole_tail
        ) as built:
            assert check_configured_identity(cfg, 1000).passed
        tails = [call.args[1:] for call in built.call_args_list]
        first, long = tails[: -len(cfg.lhs)], tails[-len(cfg.lhs) :]
        assert sorted(long) == sorted((1000 // b, -1, c, 0) for _, b, c in cfg.lhs)
        assert len(first) == sum(b < FIRST_BLOCK for _, b, _ in cfg.lhs)
        assert all(m + 1 <= qseries.DIRECT_PRODUCT for m, *_ in first), first
        assert_holds_only_delta(convolver(cfg.chi))

    @pytest.mark.parametrize("n", [1, 3])
    def test_a_refuted_config_stops_in_its_first_block(self, n):
        # rhs 41 sigma' against F(95) = 40 at n = 1, or a patched rhs at
        # n = 3: the first block [1, 4) reads F(95), F(190) and F(285) on
        # their own, so no long lookup is built
        cfg = load_builtin_config("p37_5_19.json")
        refuted = _replace(cfg, rhs=((gaussian(41), cfg.rhs[0][1]),)) if n == 1 else cfg
        convolver.cache_clear()
        with _patched_rhs(-1 if n == 1 else n), mock.patch.object(
            qseries, "_full_product", wraps=qseries._full_product
        ) as spy:
            report = check_configured_identity(refuted, 10_000)
        assert spy.called and max(_product_lengths(spy)) <= qseries.DIRECT_PRODUCT
        assert convolver(canonical_quartic(37)).capacity == (FIRST_BLOCK - 1) * 95
        lhs = gaussian(40) if n == 1 else _config_lhs(cfg, 3)
        assert (report.failure_n, report.lhs, report.rhs) == (n, lhs, lhs + 1)

    def test_malformed_configs_rejected(self):
        with pytest.raises(ValueError):
            configured_identity(5, "quartic-i", (), "sigma_prime", (gaussian(1),))
        with pytest.raises(ValueError):
            configured_identity(
                5, "quartic-i", ((gaussian(1), 0, 1),), "sigma_prime", (gaussian(1),)
            )
        with pytest.raises(ValueError):
            configured_identity(
                5, "quartic-i", ((gaussian(1), 1, 1),), "bogus", (gaussian(1),)
            )
        with pytest.raises(ValueError):
            configured_identity(
                5, "quartic-i", ((gaussian(1), 1, 1),), "tilde_hat", (gaussian(1),)
            )

    @pytest.mark.parametrize("scale", [1, 2**44])
    def test_lhs_blocks_equal_the_per_index_oracle(self, scale):
        # complex A over H lookups, against one H(m) read per lookup: at
        # scale 1 the blocks are int64; at 2**44 every A fits int64 but
        # A H(m) outgrows it as m grows, so the bound must send the later
        # blocks to Python ints
        cfg = configured_identity(
            13, "quartic-i", ((gaussian(scale, 3), 1, 7), (gaussian(-2, scale), 3, 5)),
            "tilde_hat", (gaussian(1), gaussian(1)),
        )
        with mock.patch.object(identities, "_run_verification") as run:
            check_configured_identity(cfg, 300)
        D, lhs = run.call_args.args[4], run.call_args.args[5]
        conv = convolver(canonical_quartic(13))
        dtypes = []
        for lo, hi in ((1, 3), (3, 40), (40, 301)):
            re, im = lhs(lo, hi)
            dtypes.append(re.dtype)
            for n, x, y in zip(range(lo, hi), re.tolist(), im.tolist()):
                want = sum(
                    (a * _exact(conv, conv.H(n // b * c)) for a, b, c in cfg.lhs if n % b == 0),
                    GaussianRational(),
                )
                assert GaussianRational(Fraction(x, D), Fraction(y, D)) == want, (scale, n)
        assert (dtypes == [np.int64] * 3) if scale == 1 else (dtypes[-1] == object)

    def test_p37_spot_value(self):
        conv = convolver(canonical_quartic(37))
        assert conv.F(34) == (18 * conv.denominator, 0)
        assert _exact(conv, conv.F(34)) == gaussian(18)


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


# the obstruction equations and the constants in GaussianRational
# arithmetic, as the package first computed them: oracles for the
# Gaussian-integer forms

HALF = Fraction(1, 2)


def constants_oracle(p, chi):
    d0 = delta_constant(chi)
    alpha = d0.norm_sq() / Fraction(p - 1, 24)
    tilde0 = -bernoulli_B2_psi(p) / 4
    alpha_prime = d0 * d0 / tilde0
    return alpha, alpha_prime, d0 * 2 - alpha_prime


def obstruction1_oracle(p):
    """(n = 1 holds, n = 2 holds) for the canonical chi, chi(2) = +i."""
    L = delta_constant(canonical_quartic(p)) * 2
    norm = L.norm_sq()
    return (
        Fraction(p - 1, 6) * L.re == norm,
        Fraction(p - 1, 18) * (L.re + L.im + 1) == norm,
    )


def obstruction2_oracle(p, chi):
    """(n = 2 holds, combined n = 3 holds) for the squared identity."""
    d0, x2, x3 = delta_constant(chi), chi.value(2), chi.value(3)
    tilde0 = GaussianRational(-bernoulli_B2_psi(p) / 4)
    quad = d0 * d0 / tilde0 == -x2 * d0 - HALF
    psi3 = x3 * x3
    lhs3 = (1 + x3) * d0 * 2 + (1 + x2) * 2
    rhs3 = (-x2 * d0 - HALF) * (1 + psi3 * 3) + (d0 * 2 + x2 * d0 + HALF) * (3 + psi3)
    return quad, lhs3 == rhs3


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

    def test_id2_branches_are_solved_once_per_chi2(self):
        def per_prime(x2):
            # the four chi(3) branches as each prime used to solve them
            half = Fraction(1, 2)
            branches = []
            for chi3 in (gaussian(1), gaussian(-1), gaussian(0, 1), gaussian(0, -1)):
                psi3 = chi3 * chi3
                coeff = (1 + chi3) * 2 + x2 * (1 + psi3 * 3) - (2 + x2) * (3 + psi3)
                const = -half * (1 + psi3 * 3) + half * (3 + psi3) - (1 + x2) * 2
                if coeff.is_zero():
                    branches.append(Branch(chi3, None, None, False))
                    continue
                d0 = const / coeff
                denom = x2 * d0 + half
                implied_B = None if denom.is_zero() else d0 * d0 * 4 / denom
                admissible = implied_B is not None and implied_B.is_real() and implied_B.re <= 4
                branches.append(Branch(chi3, d0, implied_B, admissible))
            return branches

        for p in quartic_primes(1000):
            for chi in quartic_pair(p):
                assert obstruction_id2(p, chi).branches == per_prime(chi.value(2)), (p, chi)

    def test_scan_computes_each_prime_constant_once(self):
        primes = quartic_primes(200)
        for cached in (quartic_pair, bernoulli_B2_psi, constants_for):
            cached.cache_clear()
        with mock.patch.object(identities, "delta_constant", wraps=delta_constant) as d0:
            dichotomy_scan(200)
        # every prime builds its character pair and B_2,psi once; only the
        # primes whose identities hold at n <= 2 (5 and 13) run sweeps, and
        # one IdentityConstants serves both of a prime's sweeps
        for cached in (quartic_pair, bernoulli_B2_psi):
            info = cached.cache_info()
            assert info.misses == len(primes) and info.hits > 0, cached
        info = constants_for.cache_info()
        assert (info.misses, info.hits) == (2, 2)
        # delta_chi(0) is read through the public delta_constant once per
        # prime (obstruction_id2's report); the constants take 2p
        # delta_chi(0) from _delta0_numerator
        assert d0.call_count == len(primes)

    def test_scan_computes_each_delta0_numerator_once(self):
        # 2p delta_chi(0) is read three times per prime (obstruction_id1,
        # and obstruction_id2's z and its delta_constant), and twice more at
        # the two primes whose sweeps run (5 and 13: constants_for and the
        # Convolver); the sweeps run at their prime, so the O(p) dot runs
        # once per character
        primes = quartic_primes(1000)
        assert len(primes) == 43
        for cached in (convolver, constants_for, _delta0_numerator):
            cached.cache_clear()
        with mock.patch.object(identities, "delta_constant", wraps=delta_constant) as d0:
            dichotomy_scan(1000, 50)
        info = _delta0_numerator.cache_info()  # misses: calls of the dot itself
        assert (info.misses, info.hits + info.misses) == (43, 3 * 43 + 2 * 2)
        # the public delta_constant: once per prime, in obstruction_id2
        assert d0.call_count == 43

    def test_scan_tests_each_number_for_primality_once(self):
        # the 125 candidates p = 5 (mod 8) below 1000 are read off one prime
        # sieve (tested one by one, they took 125 is_prime calls here and
        # 125 + 43 cache misses in all; now 0 calls and 43 misses); then the
        # tables of each of the 43 primes ask about p five times (the
        # character pair, its primitive root and character, B_2,psi, the
        # Kronecker table), and only the first asks runs a test; the sweeps
        # of 5 and 13 run at their prime, on the tables still cached
        for cached in (foundations.is_prime, *SCAN_CACHES):
            cached.cache_clear()
        with mock.patch.object(identities, "prime_sieve", wraps=foundations.prime_sieve) as sieve, \
                mock.patch.object(identities, "is_prime", wraps=foundations.is_prime) as spy:
            rows = dichotomy_scan(1000, 50)
        assert sieve.call_count == 1 and spy.call_count == 0 and len(rows) == 43
        assert foundations.is_prime.cache_info().misses == len(rows)

    def test_quartic_primes_equal_the_per_candidate_walk_at_every_bound(self):
        walk = quartic_primes_walk(20000)
        for pmax in range(-1, 20001):
            assert quartic_primes(pmax) == walk[: bisect.bisect_right(walk, pmax)], pmax

    def test_integer_verdicts_and_constants_match_the_rational_formulas(self):
        outcomes = set()
        for p in quartic_primes(5000):
            r1 = obstruction_id1(p)
            assert (r1.eq_n1_holds, r1.eq_n2_holds) == obstruction1_oracle(p), p
            assert r1.consistent == (r1.eq_n1_holds and r1.eq_n2_holds)
            outcomes |= {("n1", r1.eq_n1_holds), ("n2", r1.eq_n2_holds)}
            for chi in quartic_pair(p):
                r2 = obstruction_id2(p, chi)
                quad, combined = obstruction2_oracle(p, chi)
                assert (r2.quad_eq_holds, r2.combined_eq_holds) == (quad, combined), (p, chi)
                assert r2.accepted == (quad and combined)
                assert r2.actual_delta0 == delta_constant(chi)
                assert r2.actual_B == bernoulli_B2_psi(p)
                outcomes |= {("quad", quad), ("combined", combined)}
                c = constants_for(p, chi)
                assert (c.alpha, c.alpha_prime, c.beta_prime) == constants_oracle(p, chi), (p, chi)
        # every equation both holds (p in {5, 13}) and fails somewhere
        assert outcomes == {(eq, v) for eq in ("n1", "n2", "quad", "combined") for v in (True, False)}

    def test_agreement_with_sweeps_to_200(self):
        for row in dichotomy_scan(200, nmax=10):
            assert row.id1_pass == row.obstruction1_consistent
            assert row.id2_pass == row.obstruction2_accepted


def _replace(record, **changes):
    """A copy of a record with ``changes`` to its fields."""
    return type(record)(**{**vars(record), **changes})


# the sweeps of the scan's passing primes, (p, kind)
PASSING_SWEEPS = [(p, kind) for p in (5, 13) for kind in ("conv", "square")]


class TestObstructionScan:
    """The scan reads every prime's verdicts at n <= 2 off its obstruction
    equations, and only the primes whose identities hold there run a
    sweep."""

    @pytest.mark.parametrize("nmax", [0, 1, 2, 3, 50])
    def test_rows_equal_the_per_prime_sweeps(self, nmax):
        want = []
        for p in quartic_primes(5000):
            chi = canonical_quartic(p)
            r1, r2 = verify_id1(p, nmax, chi), verify_id2(p, chi, nmax)
            want.append(DichotomyRow(
                p, r1.passed, r1.failure_n, r2.passed, r2.failure_n,
                obstruction_id1(p).consistent, obstruction_id2(p, chi).accepted,
            ))
        assert dichotomy_scan(5000, nmax) == want

    def test_only_the_primes_past_the_first_block_run_a_sweep(self):
        # p = 5 and 13, both identities: 4 sweeps, where every prime ran
        # both (86 at pmax = 1000)
        run = mock.patch.object(
            identities, "_run_verification", wraps=identities._run_verification
        )
        with run as spy:
            rows = dichotomy_scan(1000, 50)
        assert spy.call_count == 4
        assert sorted(call.args[:3] for call in spy.call_args_list) == [
            (p, canonical_quartic(p).label(), kind) for p in (5, 13) for kind in ("conv", "square")
        ]
        assert [r.p for r in rows if r.id1_pass and r.id2_pass] == [5, 13]

    def test_a_perturbed_alpha_changes_its_row_alone(self):
        # p = 13 passes n <= 2, so its sweep runs: its scaled alpha + 1
        # moves rhs(1) by sigma'(1) = 1, and F fails at n = 1.  No other row
        # changes
        base = dichotomy_scan(1000, 50)
        real = identities._linear_rhs

        def perturbed(p, D, terms, *args, **kwargs):
            if p == 13 and [build for _, build in terms] == [qseries.sigma_prime_values]:
                ((alpha, build),) = terms
                terms = [(alpha + Fraction(1, D), build)]  # D alpha + 1
            return real(p, D, terms, *args, **kwargs)

        with mock.patch.object(identities, "_linear_rhs", perturbed):
            rows = dichotomy_scan(1000, 50)
        changed = [(a, b) for a, b in zip(base, rows) if a != b]
        assert [b.p for _, b in changed] == [13]
        (old, new), = changed
        assert old.id1_pass and (new.id1_pass, new.id1_failure_n) == (False, 1)
        assert _replace(new, id1_pass=True, id1_failure_n=None) == old

    @pytest.mark.parametrize(
        "obstruction, target, field, value, identity, sweeps",
        [
            # F(1) read as holding at 29: F(2) fails (eq_n2), with no sweep
            ("obstruction_id1", 29, "eq_n1_holds", True, "id1", PASSING_SWEEPS),
            # H(2) read as holding at 29: n <= 2 all hold for H, so its sweep
            # runs and finds the real failure at n = 2
            ("obstruction_id2", 29, "quad_eq_holds", True, "id2",
             [*PASSING_SWEEPS, (29, "square")]),
            # H(2) read as failing at 13: H fails at 2, and its sweep is skipped
            ("obstruction_id2", 13, "quad_eq_holds", False, "id2", PASSING_SWEEPS[:3]),
        ],
    )
    def test_a_perturbed_obstruction_changes_its_row_alone(
        self, obstruction, target, field, value, identity, sweeps
    ):
        # the perturbed verdict moves the row's first failure to n = 2 and
        # leaves its obstruction columns (computed before the patch) and
        # every other row as they were
        base = dichotomy_scan(1000, 50)
        real = getattr(identities, obstruction)

        def perturbed(p, *args):
            report = real(p, *args)
            return _replace(report, **{field: value}) if p == target else report

        run = mock.patch.object(
            identities, "_run_verification", wraps=identities._run_verification
        )
        with mock.patch.object(identities, obstruction, perturbed), run as spy:
            rows = dichotomy_scan(1000, 50)
        for old, new in zip(base, rows):
            if old.p != target:
                assert new == old
        (old,), (new,) = ([r for r in t if r.p == target] for t in (base, rows))
        fields = {f"{identity}_pass": False, f"{identity}_failure_n": 2}
        assert new == _replace(old, **fields)
        assert sorted((c.args[0], c.args[2]) for c in spy.call_args_list) == sorted(sweeps)

    def test_the_obstruction_equations_give_the_sweeps_first_failures(self):
        # the derivation of dichotomy_scan's docstring, at every p = 5 (mod 8)
        # below 20 000: F first fails at 1 unless eq_n1 holds, else at 2
        # unless eq_n2 holds, and H at 2 unless quad_eq holds, as the
        # sweeps to n = 2 find
        primes = quartic_primes(20000)
        assert len(primes) == 569
        for p in primes:
            chi = canonical_quartic(p)
            ob1, ob2 = obstruction_id1(p), obstruction_id2(p, chi)
            f = 1 if not ob1.eq_n1_holds else 2 if not ob1.eq_n2_holds else None
            h = None if ob2.quad_eq_holds else 2
            assert verify_id1(p, 2, chi).failure_n == f, p
            assert verify_id2(p, chi, 2).failure_n == h, p


SCAN_CACHES = (
    convolver, character_table, kronecker_table, quartic_pair, discrete_log_table,
    bernoulli_B2_psi, constants_for, _delta0_numerator,
)


class TestScanMemory:
    def test_scan_caches_keep_the_last_primes_only(self):
        dichotomy_scan(3000, 3)
        for cached in SCAN_CACHES:
            info = cached.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize <= 4, cached
        last = quartic_primes(3000)[-1]
        for p, hit in ((last, True), (5, False)):  # the first prime was released
            before = quartic_pair.cache_info()
            quartic_pair(p)
            after = quartic_pair.cache_info()
            assert (after.hits - before.hits, after.misses - before.misses) == (hit, not hit)

    def test_scan_peak_memory_does_not_grow_with_pmax(self):
        def peak(pmax):
            for cached in SCAN_CACHES:
                cached.cache_clear()
            tracemalloc.start()
            try:
                dichotomy_scan(pmax, 3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(1000), peak(3000)
        assert large < small + 2**20, (small, large)


class TestNoTailOutlivesACheck:
    """After a sweep or a ratio report, passed, failed or raised, the cached
    Convolver holds only delta_chi's int16 pair."""

    @pytest.mark.parametrize("kind", ["conv", "square", "farkas", "refutation", "asympt"])
    def test_the_cached_convolver_holds_no_tail_afterwards(self, kind):
        chi13, chi29 = canonical_quartic(13), canonical_quartic(29)
        runs = {
            "conv": (chi13, lambda: verify_id1(13, 5000, chi13).passed),
            "square": (chi13, lambda: verify_id2(13, chi13, 5000).passed),
            "farkas": (quadratic_character(3), lambda: verify_farkas(5000).passed),
            "refutation": (chi29, lambda: not verify_id1(29, 5000, chi29).passed),
            "asympt": (chi13, lambda: asymptotic_report(13, chi13, "square", 2000).nmax == 2000),
        }
        chi, run = runs[kind]
        convolver.cache_clear()
        with mock.patch.object(
            Convolver, "_whole_tail", autospec=True, side_effect=Convolver._whole_tail
        ) as built:
            assert run()
        assert built.called  # the run built a tail...
        assert_holds_only_delta(convolver(chi))  # ...and keeps none

    def test_a_sweep_that_raises_holds_no_tail(self):
        chi = canonical_quartic(13)
        convolver.cache_clear()
        read = Convolver.numerators

        def numerators(self, lo, hi, *args, **kwargs):
            block = read(self, lo, hi, *args, **kwargs)  # the tail is built first
            if lo > 100:
                raise RuntimeError("a block past 100")
            return block

        with mock.patch.object(Convolver, "numerators", numerators), \
                pytest.raises(RuntimeError):
            verify_id1(13, 5000, chi)
        assert_holds_only_delta(convolver(chi))

    @pytest.mark.parametrize("outcome", ["pass", "fail", "raise"])
    def test_a_configured_identity_holds_no_tail(self, outcome):
        # p37_2_17 reads steps 34 and 17 in its first block (2 and 1 hold
        # no n there), then 34, 17, 2 and 1; "raise" fails its third long
        # read after that read has built its tail
        chi = P37_2_17.chi
        convolver.cache_clear()
        read = Convolver.numerators

        def numerators(self, lo, hi, c, step=1):
            block = read(self, lo, hi, c, step)
            if outcome == "raise" and step == 2 and lo < hi:
                raise RuntimeError("the third lookup")
            return block

        with mock.patch.object(Convolver, "numerators", numerators), _patched_rhs(
            100 if outcome == "fail" else -1
        ), mock.patch.object(
            Convolver, "_whole_tail", autospec=True, side_effect=Convolver._whole_tail
        ) as built:
            if outcome == "raise":
                with pytest.raises(RuntimeError):
                    check_configured_identity(P37_2_17, 500)
            else:
                report = check_configured_identity(P37_2_17, 500)
                assert (report.passed, report.failure_n) == (
                    (True, None) if outcome == "pass" else (False, 100)
                )
        assert built.call_count == 2 + (3 if outcome == "raise" else 4)
        assert_holds_only_delta(convolver(chi))


class TestDeligneStyleBound:
    def test_residual_growth_bound_p29(self):
        # M = max over n <= 1e4 of |a(n)| / (sqrt(n) d(n)) bounds sampled
        # larger n up to 2e4; compared via squares to stay exact
        p = 29
        chi = canonical_quartic(p)
        conv = convolver(chi)
        F = conv.F(0, 20001)[0].tolist()  # one read: an index read builds its own tail
        sp = sigma_prime_values(p, 20000)
        alpha = constants_for(p, chi).alpha

        def ratio_sq(n):
            a = Fraction(F[n], conv.denominator) - alpha * int(sp[n])
            d = len(divisors(n))
            return a * a / (n * d * d)

        m_sq = max(ratio_sq(n) for n in range(1, 10001) if n % p)
        for n in range(10007, 20001, 97):
            if n % p:
                assert ratio_sq(n) <= m_sq
