"""The contracts of the package's record classes: construction, equality,
hashing, repr and frozenness, one instance of each class."""
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from farkas.characters import DirichletCharacter
from farkas.charpoly import EvenObstructionReport, IntPolynomial
from farkas.foundations import ONE, GaussianRational
from farkas.identities import (
    AsymptoticReport,
    Branch,
    DichotomyRow,
    DiscriminantSolution,
    Identity,
    IdentityConstants,
    Obstruction1Report,
    Obstruction2Report,
    VerificationReport,
)
from farkas.qseries import QSeries
from oracles import load_builtin_config

HALF_I = GaussianRational(Fraction(0), Fraction(1, 2))
HALF_I_REPR = "GaussianRational(re=Fraction(0, 1), im=Fraction(1, 2))"
ONE_REPR = "GaussianRational(re=Fraction(1, 1), im=Fraction(0, 1))"
ARRAYS = [np.array([1, 2], dtype=np.int64) for _ in range(5)]
BRANCH = Branch(HALF_I, None, ONE, False)
BRANCH_REPR = (
    f"Branch(chi3={HALF_I_REPR}, implied_delta0=None, implied_B={ONE_REPR}, admissible=False)"
)
CHI = DirichletCharacter(13, 2, 3)
# an Identity's rhs pairs each coefficient with a divisor-sum builder, a
# function whose repr holds its address: a name stands in for it here
IDENTITY = (CHI, True, ((ONE, 1, 2),), ((HALF_I, "sigma_tilde_values"),), None, "config:x")

# (class, positional arguments, the same with one field changed, repr)
FROZEN = [
    (GaussianRational, (Fraction(1, 2), -3), (Fraction(1, 2), 3),
     "GaussianRational(re=Fraction(1, 2), im=Fraction(-3, 1))"),
    (DirichletCharacter, (13, 2, 3), (13, 2, 9), "DirichletCharacter(p=13, g=2, e=3)"),
    (QSeries, ((ONE, HALF_I),), ((ONE, ONE),),
     f"QSeries(coefficients=({ONE_REPR}, {HALF_I_REPR}))"),
    (IntPolynomial, ((1, 0, -2),), ((1, 0, 2),), "IntPolynomial(coeffs=(1, 0, -2))"),
    (IdentityConstants, (Fraction(2, 3), ONE, HALF_I), (Fraction(2, 3), ONE, ONE),
     f"IdentityConstants(alpha=Fraction(2, 3), alpha_prime={ONE_REPR}, beta_prime={HALF_I_REPR})"),
    (Identity, IDENTITY, (*IDENTITY[:2], ((ONE, 1, 3),), *IDENTITY[3:]),
     f"Identity(chi=DirichletCharacter(p=13, g=2, e=3), use_H=True, lhs=(({ONE_REPR}, 1, 2),),"
     f" rhs=(({HALF_I_REPR}, 'sigma_tilde_values'),), zero=None, kind='config:x')"),
    (DiscriminantSolution, ((40, 18), 6, 11), ((40, 18), 6, 12),
     "DiscriminantSolution(factor_pair=(40, 18), p=6, x=11)"),
    (Branch, (HALF_I, None, ONE, False), (HALF_I, None, ONE, True), BRANCH_REPR),
]
MUTABLE = [
    (EvenObstructionReport, (59, 29, 1, 0, 2, 3, True, False, 841, {1: False}, [4]),
     (59, 29, 1, 0, 2, 3, True, True, 841, {1: False}, [4]),
     "EvenObstructionReport(p=59, q=29, b0=1, b1=0, b_p_minus_1=2, b_p=3,"
     " divisible_by_xq_plus_1=True, coprime_with_xq_minus_1=False, f_at_one=841,"
     " zero_for_order={1: False}, flagged_zero_coefficients=[4])"),
    (VerificationReport, (13, "quartic-i", "conv", 100, "first_failure", 7, ONE, HALF_I),
     (13, "quartic-i", "conv", 100, "first_failure", 8, ONE, HALF_I),
     f"VerificationReport(p=13, character='quartic-i', kind='conv', nmax=100,"
     f" outcome='first_failure', failure_n=7, lhs={ONE_REPR}, rhs={HALF_I_REPR})"),
    (AsymptoticReport, (29, "quartic-i", "conv", 2, *ARRAYS, 9, Fraction(1, 3)),
     (29, "quartic-i", "conv", 3, *ARRAYS, 9, Fraction(1, 3)),
     "AsymptoticReport(p=29, character='quartic-i', kind='conv', nmax=2, n=array([1, 2]),"
     " kron=array([1, 2]), lhs_re=array([1, 2]), lhs_im=array([1, 2]), sigma=array([1, 2]),"
     " denominator=9, alpha=Fraction(1, 3), max_dev_top_decile=None, limit_plus=None,"
     " limit_minus=None, gamma_estimate=None, alpha_prime_estimate=None)"),
    (Obstruction1Report, (13, True, True, False, (3, -4)), (13, True, True, True, (3, -4)),
     "Obstruction1Report(p=13, consistent=True, eq_n1_holds=True, eq_n2_holds=False, z=(3, -4))"),
    (Obstruction2Report, (13, True, True, True, HALF_I, Fraction(4, 3), [BRANCH]),
     (13, True, True, True, HALF_I, Fraction(4, 3), []),
     f"Obstruction2Report(p=13, accepted=True, quad_eq_holds=True, combined_eq_holds=True,"
     f" actual_delta0={HALF_I_REPR}, actual_B=Fraction(4, 3), branches=[{BRANCH_REPR}])"),
    (DichotomyRow, (13, True, None, False, 2, True, False), (13, True, None, False, 3, True, False),
     "DichotomyRow(p=13, id1_pass=True, id1_failure_n=None, id2_pass=False, id2_failure_n=2,"
     " obstruction1_consistent=True, obstruction2_accepted=False)"),
]
RECORDS = FROZEN + MUTABLE


def _ids(cases):
    return [cls.__name__ for cls, *_ in cases]


@pytest.mark.parametrize("cls, args, changed, text", RECORDS, ids=_ids(RECORDS))
def test_records_compare_by_their_fields_and_repr_them_in_order(cls, args, changed, text):
    record = cls(*args)
    assert record == cls(*args)
    assert record != cls(*changed)
    assert record != args
    assert repr(record) == text


@pytest.mark.parametrize("cls, args, changed, text", FROZEN, ids=_ids(FROZEN))
def test_frozen_records_hash_by_their_fields_and_refuse_assignment(cls, args, changed, text):
    record = cls(*args)
    assert hash(record) == hash(cls(*args))
    assert len({record, cls(*args), cls(*changed)}) == 2
    name = next(iter(vars(record)))  # the first field
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is before


@pytest.mark.parametrize("cls, args, changed, text", MUTABLE, ids=_ids(MUTABLE))
def test_mutable_records_are_unhashable(cls, args, changed, text):
    with pytest.raises(TypeError):
        hash(cls(*args))


def test_records_take_their_fields_by_keyword():
    assert GaussianRational(im=1) == GaussianRational(Fraction(0), Fraction(1))
    assert DirichletCharacter(p=13, g=2, e=3) == DirichletCharacter(13, 2, 3)
    short = VerificationReport(13, "quartic-i", "conv", 100, "pass")
    assert (short.failure_n, short.lhs, short.rhs) == (None, None, None)


def test_two_loads_of_one_config_are_one_identity():
    first, second = (load_builtin_config("p37_2_19.json") for _ in range(2))
    assert first is not second and first == second and hash(first) == hash(second)
    assert len({first, second, load_builtin_config("p37_2_17.json")}) == 2


def test_equal_characters_share_an_lru_cache_entry():
    @lru_cache(maxsize=None)
    def order(chi):
        return chi.order

    chi = DirichletCharacter(13, 2, 3)
    twin = DirichletCharacter(13, 2, 3)
    sibling = DirichletCharacter(13, 2, 9).power(3)  # e = 27 mod 12, built by _sibling
    assert chi is not twin and chi == twin == sibling
    assert hash(chi) == hash(twin) == hash(sibling)
    assert [order(c) for c in (chi, twin, sibling)] == [4, 4, 4]
    assert order.cache_info().hits == 2 and order.cache_info().currsize == 1
    with pytest.raises(AttributeError):
        sibling.e = 3


def test_gaussian_rationals_equal_ints_and_fractions():
    three = GaussianRational(3)
    assert type(three.re) is Fraction and type(three.im) is Fraction
    assert three == 3 and 3 == three and three == Fraction(3) and Fraction(3) == three
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert GaussianRational(3, 1) != 3 and three != Fraction(7, 2) and three != 3.0
    assert GaussianRational() == 0 == GaussianRational(0, 0)
    assert hash(three) == hash(GaussianRational(Fraction(3), 0))
    assert hash(three) == hash(3)
    with pytest.raises(TypeError):
        GaussianRational(0.5)


def test_gaussian_rationals_hash_as_the_ints_and_fractions_they_equal():
    three, half, i = GaussianRational(3), GaussianRational(Fraction(1, 2)), GaussianRational(0, 1)
    assert len({3, Fraction(3), three}) == 1 and len({Fraction(1, 2), half}) == 1
    assert {three: "a"}.get(3) == {3: "a"}.get(three) == {Fraction(3): "a"}.get(three) == "a"
    assert {half: "h"}[Fraction(1, 2)] == {Fraction(1, 2): "h"}[half] == "h"
    assert GaussianRational(3, 1) not in {3, Fraction(3)} and i not in {0, 1}
    assert {GaussianRational(Fraction(0), Fraction(1)): "i"}[i] == "i"


def test_obstruction2_reports_get_their_own_branches():
    args = (13, True, True, True, HALF_I, Fraction(4, 3))
    first, second = Obstruction2Report(*args), Obstruction2Report(*args)
    assert first.branches == second.branches == [] and first.branches is not second.branches
    first.branches.append(BRANCH)
    assert second.branches == []
