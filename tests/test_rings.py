import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckeverify.errors import NotAUnit
from heckeverify.rings import LaurentPoly, lp_ratio, rat, rat_str
from heckeverify.tensor import PolyMatrix

U = LaurentPoly.unit


def lp(d):
    return LaurentPoly(d)


def test_product_of_binomials():
    one = LaurentPoly.const(1)
    assert (one + U(1)) * (one - U(1)) == lp({0: 1, 2: -1})


def test_unit_cancellation():
    assert U(-1) * U(1) == LaurentPoly.const(1)


def test_product_with_zero():
    q = rat(3, 5)
    p = lp({0: q, 1: -1 / q})
    assert p * LaurentPoly.zero() == LaurentPoly.zero()


def test_invert_unit_examples():
    assert lp({3: 2}).invert_unit() == lp({-3: rat(1, 2)})
    assert LaurentPoly.const(1).invert_unit() == LaurentPoly.const(1)
    with pytest.raises(NotAUnit):
        (LaurentPoly.const(1) + U(1)).invert_unit()
    with pytest.raises(NotAUnit):
        LaurentPoly.zero().invert_unit()


def test_derivative_at_unit_point():
    # on the integer rows of a matrix; entry (0, 0) holds the polynomial
    def derivative(p):
        return PolyMatrix((1,), {(0, 0): p}).derivative_at_one().get(0, 0)

    assert derivative(LaurentPoly.const(rat(7, 3))) == 0
    assert derivative(U(1)) == -2
    assert derivative(lp({2: 1, -1: -1})) == -6


def test_proportional_examples():
    assert lp_ratio(U(1), U(3)) == U(-2)
    assert lp_ratio(lp({0: 2, 1: 2}), lp({0: 1, 1: 1})) == LaurentPoly.const(2)
    assert lp_ratio(lp({0: 1, 1: 1}), lp({0: 1, 1: 2})) is None
    assert lp_ratio(LaurentPoly.zero(), LaurentPoly.zero()) is None
    assert lp_ratio(LaurentPoly.zero(), U(2)) == LaurentPoly.zero()


def test_general_ratio_reduces():
    # (2 + 2u) / (u + u^2) = 2/u
    assert lp_ratio(lp({0: 2, 1: 2}), lp({1: 1, 2: 1})) == lp({-1: 2})
    # (1 - u^3) / (1 - u) = 1 + u + u^2, shifted by the monomials
    assert lp_ratio(lp({-2: 1, 1: -1}), lp({1: 1, 2: -1})) == lp({-3: 1, -2: 1, -1: 1})
    # a rational function is no Laurent ratio
    assert lp_ratio(lp({0: 1, 1: 1}), lp({0: 1, 1: 2})) is None
    assert lp_ratio(lp({0: 1}), lp({0: 1, 1: 1})) is None
    assert lp_ratio(LaurentPoly.const(1), LaurentPoly.zero()) is None


def test_compose_power_and_shift():
    p = lp({0: 1, 1: 2})
    assert p.compose_power(2) == lp({0: 1, 2: 2})


def test_string_forms():
    assert str(LaurentPoly.zero()) == "0"
    assert str(lp({0: rat(3, 2), 1: -1, -2: rat(5, 1)})) == "5/1*u^-2+3/2-u"
    assert rat_str(rat(-4, 6)) == "-2/3"


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def lp_strategy(min_deg=-4, max_deg=4):
    return st.dictionaries(st.integers(min_value=min_deg, max_value=max_deg),
                           coeffs, max_size=5).map(
        lambda d: LaurentPoly({k: rat(v.numerator, v.denominator)
                               for k, v in d.items()}))


@given(lp_strategy(), lp_strategy(), lp_strategy())
@settings(max_examples=60, deadline=None)
def test_distributivity(a, b, c):
    assert (a + b) * c == a * c + b * c


@given(lp_strategy(), lp_strategy())
@settings(max_examples=60, deadline=None)
def test_degree_additivity(a, b):
    if a.is_zero or b.is_zero:
        assert (a * b).is_zero
        return
    p = a * b
    assert p.min_deg() == a.min_deg() + b.min_deg()
    assert p.max_deg() == a.max_deg() + b.max_deg()


@given(st.integers(min_value=-6, max_value=6),
       st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(lambda c: c != 0))
@settings(max_examples=40, deadline=None)
def test_invert_unit_involution(deg, c):
    p = LaurentPoly.unit(deg, rat(c.numerator, c.denominator))
    assert p.invert_unit().invert_unit() == p


@given(lp_strategy(), lp_strategy())
@settings(max_examples=60, deadline=None)
def test_ratio_clears_denominators(a, b):
    # exact division: b divides a*b, and any ratio found is exact
    if not b.is_zero:
        assert lp_ratio(a * b, b) == a
    r = lp_ratio(a, b)
    assert r is None or a == r * b


@given(lp_strategy(), lp_strategy())
@settings(max_examples=60, deadline=None)
def test_commutativity_and_associativity(a, b):
    assert a * b == b * a
    assert a + b == b + a
    c = LaurentPoly({1: rat(1, 3), -1: rat(2)})
    assert (a * b) * c == a * (b * c)
