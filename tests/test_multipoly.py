from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_tau.multipoly import (
    InexactDivisionError,
    MultiPoly,
    _grlex_divide,
    _unit_pair,
    multipoly_exact_divide,
)


def mp(nvars, terms):
    return MultiPoly(nvars, {tuple(e): Fraction(c) for e, c in terms.items()})


def test_difference_of_squares():
    num = mp(2, {(2, 0): 1, (0, 2): -1})
    d = MultiPoly.pair_difference(2, 0, 1)
    q = multipoly_exact_divide(num, d, 10)
    assert q == mp(2, {(1, 0): 1, (0, 1): 1})


def test_not_divisible_raises():
    num = mp(2, {(1, 1): 1})
    d = MultiPoly.pair_difference(2, 0, 1)
    with pytest.raises(InexactDivisionError):
        multipoly_exact_divide(num, d, 2)


def test_junk_above_trusted_degree_is_dropped():
    num = mp(2, {(1, 1): 1})
    d = MultiPoly.pair_difference(2, 0, 1)
    q = multipoly_exact_divide(num, d, 0)  # remainder lives at degree 2 > 0
    assert q.total_degree() <= 1


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=6,
)


@given(small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_multiply_divide_round_trip(qd, dd):
    q = MultiPoly(2, qd)
    d = MultiPoly(2, dd)
    if d.is_zero():
        return
    prod = q * d
    back = multipoly_exact_divide(prod, d, prod.total_degree() + 1)
    assert back == q


def test_square_factor_round_trip():
    g = mp(2, {(0, 0): 3, (1, 2): Fraction(-5, 2), (2, 1): 7})
    d = MultiPoly.pair_difference(2, 1, 0)
    d2 = d * d
    prod = g * d2
    q = multipoly_exact_divide(prod, d2, prod.total_degree())
    assert q == g


def test_mul_degree_cap():
    f = mp(2, {(2, 0): 1, (0, 0): 1})
    g = mp(2, {(0, 2): 1, (0, 0): 1})
    capped = f.mul(g, max_total_degree=2)
    assert capped == mp(2, {(0, 0): 1, (2, 0): 1, (0, 2): 1})


def test_integer_coefficients_stay_int():
    f = MultiPoly(2, {(1, 0): 3, (0, 1): -2})
    prod = f * f
    assert all(type(c) is int for c in prod.terms.values())
    q = multipoly_exact_divide(prod, f, prod.total_degree())
    assert q == f


def test_pair_fast_path_takes_minus_one_leading_coefficient():
    # u1 - u0 has grlex leading term -u0
    d = MultiPoly.pair_difference(2, 1, 0)
    assert _unit_pair(d) == (0, 1, -1)
    num = mp(2, {(2, 0): 1, (0, 2): -1})
    assert multipoly_exact_divide(num, d, 2) == mp(2, {(1, 0): -1, (0, 1): -1})


def test_pair_fast_path_not_divisible_raises():
    # u0^2 + u2^2 = (u0 - u2)(u0 + u2) + 2 u2^2: remainder at total degree 2
    num = MultiPoly(3, {(2, 0, 0): 1, (0, 0, 2): 1})
    d = MultiPoly.pair_difference(3, 0, 2)
    assert _unit_pair(d) == (0, 2, 1)
    with pytest.raises(InexactDivisionError):
        multipoly_exact_divide(num, d, 2)
    q = multipoly_exact_divide(num, d, 1)  # the remainder is above the trusted degree
    assert q == MultiPoly(3, {(1, 0, 0): 1, (0, 0, 1): 1})


@st.composite
def pair_divisions(draw):
    nvars = draw(st.integers(2, 4))
    i, j = draw(st.lists(st.integers(0, nvars - 1), min_size=2, max_size=2, unique=True))
    divisor = MultiPoly.pair_difference(nvars, i, j)
    coeffs = st.integers(-9, 9) | st.fractions(min_value=-5, max_value=5, max_denominator=6)
    poly = st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars), coeffs, max_size=6)
    numerator = MultiPoly(nvars, draw(poly))
    if draw(st.booleans()):  # an exact multiple, perturbed or not
        numerator = numerator * divisor + MultiPoly(nvars, draw(poly))
    trusted = draw(st.integers(-1, 4 * nvars + 1))
    return numerator, divisor, trusted


def _outcome(divide, numerator, divisor, trusted):
    try:
        return divide(numerator, divisor, trusted)
    except InexactDivisionError:
        return InexactDivisionError


@given(pair_divisions())
@settings(max_examples=200, deadline=None)
def test_pair_fast_path_matches_grlex_reduction(case):
    numerator, divisor, trusted = case
    assert _unit_pair(divisor) is not None
    fast = _outcome(multipoly_exact_divide, numerator, divisor, trusted)
    generic = _outcome(_grlex_divide, numerator, divisor, trusted)
    assert fast == generic
