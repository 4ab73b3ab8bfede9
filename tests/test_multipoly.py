from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_tau import multipoly
from spectral_tau.multipoly import (
    InexactDivisionError,
    MultiPoly,
    _unit_pair,
    multipoly_coset_factor,
    multipoly_exact_divide,
    multipoly_sum,
    packing_width,
)

from conftest import dict_divide, dict_mul, dict_sum, total_degree


def mp(nvars, terms):
    return MultiPoly(nvars, {tuple(e): c for e, c in terms.items()})


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
    assert total_degree(q) <= 1


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-30, 30),
    max_size=6,
)


@given(small_polys, st.sampled_from([(0, 1), (1, 0)]))
@settings(max_examples=60, deadline=None)
def test_multiply_divide_round_trip(qd, pair):
    q = MultiPoly(2, qd)
    d = MultiPoly.pair_difference(2, *pair)
    prod = q * d
    back = multipoly_exact_divide(prod, d, total_degree(prod) + 1)
    assert back == q


def test_square_factor_round_trip():
    # divided twice by u_1 - u_0, as the pair table divides its trace
    g = mp(2, {(0, 0): 3, (1, 2): -5, (2, 1): 7})
    d = MultiPoly.pair_difference(2, 1, 0)
    prod = g * (d * d)
    top = total_degree(prod)
    q = multipoly_exact_divide(multipoly_exact_divide(prod, d, top), d, top - 1)
    assert q == g


def test_mul_degree_cap():
    f = mp(2, {(2, 0): 1, (0, 0): 1})
    g = mp(2, {(0, 2): 1, (0, 0): 1})
    capped = f.mul(g, max_total_degree=2)
    assert capped == mp(2, {(0, 0): 1, (2, 0): 1, (0, 2): 1})


def test_integer_coefficients_stay_int():
    f = MultiPoly(2, {(1, 0): 3, (0, 1): -2})
    d = MultiPoly.pair_difference(2, 0, 1)
    prod = f * d
    assert all(type(c) is int for c in prod.terms.values())
    q = multipoly_exact_divide(prod, d, total_degree(prod))
    assert q == f
    assert all(type(c) is int for c in q.terms.values())


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
    poly = st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars), st.integers(-9, 9),
                           max_size=6)
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


def _packed_division(numerator, divisor, trusted):
    return multipoly_exact_divide(numerator, divisor, trusted).terms


def _oracle_division(numerator, divisor, trusted):
    return dict_divide(numerator.terms, divisor.terms, trusted)


@given(pair_divisions())
@settings(max_examples=200, deadline=None)
def test_pair_fast_path_matches_grlex_reduction(case):
    numerator, divisor, trusted = case
    assert _unit_pair(divisor) is not None
    fast = _outcome(_packed_division, numerator, divisor, trusted)
    generic = _outcome(_oracle_division, numerator, divisor, trusted)
    assert fast == generic


# -- packed rows against the dict-convolution kernel ----------------------------

# magnitudes right at and next to a digit boundary 2^(W-1) for many widths W
edge_ints = st.sampled_from([7, 8, 15, 16, 31, 32, 61, 62, 63, 64, 65, 100]).flatmap(
    lambda k: st.sampled_from([2 ** k - 1, 2 ** k, 2 ** k + 1, 1 - 2 ** k, -2 ** k, -1 - 2 ** k]))
any_coeffs = st.integers(-9, 9) | edge_ints


def _terms(nvars, coeffs=any_coeffs, max_size=8):
    return st.dictionaries(st.tuples(*[st.integers(0, 4)] * nvars), coeffs, max_size=max_size)


@st.composite
def factor_pairs(draw):
    """Two term dicts in 1-4 variables; the second one sometimes a chain slot
    (univariate in a variable the first lacks) or a pair difference."""
    nvars = draw(st.integers(1, 4))
    left = draw(_terms(nvars))
    shape = draw(st.sampled_from(["any", "slot", "pair"] if nvars > 1 else ["any"]))
    if shape == "any":
        right = draw(_terms(nvars))
    elif shape == "slot":
        v = draw(st.integers(1, nvars - 1))
        left = {e: c for e, c in left.items() if not e[v]}
        right = {tuple(k if i == v else 0 for i in range(nvars)): c
                 for k, c in enumerate(draw(st.lists(any_coeffs, max_size=6))) if c}
    else:
        i, j = draw(st.lists(st.integers(0, nvars - 1), min_size=2, max_size=2, unique=True))
        right = MultiPoly.pair_difference(nvars, i, j).terms
    cap = draw(st.none() | st.integers(-1, 12))
    return nvars, left, right, cap


def _certified(poly):
    """The carried bound covers every coefficient and fits the width."""
    magnitudes = [abs(c) for c in poly.terms.values()]
    assert max(magnitudes, default=0) <= poly.bound < 2 ** (poly.width - 1)


@given(factor_pairs())
@settings(max_examples=200, deadline=None)
def test_packed_kernel_matches_dict_kernel(case):
    nvars, left, right, cap = case
    a, b = MultiPoly(nvars, left), MultiPoly(nvars, right)
    left = {e: c for e, c in left.items() if c}
    right = {e: c for e, c in right.items() if c}
    assert a.terms == left and b.terms == right
    prod = a.mul(b, max_total_degree=cap)
    assert prod.terms == dict_mul(left, right, cap)
    assert b.mul(a, max_total_degree=cap) == prod
    total = multipoly_sum(nvars, (a, b, prod, -b))
    assert total.terms == dict_sum([left, prod.terms])
    assert (-a).terms == {e: -c for e, c in left.items()}
    assert (a - b).terms == dict_sum([left, {e: -c for e, c in right.items()}])
    for e in set(left) | set(right) | set(prod.terms) | {(0,) * nvars, (5,) * nvars}:
        assert a.coeff(e) == left.get(e, 0)
        assert prod.coeff(e) == prod.terms.get(e, 0)
    for poly in (a, b, prod, total, -a):
        _certified(poly)
    for poly in (a, b, prod):
        assert all(type(c) is int for c in poly.terms.values())


@st.composite
def engine_slots(draw):
    """A chain step as the engine runs it: slots packed at one given width."""
    nvars = draw(st.integers(2, 4))
    width = draw(st.sampled_from([8, 16, 33, 64, 65]))
    edge = 2 ** (width - 1) - 1
    small = st.integers(-edge, edge).filter(bool) | st.sampled_from([edge, -edge])
    first = MultiPoly.from_univariate(nvars, 0, draw(st.lists(small, max_size=6)), width)
    v = draw(st.integers(1, nvars - 1))
    second = MultiPoly.from_univariate(nvars, v, draw(st.lists(small, max_size=6)), width)
    return first, second, draw(st.none() | st.integers(0, 8))


@given(engine_slots())
@settings(max_examples=100, deadline=None)
def test_slot_products_at_the_width_edge(case):
    first, second, cap = case
    assert first.width >= packing_width(first.bound)
    prod = first.mul(second, max_total_degree=cap)
    assert prod.terms == dict_mul(first.terms, second.terms, cap)
    _certified(prod)
    twice = multipoly_sum(first.nvars, (prod, prod))
    assert twice.terms == dict_sum([prod.terms, prod.terms])
    _certified(twice)


def test_bound_past_the_width_widens():
    edge = 2 ** 15 - 1          # the largest magnitude a 16-bit digit holds
    f = MultiPoly.from_univariate(2, 0, [edge, -edge, edge], width=16)
    g = MultiPoly.from_univariate(2, 1, [edge, edge], width=16)
    assert (f.width, f.bound) == (16, edge)
    for result, expected in (
        (f.mul(g), dict_mul(f.terms, g.terms)),           # one product per term
        (f.mul(f), dict_mul(f.terms, f.terms)),           # convolution sums of three
        (f + f, dict_sum([f.terms, f.terms])),
        (multipoly_exact_divide(f.mul(MultiPoly.pair_difference(2, 0, 1)),
                                MultiPoly.pair_difference(2, 0, 1), 10), f.terms),
    ):
        assert result.width > 16
        assert result.terms == expected
        _certified(result)


@pytest.mark.parametrize("nvars, idx", [(1, 0), (2, 0), (4, 0), (2, 1), (4, 2), (4, 3)])
def test_from_univariate_matches_the_validating_constructor(nvars, idx):
    """The directly built rows are MultiPoly's own packing of the same terms,
    for empty, zero and gapped coefficient lists, at any requested width."""
    for coeffs in ([], [0, 0], [0, 0, 5, 0, -3, 0, 0], [2 ** 40, -1, 7]):
        terms = {tuple(k if v == idx else 0 for v in range(nvars)): c
                 for k, c in enumerate(coeffs) if c}
        want = MultiPoly(nvars, terms)
        for width in (2, 64):
            got = MultiPoly.from_univariate(nvars, idx, coeffs, width)
            assert got.terms == want.terms and got.bound == want.bound
            assert got.width == max(width, want.width)
            _certified(got)
        assert MultiPoly.from_univariate(nvars, idx, coeffs).rows == want.rows


def test_pair_division_at_the_width_edge():
    edge = 2 ** 31 - 1
    for i, j in ((0, 1), (1, 2), (0, 2)):
        d = MultiPoly.pair_difference(3, i, j)
        f = MultiPoly(3, {(3, 0, 0): edge, (0, 2, 1): -edge, (1, 1, 1): edge, (0, 0, 0): 1})
        prod = f * d
        assert multipoly_exact_divide(prod, d, total_degree(prod)) == f
        assert multipoly_exact_divide(prod, d, 0).terms == dict_divide(prod.terms, d.terms, 0)


@st.composite
def coset_cases(draw):
    nvars = draw(st.integers(3, 5))
    j = draw(st.integers(2, nvars - 1))
    slots = sorted(draw(st.sets(st.integers(1, j - 1), min_size=1)))
    return nvars, draw(_terms(nvars)), slots, j


@given(coset_cases())
@settings(max_examples=100, deadline=None)
def test_coset_factor_subtracts_exchanged_copies(case):
    """q minus, for each slot b < j, q with u_b and u_j exchanged, in one dict."""
    nvars, terms, slots, j = case
    f = MultiPoly(nvars, terms)
    g = multipoly_coset_factor(f, slots, j)

    def exchange(e, b):
        e = list(e)
        e[b], e[j] = e[j], e[b]
        return tuple(e)

    want = dict_sum([f.terms] + [{exchange(e, b): -c for e, c in f.terms.items()} for b in slots])
    assert g.terms == want
    assert g.bound == (1 + len(slots)) * f.bound
    assert g.width == max(f.width, packing_width(g.bound))


def test_engine_tables_never_repack(monkeypatch):
    """The engine's table width covers every bound its kernel calls carry, so
    no product, sum or division of a table widens."""
    from conftest import doc_w

    from spectral_tau import correlator_n, correlator_pair, hyperelliptic_combination

    widths = []
    original = multipoly._repack

    def spy(rows, width, new_width):
        widths.append((width, new_width))
        return original(rows, width, new_width)

    monkeypatch.setattr(multipoly, "_repack", spy)
    hyperelliptic_combination(doc_w("hyperelliptic-g2.json"), 5, 0)
    correlator_n(doc_w("three-sheet-m1.json"), (1, 2, 3, 1), 1)
    correlator_pair(doc_w("three-sheet-m1.json"), 1, 2, 3)
    assert widths and all(width == new for width, new in widths)


def test_shared_constants_are_unchanged_by_full_tables():
    """zero and pair_difference are one object per argument tuple, and the tables
    that multiply and divide by them leave their rows, width and bound as built."""
    from conftest import doc_w

    from spectral_tau import correlator_n, correlator_pair, hyperelliptic_combination

    shared = [MultiPoly.zero(n) for n in (2, 3, 4, 5)]
    shared += [MultiPoly.pair_difference(n, i, j) for n in (2, 3, 4, 5)
               for i in range(n) for j in range(i + 1, n)]
    before = [(p.nvars, dict(p.rows), p.width, p.bound, p.terms) for p in shared]
    hyperelliptic_combination(doc_w("hyperelliptic-g2.json"), 5, 1)
    hyperelliptic_combination(doc_w("hyperelliptic-g1.json"), 2, 2)
    correlator_n(doc_w("three-sheet-m1.json"), (1, 2, 3, 1), 1)
    correlator_pair(doc_w("three-sheet-m1.json"), 2, 2, 3)
    assert [(p.nvars, dict(p.rows), p.width, p.bound, p.terms) for p in shared] == before
    assert MultiPoly.zero(3) is shared[1] and not shared[1].rows
    assert MultiPoly.pair_difference(3, 0, 2) is MultiPoly.pair_difference(3, 0, 2)
    assert MultiPoly.pair_difference(3, 0, 2).terms == {(1, 0, 0): 1, (0, 0, 1): -1}
    assert MultiPoly.pair_difference(3, 1, 1) is MultiPoly.zero(3)


def test_sum_takes_bound_and_width_in_one_pass():
    narrow = MultiPoly(2, {(1, 0): 3})
    wide = MultiPoly.from_univariate(2, 1, [0, -5], 9)
    got = multipoly_sum(2, iter([MultiPoly.zero(2), narrow, wide, MultiPoly.zero(2)]))
    assert got.terms == {(1, 0): 3, (0, 1): -5}
    assert (got.bound, got.width) == (8, 9)
    assert multipoly_sum(2, iter([MultiPoly.zero(2), narrow])) is narrow
    both = multipoly_sum(2, [narrow, narrow])
    assert (both.bound, both.width, narrow.width) == (6, 4, 3)
    assert multipoly_sum(2, iter([])) is MultiPoly.zero(2)


def test_coeff_rejects_a_wrong_arity_exponent():
    f = MultiPoly(3, {(1, 2, 0): 5})
    assert f.coeff((1, 2, 0)) == 5
    assert f.coeff((-1, 2, 0)) == 0 and f.coeff((1, -2, 0)) == 0
    for e in ((1, 2), (1, 2, 0, 0), ()):
        with pytest.raises(ValueError):
            f.coeff(e)


def test_integer_contract_rejections():
    with pytest.raises(ValueError):
        MultiPoly(2, {(1, 0): Fraction(1, 2)})
    with pytest.raises(ValueError):
        MultiPoly.from_univariate(2, 1, [1, Fraction(1, 2)], width=8)
    with pytest.raises(ValueError):
        MultiPoly.from_univariate(2, 2, [1, 1])
    num = MultiPoly(2, {(2, 0): 1, (0, 2): -1})
    for divisor in (
        MultiPoly(2, {(1, 0): 2, (0, 1): -2}),     # 2 (u_0 - u_1)
        MultiPoly(2, {(1, 0): 1, (0, 1): 1}),      # u_0 + u_1
        MultiPoly(2, {(2, 0): 1}),                 # u_0^2
        MultiPoly.pair_difference(2, 1, 1),        # zero
    ):
        assert _unit_pair(divisor) is None
        with pytest.raises(ValueError):
            multipoly_exact_divide(num, divisor, 4)
