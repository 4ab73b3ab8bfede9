from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_tau.polynomials import Poly
from spectral_tau.rationals import format_rational, parse_rational
from spectral_tau.series import NotInvertibleError, TruncationError, USeries

from conftest import grid_mul, grid_trace

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def ser(val, coeffs, length):
    """coeffs from u^val on, zero-padded to ``length`` trusted coefficients."""
    cs = [Fraction(c) for c in coeffs]
    return USeries(val, cs + [Fraction(0)] * (length - len(cs)))


class TestRationalStrings:
    def test_round_trip_simple(self):
        assert format_rational(parse_rational("-3/4")) == "-3/4"
        assert format_rational(parse_rational("7")) == "7"
        assert parse_rational("−1/2") == Fraction(-1, 2)

    def test_floats_rejected(self):
        with pytest.raises(ValueError):
            parse_rational("0.5")
        with pytest.raises(ValueError):
            parse_rational("1e3")

    @given(fractions)
    def test_round_trip_random(self, x):
        assert parse_rational(format_rational(x)) == x


class TestInvert:
    def test_geometric_series(self):
        s = ser(0, [1, 1], 4)  # 1 + u known through u^3
        inv = s.inverse()
        assert inv.coefficients(0, 4) == [1, -1, 1, -1]

    def test_monomial(self):
        inv = USeries(2, [1]).inverse()
        assert inv.val == -2 and inv[-2] == 1 and inv.end == -1

    def test_squared_binomial(self):
        s = ser(0, [1, 2, 1], 3)  # (1 + u)^2
        inv = s.inverse()
        assert inv.coefficients(0, 3) == [1, -2, 3]
        assert (inv * s)[0] == 1
        assert (inv * s)[1] == 0

    def test_zero_within_trust_rejected(self):
        with pytest.raises(NotInvertibleError):
            ser(0, [0, 0], 2).inverse()

    def test_shifted_lead_is_fine(self):
        # stored lead coefficient zero but a trusted nonzero term after it: invertible
        inv = ser(0, [0, 1], 2).inverse()
        assert inv.val == -1 and inv[-1] == 1

    @given(st.lists(fractions, min_size=1, max_size=6), fractions.filter(lambda x: x != 0))
    @settings(max_examples=40, deadline=None)
    def test_involution(self, tail_coeffs, lead):
        s = ser(-1, [lead] + tail_coeffs, len(tail_coeffs) + 1)
        twice = s.inverse().inverse()
        assert (twice.val, twice.end) == (s.val, s.end)
        assert twice == s

    @given(st.lists(fractions, min_size=1, max_size=6), fractions.filter(lambda x: x != 0))
    @settings(max_examples=40, deadline=None)
    def test_inverse_identity(self, tail_coeffs, lead):
        s = ser(0, [lead] + tail_coeffs, len(tail_coeffs) + 1)
        prod = s * s.inverse()
        assert prod.coefficients(0, len(tail_coeffs) + 1) == [1] + [0] * len(tail_coeffs)


class TestInvSqrt:
    def test_identity(self):
        assert ser(0, [1], 5).inv_sqrt().coefficients(0, 5) == [1, 0, 0, 0, 0]

    def test_binomial(self):
        q = Fraction(3, 2)
        r = ser(0, [1, q], 5).inv_sqrt()
        assert r[1] == -q / 2
        assert r[2] == 3 * q * q / 8

    def test_quartic_tail(self):
        r = ser(0, [1, 0, 0, 0, 1], 5).inv_sqrt()  # 1 + u^4
        assert r.coefficients(0, 5) == [1, 0, 0, 0, Fraction(-1, 2)]

    def test_nonunit_lead_rejected(self):
        with pytest.raises(NotInvertibleError):
            ser(0, [2, 1], 2).inv_sqrt()

    @given(st.lists(fractions, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_square_identity(self, tail_coeffs):
        s = ser(0, [1] + tail_coeffs, len(tail_coeffs) + 1)
        r = s.inv_sqrt()
        prod = r * r * s
        assert prod.coefficients(0, len(tail_coeffs) + 1) == [1] + [0] * len(tail_coeffs)


class TestTruncationDiscipline:
    def test_reading_past_window_raises(self):
        s = ser(0, [1, 2], 2)
        assert s[-5] == 0
        with pytest.raises(TruncationError):
            s[2]
        with pytest.raises(TruncationError):
            s.coefficients(0, 3)

    def test_from_poly_window(self):
        # 2 z^2 + 1 with four coefficients: u^-2 .. u^1
        s = USeries.from_poly(Poly([1, 0, 2]), 4)
        assert s.coefficients(-3, 2) == [0, 2, 0, 1, 0]
        with pytest.raises(TruncationError):
            s[2]

    def test_product_trust_window(self):
        s = ser(0, [1, 1], 2)
        t = ser(0, [1, 1, 1], 3)
        prod = s * t
        assert prod.end == 2
        with pytest.raises(TruncationError):
            prod[2]
        # min(val_a + len_a + val_b, val_b + len_b + val_a) with shifted valuations
        a, b = ser(1, [1, 1], 2), ser(-1, [1, 1, 1], 3)
        assert ((a * b).val, (a * b).end) == (0, 2)
        assert ((a + b).val, (a + b).end) == (-1, 2)
        assert ((b - a).val, (b - a).end) == (-1, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-4, 4), st.lists(st.one_of(st.integers(-99, 99), fractions), max_size=12),
           st.integers(-4, 4), st.lists(st.one_of(st.integers(-99, 99), fractions), max_size=12))
    def test_product_matches_naive_convolution(self, val_a, coeffs_a, val_b, coeffs_b):
        a, b = USeries(val_a, coeffs_a), USeries(val_b, coeffs_b)
        n = min(len(coeffs_a), len(coeffs_b))
        naive = [sum((Fraction(coeffs_a[i]) * Fraction(coeffs_b[k - i]) for i in range(k + 1)),
                     Fraction(0)) for k in range(n)]
        prod = a * b
        assert (prod.val, prod.end) == (val_a + val_b, val_a + val_b + n)
        assert prod.coefficients(prod.val, prod.end) == naive
        with pytest.raises(TruncationError):
            prod[prod.end]
        # int x int stays int; a Fraction in either operand makes every coefficient one
        operands = coeffs_a[:n] + coeffs_b[:n]
        kind = int if all(type(c) is int for c in operands) else Fraction
        assert all(type(c) is kind for c in prod.coeffs)

    def test_all_values_are_fractions(self):
        s = ser(-1, [Fraction(2, 3), 5], 2) * ser(0, [Fraction(7, 2), 1], 2)
        assert all(isinstance(c, Fraction) for c in s.coeffs)
        # division never leaves the rationals, even from int coefficients
        assert all(isinstance(c, Fraction) for c in USeries(0, [2, 1, 3]).inverse().coeffs)
        assert all(isinstance(c, Fraction) for c in USeries(0, [1, 3, 1]).inv_sqrt().coeffs)


class TestMatrixSeries:
    def test_trace_and_entry(self):
        m = ((ser(0, [1, 0], 2), ser(0, [0, 1], 2)),
             (ser(0, [0, 1], 2), ser(0, [0, 0], 2)))
        assert grid_trace(m)[0] == 1
        assert m[0][1][1] == 1

    def test_matrix_product_window(self):
        one, zero = ser(0, [1, 1, 1], 3), ser(0, [], 3)
        m = ((one, zero), (zero, one))
        p = grid_mul(m, m)
        assert p[0][0].end == 3
        assert p[0][0][0] == 1
        with pytest.raises(TruncationError):
            p[0][1][3]
