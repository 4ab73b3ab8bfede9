import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_tau.curve as curve_module
from spectral_tau import (
    MatrixPolynomial, characteristic_data, correlator_n, correlator_pair, genus,
    hyperelliptic_combination, verify_main_theorem,
)
import spectral_tau.polynomials as polynomials_module
from spectral_tau.curve import InvalidMatrixPolynomial
from spectral_tau.serialize import ParseError, parse_matrix_polynomial
from spectral_tau.polynomials import (
    Poly, _int_add, _int_exact_div, _int_mul, is_squarefree, poly_gcd, poly_matrix_det,
    resultant_w,
)

from conftest import (
    conjugate_diagonal, doc_w, faddeev_leverrier_q, matrix_trace, poly_divmod, poly_gcd_q,
    poly_matrix_det_q, random_matrix_polynomial,
)

FRACTION_POLYS = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=5),
                          max_size=5).map(Poly)


def horner_per_call(p: Poly, x):
    """Horner with complex(c) made on every call: the evaluation the cached tuple replaces."""
    result = 0 * x if p.coeffs else 0
    for c in reversed(p.coeffs):
        result = result * x + complex(c)
    return result


def diag_instance():
    z2 = Poly([0, 0, 1])
    return MatrixPolynomial.from_entries([[z2, Poly.zero()], [Poly.zero(), -z2]])


def offdiag_instance():
    z2 = Poly([0, 0, 1])
    return MatrixPolynomial.from_entries([[z2, Poly([0, 1])], [Poly([1]), -z2]])


Z, ONE = Poly([0, 1]), Poly([1])
PARSE_SIZES = "need integer n >= 2 and m >= 1"  # the schema's own check comes first

# case -> (entries, m, the message of the first failing check, the message
# through parse_matrix_polynomial, None where the power matrices cannot hold W)
INVALID_W = {
    "not-square": ([[Z]], 1, "matrix must be square with n >= 2", PARSE_SIZES),
    "ragged": ([[Z, ONE], [ONE]], 1, "matrix must be square with n >= 2", None),
    "m-below-1": ([[ONE, 0 * ONE], [0 * ONE, 2 * ONE]], 0, "degree m must be at least 1",
                  PARSE_SIZES),
    "entry-above-m": ([[Z, Z * Z], [ONE, -Z]], 1, "entry degree 2 exceeds declared m=1", None),
    "lead-not-diagonal": ([[Z, Z], [ONE, 2 * Z]], 1, "leading coefficient must be diagonal",
                          "leading coefficient must be diagonal"),
    "lead-repeated": ([[Z, ONE], [ONE, Z]], 1, "leading diagonal entries must be pairwise distinct",
                      "leading diagonal entries must be pairwise distinct"),
    # an input that fails several checks raises the first
    "square-before-m": ([[ONE]], 0, "matrix must be square with n >= 2", PARSE_SIZES),
    "above-m-before-lead": ([[Z * Z, Z], [Z, Z * Z]], 1, "entry degree 2 exceeds declared m=1",
                            None),
    "not-diagonal-before-repeated": ([[Z, Z], [ONE, Z]], 1,
                                     "leading coefficient must be diagonal",
                                     "leading coefficient must be diagonal"),
}


def build_w(path, entries, m):
    """W through one constructor path: raw, from_entries, from_power_matrices or parse."""
    n = len(entries)
    if path == "raw":
        return MatrixPolynomial(n, m, tuple(tuple(row) for row in entries))
    if path == "from_entries":
        return MatrixPolynomial.from_entries(entries, m)
    descending = [[[p.coeff(m - l) for p in row] for row in entries] for l in range(m + 1)]
    if path == "from_power_matrices":
        return MatrixPolynomial.from_power_matrices(n, m, descending)
    return parse_matrix_polynomial({"n": n, "m": m, "coefficients": [
        [[str(c) for c in row] for row in mat] for mat in descending]})


def singular_instance():
    """w^2 = z^4 + z^2: the curve has a node over z = 0."""
    z, z2 = Poly([0, 1]), Poly([0, 0, 1])
    return MatrixPolynomial.from_entries([[z2, z], [z, -z2]])


class TestPolyBasics:
    def test_divmod_exact(self):
        p = Poly([2, 3, 1])  # (z+1)(z+2)
        q, r = poly_divmod(p, Poly([1, 1]))
        assert r.is_zero() and q == Poly([2, 1])

    def test_gcd(self):
        p = Poly([1, 1]) * Poly([2, 1])
        q = Poly([1, 1]) * Poly([3, 1])
        assert poly_gcd(p, q) == Poly([1, 1])

    @given(*[st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=5), max_size=5)
             .map(Poly)] * 3)
    @settings(max_examples=150, deadline=None)
    def test_gcd_matches_euclid_over_q(self, common, f, g):
        """Non-coprime inputs built as products: the integer remainder sequence
        gives Euclid's monic gcd over Q, and the common factor divides it."""
        a, b = common * f, common * g
        got = poly_gcd(a, b)
        assert got == poly_gcd_q(a, b) == poly_gcd(b, a)
        if not got.is_zero():
            assert got.leading() == 1
            if not common.is_zero():
                assert poly_divmod(got, common)[1].is_zero()

    @pytest.mark.parametrize("instance", ["n2m1", "n2m3", "n3m1", "n3m2", "n4m1", "n4m2",
                                          "reducible", "singular"])
    def test_discriminant_gcd_matches_euclid_over_q(self, instance):
        """gcd(D, D') of the smoothness check's discriminant, as Euclid over Q finds it:
        conftest seed 100 at each n, m, and two curves whose D is not squarefree."""
        w = {"reducible": diag_instance, "singular": singular_instance}.get(
            instance, lambda: random_matrix_polynomial(100, int(instance[1]), int(instance[3])))()
        curve = characteristic_data(w)
        pw = [Poly.one(), *curve.char_coeffs]
        disc = resultant_w(pw, [Fraction(curve.n - i) * a for i, a in enumerate(pw[:curve.n])])
        assert poly_gcd(disc, disc.derivative()) == poly_gcd_q(disc, disc.derivative())

    def test_squarefree(self):
        assert is_squarefree(Poly([0, 1]) * Poly([1, 1]))
        assert not is_squarefree(Poly([1, 1]) * Poly([1, 1]))

    def test_bareiss_det_matches_cofactor_2x2(self):
        a, b, c, d = Poly([1, 2]), Poly([0, 1]), Poly([3]), Poly([1, 0, 1])
        assert poly_matrix_det([[a, b], [c, d]]) == a * d - b * c

    def test_fractions_are_kept_not_rewrapped(self):
        third = Fraction(1, 3)
        p = Poly([third, 2, Fraction(0)])
        assert p.coeffs[0] is third and p.coeffs == (third, Fraction(2))
        assert all(type(c) is Fraction for c in (p + p).coeffs + (p * p).coeffs)

    def test_int_and_fraction_arguments_evaluate_exactly(self):
        p = Poly([1, 2, 3])
        for x, want in ((2, Fraction(17)), (-1, Fraction(2)), (Fraction(1, 2), Fraction(11, 4))):
            got = p(x)
            assert got == want and type(got) is Fraction
        assert Poly([Fraction(1, 3)])(5) == Fraction(1, 3)
        assert p(2.0) == 17 + 0j and isinstance(p(2.0), complex)

    @given(FRACTION_POLYS, st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                              allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_cached_complex_evaluation_is_bit_identical(self, p, x):
        """The complex coefficient tuple, made once, gives the floats of complex(c)
        per call, bit for bit, on the first and on later calls and for numpy scalars."""
        for point in (x, x, np.complex128(x)):
            got, want = p(point), horner_per_call(p, point)
            assert repr(got) == repr(want) and type(got) is type(want)


class TestIntegerPasses:
    """Faddeev-LeVerrier and Bareiss over Z[z] against their Q[z] oracles in conftest."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_faddeev_leverrier_matches_q_pass(self, n, m):
        for seed in (100, 101):
            w = random_matrix_polynomial(seed, n, m)
            got = curve_module._faddeev_leverrier(characteristic_data(w))
            assert got == faddeev_leverrier_q(w)
            assert all(type(c) is Fraction for a in got[0] for c in a.coeffs)

    def test_faddeev_leverrier_division_by_k_is_checked(self, monkeypatch):
        """Each product off by one at z^0 adds n^2 = 9 to tr(V N_1), which 2 does not divide."""
        monkeypatch.setattr(curve_module, "_int_mul", lambda a, b: _int_add(_int_mul(a, b), [1]))
        with pytest.raises(ArithmeticError, match="not divisible by 2"):
            curve_module._faddeev_leverrier(
                characteristic_data(random_matrix_polynomial(100, 3, 1)))

    @given(st.integers(0, 4).flatmap(
        lambda n: st.lists(st.lists(FRACTION_POLYS, min_size=n, max_size=n), min_size=n,
                           max_size=n)))
    @settings(max_examples=150, deadline=None)
    def test_bareiss_matches_q_elimination(self, rows):
        """Random Poly matrices, zero entries and pivots included."""
        assert poly_matrix_det(rows) == poly_matrix_det_q(rows)

    @pytest.mark.parametrize("n, m", [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)])
    def test_sylvester_determinant_matches_q_elimination(self, n, m, monkeypatch):
        """The smoothness check's Sylvester matrix of R and dR/dw."""
        curve = characteristic_data(random_matrix_polynomial(100, n, m))
        pw = [Poly.one(), *curve.char_coeffs]
        qw = [Fraction(n - i) * a for i, a in enumerate(pw[:n])]
        seen = []
        det = polynomials_module.poly_matrix_det
        monkeypatch.setattr(polynomials_module, "poly_matrix_det",
                            lambda rows: seen.append(rows) or det(rows))
        got = resultant_w(pw, qw)
        assert len(seen[0]) == 2 * n - 1 and got == poly_matrix_det_q(seen[0])

    def test_exact_division_over_z_is_checked(self):
        assert _int_exact_div([2, 4, 2], [1, 1]) == [2, 2]
        assert _int_exact_div([], [3, 1]) == []
        for num, den in (([3], [2]), ([1, 1], [0, 2]), ([1, 0, 1], [1, 1])):
            with pytest.raises(ValueError, match="not exact"):
                _int_exact_div(num, den)

    def test_non_square_matrix_raises(self):
        with pytest.raises(ValueError, match="square"):
            poly_matrix_det([[Poly.one(), Poly.one()]])


class TestCharacteristicData:
    def test_diagonal(self):
        curve = characteristic_data(diag_instance())
        assert curve.a(1).is_zero()
        assert curve.a(2) == -(Poly([0, 0, 1]) * Poly([0, 0, 1]))

    def test_offdiagonal_vs_cofactor(self):
        w = offdiag_instance()
        curve = characteristic_data(w)
        # 2x2 oracle: det(w - W) = w^2 - tr W w + det W
        det_w = w.matrix[0][0] * w.matrix[1][1] - w.matrix[0][1] * w.matrix[1][0]
        assert curve.a(1) == -matrix_trace(w)
        assert curve.a(2) == det_w
        assert curve.a(2) == Poly([0, -1, 0, 0, -1])  # -z^4 - z

    def test_trace_relation_random(self):
        for seed in range(5):
            w = random_matrix_polynomial(seed, 3, 2)
            curve = characteristic_data(w)
            assert curve.a(1) == -matrix_trace(w)

    def test_conjugation_invariance(self):
        w = random_matrix_polynomial(11, 3, 1)
        curve = characteristic_data(w)
        w2 = conjugate_diagonal(w, [Fraction(2), Fraction(-3, 2), Fraction(5)])
        curve2 = characteristic_data(w2)
        assert curve.char_coeffs == curve2.char_coeffs

    def test_one_curve_per_w(self):
        """The first call builds W's curve and keeps it on W; later calls return
        that same object, and an equal but separate W has its own."""
        w = doc_w("hyperelliptic-g2.json")
        curve = characteristic_data(w)
        assert characteristic_data(w) is curve and curve.w is w
        other = doc_w("hyperelliptic-g2.json")
        assert other == w and characteristic_data(other) is not curve

    @pytest.mark.parametrize("n, m", [(2, 1), (3, 2), (4, 3)])
    def test_integer_form_clears_w(self, n, m):
        """L is the lcm of W's denominators, lb[l] = L B_l in ints, Delta the lcm of the gaps."""
        for seed in (100, 101):
            w = random_matrix_polynomial(seed, n, m)
            scale, lb, delta = characteristic_data(w).integer_form
            mats = [w.coefficient_of_power(m - l) for l in range(m + 1)]
            assert scale == math.lcm(*(c.denominator for mat in mats for row in mat for c in row))
            assert lb == tuple(tuple(tuple(scale * c for c in row) for row in mat) for mat in mats)
            assert all(type(x) is int for mat in lb for row in mat for x in row)
            gaps = (lb[0][i][i] - lb[0][j][j] for i in range(n) for j in range(i))
            assert delta == math.lcm(*gaps)


class TestGenus:
    @pytest.mark.parametrize("m,n,expected", [(2, 2, 1), (1, 3, 1), (3, 2, 2), (2, 3, 4)])
    def test_values(self, m, n, expected):
        assert genus(m, n) == expected

    @given(st.integers(1, 8), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_degree_cross_check(self, m, n):
        assert genus(m, n) + n - 1 == m * n * (n - 1) // 2


class TestValidate:
    def test_reducible_curve_warns(self):
        diags = {d.name: d for d in characteristic_data(diag_instance()).diagnostics}
        assert diags["leading_entries_distinct"].passed
        assert not diags["smoothness_squarefree_discriminant"].passed
        assert not diags["smoothness_squarefree_discriminant"].fatal

    def test_good_instance_passes(self):
        diags = {d.name: d for d in characteristic_data(offdiag_instance()).diagnostics}
        assert all(d.passed for d in diags.values())

    def test_repeated_leading_entries_fatal(self):
        z2 = Poly([0, 0, 1])
        with pytest.raises(InvalidMatrixPolynomial,
                           match="^leading diagonal entries must be pairwise distinct$"):
            MatrixPolynomial.from_entries([[z2, Poly([1])], [Poly([1]), z2]])

    def test_nondiagonal_leading_fatal(self):
        z2 = Poly([0, 0, 1])
        with pytest.raises(InvalidMatrixPolynomial, match="^leading coefficient must be diagonal$"):
            MatrixPolynomial.from_entries([[z2, z2], [Poly([1]), -z2]])

    @pytest.mark.parametrize("path, case", [
        (path, case) for case, (_, _, _, parse_message) in INVALID_W.items()
        for path in ("raw", "from_entries", "from_power_matrices", "parse")
        if parse_message is not None or path in ("raw", "from_entries")])
    def test_every_constructor_refuses_an_invalid_w(self, path, case):
        """Each constructor raises the message of the first check W fails; the
        power-matrix paths cannot express an entry above m or a ragged matrix."""
        entries, m, message, parse_message = INVALID_W[case]
        error = InvalidMatrixPolynomial
        if path == "parse":
            error, message = ParseError, parse_message
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build_w(path, entries, m)

    @pytest.mark.parametrize("n, descending, k", [
        (3, [[[1, 0], [0, 2]], [[0, 0], [0, 0]]], 0),   # 2 x 2 matrices for n = 3
        (2, [[[1, 0], [0, 2]], [[0, 0], [0]]], 1),      # a ragged row
    ])
    def test_power_matrices_must_be_n_by_n(self, n, descending, k):
        """A matrix that is not n x n is refused with the parser's message."""
        message = f"^coefficients\\[{k}\\] must be an {n}x{n} matrix$"
        with pytest.raises(InvalidMatrixPolynomial, match=message):
            MatrixPolynomial.from_power_matrices(n, 1, descending)
        with pytest.raises(ParseError, match=message):
            parse_matrix_polynomial({"n": n, "m": 1, "coefficients": descending})

    def test_five_checks_in_order(self):
        assert [d.name for d in characteristic_data(offdiag_instance()).diagnostics] == [
            "leading_coefficient_diagonal", "leading_entries_distinct", "genus_positive",
            "char_coeff_degrees", "smoothness_squarefree_discriminant"]

    def test_smoothness_check_runs_only_when_read(self, monkeypatch):
        """No correlator or verify path computes the discriminant; reading the
        diagnostics does."""
        class DiscriminantComputed(Exception):
            pass

        def forbidden(*args):
            raise DiscriminantComputed

        monkeypatch.setattr(curve_module, "resultant_w", forbidden)
        for name in ("hyperelliptic-g1.json", "hyperelliptic-g2.json", "three-sheet-m1.json"):
            w = doc_w(name)
            assert correlator_n(w, (1,) * w.n + (2,), 1).entries
            if w.n == 2:
                assert hyperelliptic_combination(w, 3, 1)
                assert verify_main_theorem(w, kmax={3: 1, 4: 0}, tol=1e-9).success
            curve = characteristic_data(w)
            with pytest.raises(DiscriminantComputed):
                curve.diagnostics

    def test_adjugate_runs_only_when_read(self, monkeypatch):
        """The correlators read only the integer form: with the
        Faddeev-LeVerrier pass forbidden they still run, and reading the
        characteristic coefficients or the adjugate runs the pass."""
        class LeverrierComputed(Exception):
            pass

        def forbidden(*args):
            raise LeverrierComputed

        monkeypatch.setattr(curve_module, "_faddeev_leverrier", forbidden)
        for name in ("hyperelliptic-g1.json", "hyperelliptic-g2.json", "three-sheet-m1.json"):
            w = doc_w(name)
            assert correlator_pair(w, 1, 2, 2).entries
            assert correlator_n(w, (1,) * w.n + (2,), 1).entries
            if w.n == 2:
                assert hyperelliptic_combination(w, 3, 1)
            curve = characteristic_data(w)
            for field in ("char_coeffs", "adjugate"):
                with pytest.raises(LeverrierComputed):
                    getattr(curve, field)

    def test_entry_above_m_is_fatal(self):
        """W = ((z, z^2), (1, -z)) declared with m = 1 through the raw
        constructor: a_2 = -2z^2 has degree <= 2m, but the projector recursion
        reads only B_0, B_1, so the z^2 entry must be rejected, not dropped."""
        z = Poly([0, 1])
        with pytest.raises(InvalidMatrixPolynomial, match="^entry degree 2 exceeds declared m=1$"):
            MatrixPolynomial(2, 1, ((z, z * z), (Poly([1]), -z)))

    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidMatrixPolynomial):
            MatrixPolynomial.from_entries([[Poly([1])]])
