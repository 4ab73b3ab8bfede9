from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_tau.curve as curve_module
from spectral_tau import (
    MatrixPolynomial, characteristic_data, correlator_n, genus, hyperelliptic_combination, validate,
    verify_main_theorem,
)
from spectral_tau.curve import InvalidMatrixPolynomial
from spectral_tau.polynomials import Poly, is_squarefree, poly_gcd, poly_matrix_det

from conftest import doc_w, random_matrix_polynomial


def diag_instance():
    z2 = Poly([0, 0, 1])
    return MatrixPolynomial.from_entries([[z2, Poly.zero()], [Poly.zero(), -z2]])


def offdiag_instance():
    z2 = Poly([0, 0, 1])
    return MatrixPolynomial.from_entries([[z2, Poly([0, 1])], [Poly([1]), -z2]])


class TestPolyBasics:
    def test_divmod_exact(self):
        p = Poly([2, 3, 1])  # (z+1)(z+2)
        q, r = p.divmod(Poly([1, 1]))
        assert r.is_zero() and q == Poly([2, 1])

    def test_gcd(self):
        p = Poly([1, 1]) * Poly([2, 1])
        q = Poly([1, 1]) * Poly([3, 1])
        assert poly_gcd(p, q) == Poly([1, 1])

    def test_squarefree(self):
        assert is_squarefree(Poly([0, 1]) * Poly([1, 1]))
        assert not is_squarefree(Poly([1, 1]) * Poly([1, 1]))

    def test_bareiss_det_matches_cofactor_2x2(self):
        a, b, c, d = Poly([1, 2]), Poly([0, 1]), Poly([3]), Poly([1, 0, 1])
        assert poly_matrix_det([[a, b], [c, d]]) == a * d - b * c


class TestCharacteristicData:
    def test_diagonal(self):
        curve = characteristic_data(diag_instance())
        assert curve.a(1).is_zero()
        assert curve.a(2) == -(Poly([0, 0, 1]) ** 2)

    def test_offdiagonal_vs_cofactor(self):
        w = offdiag_instance()
        curve = characteristic_data(w)
        # 2x2 oracle: det(w - W) = w^2 - tr W w + det W
        det_w = w.matrix[0][0] * w.matrix[1][1] - w.matrix[0][1] * w.matrix[1][0]
        assert curve.a(1) == -w.trace()
        assert curve.a(2) == det_w
        assert curve.a(2) == Poly([0, -1, 0, 0, -1])  # -z^4 - z

    def test_trace_relation_random(self):
        for seed in range(5):
            w = random_matrix_polynomial(seed, 3, 2)
            curve = characteristic_data(w)
            assert curve.a(1) == -w.trace()

    def test_conjugation_invariance(self):
        w = random_matrix_polynomial(11, 3, 1)
        curve = characteristic_data(w)
        w2 = w.conjugate_diagonal([Fraction(2), Fraction(-3, 2), Fraction(5)])
        curve2 = characteristic_data(w2)
        assert curve.char_coeffs == curve2.char_coeffs


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
        w = MatrixPolynomial.from_entries([[z2, Poly([1])], [Poly([1]), z2]])
        diags = {d.name: d for d in validate(w)}
        assert not diags["leading_entries_distinct"].passed
        assert diags["leading_entries_distinct"].fatal

    def test_nondiagonal_leading_fatal(self):
        z2 = Poly([0, 0, 1])
        w = MatrixPolynomial.from_entries([[z2, z2], [Poly([1]), -z2]])
        diags = {d.name: d for d in validate(w)}
        assert not diags["leading_coefficient_diagonal"].passed

    def test_five_checks_in_order(self):
        assert [d.name for d in validate(offdiag_instance())] == [
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
            assert not curve.fatal_diagnostics()
            with pytest.raises(DiscriminantComputed):
                curve.diagnostics

    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidMatrixPolynomial):
            MatrixPolynomial.from_entries([[Poly([1])]])
