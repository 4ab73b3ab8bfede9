from fractions import Fraction

import pytest

from spectral_tau import (
    MatrixPolynomial,
    cofactor_row_sums,
    d_polynomial,
    pole_divisor,
)
from spectral_tau.divisor import DivisorError, expected_d_degree
from spectral_tau.curve import characteristic_data, genus
from spectral_tau.polynomials import Poly, poly_matrix_det

from conftest import (
    conjugate_diagonal, hyperelliptic_divisor, power_matrices, random_hyperelliptic,
    random_matrix_polynomial,
)


class TestDPolynomial:
    def test_traceless_2x2_formula(self):
        # rows (1,1) and (a+c, b-a): D = b - 2a - c
        a, b, c = Poly([0, 1, 2]), Poly([3, 1]), Poly([1, 0, 5])
        w = MatrixPolynomial.from_entries([[a, b], [c, -a]])
        assert d_polynomial(w) == b - 2 * a - c

    def test_worked_instance(self, worked_instance):
        w, a, b, c = worked_instance
        d = d_polynomial(w)
        assert d == Poly([1, -1, -2])
        assert d.degree() == expected_d_degree(w) == 2

    def test_degree_matches_genus_count(self):
        for seed, (n, m) in enumerate([(2, 2), (2, 3), (3, 1), (3, 2)]):
            for k in range(3):
                w = random_matrix_polynomial(100 * seed + k, n, m)
                d = d_polynomial(w)
                assert d.degree() == genus(m, n) + n - 1

    def test_krylov_rows_oracle(self):
        # D = det of the rows (1,...,1) W^i, i = 0..n-1, also for a non-diagonal B0
        a, b, c = Poly([0, 1, 2]), Poly([3, 1]), Poly([1, 0, 5])
        instances = [MatrixPolynomial.from_entries([[a, b], [c, -a]])]
        for n, m in [(2, 2), (3, 1), (3, 2), (4, 1)]:
            instances += [random_matrix_polynomial(seed, n, m) for seed in range(100, 106)]
        for w in instances:
            powers = power_matrices(w, w.n - 1)
            rows = [[sum((pw[s][j] for s in range(w.n)), Poly.zero()) for j in range(w.n)]
                    for pw in powers]
            assert d_polynomial(w) == poly_matrix_det(rows)


class TestCofactorRowSums:
    def test_traceless_2x2(self):
        a, b, c = Poly([0, 1]), Poly([2, 1]), Poly([1, 1])
        w = MatrixPolynomial.from_entries([[a, b], [c, -a]], m=1)
        q = cofactor_row_sums(w)
        assert q[0][0] == Poly.one() and q[1][0] == Poly.one()
        assert q[0][1] == a + c
        assert q[1][1] == b - a

    def test_leading_column_is_one(self):
        w = random_matrix_polynomial(8, 3, 2)
        q = cofactor_row_sums(w)
        assert all(q[i][0] == Poly.one() for i in range(3))


class TestPoleDivisor:
    def test_worked_points(self, worked_instance):
        w, *_ = worked_instance
        pts = pole_divisor(w)
        assert len(pts) == 2
        got = sorted(((p.z.real, p.w.real) for p in pts))
        assert abs(got[0][0] + 1) < 1e-12 and abs(got[0][1] - 1) < 1e-12
        assert abs(got[1][0] - 0.5) < 1e-12 and abs(got[1][1] + 1.25) < 1e-12
        for p in pts:
            assert p.residual_r < 1e-9 and p.residual_eig < 1e-8

    def test_count_and_residuals_random(self):
        for seed, (n, m) in enumerate([(2, 2), (3, 1), (3, 2)]):
            w = random_matrix_polynomial(seed + 50, n, m)
            try:
                pts = pole_divisor(w)
            except DivisorError:
                continue  # repeated roots of D can occur; rejected loudly
            assert len(pts) == genus(m, n) + n - 1
            curve = characteristic_data(w)
            for p in pts:
                assert abs(curve.r_at(p.z, p.w)) < 1e-9

    def test_conjugation_keeps_count(self):
        w = random_matrix_polynomial(61, 3, 1)
        pts = pole_divisor(w)
        w2 = conjugate_diagonal(w, [Fraction(5), Fraction(1, 2), Fraction(-3)])
        pts2 = pole_divisor(w2)
        assert len(pts) == len(pts2)

    def test_diagonal_rejected(self):
        z2 = Poly([0, 0, 1])
        w = MatrixPolynomial.from_entries([[z2, Poly.zero()], [Poly.zero(), -z2]])
        with pytest.raises(DivisorError):
            pole_divisor(w)


class TestHyperellipticReport:
    def test_worked_comparison(self, worked_instance):
        _, a, b, c = worked_instance
        rep = hyperelliptic_divisor(a, b, c)
        assert len(rep.general) == 2
        # the transcribed specialization belongs to the opposite sign convention
        assert not rep.conventions_agree
        assert all(not p.matches_general for p in rep.specialized)
        assert all(p.on_curve_residual > 1e-3 for p in rep.specialized)

    def test_general_points_always_on_curve(self):
        for seed in range(3):
            w, a, b, c = random_hyperelliptic(seed + 300, 1)
            try:
                rep = hyperelliptic_divisor(a, b, c)
            except DivisorError:
                continue
            for p in rep.general:
                assert p.residual_r < 1e-9
