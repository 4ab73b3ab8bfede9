from fractions import Fraction

import pytest

from spectral_tau import (
    CorrelatorEngine,
    MatrixPolynomial,
    correlator_pair,
    jet_from_projectors,
    resolvent_coefficients,
    tau_second_derivative,
    validate_jet,
)
from spectral_tau.jets import JetError, JetPoint, jet_is_valid
from spectral_tau.polynomials import Poly
from spectral_tau.projectors import all_projectors
from spectral_tau.serialize import jet_from_json, jet_to_json

from conftest import coeff_matrix, random_matrix_polynomial


def zero_jet(n):
    y = {(i, j): Fraction(0) for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
    d1 = {(i, j, b): Fraction(0) for (i, j) in y for b in range(1, n + 1)}
    d2 = {(i, j, b, c): Fraction(0) for (i, j) in y
          for b in range(1, n + 1) for c in range(b, n + 1)}
    return JetPoint(n=n, y=y, d1=d1, d2=d2)


class TestValidateJet:
    def test_zero_jet_valid(self):
        assert jet_is_valid(zero_jet(3))

    def test_inconsistent_jet_reports_residue(self):
        jet = zero_jet(3)
        bad = dict(jet.y)
        bad[(1, 2)] = Fraction(1)
        bad[(2, 3)] = Fraction(2)
        jet2 = JetPoint(n=3, y=bad, d1=jet.d1, d2=jet.d2)
        residues = validate_jet(jet2)
        broken = [r for r in residues if r.residue != 0]
        assert any(r.name == "product_rule" and r.indices == (1, 3, 2) for r in broken)
        assert next(
            r for r in broken if r.name == "product_rule" and r.indices == (1, 3, 2)
        ).residue == -2


class TestResolventCoefficients:
    def test_zero_jet_gives_zero(self):
        rc = resolvent_coefficients(zero_jet(3), 2)
        assert all(x == 0 for mat in (rc.b1, rc.b2, rc.b3) for row in mat for x in row)

    def test_first_coefficient_2x2(self):
        jet = zero_jet(2)
        y = dict(jet.y)
        p, q = Fraction(3), Fraction(-5, 2)
        y[(1, 2)], y[(2, 1)] = p, q
        # derivative constraints for n = 2: sum over k of d1 = 0 is the only one
        d1 = dict(jet.d1)
        jet2 = JetPoint(n=2, y=y, d1=d1, d2=jet.d2)
        rc = resolvent_coefficients(jet2, 1)
        assert rc.b1 == ((Fraction(0), -p), (q, Fraction(0)))

    def test_b2_diagonal_pattern(self):
        w = random_matrix_polynomial(71, 3, 1)
        jet = jet_from_projectors(w)
        rc = resolvent_coefficients(jet, 2)
        assert rc.b2[0][0] == -jet.value(1, 2) * jet.value(2, 1)
        expected_aa = sum(
            (jet.value(2, s) * jet.value(s, 2) for s in range(1, 4)), Fraction(0)
        )
        assert rc.b2[1][1] == expected_aa

    def test_matches_projector_series_exactly(self):
        # the closed forms reproduce the first three projector coefficients
        for seed in (0, 5):
            w = random_matrix_polynomial(seed + 80, 3, 2)
            projectors = all_projectors(w, 3)
            jet = jet_from_projectors(w, projectors)
            for a in (1, 2, 3):
                rc = resolvent_coefficients(jet, a)
                pi = projectors[a - 1]
                assert rc.b1 == coeff_matrix(pi, 1)
                assert rc.b2 == coeff_matrix(pi, 2)
                assert rc.b3 == coeff_matrix(pi, 3)


class TestJetExtraction:
    def test_worked_first_coefficients(self):
        z2, z = Poly([0, 0, 1]), Poly([0, 1])
        w = MatrixPolynomial.from_entries([[z2, z], [z, -z2]])
        jet = jet_from_projectors(w)
        assert jet.value(1, 2) == Fraction(-1, 2)
        assert jet.value(2, 1) == Fraction(1, 2)

    def test_diagonal_gives_zero_jet(self):
        z2 = Poly([0, 0, 1])
        w = MatrixPolynomial.from_entries(
            [[z2, Poly.zero(), Poly.zero()],
             [Poly.zero(), -z2, Poly.zero()],
             [Poly.zero(), Poly.zero(), z2 + z2]]
        )
        jet = jet_from_projectors(w)
        assert all(v == 0 for v in jet.y.values())
        assert all(v == 0 for v in jet.d1.values())
        assert all(v == 0 for v in jet.d2.values())

    def test_extracted_jets_satisfy_constraints(self):
        for seed in range(4):
            w = random_matrix_polynomial(seed + 90, 3, 1 + seed % 2)
            jet = jet_from_projectors(w)
            assert jet_is_valid(jet)

    def test_three_sheet_value_formula(self):
        w = random_matrix_polynomial(95, 3, 1)
        b0 = w.leading_diagonal()
        b1 = w.coefficient_of_power(0)
        jet = jet_from_projectors(w)
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert jet.value(i, j) == -b1[i - 1][j - 1] / (b0[i - 1] - b0[j - 1])

    def test_json_round_trip(self):
        w = random_matrix_polynomial(97, 3, 1)
        jet = jet_from_projectors(w)
        back = jet_from_json(jet_to_json(jet))
        assert back.y == dict(jet.y)
        assert back.d1 == dict(jet.d1)
        assert back.d2 == dict(jet.d2)


class TestTauBridge:
    def test_levels_match_correlators(self):
        w = random_matrix_polynomial(42, 3, 2)
        jet = jet_from_projectors(w)
        eng = CorrelatorEngine(w)
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                table = correlator_pair(w, a, b, 2, eng)
                for level in (0, 1, 2):
                    assert table.value(((a, 0), (b, level))) == tau_second_derivative(
                        jet, a, b, level
                    )

    def test_level_guard(self):
        with pytest.raises(JetError):
            tau_second_derivative(zero_jet(2), 1, 2, 3)
