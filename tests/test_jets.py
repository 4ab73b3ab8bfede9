from fractions import Fraction

import pytest

from spectral_tau import (
    CorrelatorEngine,
    MatrixPolynomial,
    correlator_pair,
    jet_from_projectors,
    resolvent_coefficients,
    validate_jet,
)
from spectral_tau.jets import JetError, JetPoint
from spectral_tau.polynomials import Poly
from spectral_tau.projectors import all_projectors
from spectral_tau.rationals import parse_rational
from spectral_tau.series import USeries
from spectral_tau.serialize import jet_to_json

from conftest import coeff_matrix, jet_is_valid, random_matrix_polynomial, tau_second_derivative


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
        data = jet_to_json(jet)

        def read(field, keys):
            return {tuple(int(e[k]) for k in keys): parse_rational(e["value"]) for e in data[field]}

        assert data["n"] == jet.n
        assert read("y", "ij") == dict(jet.y)
        assert read("d1", "ijb") == dict(jet.d1)
        assert read("d2", "ijbc") == dict(jet.d2)


class TestJetRejectsInconsistentProjectors:
    """One unit added to one projector entry that the jet is not read from is caught
    by the comparison with the closed forms."""

    @staticmethod
    def raised(projectors, a, k, i, j):
        """A copy of the projector grids with 1 added to u^k of sheet a's entry (i, j)."""
        grids = [[list(row) for row in grid] for grid in projectors]
        entry = grids[a - 1][i - 1][j - 1]
        coeffs = list(entry.coeffs)
        coeffs[k - entry.val] += 1
        grids[a - 1][i - 1][j - 1] = USeries(entry.val, coeffs)
        return [tuple(map(tuple, grid)) for grid in grids]

    @pytest.mark.parametrize("a, k, i, j", [
        (1, 1, 2, 3),   # B1 outside row and column a
        (2, 1, 1, 2),   # B1 column route: (B_{2,1})_12 = +y_12
        (2, 2, 1, 1),   # B2 diagonal: -y_12 y_21
        (1, 3, 2, 3),   # B3 with i, j != a
    ])
    def test_raised_entry_raises(self, a, k, i, j):
        w = random_matrix_polynomial(80, 3, 2)
        projectors = all_projectors(w, 3)
        assert jet_is_valid(jet_from_projectors(w, projectors))
        with pytest.raises(JetError, match=rf"B{k}\[{i},{j}\], sheet {a}$"):
            jet_from_projectors(w, self.raised(projectors, a, k, i, j))


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
