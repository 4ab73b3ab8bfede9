from fractions import Fraction

import pytest

import spectral_tau.correlators as correlators_module
import spectral_tau.projectors as projectors_module
from spectral_tau.multipoly import packing_width
from spectral_tau import (
    CorrelatorEngine, MatrixPolynomial, characteristic_data, projector_series,
)
from spectral_tau.curve import InvalidMatrixPolynomial
from spectral_tau.polynomials import Poly
from spectral_tau.projectors import BranchError, all_projectors, phi_coefficients
from spectral_tau.series import TruncationError, USeries

from conftest import (
    adjugate_projector,
    branch_residual,
    branch_series,
    coeff_matrix,
    conjugate_diagonal,
    defects_first_failure,
    doc_w,
    grid_add,
    grid_mul,
    grid_scale,
    grid_trace,
    order_defects,
    padded_projector_numerators,
    poly_grid,
    power_matrices,
    random_matrix_polynomial,
    series_from_poly,
    series_inverse,
    series_mul,
)


def diag_w():
    z2 = Poly([0, 0, 1])
    return MatrixPolynomial.from_entries([[z2, Poly.zero()], [Poly.zero(), -z2]])


def symmetric_w():
    z2 = Poly([0, 0, 1])
    z = Poly([0, 1])
    return MatrixPolynomial.from_entries([[z2, z], [z, -z2]])


class TestPhi:
    def test_traceless_2x2(self):
        w = symmetric_w()
        curve = characteristic_data(w)
        phi = phi_coefficients(curve)
        ident = [[Poly.one(), Poly.zero()], [Poly.zero(), Poly.one()]]
        assert [list(r) for r in phi.b[0]] == ident
        assert phi.b[1] == w.matrix  # a1 = 0, so b_1 = W

    def test_traceless_3x3(self):
        assert_adjugate_oracle(random_matrix_polynomial(5, 3, 1, traceless=True))

    @pytest.mark.parametrize("n, m", [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1)])
    def test_adjugate_oracle(self, n, m):
        for seed in (100, 101):
            assert_adjugate_oracle(random_matrix_polynomial(seed, n, m))


def assert_adjugate_oracle(w):
    """b_k = sum_{j<=k} a_j W^(k-j), and Cayley-Hamilton: W b_{n-1} + a_n 1 = 0."""
    n = w.n
    curve = characteristic_data(w)
    b = phi_coefficients(curve).b
    powers = power_matrices(w, n - 1)
    for k in range(n):
        want = [[sum((curve.a(j) * powers[k - j][r][c] for j in range(k + 1)), Poly.zero())
                 for c in range(n)] for r in range(n)]
        assert [list(row) for row in b[k]] == want
    closure = [[sum((w.matrix[r][s] * b[n - 1][s][c] for s in range(n)), Poly.zero())
                + (curve.a(n) if r == c else Poly.zero()) for c in range(n)] for r in range(n)]
    assert all(p.is_zero() for row in closure for p in row)


class TestBranch:
    def test_pure_square(self):
        z2 = Poly([0, 0, 1])
        w = MatrixPolynomial.from_entries([[z2, Poly.zero()], [Poly.zero(), -z2]])
        curve = characteristic_data(w)
        br = branch_series(curve, 1, 6)  # sheets follow W's diagonal: sheet 1 is +1
        assert br.coefficients(-2, 5) == [1, 0, 0, 0, 0, 0, 0]

    def test_binomial_oracle(self):
        # R = w^2 - z^4 - z: w = z^2 sqrt(1 + z^-3)
        z2 = Poly([0, 0, 1])
        w = MatrixPolynomial.from_entries([[z2, Poly([0, 1])], [Poly([1]), -z2]])
        curve = characteristic_data(w)
        br = branch_series(curve, 1, 8)
        s = USeries(0, [1, 0, 0, 1] + [0] * 5)
        sqrt_s = series_inverse(s.inv_sqrt())
        assert br.coefficients(-2, 7) == sqrt_s.coefficients(0, 9)

    def test_vieta(self):
        for seed in (0, 1):
            w = random_matrix_polynomial(seed, 3, 2)
            curve = characteristic_data(w)
            total = None
            for a in range(1, 4):
                br = branch_series(curve, a, 6)
                total = br if total is None else total + br
            minus_a1 = series_from_poly(-curve.a(1), 7)
            assert total.coefficients(-2, 5) == minus_a1.coefficients(-2, 5)

    def test_residual_vanishes(self):
        w = random_matrix_polynomial(2, 4, 1)
        curve = characteristic_data(w)
        br = branch_series(curve, 1, 10)
        residual = branch_residual(curve, br)
        # R ~ z^(nm) = u^-4, with as many trusted terms as the branch
        assert (residual.val, residual.end) == (-4, -4 + 11)
        assert residual.is_zero()

    def test_collision_rejected(self):
        # B0 = 1: the branches at infinity collide, so W cannot be built
        z = Poly([0, 1])
        with pytest.raises(InvalidMatrixPolynomial, match="pairwise distinct"):
            MatrixPolynomial.from_entries([[z, Poly([1])], [Poly([1]), z + Poly([1])]], m=1)


class TestProjector:
    def test_diagonal_exact(self):
        pis = all_projectors(diag_w(), 5)
        for a, pi in enumerate(pis):
            for k in range(6):
                mat = coeff_matrix(pi, k)
                for i in range(2):
                    for j in range(2):
                        want = 1 if (k == 0 and i == j == a) else 0
                        assert mat[i][j] == want

    def test_read_past_order_raises(self):
        for w in (symmetric_w(), random_matrix_polynomial(31, 3, 1)):
            for pi in all_projectors(w, 4):
                for row in pi:
                    for s in row:
                        assert s.end == 5
                        with pytest.raises(TruncationError):
                            s[5]

    def test_symmetric_first_order(self):
        pi = projector_series(symmetric_w(), 1, 3)
        first = coeff_matrix(pi, 1)
        assert first == ((0, Fraction(1, 2)), (Fraction(1, 2), 0))

    def test_half_identity_form(self):
        # any traceless 2x2: Pi_pm = (1 pm W/w)/2 as series
        w = symmetric_w()
        curve = characteristic_data(w)
        order = 6
        pi = projector_series(w, 1, order)
        br = branch_series(curve, 1, order + 2 * w.m)
        inv_w = series_inverse(br)
        half = Fraction(1, 2)
        expected = grid_scale(poly_grid(w.matrix, order + 1), series_mul(inv_w, half))
        half_id = ((Poly([half]), Poly.zero()), (Poly.zero(), Poly([half])))
        expected = grid_add(expected, poly_grid(half_id, order + 1))
        for k in range(order + 1):
            assert coeff_matrix(pi, k) == coeff_matrix(expected, k)

    def test_identities_small_sweep(self):
        order = 8
        for seed, (n, m) in enumerate([(2, 2), (3, 1)]):
            w = random_matrix_polynomial(seed + 20, n, m)
            curve = characteristic_data(w)
            pis = all_projectors(w, order)
            ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
            total = None
            recon = None
            for a, pi in enumerate(pis, start=1):
                sq = grid_mul(pi, pi)
                for k in range(order + 1):
                    assert coeff_matrix(sq, k) == coeff_matrix(pi, k)
                assert grid_trace(pi).coefficients(0, order + 1) == [1] + [0] * order
                total = pi if total is None else grid_add(total, pi)
                br = branch_series(curve, a, order + 2 * m * n)
                term = grid_scale(pi, br)
                recon = term if recon is None else grid_add(recon, term)
            assert coeff_matrix(total, 0) == ident
            for a in range(n):
                for b in range(a + 1, n):
                    prod = grid_mul(pis[a], pis[b])
                    for k in range(order + 1):
                        assert all(x == 0 for row in coeff_matrix(prod, k) for x in row)
            wm = poly_grid(w.matrix, order + 1)
            for k in range(-m, order - m + 1):
                assert coeff_matrix(recon, k) == coeff_matrix(wm, k)

    @pytest.mark.parametrize("k, i, j", [(0, 1, 1), (3, 0, 1), (3, 0, 0), (6, 2, 2), (6, 1, 2)])
    def test_certificate_rejects_a_changed_numerator(self, monkeypatch, k, i, j):
        """One entry of one Q_k changed after the recursion fails the certificate:
        Q_0 = E_a, the commutator (off-diagonal) or the diagonal idempotency."""
        recursion = projectors_module._projector_numerators

        def tampered(*args):
            q = recursion(*args)
            q[k][i][j] += 1
            return q

        monkeypatch.setattr(projectors_module, "_projector_numerators", tampered)
        with pytest.raises(BranchError):
            projector_series(random_matrix_polynomial(31, 3, 1), 1, 6)

    def test_conjugation_covariance(self):
        w = random_matrix_polynomial(31, 3, 1)
        d = [Fraction(2), Fraction(1, 3), Fraction(-5)]
        w2 = conjugate_diagonal(w, d)
        pi = projector_series(w, 2, 4)
        pi2 = projector_series(w2, 2, 4)
        for k in range(5):
            m1 = coeff_matrix(pi, k)
            m2 = coeff_matrix(pi2, k)
            for i in range(3):
                for j in range(3):
                    assert m2[i][j] == m1[i][j] * d[j] / d[i]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_recursion_matches_adjugate_oracle(n, m):
    """The perturbation recursion equals Phi(z, w_a)/R_w(z, w_a) at the Newton
    branch, coefficient for coefficient, on every sheet of seeds 100-105."""
    order = 10
    for seed in range(100, 106):
        w = random_matrix_polynomial(seed, n, m)
        for a, pi in enumerate(all_projectors(w, order), start=1):
            want = adjugate_projector(w, a, order)
            for k in range(order + 1):
                assert coeff_matrix(pi, k) == coeff_matrix(want, k)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_solver_matches_the_padded_oracle(n, m):
    """Solving order k from the terms without Q_k gives the Q_k of the solver on
    Q padded with zeros, on every sheet of seeds 100-105, and they are certified."""
    for seed in range(100, 106):
        _, lb, delta = characteristic_data(random_matrix_polynomial(seed, n, m)).integer_form
        for a in range(n):
            q = projectors_module._projector_numerators(lb, delta, a, 10)
            assert q == padded_projector_numerators(lb, delta, a, 10)
            assert projectors_module._first_defect(lb, q, delta) is None


def certificate_cases():
    """(lb, Delta, Q_0..Q_10) on every sheet of conftest n in 2..5, m in 1..3, seeds 100-105."""
    for n in range(2, 6):
        for m in range(1, 4):
            for seed in range(100, 106):
                w = random_matrix_polynomial(seed, n, m)
                _, lb, delta = characteristic_data(w).integer_form
                for a in range(n):
                    yield lb, delta, projectors_module._projector_numerators(lb, delta, a, 10)


def heights_1e9_w():
    """A 3 x 3, m = 2 instance whose coefficient heights are near 10^9."""
    big = 10 ** 9
    mats = [
        [[Fraction(big + 7), 0, 0], [0, Fraction(-big + 3), 0], [0, 0, Fraction(big // 3)]],
        [[Fraction(big - 1, 7), Fraction(-big), Fraction(big + 11, 3)],
         [Fraction(big // 2), Fraction(5), Fraction(-big + 1)],
         [Fraction(-big - 9), Fraction(big, 13), Fraction(big - 2)]],
        [[Fraction(3), Fraction(big), Fraction(-1)],
         [Fraction(-big + 4), Fraction(big, 11), Fraction(2)],
         [Fraction(7), Fraction(-5), Fraction(big)]],
    ]
    return MatrixPolynomial.from_power_matrices(3, 2, mats)


def heights_1e9_case():
    """(lb, Delta, Q_0..Q_10) on sheet 1 of :func:`heights_1e9_w`."""
    _, lb, delta = characteristic_data(heights_1e9_w()).integer_form
    return lb, delta, projectors_module._projector_numerators(lb, delta, 0, 10)


class TestPackedCertificate:
    """The packed certificate against the order-by-order oracle of conftest."""

    def test_both_accept_the_recursion(self):
        count = 0
        for lb, delta, q in certificate_cases():
            assert defects_first_failure(lb, q, delta) is None
            assert projectors_module._first_defect(lb, q, delta) is None
            count += 1
        assert count == 6 * 3 * (2 + 3 + 4 + 5)

    @pytest.mark.parametrize("k", [0, 5, 10])
    def test_both_reject_one_changed_entry(self, k):
        """One entry changed at k = 0, a middle order or k = order: both
        certificates fail, at that k, for an off-diagonal entry and for the
        sheet's diagonal entry (a changed (i, i) with i != a at k = 0 leaves
        both identities and is caught by Q_0 = E_a instead)."""
        cases = list(certificate_cases())
        for lb, delta, q in cases[::7]:
            n = len(q[0])
            a = next(i for i in range(n) if q[0][i][i])
            for i, j in ((a, a), (n - 1 - a, a), (a, (a + 1) % n)):
                bad = [[row[:] for row in qk] for qk in q]
                bad[k][i][j] += 1
                assert defects_first_failure(lb, bad, delta) == k
                assert projectors_module._first_defect(lb, bad, delta) == k

    def test_width_bound_covers_every_digit(self, monkeypatch):
        """The bound the width is certified from covers every t-digit of the
        full products [B(t), Q(t)] and diag(Q(t)^2) - diag(Q(t)), also above
        u^order and on a tampered Q; the digits come from the oracle's defects
        on Q padded with zero matrices."""
        bounds = []

        def spy(bound):
            bounds.append(bound)
            return packing_width(bound)

        monkeypatch.setattr(projectors_module, "packing_width", spy)
        for lb, delta, q in list(certificate_cases())[::5] + [heights_1e9_case()]:
            n, order = len(q[0]), len(q) - 1
            q_max = max(abs(x) for qk in q for row in qk for x in row)
            bad = [[row[:] for row in qk] for qk in q]
            bad[order // 2][0][n - 1] += q_max
            for numerators in (q, bad):
                bounds.clear()
                projectors_module._first_defect(lb, numerators, delta)
                padded = numerators + [[[0] * n for _ in range(n)]] * (2 * order)
                digits = [order_defects(lb, padded, delta, k) for k in range(2 * order + 1)]
                largest = max(max(abs(x) for row in comm for x in row) for comm, _ in digits)
                largest = max(largest, max(abs(x) for _, idem in digits for x in idem))
                assert largest <= bounds[-1]

    def test_heights_near_1e9_exercise_the_width(self):
        """Coefficients near 10^9 make Delta^l L B_l and Q_k tens of digits long;
        the packed certificate still agrees with the oracle, digit for digit."""
        w = heights_1e9_w()
        _, lb, delta = characteristic_data(w).integer_form
        for a in range(3):
            q = projectors_module._projector_numerators(lb, delta, a, 10)
            assert max(abs(x) for qk in q for row in qk for x in row).bit_length() > 300
            assert projectors_module._first_defect(lb, q, delta) is None
            assert defects_first_failure(lb, q, delta) is None
            for k, (i, j) in ((10, (0, 1)), (10, (a, a)), (4, (2, 1))):
                bad = [[row[:] for row in qk] for qk in q]
                bad[k][i][j] -= 1
                assert projectors_module._first_defect(lb, bad, delta) == k
                assert defects_first_failure(lb, bad, delta) == k
        pi = projector_series(w, 2, 10)
        assert coeff_matrix(pi, 0) == ((0, 0, 0), (0, 1, 0), (0, 0, 0))


class TestScaledSeries:
    """Projector series store their certified numerators Q_k at scale Delta."""

    @pytest.mark.parametrize("name", ["hyperelliptic-g1.json", "hyperelliptic-g2.json",
                                      "three-sheet-m1.json"])
    def test_reads_are_the_certified_rationals(self, name):
        w, order = doc_w(name), 9
        _, lb, delta = characteristic_data(w).integer_form
        for a in range(1, w.n + 1):
            q = projectors_module._projector_numerators(lb, delta, a - 1, order)
            for i, row in enumerate(projector_series(w, a, order)):
                for j, s in enumerate(row):
                    want = [Fraction(qk[i][j], delta ** k) for k, qk in enumerate(q)]
                    assert s.scale == delta and list(s.coeffs) == [qk[i][j] for qk in q]
                    assert s.coefficients(0, order + 1) == want
                    assert [s[k] for k in range(order + 1)] == want
                    with pytest.raises(TruncationError):
                        s[order + 1]
                    with pytest.raises(TruncationError):
                        s.coefficients(0, order + 2)


class TestComplement:
    """The engine's last sheet, 1 minus the n - 1 projectors it holds, is the
    certified projector of that sheet: the recursion's own numerators."""

    @pytest.mark.parametrize("n, m, seed", [(n, m, seed) for n in (2, 3, 4) for m in (1, 2)
                                            for seed in range(100, 106)])
    def test_complement_is_the_certified_projector(self, n, m, seed, monkeypatch):
        w = random_matrix_polynomial(seed, n, m)
        _, lb, delta = characteristic_data(w).integer_form
        b = 1 + seed % n
        built = []
        recorded = correlators_module.projector_series
        monkeypatch.setattr(correlators_module, "projector_series",
                            lambda w, sheet, order: built.append(sheet)
                            or recorded(w, sheet, order))
        for order in range(13):
            engine = CorrelatorEngine(w)
            for a in range(1, n + 1):
                if a != b:
                    engine.projector(a, order)
            grid = engine.slot_matrix(b, order)
            assert b not in built
            q = [[[grid[i][j][k] for j in range(n)] for i in range(n)] for k in range(order + 1)]
            assert q == projectors_module._projector_numerators(lb, delta, b - 1, order)
            assert projectors_module._first_defect(lb, q, delta) is None
