import numpy as np
import pytest

from spectral_tau import abel_u0, jacobian_point, period_matrix, pole_divisor, v_vectors
from spectral_tau.periods import (
    HyperellipticCurve,
    PeriodError,
    _half_period,
    v_consistency_defect,
)
from spectral_tau.polynomials import Poly

from conftest import doc_w, random_hyperelliptic


def agm(a, b):
    for _ in range(100):
        a, b = (a + b) / 2, np.sqrt(a * b)
    return a


@pytest.fixture(scope="module")
def real_branch_ctx():
    # w^2 = (z^2-1)(z^2-4), branch points -2, -1, 1, 2: all period data
    # expressible through complete elliptic integrals with modulus k = 1/3
    curve = HyperellipticCurve.from_q(Poly([4, 0, -5, 0, 1]))
    return curve, period_matrix(curve)


class TestPeriodMatrix:
    def test_agm_oracle_a_period(self, real_branch_ctx):
        curve, ctx = real_branch_ctx
        k = 1.0 / 3.0
        big_k = np.pi / (2 * agm(1.0, np.sqrt(1 - k * k)))
        assert abs(abs(ctx.a_periods[0, 0]) - 2 * big_k / 3) < 1e-10

    def test_agm_oracle_b_matrix(self, real_branch_ctx):
        curve, ctx = real_branch_ctx
        k = 1.0 / 3.0
        big_k = np.pi / (2 * agm(1.0, np.sqrt(1 - k * k)))
        big_kp = np.pi / (2 * agm(1.0, k))
        assert abs(ctx.b_matrix[0, 0] - (-2 * np.pi * big_kp / big_k)) < 1e-8

    def test_normalization(self, real_branch_ctx):
        _, ctx = real_branch_ctx
        prod = ctx.alpha @ ctx.a_periods
        assert np.allclose(prod, 2j * np.pi * np.eye(1), atol=1e-10)

    def test_modulus_matches_algebraic_invariant(self, worked_instance):
        # complex branch configuration; cross-check through the quartic invariant
        w, *_ = worked_instance
        curve = HyperellipticCurve.from_matrix_polynomial(w)
        ctx = period_matrix(curve)
        tau = ctx.b_matrix[0, 0] / (2j * np.pi)
        q = np.exp(2j * np.pi * tau)

        def eis(weight, coef):
            s = 1.0 + 0j
            for n in range(1, 300):
                s += coef * n ** weight * q ** n / (1 - q ** n)
            return s

        e4, e6 = eis(3, 240), eis(5, -504)
        j_from_b = 1728 * e4 ** 3 / (e4 ** 3 - e6 ** 2)
        e = curve.branch_points
        lam = ((e[0] - e[2]) * (e[1] - e[3])) / ((e[0] - e[3]) * (e[1] - e[2]))
        j_alg = 256 * (lam ** 2 - lam + 1) ** 3 / (lam ** 2 * (1 - lam) ** 2)
        assert abs(j_from_b - j_alg) < 1e-8 * max(1.0, abs(j_alg))

    def test_symmetry_and_negativity_g2(self):
        w, *_ = random_hyperelliptic(12, 2)
        curve = HyperellipticCurve.from_matrix_polynomial(w)
        ctx = period_matrix(curve)
        assert ctx.symmetry_defect() < 1e-8
        sym = (ctx.b_matrix + ctx.b_matrix.T).real / 2
        assert np.all(np.linalg.eigvalsh(sym) < 0)

    def test_rejects_non_squarefree(self):
        with pytest.raises(PeriodError):
            HyperellipticCurve.from_q(Poly([0, 0, 0, 0, 1]))  # z^4


class TestVVectors:
    def test_r0_and_r1(self, worked_instance):
        w, *_ = worked_instance
        curve = HyperellipticCurve.from_matrix_polynomial(w)
        ctx = period_matrix(curve)
        vd = v_vectors(curve, ctx, 3)
        assert vd.r[0] == 1
        q1 = curve.q_poly.coeff(curve.q_poly.degree() - 1)
        assert vd.r[1] == -q1 / 2

    def test_v0_is_alpha_column(self, worked_instance):
        w, *_ = worked_instance
        curve = HyperellipticCurve.from_matrix_polynomial(w)
        ctx = period_matrix(curve)
        vd = v_vectors(curve, ctx, 0)
        assert np.allclose(vd.vectors[0], ctx.alpha[:, 0])

    def test_expansion_consistency(self, worked_instance):
        w, *_ = worked_instance
        curve = HyperellipticCurve.from_matrix_polynomial(w)
        ctx = period_matrix(curve)
        vd = v_vectors(curve, ctx, 2)
        assert v_consistency_defect(curve, ctx, vd, 2) < 1e-8


def lattice_defect(v, ctx):
    """Distance from v to the nearest point of 2 pi i Z^g + B Z^g."""
    n = np.round(np.linalg.solve(ctx.b_matrix.real, v.real))
    r = v - ctx.b_matrix @ n
    return float(np.max(np.abs(r - 2j * np.pi * np.round(r.imag / (2 * np.pi)))))


@pytest.fixture(scope="module")
def docs_contexts():
    out = {}
    for name in ("hyperelliptic-g1.json", "hyperelliptic-g2.json"):
        w = doc_w(name)
        curve = HyperellipticCurve.from_matrix_polynomial(w)
        out[name] = (w, curve, period_matrix(curve))
    return out


class TestAbelMap:
    # reduced u0 as computed by the Abel map based at P_plus (through the
    # t = 1/z chart and routed paths): basing it at a branch point must give
    # the same point of the Jacobian
    @pytest.mark.parametrize("name, expected", [
        ("hyperelliptic-g1.json", [1.0927034411798324 - 1.0512477515227392j]),
        ("hyperelliptic-g2.json", [2.1223099902233553 - 0.13279631425784844j,
                                   2.0763790547301664 + 0.011116497213816245j]),
    ])
    def test_reduced_u0_matches_plus_infinity_base(self, name, expected, docs_contexts):
        w, curve, ctx = docs_contexts[name]
        u0 = jacobian_point(curve, ctx, pole_divisor(w)).u0
        assert np.max(np.abs(u0 - np.array(expected))) < 1e-9

    def test_branch_point_offsets_are_half_periods(self, docs_contexts):
        _, curve, ctx = docs_contexts["hyperelliptic-g2.json"]
        for e in curve.branch_points:
            u = ctx.alpha @ _half_period(curve, ctx, e)
            assert lattice_defect(2 * u, ctx) < 1e-9
            # the Abel map is injective on the curve: only e1 itself maps into the lattice
            assert (lattice_defect(u, ctx) < 1e-9) == (e == ctx.cuts[0][0])

    def test_wrong_point_count_rejected(self, worked_instance):
        w, *_ = worked_instance
        curve = HyperellipticCurve.from_matrix_polynomial(w)
        ctx = period_matrix(curve)
        with pytest.raises(PeriodError):
            abel_u0(curve, ctx, [])
