import itertools
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from spectral_tau import (
    abel_u0, characteristic_data, d_polynomial, jacobian_point, period_matrix, pole_divisor,
    v_vectors,
)
from spectral_tau import periods
from spectral_tau.periods import (
    HyperellipticCurve,
    PeriodError,
    _edge_coordinates,
    _edge_cycle,
    v_consistency_defect,
)
from spectral_tau.polynomials import Poly

from conftest import SCAN_SWEEP, doc_w, random_hyperelliptic, sweep_instance


def test_edge_chart_takes_the_other_points_in_order():
    """The other branch points, picked by index, are np.delete's, bit for bit."""
    curve = HyperellipticCurve.from_matrix_polynomial(sweep_instance("g3-s101"))
    points = np.array(curve.branch_points)
    for i, j in itertools.combinations(range(len(points)), 2):
        mid, half, u, rhos = _edge_coordinates(points, i, j)
        assert np.array_equal(u, (np.delete(points, [i, j]) - mid) / half)
        assert np.array_equal(rhos, periods._bernstein(u))
        assert np.array_equal(periods._others(points, j), np.delete(points, j))


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


def test_gauss_legendre_rule_is_computed_once_and_read_only():
    x, wts = periods._gauss_legendre(24)
    want_x, want_wts = np.polynomial.legendre.leggauss(24)
    assert np.array_equal(x, want_x) and np.array_equal(wts, want_wts)
    assert periods._gauss_legendre(24)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0


def _clustered_q(base: Fraction, gap: Fraction) -> Poly:
    """A monic sextic with the roots base and base + gap."""
    z = Poly([0, 1])
    return (z - base) * (z - base - gap) * (z * z + z + 3) * (z - 5) * (z + Fraction(11, 7))


@pytest.mark.parametrize("q", [
    *(-characteristic_data(random_hyperelliptic(s, g)[0]).a(2) for g in (1, 2, 3) for s in range(100, 110)),
    *(_clustered_q(base, gap) for base in (Fraction(1, 3), Fraction(-7, 2))
      for gap in (Fraction(1, 10 ** 5), Fraction(1, 10 ** 10)))])
def test_branch_points_are_the_correctly_rounded_roots(q):
    """Each branch point is complex() of the 50-digit root of Q.  numpy's roots of a
    real pair 1e-10 apart are a conjugate pair on the pair's bisector, from which
    plain Newton steps could take both to one root."""
    with mpmath.workdps(50):
        roots = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator
                                  for c in reversed(q.coeffs)], maxsteps=200, extraprec=300)
        expected = sorted(map(complex, roots), key=lambda t: (t.real, t.imag))
    assert HyperellipticCurve.from_q(q).branch_points == tuple(expected)


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


def basis_change(alpha, b_matrix, ctx):
    """(T, X): T = ctx.alpha alpha^-1 maps normalized coordinates of the basis
    (alpha, b_matrix) to those of ctx, and X is the real matrix with
    T [2 pi i I, b_matrix] = [2 pi i I, ctx.b_matrix] X; integral when both
    bases span the same lattice."""
    g = len(b_matrix)

    def real_form(m):
        return np.vstack([m.real, m.imag])

    t = ctx.alpha @ np.linalg.inv(alpha)
    old = t @ np.hstack([2j * np.pi * np.eye(g), b_matrix])
    new = np.hstack([2j * np.pi * np.eye(g), ctx.b_matrix])
    return t, np.linalg.solve(real_form(new), real_form(old))


def varpi(b_matrix):
    """The printed half-period pi i (1,0,1,0,...) + B (1,...,1)/2 that the recorded
    cut-system u0 had subtracted."""
    g = len(b_matrix)
    return 1j * np.pi * (np.arange(g) % 2 == 0) + b_matrix @ np.ones(g) / 2


def riemann_constant(ctx):
    """The half-period K = pi i m + B n / 2 that abel_u0 subtracts."""
    m, n = (np.array(c) for c in ctx.riemann_characteristic)
    return 1j * np.pi * m + ctx.b_matrix @ n / 2


def is_symplectic(x):
    g = len(x) // 2
    j = np.block([[np.zeros((g, g)), np.eye(g)], [-np.eye(g), np.zeros((g, g))]])
    return np.array_equal(x.T @ j @ x, j)


@pytest.fixture(scope="module")
def docs_contexts():
    out = {}
    for name in ("hyperelliptic-g1.json", "hyperelliptic-g2.json"):
        w = doc_w(name)
        curve = HyperellipticCurve.from_matrix_polynomial(w)
        out[name] = (w, curve, period_matrix(curve))
    return out


# The cut-system basis (routed b-cycles) that the tree basis replaced, on the
# docs examples: its alpha and B, and the integral symplectic matrix X that
# relates its B to the tree basis's B (see basis_change).
OLD_BASIS = {
    "hyperelliptic-g1.json": (
        [[-1.5046061663085533 - 2.878316028698322j]],
        [[-5.1591565346386705 + 2.6968889647878225j]],
        [[-1, -1], [1, 0]],
    ),
    "hyperelliptic-g2.json": (
        [[-2.297564824921426 - 2.102506100838922j, 3.008223052194951 - 1.7121146997374672j],
         [-6.248774863125517e-16 - 4.205012201677844j, -5.088508087676091e-16 - 3.4242293994749344j]],
        [[-7.817986525183275 - 2.5881744021307647j, -4.152758109460325 + 0.5534182514590275j],
         [-4.152758109460329 + 0.5534182514590303j, -8.305516218920657 + 6.283185307179587j]],
        [[1, -1, -1, -1], [-1, 0, 0, -1], [0, 0, 0, -1], [0, 0, -1, -1]],
    ),
}


class TestAbelMap:
    # reduced u0 as computed in the cut-system basis by the Abel map based at
    # P_plus (through the t = 1/z chart and routed paths): basing it at a
    # branch point and changing to the tree basis must give the same point of
    # the Jacobian
    @pytest.mark.parametrize("name, expected", [
        ("hyperelliptic-g1.json", [1.0927034411798324 - 1.0512477515227392j]),
        ("hyperelliptic-g2.json", [2.1223099902233553 - 0.13279631425784844j,
                                   2.0763790547301664 + 0.011116497213816245j]),
    ])
    def test_reduced_u0_matches_plus_infinity_base(self, name, expected, docs_contexts):
        w, curve, ctx = docs_contexts[name]
        alpha, b_old, recorded = (np.array(x) for x in OLD_BASIS[name])
        t, x = basis_change(alpha, b_old, ctx)
        assert np.max(np.abs(x - np.round(x))) < 1e-10
        assert np.array_equal(np.round(x), recorded) and is_symplectic(recorded)
        # the recorded u0 + varpi and u0 + K are alpha sum_j A_e1(Q_j) mod the lattice
        mapped = t @ (np.array(expected) + varpi(b_old)) - riemann_constant(ctx)
        u0 = jacobian_point(curve, ctx, pole_divisor(w), d_polynomial(w))
        assert lattice_defect(u0 - mapped, ctx) < 1e-9

    def test_branch_point_offsets_are_half_periods(self, docs_contexts):
        _, curve, ctx = docs_contexts["hyperelliptic-g2.json"]
        for e, h in zip(curve.branch_points, ctx.half_periods):
            u = ctx.alpha @ h
            assert lattice_defect(2 * u, ctx) < 1e-9
            # the Abel map is injective on the curve: only e1 itself maps into the lattice
            assert (lattice_defect(u, ctx) < 1e-9) == (e == curve.branch_points[0])

    def test_wrong_point_count_rejected(self, worked_instance):
        w, *_ = worked_instance
        curve = HyperellipticCurve.from_matrix_polynomial(w)
        ctx = period_matrix(curve)
        with pytest.raises(PeriodError):
            abel_u0(curve, ctx, [], d_polynomial(w))


class TestRiemannCharacteristic:
    @pytest.mark.parametrize("name", SCAN_SWEEP)
    def test_branch_characteristics_are_the_rounded_half_periods(self, name, monkeypatch):
        # the integer characteristics c_k against alpha H(e_k) rounded to the half-lattice
        seen = []
        derive = periods._riemann_characteristic
        monkeypatch.setattr(periods, "_riemann_characteristic",
                            lambda chars: seen.append(chars) or derive(chars))
        ctx = period_matrix(HyperellipticCurve.from_matrix_polynomial(sweep_instance(name)))
        b = ctx.b_matrix
        for c, h in zip(seen[0], ctx.half_periods[1:], strict=True):
            u = ctx.alpha @ h
            n = np.linalg.solve(b.real, 2 * u.real)
            m = (u - b @ np.round(n) / 2).imag / np.pi
            assert np.max(np.abs(np.concatenate([m - np.round(m), n - np.round(n)]))) < 1e-8
            assert np.array_equal(c, np.concatenate([np.round(m), np.round(n)]) % 2)

    def test_inconsistent_parities_raise(self):
        # g = 1: parity(K) = 1 and parity(K + 0) = 0 cannot both hold
        with pytest.raises(PeriodError, match="inconsistent"):
            periods._riemann_characteristic(np.zeros((3, 2), dtype=np.int64))

    def test_characteristics_that_do_not_span_raise(self):
        # g = 2, every c_k = 0: each of the six odd characteristics fits
        with pytest.raises(PeriodError, match="6 half-periods .* do not span"):
            periods._riemann_characteristic(np.zeros((5, 4), dtype=np.int64))


class TestTreeBasis:
    @pytest.mark.parametrize("w", [doc_w("hyperelliptic-g2.json"), random_hyperelliptic(102, 3)[0]],
                             ids=["g2-doc", "g3-s102"])
    def test_two_trees_give_symplectically_equivalent_bases(self, w, monkeypatch):
        curve = HyperellipticCurve.from_matrix_polynomial(w)
        ctx = period_matrix(curve)
        star = [(0, k) for k in range(1, 2 * curve.g + 2)]
        assert sorted(ctx.edges) != star
        monkeypatch.setattr(periods, "_spanning_tree",
                            lambda points: {e: _edge_coordinates(points, *e) for e in star})
        other = period_matrix(curve)
        assert other.edges == tuple(star)
        t, x = basis_change(other.alpha, other.b_matrix, ctx)
        assert np.max(np.abs(x - np.round(x))) < 1e-10
        assert is_symplectic(np.round(x))
        divisor, d = pole_divisor(w), d_polynomial(w)
        u_other = t @ (jacobian_point(curve, other, divisor, d) + riemann_constant(other))
        u = jacobian_point(curve, ctx, divisor, d) + riemann_constant(ctx)
        assert lattice_defect(u - u_other, ctx) < 1e-9
        # K is a point of the Jacobian: both trees derive the same one
        assert lattice_defect(t @ riemann_constant(other) - riemann_constant(ctx), ctx) < 1e-9

    def test_edge_bound_covers_the_error_of_a_coarse_rule(self):
        curve = HyperellipticCurve.from_matrix_polynomial(doc_w("hyperelliptic-g2.json"))
        ctx = period_matrix(curve)
        points = np.array(curve.branch_points)
        for i, j in ctx.edges:
            chart = _edge_coordinates(points, i, j)
            for fraction in (0.25, 0.5, 0.9):
                coarse = _edge_cycle(points, i, j, chart, fraction, 1e-6)
                fine = _edge_cycle(points, i, j, chart, fraction, 1e-16)
                err = float(np.max(np.abs(coarse[0] - fine[0])))
                assert err <= coarse[3] + 1e-14
                assert fine[3] < 1e-14 < coarse[3]

    @pytest.mark.parametrize("w", [doc_w("hyperelliptic-g2.json"), random_hyperelliptic(102, 3)[0]],
                             ids=["g2-doc", "g3-s102"])
    def test_each_edge_chart_and_its_radii_are_built_once(self, w, monkeypatch):
        """The tree's edge cycles reuse the charts and Bernstein radii that chose the
        tree: one of each per edge of the complete graph on the branch points."""
        curve = HyperellipticCurve.from_matrix_polynomial(w)
        calls = {"_edge_coordinates": 0, "_bernstein": 0}
        for name in calls:
            def counted(*args, _f=getattr(periods, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(periods, name, counted)
        period_matrix(curve)
        pairs = (2 * curve.g + 2) * (2 * curve.g + 1) // 2
        assert calls == {"_edge_coordinates": pairs, "_bernstein": pairs}

    @pytest.mark.parametrize("w", [doc_w("hyperelliptic-g2.json"), random_hyperelliptic(105, 2)[0]],
                             ids=["g2-doc", "g2-s105"])
    def test_tree_has_the_largest_smallest_clearance(self, w):
        curve = HyperellipticCurve.from_matrix_polynomial(w)
        ctx = period_matrix(curve)
        points = np.array(curve.branch_points)

        def clearance(tree):
            return min(np.log(np.min(periods._bernstein(_edge_coordinates(points, i, j)[2])))
                       for i, j in tree)

        def prufer_tree(seq):
            degree = [1 + list(seq).count(v) for v in range(len(points))]
            tree = []
            for v in seq:
                leaf = degree.index(1)
                tree.append((min(leaf, v), max(leaf, v)))
                degree[leaf] -= 1
                degree[v] -= 1
            tree.append(tuple(i for i, d in enumerate(degree) if d == 1))
            return tree

        assert ctx.clearance == pytest.approx(clearance(ctx.edges))
        assert 0 < ctx.quadrature_bound < 1e-10
        best = max(clearance(tree) for tree in map(prufer_tree, itertools.product(
            range(len(points)), repeat=len(points) - 2)) if not any(
                len({*e, *f}) == 4 and periods._crosses(*points[[*e, *f]])
                for e, f in itertools.combinations(tree, 2)))
        assert ctx.clearance == pytest.approx(best)

    def test_siegel_shift_stays_symmetric_at_half_integers(self):
        # Re Omega of this curve has a pair of entries at +-1/2 up to rounding;
        # rounding them apart would make the shift, and B, asymmetric
        curve = HyperellipticCurve.from_matrix_polynomial(random_hyperelliptic(269, 3)[0])
        ctx = period_matrix(curve)
        assert np.min(np.abs(np.abs(ctx.b_matrix.imag / (2 * np.pi)) - 0.5)) < 1e-12
        assert ctx.symmetry_defect() < 1e-10
        assert np.all(np.linalg.eigvalsh(ctx.b_matrix.real) < 0)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_random_curves_succeed_or_fail_classified(self, g):
        for seed in range(100, 110):
            w = random_hyperelliptic(seed, g)[0]
            curve = HyperellipticCurve.from_matrix_polynomial(w)
            try:
                ctx = period_matrix(curve)
                jacobian_point(curve, ctx, pole_divisor(w), d_polynomial(w))
            except PeriodError as exc:
                assert "routing" not in str(exc), (seed, exc)
                continue
            assert ctx.symmetry_defect() < 1e-10, seed
            assert np.all(np.linalg.eigvalsh(ctx.b_matrix.real) < 0), seed
            assert np.max(np.abs(ctx.alpha @ ctx.a_periods - 2j * np.pi * np.eye(g))) < 1e-10, seed
