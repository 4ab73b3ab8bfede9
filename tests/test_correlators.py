import re
from fractions import Fraction

import pytest

from spectral_tau import (
    CorrelatorEngine,
    MatrixPolynomial,
    correlator_n,
    correlator_pair,
    hyperelliptic_combination,
)
from spectral_tau import correlators
from spectral_tau import multipoly
from spectral_tau.correlators import _series_scale, hyperelliptic_combination_from_tables
from spectral_tau.multipoly import InexactDivisionError
from spectral_tau.polynomials import Poly
from spectral_tau.rationals import parse_rational
from spectral_tau.serialize import correlator_table_to_json

from conftest import (
    conjugate_diagonal, doc_w, full_walk_values, hyper_coeff, pair_table_values,
    random_hyperelliptic, random_matrix_polynomial,
)


def diag_w(n=3, m=2):
    import random

    rng = random.Random(1)
    lead = rng.sample(range(-5, 6), n)
    mats = [[[Fraction(lead[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]]
    for _ in range(m):
        mats.append([[Fraction(rng.randint(-3, 3)) if i == j else Fraction(0)
                      for j in range(n)] for i in range(n)])
    return MatrixPolynomial.from_power_matrices(n, m, mats)


class TestPairTable:
    def test_diagonal_vanishes(self):
        w = diag_w()
        t = correlator_pair(w, 1, 2, 2)
        assert all(v == 0 for v in t.entries.values())
        t11 = correlator_pair(w, 1, 1, 1)
        assert all(v == 0 for v in t11.entries.values())

    def test_worked_pair_value(self, worked_instance):
        w, *_ = worked_instance
        t = correlator_pair(w, 1, 2, 0)
        assert t.value(((1, 0), (2, 0))) == Fraction(1, 2)

    def test_three_sheet_leading(self):
        b0 = [[0, 0, 0], [0, 1, 0], [0, 0, 3]]
        b1 = [[0, 2, 0], [5, 0, 0], [0, 0, 0]]
        w = MatrixPolynomial.from_power_matrices(3, 1, [b0, b1])
        t = correlator_pair(w, 1, 2, 0)
        assert t.value(((1, 0), (2, 0))) == 10

    def test_pair_symmetry(self):
        w = random_matrix_polynomial(7, 3, 2)
        eng = CorrelatorEngine(w)
        t12 = correlator_pair(w, 1, 2, 1, eng)
        t21 = correlator_pair(w, 2, 1, 1, eng)
        for k1 in range(2):
            for k2 in range(2):
                assert t12.value(((1, k1), (2, k2))) == t21.value(((2, k2), (1, k1)))

    @staticmethod
    def assert_pairs_match_oracle(w, kmax):
        eng = CorrelatorEngine(w)
        for a in range(1, w.n + 1):
            for b in range(a, w.n + 1):
                table = correlator_pair(w, a, b, kmax, eng)
                mats = [eng.slot_matrix(s, 2 * (kmax + 1)) for s in (a, b)]
                want = pair_table_values(*mats, int(a == b), kmax, _series_scale(mats))
                assert {(k1, k2): v for ((_, k1), (_, k2)), v in table.entries.items()} == want

    @pytest.mark.parametrize("name", ["hyperelliptic-g1.json", "hyperelliptic-g2.json",
                                      "three-sheet-m1.json"])
    @pytest.mark.parametrize("kmax", range(5))
    def test_docs_examples_match_pair_oracle(self, name, kmax):
        self.assert_pairs_match_oracle(doc_w(name), kmax)

    @pytest.mark.parametrize("n, m, kmax", [(3, 1, 2), (3, 2, 2), (4, 1, 2), (4, 1, 8)],
                             ids=["n3m1", "n3m2", "n4m1", "n4m1-k8"])
    def test_random_match_pair_oracle(self, n, m, kmax):
        # n4m1 at kmax 8 is the shape of the cli-exact benchmark's pair tables
        self.assert_pairs_match_oracle(random_matrix_polynomial(100, n, m), kmax)

    @pytest.mark.parametrize("name", ["hyperelliptic-g1.json", "hyperelliptic-g2.json"])
    def test_hyperelliptic_pair_matches_oracle(self, name):
        w = doc_w(name)
        eng = CorrelatorEngine(w)
        for kmax in range(4):
            d = eng.difference_matrix(2 * (kmax + 1))
            want = pair_table_values(d, d, 2, kmax, _series_scale([d]))
            assert hyperelliptic_combination(w, 2, kmax, eng) == want

    def test_delta_is_certified(self):
        # delta_ab is given to the kernel, not read off the trace: without it
        # the constant term of tr[Pi_a Pi_a] = 1 is a remainder of the division
        w = doc_w("hyperelliptic-g1.json")
        eng = CorrelatorEngine(w)
        mats = {1: eng.slot_matrix(1, 2)}
        with pytest.raises(InexactDivisionError):
            correlators._npoint_values(mats, (1, 1), 0, _series_scale(mats.values()), 0)

    @pytest.mark.parametrize("name, sheets, message", [
        ("hyperelliptic-g2.json", (1, 3), "sheet 3 outside 1..2"),
        ("hyperelliptic-g2.json", (-1, 1, 2), "sheet -1 outside 1..2"),
        ("three-sheet-m1.json", (1,), "n-point expansion needs at least 2 slots"),
        ("three-sheet-m1.json", (1.7, 2), "sheet must be an int >= 1, got 1.7"),
        ("three-sheet-m1.json", (True, 2), "sheet must be an int >= 1, got True"),
        ("three-sheet-m1.json", ("3", 2), "sheet must be an int >= 1, got '3'"),
    ], ids=["sheet-3", "sheet-minus-1", "one-sheet", "float-sheet", "bool-sheet", "str-sheet"])
    def test_bad_sheets_are_a_value_error_before_any_work(self, name, sheets, message,
                                                          monkeypatch):
        def no_projectors(*args, **kwargs):
            raise AssertionError("projectors computed before the sheet check")

        monkeypatch.setattr(correlators, "projector_series", no_projectors)
        w = doc_w(name)
        with pytest.raises(ValueError, match=f"^{message}$"):
            correlator_n(w, sheets, 0)
        if len(sheets) == 2:
            with pytest.raises(ValueError, match=f"^{message}$"):
                correlator_pair(w, *sheets, 0)

    @pytest.mark.parametrize("pairs", [((1.9, 0.2), (2, 0)), ((True, 0), (2, 0)),
                                       ((1.0, 0), (2, 0)), ((1, 0), (2, False))],
                             ids=["floats", "bool-sheet", "float-sheet", "bool-k"])
    def test_value_reads_only_int_indices(self, pairs):
        table = correlator_n(doc_w("three-sheet-m1.json"), (1, 2), 0)
        assert table.value(((1, 0), (2, 0))) == 10
        with pytest.raises(ValueError, match="must be an int"):
            table.value(pairs)


class TestNPoint:
    def test_diagonal_vanishes(self):
        w = diag_w()
        t = correlator_n(w, (1, 2, 3), 0)
        assert all(v == 0 for v in t.entries.values())

    def test_three_point_formula_random(self):
        for seed in range(3):
            w = random_matrix_polynomial(seed + 40, 3, 1)
            eng = CorrelatorEngine(w)
            b0 = w.leading_diagonal()
            b1 = w.coefficient_of_power(0)
            got = correlator_n(w, (1, 2, 3), 0, eng).value(((1, 0), (2, 0), (3, 0)))
            num = b1[0][1] * b1[1][2] * b1[2][0] - b1[0][2] * b1[2][1] * b1[1][0]
            den = (b0[0] - b0[1]) * (b0[1] - b0[2]) * (b0[2] - b0[0])
            assert got == num / den

    def test_slot_sums_vanish(self):
        w = random_matrix_polynomial(3, 3, 1)
        eng = CorrelatorEngine(w)
        n = w.n
        for b in range(1, n + 1):
            total = sum(
                correlator_pair(w, a, b, 1, eng).value(((a, 0), (b, 1)))
                for a in range(1, n + 1)
            )
            assert total == 0
        for b in range(1, n + 1):
            total = sum(
                correlator_n(w, (a, b, b), 0, eng).value(((a, 0), (b, 0), (b, 0)))
                for a in range(1, n + 1)
            )
            assert total == 0

    def test_permutation_symmetry(self):
        w = random_matrix_polynomial(9, 3, 1)
        eng = CorrelatorEngine(w)
        t1 = correlator_n(w, (1, 2, 3), 1, eng)
        t2 = correlator_n(w, (3, 1, 2), 1, eng)
        for k1 in range(2):
            for k2 in range(2):
                for k3 in range(2):
                    assert t1.value(((1, k1), (2, k2), (3, k3))) == t2.value(
                        ((3, k3), (1, k1), (2, k2))
                    )

    def test_conjugation_invariance(self):
        w = random_matrix_polynomial(13, 3, 1)
        w2 = conjugate_diagonal(w, [Fraction(3), Fraction(-1, 2), Fraction(7, 3)])
        t1 = correlator_n(w, (1, 1, 2), 0)
        t2 = correlator_n(w2, (1, 1, 2), 0)
        assert t1.entries == t2.entries

    def test_stability_under_higher_internal_order(self):
        # recompute with a padded kmax and compare the shared box
        w = random_matrix_polynomial(17, 2, 2)
        eng = CorrelatorEngine(w)
        t1 = correlator_n(w, (1, 2, 2), 1, eng)
        t2 = correlator_n(w, (1, 2, 2), 2, eng)
        for key, v in t1.entries.items():
            assert t2.entries[key] == v


class TestHyperellipticCombination:
    def test_matches_per_sheet_sum(self, worked_instance):
        w, *_ = worked_instance
        eng = CorrelatorEngine(w)
        fast = hyperelliptic_combination(w, 3, 1, eng)
        slow = hyperelliptic_combination_from_tables(w, 3, 1, eng)
        assert fast == slow
        fast2 = hyperelliptic_combination(w, 2, 1, eng)
        slow2 = hyperelliptic_combination_from_tables(w, 2, 1, eng)
        assert fast2 == slow2

    def test_worked_golden_values(self, worked_instance):
        w, *_ = worked_instance
        eng = CorrelatorEngine(w)
        c2 = hyperelliptic_combination(w, 2, 1, eng)
        assert c2[(0, 0)] == -2
        assert c2[(0, 1)] == -2
        assert c2[(1, 1)] == 2
        c3 = hyperelliptic_combination(w, 3, 1, eng)
        assert c3[(0, 0, 0)] == -4
        assert c3[(0, 0, 1)] == 0
        c4 = hyperelliptic_combination(w, 4, 0, eng)
        assert c4[(0, 0, 0, 0)] == 0

    def test_golden_formulas_random_g2(self):
        w, a, b, c = random_hyperelliptic(101, 2)
        eng = CorrelatorEngine(w)
        g = 2
        a1, a2, a3 = (hyper_coeff(a, g, k) for k in (1, 2, 3))
        b1, b2, b3 = (hyper_coeff(b, g, k) for k in (1, 2, 3))
        c1, c2, c3 = (hyper_coeff(c, g, k) for k in (1, 2, 3))
        comb2 = hyperelliptic_combination(w, 2, 1, eng)
        assert comb2[(0, 0)] == -b1 * c1
        assert comb2[(0, 1)] == 2 * a1 * b1 * c1 - b2 * c1 - b1 * c2
        f11 = Fraction(1, 2) * (
            -8 * a1 ** 2 * b1 * c1 + 4 * a2 * b1 * c1 + 6 * a1 * b2 * c1
            - 2 * b3 * c1 + b1 ** 2 * c1 ** 2 + 6 * a1 * b1 * c2 - 4 * b2 * c2 - 2 * b1 * c3
        )
        assert comb2[(1, 1)] == f11


NORMAL_FORM_INSTANCES = {
    "g1-doc": lambda: doc_w("hyperelliptic-g1.json"),
    "g2-doc": lambda: doc_w("hyperelliptic-g2.json"),
    "g1-s100": lambda: random_hyperelliptic(100, 1)[0],
    "g2-s100": lambda: random_hyperelliptic(100, 2)[0],
    "g2-s105": lambda: random_hyperelliptic(105, 2)[0],
    "g3-s101": lambda: random_hyperelliptic(101, 3)[0],
    # not traceless, and b_1 - b_2 is not 2
    **{f"n2m{m}-s{seed}": (lambda seed=seed, m=m: random_matrix_polynomial(seed, 2, m))
       for seed in (100, 101, 102) for m in (2, 3)},
}


class TestNormalForm:
    """N >= 3 tables walk M(u) of Pi_1 - Pi_2 = M(u) s(u) instead of the projectors."""

    @pytest.mark.parametrize("name, npts, kmax", [
        (name, npts, kmax) for name in NORMAL_FORM_INSTANCES
        for npts, kmax in ((3, 0), (3, 2), (4, 1), (5, 0))
    ] + [("g1-doc", 4, 2), ("g2-doc", 4, 2), ("g2-doc", 5, 1), ("n2m3-s102", 4, 2)])
    def test_matches_per_sheet_tables(self, name, npts, kmax):
        w = NORMAL_FORM_INSTANCES[name]()
        got = hyperelliptic_combination(w, npts, kmax)
        assert got == hyperelliptic_combination_from_tables(w, npts, kmax)

    @pytest.mark.parametrize("name", ["g2-doc", "g3-s101", "n2m3-s100"])
    def test_normal_form(self, name):
        # M(0) = diag(1, -1), M has degree m, and (M s)^2 = (Pi_1 - Pi_2)^2 = 1
        w = NORMAL_FORM_INSTANCES[name]()
        order = 2 * w.m + 3
        mat, s = correlators._normal_form(w, order)
        assert [[entry[0] for entry in row] for row in mat] == [[1, 0], [0, -1]]
        assert all(len(entry) == w.m + 1 for row in mat for entry in row)
        ms = [[[sum(a * s[k - l] for l, a in enumerate(entry[: k + 1])) for k in range(order + 1)]
               for entry in row] for row in mat]
        for i in range(2):
            for j in range(2):
                square = [sum(ms[i][t][l] * ms[t][j][k - l] for t in range(2) for l in range(k + 1))
                          for k in range(order + 1)]
                assert square == [int(i == j)] + [0] * order

    @pytest.mark.parametrize("mutate", [
        lambda mat, s: (mat, [-x for x in s]),
        lambda mat, s: ([[[2 * x for x in entry] for entry in row] for row in mat], s),
        lambda mat, s: (mat, s[:1] + [x + 1 for x in s[1:]]),
    ], ids=["s-other-branch", "M-times-gap", "s-shifted"])
    def test_certificate_ties_m_s_to_the_projectors(self, mutate, monkeypatch):
        normal_form = correlators._normal_form
        monkeypatch.setattr(correlators, "_normal_form",
                            lambda w, order: mutate(*normal_form(w, order)))
        with pytest.raises(ArithmeticError, match="differs from Pi_1 - Pi_2"):
            hyperelliptic_combination(doc_w("hyperelliptic-g2.json"), 3, 1)

    def test_engine_builds_the_normal_form_once_per_larger_order(self, monkeypatch):
        """One engine across N and kmax: _normal_form and its certificate run only
        when an order beyond the last is asked, and the tables equal fresh engines'."""
        w = doc_w("hyperelliptic-g2.json")
        built, checked = [], []
        normal_form = correlators._normal_form
        difference_matrix = CorrelatorEngine.difference_matrix
        monkeypatch.setattr(correlators, "_normal_form",
                            lambda w, order: built.append(order) or normal_form(w, order))
        monkeypatch.setattr(CorrelatorEngine, "difference_matrix",
                            lambda self, order: checked.append(order)
                            or difference_matrix(self, order))
        engine = CorrelatorEngine(w)
        plan = [(3, 1), (4, 0), (3, 2), (5, 1), (4, 2)]
        shared = [hyperelliptic_combination(w, npts, kmax, engine) for npts, kmax in plan]
        assert built == checked == [1, 2]
        assert shared == [hyperelliptic_combination(w, npts, kmax) for npts, kmax in plan]
        for order in range(3):
            assert engine.normal_form(order) == normal_form(w, order)

    def test_a_table_builds_only_the_sheets_it_reads(self, monkeypatch):
        w = random_matrix_polynomial(100, 4, 1)
        warm = CorrelatorEngine(w)
        for a in range(1, 5):
            warm.projector(a, 12)
        want = correlator_pair(w, 1, 2, 2, warm)
        built = []
        projector_series = correlators.projector_series
        monkeypatch.setattr(correlators, "projector_series",
                            lambda w, sheet, order: built.append((sheet, order))
                            or projector_series(w, sheet, order))
        engine = CorrelatorEngine(w)
        assert correlator_pair(w, 1, 2, 2, engine) == want
        assert built == [(1, 6), (2, 6)]
        # a sheet is rebuilt only when a table asks it for a higher order
        correlator_n(w, (2, 3, 2), 0, engine)
        assert built == [(1, 6), (2, 6), (3, 3)]
        correlator_n(w, (1, 3, 1), 2, engine)
        assert built == [(1, 6), (2, 6), (3, 3), (1, 9), (3, 9)]

    def test_projectors_only_through_kmax(self, monkeypatch):
        orders = []
        projector_series = correlators.projector_series

        def recorded(w, sheet, order):
            orders.append(order)
            return projector_series(w, sheet, order)

        monkeypatch.setattr(correlators, "projector_series", recorded)
        hyperelliptic_combination(doc_w("hyperelliptic-g2.json"), 5, 1)
        assert orders == [1, 1]


@pytest.mark.parametrize("kmax", [-1, -2, True, 1.0, "1", None])
def test_kmax_is_checked_before_any_work(kmax, monkeypatch):
    def no_curve(*args, **kwargs):
        raise AssertionError("curve data computed before the kmax check")

    monkeypatch.setattr(correlators, "characteristic_data", no_curve)
    w = doc_w("hyperelliptic-g2.json")
    message = "^" + re.escape(f"kmax must be an int >= 0, got {kmax!r}") + "$"
    for call in (lambda: correlator_n(w, (1, 2, 1), kmax), lambda: correlator_pair(w, 1, 2, kmax),
                 lambda: hyperelliptic_combination(w, 3, kmax),
                 lambda: hyperelliptic_combination(w, 2, kmax)):
        with pytest.raises(ValueError, match=message):
            call()
    # n_points is checked the same way, an int >= 2 that is not a bool
    for n_points in (1, 0, -1, True, 2.0, 3.0):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"n_points must be an int >= 2, got {n_points!r}") + "$"):
            hyperelliptic_combination(w, n_points, 1)


class TestIntegerEngine:
    @pytest.mark.parametrize("name, expected", [
        ("three-sheet-m1.json", 1),
        ("hyperelliptic-g1.json", 2),
        ("hyperelliptic-g2.json", 2),
    ])
    def test_derived_scale(self, name, expected):
        w = doc_w(name)
        eng = CorrelatorEngine(w)
        mats = [eng.slot_matrix(a, 12) for a in range(1, w.n + 1)]
        if w.n == 2:
            mats.append(eng.difference_matrix(12))
        assert _series_scale(mats) == expected

    @pytest.mark.parametrize("name", ["hyperelliptic-g2.json", "three-sheet-m1.json"])
    def test_warm_engine_matches_fresh(self, name):
        # projectors cached at a higher order must be read back exactly K+1 long
        w = doc_w(name)
        warm = CorrelatorEngine(w)
        warm.projector(1, 12)
        K = 5
        mats = [(warm.slot_matrix(a, K), CorrelatorEngine(w).slot_matrix(a, K))
                for a in range(1, w.n + 1)]
        if w.n == 2:
            mats.append((warm.difference_matrix(K), CorrelatorEngine(w).difference_matrix(K)))
        for got, want in mats:
            assert got == want
            assert all(len(s) == K + 1 for row in got for s in row)

    def test_scale_follows_projector_order(self, monkeypatch):
        # sheet 1 of this instance needs scale 90 through u^3 and 180 from u^4 on.
        # Each table takes c from the window it reads: a warm engine, with
        # projectors cached through u^12, gives the fresh engine's table and c,
        # so the (1, 1) table at kmax 0 (u^0..u^2) takes 90, not 180.
        w = random_matrix_polynomial(100, 3, 1)
        scales = []
        npoint_values = correlators._npoint_values
        monkeypatch.setattr(correlators, "_npoint_values",
                            lambda mats, sheets, kmax, c, subtract:
                            scales.append(c) or npoint_values(mats, sheets, kmax, c, subtract))
        warm = CorrelatorEngine(w)
        warm.projector(1, 12)
        assert _series_scale([warm.slot_matrix(1, 3)]) == 90
        assert _series_scale([warm.slot_matrix(1, 4)]) == 180
        for sheets, kmax, c in (((1, 1), 0, 90), ((1, 2, 3), 1, 1260)):
            scales.clear()
            assert correlator_n(w, sheets, kmax, warm) == correlator_n(w, sheets, kmax)
            window = len(sheets) * (kmax + 1)
            assert _series_scale([warm.slot_matrix(a, window) for a in set(sheets)]) == c
            assert scales == [c, c]

    def test_wrong_scale_raises(self, monkeypatch):
        # on the g2 example M and s are integral through u^kmax, so scale 1
        # is right for the N >= 3 combination there; this curve's are not
        w = doc_w("hyperelliptic-g2.json")
        w_random = random_hyperelliptic(100, 2)[0]
        eng = CorrelatorEngine(w)
        monkeypatch.setattr(correlators, "_series_scale", lambda mats: 1)
        with pytest.raises(ArithmeticError, match="non-integral"):
            hyperelliptic_combination(w_random, 3, 1)
        with pytest.raises(ArithmeticError):
            correlator_pair(w, 1, 2, 1, eng)

    def test_five_point_matches_per_sheet_sum_random_g2(self):
        w, *_ = random_hyperelliptic(103, 2)
        eng = CorrelatorEngine(w)
        fast = hyperelliptic_combination(w, 5, 0, eng)
        assert fast == hyperelliptic_combination_from_tables(w, 5, 0, eng)
        assert fast[(0, 0, 0, 0, 0)] != 0

    @pytest.mark.parametrize("make_w, sheets, kmax", [
        (lambda: doc_w("three-sheet-m1.json"), (1, 2, 3, 1, 2, 3), 1),
        (lambda: random_matrix_polynomial(3, 3, 1), (1, 2, 3, 1), 1),
    ], ids=["three-sheet-m1-N6", "random-n3m1-N4"])
    def test_slot_swap_invariance(self, make_w, sheets, kmax):
        """Swapping two slots with their k's leaves every value unchanged.

        The kernel puts the slots in a canonical order before it walks, so
        both slot orders run the same chains; this checks the mapping of the
        k's back to the caller's order.
        """
        w = make_w()
        eng = CorrelatorEngine(w)
        table = correlator_n(w, sheets, kmax, eng)
        swapped = correlator_n(w, (sheets[1], sheets[0]) + sheets[2:], kmax, eng)
        for key, v in table.entries.items():
            assert swapped.value((key[1], key[0]) + key[2:]) == v


class TestOrbitWalk:
    """The orbit walk against the full walk over all (N-1)! cyclic classes."""

    @pytest.mark.parametrize("name, npts, kmax", [
        (name, npts, 0) for name in ("hyperelliptic-g1.json", "hyperelliptic-g2.json")
        for npts in (3, 4, 5, 6)
    ] + [("hyperelliptic-g1.json", 4, 1), ("hyperelliptic-g2.json", 4, 1)])
    def test_hyperelliptic_matches_full_walk(self, name, npts, kmax):
        w = doc_w(name)
        eng = CorrelatorEngine(w)
        got = hyperelliptic_combination(w, npts, kmax, eng)
        mats = [eng.difference_matrix(npts * (kmax + 1))] * npts
        assert got == full_walk_values(mats, kmax, _series_scale(mats))

    @pytest.mark.parametrize("make_w, sheets, kmax", [
        (lambda: random_matrix_polynomial(100, 3, 1), (1, 1, 2, 3), 1),
        (lambda: random_matrix_polynomial(100, 3, 2), (1, 1, 2, 3), 1),
        (lambda: doc_w("three-sheet-m1.json"), (1, 2, 3, 1, 2), 0),
        (lambda: doc_w("three-sheet-m1.json"), (1, 2, 3, 1, 2, 3), 0),
    ], ids=["n3m1-s100", "n3m2-s100", "three-sheet-m1-N5", "three-sheet-m1-N6"])
    def test_correlator_matches_full_walk(self, make_w, sheets, kmax):
        w = make_w()
        eng = CorrelatorEngine(w)
        table = correlator_n(w, sheets, kmax, eng)
        got = {tuple(k for _, k in key): v for key, v in table.entries.items()}
        mats = [eng.slot_matrix(a, len(sheets) * (kmax + 1)) for a in sheets]
        assert got == full_walk_values(mats, kmax, _series_scale(mats))

    @staticmethod
    def count_walk(monkeypatch) -> dict:
        calls = {"matmul": 0, "trace": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(correlators, "multipoly_chain_step",
                            counted("matmul", correlators.multipoly_chain_step))
        monkeypatch.setattr(correlators, "_trace_of_product",
                            counted("trace", correlators._trace_of_product))
        return calls

    @pytest.mark.parametrize("npts", [3, 4, 5, 6])
    def test_hyperelliptic_walks_one_chain(self, npts, monkeypatch):
        # every slot is Pi_1 - Pi_2, so all classes form one orbit: N - 2
        # chain products and one trace; the full walk would make more
        calls = self.count_walk(monkeypatch)
        hyperelliptic_combination(doc_w("hyperelliptic-g2.json"), npts, 0)
        assert calls == {"matmul": npts - 2, "trace": 1}

    @pytest.mark.parametrize("sheets, traces", [
        ((1, 2, 3), 2),            # G trivial: all (N-1)! classes
        ((1, 1, 2, 3), 3),         # sheet 2 first, G = S_2 on the 1's: 3!/2
        ((3, 3, 1, 3), 1),         # sheet 1 first, G = S_3: one class
        ((1, 2, 2, 3, 3), 6),      # G = S_2 x S_2: 4!/4
    ])
    def test_correlator_walks_one_class_per_orbit(self, sheets, traces, monkeypatch):
        # a least-repeated sheet goes to slot 0, which leaves G largest
        calls = self.count_walk(monkeypatch)
        correlator_n(random_matrix_polynomial(100, 3, 1), sheets, 0)
        assert calls["trace"] == traces

    @pytest.mark.parametrize("flipped", range(6))
    def test_flipped_coset_term_is_caught(self, flipped, monkeypatch):
        # N = 5 applies the coset factors of S_4 through 1 + 2 + 3 = 6
        # relabelings; negating any one of them must not pass unnoticed
        w = doc_w("hyperelliptic-g2.json")
        eng = CorrelatorEngine(w)
        good = hyperelliptic_combination(w, 5, 1, eng)
        calls = []
        subtract = multipoly._subtract_swapped

        def flip_one(out, rows, i, j):
            calls.append((i, j))
            if len(calls) == flipped + 1:
                rows = {e: -r for e, r in rows.items()}
            subtract(out, rows, i, j)

        monkeypatch.setattr(multipoly, "_subtract_swapped", flip_one)
        try:
            assert hyperelliptic_combination(w, 5, 1, eng) != good
        except InexactDivisionError:
            pass
        assert len(calls) == 6


class TestKPEquation:
    """The KP equation at weight 4 on every sheet, exactly.

    With F = log tau in the times t_k of one sheet a (F^{a..a}_{k..k}
    the derivatives in t_(k+1)), u = 2 F_xx solves KP:
    F^{aaaa}_{0000} + 6 (F^{aa}_{00})^2 + 3 F^{aa}_{11} - 4 F^{aa}_{02} = 0.
    The four-point value walks one orbit of S_3, so this also checks the
    coset factors at n = 3 slots past slot 0.
    """

    @pytest.mark.parametrize("make_w", [
        lambda: doc_w("hyperelliptic-g1.json"),
        lambda: doc_w("hyperelliptic-g2.json"),
        lambda: random_hyperelliptic(100, 1)[0],
        lambda: random_hyperelliptic(100, 2)[0],
        lambda: random_matrix_polynomial(101, 3, 1),
        lambda: random_matrix_polynomial(100, 3, 2),
    ], ids=["g1-doc", "g2-doc", "g1-s100", "g2-s100", "n3m1-s101", "n3m2-s100"])
    def test_weight_four(self, make_w):
        w = make_w()
        eng = CorrelatorEngine(w)
        for a in range(1, w.n + 1):
            f4 = correlator_n(w, (a,) * 4, 0, eng).value(((a, 0),) * 4)
            pair = correlator_pair(w, a, a, 2, eng)

            def f2(k1, k2):
                return pair.value(((a, k1), (a, k2)))

            assert f4 + 6 * f2(0, 0) ** 2 + 3 * f2(1, 1) - 4 * f2(0, 2) == 0


class TestSerialization:
    def test_table_round_trip(self, worked_instance):
        w, *_ = worked_instance
        t = correlator_pair(w, 1, 2, 1)
        data = correlator_table_to_json(t)
        back = {tuple(zip(item["a"], item["k"])): parse_rational(item["value"])
                for item in data["entries"]}
        assert data["N"] == t.n_points
        assert back == dict(t.entries)
        assert data["trusted_order"] == t.trusted_order
        for item in data["entries"]:
            assert isinstance(item["value"], str)
