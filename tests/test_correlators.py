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
    conjugate_diagonal, doc_w, full_walk_values, hyper_coeff, random_hyperelliptic,
    random_matrix_polynomial,
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

    def test_scale_follows_projector_order(self):
        # sheet 1 of this instance needs scale 90 through u^3 and 180 from u^4 on:
        # a scale kept from the lower order would leave u^4 non-integral
        w = random_matrix_polynomial(100, 3, 1)
        eng = CorrelatorEngine(w)
        assert correlator_pair(w, 1, 1, 0, eng) == correlator_pair(w, 1, 1, 0)
        assert eng.scale(1) == 90
        assert correlator_n(w, (1, 2, 3), 1, eng) == correlator_n(w, (1, 2, 3), 1)
        assert eng.scale(1) == 180

    def test_wrong_scale_raises(self, monkeypatch):
        w = doc_w("hyperelliptic-g2.json")
        eng = CorrelatorEngine(w)
        monkeypatch.setattr(correlators, "_series_scale", lambda mats: 1)
        with pytest.raises(ArithmeticError):
            hyperelliptic_combination(w, 3, 1, eng)
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
        assert got == full_walk_values(mats, kmax, eng.scale(0))

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
        assert got == full_walk_values(mats, kmax, eng.scale(*sheets))

    @staticmethod
    def count_walk(monkeypatch) -> dict:
        calls = {"matmul": 0, "trace": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(correlators, "_matmul", counted("matmul", correlators._matmul))
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
