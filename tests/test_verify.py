import collections
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import spectral_tau.theta as theta_module
import spectral_tau.verify as verify_module
from spectral_tau import verify_main_theorem
from spectral_tau.cli import main
from spectral_tau.curve import SpectralCurveData
import spectral_tau.periods as periods_module
from spectral_tau.divisor import d_polynomial
from spectral_tau.periods import HyperellipticCurve, period_matrix
from spectral_tau.polynomials import Poly, poly_gcd

from conftest import (
    SCAN_SWEEP, count_builds, doc_theta_point, doc_w, half_period_shifts, lenient_divisor,
    random_hyperelliptic, scan_half_period, set_partition_logs, stress_families, sweep_instance,
)


class TestMainIdentity:
    def test_worked_instance_full(self, worked_instance):
        w, *_ = worked_instance
        rep = verify_main_theorem(w, kmax={3: 1, 4: 0}, tol=1e-6)
        assert rep.success
        assert rep.checks["b_symmetry_defect"] < 1e-8
        assert rep.checks["v_consistency_defect"] < 1e-8
        assert rep.checks["quasi_periodicity_defect"] < 1e-10
        assert rep.checks["theta_at_u0"] > 1e-10
        by_key = {(r.n_points, r.k_tuple): r for r in rep.identities}
        assert by_key[(3, (0, 0, 0))].f_exact == -4
        assert all(r.passed for r in rep.identities)
        assert all(abs(r.t_value.imag) < 1e-6 for r in rep.identities)

    def test_random_instance_g1(self):
        w, *_ = random_hyperelliptic(7, 1)
        rep = verify_main_theorem(w, kmax={3: 1, 4: 0}, tol=1e-6)
        assert rep.success
        assert any(r.f_exact != 0 for r in rep.identities)

    def test_report_serializes(self, worked_instance):
        w, *_ = worked_instance
        rep = verify_main_theorem(w, kmax={3: 0}, tol=1e-6)
        data = rep.to_json_dict()
        assert data["success"] is True
        assert all(isinstance(item["F"], str) for item in data["identities"])
        assert all(len(item["T"]) == 2 for item in data["identities"])


@pytest.mark.parametrize("seed", range(100, 105))
def test_random_instance_g3(seed):
    w, *_ = random_hyperelliptic(seed, 3)
    rep = verify_main_theorem(w, kmax={3: 1, 4: 0}, tol=1e-6)
    assert rep.success
    assert rep.checks["b_symmetry_defect"] < 1e-8
    assert rep.checks["quasi_periodicity_defect"] < 1e-10
    assert any(r.f_exact != 0 for r in rep.identities)


@pytest.mark.parametrize("name", ["hyperelliptic-g1.json", "hyperelliptic-g2.json"])
def test_period_quadrature_bound_reported(name):
    rep = verify_main_theorem(doc_w(name), kmax={3: 0}, tol=1e-6)
    bound = rep.to_json_dict()["checks"]["period_quadrature_bound"]
    assert math.isfinite(bound) and 0 < bound < 1e-10


@pytest.mark.parametrize("name, g", [("hyperelliptic-g1.json", 1), ("hyperelliptic-g2.json", 2)])
def test_one_lattice_pass_per_shift(monkeypatch, name, g):
    """The identities and theta at u0 cost one lattice pass; the g
    quasi-periodicity checks in the B directions cost one each."""
    calls = []
    raw = theta_module._raw_values

    def counted(*args, **kwargs):
        calls.append(1)
        return raw(*args, **kwargs)

    monkeypatch.setattr(theta_module, "_raw_values", counted)
    assert verify_main_theorem(doc_w(name), kmax={3: 2, 4: 1}, tol=1e-6).success
    assert len(calls) == g + 1


def test_g1_oracle_mpmath():
    """T on the g1 example against jtheta at 30 digits, at the same float u, B and V."""
    mp = pytest.importorskip("mpmath")
    rep = verify_main_theorem(doc_w("hyperelliptic-g1.json"), kmax={3: 1, 4: 1}, tol=1e-9)
    assert rep.success
    u, b, vectors = doc_theta_point("hyperelliptic-g1.json", 1)
    with mp.workdps(30):
        # theta(u) = jtheta(3, u/(2i), e^(B/2)), so d/du = (2i)^-1 d/dz
        z, q = mp.mpc(u[0]) / mp.mpc(0, 2), mp.exp(mp.mpc(b[0, 0]) / 2)
        t = [mp.jtheta(3, z, q, derivative=k) / mp.mpc(0, 2) ** k / mp.jtheta(3, z, q)
             for k in range(5)]
        log_d = {3: t[3] - 3 * t[2] * t[1] + 2 * t[1] ** 3,
                 4: t[4] - 4 * t[3] * t[1] - 3 * t[2] ** 2 + 12 * t[2] * t[1] ** 2 - 6 * t[1] ** 4}
        for r in rep.identities:
            t_mp = log_d[r.n_points]
            for k in r.k_tuple:
                t_mp *= mp.mpc(vectors[k][0])
            assert abs(r.t_value - complex(t_mp)) <= 1e-12, (r.n_points, r.k_tuple)
    assert {r.n_points for r in rep.identities} == {3, 4}


def test_g1_oracle_mpmath_high_orders():
    """T along V^(0) at N = 3..10 on the g1 example against jtheta at 30 digits, through
    the 1-D moment-cumulant recursion; at N >= 8 the set-partition sum is no closer."""
    mp = pytest.importorskip("mpmath")
    u, b, vectors = doc_theta_point("hyperelliptic-g1.json", 0)
    orders = range(3, 11)
    logs = theta_module.log_derivatives(u, b, [(0,) * n for n in orders], vectors)[1]
    blocks = [(0,) * n for n in range(11)]
    values = theta_module._raw_values(u, b, blocks, theta_module.lattice_radius(u, b, 10), vectors)
    with mp.workdps(30):
        # theta(u) = jtheta(3, u/(2i), e^(B/2)), so d/du = (2i)^-1 d/dz
        z, q = mp.mpc(u[0]) / mp.mpc(0, 2), mp.exp(mp.mpc(b[0, 0]) / 2)
        m = [mp.jtheta(3, z, q, derivative=k) / mp.mpc(0, 2) ** k / mp.jtheta(3, z, q)
             for k in range(11)]
        kappa = [mp.mpc(0)]
        for n in range(1, 11):
            kappa.append(m[n] - sum(mp.binomial(n - 1, j - 1) * kappa[j] * m[n - j]
                                    for j in range(1, n)))
        v0 = mp.mpc(vectors[0][0])
        for n in orders:
            t_mp = kappa[n] * v0 ** n
            err = abs(logs[(0,) * n] - complex(t_mp))
            assert err <= 1e-13 * max(1.0, abs(complex(t_mp))), (n, err)
            if n >= 8:
                assert err <= abs(set_partition_logs(values, (0,) * n) - complex(t_mp)), n


def test_half_period_count():
    assert len(half_period_shifts(np.diag([-10.0 + 0j]))) == 4
    assert len(half_period_shifts(np.diag([-6.0 + 0j, -7.0 + 0j]))) == 16


@pytest.mark.parametrize("name", SCAN_SWEEP)
def test_derived_half_period_is_the_scan_winner(name):
    """K's characteristic, derived from the branch points, is the one half-period of
    the 2^(2g) scan at which every identity holds."""
    w = sweep_instance(name)
    ctx = period_matrix(HyperellipticCurve.from_matrix_polynomial(w))
    assert scan_half_period(w, {3: 1, 4: 0}, 1e-9) == [ctx.riemann_characteristic]


def test_perturbed_f_fails_only_its_identity(monkeypatch, capsys):
    combination = verify_module.hyperelliptic_combination

    def perturbed(w, n_points, kmax, engine=None):
        table = dict(combination(w, n_points, kmax, engine))
        if n_points == 3:
            table[(0, 0, 1)] += 1
        return table

    monkeypatch.setattr(verify_module, "hyperelliptic_combination", perturbed)
    name = "hyperelliptic-g1.json"
    rep = verify_main_theorem(doc_w(name), kmax={3: 1, 4: 1}, tol=1e-6)
    assert not rep.success
    assert rep.shift_used == ((1,), (1,))
    assert [(r.n_points, r.k_tuple) for r in rep.identities] == [
        (3, (0, 0, 0)), (3, (0, 0, 1)), (3, (0, 1, 1)), (3, (1, 1, 1)),
        (4, (0, 0, 0, 0)), (4, (0, 0, 0, 1)), (4, (0, 0, 1, 1)), (4, (0, 1, 1, 1)),
        (4, (1, 1, 1, 1))]
    assert [r.k_tuple for r in rep.identities if not r.passed] == [(0, 0, 1)]
    path = str(Path(__file__).resolve().parent.parent / "docs" / "examples" / name)
    status = main(["verify-theta", "--input", path, "--kmax", "1", "--tol", "1e-6"])
    report = json.loads(capsys.readouterr().out)
    assert status == 1 and report["success"] is False
    assert [r["passed"] for r in report["identities"]] == [r.passed for r in rep.identities]


@pytest.mark.parametrize("seed, g", [(100, 2), (106, 3)])
def test_high_orders_pass(seed, g):
    rep = verify_main_theorem(random_hyperelliptic(seed, g)[0],
                              kmax={n: 2 for n in range(3, 7)}, tol=1e-9)
    assert len(rep.identities) == 74
    assert rep.success


def test_im_t_is_judged_relative_to_f():
    # F = -14359559/8: Im T = 5e-10 is above tol but 3e-16 of |F|, and
    # rel_err = |T - F| / |F| already bounds it
    rep = verify_main_theorem(random_hyperelliptic(106, 3)[0], kmax={4: 2}, tol=1e-10)
    r = {r.k_tuple: r for r in rep.identities}[(2, 2, 2, 2)]
    assert r.f_exact == Fraction(-14359559, 8)
    assert abs(r.t_value.imag) > 1e-10 > r.rel_err
    assert r.passed and rep.success


@pytest.mark.parametrize("factor, passed", [(2.0, False), (0.5, True)])
def test_verdict_bounds_im_t(factor, passed, monkeypatch):
    # Im T = factor * tol * max(1, |F|) on every identity: |(-1)^N T - F| is a
    # complex modulus, so rel_err is at least factor * tol
    tol = 1e-6
    log_derivatives = verify_module.log_derivatives

    def shifted(*args):
        theta_u0, logs = log_derivatives(*args)
        return theta_u0, {ks: t + 1j * factor * tol * max(1.0, abs(t.real))
                          for ks, t in logs.items()}

    monkeypatch.setattr(verify_module, "log_derivatives", shifted)
    rep = verify_main_theorem(doc_w("hyperelliptic-g2.json"), kmax={3: 2, 4: 1}, tol=tol)
    assert [r.passed for r in rep.identities] == [passed] * len(rep.identities)
    # |F| reaches 10 here, so at factor 0.5 some Im T passes above tol
    assert max(abs(r.t_value.imag) for r in rep.identities) > tol


@pytest.mark.parametrize("kmax, message", [
    ({2: 1}, "entry 2: 1"), ({}, "at least one entry"), ({3: -1}, "entry 3: -1"),
    ({1: 0}, "entry 1: 0"), ({3: 1, 4: -2}, "entry 4: -2"),
    ({3: 1.7}, "entry 3: 1.7: k_N must be an int"),
    ({3: True}, "entry 3: True: k_N must be an int"),
    ({3.9: 0}, "entry 3.9: 0: N must be an int"),
    ({3: 1, True: 0}, "entry True: 0: N must be an int"),
])
def test_kmax_is_checked_before_any_stage(monkeypatch, kmax, message):
    def no_periods(*args, **kwargs):
        raise AssertionError("period_matrix ran before kmax was checked")

    monkeypatch.setattr(verify_module, "period_matrix", no_periods)
    with pytest.raises(ValueError, match=f"^kmax: .*{message}"):
        verify_main_theorem(doc_w("hyperelliptic-g1.json"), kmax=kmax)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-6, True, "1e-6"])
def test_tol_is_checked_before_any_stage(monkeypatch, tol):
    def no_periods(*args, **kwargs):
        raise AssertionError("period_matrix ran before tol was checked")

    monkeypatch.setattr(verify_module, "period_matrix", no_periods)
    with pytest.raises(ValueError, match=r"^tol: .* is not a finite number > 0$"):
        verify_main_theorem(doc_w("hyperelliptic-g1.json"), tol=tol)


def test_one_integer_form_per_verify(monkeypatch):
    """The curve, the projectors and the normal form of one verify read one
    integer form of W, built once."""
    built = []
    count_builds(monkeypatch, SpectralCurveData, "integer_form", built)
    assert verify_main_theorem(doc_w("hyperelliptic-g2.json"), tol=1e-9).success
    assert built == ["integer_form"]


def test_kmax_takes_any_n_from_three():
    rep = verify_main_theorem(doc_w("hyperelliptic-g1.json"), kmax={3: 0, 7: 0}, tol=1e-6)
    assert rep.success and [r.n_points for r in rep.identities] == [3, 7]


@pytest.mark.parametrize("kmax, orders", [(None, [2]), ({3: 1, 4: 2, 5: 0}, [1, 2])])
def test_one_normal_form_per_verify(monkeypatch, kmax, orders):
    """The N of one verify share the engine's normal form: it is built once, or
    again only for an order above the last."""
    import spectral_tau.correlators as correlators_module

    built = []
    normal_form = correlators_module._normal_form
    monkeypatch.setattr(correlators_module, "_normal_form",
                        lambda w, order: built.append(order) or normal_form(w, order))
    assert verify_main_theorem(doc_w("hyperelliptic-g2.json"), kmax=kmax, tol=1e-9).success
    assert built == orders


def test_special_divisor_is_a_period_error(monkeypatch):
    """At the odd half-period pi i + B/2 of the g1 example theta vanishes: the
    identities' lattice pass at u0 finds it, and the CLI exits 1 with only errors."""
    from spectral_tau.cli import JobSpec, run
    from spectral_tau.periods import PeriodError

    monkeypatch.setattr(verify_module, "jacobian_point",
                        lambda curve, ctx, points, d_poly: np.array([np.pi * 1j + ctx.b_matrix[0, 0] / 2]))
    message = "theta vanishes at the divisor point; divisor is special"
    with pytest.raises(PeriodError, match=message):
        verify_main_theorem(doc_w("hyperelliptic-g1.json"), kmax={3: 1, 4: 0}, tol=1e-6)
    path = Path(__file__).resolve().parent.parent / "docs" / "examples" / "hyperelliptic-g1.json"
    assert run(JobSpec("verify-theta", str(path))) == (1, {"errors": [message]})


class TestStressFamilies:
    """The seeded stress families of scripts/stress_families.py."""

    def test_family_a_has_no_fail(self):
        """A FAIL is a wrong F or T, never a classified numerical failure: family A
        ends in passes, DivisorErrors and PeriodErrors only."""
        families = stress_families()
        tally = collections.Counter(families.outcome(w)[0] for _, _, w in families.family("A"))
        assert sum(tally.values()) == 118
        assert set(tally) <= {"pass", "DivisorError", "PeriodError"}, tally

    def test_family_a_g1_s11_passes(self):
        """[[a, -2/3], [1, -a]]: its identities hold to 1e-7 only when the branch points
        near its root cluster are the correctly rounded roots of Q (7e-6 with float noise)."""
        w = stress_families().instance("A", 1, 11)
        z = Poly([0, 1])
        a = z * z - Fraction(93, 2) * z - Fraction(7, 2)
        assert w.matrix == ((a, Poly.constant(Fraction(-2, 3))), (Poly.one(), -a))
        rep = verify_main_theorem(w, {3: 1, 4: 0})
        assert rep.success and max(r.rel_err for r in rep.identities) < 1e-7

    @pytest.mark.parametrize("family, g, s", [("B", 2, 13), ("A", 3, 5)])
    def test_point_near_a_branch_point_keeps_its_leg(self, family, g, s, monkeypatch):
        """gcd(D, Q) = 1, so no divisor point is a branch point, however near one it
        lies (B g2 s13: 2.3e-5 from one, at |z| = 323), and each keeps its Abel leg.
        The divisor is built without pole_divisor's residual test, which rejects these W."""
        w = stress_families().instance(family, g, s)
        curve = HyperellipticCurve.from_matrix_polynomial(w)
        assert poly_gcd(d_polynomial(w), curve.q_poly).degree() == 0
        monkeypatch.setattr(verify_module, "pole_divisor", lenient_divisor)
        rep = verify_main_theorem(w, {3: 1, 4: 0})
        assert max(r.rel_err for r in rep.identities) <= 1e-8

    def test_points_at_branch_points_skip_their_leg(self, monkeypatch):
        """Family A g1 s34: deg gcd(D, Q) = 2 = g + 1, so both divisor points are
        branch points, and neither takes an Abel leg."""
        w = stress_families().instance("A", 1, 34)
        curve = HyperellipticCurve.from_matrix_polynomial(w)
        assert poly_gcd(d_polynomial(w), curve.q_poly).degree() == 2
        legs = []
        zeta_leg = periods_module._zeta_leg
        monkeypatch.setattr(periods_module, "_zeta_leg",
                            lambda *args: legs.append(args) or zeta_leg(*args))
        assert verify_main_theorem(w, {3: 1, 4: 0}).success
        assert legs == []
