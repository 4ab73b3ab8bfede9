import math

import pytest

from spectral_tau import verify_main_theorem

from conftest import doc_w, random_hyperelliptic


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


@pytest.mark.slow
@pytest.mark.parametrize("seed", [100, 101])
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
