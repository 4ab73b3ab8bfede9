import itertools

import numpy as np
import pytest

import spectral_tau.theta as theta_module
from spectral_tau.theta import (
    ThetaError,
    _raw_values,
    lattice_radius,
    log_derivatives,
    log_theta_derivatives,
    reduce_mod_lattice,
    theta,
    theta_with_derivatives,
)

from conftest import doc_theta_point, set_partition_logs

B1 = np.array([[-10.0 + 0j]])
B2 = np.array([[-6.0 + 1.0j, 1.5 - 0.5j], [1.5 - 0.5j, -7.0 - 2.0j]])


class TestThetaSum:
    def test_known_value(self):
        # direct summation: 1 + 2 e^-5 + 2 e^-20 at u = 0, B = -10
        want = 1 + 2 * np.exp(-5) + 2 * np.exp(-20)
        assert abs(theta(np.array([0.0 + 0j]), B1) - want) < 1e-14

    def test_evenness(self):
        u = np.array([0.3 + 0.9j, -0.2 + 0.4j])
        assert abs(theta(u, B2) - theta(-u, B2)) < 1e-12

    def test_two_pi_periodicity(self):
        u = np.array([0.1 + 0.2j])
        assert abs(theta(u + 2j * np.pi, B1) - theta(u, B1)) < 1e-12

    def test_quasi_periodicity(self):
        u = np.array([0.4 - 0.3j, 0.1 + 0.6j])
        for j in range(2):
            shifted = theta(u + B2[:, j], B2)
            predicted = np.exp(-0.5 * B2[j, j] - u[j]) * theta(u, B2)
            assert abs(shifted - predicted) < 1e-10 * max(1.0, abs(predicted))

    def test_derivative_factors(self):
        u = np.array([0.2 + 0.1j, -0.4 + 0.3j])
        vals = theta_with_derivatives(u, B2, [(0,), (0, 1)])
        # finite differences against the plain sum
        h = 1e-6
        e0 = np.array([h, 0.0])
        fd = (theta(u + e0, B2) - theta(u - e0, B2)) / (2 * h)
        assert abs(vals[(0,)] - fd) < 1e-7


class TestLogDerivatives:
    def test_scalar_third_derivative_formula(self):
        u = np.array([0.5 + 0.25j])
        t = theta_with_derivatives(u, B1, [(0,), (0, 0), (0, 0, 0)])
        t0, t1, t2, t3 = (
            t[()], t[(0,)], t[(0, 0)], t[(0, 0, 0)],
        )
        explicit = t3 / t0 - 3 * t2 * t1 / t0 ** 2 + 2 * (t1 / t0) ** 3
        assert abs(log_theta_derivatives(u, B1, (0, 0, 0)) - explicit) < 1e-12

    def test_index_symmetry(self):
        u = np.array([0.2 - 0.3j, 0.7 + 0.2j])
        a = log_theta_derivatives(u, B2, (0, 1, 1))
        b = log_theta_derivatives(u, B2, (1, 0, 1))
        assert abs(a - b) < 1e-12

    def test_parity(self):
        u = np.array([0.15 + 0.45j, -0.3 + 0.2j])
        a = log_theta_derivatives(u, B2, (0, 1, 1))
        b = log_theta_derivatives(-u, B2, (0, 1, 1))
        assert abs(a + b) < 1e-10

    def test_fourth_order_parity(self):
        u = np.array([0.15 + 0.45j, -0.3 + 0.2j])
        a = log_theta_derivatives(u, B2, (0, 0, 1, 1))
        b = log_theta_derivatives(-u, B2, (0, 0, 1, 1))
        assert abs(a - b) < 1e-10

    @pytest.mark.parametrize("name", ["hyperelliptic-g1.json", "hyperelliptic-g2.json"])
    def test_recursion_matches_set_partitions_in_mixed_directions(self, name):
        """Every identity tuple of kmax {3..6: 2} at u0, each also in reverse (unsorted)
        order, from one memo: the recursion agrees with the Bell(N) set-partition sum."""
        u0, b, vectors = doc_theta_point(name, 2)
        tuples = [ks for n in range(3, 7)
                  for ks in itertools.combinations_with_replacement(range(3), n)]
        tuples += [ks[::-1] for ks in tuples if ks[::-1] != ks]
        t0, logs = log_derivatives(u0, b, tuples, vectors)
        blocks = {c for t in tuples for r in range(len(t) + 1)
                  for c in itertools.combinations(sorted(t), r)}
        values = _raw_values(u0, b, blocks, lattice_radius(u0, b, 6), vectors)
        assert values[()] == t0 and set(logs) == set(tuples)
        for ks in tuples:
            want = set_partition_logs(values, ks)
            assert abs(logs[ks] - want) <= 1e-12 * max(1.0, abs(logs[ks])), ks

    def test_divisor_guard(self):
        # theta vanishes at the odd half-period pi*i + B/2 for g = 1
        u = np.array([1j * np.pi + B1[0, 0] / 2])
        assert abs(theta(u, B1)) < 1e-12
        with pytest.raises(ThetaError):
            log_theta_derivatives(u, B1, (0, 0, 0))


class TestLattice:
    def test_reduction_invariance(self):
        u = np.array([3.7 + 9.4j, -5.1 + 2.2j])
        r = reduce_mod_lattice(u, B2)
        assert abs(theta(r, B2) - theta(u, B2) * np.exp(0)) > 0  # both converge
        # reduction differs from u by an exact lattice vector
        diff = u - r
        n = np.linalg.solve(B2.real, diff.real)
        assert np.allclose(n, np.round(n), atol=1e-8)
        m = (diff - B2 @ np.round(n)).imag / (2 * np.pi)
        assert np.allclose(m, np.round(m), atol=1e-8)


class TestTruncation:
    def test_sized_box_matches_a_wider_box(self):
        u = np.array([1.3 - 0.4j, -2.1 + 0.8j])
        derivs = [(), (0,), (0, 1), (1, 1, 1), (0, 0, 1, 1)]
        sized = theta_with_derivatives(u, B2, derivs)
        radius = lattice_radius(u, B2, 4)
        wide = _raw_values(u, B2, derivs, radius + 6)
        for d in derivs:
            assert abs(sized[d] - wide[d]) < 1e-14 * max(1.0, abs(wide[d]))

    @pytest.mark.parametrize("axes", [None, [[0.3, -1.2], [2.5, 0.7], [-0.4, 1.1]]])
    def test_prefix_products_equal_np_prod_bit_for_bit(self, axes):
        """Tuples whose prefixes are not asked for, built on demand: every sum is the
        np.prod form's, bit for bit (np.prod multiplies left to right)."""
        u = np.array([0.7 - 0.2j, -1.1 + 0.5j])
        derivs = [(0, 1, 1), (1, 0), (1, 1, 0, 1), (0,), (0, 0, 1, 1, 0)]
        if axes is not None:
            derivs += [(2, 0, 1), (2, 2, 2, 1)]
        radius = 6
        got = _raw_values(u, B2, derivs, radius, axes)
        n = theta_module._lattice(2, radius)
        terms = np.exp(0.5 * np.einsum("ki,ij,kj->k", n, B2, n) + n @ u)
        p = n if axes is None else n @ np.asarray(axes).T
        assert set(got) == set(derivs)
        for d in derivs:
            want = complex(np.sum(np.prod(p[:, list(d)], axis=1) * terms))
            assert repr(got[d]) == repr(want)

    def test_flat_direction_raises_before_any_lattice(self, monkeypatch):
        def no_lattice(g, radius):
            raise AssertionError(f"lattice of radius {radius} built")

        monkeypatch.setattr(theta_module, "_lattice", no_lattice)
        b = np.diag([-1e-6 + 0j, -5.0 + 0j])   # lambda_min(-Re B) = 1e-6
        with pytest.raises(ThetaError, match="radius above"):
            theta(np.zeros(2, dtype=complex), b)
