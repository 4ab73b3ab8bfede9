"""Seeded instance generators and series-grid helpers shared by the test suite."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import reduce
from operator import add
from pathlib import Path

import pytest

from spectral_tau import MatrixPolynomial, characteristic_data
from spectral_tau.polynomials import Poly
from spectral_tau.serialize import parse_matrix_polynomial
from spectral_tau.series import USeries


def small_fraction(rng, num=4, den=3):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_matrix_polynomial(seed, n, m, traceless=False, distinct_range=8):
    """Random W with diagonal distinct leading matrix; retries until valid."""
    rng = random.Random(seed)
    while True:
        lead = rng.sample(range(-distinct_range, distinct_range + 1), n)
        mats = [[[Fraction(lead[i]) if i == j else Fraction(0) for j in range(n)]
                 for i in range(n)]]
        for _ in range(m):
            mats.append([[small_fraction(rng) for _ in range(n)] for _ in range(n)])
        if traceless:
            for k in range(0, m + 1):
                s = sum(mats[k][i][i] for i in range(n))
                mats[k][n - 1][n - 1] -= s
            lead_entries = [mats[0][i][i] for i in range(n)]
            if len(set(lead_entries)) != n:
                continue
        w = MatrixPolynomial.from_power_matrices(n, m, mats)
        curve = characteristic_data(w)
        if all(d.passed or not d.fatal for d in curve.diagnostics):
            if any(not d.passed for d in curve.diagnostics if d.name == "leading_entries_distinct"):
                continue
            return w


def random_hyperelliptic(seed, g, require_smooth=True):
    """Random traceless 2x2 W = [[a,b],[c,-a]] with monic a of degree g+1."""
    rng = random.Random(seed)
    while True:
        a = Poly([small_fraction(rng, 3, 2) for _ in range(g + 1)] + [Fraction(1)])
        b = Poly([small_fraction(rng, 3, 2) for _ in range(g + 1)])
        c = Poly([small_fraction(rng, 3, 2) for _ in range(g + 1)])
        w = MatrixPolynomial.from_entries([[a, b], [c, -a]])
        curve = characteristic_data(w)
        if require_smooth and not all(d.passed for d in curve.diagnostics):
            continue
        return w, a, b, c


def doc_w(name):
    """The matrix polynomial of an input file in docs/examples."""
    path = Path(__file__).resolve().parent.parent / "docs" / "examples" / name
    return parse_matrix_polynomial(json.loads(path.read_text()))


def hyper_coeff(p: Poly, g: int, k: int) -> Fraction:
    """Coefficient in the top-down indexing: x_k multiplies z^(g+1-k)."""
    return p.coeff(g + 1 - k)


@pytest.fixture
def worked_instance():
    """The 2x2 genus-1 instance used across golden tests: a=z^2, b=z+1, c=2z."""
    a = Poly([0, 0, 1])
    b = Poly([1, 1])
    c = Poly([0, 2])
    return MatrixPolynomial.from_entries([[a, b], [c, -a]]), a, b, c


# -- n x n grids of USeries (projectors, W(z)) ---------------------------------

def grid_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def grid_mul(a, b):
    n = len(a)
    return tuple(
        tuple(reduce(add, (a[i][k] * b[k][j] for k in range(n))) for j in range(n))
        for i in range(n)
    )


def grid_scale(a, s):
    """Every entry times the series s."""
    return tuple(tuple(x * s for x in row) for row in a)


def grid_trace(a):
    return reduce(add, (a[i][i] for i in range(len(a))))


def coeff_matrix(a, k):
    """The u^k coefficient matrix of a grid, read through the checked accessor."""
    return tuple(tuple(x[k] for x in row) for row in a)


def poly_grid(mat, length):
    """A matrix of z-polynomials as a grid of series of the given length."""
    return tuple(tuple(USeries.from_poly(p, length) for p in row) for row in mat)
