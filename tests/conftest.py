"""Seeded instance generators and series-grid helpers shared by the test suite."""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import json
import math
import random
from fractions import Fraction
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest

from spectral_tau import MatrixPolynomial, characteristic_data, hyperelliptic_combination
from spectral_tau.correlators import (
    _cycle_sign_and_missing, _integer_slot, _largest, _matmul, _packed_slot, _trace_of_product,
)
from spectral_tau.divisor import pole_divisor
from spectral_tau.multipoly import (
    InexactDivisionError, MultiPoly, multipoly_exact_divide, packing_width,
)
from spectral_tau.periods import HyperellipticCurve, abel_u0, period_matrix, v_vectors
from spectral_tau.polynomials import Poly
from spectral_tau.projectors import branch_series
from spectral_tau.serialize import parse_matrix_polynomial
from spectral_tau.series import USeries
from spectral_tau.theta import log_derivatives, reduce_mod_lattice


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
        if not characteristic_data(w).fatal_diagnostics():
            return w


def adjugate_projector(w, sheet, order):
    """Pi_sheet = Phi(z, w_a) / R_w(z, w_a) through u^order: the adjugate Phi of
    w*1 - W(z) and R_w = dR/dw evaluated by Horner at the Newton branch w_a.
    An oracle for the perturbation recursion of projectors.projector_series."""
    curve = characteristic_data(w)
    wa = branch_series(curve, sheet, order)
    n, length = curve.n, order + 1

    def at_branch(polys):
        acc = USeries.from_poly(polys[0], length)
        for p in polys[1:]:
            acc = acc * wa + USeries.from_poly(p, length)
        return acc

    t_inv = at_branch([Fraction(n - i) * curve.a(i) for i in range(n)]).inverse()
    return tuple(tuple(at_branch([b[r][c] for b in curve.adjugate]) * t_inv for c in range(n))
                 for r in range(n))


def power_matrices(w, kmax):
    """[W^0, W^1, ..., W^kmax] as Poly matrices, by repeated multiplication."""
    n = w.n
    out = [[[Poly.one() if i == j else Poly.zero() for j in range(n)] for i in range(n)]]
    for _ in range(kmax):
        prev = out[-1]
        out.append([[reduce(add, (prev[i][s] * w.matrix[s][j] for s in range(n)))
                     for j in range(n)] for i in range(n)])
    return out


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


# The instances on which the derived half-period is checked against the scan:
# the docs examples, g1 and g2 seeds 100-109 and g3 seeds 100-104.
SCAN_SWEEP = (["g1-doc", "g2-doc"] + [f"g{g}-s{s}" for g in (1, 2) for s in range(100, 110)]
              + [f"g3-s{s}" for s in range(100, 105)])


def sweep_instance(name):
    """W named '<g>-doc' (a docs example) or 'g<genus>-s<seed>' (random_hyperelliptic)."""
    kind, _, tag = name.partition("-")
    if tag == "doc":
        return doc_w(f"hyperelliptic-{kind}.json")
    return random_hyperelliptic(int(tag[1:]), int(kind[1:]))[0]


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


# -- dict-convolution oracle for MultiPoly -------------------------------------
# The kernel before rows were packed: {exponent: coefficient} dicts, one dict
# update per pair of terms, and a generic graded-lex division.

def dict_mul(a: dict, b: dict, max_total_degree=None) -> dict:
    """Product of two term dicts, dropping monomials above a total degree cap."""
    right = sorted((sum(e), e, c) for e, c in b.items())
    out: dict = {}
    for e1, c1 in a.items():
        room = None if max_total_degree is None else max_total_degree - sum(e1)
        for d2, e2, c2 in right:
            if room is not None and d2 > room:
                break
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def dict_sum(terms_list) -> dict:
    """Sum of term dicts."""
    out: dict = {}
    for terms in terms_list:
        for e, c in terms.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _grlex_key(e) -> tuple:
    return (sum(e), e)


def dict_divide(numerator: dict, divisor: dict, trusted_total_degree: int) -> dict:
    """Graded-lex reduction of a term dict by any nonzero term dict.

    Raises ``InexactDivisionError`` for a remainder monomial at or below the
    trusted total degree and drops those above it, as
    ``multipoly_exact_divide`` does.
    """
    lt = max(divisor, key=_grlex_key)
    lc = divisor[lt]
    work = dict(numerator)
    quotient: dict = {}
    # Monomials are consumed in descending graded-lex order from a heap;
    # reduction only creates monomials strictly below the one consumed, and
    # each new one is pushed once.
    def heap_key(e):
        return (-sum(e), tuple(-x for x in e), e)

    heap = [heap_key(e) for e in work]
    heapq.heapify(heap)
    seen = set(work)
    while heap:
        e = heapq.heappop(heap)[-1]
        c = work.pop(e, 0)
        if c == 0:
            continue
        q = tuple(a - b for a, b in zip(e, lt))
        if any(x < 0 for x in q):
            if sum(e) <= trusted_total_degree:
                raise InexactDivisionError(
                    f"division not exact within trusted range: remainder at {e}")
            continue
        factor = Fraction(c) / lc
        quotient[q] = quotient.get(q, 0) + factor
        for de, dc in divisor.items():
            if de == lt:
                continue
            t = tuple(map(add, q, de))
            work[t] = work.get(t, 0) - factor * dc
            if t not in seen:
                seen.add(t)
                heapq.heappush(heap, heap_key(t))
    return {e: c for e, c in quotient.items() if c}


# -- full-walk oracle for the N-point kernel -----------------------------------
# The walk before equal slots were folded into orbits: every one of the (N-1)!
# cyclic classes builds its own chain, trace and missing-pair product.

def full_walk_values(slot_mats, kmax: int, c: int) -> dict:
    """{(k_1..k_N): Fraction} for slot i carrying slot_mats[i], over all classes."""
    npts = len(slot_mats)
    K = npts * (kmax + 1)
    n_missing = npts * (npts - 1) // 2 - npts
    cap_dividend = K + n_missing
    ints = [_integer_slot([[series[: K + 1] for series in row] for row in mat], c)
            for mat in slot_mats]
    n, n_pairs = len(ints[0]), npts * (npts - 1) // 2
    bound = (math.factorial(npts - 1) * n ** npts * math.prod(map(_largest, ints))
             * 2 ** n_missing * math.prod(range(cap_dividend - n_pairs + 2, cap_dividend + 2)))
    width = packing_width(bound)
    slots = [_packed_slot(m, npts, var, width) for var, m in enumerate(ints)]
    by_missing: dict = {}

    def visit(prefix: tuple, acc) -> None:
        rest = [s for s in range(npts) if s not in prefix]
        if len(rest) == 1:
            tr = _trace_of_product(acc, slots[rest[0]], K)
            sign, missing = _cycle_sign_and_missing(prefix + (rest[0],), npts)
            tr = tr if sign > 0 else -tr
            if missing in by_missing:
                tr = by_missing[missing] + tr
            by_missing[missing] = tr
            return
        for s in rest:
            visit(prefix + (s,), _matmul(acc, slots[s], K))

    visit((0,), slots[0])
    q = MultiPoly.zero(npts)
    for missing, term in by_missing.items():
        for (p, r) in missing:
            term = term.mul(MultiPoly.pair_difference(npts, p, r), max_total_degree=cap_dividend)
        q = q + term
    trusted = cap_dividend
    for p in range(npts):
        for r in range(p + 1, npts):
            q = multipoly_exact_divide(q, MultiPoly.pair_difference(npts, p, r), trusted)
            trusted -= 1
    return {
        ks: Fraction(-q.coeff(ks), c ** (npts + sum(ks)))
        for ks in itertools.product(range(kmax + 1), repeat=npts)
    }


# -- half-period scan oracle ----------------------------------------------------
# The verification before the vector of Riemann constants was derived: no
# half-period is subtracted from the Abel image, and each of the 2^(2g)
# half-periods is tried with one lattice pass.

def half_period_shifts(b) -> list:
    """All 2^(2g) shifts pi*i*m + B*n/2 for m, n in {0,1}^g, labelled (m, n)."""
    b = np.asarray(b, dtype=complex)
    g = b.shape[0]
    return [((m, n), 1j * np.pi * np.array(m) + b @ np.array(n) / 2)
            for m in itertools.product((0, 1), repeat=g)
            for n in itertools.product((0, 1), repeat=g)]


def scan_half_period(w, kmax: dict, tol: float) -> list:
    """Labels (m, n), in scan order, of the half-periods c for which every identity
    F = (-1)^N T of kmax {N: k_N} holds within tol at u = alpha sum_j A_e1(Q_j) - c."""
    curve = HyperellipticCurve.from_matrix_polynomial(w)
    ctx = period_matrix(curve)
    zero = ((0,) * curve.g,) * 2
    base = abel_u0(curve, dataclasses.replace(ctx, riemann_characteristic=zero), pole_divisor(w))
    vectors = v_vectors(curve, ctx, max(kmax.values())).vectors
    exact = {(n, ks): f for n, k in kmax.items()
             for ks, f in hyperelliptic_combination(w, n, k).items() if ks == tuple(sorted(ks))}
    winners = []
    for label, shift in half_period_shifts(ctx.b_matrix):
        u = reduce_mod_lattice(base - shift, ctx.b_matrix)
        logs = log_derivatives(u, ctx.b_matrix, [ks for _, ks in exact], vectors)[1]
        if logs and all(abs((-1) ** n * logs[ks] - float(f)) < tol * max(1.0, abs(float(f)))
                        and abs(logs[ks].imag) < tol for (n, ks), f in exact.items()):
            winners.append(label)
    return winners
