"""Seeded instance generators, series-grid helpers and the oracles shared by the
test suite: code the package itself no longer runs, kept here to check it."""

from __future__ import annotations

import dataclasses
import heapq
import importlib.util
import itertools
import json
import math
import random
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest

from spectral_tau import MatrixPolynomial, characteristic_data, hyperelliptic_combination
from spectral_tau.correlators import (
    _cycle_sign_and_missing, _integer_slots, _largest, _packed_slot, _trace_of_product,
)
from spectral_tau.divisor import (
    DivisorPoint, _polish_root, _row_sum_value, cofactor_row_sums, d_polynomial, pole_divisor,
)
from spectral_tau.jets import JetError, validate_jet
from spectral_tau.multipoly import (
    InexactDivisionError, MultiPoly, multipoly_exact_divide, packing_width,
)
from spectral_tau.periods import (
    HyperellipticCurve, abel_u0, jacobian_point, period_matrix, v_vectors,
)
from spectral_tau.polynomials import Poly
from spectral_tau.projectors import BranchError, _require_valid
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
        return MatrixPolynomial.from_power_matrices(n, m, mats)


# -- series arithmetic beyond the package's window type ---------------------------
# USeries adds, subtracts and takes 1/sqrt; the oracles below also multiply,
# invert and embed polynomials, under the same window rule: a product is
# trusted from a.val + b.val for the shorter of the two lengths, and an inverse
# keeps the length.  A product convolves integer numerators over the lcm of
# each operand's denominators and makes one Fraction per coefficient; a
# convolution of Fractions makes the projector oracles several times slower.
# They read coefficients, not stored values, so a scaled series enters as the
# rationals it stands for, and their results are of scale 1.

def series_from_poly(p, length):
    """p(1/u) with ``length`` coefficients from u^(-deg p) on."""
    d = max(p.degree(), 0)
    return USeries(-d, [p.coeff(d - k) for k in range(length)])


def _numerators(coeffs):
    """Integers c_k and d with coeffs[k] == c_k / d, d the lcm of the denominators."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def series_mul(a, b):
    """a*b for series a and b, or a times the scalar b."""
    if isinstance(b, (int, Fraction)):
        return USeries(a.val, [b * c for c in a.coefficients(a.val, a.end)])
    n = min(len(a.coeffs), len(b.coeffs))
    (x, dx), (y, dy) = (_numerators(s.coefficients(s.val, s.val + n)) for s in (a, b))
    return USeries(a.val + b.val, [Fraction(sum(x[i] * y[k - i] for i in range(k + 1)), dx * dy)
                                   for k in range(n)])


def series_inverse(s):
    """1/s, of valuation -val and the same length as s without leading zeros."""
    s = s._normalized()
    a = s.coefficients(s.val, s.end)
    inv0 = 1 / Fraction(a[0])
    out = [inv0]
    for k in range(1, len(a)):
        out.append(-sum((a[j] * out[k - j] for j in range(1, k + 1)), Fraction(0)) * inv0)
    return USeries(-s.val, out)


# -- Newton branch oracle ------------------------------------------------------
# The branch w_a(z) at infinity, found before the projectors came from the
# perturbation recursion; the projector checks compare against it.

def _horner(terms, w):
    """terms[0] w^d + terms[1] w^(d-1) + ... + terms[d]."""
    acc = terms[0]
    for t in terms[1:]:
        acc = series_mul(acc, w) + t
    return acc


def _char_terms(curve, length):
    """a_0 = 1, a_1(z), ..., a_n(z) as series of the given length."""
    return [series_from_poly(curve.a(i), length) for i in range(curve.n + 1)]


def branch_series(curve, sheet, order):
    """Branch w_sheet(z) as a series of valuation -m trusted through z^(m - order).

    Solves R(z, w) = 0 for w = b0_sheet z^m + ... by Newton steps at lengths
    2, 4, ... up to order + 1 from the exact leading term: R_w at the branch
    starts with prod_{b!=a}(b_a - b_b) u^(-m(n-1)), invertible for distinct
    leading entries, so each step doubles the correct coefficients.  The
    result is certified by R(z, w) = 0 on the whole window.
    """
    _require_valid(curve, sheet)
    n = curve.n
    w = USeries(-curve.m, [curve.sheet_labels[sheet - 1]])
    while len(w.coeffs) < order + 1:
        length = min(2 * len(w.coeffs), order + 1)
        terms = _char_terms(curve, length)
        w = USeries(w.val, w.coeffs + (0,) * (length - len(w.coeffs)))
        r_w = _horner([series_mul(t, n - i) for i, t in enumerate(terms[:n])], w)
        w = w - series_mul(_horner(terms, w), series_inverse(r_w))
    if not branch_residual(curve, w).is_zero():
        raise BranchError("Newton iteration for the branch series failed to converge")
    return w


def branch_residual(curve, branch):
    """R(z, branch) as a series; zero within its window for a valid branch."""
    return _horner(_char_terms(curve, len(branch.coeffs)), branch)


def adjugate_projector(w, sheet, order):
    """Pi_sheet = Phi(z, w_a) / R_w(z, w_a) through u^order: the adjugate Phi of
    w*1 - W(z) and R_w = dR/dw evaluated by Horner at the Newton branch w_a.
    An oracle for the perturbation recursion of projectors.projector_series."""
    curve = characteristic_data(w)
    wa = branch_series(curve, sheet, order)
    n, length = curve.n, order + 1

    def at_branch(polys):
        acc = series_from_poly(polys[0], length)
        for p in polys[1:]:
            acc = series_mul(acc, wa) + series_from_poly(p, length)
        return acc

    t_inv = series_inverse(at_branch([Fraction(n - i) * curve.a(i) for i in range(n)]))
    return tuple(tuple(series_mul(at_branch([b[r][c] for b in curve.adjugate]), t_inv)
                       for c in range(n))
                 for r in range(n))


def order_defects(lb, q, delta: int, k: int):
    """Order-k defects of [B, Pi] = 0 and diag(Pi^2) = diag(Pi), in integers.

    ``lb`` holds the integer matrices L B_l and ``q`` the numerators Q_0..Q_k.
    Returns the matrix sum_l Delta^l [L B_l, Q_(k-l)] (L Delta^k times the
    defect of the first) and the vector diag(sum_j Q_j Q_(k-j)) - diag(Q_k)
    (Delta^k times that of the second); both vanish on a projector series.
    """
    n = len(q[0])
    rn = range(n)
    comm = [[0] * n for _ in rn]
    for l in range(min(k, len(lb) - 1) + 1):
        x, y, s = lb[l], q[k - l], delta ** l
        for i in rn:
            xi, yi, ci = x[i], y[i], comm[i]
            for j in rn:
                ci[j] += s * sum(xi[t] * y[t][j] - yi[t] * x[t][j] for t in rn)
    idem = [sum(q[j][i][t] * q[k - j][t][i] for j in range(k + 1) for t in rn) - q[k][i][i]
            for i in rn]
    return comm, idem


def padded_projector_numerators(lb, delta: int, a: int, order: int) -> list:
    """Q_0..Q_order solved from the full defects of order_defects taken with
    Q_k = 0: the projectors' solver before it skipped the terms that hold Q_k,
    an oracle for projectors._projector_numerators."""
    n = len(lb[0])
    gap = [[lb[0][i][i] - lb[0][j][j] for j in range(n)] for i in range(n)]
    q = [[[int(i == j == a) for j in range(n)] for i in range(n)]]
    zero = [[0] * n for _ in range(n)]
    for k in range(1, order + 1):
        comm, idem = order_defects(lb, q + [zero], delta, k)
        q.append([[(-idem[i] if i == a else idem[i]) if i == j else -comm[i][j] // gap[i][j]
                   for j in range(n)] for i in range(n)])
    return q


def defects_first_failure(lb, q, delta):
    """The least k <= order at which the order-k defects of order_defects do
    not vanish on Q_0..Q_order, or None: the certificate order by order, an
    oracle for the packed one of projectors._first_defect."""
    for k in range(len(q)):
        comm, idem = order_defects(lb, q, delta, k)
        if any(map(any, comm)) or any(idem):
            return k
    return None


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


def count_builds(monkeypatch, cls, name, built):
    """Replace the cached property ``name`` of ``cls`` by one that appends ``name``
    to ``built`` each time it is built."""
    build = cls.__dict__[name].func
    spy = cached_property(lambda self: built.append(name) or build(self))
    spy.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, spy)


def doc_w(name):
    """The matrix polynomial of an input file in docs/examples."""
    path = Path(__file__).resolve().parent.parent / "docs" / "examples" / name
    return parse_matrix_polynomial(json.loads(path.read_text()))


@lru_cache(maxsize=None)
def stress_families():
    """scripts/stress_families.py as a module: the seeded stress families A and B."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "stress_families.py"
    spec = importlib.util.spec_from_file_location("stress_families", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lenient_divisor(w):
    """The divisor of a 2x2 W with no residual test: z the roots of D, polished as
    pole_divisor polishes them, and w = -q_12(z)."""
    d, q = d_polynomial(w), cofactor_row_sums(w)
    zs = sorted((_polish_root(d, d.derivative(), complex(z))
                 for z in np.roots(d.float_coeffs_descending())), key=lambda t: (t.real, t.imag))
    return [DivisorPoint(z=z, w=complex(-q[0][1](z)), residual_r=0.0, residual_eig=0.0)
            for z in zs]


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
        tuple(reduce(add, (series_mul(a[i][k], b[k][j]) for k in range(n))) for j in range(n))
        for i in range(n)
    )


def grid_scale(a, s):
    """Every entry times the series (or scalar) s."""
    return tuple(tuple(series_mul(x, s) for x in row) for row in a)


def grid_trace(a):
    return reduce(add, (a[i][i] for i in range(len(a))))


def coeff_matrix(a, k):
    """The u^k coefficient matrix of a grid, read through the checked accessor."""
    return tuple(tuple(x[k] for x in row) for row in a)


def poly_grid(mat, length):
    """A matrix of z-polynomials as a grid of series of the given length."""
    return tuple(tuple(series_from_poly(p, length) for p in row) for row in mat)


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


# -- pair-table oracle for N = 2 --------------------------------------------------
# The two-point kernel before every table ran through the cyclic walk: its own
# bound, one trace, the constant subtracted by hand and two divisions.

def integer_slots(w, mats) -> tuple:
    """The engine's scale c and integer slots for slot matrices of W (numerators over Delta^k)."""
    return _integer_slots(characteristic_data(w).integer_form[2], mats)


def pair_table_values(ints1, ints2, subtract: int, kmax: int, c: int) -> dict:
    """(tr[M1(u1) M2(u2)] - subtract) / (u2 - u1)^2 in the box k1, k2 <= kmax.

    Runs in t = u / c on the integer slots (``integer_slots``); the
    quotient's t-coefficients q[k] give F = q[k] / c^(2 + |k|).
    """
    K = len(ints1[0][0]) - 1
    n = len(ints1)
    # the trace sums n^2 single products, the two divisions sum anti-diagonals
    # of at most K + 1 and K coefficients
    bound = (n * n * _largest(ints1) * _largest(ints2) + subtract) * (K + 1) * K
    width = packing_width(bound)
    num = _trace_of_product(_packed_slot(ints1, 2, 0, width),
                            _packed_slot(ints2, 2, 1, width), K)
    if subtract:
        num = num - MultiPoly.constant(2, subtract)
    d = MultiPoly.pair_difference(2, 1, 0)
    q = multipoly_exact_divide(num, d, K)
    q = multipoly_exact_divide(q, d, K - 1)
    return {
        (k1, k2): Fraction(q.coeff((k1, k2)), c ** (2 + k1 + k2))
        for k1 in range(kmax + 1)
        for k2 in range(kmax + 1)
    }


# -- full-walk oracle for the N-point kernel -----------------------------------
# The walk before equal slots were folded into orbits: every one of the (N-1)!
# cyclic classes builds its own chain, trace and missing-pair product.

def matmul_reference(a, b, cap: int):
    """The chain step a b through total degree ``cap`` on term dicts (``dict_mul``),
    each entry packed back into a MultiPoly: the oracle's own step."""
    n = len(a)
    nvars = a[0][0].nvars
    return [[MultiPoly(nvars, dict_sum([dict_mul(a[i][k].terms, b[k][j].terms, cap)
                                        for k in range(n)]))
             for j in range(n)] for i in range(n)]


def full_walk_values(slot_ints, kmax: int, c: int) -> dict:
    """{(k_1..k_N): Fraction} for slot i carrying integer slot slot_ints[i], over all classes."""
    npts = len(slot_ints)
    K = npts * (kmax + 1)
    n_missing = npts * (npts - 1) // 2 - npts
    cap_dividend = K + n_missing
    ints = [[[x[: K + 1] for x in row] for row in mat] for mat in slot_ints]
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
            visit(prefix + (s,), matmul_reference(acc, slots[s], K))

    visit((0,), slots[0])
    products = []
    for missing, term in by_missing.items():
        terms = term.terms
        for (p, r) in missing:
            terms = dict_mul(terms, MultiPoly.pair_difference(npts, p, r).terms, cap_dividend)
        products.append(terms)
    q = MultiPoly(npts, dict_sum(products))
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
    base = abel_u0(curve, dataclasses.replace(ctx, riemann_characteristic=zero),
                   pole_divisor(w), d_polynomial(w))
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


# -- log-derivative oracle -------------------------------------------------------
# d^N log theta as the package assembled it before the memoized recursion: the
# sum over all Bell(N) set partitions of the index positions.

@lru_cache(maxsize=None)
def set_partitions(n: int):
    """All partitions of range(n) as tuples of blocks (tuples of indices)."""
    if n == 0:
        return ((),)
    out = []
    for sub in set_partitions(n - 1):
        last = n - 1
        out.append(sub + ((last,),))
        for i, block in enumerate(sub):
            out.append(sub[:i] + (block + (last,),) + sub[i + 1:])
    return tuple(out)


def set_partition_logs(values: dict, ks: tuple) -> complex:
    """d^N log theta along ks from the sums ``values`` keyed by the sorted sub-tuples of ks:
    sum over partitions P of (-1)^(|P|-1) (|P|-1)! prod over blocks of theta_block / theta."""
    t0, total = values[()], 0j
    for part in set_partitions(len(ks)):
        term = (-1) ** (len(part) - 1) * math.factorial(len(part) - 1)
        for block in part:
            term *= values[tuple(sorted(ks[i] for i in block))] / t0
        total += term
    return complex(total)


def doc_theta_point(name: str, kmax: int):
    """(u0, B, V^(0)..V^(kmax)) of a docs example, as verify_main_theorem builds them."""
    w = doc_w(name)
    curve = HyperellipticCurve.from_matrix_polynomial(w)
    ctx = period_matrix(curve)
    u0 = jacobian_point(curve, ctx, pole_divisor(w), d_polynomial(w))
    return u0, ctx.b_matrix, v_vectors(curve, ctx, kmax).vectors


# -- oracles the package no longer carries ---------------------------------------

def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Euclidean division over Q: (q, r) with a = q b + r and deg r < deg b."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem, d, lead = list(a.coeffs), b.degree(), b.leading()
    q = [Fraction(0)] * max(0, len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        if rem[i]:
            factor = q[i - d] = rem[i] / lead
            for j, c in enumerate(b.coeffs):
                rem[i - d + j] -= factor * c
    return Poly(q), Poly(rem)


def poly_gcd_q(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid over Q[z], the gcd before the integer remainder sequence."""
    while not b.is_zero():
        _, r = poly_divmod(a, b)
        a, b = b, r
    return a.monic() if not a.is_zero() else a


def faddeev_leverrier_q(w: MatrixPolynomial) -> tuple:
    """((a_1..a_n), (N_0..N_{n-1})) by the Faddeev-LeVerrier pass in Q[z]:
    N_0 = 1, a_k = -tr(W N_{k-1})/k, N_k = W N_{k-1} + a_k 1.  An oracle for
    the pass over Z[z] of curve._faddeev_leverrier."""
    n, mat = w.n, w.matrix
    zero = Poly.zero()
    coeffs = []
    adjugate = [tuple(tuple(Poly.one() if i == j else zero for j in range(n)) for i in range(n))]
    for k in range(1, n + 1):
        nk = adjugate[-1]
        wn = [[sum((mat[i][s] * nk[s][j] for s in range(n)), zero) for j in range(n)]
              for i in range(n)]
        ak = sum((wn[i][i] for i in range(n)), zero) * Fraction(-1, k)
        coeffs.append(ak)
        if k < n:
            adjugate.append(tuple(tuple(wn[i][j] + ak if i == j else wn[i][j] for j in range(n))
                                  for i in range(n)))
    return tuple(coeffs), tuple(adjugate)


def poly_matrix_det_q(rows) -> Poly:
    """Determinant of a square Poly matrix by Bareiss elimination in Q[z], each
    division by the previous pivot exact: an oracle for the Z[z] elimination of
    polynomials.poly_matrix_det."""
    n = len(rows)
    m = [list(row) for row in rows]
    if n == 0:
        return Poly.one()
    sign, prev = 1, Poly.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if pivot_row is None:
                return Poly.zero()
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                q, r = poly_divmod(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
                if not r.is_zero():
                    raise ValueError("polynomial division is not exact")
                m[i][j] = q
            m[i][k] = Poly.zero()
        prev = m[k][k]
    return m[n - 1][n - 1] if sign == 1 else -m[n - 1][n - 1]


def total_degree(p: MultiPoly) -> int:
    """Largest total degree of a term of p; -1 for zero."""
    return max(map(sum, p.terms), default=-1)


def matrix_trace(w: MatrixPolynomial) -> Poly:
    return reduce(add, (w.matrix[i][i] for i in range(w.n)))


def conjugate_diagonal(w: MatrixPolynomial, d) -> MatrixPolynomial:
    """D^-1 W D for diagonal D = diag(d) with nonzero entries."""
    d = [Fraction(x) for x in d]
    assert len(d) == w.n and all(d)
    return MatrixPolynomial.from_entries(
        [[w.matrix[i][j] * (d[j] / d[i]) for j in range(w.n)] for i in range(w.n)], m=w.m)


def jet_is_valid(jet) -> bool:
    return all(r.residue == 0 for r in validate_jet(jet))


def tau_second_derivative(jet, a: int, b: int, level: int) -> Fraction:
    """d^2 log tau / dt^a_0 dt^b_level at the base point, level in {0, 1, 2}, in
    closed form from the jet: the bridge the pair tables are checked against."""
    n = jet.n
    if level not in (0, 1, 2):
        raise JetError("level must be 0, 1 or 2")
    if level == 0:
        if a != b:
            return -jet.value(a, b) * jet.value(b, a)
        return sum((jet.value(a, s) * jet.value(s, a) for s in range(1, n + 1)), Fraction(0))
    if level == 1:
        if a != b:
            return (
                jet.deriv(a, b, b) * jet.value(b, a)
                - jet.value(a, b) * jet.deriv(b, a, b)
            )
        return sum(
            (
                jet.value(a, s) * jet.deriv(s, a, s) - jet.deriv(a, s, s) * jet.value(s, a)
                for s in range(1, n + 1) if s != a
            ),
            Fraction(0),
        )
    if a != b:
        sum_bb = sum((jet.value(b, s) * jet.value(s, b) for s in range(1, n + 1)), Fraction(0))
        return (
            -jet.value(a, b) * jet.deriv2(b, a, b, b)
            - jet.value(b, a) * jet.deriv2(a, b, b, b)
            + jet.deriv(a, b, b) * jet.deriv(b, a, b)
            - 3 * jet.value(a, b) * jet.value(b, a) * sum_bb
        )
    return -sum(
        (tau_second_derivative(jet, s, a, 2) for s in range(1, n + 1) if s != a),
        Fraction(0),
    )


@dataclasses.dataclass(frozen=True)
class DivisorComparisonPoint:
    z: complex
    w: complex
    on_curve_residual: float
    eigenvector_residual: float
    matches_general: bool


@dataclasses.dataclass(frozen=True)
class HyperellipticDivisorReport:
    general: tuple
    specialized: tuple  # DivisorComparisonPoint for the printed closed-form roots
    conventions_agree: bool
    note: str


def hyperelliptic_divisor(a: Poly, b: Poly, c: Poly, tol: float = 1e-9):
    """General divisor of [[a,b],[c,-a]] plus a report on the printed closed form.

    The eigenvector-pole conditions for this 2x2 shape read 2a = b - c with
    w = -(b+c)/2; the printed specialization a = (b+c)/2, w = (c-b)/2 belongs
    to the opposite sign convention for c and its points generically are not
    on the curve w^2 = a^2 + bc.  Both root sets are reported with residuals
    so the discrepancy stays visible instead of being silently patched.
    """
    w_mat = MatrixPolynomial.from_entries([[a, b], [c, -a]])
    curve = characteristic_data(w_mat)
    general = pole_divisor(w_mat, tol)
    q = cofactor_row_sums(w_mat)
    # printed closed form: roots of a - (b+c)/2, w = (c-b)/2
    special_poly = a - (b + c) * Fraction(1, 2)
    specialized = []
    agree = True
    if special_poly.degree() >= 1:
        for z in np.roots(special_poly.float_coeffs_descending()):
            z = _polish_root(special_poly, special_poly.derivative(), complex(z))
            w_val = complex((c - b)(z)) / 2
            res_curve = abs(curve.r_at(z, w_val))
            res_eig = max(abs(_row_sum_value(q[i], z, w_val, 2)) for i in range(2))
            match = any(
                abs(p.z - z) < max(tol, 1e-7) and abs(p.w - w_val) < max(tol, 1e-7)
                for p in general
            )
            agree = agree and match and res_curve < max(tol, 1e-7)
            specialized.append(
                DivisorComparisonPoint(
                    z=complex(z), w=complex(w_val),
                    on_curve_residual=float(res_curve),
                    eigenvector_residual=float(res_eig),
                    matches_general=bool(match),
                )
            )
    note = (
        "printed specialization matches the general algorithm"
        if agree
        else "printed specialization disagrees with the eigenvector-pole condition; "
        "it corresponds to flipping the sign of c (the general points satisfy "
        "2a = b - c, w = -(b+c)/2)"
    )
    return HyperellipticDivisorReport(
        general=tuple(general), specialized=tuple(specialized),
        conventions_agree=bool(agree), note=note,
    )
