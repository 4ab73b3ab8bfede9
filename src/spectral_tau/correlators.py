"""Exact rational correlators of the spectral-curve tau-function.

The two-point table comes from expanding

    (tr[Pi_a(z1) Pi_b(z2)] - delta_ab) / (z1 - z2)^2

and the N-point tables (N >= 3) from the cyclic permutation sum

    -(1/N) sum_s tr[Pi_{a_s1}(z_s1) ... Pi_{a_sN}(z_sN)] / prod_cyc (z_si - z_sj),

both read off in the variables u_i = 1/z_i with the coefficient of
prod u_i^(k_i+2) giving F^{a1..aN}_{k1..kN}.

The expansion runs in Python integers.  Substituting u = c*t makes every
projector coefficient a_k c^k an integer; c is derived from the computed
series (per prime of the denominators, the least exponent that clears them
all; a cofactor left after trial division enters whole, as in the lcm of the
denominators), by the engine once per sheet and projector order, and a table
uses the lcm of its sheets' scales.  The polynomials in t are MultiPoly's
packed rows: the t_0-coefficients of a row share one Python int, at a digit
width each table derives once, next to c, from a certified bound on every
coefficient it computes (the slots' largest coefficient, n products per chain
step, the (N-1)! classes, a factor 2 per missing pair and an anti-diagonal
length per division).

Equal slots are walked once per orbit.  F is symmetric under a simultaneous
permutation of its (sheet, k) pairs, so the slots are first put in a
canonical order: a slot of a least-repeated sheet in slot 0, then the others
in blocks of equal sheets; the k's are mapped back at the end.  Let G be the
permutations of slots 1..N-1 that keep every block.  Relabeling the
variables by s in G carries a class's chain to the chain of its image class
and multiplies its numerator over the full Vandermonde (signed trace times
missing pairs) by sgn s.  Every class is written from slot 0, which s fixes,
so only the identity fixes a class and each G-orbit has |G| classes.  The
walk visits one class per orbit, each block's slots in increasing order, and
antisymmetrizes the sum of their numerators once: sum_s sgn(s) s is a
product of coset factors (1 - sum_{i<m} (b_i b_m)) over the slots b_1 < b_2
< ... of each block (the alternant, Macdonald, Symmetric Functions and Hall
Polynomials, ch. I.3), 1 + 2 + ... + (|block| - 1) relabelings in place of
|G|.  A relabeling fixes u_0, so it moves row keys only: the packed u_0
digits stay, and so does the width, whose bound already counts all (N-1)!
classes.  Each coset factor subtracts its relabeled rows into one dict
(``multipoly_coset_factor``).  In the hyperelliptic combination every slot
is Pi_1 - Pi_2, so G is the whole S_(N-1) and the walk is one chain.  With
distinct sheets G is trivial and every class is walked.

The walk goes depth-first over prefixes, so each partial chain product is
formed once; slot 0 expands in t_0 and every later slot in a variable its
prefix lacks, so a chain step is one int product per row and slot
coefficient.  The chain step and the closing trace stay n ``MultiPoly.mul``
calls per entry merged by ``multipoly_sum``: ``MultiPoly.mul`` is the seam
through which ``perfbench/tracer.py`` times and counts the kernel until the
package records its own spans, and a chain step fused into one int per
entry and row key won less than the benchmark's run-to-run spread.  Signed
traces are grouped by the Vandermonde pairs their cycle misses, and a pair
shared by several groups multiplies their sum once.  Each division by
(t_i - t_j) is a divided difference: running sums along the anti-diagonals
of the (i, j) exponent plane, row by row.  The t-quotient's coefficient
q[k] is read back as F = -q[k] / c^(N + |k|) (two points:
+q[k] / c^(2 + |k|)), the only Fraction on the path.

Certificates: every scaled coefficient must be an integer (a wrong c raises
ArithmeticError rather than emitting a value), and every division must leave
a zero remainder up to its trusted total degree (InexactDivisionError
otherwise).  With per-variable truncation K the quotient layers are
certified through total degree K - N, so K = N*(kmax+1) certifies the full
requested box of indices.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .curve import MatrixPolynomial, SpectralCurveData, characteristic_data
from .multipoly import (
    MultiPoly, multipoly_coset_factor, multipoly_exact_divide, multipoly_sum, packing_width,
)
from .projectors import projector_series

IndexPair = tuple[int, int]  # (sheet, k)


@dataclass(frozen=True)
class CorrelatorTable:
    """Map from ((a1,k1),...,(aN,kN)) to exact rational values.

    Entries with every k_i <= trusted_order are exact; nothing else is stored.
    """

    n_points: int
    entries: Mapping[tuple[IndexPair, ...], Fraction]
    trusted_order: int

    def value(self, pairs: Sequence[IndexPair]) -> Fraction:
        key = tuple((int(a), int(k)) for a, k in pairs)
        if key not in self.entries:
            raise KeyError(f"no entry for {key}")
        return self.entries[key]


class CorrelatorEngine:
    """Caches curve data and projector series for one matrix polynomial."""

    def __init__(self, w: MatrixPolynomial, curve: SpectralCurveData | None = None):
        self.w = w
        self.curve = characteristic_data(w) if curve is None else curve
        fatal = self.curve.fatal_diagnostics()
        if fatal:
            raise ValueError(f"invalid input: {fatal[0].detail or fatal[0].name}")
        self._projectors: dict[int, tuple] = {}
        self._proj_order = -1
        self._scales: dict = {}

    def projector(self, sheet: int, order: int) -> tuple:
        """Pi_sheet as an n x n grid of series trusted through at least u^order."""
        if order > self._proj_order:
            self._proj_order = order
            self._projectors = {
                a: projector_series(self.w, a, order, self.curve)
                for a in range(1, self.w.n + 1)
            }
            self._scales = {}
        return self._projectors[sheet]

    def scale(self, *sheets: int) -> int:
        """A series scale c (see ``_series_scale``) for the projectors of ``sheets``.

        Sheet 0 stands for the difference Pi_1 - Pi_2.  Each sheet's scale is
        derived once per projector order, on the whole cached window; the
        least scale of several sheets is the lcm of theirs.
        """
        for a in sheets:
            if a not in self._scales:
                order = self._proj_order
                mat = self.difference_matrix(order) if a == 0 else self.slot_matrix(a, order)
                self._scales[a] = _series_scale([mat])
        return math.lcm(*(self._scales[a] for a in sheets))

    def slot_matrix(self, sheet: int, order: int):
        """Pi_sheet as an n x n grid of coefficient lists of u^0..u^order.

        Each list is exactly order + 1 long, also when the cached projectors
        were computed at a higher order; the coefficients are read through
        the series' checked accessor, so a read past a window raises
        TruncationError instead of returning a zero.
        """
        return [[s.coefficients(0, order + 1) for s in row]
                for row in self.projector(sheet, order)]

    def difference_matrix(self, order: int):
        """Pi_1 - Pi_2 for n = 2 (the hyperelliptic difference convention)."""
        if self.w.n != 2:
            raise ValueError("difference matrix is a 2-sheet construction")
        p1 = self.projector(1, order)
        p2 = self.projector(2, order)
        return [[(s1 - s2).coefficients(0, order + 1) for s1, s2 in zip(r1, r2)]
                for r1, r2 in zip(p1, p2)]


# ---------------------------------------------------------------------------
# core expansions
# ---------------------------------------------------------------------------

_TRIAL_DIVISORS_BELOW = 1000


def _valuation(m: int, p: int) -> int:
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def _series_scale(mats) -> int:
    """A c with a_k * c**k integral for every coefficient a_k, k >= 1.

    Each prime p of the denominators' lcm found by trial division gets the
    least exponent that works, max over k of ceil(v_p(den a_k) / k), so c is
    the least such integer whenever trial division factors the lcm.  A
    cofactor without small primes enters c whole: every denominator's share
    of it divides it, so it always suffices (the lcm fallback).
    """
    dens = {
        (k, a.denominator)
        for mat in mats for row in mat for series in row
        for k, a in enumerate(series) if k and a.denominator > 1
    }
    rest = math.lcm(*(d for _, d in dens))
    c, p = 1, 2
    while rest > 1 and p * p <= rest and p < _TRIAL_DIVISORS_BELOW:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            c *= p ** max(-(-_valuation(d, p) // k) for k, d in dens)
        p += 1
    return c * rest


def _integer_slot(mat, c: int):
    """Matrix of the coefficient lists a_k c^k of sum_k a_k (c t)^k.

    Raises ArithmeticError when some a_k c^k is not an integer, so a wrong
    scale can never leak a Fraction into the integer kernel.
    """
    out = []
    for row in mat:
        out_row = []
        for series in row:
            coeffs = []
            for k, a in enumerate(series):
                scale = c ** k
                if scale % a.denominator:
                    raise ArithmeticError(
                        f"u = {c}*t leaves the u^{k} coefficient {a} non-integral")
                coeffs.append(a.numerator * (scale // a.denominator))
            out_row.append(coeffs)
        out.append(out_row)
    return out


def _largest(ints) -> int:
    return max(abs(a) for row in ints for coeffs in row for a in coeffs)


def _packed_slot(ints, nvars: int, var: int, width: int):
    """An integer slot matrix as polynomials in t_var, packed at least ``width`` bits wide."""
    return [[MultiPoly.from_univariate(nvars, var, coeffs, width) for coeffs in row]
            for row in ints]


def _matmul(a, b, cap: int):
    n = len(a)
    nvars = a[0][0].nvars
    return [
        [
            multipoly_sum(nvars, (a[i][k].mul(b[k][j], max_total_degree=cap)
                                  for k in range(n) if a[i][k].rows and b[k][j].rows))
            for j in range(n)
        ]
        for i in range(n)
    ]


def _trace_of_product(a, b, cap: int) -> MultiPoly:
    n = len(a)
    return multipoly_sum(a[0][0].nvars, (a[i][k].mul(b[k][i], max_total_degree=cap)
                                         for i in range(n) for k in range(n)
                                         if a[i][k].rows and b[k][i].rows))


def _pair_table_values(mat1, mat2, subtract: int, kmax: int, c: int) -> dict:
    """(tr[M1(u1) M2(u2)] - subtract) / (u2 - u1)^2 in the box k1, k2 <= kmax.

    Runs in t = u / c; the quotient's t-coefficients q[k] give
    F = q[k] / c^(2 + |k|).
    """
    K = len(mat1[0][0]) - 1
    n = len(mat1)
    ints1, ints2 = _integer_slot(mat1, c), _integer_slot(mat2, c)
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


def _cycle_sign_and_missing(perm: Sequence[int], npts: int):
    """Sign and set of complement pairs for the cyclic denominator of one permutation.

    Each step x -> y contributes (u_y - u_x); with the convention that the
    stored pair difference is u_min - u_max the step carries sign +1 when
    y < x.  Pairs of the full Vandermonde not visited by the cycle make up the
    complement multiplier.
    """
    sign = 1
    in_cycle = set()
    for idx in range(npts):
        x, y = perm[idx], perm[(idx + 1) % npts]
        if y > x:
            sign = -sign
        in_cycle.add(frozenset((x, y)))
    missing = frozenset(
        (p, q)
        for p in range(npts)
        for q in range(p + 1, npts)
        if frozenset((p, q)) not in in_cycle
    )
    return sign, missing


def _times_missing(groups: dict, npts: int, cap: int) -> MultiPoly:
    """The sum of term * prod(u_p - u_r) over {missing pairs (p, r): term}.

    Pairs shared by several groups are factored out, Horner-like: the pair
    in the most groups multiplies the sum of those groups' remaining
    products once.  ``groups`` is emptied.
    """
    q = MultiPoly.zero(npts)
    while groups:
        counts = Counter(pair for missing in groups for pair in missing)
        if not counts:
            return q + groups.popitem()[1]
        pair = max(counts, key=counts.__getitem__)
        shared = {missing - {pair}: groups.pop(missing)
                  for missing in list(groups) if pair in missing}
        term = _times_missing(shared, npts, cap)
        q = q + term.mul(MultiPoly.pair_difference(npts, *pair), max_total_degree=cap)
    return q


def _npoint_values(mats: Mapping, sheets: Sequence, kmax: int, c: int) -> dict:
    """F-values for slot i carrying ``mats[sheets[i]]``, scaled by c.

    Returns {(k_1..k_N): Fraction} for the full box k_i <= kmax, in the slot
    order of ``sheets``.
    """
    npts = len(sheets)
    if npts < 3:
        raise ValueError("n-point expansion needs at least 3 slots")
    K = npts * (kmax + 1)
    n_missing = npts * (npts - 1) // 2 - npts
    cap_dividend = K + n_missing
    if any(len(mat[0][0]) < K + 1 for mat in mats.values()):
        raise ValueError("slot matrices carry fewer trusted orders than required")
    ints = {a: _integer_slot([[series[: K + 1] for series in row] for row in mat], c)
            for a, mat in mats.items()}
    # canonical slot order: a least-repeated sheet in slot 0, then equal
    # sheets in contiguous blocks; slot p expands in u_p
    order = sorted(range(npts), key=lambda i: (sheets.count(sheets[i]), sheets[i], i))
    labels = [sheets[i] for i in order]
    # A certified bound on every coefficient the table computes, in the
    # kernel's own bound rules: a chain entry sums n single products per
    # step, a trace n^2, the (N-1)! classes add up, each missing pair doubles
    # the bound, and the division by the t-th pair sums anti-diagonals of at
    # most cap_dividend - t + 1 coefficients.
    n, n_pairs = len(ints[labels[0]]), npts * (npts - 1) // 2
    bound = (math.factorial(npts - 1) * n ** npts * math.prod(_largest(ints[a]) for a in labels)
             * 2 ** n_missing * math.prod(range(cap_dividend - n_pairs + 2, cap_dividend + 2)))
    width = packing_width(bound)
    slots = [_packed_slot(ints[a], npts, var, width) for var, a in enumerate(labels)]

    # One class per orbit of the slot relabelings that keep the blocks: each
    # block's slots in increasing order.  Trace and denominator are invariant
    # under cyclic shifts, which cancels the 1/N prefactor.  Classes are
    # walked depth-first over their prefixes, so each partial chain product
    # is formed once, and signed traces are grouped by the Vandermonde pairs
    # their cycle misses.
    by_missing: dict[frozenset, MultiPoly] = {}

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
        firsts: dict = {}
        for s in rest:
            firsts.setdefault(labels[s], s)
        for s in firsts.values():
            visit(prefix + (s,), _matmul(acc, slots[s], K))

    visit((0,), slots[0])
    q = _times_missing(by_missing, npts, cap_dividend)
    # the rest of each orbit: sum over sigma of sgn(sigma) sigma, one coset
    # factor (1 - sum_{i<m} (b_i b_m)) per slot b_m of a block b_1 < b_2 < ...
    for a in dict.fromkeys(labels[1:]):
        block = [s for s in range(1, npts) if labels[s] == a]
        for m in range(1, len(block)):
            q = multipoly_coset_factor(q, block[:m], block[m])
    trusted = cap_dividend
    for p in range(npts):
        for r in range(p + 1, npts):
            q = multipoly_exact_divide(q, MultiPoly.pair_difference(npts, p, r), trusted)
            trusted -= 1
    return {
        ks: Fraction(-q.coeff(tuple(ks[i] for i in order)), c ** (npts + sum(ks)))
        for ks in itertools.product(range(kmax + 1), repeat=npts)
    }


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def correlator_pair(w: MatrixPolynomial, a1: int, a2: int, kmax: int,
                    engine: CorrelatorEngine | None = None) -> CorrelatorTable:
    """F^{a1 a2}_{k1 k2} for all k1, k2 <= kmax, exactly."""
    engine = engine or CorrelatorEngine(w)
    K = 2 * (kmax + 1)
    m1 = engine.slot_matrix(a1, K)
    m2 = engine.slot_matrix(a2, K)
    vals = _pair_table_values(m1, m2, 1 if a1 == a2 else 0, kmax, engine.scale(a1, a2))
    entries = {
        ((a1, k1), (a2, k2)): v for (k1, k2), v in vals.items()
    }
    return CorrelatorTable(2, entries, kmax)


def correlator_n(w: MatrixPolynomial, sheets: Sequence[int], kmax: int,
                 engine: CorrelatorEngine | None = None) -> CorrelatorTable:
    """F^{a1..aN}_{k1..kN} for N = len(sheets) >= 3 and all k_i <= kmax."""
    sheets = tuple(int(a) for a in sheets)
    if len(sheets) < 3:
        raise ValueError("correlator_n needs at least 3 sheet indices")
    engine = engine or CorrelatorEngine(w)
    npts = len(sheets)
    K = npts * (kmax + 1)
    mats = {a: engine.slot_matrix(a, K) for a in sheets}
    vals = _npoint_values(mats, sheets, kmax, engine.scale(*sheets))
    entries = {
        tuple((sheets[i], ks[i]) for i in range(npts)): v for ks, v in vals.items()
    }
    return CorrelatorTable(npts, entries, kmax)


# ---------------------------------------------------------------------------
# hyperelliptic difference combination (n = 2)
# ---------------------------------------------------------------------------

def hyperelliptic_combination(w: MatrixPolynomial, n_points: int, kmax: int,
                              engine: CorrelatorEngine | None = None) -> dict:
    """Signed sheet sums sum_{a-tuples} prod_i s_{a_i} F^{a...}_{k...}.

    Sheet 1 (the branch with the monic leading coefficient) carries weight +1
    and sheet 2 weight -1, realizing the difference of the two time families.
    By linearity of the trace this equals one expansion with every projector
    slot replaced by Pi_1 - Pi_2.
    """
    if w.n != 2:
        raise ValueError("hyperelliptic combination needs n = 2")
    engine = engine or CorrelatorEngine(w)
    if n_points == 2:
        K = 2 * (kmax + 1)
        d = engine.difference_matrix(K)
        return _pair_table_values(d, d, 2, kmax, engine.scale(0))
    K = n_points * (kmax + 1)
    d = engine.difference_matrix(K)
    return _npoint_values({0: d}, (0,) * n_points, kmax, engine.scale(0))


# Kept only for the --record cross-check of perfbench/workloads.py, which imports it by name.
def hyperelliptic_combination_from_tables(w: MatrixPolynomial, n_points: int, kmax: int,
                                          engine: CorrelatorEngine | None = None) -> dict:
    """Same combination assembled literally from per-sheet tables (slow path)."""
    if w.n != 2:
        raise ValueError("hyperelliptic combination needs n = 2")
    engine = engine or CorrelatorEngine(w)
    out: dict = {}
    for a_tuple in itertools.product((1, 2), repeat=n_points):
        sign = 1
        for a in a_tuple:
            if a == 2:
                sign = -sign
        if n_points == 2:
            table = correlator_pair(w, a_tuple[0], a_tuple[1], kmax, engine)
        else:
            table = correlator_n(w, a_tuple, kmax, engine)
        for ks in itertools.product(range(kmax + 1), repeat=n_points):
            v = table.value(tuple(zip(a_tuple, ks)))
            out[ks] = out.get(ks, Fraction(0)) + (v if sign > 0 else -v)
    return out
