"""Exact rational correlators of the spectral-curve tau-function.

Every table, N >= 2, comes from one formula, the cyclic permutation sum

    -(1/N) sum_s tr[Pi_{a_s1}(z_s1) ... Pi_{a_sN}(z_sN)] / prod_cyc (z_si - z_sj),

read off in the variables u_i = 1/z_i with the coefficient of
prod u_i^(k_i+2) giving F^{a1..aN}_{k1..kN}.  At N = 2 the one cycle meets
its one pair twice, so the formula is tr[Pi_a(z1) Pi_b(z2)] / (z1 - z2)^2,
and the term -delta_ab / (z1 - z2)^2 regularizes the diagonal: the kernel
subtracts delta_ab from the trace before it divides.

The expansion runs in Python integers.  Substituting u = c*t makes every
projector coefficient a_k c^k an integer; each table derives c from exactly
the coefficients it walks (per prime of the denominators, the least exponent
that clears them all; a cofactor left after trial division enters whole, as
in the lcm of the denominators), so c does not depend on the orders an
engine has cached.  The polynomials in t are MultiPoly's
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
carries one matrix, so G is the whole S_(N-1) and the walk is one chain.  With
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
q[k] is read back as F = -q[k] / c^(N + |k|), the only Fraction on the
path.

Certificates: every scaled coefficient must be an integer (a wrong c raises
ArithmeticError rather than emitting a value), and every division must leave
a zero remainder up to its trusted total degree (InexactDivisionError
otherwise).  The subtracted delta_ab is given, not read off the trace, so
the remainder at the constant term certifies it.  With per-variable
truncation K the quotient layers are certified through total degree K - N,
so K = N*(kmax+1) certifies the full requested box of indices.

The hyperelliptic combination (n = 2, every slot Pi_1 - Pi_2) needs no
projector series for N >= 3.  With W = z^m B(u) and b_1, b_2 the diagonal
of B(0), Cayley-Hamilton gives Pi_1 - Pi_2 = M(u) s(u), where
M = (2B - tr B) / (b_1 - b_2) is a polynomial matrix of degree m with
M(0) = diag(1, -1) and s = qt^(-1/2) with
qt = ((tr B)^2 - 4 det B) / (b_1 - b_2)^2 = 1 + O(u), so M^2 = qt (the
matrix-resolvent normal form of Bertola, Dubrovin & Yang, Physica D 327,
2016).  The numerator over the Vandermonde is then prod_i s(u_i), a
symmetric unit series, times the one built from M, so the kernel walks M
and divides its numerator alone, and the box of the quotient is multiplied
by prod_i s afterwards, in integers.  M s must equal the certified
projector difference through u^kmax, the orders the box reads.  The engine
builds M and s and runs that certificate once per order it is asked for
beyond the last, so the N of one verify share one normal form.  At N = 2
the table carries the regularizing -2, and with D = Pi_1 - Pi_2,
(tr D(x) D(y) - 2) / (x - y)^2 is not prod s times a polynomial, so N = 2
walks D itself.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .curve import MatrixPolynomial, characteristic_data
from .multipoly import (
    MultiPoly, multipoly_coset_factor, multipoly_exact_divide, multipoly_sum, packing_width,
)
from .projectors import projector_series
from .series import USeries

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
        """The entry at ((a1,k1),...,(aN,kN)); an index that is not an int raises ValueError."""
        key = tuple((a, k) for a, k in pairs)
        for a, k in key:
            _require_int("sheet", a, 1)
            _require_int("k", k, 0)
        if key not in self.entries:
            raise KeyError(f"no entry for {key}")
        return self.entries[key]


class CorrelatorEngine:
    """Caches the projector series and the hyperelliptic normal form of one matrix polynomial.

    It takes any W: W was checked when it was built, and nothing is computed
    before the first request.
    """

    def __init__(self, w: MatrixPolynomial):
        self.w = w
        self._projectors: dict[int, tuple] = {}
        self._proj_order = -1
        self._normal = None     # (M, s) of _normal_form, certified through u^_normal_order
        self._normal_order = -1

    def projector(self, sheet: int, order: int) -> tuple:
        """Pi_sheet as an n x n grid of series trusted through at least u^order."""
        if order > self._proj_order:
            self._proj_order = order
            self._projectors = {a: projector_series(self.w, a, order)
                                for a in range(1, self.w.n + 1)}
        return self._projectors[sheet]

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

    def normal_form(self, order: int):
        """(M, s) with Pi_1 - Pi_2 = M(u) s(u) for n = 2, s through u^order.

        ``_normal_form`` runs at the largest order asked so far, and s is
        sliced for smaller ones.  Each such run is certified once: M s must
        equal ``difference_matrix(order)`` entry by entry through u^order, or
        ArithmeticError is raised.
        """
        if order > self._normal_order:
            mat, s = _normal_form(self.w, order)
            d = self.difference_matrix(order)
            for i, j in itertools.product(range(2), repeat=2):
                for k in range(order + 1):
                    if sum(a * s[k - l] for l, a in enumerate(mat[i][j][: k + 1])) != d[i][j][k]:
                        raise ArithmeticError(
                            f"M s differs from Pi_1 - Pi_2 at entry ({i + 1}, {j + 1}), u^{k}")
            self._normal, self._normal_order = (mat, s), order
        mat, s = self._normal
        return mat, s[: order + 1]


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
    the least such integer whenever trial division factors the lcm.  For
    each k the largest v_p(den a_k) is that of the lcm of the order-k
    denominators, so one valuation per order and prime suffices.  A
    cofactor without small primes enters c whole: every denominator's share
    of it divides it, so it always suffices (the lcm fallback).
    """
    dens: dict = {}  # k -> lcm of the denominators of the a_k
    for series in (series for mat in mats for row in mat for series in row):
        for k in range(1, len(series)):
            dens[k] = math.lcm(dens.get(k, 1), series[k].denominator)
    rest = math.lcm(*dens.values())
    c, p = 1, 2
    while rest > 1 and p * p <= rest and p < _TRIAL_DIVISORS_BELOW:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            c *= p ** max(-(-_valuation(d, p) // k) for k, d in dens.items())
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


def _npoint_values(mats: Mapping, sheets: Sequence, kmax: int, c: int,
                   subtract: int) -> dict:
    """The t-quotient for slot i carrying ``mats[sheets[i]]``, scaled by c; len(sheets) >= 2.

    ``subtract`` (delta_ab at N = 2) is taken from each class's trace before
    it is signed.  Returns {(k_1..k_N): q[k]}, the integer quotient
    coefficients of the full box k_i <= kmax in the slot order of
    ``sheets``; ``_values`` turns them into F.
    """
    npts = len(sheets)
    # the Vandermonde pairs the numerator is divided by; at N = 2 the one
    # cycle meets its one pair twice
    divisors = [(0, 1)] * 2 if npts == 2 else list(itertools.combinations(range(npts), 2))
    K = npts * (kmax + 1)
    n_missing = len(divisors) - npts
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
    # step, a trace n^2 (and the subtracted constant), the (N-1)! classes add
    # up, each missing pair doubles the bound, and the division by the t-th
    # divisor sums anti-diagonals of at most cap_dividend - t + 1 coefficients.
    n = len(ints[labels[0]])
    bound = ((math.factorial(npts - 1) * n ** npts * math.prod(_largest(ints[a]) for a in labels)
              * 2 ** n_missing + subtract)
             * math.prod(range(cap_dividend - len(divisors) + 2, cap_dividend + 2)))
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
            if subtract:
                tr = tr - MultiPoly.constant(npts, subtract)
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
    for trusted, pair in zip(range(cap_dividend, -1, -1), divisors):
        q = multipoly_exact_divide(q, MultiPoly.pair_difference(npts, *pair), trusted)
    return {ks: q.coeff(tuple(ks[i] for i in order))
            for ks in itertools.product(range(kmax + 1), repeat=npts)}


def _values(quotient: Mapping, c: int) -> dict:
    """F = -q[k] / c^(N + |k|) for each integer t-quotient coefficient q[k]."""
    return {ks: Fraction(-q, c ** (len(ks) + sum(ks))) for ks, q in quotient.items()}


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _require_int(name: str, value, low: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be an int >= {low}, got {value!r}")


def correlator_pair(w: MatrixPolynomial, a1: int, a2: int, kmax: int,
                    engine: CorrelatorEngine | None = None) -> CorrelatorTable:
    """F^{a1 a2}_{k1 k2} for all k1, k2 <= kmax, exactly: ``correlator_n`` at N = 2."""
    return correlator_n(w, (a1, a2), kmax, engine)


def correlator_n(w: MatrixPolynomial, sheets: Sequence[int], kmax: int,
                 engine: CorrelatorEngine | None = None) -> CorrelatorTable:
    """F^{a1..aN}_{k1..kN} for N = len(sheets) >= 2 and all k_i <= kmax.

    At N = 2 the table carries the -delta_ab / (z1 - z2)^2 term.  Fewer than
    2 sheets, or a sheet that is not an int in 1..n, raises ValueError before
    any work.
    """
    _require_int("kmax", kmax, 0)
    sheets = tuple(sheets)
    if len(sheets) < 2:
        raise ValueError("n-point expansion needs at least 2 slots")
    for a in sheets:
        if isinstance(a, int) and not isinstance(a, bool) and not 1 <= a <= w.n:
            raise ValueError(f"sheet {a} outside 1..{w.n}")
        _require_int("sheet", a, 1)
    engine = engine or CorrelatorEngine(w)
    npts = len(sheets)
    K = npts * (kmax + 1)
    mats = {a: engine.slot_matrix(a, K) for a in sheets}
    delta = int(npts == 2 and sheets[0] == sheets[1])
    c = _series_scale(mats.values())
    vals = _values(_npoint_values(mats, sheets, kmax, c, delta), c)
    entries = {
        tuple((sheets[i], ks[i]) for i in range(npts)): v for ks, v in vals.items()
    }
    return CorrelatorTable(npts, entries, kmax)


# ---------------------------------------------------------------------------
# hyperelliptic difference combination (n = 2)
# ---------------------------------------------------------------------------

def _normal_form(w: MatrixPolynomial, order: int):
    """(M, s) with Pi_1 - Pi_2 = M(u) s(u) for n = 2: M's m + 1 coefficients, s through u^order.

    M = (2B - tr B) / (b_1 - b_2) and s = qt^(-1/2), as in the module
    docstring, from the integer matrices L B_l of the curve's integer form.
    """
    _, lb, _ = characteristic_data(w).integer_form
    m, gap = w.m, lb[0][0][0] - lb[0][1][1]
    mat = [[[Fraction(2 * b[i][j] - (b[0][0] + b[1][1]) * (i == j), gap) for b in lb]
            for j in range(2)] for i in range(2)]
    # (tr B)^2 - 4 det B = (B_11 - B_22)^2 + 4 B_12 B_21
    diff = [b[0][0] - b[1][1] for b in lb]
    disc = [Fraction(sum(diff[l] * diff[k - l] + 4 * lb[l][0][1] * lb[k - l][1][0]
                         for l in range(max(0, k - m), min(k, m) + 1)), gap * gap)
            for k in range(order + 1)]
    return mat, list(USeries(0, disc).inv_sqrt().coeffs)


def hyperelliptic_combination(w: MatrixPolynomial, n_points: int, kmax: int,
                              engine: CorrelatorEngine | None = None) -> dict:
    """Signed sheet sums sum_{a-tuples} prod_i s_{a_i} F^{a...}_{k...}.

    Sheet 1 (the branch with the monic leading coefficient) carries weight +1
    and sheet 2 weight -1, realizing the difference of the two time families.
    By linearity of the trace this equals one expansion with every projector
    slot replaced by Pi_1 - Pi_2.

    For N >= 3 the kernel walks M of Pi_1 - Pi_2 = M s (see the module
    docstring), zero-padded to the K + 1 orders its window guard asks for,
    and the box of its integer quotient is multiplied by prod_i s(c t_i) one
    axis at a time; M and s share one scale c.  M and s come
    from ``engine.normal_form(kmax)``, which builds and certifies the normal
    form once per engine and order (ArithmeticError when M s is not
    Pi_1 - Pi_2 through u^kmax), so the N of one verify share it.  N = 2
    walks Pi_1 - Pi_2 itself with the subtracted 2: the signed -delta_ab
    terms add up to tr (Pi_1 - Pi_2)^2.  Every table takes c from the
    coefficients it walks, and n_points and kmax are checked before any work.
    """
    _require_int("kmax", kmax, 0)
    _require_int("n_points", n_points, 2)
    if w.n != 2:
        raise ValueError("hyperelliptic combination needs n = 2")
    engine = engine or CorrelatorEngine(w)
    if n_points == 2:
        d = engine.difference_matrix(2 * (kmax + 1))
        c = _series_scale([d])
        return _values(_npoint_values({0: d}, (0, 0), kmax, c, 2), c)
    mat, s = engine.normal_form(kmax)
    K = n_points * (kmax + 1)
    mat = [[(entry + [0] * K)[: K + 1] for entry in row] for row in mat]
    c = _series_scale([mat, [[s]]])
    s_ints = _integer_slot([[s]], c)[0][0]
    q = _npoint_values({0: mat}, (0,) * n_points, kmax, c, 0)
    # times prod_i s(c t_i), one axis at a time
    for axis in range(n_points):
        q = {ks: sum(q[ks[:axis] + (j,) + ks[axis + 1:]] * s_ints[ks[axis] - j]
                     for j in range(ks[axis] + 1))
             for ks in q}
    return _values(q, c)


# Kept only for the --record cross-check of perfbench/workloads.py, which imports it by name.
def hyperelliptic_combination_from_tables(w: MatrixPolynomial, n_points: int, kmax: int,
                                          engine: CorrelatorEngine | None = None) -> dict:
    """Same combination assembled literally from per-sheet tables (slow path)."""
    if w.n != 2:
        raise ValueError("hyperelliptic combination needs n = 2")
    engine = engine or CorrelatorEngine(w)
    out: dict = {}
    for a_tuple in itertools.product((1, 2), repeat=n_points):
        sign = (-1) ** a_tuple.count(2)
        table = correlator_n(w, a_tuple, kmax, engine)
        for ks in itertools.product(range(kmax + 1), repeat=n_points):
            out[ks] = out.get(ks, Fraction(0)) + sign * table.value(tuple(zip(a_tuple, ks)))
    return out
