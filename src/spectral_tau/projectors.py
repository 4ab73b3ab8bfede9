"""Spectral projectors at infinity.

Everything here is a :class:`~spectral_tau.series.USeries` in u = 1/z.  Write
W(z) = z^m B(u) with B(u) = B_0 + B_1 u + ... + B_m u^m, where B_l is W's
coefficient of z^(m-l) and B_0 = diag(b_1, ..., b_n) has distinct entries
(the sheet labels).  The eigenprojector Pi_a of W for the branch
w_a ~ b_a z^m is that of B(u), and its series Pi_a = sum_k P_k u^k with
P_0 = E_a follows from analytic perturbation theory (Kato, Perturbation
Theory for Linear Operators, ch. II 1-2) without the branch: at order k,

    (b_i - b_j) (P_k)_ij = -sum_{l=1..min(k,m)} [B_l, P_(k-l)]_ij   (i != j)
    (P_k)_ii = -+ sum_{j=1..k-1} (P_j P_(k-j))_ii                (- for i = a)

from [B, Pi_a] = 0 and Pi_a^2 = Pi_a.  With L the lcm of W's denominators and
Delta the lcm of the |L b_i - L b_j|, P_k = Q_k / Delta^k with integer Q_k,
so the recursion divides only by the integers L b_i - L b_j, exactly, and one
Fraction is made per output coefficient.  Every result is certified exactly
(see :func:`projector_series`); a failed certificate raises
:class:`BranchError`.  The certificate checks all orders at once by
Kronecker substitution (Harvey, J. Symb. Comput. 44, 2009), the packing of
``multipoly``: each entry of Q(t) = sum_k Q_k t^k and of
sum_l Delta^l L B_l t^l is one signed int with a digit per power of t, at a
width certified from the coefficient bound, so the identities through
u^order are a few big-int products whose low digits must vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .curve import MatrixPolynomial, SpectralCurveData, characteristic_data
from .multipoly import _low, _pack, _unpack, packing_width
from .series import USeries


class BranchError(Exception):
    pass


# PhiData and phi_coefficients stay while perfbench/tracer.py wraps phi_coefficients by name.
@dataclass(frozen=True)
class PhiData:
    """Matrix coefficients b_0..b_{n-1} of Phi(z,w) = sum_i b_i(z) w^{n-1-i}."""

    n: int
    b: tuple  # tuple of n PolyMatrix (tuples of tuples of Poly)


def phi_coefficients(curve: SpectralCurveData) -> PhiData:
    """Phi(z, w) = adj(w*1 - W(z)), b_i = sum_{j<=i} a_j W^(i-j) with a_0 = 1.

    These are the Faddeev-LeVerrier matrices of :func:`characteristic_data`,
    computed on this first read; on the curve, Pi = Phi / R_w.
    """
    return PhiData(n=curve.n, b=curve.adjugate)


def _require_valid(curve: SpectralCurveData, sheet: int) -> None:
    fatal = curve.fatal_diagnostics()
    if fatal:
        raise BranchError(f"invalid input: {fatal[0].detail or fatal[0].name}")
    if not 1 <= sheet <= curve.n:
        raise BranchError(f"sheet index {sheet} out of range 1..{curve.n}")


def _defects(lb, q, delta: int, k: int):
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


def _projector_numerators(lb, delta: int, a: int, order: int) -> list:
    """Q_0 = E_a, ..., Q_order with Pi_a = sum_k Q_k (u / Delta)^k.

    Order k solves the defects of :func:`_defects` taken with Q_k = 0: the
    commutator's (i, j) entry is cancelled by (L b_i - L b_j) (Q_k)_ij, and
    the idempotency defect d_i by (Q_k)_ii = -d_a at i = a and d_i elsewhere.
    """
    n = len(lb[0])
    gap = [[lb[0][i][i] - lb[0][j][j] for j in range(n)] for i in range(n)]
    q = [[[int(i == j == a) for j in range(n)] for i in range(n)]]
    zero = [[0] * n for _ in range(n)]
    for k in range(1, order + 1):
        comm, idem = _defects(lb, q + [zero], delta, k)
        q.append([[(-idem[i] if i == a else idem[i]) if i == j else -comm[i][j] // gap[i][j]
                   for j in range(n)] for i in range(n)])
    return q


def _first_defect(lb, q, delta: int):
    """The least k <= order at which an identity of :func:`_defects` fails, or None.

    ``q`` holds Q_0..Q_order.  Each entry of Q(t) = sum_k Q_k t^k and of
    B(t) = sum_l Delta^l L B_l t^l is packed into one signed Kronecker int,
    one digit per power of t.  The t^k digits of [B(t), Q(t)] and of
    diag(Q(t)^2) - diag(Q(t)) are the order-k defects of :func:`_defects`,
    so they must vanish through k = order.  Every digit of the full
    products is within 2n(m+1) max|Delta^l L B_l| max|Q| (the commutator
    sums at most 2n(m+1) products per power) or n(order+1) max|Q|^2 +
    max|Q| (the idempotency), and the width is certified from the larger
    bound, so every digit decodes exactly and the low order + 1 digits are
    zero exactly when those defects are.
    """
    n, order, m = len(q[0]), len(q) - 1, len(lb) - 1
    rn = range(n)
    b = [[[delta ** l * lb[l][i][j] for l in range(m + 1)] for j in rn] for i in rn]
    b_max = max(abs(x) for row in b for entry in row for x in entry)
    q_max = max(abs(x) for qk in q for row in qk for x in row)
    width = packing_width(max(2 * n * (m + 1) * b_max * q_max,
                              n * (order + 1) * q_max * q_max + q_max))
    bp = [[_pack(dict(enumerate(entry)), width) for entry in row] for row in b]
    qp = [[_pack({k: qk[i][j] for k, qk in enumerate(q)}, width) for j in rn] for i in rn]
    nbits = (order + 1) * width
    defects = [sum(bp[i][t] * qp[t][j] - qp[i][t] * bp[t][j] for t in rn)
               for i in rn for j in rn]
    defects += [sum(qp[i][t] * qp[t][i] for t in rn) - qp[i][i] for i in rn]
    lows = [low for low in (_low(x, nbits) for x in defects) if low]
    return min((min(_unpack(low, width)) for low in lows), default=None)


def _integer_coefficients(w: MatrixPolynomial):
    """(lb, Delta): the integer matrices L B_0, ..., L B_m and the lcm of the |L b_i - L b_j|."""
    n, m = w.n, w.m
    mats = [w.coefficient_of_power(m - l) for l in range(m + 1)]
    scale = lcm(*(c.denominator for mat in mats for row in mat for c in row))
    lb = [[[c.numerator * (scale // c.denominator) for c in row] for row in mat] for mat in mats]
    delta = lcm(*(abs(lb[0][i][i] - lb[0][j][j]) for i in range(n) for j in range(i)))
    return lb, delta


def projector_series(w: MatrixPolynomial, sheet: int, order: int,
                     curve: SpectralCurveData | None = None) -> tuple:
    """Pi_sheet(z) as an n x n grid of series, each trusted through u^order exactly.

    Reading u^(order + 1) raises.  The coefficients are exact rationals from
    the integer recursion of the module docstring, and they are certified
    before they are returned: through u^order, every entry of
    sum_l Delta^l [L B_l, Q_(k-l)] vanishes, diag(sum_j Q_j Q_(k-j)) equals
    diag(Q_k), and Q_0 = E_sheet (all orders at once, packed; see
    :func:`_first_defect`).  This suffices.  B(0) = B_0 has distinct
    eigenvalues, so over Q[u]/u^(order+1) a matrix P that commutes with B(u)
    is sum_c lambda_c Pi_c with series lambda_c.  Then P^2 - P =
    sum_c (lambda_c^2 - lambda_c) Pi_c, and the diagonals of the Pi_c are
    the unit vectors plus O(u), so a zero diagonal forces
    lambda_c^2 = lambda_c.  The only idempotents of that local ring are 0
    and 1, so P is a sum of eigenprojectors, and P_0 = E_sheet leaves
    Pi_sheet alone.  A failed check raises :class:`BranchError`.
    """
    if curve is None:
        curve = characteristic_data(w)
    _require_valid(curve, sheet)
    n, a = w.n, sheet - 1
    lb, delta = _integer_coefficients(w)
    q = _projector_numerators(lb, delta, a, order)
    if q[0] != [[int(i == j == a) for j in range(n)] for i in range(n)]:
        raise BranchError(f"projector series for sheet {sheet} does not start at its idempotent")
    k = _first_defect(lb, q, delta)
    if k is not None:
        raise BranchError(f"projector series for sheet {sheet} fails its certificate at u^{k}")
    powers = [delta ** k for k in range(order + 1)]
    return tuple(
        tuple(USeries(0, [Fraction(q[k][i][j], powers[k]) for k in range(order + 1)])
              for j in range(n))
        for i in range(n)
    )


def all_projectors(w: MatrixPolynomial, order: int,
                   curve: SpectralCurveData | None = None) -> list[tuple]:
    if curve is None:
        curve = characteristic_data(w)
    return [projector_series(w, a, order, curve) for a in range(1, w.n + 1)]
