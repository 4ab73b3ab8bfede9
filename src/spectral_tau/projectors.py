"""Spectral projectors and branch expansions at infinity.

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
:class:`BranchError`.

The branch w_a(z) itself, a series of valuation -m solving R(z, w_a) = 0, is
found by Newton iteration with quadratic convergence: R_w at the branch
starts with prod_{b!=a}(b_a - b_b) u^(-m(n-1)), invertible when the leading
entries are distinct, so each step doubles the number of correct
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .curve import MatrixPolynomial, SpectralCurveData, characteristic_data
from .series import USeries


class BranchError(Exception):
    pass


@dataclass(frozen=True)
class PhiData:
    """Matrix coefficients b_0..b_{n-1} of Phi(z,w) = sum_i b_i(z) w^{n-1-i}."""

    n: int
    b: tuple  # tuple of n PolyMatrix (tuples of tuples of Poly)


def phi_coefficients(curve: SpectralCurveData) -> PhiData:
    """Phi(z, w) = adj(w*1 - W(z)), b_i = sum_{j<=i} a_j W^(i-j) with a_0 = 1.

    These are the Faddeev-LeVerrier matrices of :func:`characteristic_data`;
    on the curve, Pi = Phi / R_w.
    """
    return PhiData(n=curve.n, b=curve.adjugate)


def _horner(terms, w: USeries) -> USeries:
    """terms[0] w^d + terms[1] w^(d-1) + ... + terms[d]."""
    acc = terms[0]
    for t in terms[1:]:
        acc = acc * w + t
    return acc


def _char_terms(curve: SpectralCurveData, length: int) -> list[USeries]:
    """a_0 = 1, a_1(z), ..., a_n(z) as series of the given length."""
    return [USeries.from_poly(curve.a(i), length) for i in range(curve.n + 1)]


def _require_valid(curve: SpectralCurveData, sheet: int) -> None:
    fatal = curve.fatal_diagnostics()
    if fatal:
        raise BranchError(f"invalid input: {fatal[0].detail or fatal[0].name}")
    if not 1 <= sheet <= curve.n:
        raise BranchError(f"sheet index {sheet} out of range 1..{curve.n}")


def branch_series(curve: SpectralCurveData, sheet: int, order: int) -> USeries:
    """Branch w_sheet(z) as a series of valuation -m trusted through z^(m - order).

    Solves R(z, w) = 0 for w = b0_sheet z^m + ..., b0_sheet the sheet label.
    Each Newton step doubles the number of correct coefficients, so the
    steps run at lengths 2, 4, ... up to order + 1, starting from the exact
    leading term.  The zeros padding each iterate are a guess, not trusted
    values; what certifies the result is R(z, w) = 0 on the whole window,
    checked at the end, since R_w is invertible there and the root is
    therefore unique.
    """
    _require_valid(curve, sheet)
    n = curve.n
    w = USeries(-curve.m, [curve.sheet_labels[sheet - 1]])
    while len(w.coeffs) < order + 1:
        length = min(2 * len(w.coeffs), order + 1)
        terms = _char_terms(curve, length)
        w = USeries(w.val, w.coeffs + (0,) * (length - len(w.coeffs)))
        r_w = _horner([(n - i) * t for i, t in enumerate(terms[:n])], w)
        w = w - _horner(terms, w) * r_w.inverse()
    if not branch_residual(curve, w).is_zero():
        raise BranchError("Newton iteration for the branch series failed to converge")
    return w


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


def projector_series(w: MatrixPolynomial, sheet: int, order: int,
                     curve: SpectralCurveData | None = None) -> tuple:
    """Pi_sheet(z) as an n x n grid of series, each trusted through u^order exactly.

    Reading u^(order + 1) raises.  The coefficients are exact rationals from
    the integer recursion of the module docstring, and they are certified
    before they are returned: through u^order, every entry of
    sum_l Delta^l [L B_l, Q_(k-l)] vanishes, diag(sum_j Q_j Q_(k-j)) equals
    diag(Q_k), and Q_0 = E_sheet.  This suffices.  B(0) = B_0 has distinct
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
    n, m, a = w.n, w.m, sheet - 1
    mats = [w.coefficient_of_power(m - l) for l in range(m + 1)]
    scale = lcm(*(c.denominator for mat in mats for row in mat for c in row))
    lb = [[[c.numerator * (scale // c.denominator) for c in row] for row in mat] for mat in mats]
    delta = lcm(*(abs(lb[0][i][i] - lb[0][j][j]) for i in range(n) for j in range(i)))
    q = _projector_numerators(lb, delta, a, order)
    if q[0] != [[int(i == j == a) for j in range(n)] for i in range(n)]:
        raise BranchError(f"projector series for sheet {sheet} does not start at its idempotent")
    for k in range(order + 1):
        comm, idem = _defects(lb, q, delta, k)
        if any(map(any, comm)) or any(idem):
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


def branch_residual(curve: SpectralCurveData, branch: USeries) -> USeries:
    """R(z, branch) as a series; zero within its window for a valid branch."""
    return _horner(_char_terms(curve, len(branch.coeffs)), branch)
