"""Periods and Abel map of hyperelliptic curves w^2 = Q(z), deg Q = 2g+2.

Homology (Molin & Neurohr, Math. Comp. 88 (2019)): a spanning tree of straight
edges joins the 2g+2 branch points; a to b on one sheet and back on the other
is the cycle of edge [a, b], and the 2g+1 edge cycles span H_1.  Tree edges do
not cross, so two edge cycles meet only over a common end point v, each as a
line through zeta = 0 of the chart z = v + zeta^2; their intersection number
is the orientation of the two lines, read exactly off the edges' branches of
w at v.  Integer symplectic elimination gives an a/b basis, Siegel-reduced
(Deconinck et al., Math. Comp. 73 (2004)) to keep the theta lattice sum short.
With z = mid + half x an edge period is a Gauss-Chebyshev sum whose node count
and a priori error bound come from the edge's Bernstein ellipse clear of the
other branch points; the tree keeps the smallest such ellipse largest.

The Abel map is based at e1 = branch_points[0]; A_e1(Q) is the half-period
H(e) = A_e1(e) of the branch point e nearest to Q plus a Gauss-Legendre leg in
e's chart, none if z(Q) is a root of gcd(D(z), Q(z)), as then Q is e.  A branch
point is one point of the curve, so a path from e1 to e may follow the tree on
either sheet of each edge: H(e) is half the sum of the edge cycle periods along
the tree path, up to periods.  That sum is an integer cycle, so the
characteristics of H(e) in (Z/2)^2g and of the Riemann constants are exact.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curve import InvalidMatrixPolynomial, MatrixPolynomial, characteristic_data
from .polynomials import Poly, _cleared, is_squarefree, poly_gcd
from .series import USeries
from .theta import reduce_mod_lattice


class PeriodError(Exception):
    pass


ELLIPSE_FRACTION = 0.5   # share (in log rho) of a segment's clear ellipse used by its bound
QUADRATURE_TARGET = 1e-16   # a priori error of a segment rule, relative to its integrand's bound


@dataclass(frozen=True)
class HyperellipticCurve:
    q_poly: Poly
    g: int
    branch_points: tuple

    @staticmethod
    def from_q(q_poly: Poly) -> "HyperellipticCurve":
        """w^2 = Q; the branch points are the correctly rounded roots of Q (_newton_polish)."""
        deg = q_poly.degree()
        if deg < 4 or deg % 2 != 0:
            raise PeriodError("Q must have even degree >= 4")
        if q_poly.leading() != 1:
            raise PeriodError("Q must be monic")
        if not is_squarefree(q_poly):
            raise PeriodError("Q must be squarefree")
        ints, roots = _cleared([q_poly])[1][0], []
        for z in np.roots(q_poly.float_coeffs_descending()):
            roots.append(_newton_polish(ints, complex(z), roots))
        return HyperellipticCurve(q_poly=q_poly, g=deg // 2 - 1, branch_points=tuple(
            sorted(roots, key=lambda t: (t.real, t.imag))))

    @staticmethod
    def from_matrix_polynomial(w: MatrixPolynomial) -> "HyperellipticCurve":
        """The curve of a 2x2 traceless W with leading diagonal (1, -1) and m >= 2;
        any other W is an input error, InvalidMatrixPolynomial."""
        if w.n != 2:
            raise InvalidMatrixPolynomial("hyperelliptic pipeline needs n = 2")
        curve = characteristic_data(w)
        if not curve.a(1).is_zero():
            raise InvalidMatrixPolynomial("hyperelliptic pipeline needs tr W = 0")
        q = -curve.a(2)
        if q.degree() != 2 * w.m or q.leading() != 1:
            raise InvalidMatrixPolynomial("curve must be w^2 = monic Q of degree 2m "
                                          "(normalize the leading entries to (1, -1))")
        if w.m < 2:
            raise InvalidMatrixPolynomial("Q must have even degree >= 4")
        return HyperellipticCurve.from_q(q)


def _newton_polish(ints: list[int], z: complex, found: list) -> complex:
    """Newton steps on the int polynomial ``ints`` (ascending) from z until one no longer
    moves z, deflated by the roots ``found`` (Maehly) lest a cluster draw z to one.  At
    z = (x + iy)/s, s^d p(z) and s^(d-1) p'(z) are Gaussian integers: each step is exact."""
    seen = set()
    while z not in seen:
        seen.add(z)
        (x, dx), (y, dy) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
        s = max(dx, dy)
        x, y = x * (s // dx), y * (s // dy)
        pr = pi = dr = di = 0
        for k, c in enumerate(reversed(ints)):   # Horner over Z[i] for p and p'
            dr, di = dr * x - di * y + pr, dr * y + di * x + pi
            pr, pi = pr * x - pi * y + c * s ** k, pr * y + pi * x
        den = (dr * dr + di * di) * s
        step = complex((pr * dr + pi * di) / den, (pi * dr - pr * di) / den)
        z -= step / (1 - step * sum(1 / (z - r) for r in found))
    return z


def _bernstein(u) -> np.ndarray:
    """rho >= 1 of the Bernstein ellipses of [-1, 1] through the points u."""
    s = np.sqrt(np.asarray(u, dtype=complex) ** 2 - 1)
    return np.maximum(np.abs(u + s), np.abs(u - s))


def _root_product(x, u):
    """(prod_k sqrt((x - u_k)/d_k), prod_k d_k), analytic in x on [-1, 1]: d_k bisects the
    directions from u_k to -1 and 1, so (x - u_k)/d_k has a positive real part there."""
    d = (-1 - u) / np.abs(-1 - u) + (1 - u) / np.abs(1 - u)
    d = d / np.abs(d)
    return np.prod(np.sqrt((np.asarray(x)[:, None] - u) / d), axis=1), np.prod(d)


@functools.lru_cache
def _gauss_legendre(n: int):
    """The n-node Gauss-Legendre nodes and weights, computed once per n, read-only."""
    x, wts = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = wts.flags.writeable = False
    return x, wts


def _rule(rhos: np.ndarray, chebyshev: bool, fraction: float, target: float):
    """(nodes, weights, r, error factor) for a segment whose branch points u have rho ``rhos``.

    On E_r, r = rho^fraction, |f| <= M gives Chebyshev coefficients <= 2 M r^-k,
    so n-node Gauss-Chebyshev errs by <= 2 pi M / (r^2n - 1), Gauss-Legendre by
    64 M / (15 (r^2 - 1) r^2n) (Trefethen, ATAP 19.3); n is the least count with
    a factor below ``target``.  The factor divides by a lower bound of
    prod_k |x - u_k|^(1/2) on E_r: |x - u_k| >= (rho_k - r)(1 - 1/(r rho_k))/2.
    """
    if np.min(rhos) <= 1 + 1e-9:
        raise PeriodError("a branch point lies on an integration segment")
    r = float(np.min(rhos)) ** fraction
    c = 2 * np.pi if chebyshev else 64 / (15 * (r * r - 1))
    n = max(2, math.ceil(math.log(c / target + 1) / (2 * math.log(r))))
    if n > 1 << 16:
        raise PeriodError(f"segment needs {n} quadrature nodes; branch points too close")
    x, wts = ((np.cos((2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)), np.full(n, np.pi / n))
              if chebyshev else _gauss_legendre(n))
    low = float(np.prod(np.sqrt((rhos - r) * (1 - 1 / (r * rhos)) / 2)))
    return x, wts, r, c / (r ** (2 * n) - 1) / low


def _powers(z, g: int) -> np.ndarray:
    """Rows z^(g-i), i = 1..g: the numerators of eta_i = z^(g-i) dz / (2w)."""
    return z[None, :] ** np.arange(g - 1, -1, -1)[:, None]


def _others(points: np.ndarray, *drop: int) -> np.ndarray:
    """The rows but those at the indices ``drop``, in order, as np.delete gives
    them, without its per-call argument handling."""
    return points[[k for k in range(len(points)) if k not in drop]]


def _edge_coordinates(points: np.ndarray, i: int, j: int):
    """mid, half, the other branch points u in the chart z = mid + half x of edge (i, j), rho(u)."""
    mid, half = (points[i] + points[j]) / 2, (points[j] - points[i]) / 2
    u = (_others(points, i, j) - mid) / half
    return mid, half, u, _bernstein(u)


def _crosses(p, q, r, s) -> bool:
    """Whether the segments [p, q] and [r, s], with four distinct end points, cross."""
    left = [((b - a).conjugate() * (c - a)).imag > 0
            for a, b, c in ((p, q, r), (p, q, s), (r, s, p), (r, s, q))]
    return left[0] != left[1] and left[2] != left[3]


def _spanning_tree(points: np.ndarray) -> dict:
    """Kruskal on decreasing clearance, skipping edges that close a cycle or cross the tree
    (a non-crossing forest extends to a triangulation, clear of branch points: it spans).
    Returns {(i, j): _edge_coordinates(points, i, j)} of the tree edges in the order taken."""
    charts = {(i, j): _edge_coordinates(points, i, j)
              for i, j in itertools.combinations(range(len(points)), 2)}
    comp, tree = list(range(len(points))), {}
    for i, j in sorted(charts, key=lambda e: -float(np.min(charts[e][3]))):
        if comp[i] != comp[j] and not any(
                len({i, j, k, l}) == 4 and _crosses(*points[[i, j, k, l]]) for k, l in tree):
            comp = [comp[i] if c == comp[j] else c for c in comp]
            tree[i, j] = charts[i, j]
    return tree


def _edge_cycle(points: np.ndarray, i: int, j: int, chart, fraction: float, target: float):
    """(periods of eta over the cycle, its directions at both ends, a priori error, log rho).

    The cycle of edge (a, b) runs from a to b on the sheet w = sqrt(1 - x^2) phi(x)
    and back on the other (phi analytic on the clear ellipse), so its period is
    sum_nodes half z^(g-i)/phi.  It passes zeta = 0 of the chart z = a + zeta^2,
    w = zeta h(zeta), in the direction phi(-1)/h(0), and at b in -phi(1)/h(0).
    """
    g = (len(points) - 2) // 2
    mid, half, u, rhos = chart   # _edge_coordinates(points, i, j)
    x, wts, r, err = _rule(rhos, True, fraction, target)
    roots, dprod = _root_product(np.append(x, [-1.0, 1.0]), u)
    phi = np.sqrt(-half ** (2 * g + 2) * dprod) * roots
    period = half * (_powers(mid + half * x, g) / phi[:-2]) @ wts
    zr = abs(mid) + abs(half) * (r + 1 / r) / 2
    bound = err * max(1.0, zr) ** (g - 1) / abs(half) ** g
    h0 = [np.sqrt(np.prod(points[v] - _others(points, v))) for v in (i, j)]   # h(0)^2 = Q'
    return period, phi[-2] / h0[0], -phi[-1] / h0[1], bound, math.log(r) / fraction


def _intersections(edges, cycles) -> np.ndarray:
    """Intersection numbers of the edge cycles: signed angles at common end points."""
    at: dict = {}
    for t, ((i, j), cycle) in enumerate(zip(edges, cycles)):
        at.setdefault(i, []).append((t, cycle[1]))
        at.setdefault(j, []).append((t, cycle[2]))
    k = np.zeros((len(edges), len(edges)), dtype=np.int64)
    for lines in at.values():
        for (s, ds), (t, dt) in itertools.combinations(lines, 2):
            k[s, t] = 1 if (ds.conjugate() * dt).imag > 0 else -1
            k[t, s] = -k[s, t]
    return k


def _symplectic_basis(k: np.ndarray) -> np.ndarray:
    """Integer rows a_1..a_g, b_1..b_g over the edge cycles with a_i.b_j = delta_ij, a.a = b.b = 0.

    One edge cycle whose complementary minor is 1 is dropped (the rest is a basis
    of H_1); pairs are found by Euclid on the pairings and projected out."""
    n = len(k)
    # the minor without row and column j, transposed (the same determinant)
    drop = [j for j in range(n) if round(np.linalg.det(_others(_others(k, j).T, j))) == 1]
    if not drop:
        raise PeriodError("edge cycles do not span a unimodular lattice")
    vecs = [v for j, v in enumerate(np.eye(n, dtype=np.int64)) if j != drop[0]]
    a_rows, b_rows = [], []
    while vecs:
        x = vecs.pop(0)
        while True:
            c = [int(x @ k @ v) for v in vecs]
            t0 = min((t for t in range(len(vecs)) if c[t]), key=lambda t: abs(c[t]))
            if abs(c[t0]) == 1:
                break
            vecs = [v - (c[t] // c[t0]) * vecs[t0] if t != t0 else v for t, v in enumerate(vecs)]
        y = vecs.pop(t0) * c[t0]
        a_rows.append(x)
        b_rows.append(y)
        vecs = [v - int(v @ k @ y) * x + int(v @ k @ x) * y for v in vecs]
    return np.array(a_rows + b_rows)


def _lll(gram: np.ndarray) -> np.ndarray:
    """Unimodular U whose columns are an LLL-reduced basis (delta = 3/4) for the Gram matrix."""
    u, k = np.eye(len(gram), dtype=np.int64), 1
    while k < len(gram):
        for j in range(k - 1, -1, -1):   # mu_kj = chol[k, j] / chol[j, j]
            chol = np.linalg.cholesky(u.T @ gram @ u)
            u[:, k] -= round(chol[k, j] / chol[j, j]) * u[:, j]
        chol = np.linalg.cholesky(u.T @ gram @ u)
        mu = chol[k, k - 1] / chol[k - 1, k - 1]
        if chol[k, k] ** 2 >= (0.75 - mu * mu) * chol[k - 1, k - 1] ** 2:
            k += 1
        else:
            u[:, [k - 1, k]] = u[:, [k, k - 1]]
            k = max(k - 1, 1)
    return u


def _riemann(rows: np.ndarray, periods: np.ndarray, g: int):
    """a-periods, alpha = 2 pi i A^-1 and B of the cycles ``rows`` over the edge cycles."""
    a_mat = (rows[:g] @ periods).T      # A[i][j] = oint_{a_j} eta_i
    alpha = 2j * np.pi * np.linalg.inv(a_mat)
    return a_mat, alpha, (rows[g:] @ periods) @ alpha.T


def _siegel(rows: np.ndarray, periods: np.ndarray, g: int) -> np.ndarray:
    """Rows of a basis whose Omega = B / (2 pi i) is Siegel reduced: LLL on Im Omega
    (a -> U^-1 a, b -> U^T b), integer shifts of Re Omega (b -> b - T a), and while
    |Omega_11| < 1 the inversion a_1 -> b_1, b_1 -> -a_1."""
    for _ in range(100):
        b = _riemann(rows, periods, g)[2]
        u = _lll(((b + b.T) / (4j * np.pi)).imag)
        rows = np.vstack([np.round(np.linalg.inv(u)).astype(np.int64) @ rows[:g], u.T @ rows[g:]])
        omega = u.T @ (b + b.T) @ u / (4j * np.pi)
        omega = (omega + omega.T) / 2   # exactly symmetric, so T = round(Re Omega) is too
        shift = np.round(omega.real).astype(np.int64)
        rows[g:] -= shift @ rows[:g]
        if abs(omega[0, 0] - shift[0, 0]) >= 1 - 1e-12:
            return rows
        rows[[0, g]] = rows[[g, 0]] * np.array([[1], [-1]])
    raise PeriodError("Siegel reduction of the period matrix did not terminate")


def _riemann_characteristic(chars: np.ndarray) -> tuple:
    """The characteristic (m, n) of the vector of Riemann constants K, base e1, from
    the characteristics c_k (rows of ``chars``) of the other branch points.

    D = sum_{k in S} e_k + (g-1-|S|) e1 is a theta characteristic with h^0(D) =
    floor((g-1-|S|)/2) + 1 (Mumford, Tata Lectures on Theta II, ch. IIIa, 5-6; at
    g = 1, h^0(e_k - e1) = 0 fits the floor), and by Riemann's singularity theorem
    the parity m.n of A(D) + K is h^0(D) mod 2.  S = {} and S = {e_k} fix parity(K)
    and K's pairing with every c_k; the c_k span (Z/2)^2g, so one c fits.
    """
    g = chars.shape[1] // 2

    def parity(c):
        return int(c[:g] @ c[g:]) % 2

    fits = [c for c in map(np.array, itertools.product((0, 1), repeat=2 * g))
            if parity(c) == ((g - 1) // 2 + 1) % 2
            and all(parity(c + ck) == ((g - 2) // 2 + 1) % 2 for ck in chars)]
    if len(fits) != 1:
        raise PeriodError(f"{len(fits)} half-periods have the Riemann-Roch parities of the "
                          "branch points, whose characteristics " + (
                              f"do not span (Z/2)^{2 * g}" if fits else "are inconsistent"))
    return tuple(map(int, fits[0][:g])), tuple(map(int, fits[0][g:]))


@dataclass
class ThetaContext:
    curve: HyperellipticCurve
    edges: tuple               # spanning tree: (i, j) joins branch_points[i] and [j]
    a_periods: np.ndarray      # A[i][j] = oint_{a_j} eta_i (unnormalized)
    alpha: np.ndarray          # 2 pi i * A^{-1}; omega_i = sum_j alpha[i][j] eta_j
    b_matrix: np.ndarray       # normalized Riemann matrix, Re < 0, Siegel reduced
    half_periods: np.ndarray   # row k: H(branch_points[k]) = A_e1(branch_points[k])
    riemann_characteristic: tuple   # (m, n) in {0,1}^g: K = pi i m + B n / 2, base e1
    clearance: float           # smallest log rho of a tree edge's clear ellipse
    quadrature_bound: float    # largest a priori error of an edge cycle period

    def symmetry_defect(self) -> float:
        b = self.b_matrix
        return float(np.max(np.abs(b - b.T))) / max(1.0, float(np.max(np.abs(b))))


def period_matrix(curve: HyperellipticCurve) -> ThetaContext:
    """A-periods, normalization and the Riemann matrix of the curve, from one spanning tree."""
    return _period_matrix_at_clearance(curve, QUADRATURE_TARGET, ELLIPSE_FRACTION)


# Split from period_matrix while perfbench/tracer.py times each basis attempt by this name.
def _period_matrix_at_clearance(curve: HyperellipticCurve, target: float,
                                fraction: float) -> ThetaContext:
    """The tree basis; ``fraction`` of each edge's clear ellipse enters its quadrature bound."""
    g, points = curve.g, np.array(curve.branch_points)
    tree = _spanning_tree(points)
    edges = list(tree)
    cycles = [_edge_cycle(points, *e, chart, fraction, target) for e, chart in tree.items()]
    periods = np.array([c[0] for c in cycles])
    k = _intersections(edges, cycles)
    rows = _symplectic_basis(k)
    b = _riemann(rows, periods, g)[2]
    if (np.max(np.abs(b - b.T)) > 1e-8 * max(1.0, float(np.max(np.abs(b))))
            or not np.all(np.linalg.eigvalsh((b + b.T).real / 2) < 0)):
        raise PeriodError("tree basis gives no Riemann matrix (B asymmetric or Re B not < 0)")
    rows = _siegel(rows, periods, g)
    a_mat, alpha, b_matrix = _riemann(rows, periods, g)
    # H(b) - H(a) = period/2 along each edge (a to b on one sheet), H(e1) = 0: row k of
    # paths, the integer inverse of the incidence, is the tree path x from e1 to e_(k+1)
    incidence = np.zeros((len(edges), len(points)))
    for t, (i, j) in enumerate(edges):
        incidence[t, i], incidence[t, j] = -1, 1
    paths = np.rint(np.linalg.inv(incidence[:, 1:])).astype(np.int64)
    # x = sum_i (x.b_i) a_i - (x.a_i) b_i, so alpha H = pi i m + B n / 2 with
    # (m, n) = (x.b, x.a) mod 2: the columns x.a, x.b of the pairings, swapped
    chars = np.roll(paths @ k @ rows.T % 2, g, axis=1)
    return ThetaContext(
        curve=curve, edges=tuple(edges), a_periods=a_mat, alpha=alpha, b_matrix=b_matrix,
        half_periods=np.vstack([np.zeros(g), paths @ periods / 2]),
        riemann_characteristic=_riemann_characteristic(chars), clearance=min(c[4] for c in cycles),
        quadrature_bound=float(max(c[3] for c in cycles)))


@dataclass(frozen=True)
class VData:
    r: tuple            # exact rationals r_0..r_K
    vectors: tuple      # complex g-vectors V^(k), k = 0..K


def v_vectors(curve: HyperellipticCurve, ctx: ThetaContext, kmax: int) -> VData:
    """V^(k)_i = alpha_{i1} r_k + ... + alpha_{ig} r_{k-g+1}, r from the exact series."""
    q, g = curve.q_poly, curve.g
    s = USeries(0, [q.coeff(q.degree() - k) for k in range(kmax + g + 2)])  # 1 + q_1 u + ...
    r = tuple(s.inv_sqrt().coefficients(0, kmax + g + 2))
    return VData(r=r, vectors=tuple(
        ctx.alpha @ np.array([float(r[k + 1 - j]) if k + 1 >= j else 0.0 for j in range(1, g + 1)])
        for k in range(kmax + 1)))


def jacobian_point(curve: HyperellipticCurve, ctx: ThetaContext, divisor_points,
                   d_poly: Poly) -> np.ndarray:
    """abel_u0 reduced into the fundamental region; ``d_poly`` is D(z).  Whether theta
    vanishes there (a special divisor) is checked by ``verify_main_theorem``."""
    return reduce_mod_lattice(abel_u0(curve, ctx, divisor_points, d_poly), ctx.b_matrix)


def _zeta_leg(curve: HyperellipticCurve, e: complex, z: complex,
              w: complex) -> tuple[np.ndarray, complex]:
    """Integral of eta from the branch point e to the point over z, and w there.

    With z = e + zeta^2, w = zeta h(zeta) and h^2 = prod_k (zeta^2 - (e_k - e)),
    eta_i = z^(g-i) dzeta / h: a Gauss-Legendre sum from 0 to zeta (z is nearer
    to e than to any e_k).  It ends on the sheet of ``w``.
    """
    g, zeta = curve.g, np.sqrt(complex(z - e))
    m = zeta / 2                               # zeta(t) = m (1 + t), t in [-1, 1]
    s = np.sqrt(np.array([b - e for b in curve.branch_points if b != e]))
    u = (np.concatenate([s, -s]) - m) / m
    x, wts, _, _ = _rule(_bernstein(u), False, ELLIPSE_FRACTION, QUADRATURE_TARGET)
    roots, dprod = _root_product(np.append(x, 1.0), u)
    h = np.sqrt(m ** (4 * g + 2) * dprod) * roots
    val = m * (_powers(e + (m * (1 + x)) ** 2, g) / h[:-1]) @ wts
    w_end = complex(zeta * h[-1])
    if abs(w_end - w) > abs(w_end + w):
        val, w_end = -val, -w_end
    return val, w_end


def abel_u0(curve: HyperellipticCurve, ctx: ThetaContext, divisor_points,
            d_poly: Poly) -> np.ndarray:
    """The Jacobian point of the eigenvector line bundle; ``d_poly`` is D(z).

    With A based at P_plus, u0 = alpha (sum_j A(Q_j) - A(P_minus) - (g-1) A(e1))
    - K, where e1 = curve.branch_points[0].  sigma fixes e1 and negates eta, so
    A(P_minus) = 2 A(e1) and, modulo the lattice, u0 = alpha sum_j A_e1(Q_j) - K,
    where A_e1(Q_j) = H(e) + (zeta leg from e) for the branch point e nearest to
    Q_j.  Q_j is e exactly when its z is a root of gcd(D, Q): the deg gcd(D, Q)
    points nearest to a branch point are those, and have no leg.  K, the vector
    of Riemann constants for the base e1, is the half-period pi i m + B n / 2 of
    (m, n) = ctx.riemann_characteristic (see ``_riemann_characteristic``).
    """
    g = curve.g
    if len(divisor_points) != g + 1:
        raise PeriodError(f"need g+1 = {g + 1} divisor points, got {len(divisor_points)}")
    # (distance to the nearest branch point, its index, the divisor point's index)
    near = sorted((*min((abs(e - complex(pt.z)), k) for k, e in enumerate(curve.branch_points)), j)
                  for j, pt in enumerate(divisor_points))
    at_branch = poly_gcd(d_poly, curve.q_poly).degree()
    total = np.zeros(g, dtype=complex)
    for t, (_, k, j) in enumerate(near):
        total += ctx.half_periods[k]
        if t < at_branch:
            continue  # the branch point itself: one point, no sheet to choose
        z, w = complex(divisor_points[j].z), complex(divisor_points[j].w)
        leg, w_end = _zeta_leg(curve, curve.branch_points[k], z, w)
        if abs(w_end - w) > 1e-6 * max(1.0, abs(w)):
            raise PeriodError(f"Abel leg did not land on the requested sheet "
                              f"(got {w_end:.6g}, want {w:.6g})")
        total += leg
    m, n = (np.array(c, dtype=float) for c in ctx.riemann_characteristic)
    return ctx.alpha @ total - (1j * np.pi * m + ctx.b_matrix @ n / 2)


def v_consistency_defect(curve: HyperellipticCurve, ctx: ThetaContext, vdata: VData,
                         kmax: int) -> float:
    """Worst deviation over k <= kmax of V^(k)/2 from the contour coefficients of
    omega_i z^(k+1) on the + sheet w = z^(g+1) prod_k (1 - e_k/z)^(1/2) of
    |z| = 2.5 max(1, |e_k|) + 2 (each factor has a positive real part there)."""
    npts, scale = 800, max(1.0, *map(abs, curve.branch_points))
    zs = (2.5 * scale + 2.0) * np.exp(2j * np.pi * np.arange(npts) / npts)
    roots = np.sqrt(1 - np.array(curve.branch_points)[:, None] / zs)
    ws = zs ** (curve.g + 1) * np.prod(roots, axis=0)
    omegas = ctx.alpha @ (_powers(zs, curve.g) / (2 * ws))
    dz = 1j * zs * (2 * np.pi / npts)
    return max(float(np.max(np.abs((omegas * zs ** (k + 1) * dz).sum(axis=1) / (2j * np.pi)
                                   - vdata.vectors[k] / 2))) for k in range(kmax + 1))
