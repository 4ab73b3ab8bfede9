"""Periods and Abel map of hyperelliptic curves w^2 = Q(z), deg Q = 2g+2.

Homology model: the 2g+2 branch points are paired into g+1 non-crossing cuts.
Cycle a_j is a loop around cut j; collapsed onto the cut it equals minus twice
the one-sided integral along the cut, with the square-root singularities at
the endpoints removed by the substitution z = e + zeta^2.  Cycle b_j threads
cut j and the last cut; collapsed it equals twice the integral of a tracked
branch along a routed path from the midpoint of cut j to a station on the
last cut.  One global branch is anchored at a real point beyond all branch
points, where w = +sqrt(Q) > 0; every path pins its starting value by
numerical continuation from the anchor, so sheet bookkeeping is uniform.

Everything here is floating-point; exactness guarantees live upstream.  The
basis is validated a posteriori: the normalized period matrix must be
symmetric with negative-definite real part (after at most a global flip of
the b-cycles).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .curve import MatrixPolynomial, characteristic_data
from .polynomials import Poly, is_squarefree
from .series import USeries


class PeriodError(Exception):
    pass


class PathError(PeriodError):
    pass


class QuadratureError(PeriodError):
    pass


# ---------------------------------------------------------------------------
# curve container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperellipticCurve:
    q_poly: Poly
    g: int
    branch_points: tuple

    @staticmethod
    def from_q(q_poly: Poly) -> "HyperellipticCurve":
        deg = q_poly.degree()
        if deg < 4 or deg % 2 != 0:
            raise PeriodError("Q must have even degree >= 4")
        if q_poly.leading() != 1:
            raise PeriodError("Q must be monic")
        if not is_squarefree(q_poly):
            raise PeriodError("Q must be squarefree")
        g = deg // 2 - 1
        roots = np.roots(q_poly.float_coeffs_descending())
        dq = q_poly.derivative()
        polished = []
        for r in roots:
            z = complex(r)
            for _ in range(60):
                d = dq(z)
                if d == 0:
                    break
                step = q_poly(z) / d
                z -= step
                if abs(step) < 1e-15 * max(1.0, abs(z)):
                    break
            polished.append(z)
        polished.sort(key=lambda t: (t.real, t.imag))
        mind = min(abs(a - b) for a, b in itertools.combinations(polished, 2))
        if mind < 1e-9:
            raise PeriodError("branch points are numerically degenerate")
        return HyperellipticCurve(q_poly=q_poly, g=g, branch_points=tuple(polished))

    @staticmethod
    def from_matrix_polynomial(w: MatrixPolynomial) -> "HyperellipticCurve":
        if w.n != 2:
            raise PeriodError("hyperelliptic pipeline needs n = 2")
        curve = characteristic_data(w, with_diagnostics=False)
        if not curve.a(1).is_zero():
            raise PeriodError("hyperelliptic pipeline needs tr W = 0")
        q = -curve.a(2)
        if q.degree() != 2 * w.m or q.leading() != 1:
            raise PeriodError(
                "curve must be w^2 = monic Q of degree 2m (normalize the leading entries to (1, -1))"
            )
        return HyperellipticCurve.from_q(q)

    def q_at(self, z: complex) -> complex:
        return complex(self.q_poly(z))

    def scale(self) -> float:
        return max(1.0, max(abs(e) for e in self.branch_points))


# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------

def _seg_point_dist(a: complex, b: complex, p: complex) -> float:
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0:
        return abs(p - a)
    t = ((p - a).real * ab.real + (p - a).imag * ab.imag) / denom
    t = min(1.0, max(0.0, t))
    return abs(a + t * ab - p)


def _segments_intersect(a1: complex, a2: complex, b1: complex, b2: complex) -> bool:
    def orient(p, q, r):
        v = (q - p).real * (r - p).imag - (q - p).imag * (r - p).real
        if abs(v) < 1e-14:
            return 0
        return 1 if v > 0 else -1

    o1, o2 = orient(a1, a2, b1), orient(a1, a2, b2)
    o3, o4 = orient(b1, b2, a1), orient(b1, b2, a2)
    if o1 != o2 and o3 != o4:
        return True
    return False


def _seg_seg_dist(a1, a2, b1, b2) -> float:
    if _segments_intersect(a1, a2, b1, b2):
        return 0.0
    return min(
        _seg_point_dist(a1, a2, b1),
        _seg_point_dist(a1, a2, b2),
        _seg_point_dist(b1, b2, a1),
        _seg_point_dist(b1, b2, a2),
    )


def _choose_cuts(points: tuple) -> list[tuple[complex, complex]]:
    """Pair branch points into non-crossing, well-separated cuts.

    All perfect matchings are enumerated (at most 10395 for g <= 3); kept are
    those whose segments stay clear of the remaining branch points and of each
    other, and among them the one of minimal total length, ties broken by the
    sorted endpoint list for determinism.
    """
    pts = list(points)
    npts = len(pts)
    sep = min(abs(a - b) for a, b in itertools.combinations(pts, 2))
    best = None

    def matchings(idx):
        if not idx:
            yield []
            return
        first = idx[0]
        for k in range(1, len(idx)):
            pair = (first, idx[k])
            rest = idx[1:k] + idx[k + 1:]
            for sub in matchings(rest):
                yield [pair] + sub

    for match in matchings(list(range(npts))):
        segs = [(pts[i], pts[j]) for i, j in match]
        ok = True
        for (p, q) in segs:
            for x in pts:
                if x in (p, q):
                    continue
                if _seg_point_dist(p, q, x) < sep / 4:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for s1, s2 in itertools.combinations(segs, 2):
                if _seg_seg_dist(s1[0], s1[1], s2[0], s2[1]) < sep / 10:
                    ok = False
                    break
        if not ok:
            continue
        total = sum(abs(q - p) for p, q in segs)
        key = (total, tuple(sorted((min(p.real, q.real), min(p.imag, q.imag)) for p, q in segs)))
        if best is None or key < best[0]:
            ordered = []
            for p, q in segs:
                if (q.real, q.imag) < (p.real, p.imag):
                    p, q = q, p
                ordered.append((p, q))
            ordered.sort(key=lambda s: ((s[0] + s[1]).real / 2, (s[0] + s[1]).imag / 2))
            best = (key, ordered)
    if best is None:
        raise PeriodError("no admissible cut system found for this branch configuration")
    return best[1]


# ---------------------------------------------------------------------------
# quadrature with branch tracking
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gl(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


@dataclass
class QuadratureSettings:
    gl_order: int = 24
    gl_order_fine: int = 40
    target: float = 1e-12
    hard_limit: float = 1e-10
    max_doublings: int = 12


def _track_sqrt(values, start):
    """Continuous branch of sqrt(values[k]) seeded near ``start``."""
    out = []
    prev = start
    for v in values:
        r = np.sqrt(complex(v))
        if abs(r - prev) > abs(r + prev):
            r = -r
        out.append(r)
        prev = r
    return out


class _SheetTracker:
    """Continuation of w = sqrt(Q) along polylines, with step-size control."""

    def __init__(self, curve: HyperellipticCurve):
        self.curve = curve
        self.branch = np.array(curve.branch_points)

    def _min_dist(self, z: complex) -> float:
        return float(np.min(np.abs(self.branch - z)))

    def _subdivide(self, z0: complex, z1: complex, depth: int = 0) -> list[complex]:
        mid = (z0 + z1) / 2
        d = min(self._min_dist(z0), self._min_dist(mid), self._min_dist(z1))
        if abs(z1 - z0) <= 0.2 * d or depth > 40:
            if d <= 0:
                raise PathError("path runs through a branch point")
            return [z1]
        return self._subdivide(z0, mid, depth + 1) + self._subdivide(mid, z1, depth + 1)

    def continue_along(self, points: list[complex], w_start: complex) -> complex:
        w = w_start
        for z0, z1 in zip(points, points[1:]):
            for z in self._subdivide(z0, z1):
                r = np.sqrt(self.curve.q_at(z))
                w = r if abs(r - w) <= abs(r + w) else -r
        return complex(w)


def _eta_matrix(curve: HyperellipticCurve, zs, ws):
    """Rows: eta_i = z^(g-i)/(2w) for i = 1..g, at the given points."""
    g = curve.g
    zs = np.asarray(zs)
    ws = np.asarray(ws)
    return np.stack([zs ** (g - i) / (2 * ws) for i in range(1, g + 1)])


class _PathIntegrator:
    def __init__(self, curve: HyperellipticCurve, settings: QuadratureSettings):
        self.curve = curve
        self.s = settings
        self.tracker = _SheetTracker(curve)

    def _segment(self, z0, z1, w_start, order):
        nodes, weights = _gl(order)
        zs = z0 + (nodes + 1) / 2 * (z1 - z0)
        q_vals = [self.curve.q_at(z) for z in zs]
        ws = _track_sqrt(q_vals, w_start)
        vals = _eta_matrix(self.curve, zs, ws)
        integral = vals @ weights * (z1 - z0) / 2
        w_end_sq = self.curve.q_at(z1)
        r = np.sqrt(w_end_sq)
        w_end = r if abs(r - ws[-1]) <= abs(r + ws[-1]) else -r
        return integral, complex(w_end)

    def _polyline_once(self, points, w_start, order, extra_splits):
        total = np.zeros(self.curve.g, dtype=complex)
        w = w_start
        for z0, z1 in zip(points, points[1:]):
            pieces = self.tracker._subdivide(z0, z1)
            zprev = z0
            for z in pieces:
                sub = 2 ** extra_splits
                for k in range(sub):
                    za = zprev + (z - zprev) * k / sub
                    zb = zprev + (z - zprev) * (k + 1) / sub
                    val, w = self._segment(za, zb, w, order)
                    total += val
                zprev = z
        return total, w

    def polyline(self, points, w_start):
        prev = None
        for splits in range(self.s.max_doublings):
            coarse, w_end = self._polyline_once(points, w_start, self.s.gl_order, splits)
            fine, w_end_f = self._polyline_once(points, w_start, self.s.gl_order_fine, splits)
            err = float(np.max(np.abs(coarse - fine)))
            if err < self.s.target and abs(w_end - w_end_f) < 1e-9 * max(1.0, abs(w_end)):
                return fine, w_end_f, err
            prev = (fine, w_end_f, err)
        if prev is not None and prev[2] < self.s.hard_limit:
            return prev
        raise QuadratureError(
            f"quadrature on a path failed to converge (last error {prev[2] if prev else float('nan')})"
        )


class _ZetaIntegrator:
    """Integrals of eta in the local chart z = e + zeta^2 near a branch point e.

    There w = zeta * h(zeta) with h = sqrt((Q(e + X) - Q(e))/X) at X = zeta^2,
    analytic and nonvanishing on a disk that excludes the other branch points;
    eta_i = (e + zeta^2)^(g-i) / h(zeta) d zeta, perfectly regular at zeta = 0.
    """

    def __init__(self, curve: HyperellipticCurve, e: complex, settings: QuadratureSettings):
        self.curve = curve
        self.s = settings
        self.e = complex(e)
        coeffs = [complex(c) for c in curve.q_poly.coeffs]
        shifted = _taylor_shift(coeffs, self.e)
        self.gcoeffs = shifted[1:]  # (Q(e+X) - Q(e))/X, constant term dropped
        self.sing = np.array(
            [s for b in curve.branch_points if abs(b - self.e) > 1e-12
             for s in (np.sqrt(complex(b - self.e)), -np.sqrt(complex(b - self.e)))]
        )

    def _g_at(self, x: complex) -> complex:
        acc = 0j
        for c in reversed(self.gcoeffs):
            acc = acc * x + c
        return acc

    def _h_values(self, zetas, h_start):
        return _track_sqrt([self._g_at(z * z) for z in zetas], h_start)

    def _min_dist(self, zeta: complex) -> float:
        return float(np.min(np.abs(self.sing - zeta))) if len(self.sing) else float("inf")

    def _subdivide(self, a, b, depth=0):
        mid = (a + b) / 2
        d = min(self._min_dist(a), self._min_dist(mid), self._min_dist(b))
        if abs(b - a) <= 0.25 * d or depth > 40:
            return [b]
        return self._subdivide(a, mid, depth + 1) + self._subdivide(mid, b, depth + 1)

    def _once(self, z_from, z_to, h_start, order, extra_splits):
        g = self.curve.g
        total = np.zeros(g, dtype=complex)
        h = h_start
        pieces = self._subdivide(z_from, z_to)
        prev = z_from
        for piece in pieces:
            sub = 2 ** extra_splits
            for k in range(sub):
                a = prev + (piece - prev) * k / sub
                b = prev + (piece - prev) * (k + 1) / sub
                nodes, weights = _gl(order)
                zs = a + (nodes + 1) / 2 * (b - a)
                hs = self._h_values(zs, h)
                zz = self.e + zs ** 2
                vals = np.stack([zz ** (g - i) / np.array(hs) for i in range(1, g + 1)])
                total += vals @ weights * (b - a) / 2
                h = hs[-1]
                r = np.sqrt(self._g_at(b * b))
                h = r if abs(r - h) <= abs(r + h) else -r
            prev = piece
        return total, h

    def integrate(self, zeta_from, zeta_to, h_at_from):
        prev = None
        for splits in range(self.s.max_doublings):
            coarse, _ = self._once(zeta_from, zeta_to, h_at_from, self.s.gl_order, splits)
            fine, _ = self._once(zeta_from, zeta_to, h_at_from, self.s.gl_order_fine, splits)
            err = float(np.max(np.abs(coarse - fine)))
            if err < self.s.target:
                return fine, err
            prev = (fine, err)
        if prev is not None and prev[1] < self.s.hard_limit:
            return prev
        raise QuadratureError("quadrature on a branch-point leg failed to converge")


def _taylor_shift(coeffs_ascending: list[complex], e: complex) -> list[complex]:
    """Coefficients of p(e + X) in ascending powers of X (repeated synthetic division)."""
    c = [complex(x) for x in coeffs_ascending]
    out = []
    while c:
        for k in range(len(c) - 2, -1, -1):
            c[k] = c[k] + e * c[k + 1]
        out.append(c[0])
        c = c[1:]
    return out


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------

class _Router:
    """Piecewise-linear paths avoiding branch-point disks and, optionally, cuts."""

    def __init__(self, curve: HyperellipticCurve, cuts, clearance: float, avoid_cuts: bool = True,
                 bias: float = 1.0, ignore_points: tuple = (), extra_segments: tuple = ()):
        self.curve = curve
        self.cuts = cuts
        self.clearance = clearance
        self.avoid_cuts = avoid_cuts
        self.bias = bias
        self.ignore_points = ignore_points
        self.extra_segments = extra_segments

    def _blocking(self, a: complex, b: complex):
        for p in self.curve.branch_points:
            if any(abs(p - q) < 1e-12 for q in self.ignore_points):
                continue
            if _seg_point_dist(a, b, p) < self.clearance * 0.6:
                return ("point", p)
        if self.avoid_cuts:
            for (p, q) in self.cuts:
                if _segments_intersect(a, b, p, q) or _seg_seg_dist(a, b, p, q) < self.clearance * 0.5:
                    return ("cut", (p, q))
        for (p, q) in self.extra_segments:
            if _segments_intersect(a, b, p, q) or _seg_seg_dist(a, b, p, q) < self.clearance * 0.25:
                return ("cut", (p, q))
        return None

    def _corner_nodes(self) -> list[complex]:
        nodes: list[complex] = []
        radii = [2.0 * self.clearance, 3.5 * self.clearance, 6.0 * self.clearance]
        for p in self.curve.branch_points:
            if any(abs(p - q) < 1e-12 for q in self.ignore_points):
                continue
            for kappa in radii:
                nodes.extend([p + kappa, p - kappa, p + 1j * kappa, p - 1j * kappa])
        segments = list(self.cuts) if self.avoid_cuts else []
        for (p, q) in segments:
            u = (q - p) / abs(q - p)
            n = 1j * u
            mc = (p + q) / 2
            for kappa in radii:
                nodes.extend([
                    p - kappa * u + kappa * n, p - kappa * u - kappa * n,
                    q + kappa * u + kappa * n, q + kappa * u - kappa * n,
                    mc + kappa * n, mc - kappa * n,
                ])
        for (p, q) in self.extra_segments:
            d = q - p
            n = 1j * d / abs(d) if abs(d) > 1e-12 else 1j
            for point in (p, q):
                for kappa in radii[:2]:
                    nodes.extend([point + kappa * n, point - kappa * n])
        return nodes

    def route(self, a: complex, b: complex) -> list[complex]:
        """Shortest clear polyline from a to b via a visibility graph."""
        if self._blocking(a, b) is None:
            return [a, b]
        import heapq

        nodes = [a, b] + self._corner_nodes()
        npts = len(nodes)
        dist = [float("inf")] * npts
        prev: list[int | None] = [None] * npts
        dist[0] = 0.0
        heap = [(0.0, 0)]
        done = [False] * npts
        while heap:
            d, i = heapq.heappop(heap)
            if done[i]:
                continue
            done[i] = True
            if i == 1:
                break
            for j in range(npts):
                if done[j]:
                    continue
                step = abs(nodes[j] - nodes[i])
                nd = d + step
                if nd >= dist[j]:
                    continue
                if self._blocking(nodes[i], nodes[j]) is None:
                    dist[j] = nd
                    prev[j] = i
                    heapq.heappush(heap, (nd, j))
        if not done[1]:
            raise PathError("routing failed: obstacle field too dense")
        path = [1]
        while path[-1] != 0:
            path.append(prev[path[-1]])
        return [nodes[i] for i in reversed(path)]

    @staticmethod
    def _join(p1: list[complex], p2: list[complex]) -> list[complex]:
        return p1 + p2[1:]


# ---------------------------------------------------------------------------
# the period context
# ---------------------------------------------------------------------------

@dataclass
class ThetaContext:
    curve: HyperellipticCurve
    cuts: tuple
    a_periods: np.ndarray      # A[i][j] = oint_{a_j} eta_i (unnormalized)
    alpha: np.ndarray          # 2 pi i * A^{-1}; omega_i = sum_j alpha[i][j] eta_j
    b_matrix: np.ndarray       # normalized Riemann matrix, Re < 0
    anchor: complex
    anchor_w: complex
    clearance: float
    settings: QuadratureSettings = field(default_factory=QuadratureSettings)
    b_flipped: bool = False
    lattice_radius: int = 40

    def symmetry_defect(self) -> float:
        b = self.b_matrix
        denom = max(1.0, float(np.max(np.abs(b))))
        return float(np.max(np.abs(b - b.T))) / denom


def _anchor_for(curve: HyperellipticCurve) -> tuple[complex, complex]:
    r0 = 2.5 * curve.scale() + 2.0
    while curve.q_at(r0).real <= 0 or abs(curve.q_at(r0).imag) > 1e-12:
        r0 *= 1.5
        if r0 > 1e9:
            raise PeriodError("could not place a real anchor beyond the branch points")
    return complex(r0), complex(np.sqrt(curve.q_at(r0).real))


def period_matrix(curve: HyperellipticCurve,
                  settings: QuadratureSettings | None = None) -> ThetaContext:
    """A-periods, normalization and the Riemann matrix of the curve.

    Routing is retried with a shrinking clearance: crowded branch
    configurations leave narrow corridors, and a smaller standoff only costs
    quadrature refinement, which the adaptive integrator absorbs.
    """
    settings = settings or QuadratureSettings()
    last: Exception | None = None
    for station_order in ("descending", "ascending"):
        for shrink in (1.0, 0.5, 0.25, 0.1):
            try:
                return _period_matrix_at_clearance(curve, settings, shrink, station_order)
            except PathError as exc:
                last = exc
            except PeriodError as exc:
                if "routing" not in str(exc) and "close on the surface" not in str(exc):
                    raise
                last = exc
    raise PeriodError(f"period computation failed at every clearance: {last}")


def _period_matrix_at_clearance(curve: HyperellipticCurve, settings: QuadratureSettings,
                                shrink: float, station_order: str = "descending") -> ThetaContext:
    g = curve.g
    cuts = tuple(_choose_cuts(curve.branch_points))
    sep = min(abs(a - b) for a, b in itertools.combinations(curve.branch_points, 2))
    clearance = min(sep / 8, curve.scale() / 20) * shrink
    anchor, anchor_w = _anchor_for(curve)
    tracker = _SheetTracker(curve)
    router = _Router(curve, cuts, clearance, avoid_cuts=True)
    integ = _PathIntegrator(curve, settings)

    mid_w: list[complex] = []
    for (p, q) in cuts:
        mc = (p + q) / 2
        u = (q - p) / abs(q - p)
        nvec = 1j * u
        standoff = mc + 2 * clearance * nvec
        path = router.route(anchor, standoff)
        w_standoff = tracker.continue_along(path, anchor_w)
        w_mc = tracker.continue_along([standoff, mc], w_standoff)
        mid_w.append(w_mc)

    # a-periods: collapsed loops, counterclockwise = -2 * (one-sided p -> q)
    a_mat = np.zeros((g, g), dtype=complex)
    for j in range(g):
        p, q = cuts[j]
        mc = (p + q) / 2
        w_mc = mid_w[j]
        zeta_p = np.sqrt(complex(mc - p))
        zeta_q = np.sqrt(complex(mc - q))
        zp = _ZetaIntegrator(curve, p, settings)
        zq = _ZetaIntegrator(curve, q, settings)
        leg_p, _ = zp.integrate(zeta_p, 0.0, w_mc / zeta_p)   # int from mc down to p
        leg_q, _ = zq.integrate(zeta_q, 0.0, w_mc / zeta_q)
        int_p_mc = -leg_p     # int_p^mc
        int_mc_q = leg_q      # int_mc^q = -int_q^mc = -(-leg_q)
        a_mat[:, j] = -2 * (int_p_mc + int_mc_q)

    # b-periods: honest closed loops crossing cut j and the last cut once each.
    # The loop leaves the midpoint of cut j on its + side, reaches a station on
    # the last cut, passes straight through it, and returns on the - sides.
    # Any accidental enclosure of a whole other cut only adds a-cycles, which
    # shifts B by full periods; an odd enclosure would break the closure of the
    # tracked branch and is asserted against.
    plast, qlast = cuts[g]
    ulast = (qlast - plast) / abs(qlast - plast)
    nlast = 1j * ulast
    b_raw = np.zeros((g, g), dtype=complex)
    b_loops: list[list[complex]] = []
    built_segments: list[tuple[complex, complex]] = []
    for j in range(g):
        p, q = cuts[j]
        mc = (p + q) / 2
        u = (q - p) / abs(q - p)
        nvec = 1j * u
        # inner loops (larger j) must cross the last cut nearer the endpoint the
        # loop family encloses, or the nesting cannot be drawn without crossings
        frac = (g - j) / (g + 1) if station_order == "descending" else (j + 1) / (g + 1)
        station = plast + frac * (qlast - plast)
        xa = mc + 2 * clearance * nvec
        xb = mc - 2 * clearance * nvec
        ya = station + 2 * clearance * nlast
        yb = station - 2 * clearance * nlast
        points = None
        for bias in (1.0, -1.0):
            loop_router = _Router(curve, cuts, clearance, avoid_cuts=True, bias=bias,
                                  extra_segments=tuple(built_segments))
            try:
                fwd = loop_router.route(xa, ya)
                back = loop_router.route(yb, xb)
            except PathError:
                continue
            points = [mc] + fwd + [station] + back + [mc]
            break
        if points is None:
            raise PeriodError("b-cycle routing failed; basis construction failed")
        val, w_end, _ = integ.polyline(points, mid_w[j])
        if abs(w_end - mid_w[j]) > 1e-7 * max(1.0, abs(mid_w[j])):
            raise PeriodError(
                f"b-cycle {j + 1} does not close on the surface "
                f"(branch defect {abs(w_end - mid_w[j]):.2e}); routing crossed a cut"
            )
        b_raw[j, :] = val
        b_loops.append(points)
        built_segments.extend(zip(points, points[1:]))

    for r1, r2 in itertools.combinations(b_loops, 2):
        for s1 in zip(r1, r1[1:]):
            for s2 in zip(r2, r2[1:]):
                if _segments_intersect(s1[0], s1[1], s2[0], s2[1]):
                    raise PeriodError("b-cycle routes cross; basis construction failed")

    alpha = 2j * np.pi * np.linalg.inv(a_mat)
    b_matrix = b_raw @ alpha.T
    ctx = ThetaContext(
        curve=curve, cuts=cuts, a_periods=a_mat, alpha=alpha, b_matrix=b_matrix,
        anchor=anchor, anchor_w=anchor_w, clearance=clearance, settings=settings,
    )
    if ctx.symmetry_defect() > 1e-8:
        raise PeriodError(
            f"period matrix is not symmetric (defect {ctx.symmetry_defect():.2e}); "
            "basis-orientation error"
        )
    sym = (ctx.b_matrix + ctx.b_matrix.T).real / 2
    eig = np.linalg.eigvalsh(sym)
    if np.all(eig > 0):
        ctx.b_matrix = -ctx.b_matrix
        ctx.b_flipped = True
    elif not np.all(eig < 0):
        raise PeriodError("Re(B) is indefinite; basis-orientation error")
    return ctx


# ---------------------------------------------------------------------------
# V vectors and the Abel map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VData:
    r: tuple            # exact rationals r_0..r_K
    vectors: tuple      # complex g-vectors V^(k), k = 0..K


def v_vectors(curve: HyperellipticCurve, ctx: ThetaContext, kmax: int) -> VData:
    """V^(k)_i = alpha_{i1} r_k + ... + alpha_{ig} r_{k-g+1}, r from the exact series."""
    q = curve.q_poly
    deg = q.degree()
    length = kmax + curve.g + 2
    s = USeries(0, [q.coeff(deg - k) for k in range(length)])  # 1 + q_1 u + q_2 u^2 + ...
    r = tuple(s.inv_sqrt().coefficients(0, length))
    vectors = []
    for k in range(kmax + 1):
        v = np.zeros(curve.g, dtype=complex)
        for i in range(curve.g):
            acc = 0j
            for j in range(1, curve.g + 1):
                idx = k + 1 - j
                if idx >= 0:
                    acc += ctx.alpha[i][j - 1] * float(r[idx])
            v[i] = acc
        vectors.append(v)
    return VData(r=r, vectors=tuple(vectors))


@dataclass(frozen=True)
class JacobianPoint:
    u0: np.ndarray
    theta_value: complex


def jacobian_point(curve: HyperellipticCurve, ctx: ThetaContext, divisor_points,
                   bias: float = 1.0) -> JacobianPoint:
    """abel_u0 reduced into the fundamental region, with the nonspeciality check."""
    from .theta import reduce_mod_lattice, theta

    u0 = reduce_mod_lattice(abel_u0(curve, ctx, divisor_points, bias=bias), ctx.b_matrix)
    value = theta(u0, ctx)
    if abs(value) <= 1e-10:
        raise PeriodError("theta vanishes at the divisor point; divisor is special")
    return JacobianPoint(u0=u0, theta_value=complex(value))


def _infinity_leg(curve: HyperellipticCurve, t_end: float,
                  settings: QuadratureSettings) -> tuple[np.ndarray, complex]:
    """Integral of eta from P_plus (t = 0) to z = 1/t_end on the real axis.

    In the chart t = 1/z the unnormalized differentials become
    eta_i = -t^(i-1) dt / (2 s(t)) with s = sqrt(t^(2g+2) Q(1/t)), s(0) = +1.
    Returns the integral vector and w at the endpoint.
    """
    g = curve.g
    q = curve.q_poly
    deg = q.degree()
    rev = [complex(q.coeff(deg - k)) for k in range(deg + 1)]

    def qhat(t):
        acc = 0j
        for c in reversed(rev):
            acc = acc * t + c
        return acc

    # branch points map to t = 1/e; one at the origin maps out to t = infinity
    sing = np.array([1 / b for b in curve.branch_points if abs(b) > 1e-12])

    def subdiv(a, b, depth=0):
        if len(sing) == 0:
            return [b]
        mid = (a + b) / 2
        d = min(np.min(np.abs(sing - a)), np.min(np.abs(sing - mid)), np.min(np.abs(sing - b)))
        if abs(b - a) <= 0.25 * d or depth > 40:
            return [b]
        return subdiv(a, mid, depth + 1) + subdiv(mid, b, depth + 1)

    def once(order, extra):
        total = np.zeros(g, dtype=complex)
        s_val = 1.0 + 0j
        prev = 0.0
        for piece in subdiv(0.0, t_end):
            sub = 2 ** extra
            for k in range(sub):
                a = prev + (piece - prev) * k / sub
                b = prev + (piece - prev) * (k + 1) / sub
                nodes, weights = _gl(order)
                ts = a + (nodes + 1) / 2 * (b - a)
                svals = _track_sqrt([qhat(t) for t in ts], s_val)
                vals = np.stack(
                    [-(ts ** (i - 1)) / (2 * np.array(svals)) for i in range(1, g + 1)]
                )
                total += vals @ weights * (b - a) / 2
                s_val = svals[-1]
                r = np.sqrt(qhat(b))
                s_val = r if abs(r - s_val) <= abs(r + s_val) else -r
            prev = piece
        return total, s_val

    best = None
    for extra in range(settings.max_doublings):
        coarse, _ = once(settings.gl_order, extra)
        fine, s_end = once(settings.gl_order_fine, extra)
        err = float(np.max(np.abs(coarse - fine)))
        if err < settings.target:
            w_end = s_end / (t_end ** (g + 1))
            return fine, complex(w_end)
        best = (fine, s_end, err)
    if best and best[2] < settings.hard_limit:
        return best[0], complex(best[1] / (t_end ** (g + 1)))
    raise QuadratureError("quadrature on the infinity leg failed to converge")


def _abel_to_regular_point(curve: HyperellipticCurve, ctx: ThetaContext,
                           z_target: complex, bias: float = 1.0):
    """Integral of eta from P_plus to z_target along a tracked path.

    Returns (vector, w_end): the branch at the endpoint is whatever the
    continuation produced.  Only branch points are avoided when routing:
    crossing a cut changes the path class by full periods, which the theta
    identities do not see.
    """
    settings = ctx.settings
    t_end = 1.0 / ctx.anchor.real
    total, w_here = _infinity_leg(curve, t_end, settings)
    if abs(w_here - ctx.anchor_w) > 1e-6 * max(1.0, abs(ctx.anchor_w)):
        raise PeriodError("infinity leg does not reach the anchor on the + sheet")
    near_target = tuple(b for b in curve.branch_points if abs(b - z_target) < 2 * ctx.clearance)
    router = _Router(curve, ctx.cuts, ctx.clearance, avoid_cuts=False, bias=bias,
                     ignore_points=near_target)
    integ = _PathIntegrator(curve, settings)
    path = router.route(ctx.anchor, z_target)
    val, w_end, _ = integ.polyline(path, w_here)
    return total + val, w_end


def abel_from_plus_infinity(curve: HyperellipticCurve, ctx: ThetaContext,
                            z_target: complex, w_target: complex,
                            bias: float = 1.0) -> np.ndarray:
    """Integral vector of the unnormalized eta from P_plus to (z_target, w_target).

    The path runs down the real axis from infinity to the anchor, then along a
    routed polyline to the target; if continuation lands on the opposite sheet
    a flip leg around the nearest branch point corrects it.  A target at a
    ramification point (w = 0) needs no sheet choice at all.
    """
    settings = ctx.settings
    nearest = min(curve.branch_points, key=lambda b: abs(b - z_target))
    if abs(nearest - z_target) < 1e-7 * curve.scale():
        return _abel_to_branch_point(curve, ctx, nearest, bias=bias)
    integ = _PathIntegrator(curve, settings)
    total, w_end = _abel_to_regular_point(curve, ctx, z_target, bias)
    if abs(w_end - w_target) > abs(w_end + w_target):
        # wrong sheet: flip around the nearest branch point
        e = min(curve.branch_points, key=lambda b: abs(b - z_target))
        others = [abs(b - e) for b in curve.branch_points if abs(b - e) > 1e-12]
        rho = min(ctx.clearance, abs(z_target - e) / 2, min(others) / 3)
        direction = (z_target - e) / abs(z_target - e)
        x = e + rho * direction
        flip_router = _Router(curve, ctx.cuts, ctx.clearance, avoid_cuts=False,
                              bias=bias, ignore_points=(e,))
        path_in = flip_router.route(z_target, x)
        val_in, w_x, _ = integ.polyline(path_in, w_end)
        total = total + val_in
        zeta0 = np.sqrt(complex(x - e))
        zi = _ZetaIntegrator(curve, e, settings)
        flip_val, _ = zi.integrate(zeta0, -zeta0, w_x / zeta0)
        total = total + flip_val
        val_out, w_back, _ = integ.polyline(list(reversed(path_in)), -w_x)
        total = total + val_out
        w_end = w_back
    if abs(w_end - w_target) > 1e-6 * max(1.0, abs(w_target)):
        raise PeriodError(
            f"Abel path did not land on the requested sheet (got {w_end:.6g}, want {w_target:.6g})"
        )
    return total


def _abel_to_branch_point(curve: HyperellipticCurve, ctx: ThetaContext,
                          e: complex, bias: float = 1.0) -> np.ndarray:
    """Integral of eta from P_plus to the branch point e (any path; the
    ambiguity is full periods plus nothing else since (e, 0) is a single point)."""
    others = [abs(b - e) for b in curve.branch_points if abs(b - e) > 1e-12]
    rho = min(ctx.clearance, min(others) / 3)
    direction = (ctx.anchor - e) / abs(ctx.anchor - e)
    x = e + rho * direction
    vec, w_x = _abel_to_regular_point(curve, ctx, x, bias)
    zeta0 = np.sqrt(complex(x - e))
    zi = _ZetaIntegrator(curve, e, ctx.settings)
    leg, _ = zi.integrate(zeta0, 0.0, w_x / zeta0)   # integral from x down to e
    return vec + leg


def half_period_pattern(g: int) -> np.ndarray:
    """The printed half-period shift pi*i*(1,0,1,0,...) + B*ones/2 uses this pattern."""
    return np.array([1 if (i % 2 == 0) else 0 for i in range(g)], dtype=float)


def abel_u0(curve: HyperellipticCurve, ctx: ThetaContext, divisor_points,
            bias: float = 1.0) -> np.ndarray:
    """The Jacobian point of the eigenvector line bundle, up to a half-period.

    The degree-zero combination behind it is (divisor) - (poles of z) - (Riemann
    divisor); with the Abel map based at P_plus and the Riemann divisor referred
    to a branch point, where its vector of constants is a half-period, this is

        u0 = sum_j A(Q_j) - A(P_minus) - (g-1) A(e_1) - varpi,

    with varpi the printed half-period pattern standing in for the (basis
    dependent) constants; the verification scan over all half-periods absorbs
    the difference.  A(P_minus) is evaluated as A(x) + A(sigma x) for the
    anchor point x, using the sign flip of the differentials under the
    hyperelliptic involution.
    """
    g = curve.g
    if len(divisor_points) != g + 1:
        raise PeriodError(f"need g+1 = {g + 1} divisor points, got {len(divisor_points)}")
    total = np.zeros(g, dtype=complex)
    for pt in divisor_points:
        total += abel_from_plus_infinity(curve, ctx, complex(pt.z), complex(pt.w), bias=bias)
    total -= abel_from_plus_infinity(curve, ctx, ctx.anchor, ctx.anchor_w, bias=bias)
    total -= abel_from_plus_infinity(curve, ctx, ctx.anchor, -ctx.anchor_w, bias=bias)
    if g >= 2:
        base_branch = _abel_to_branch_point(curve, ctx, ctx.cuts[0][0], bias=bias)
        total -= (g - 1) * base_branch
    u = ctx.alpha @ total
    varpi = 1j * np.pi * half_period_pattern(g) + ctx.b_matrix @ np.ones(g) / 2
    return u - varpi


def v_consistency_defect(curve: HyperellipticCurve, ctx: ThetaContext, vdata: VData,
                         kmax: int) -> float:
    """Check V^(k) against circle integrals of omega_i z^(k+1) on the + sheet.

    The contour coefficients equal V^(+,k) = V^(k)/2; returns the worst
    absolute deviation over k <= kmax.
    """
    radius = ctx.anchor.real
    npts = 800
    thetas = np.linspace(0.0, 2 * np.pi, npts, endpoint=False)
    zs = radius * np.exp(1j * thetas)
    q_vals = [curve.q_at(z) for z in zs]
    ws = _track_sqrt(q_vals, ctx.anchor_w)
    etas = _eta_matrix(curve, zs, ws)          # g x npts
    omegas = ctx.alpha @ etas                  # omega_i values
    dz = 1j * zs * (2 * np.pi / npts)
    worst = 0.0
    for k in range(kmax + 1):
        coeff = (omegas * (zs ** (k + 1)) * dz).sum(axis=1) / (2j * np.pi)
        worst = max(worst, float(np.max(np.abs(coeff - vdata.vectors[k] / 2))))
    return worst
