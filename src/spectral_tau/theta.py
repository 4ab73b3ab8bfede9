"""Riemann theta function as the lattice sum with the e^(nBn/2 + nu) convention.

theta(u) = sum over n in Z^g of exp( <n, B n>/2 + <n, u> ), which converges
for Re(B) negative definite (the a-periods are normalized to 2 pi i).  A
derivative along directions v_1..v_N inserts the factor <v_1,n>...<v_N,n>
termwise; logarithmic derivatives follow from those sums by one memoized
Leibniz recursion (``log_derivatives``).

Truncation (after Deconinck, Heil, Bobenko, van Hoeij, Schmies, "Computing
Riemann theta functions", Math. Comp. 73 (2004)).  Every sum at a point u
runs once over the box |n|_inf <= r.  With lam = lambda_min(-Re B),
s = |Re u| and N the highest derivative order, a term is at most
|v_1|...|v_N| f(|n|) with f(x) = x^N exp(-lam x^2/2 + s x).  A point outside
the box has |n| >= r + 1, and the shell j <= |n| < j + 1 holds at most
(2j + 1)^g points, so once f decreases from j = r + 1 on, the omitted part is
at most |v_1|...|v_N| times the sum over j > r of t_j = (2j + 1)^g f(j).  The
sequence t_j is log-concave, so that sum is at most t_{r+1} / (1 - q) with
q = t_{r+2} / t_{r+1} < 1.  The radius is the smallest r whose bound is below
TAIL; a point that needs more than MAX_RADIUS raises ThetaError before any
lattice is built.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TAIL = 1e-16          # truncation bound per derivative sum, in units of |v_1|...|v_N|
MAX_RADIUS = 40
DIVISOR_GUARD = 1e-10  # |theta(u)| below this: u is taken to sit on the theta divisor


class ThetaError(Exception):
    pass


def lattice_radius(u: np.ndarray, b: np.ndarray, order: int) -> int:
    """The smallest box radius whose tail bound (module docstring) is below TAIL."""
    g, lam = len(u), float(np.linalg.eigvalsh(-b.real)[0])
    s = float(np.linalg.norm(u.real))

    def log_t(j):
        return g * math.log(2 * j + 1) + order * math.log(j) - 0.5 * lam * j * j + s * j

    if lam > 0:
        for j in range(1, MAX_RADIUS + 2):   # j = r + 1
            log_q = log_t(j + 1) - log_t(j)
            if (lam * j * j >= s * j + order and log_q < 0
                    and log_t(j) - math.log1p(-math.exp(log_q)) <= math.log(TAIL)):
                return j - 1
    raise ThetaError(f"lattice sum needs a radius above {MAX_RADIUS}: "
                     f"lambda_min(-Re B) = {lam:.3g}, |Re u| = {s:.3g}")


def _lattice(g: int, radius: int) -> np.ndarray:
    grids = np.meshgrid(*([np.arange(-radius, radius + 1)] * g), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, g).astype(float)


def _raw_values(u: np.ndarray, b: np.ndarray, derivs, radius: int, axes=None) -> dict:
    """Box sums of theta and its derivatives ``derivs`` at u.

    A derivative is a tuple of row indices of ``axes`` (default: the
    coordinate axes); row v contributes the factor <v, n>.  Each tuple's
    product of factors is its prefix's product times its last factor, so a
    prefix shared by several tuples is multiplied out once.
    """
    n = _lattice(len(u), radius)
    terms = np.exp(0.5 * np.einsum("ki,ij,kj->k", n, b, n) + n @ u)
    p = n if axes is None else n @ np.asarray(axes).T
    products = {(): np.ones(len(n))}

    def product(d):
        # left to right from the prefix's product, as np.prod multiplies
        if d not in products:
            products[d] = product(d[:-1]) * p[:, d[-1]]
        return products[d]

    return {d: complex(np.sum(product(d) * terms)) for d in derivs}


# A function of its own, not inlined into theta, while perfbench/tracer.py wraps it by name.
def theta_with_derivatives(u, b, derivs=((),)) -> dict:
    """theta and the coordinate derivative multi-indices ``derivs`` at u, in one box."""
    b, u = np.asarray(b, dtype=complex), np.asarray(u, dtype=complex)
    derivs = {()} | {tuple(d) for d in derivs}
    return _raw_values(u, b, derivs, lattice_radius(u, b, max(map(len, derivs))))


def theta(u, b, derivative=()) -> complex:
    return theta_with_derivatives(u, b, [tuple(derivative)])[tuple(derivative)]


def log_derivatives(u, b, tuples, axes=None) -> tuple[complex, dict]:
    """theta(u) and d^N log theta along rows of ``axes`` for each index tuple.

    One box pass serves every tuple, and one memo on sorted tuples S every f_S =
    d_S log theta: Leibniz's rule on theta_S = d_{S - s1} (theta f_{s1}), grouped by
    the proper part T of S that holds s1, gives f_S = (theta_S - sum_T f_T
    theta_{S - T}) / theta.  The dict is empty when |theta(u)| is below
    DIVISOR_GUARD: u sits on the theta divisor, where they would blow up.
    """
    b, u = np.asarray(b, dtype=complex), np.asarray(u, dtype=complex)
    tuples = [tuple(t) for t in tuples]
    blocks = {c for t in tuples for r in range(len(t) + 1)
              for c in itertools.combinations(sorted(t), r)}
    values = _raw_values(u, b, blocks, lattice_radius(u, b, max(map(len, tuples))), axes)
    t0, logs = values[()], {}
    if abs(t0) < DIVISOR_GUARD:
        return t0, {}

    def log_d(s: tuple) -> complex:
        if s not in logs:
            rest, total = s[1:], values[s]
            for r in range(len(rest)):
                for inner in itertools.combinations(range(len(rest)), r):
                    others = tuple(x for p, x in enumerate(rest) if p not in inner)
                    total -= log_d(s[:1] + tuple(rest[p] for p in inner)) * values[others]
            logs[s] = total / t0
        return logs[s]

    return t0, {t: log_d(tuple(sorted(t))) for t in tuples}


# No caller in the package: it stays while perfbench/tracer.py wraps it by name.
def log_theta_derivatives(u, b, indices) -> complex:
    """d^N log theta / du_{i1}..du_{iN}, by ``log_derivatives``.

    Raises when theta(u) is too small (the point sits on the theta divisor).
    """
    indices = tuple(int(i) for i in indices)
    if not indices:
        raise ThetaError("need at least one derivative index")
    logs = log_derivatives(u, b, [indices])[1]
    if not logs:
        raise ThetaError("point on theta divisor; logarithmic derivatives blow up")
    return logs[indices]


def reduce_mod_lattice(u, b) -> np.ndarray:
    """Translate u by 2 pi i Z^g + B Z^g into a bounded fundamental region."""
    u = np.asarray(u, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = np.linalg.solve(b.real, u.real)
    n = np.round(n)
    u = u - b @ n
    m = np.round(u.imag / (2 * np.pi))
    return u - 2j * np.pi * m
