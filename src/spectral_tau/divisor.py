"""Pole divisor of the normalized eigenvector of W(z).

The eigenvector is a cofactor row sum: row i of the cofactors of
w*1 - W(z) sums to w^{n-1} + q_{i2} w^{n-2} + ... + q_{in}, where q_{i,k+1}
is the i-th column sum of the curve's adjugate coefficient N_k.  The
z-coordinates of the divisor are the roots of the exact polynomial
D(z) = det Q^T, Q = (q_{ik}), of degree m n (n-1)/2 = g + n - 1 (its lead is
prod_{i<j} (b_j - b_i) over W's leading diagonal), built once per W; gcd(D, D')
decides repeated roots.  At each root the w-coordinate is recovered from an
(n-1)-minor of Q, choosing the numerically best minor.  Roots are computed
in floating point (the divisor only feeds the numerical theta pipeline) but
are Newton-polished against the exact coefficients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .curve import MatrixPolynomial, characteristic_data
from .polynomials import Poly, poly_gcd


class DivisorError(Exception):
    pass


@dataclass(frozen=True)
class DivisorPoint:
    z: complex
    w: complex
    residual_r: float
    residual_eig: float


def require_tol(tol, name: str = "tol") -> float:
    """``tol`` itself when it is a finite number > 0; otherwise ValueError, naming ``name``."""
    if isinstance(tol, bool) or not isinstance(tol, Real) or not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{name}: {tol} is not a finite number > 0")
    return tol


def d_polynomial(w: MatrixPolynomial) -> Poly:
    """D(z) = det Q^T for the cofactor row-sum matrix Q, as an exact polynomial.

    Row k of Q^T is e N_k with e = (1,...,1), and N_k = W^k + a_1 W^(k-1) + ...
    + a_k, so these rows are a unit-triangular Q[z]-combination of the rows
    e W^k: D = e wedge e W wedge ... wedge e W^(n-1).
    """
    return characteristic_data(w).d_polynomial


def expected_d_degree(w: MatrixPolynomial) -> int:
    return w.m * w.n * (w.n - 1) // 2


def cofactor_row_sums(w: MatrixPolynomial) -> tuple:
    """q[i][j] with sum_s Delta_{is}(z,w) = w^{n-1} + q_{i2} w^{n-2} + ... + q_{in}.

    Row sums of cofactors of (w*1 - W(z)) are column sums of the adjugate
    Phi(z,w), so q_{i,k+1} is the i-th column sum of the curve's adjugate
    coefficient N_k(z).  Indices here are 0-based: q[i][j] is the printed
    q_{i+1, j+1}, and q[i][0] = 1 always.
    """
    return characteristic_data(w).cofactor_row_sums


def _polish_root(p: Poly, dp: Poly, z: complex, steps: int = 8) -> complex:
    """Newton steps on p from z; ``dp`` is p's derivative."""
    for _ in range(steps):
        d = dp(z)
        if d == 0:
            break
        step = p(z) / d
        z = z - step
        if abs(step) < 1e-300:
            break
    return z


def pole_divisor(w: MatrixPolynomial, tol: float = 1e-9) -> list[DivisorPoint]:
    """Divisor points (z_k, w_k), with on-curve and eigenvector residual checks against
    ``tol``, a finite number > 0 (ValueError before any work).  W was checked when it
    was built; a DivisorError is a repeated root of D or a failed numerical stage."""
    require_tol(tol)
    curve = characteristic_data(w)
    n = w.n
    q, dpoly = curve.cofactor_row_sums, curve.d_polynomial
    dprime = dpoly.derivative()
    if poly_gcd(dpoly, dprime).degree() > 0:
        raise DivisorError("repeated roots of D(z): gcd(D, D') is not constant")
    roots = [_polish_root(dpoly, dprime, complex(z))
             for z in np.roots(dpoly.float_coeffs_descending())]
    points = []
    for z in sorted(roots, key=lambda t: (t.real, t.imag)):
        c_full = np.array(
            [[complex(q[i][j](z)) for j in range(n - 1)] for i in range(n)], dtype=complex
        )
        best = None
        for rows in itertools.combinations(range(n), n - 1):
            det = np.linalg.det(c_full[list(rows), :])
            if best is None or abs(det) > abs(best[1]):
                best = (rows, det)
        rows, det_c = best
        if abs(det_c) < 1e-13:
            raise DivisorError("rank deficiency: every (n-1)-minor is numerically singular")
        c_hat = c_full[list(rows), :].copy()
        c_hat[:, n - 2] = [complex(q[i][n - 1](z)) for i in rows]
        w_val = -np.linalg.det(c_hat) / det_c
        res_r = abs(curve.r_at(z, w_val))
        res_eig = max(
            abs(_row_sum_value(q[i], z, w_val, n)) for i in range(n)
        )
        if res_r > tol or res_eig > max(tol, 1e-8):
            raise DivisorError(
                f"divisor point ({z:.6g}, {w_val:.6g}) rejected: residuals "
                f"R={res_r:.3e}, eig={res_eig:.3e} exceed tolerance"
            )
        points.append(DivisorPoint(z=complex(z), w=complex(w_val),
                                   residual_r=float(res_r), residual_eig=float(res_eig)))
    return points


def _row_sum_value(qrow: list[Poly], z: complex, w_val: complex, n: int) -> complex:
    acc = complex(0)
    for j in range(n):
        acc = acc * w_val + complex(qrow[j](z))
    return acc
