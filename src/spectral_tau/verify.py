"""Coefficient-level verification of the theta identity on hyperelliptic curves.

For a traceless 2x2 matrix polynomial with monic leading entry the exact
engine produces rational numbers

    F_{k1..kN} = sum over sheet tuples of signed F^{a1..aN}_{k1..kN}

(sheet 1 carries +, sheet 2 carries -), and the period pipeline produces

    T = sum V^(k1)_{i1} ... V^(kN)_{iN} d^N log theta (u0).

The identity under test is F = (-1)^N T (the sign comes from theta evenness
at the argument -u0).  u0 is the Abel image of the eigenvector pole divisor
less the vector of Riemann constants K.  With the Abel map based at the
branch point e1, K is a half-period whose characteristic follows exactly
from those of the branch points by Riemann-Roch parities (Mumford, Tata
Lectures on Theta II, ch. IIIa, 5-6; Frauendiener & Klein, Lett. Math. Phys.
105 (2015)); see ``periods._riemann_characteristic``.  One lattice pass at
u0 evaluates every identity, and the report names K's characteristic as
``shift_used``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .correlators import CorrelatorEngine, _require_int, hyperelliptic_combination
from .curve import MatrixPolynomial
from .divisor import d_polynomial, pole_divisor, require_tol
from .periods import (
    HyperellipticCurve,
    PeriodError,
    jacobian_point,
    period_matrix,
    v_consistency_defect,
    v_vectors,
)
from .rationals import format_rational
from .theta import log_derivatives, theta


@dataclass(frozen=True)
class IdentityResult:
    n_points: int
    k_tuple: tuple
    f_exact: Fraction
    t_value: complex
    abs_err: float
    rel_err: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    success: bool
    shift_used: tuple          # K's characteristic (m, n): u0 = alpha A(D) - pi i m - B n / 2
    identities: tuple
    checks: dict
    shift_errors: dict         # {shift_used: largest abs_err}

    def to_json_dict(self) -> dict:
        return {
            "success": self.success,
            "shift_used": list(map(list, self.shift_used)),
            "identities": [
                {
                    "N": r.n_points,
                    "k": list(r.k_tuple),
                    "F": format_rational(r.f_exact),
                    "T": [r.t_value.real, r.t_value.imag],
                    "abs_err": r.abs_err,
                    "rel_err": r.rel_err,
                    "passed": r.passed,
                }
                for r in self.identities
            ],
            "checks": self.checks,
            "shift_errors": {str(k): v for k, v in self.shift_errors.items()},
        }


def verify_main_theorem(w: MatrixPolynomial, kmax=None, tol: float = 1e-6) -> VerificationReport:
    """Check F = (-1)^N T at the eigenvector point u0 for every N in ``kmax``.

    ``kmax`` is a non-empty mapping {N: k_N} of ints (not bools) with every
    N >= 3 (the theorem starts at the third derivative) and every k_N >= 0,
    or None for {3: 2, 4: 1}; any other mapping raises ValueError naming the
    bad entry before any stage runs, and so does a ``tol`` that is not a
    finite number > 0.  An identity passes when
    rel_err = |(-1)^N T - F| / max(1, |F|) is below ``tol``; the modulus is
    complex, so this bounds Im T relative to max(1, |F|) as well.  One
    lattice pass at u0 gives theta(u0) and every T; a theta(u0) below
    ``theta.DIVISOR_GUARD`` means the divisor is special and raises
    PeriodError.  Among the ``checks``,
    ``quasi_periodicity_defect`` is the largest relative defect of
    theta(u0 + B e_j) = exp(-B_jj / 2 - u0_j) theta(u0) over the g columns
    of B; the 2 pi i directions are not checked, since there every lattice
    term is unchanged.
    """
    require_tol(tol)
    kmax_by_n = {3: 2, 4: 1} if kmax is None else dict(kmax)
    if not kmax_by_n:
        raise ValueError("kmax: needs at least one entry {N: k_N}")
    for n_points, k_bound in kmax_by_n.items():
        _require_int(f"kmax: entry {n_points!r}: {k_bound!r}: N", n_points, 3)
        _require_int(f"kmax: entry {n_points!r}: {k_bound!r}: k_N", k_bound, 0)
    wanted = [(n, ks) for n, k_bound in sorted(kmax_by_n.items())
              for ks in itertools.combinations_with_replacement(range(k_bound + 1), n)]

    curve = HyperellipticCurve.from_matrix_polynomial(w)
    ctx = period_matrix(curve)
    checks: dict = {}
    checks["b_symmetry_defect"] = ctx.symmetry_defect()
    checks["period_quadrature_bound"] = ctx.quadrature_bound

    top_k = max(kmax_by_n.values())
    vdata = v_vectors(curve, ctx, top_k)
    checks["v_consistency_defect"] = v_consistency_defect(curve, ctx, vdata, top_k)

    u0 = jacobian_point(curve, ctx, pole_divisor(w), d_polynomial(w))
    # one lattice pass at u0 gives theta(u0) and T = d^N log theta along
    # V^(k1)..V^(kN) for every identity
    b = ctx.b_matrix
    theta_u0, logs = log_derivatives(u0, b, [ks for _, ks in wanted], vdata.vectors)
    if not logs:
        raise PeriodError("theta vanishes at the divisor point; divisor is special")
    checks["theta_at_u0"] = float(abs(theta_u0))

    # quasi-periodicity at u0 in each B direction (the 2 pi i ones: see the docstring)
    qp_defect = 0.0
    for j in range(curve.g):
        shifted = theta(u0 + b[:, j], b)
        predicted = np.exp(-0.5 * b[j, j] - u0[j]) * theta_u0
        qp_defect = max(qp_defect, float(abs(shifted - predicted)) / max(1.0, abs(predicted)))
    checks["quasi_periodicity_defect"] = qp_defect

    # exact side, computed once
    engine = CorrelatorEngine(w)
    exact: dict[int, dict] = {}
    for n_points, k_bound in sorted(kmax_by_n.items()):
        exact[n_points] = hyperelliptic_combination(w, n_points, k_bound, engine)
    identities = []
    for n_points, ks in wanted:
        f_val, t = exact[n_points][ks], logs[ks]
        abs_err = float(abs((-1) ** n_points * t - float(f_val)))
        rel_err = abs_err / max(1.0, abs(float(f_val)))
        identities.append(IdentityResult(
            n_points=n_points, k_tuple=ks, f_exact=f_val, t_value=t, abs_err=abs_err,
            rel_err=rel_err, passed=bool(rel_err < tol),
        ))
    label = ctx.riemann_characteristic
    return VerificationReport(
        success=all(r.passed for r in identities), shift_used=label,
        identities=tuple(identities), checks=checks,
        shift_errors={label: max(r.abs_err for r in identities)},
    )
