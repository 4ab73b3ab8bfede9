"""Coefficient-level verification of the theta identity on hyperelliptic curves.

For a traceless 2x2 matrix polynomial with monic leading entry the exact
engine produces rational numbers

    F_{k1..kN} = sum over sheet tuples of signed F^{a1..aN}_{k1..kN}

(sheet 1 carries +, sheet 2 carries -), and the period pipeline produces

    T = sum V^(k1)_{i1} ... V^(kN)_{iN} d^N log theta (u0).

The identity under test is F = (-1)^N T (the sign comes from theta evenness
at the argument -u0).  The half-period entering u0 is stated by the source
construction only up to a basis convention, so all 2^(2g) half-period shifts
are scanned: a single shift must make every requested identity hold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .correlators import CorrelatorEngine, hyperelliptic_combination
from .curve import MatrixPolynomial
from .divisor import pole_divisor
from .periods import (
    HyperellipticCurve,
    QuadratureSettings,
    jacobian_point,
    period_matrix,
    v_consistency_defect,
    v_vectors,
)
from .rationals import format_rational
from .theta import (
    half_period_shifts,
    log_theta_derivatives,
    reduce_mod_lattice,
    theta,
)


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
    shift_used: tuple | None
    identities: tuple
    checks: dict
    shift_errors: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "success": self.success,
            "shift_used": list(map(list, self.shift_used)) if self.shift_used else None,
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


def _k_tuples(n_points: int, kmax: int):
    return sorted(set(
        tuple(sorted(t)) for t in itertools.product(range(kmax + 1), repeat=n_points)
    ))


def _tensor_contraction(vdata, ks, u, ctx) -> complex:
    g = len(vdata.vectors[0])
    total = 0j
    for idx in itertools.product(range(g), repeat=len(ks)):
        coeff = 1.0 + 0j
        for pos, i in enumerate(idx):
            coeff *= vdata.vectors[ks[pos]][i]
        if coeff == 0:
            continue
        total += coeff * log_theta_derivatives(u, ctx, idx)
    return complex(total)


def verify_main_theorem(w: MatrixPolynomial, kmax=None, tol: float = 1e-6,
                        settings: QuadratureSettings | None = None) -> VerificationReport:
    """Scan half-period shifts and check F = (-1)^N T for N = 3 and 4.

    ``kmax`` is an int (same bound for both N) or a mapping {3: k3, 4: k4};
    the default is {3: 2, 4: 1}.
    """
    if kmax is None:
        kmax_by_n = {3: 2, 4: 1}
    elif isinstance(kmax, int):
        kmax_by_n = {3: kmax, 4: kmax}
    else:
        kmax_by_n = {int(k): int(v) for k, v in dict(kmax).items()}

    curve = HyperellipticCurve.from_matrix_polynomial(w)
    ctx = period_matrix(curve, settings)
    checks: dict = {}
    checks["b_symmetry_defect"] = ctx.symmetry_defect()
    checks["period_quadrature_bound"] = ctx.quadrature_bound

    top_k = max(kmax_by_n.values())
    vdata = v_vectors(curve, ctx, top_k)
    checks["v_consistency_defect"] = v_consistency_defect(curve, ctx, vdata, top_k)

    divisor_points = pole_divisor(w)
    point = jacobian_point(curve, ctx, divisor_points)
    u0 = point.u0
    theta_u0 = point.theta_value
    checks["theta_at_u0"] = float(abs(theta_u0))

    # quasi-periodicity at u0 for each lattice direction
    qp_defect = 0.0
    g = curve.g
    for j in range(g):
        shifted = theta(u0 + ctx.b_matrix[:, j], ctx)
        predicted = np.exp(-0.5 * ctx.b_matrix[j, j] - u0[j]) * theta_u0
        qp_defect = max(qp_defect, float(abs(shifted - predicted)) / max(1.0, abs(predicted)))
        shifted2 = theta(u0 + 2j * np.pi * np.eye(g)[j], ctx)
        qp_defect = max(qp_defect, float(abs(shifted2 - theta_u0)) / max(1.0, abs(theta_u0)))
    checks["quasi_periodicity_defect"] = qp_defect

    # exact side, computed once
    engine = CorrelatorEngine(w)
    exact: dict[int, dict] = {}
    for n_points, k_bound in sorted(kmax_by_n.items()):
        exact[n_points] = hyperelliptic_combination(w, n_points, k_bound, engine)

    # scan shifts on the cheapest identity first
    probe_n = min(kmax_by_n)
    probe_k = (0,) * probe_n
    f_probe = exact[probe_n][probe_k]
    shift_errors = {}
    candidates = []
    for label, shift in half_period_shifts(ctx.b_matrix):
        u = reduce_mod_lattice(u0 + shift, ctx.b_matrix)
        t0 = theta(u, ctx)
        if abs(t0) < 1e-10:
            shift_errors[label] = float("inf")
            continue
        t = _tensor_contraction(vdata, probe_k, u, ctx)
        err = float(abs((-1) ** probe_n * t - float(f_probe)))
        shift_errors[label] = err
        if err < tol * max(1.0, abs(float(f_probe))) and abs(t.imag) < tol:
            candidates.append((label, u))

    for label, u in candidates:
        identities = []
        ok = True
        for n_points, k_bound in sorted(kmax_by_n.items()):
            for ks in _k_tuples(n_points, k_bound):
                f_val = exact[n_points][ks]
                t = _tensor_contraction(vdata, ks, u, ctx)
                diff = (-1) ** n_points * t - float(f_val)
                abs_err = float(abs(diff))
                rel_err = abs_err / max(1.0, abs(float(f_val)))
                passed = bool(rel_err < tol and abs(t.imag) < tol)
                ok = ok and passed
                identities.append(IdentityResult(
                    n_points=n_points, k_tuple=ks, f_exact=f_val,
                    t_value=complex(t), abs_err=abs_err, rel_err=rel_err, passed=passed,
                ))
        if ok:
            return VerificationReport(
                success=True, shift_used=label, identities=tuple(identities),
                checks=checks, shift_errors=shift_errors,
            )
    return VerificationReport(
        success=False, shift_used=None, identities=(),
        checks=checks, shift_errors=shift_errors,
    )
