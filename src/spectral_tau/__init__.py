"""Exact rational correlators of spectral-curve tau-functions.

Given a matrix polynomial W(z) over Q with distinct leading eigenvalues, this
package computes the correlator coefficients of its tau-function in exact
rational arithmetic, the pole divisor of the normalized eigenvector, the jet
of the associated wave fields, and (for 2x2 traceless input) numerically
verifies that the rationals match the theta-function logarithmic derivatives
of the spectral curve.
"""

from .correlators import (
    CorrelatorEngine,
    CorrelatorTable,
    FreeEnergyPolynomial,
    correlator_n,
    correlator_pair,
    free_energy,
    hyperelliptic_combination,
)
from .curve import (
    MatrixPolynomial,
    SpectralCurveData,
    characteristic_data,
    genus,
    validate,
)
from .divisor import (
    DivisorPoint,
    cofactor_row_sums,
    d_polynomial,
    hyperelliptic_divisor,
    pole_divisor,
)
from .jets import (
    JetPoint,
    ResolventCoeffs,
    jet_from_projectors,
    resolvent_coefficients,
    tau_second_derivative,
    validate_jet,
)
from .periods import (
    HyperellipticCurve,
    JacobianPoint,
    ThetaContext,
    VData,
    abel_u0,
    jacobian_point,
    period_matrix,
    v_vectors,
)
from .polynomials import Poly
from .projectors import (
    PhiData,
    branch_series,
    phi_coefficients,
    projector_series,
)
from .rationals import Rational, format_rational, parse_rational
from .series import TruncationError, USeries
from .multipoly import MultiPoly, multipoly_exact_divide
from .theta import log_theta_derivatives, theta
from .verify import VerificationReport, verify_main_theorem

__version__ = "0.1.0"

__all__ = [
    "CorrelatorEngine",
    "CorrelatorTable",
    "DivisorPoint",
    "FreeEnergyPolynomial",
    "HyperellipticCurve",
    "JacobianPoint",
    "JetPoint",
    "MatrixPolynomial",
    "MultiPoly",
    "PhiData",
    "Poly",
    "Rational",
    "ResolventCoeffs",
    "SpectralCurveData",
    "ThetaContext",
    "TruncationError",
    "USeries",
    "VData",
    "VerificationReport",
    "abel_u0",
    "branch_series",
    "characteristic_data",
    "cofactor_row_sums",
    "correlator_n",
    "correlator_pair",
    "d_polynomial",
    "format_rational",
    "free_energy",
    "genus",
    "hyperelliptic_combination",
    "hyperelliptic_divisor",
    "jacobian_point",
    "jet_from_projectors",
    "log_theta_derivatives",
    "multipoly_exact_divide",
    "parse_rational",
    "period_matrix",
    "phi_coefficients",
    "pole_divisor",
    "projector_series",
    "resolvent_coefficients",
    "tau_second_derivative",
    "theta",
    "v_vectors",
    "validate",
    "validate_jet",
    "verify_main_theorem",
]
