"""Exact rational correlators of spectral-curve tau-functions.

Given a matrix polynomial W(z) over Q with distinct leading eigenvalues, this
package computes the correlator coefficients of its tau-function in exact
rational arithmetic, the pole divisor of the normalized eigenvector, the jet
of the associated wave fields, and (for 2x2 traceless input) numerically
verifies that the rationals match the theta-function logarithmic derivatives
of the spectral curve.

The names in ``__all__`` are resolved lazily (PEP 562): ``spectral_tau.X``
imports the submodule that defines X on first use and returns that module's
attribute, so the exact side never imports numpy.  Nothing is cached here,
so a name always is the submodule's current attribute.  The submodules are
attributes too: ``spectral_tau.theta`` is the theta submodule, and the theta
function itself is ``spectral_tau.theta.theta``.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "correlators": ("CorrelatorEngine", "CorrelatorTable", "correlator_n", "correlator_pair",
                    "hyperelliptic_combination"),
    "curve": ("MatrixPolynomial", "SpectralCurveData", "characteristic_data", "genus"),
    "divisor": ("DivisorPoint", "cofactor_row_sums", "d_polynomial", "pole_divisor"),
    "jets": ("JetPoint", "ResolventCoeffs", "jet_from_projectors", "resolvent_coefficients",
             "validate_jet"),
    "multipoly": ("MultiPoly", "multipoly_exact_divide"),
    "periods": ("HyperellipticCurve", "ThetaContext", "VData", "abel_u0", "jacobian_point",
                "period_matrix", "v_vectors"),
    "polynomials": ("Poly",),
    "projectors": ("projector_series",),
    "rationals": ("Rational", "format_rational", "parse_rational"),
    "series": ("TruncationError", "USeries"),
    "theta": ("log_theta_derivatives",),
    "verify": ("VerificationReport", "verify_main_theorem"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, as after the old eager import
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)

