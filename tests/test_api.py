"""The package namespace: lazy attributes resolve to their submodules' objects."""

import importlib
import sys

import spectral_tau


def test_public_names_are_pinned():
    """The public surface, spelled out: adding or dropping a name edits this list."""
    assert spectral_tau.__all__ == [
        "CorrelatorEngine", "CorrelatorTable", "DivisorPoint", "HyperellipticCurve",
        "JacobianPoint", "JetPoint", "MatrixPolynomial", "MultiPoly", "Poly", "Rational",
        "ResolventCoeffs", "SpectralCurveData", "ThetaContext", "TruncationError", "USeries",
        "VData", "VerificationReport", "abel_u0", "characteristic_data", "cofactor_row_sums",
        "correlator_n", "correlator_pair", "d_polynomial", "format_rational", "genus",
        "hyperelliptic_combination", "jacobian_point", "jet_from_projectors",
        "log_theta_derivatives", "multipoly_exact_divide", "parse_rational", "period_matrix",
        "pole_divisor", "projector_series", "resolvent_coefficients", "v_vectors",
        "validate_jet", "verify_main_theorem",
    ]


def test_every_exported_name_resolves():
    for name in spectral_tau.__all__:
        assert getattr(spectral_tau, name) is not None, name
    namespace = {}
    exec("from spectral_tau import *", namespace)
    assert set(spectral_tau.__all__) <= set(namespace)


def test_lazy_names_are_submodule_attributes():
    for name in spectral_tau.__all__:
        module = importlib.import_module(f"spectral_tau.{spectral_tau._MODULE_OF[name]}")
        assert getattr(spectral_tau, name) is getattr(module, name), name
        # resolved on every lookup, never cached in the package namespace
        assert name not in vars(spectral_tau), name


def test_lazy_names_follow_rebinding(monkeypatch):
    import spectral_tau.correlators as correlators

    sentinel = object()
    monkeypatch.setattr(correlators, "correlator_n", sentinel)
    assert spectral_tau.correlator_n is sentinel


def test_theta_is_the_submodule():
    assert "theta" not in spectral_tau.__all__
    assert spectral_tau.theta is importlib.import_module("spectral_tau.theta")
    spectral_tau.log_theta_derivatives  # resolving a theta name does not rebind it
    assert spectral_tau.theta is sys.modules["spectral_tau.theta"]
    assert callable(spectral_tau.theta.theta)
