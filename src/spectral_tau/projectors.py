"""Branch expansions at infinity and spectral-projector series.

Everything here is a :class:`~spectral_tau.series.USeries` in u = 1/z.  For
each sheet a the branch w_a(z) = b0_a z^m + lower terms is a series of
valuation -m solving R(z, w_a) = 0, where b0_a is the a-th diagonal entry of
W's leading coefficient (the curve's sheet label).  It is found by Newton
iteration with quadratic convergence: R_w at the branch starts with
prod_{b!=a}(b0_a - b0_b) u^(-m(n-1)), invertible when the leading entries are
distinct, so each step doubles the number of correct coefficients and runs
at twice the length of the previous one.  The projector
Pi_a = Phi(z, w_a)/R_w(z, w_a) then comes out as an n x n grid of series,
each trusted through u^K; Phi is the adjugate of w*1 - W(z), whose
coefficient matrices are the curve's Faddeev-LeVerrier matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _derivative_terms(terms: list[USeries]) -> list[USeries]:
    """Horner terms of R_w from those of R: (n - i) a_i for i < n."""
    n = len(terms) - 1
    return [(n - i) * t for i, t in enumerate(terms[:n])]


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
    fatal = curve.fatal_diagnostics()
    if fatal:
        raise BranchError(f"invalid input: {fatal[0].detail or fatal[0].name}")
    if not 1 <= sheet <= curve.n:
        raise BranchError(f"sheet index {sheet} out of range 1..{curve.n}")
    w = USeries(-curve.m, [curve.sheet_labels[sheet - 1]])
    while len(w.coeffs) < order + 1:
        length = min(2 * len(w.coeffs), order + 1)
        terms = _char_terms(curve, length)
        w = USeries(w.val, w.coeffs + (0,) * (length - len(w.coeffs)))
        w = w - _horner(terms, w) * _horner(_derivative_terms(terms), w).inverse()
    if not branch_residual(curve, w).is_zero():
        raise BranchError("Newton iteration for the branch series failed to converge")
    return w


def projector_series(w: MatrixPolynomial, sheet: int, order: int,
                     curve: SpectralCurveData | None = None) -> tuple:
    """Pi_sheet(z) = Phi(z, w_sheet)/R_w(z, w_sheet) as an n x n grid of series.

    Every entry is trusted through u^order exactly, so reading u^(order + 1)
    raises.  All coefficients are exact rationals; the constant term is
    asserted to be the basis idempotent E_sheet.
    """
    if curve is None:
        curve = characteristic_data(w)
    wa = branch_series(curve, sheet, order)
    n, length = curve.n, order + 1
    t_inv = _horner(_derivative_terms(_char_terms(curve, length)), wa).inverse()
    # Phi's Horner form starts from b_0 = 1, whose entries (ones and zeros)
    # enter with valuation 0, so every Phi entry has valuation -m(n-1) and
    # every Pi entry the window u^0 .. u^order exactly
    pi = tuple(
        tuple(_horner([USeries.from_poly(b[r][c], length) for b in curve.adjugate], wa) * t_inv
              for c in range(n))
        for r in range(n)
    )
    if any(pi[i][j][0] != (1 if i == j == sheet - 1 else 0) for i in range(n) for j in range(n)):
        raise BranchError(f"projector series for sheet {sheet} does not start at its idempotent")
    return pi


def all_projectors(w: MatrixPolynomial, order: int,
                   curve: SpectralCurveData | None = None) -> list[tuple]:
    if curve is None:
        curve = characteristic_data(w)
    return [projector_series(w, a, order, curve) for a in range(1, w.n + 1)]


def branch_residual(curve: SpectralCurveData, branch: USeries) -> USeries:
    """R(z, branch) as a series; zero within its window for a valid branch."""
    return _horner(_char_terms(curve, len(branch.coeffs)), branch)
