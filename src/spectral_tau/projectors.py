"""Branch expansions at infinity and spectral-projector series.

Everything here is a :class:`~spectral_tau.series.USeries` in u = 1/z.  For
each sheet a the branch w_a(z) = b0_a z^m + lower terms is a series of
valuation -m solving R(z, w_a) = 0, found by Newton iteration with quadratic
convergence: R_w at the branch starts with prod_{b!=a}(b0_a - b0_b)
u^(-m(n-1)), invertible when the leading entries are distinct, so each step
doubles the number of correct coefficients and runs at twice the length of
the previous one.  The projector Pi_a = Phi(z, w_a)/R_w(z, w_a) then comes
out as an n x n grid of series, each trusted through u^K.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curve import MatrixPolynomial, SpectralCurveData, characteristic_data
from .polynomials import Poly
from .series import USeries


class BranchError(Exception):
    pass


@dataclass(frozen=True)
class PhiData:
    """Matrix coefficients b_0..b_{n-1} of Phi(z,w) = sum_i b_i(z) w^{n-1-i}."""

    n: int
    b: tuple  # tuple of n PolyMatrix (tuples of tuples of Poly)


def phi_coefficients(curve: SpectralCurveData, w: MatrixPolynomial) -> PhiData:
    """b_i(z) = sum_{j<=i} a_j(z) W^{i-j}(z), with a_0 = 1.

    Phi is the adjugate of (w*1 - W(z)) organised as a polynomial in w; on the
    curve, Pi = Phi / R_w.
    """
    n = w.n
    powers = w.power_matrices(n - 1)
    mats = []
    for i in range(n):
        acc = [[Poly.zero() for _ in range(n)] for _ in range(n)]
        for j in range(i + 1):
            aj = curve.a(j)
            pw = powers[i - j]
            for r in range(n):
                for c in range(n):
                    acc[r][c] = acc[r][c] + aj * pw[r][c]
        mats.append(tuple(tuple(row) for row in acc))
    return PhiData(n=n, b=tuple(mats))


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


def _branch(curve: SpectralCurveData, leading: Fraction, order: int) -> USeries:
    """Solve R(z, w) = 0 for w = leading z^m + ..., trusted through u^(order - m).

    Each Newton step doubles the number of correct coefficients, so the
    steps run at lengths 2, 4, ... up to order + 1, starting from the exact
    leading term.  The zeros padding each iterate are a guess, not trusted
    values; what certifies the result is R(z, w) = 0 on the whole window,
    checked at the end, since R_w is invertible there and the root is
    therefore unique.
    """
    w = USeries(-curve.m, [leading])
    while len(w.coeffs) < order + 1:
        length = min(2 * len(w.coeffs), order + 1)
        terms = _char_terms(curve, length)
        w = USeries(w.val, w.coeffs + (0,) * (length - len(w.coeffs)))
        w = w - _horner(terms, w) * _horner(_derivative_terms(terms), w).inverse()
    if not branch_residual(curve, w).is_zero():
        raise BranchError("Newton iteration for the branch series failed to converge")
    return w


def sheet_leading_entries(w: MatrixPolynomial) -> tuple:
    """Leading diagonal entries; sheet a (1-based) has w_a ~ b0_a z^m."""
    entries = w.leading_diagonal()
    if len(set(entries)) != len(entries):
        raise BranchError("branches collide at infinity (repeated leading entries)")
    return entries


def branch_series(curve: SpectralCurveData, sheet: int, order: int,
                  leading: Fraction | None = None) -> USeries:
    """Branch w_sheet(z) as a series of valuation -m trusted through z^(m - order).

    When ``leading`` is not given the sheet label refers to the ascending
    order of the leading-equation roots; pipelines built from a concrete W
    pass the diagonal entry explicitly so sheet labels match the matrix.
    """
    if leading is None:
        roots = _leading_equation_roots(curve)
        if not 1 <= sheet <= len(roots):
            raise BranchError(f"sheet index {sheet} out of range")
        leading = roots[sheet - 1]
    return _branch(curve, Fraction(leading), order)


def _leading_equation_roots(curve: SpectralCurveData) -> list[Fraction]:
    """Rational roots of b^n + alpha_1 b^{n-1} + ... + alpha_n, ascending."""
    n, m = curve.n, curve.m
    poly = Poly(list(reversed([Fraction(1)] + [curve.a(i).coeff(m * i) for i in range(1, n + 1)])))
    roots = []
    for _ in range(n):
        r = _find_rational_root(poly)
        if r is None:
            raise BranchError("leading equation has no rational root; label sheets explicitly")
        roots.append(r)
        poly = poly.exact_div(Poly([-r, Fraction(1)]))
    if len(set(roots)) != n:
        raise BranchError("branches collide at infinity")
    return sorted(roots)


def _find_rational_root(p: Poly) -> Fraction | None:
    from math import gcd

    if p.is_zero():
        return None
    if p.coeff(0) == 0:
        return Fraction(0)
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in p.coeffs]
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(x):
        out = set()
        d = 1
        while d * d <= x:
            if x % d == 0:
                out.update((d, x // d))
            d += 1
        return sorted(out)

    for num in divisors(a0):
        for dd in divisors(an):
            for sign in (1, -1):
                cand = Fraction(sign * num, dd)
                if p(cand) == 0:
                    return cand
    return None


def projector_series(w: MatrixPolynomial, sheet: int, order: int,
                     curve: SpectralCurveData | None = None,
                     phi: PhiData | None = None) -> tuple:
    """Pi_sheet(z) = Phi(z, w_sheet)/R_w(z, w_sheet) as an n x n grid of series.

    Every entry is trusted through u^order exactly, so reading u^(order + 1)
    raises.  All coefficients are exact rationals; the constant term is
    asserted to be the basis idempotent E_sheet.
    """
    if curve is None:
        curve = characteristic_data(w, with_diagnostics=True)
    fatal = [d for d in curve.diagnostics if d.fatal and not d.passed]
    if fatal:
        raise BranchError(f"invalid input: {fatal[0].detail or fatal[0].name}")
    if phi is None:
        phi = phi_coefficients(curve, w)
    n, length = w.n, order + 1
    entries = sheet_leading_entries(w)
    if not 1 <= sheet <= n:
        raise BranchError(f"sheet index {sheet} out of range 1..{n}")
    wa = _branch(curve, entries[sheet - 1], order)
    t_inv = _horner(_derivative_terms(_char_terms(curve, length)), wa).inverse()
    # Phi's Horner form starts from b_0 = 1, whose entries (ones and zeros)
    # enter with valuation 0, so every Phi entry has valuation -m(n-1) and
    # every Pi entry the window u^0 .. u^order exactly
    pi = tuple(
        tuple(_horner([USeries.from_poly(b[r][c], length) for b in phi.b], wa) * t_inv
              for c in range(n))
        for r in range(n)
    )
    if any(pi[i][j][0] != (1 if i == j == sheet - 1 else 0) for i in range(n) for j in range(n)):
        raise BranchError(f"projector series for sheet {sheet} does not start at its idempotent")
    return pi


def all_projectors(w: MatrixPolynomial, order: int,
                   curve: SpectralCurveData | None = None) -> list[tuple]:
    if curve is None:
        curve = characteristic_data(w, with_diagnostics=True)
    phi = phi_coefficients(curve, w)
    return [projector_series(w, a, order, curve=curve, phi=phi) for a in range(1, w.n + 1)]


def branch_residual(curve: SpectralCurveData, branch: USeries) -> USeries:
    """R(z, branch) as a series; zero within its window for a valid branch."""
    return _horner(_char_terms(curve, len(branch.coeffs)), branch)
