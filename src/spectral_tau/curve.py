"""Matrix polynomials and their spectral curves.

The root object is W(z) = B0*z^m + ... + Bm with a diagonal leading
coefficient whose entries are pairwise distinct.  The spectral curve is
det(w*1 - W(z)) = w^n + a_1(z) w^{n-1} + ... + a_n(z).

:func:`characteristic_data` is the one place that computes curve data, and
it computes only what is read.  The structural checks on W, read off its
entries, run with the curve, and the leading diagonal of W labels the
sheets.  A single Faddeev-LeVerrier pass yields the a_k together with the
adjugate Phi(z, w) of w*1 - W(z), whose coefficient matrices feed the
divisor; it runs on the first read of either, so the correlator engine,
which needs only the checks, never pays it.  The smoothness check (a
determinant over Q[z]) runs on the first read of
``SpectralCurveData.diagnostics``, since only reports read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .polynomials import Poly, is_squarefree, resultant_w

PolyMatrix = tuple  # n x n tuple of tuples of Poly


@dataclass(frozen=True)
class Diagnostic:
    name: str
    passed: bool
    fatal: bool
    detail: str = ""


class InvalidMatrixPolynomial(ValueError):
    pass


@dataclass(frozen=True)
class MatrixPolynomial:
    """W(z) as an n x n matrix of Poly entries, degree at most m.

    ``matrix[i][j]`` is the full polynomial entry; ``coefficient_of_power(k)``
    recovers the matrix coefficient of z^k (so the paper-style B^i is the
    coefficient of z^(m-i)).
    """

    n: int
    m: int
    matrix: tuple

    @staticmethod
    def from_entries(entries: Sequence[Sequence[Poly]], m: int | None = None) -> "MatrixPolynomial":
        n = len(entries)
        if n < 2 or any(len(row) != n for row in entries):
            raise InvalidMatrixPolynomial("matrix must be square with n >= 2")
        mat = tuple(tuple(p if isinstance(p, Poly) else Poly.constant(p) for p in row) for row in entries)
        deg = max((p.degree() for row in mat for p in row), default=-1)
        if m is None:
            m = deg
        if m < 1:
            raise InvalidMatrixPolynomial("degree m must be at least 1")
        if deg > m:
            raise InvalidMatrixPolynomial(f"entry degree {deg} exceeds declared m={m}")
        return MatrixPolynomial(n, m, mat)

    @staticmethod
    def from_power_matrices(n: int, m: int, descending: Sequence) -> "MatrixPolynomial":
        """Build from matrices [B0, B1, ..., Bm] where B0 multiplies z^m."""
        if len(descending) != m + 1:
            raise InvalidMatrixPolynomial(f"need {m + 1} matrices, got {len(descending)}")
        entries = []
        for i in range(n):
            row = []
            for j in range(n):
                coeffs = [Fraction(descending[m - k][i][j]) for k in range(m + 1)]
                row.append(Poly(coeffs))
            entries.append(row)
        return MatrixPolynomial.from_entries(entries, m=m)

    def coefficient_of_power(self, k: int) -> tuple:
        return tuple(tuple(self.matrix[i][j].coeff(k) for j in range(self.n)) for i in range(self.n))

    def leading_diagonal(self) -> tuple[Fraction, ...]:
        lead = self.coefficient_of_power(self.m)
        return tuple(lead[i][i] for i in range(self.n))

    def leading_is_diagonal(self) -> bool:
        lead = self.coefficient_of_power(self.m)
        return all(lead[i][j] == 0 for i in range(self.n) for j in range(self.n) if i != j)


@dataclass(frozen=True)
class SpectralCurveData:
    """The curve det(w*1 - W(z)) = 0 with everything the exact chain reads off W.

    ``sheet_labels`` is W's leading diagonal: sheet a is the branch
    w_a ~ sheet_labels[a-1] z^m.  ``structural`` holds the checks on W, made
    with the curve from W alone.  The rest is computed on its first read.
    ``char_coeffs`` (a_1, ..., a_n) and ``adjugate``, the Faddeev-LeVerrier
    matrices N_0 = 1, ..., N_{n-1} with adj(w*1 - W(z)) = Phi(z, w) =
    sum_k N_k(z) w^(n-1-k), come from one pass on the first read of either;
    the correlator engine reads neither.  ``diagnostics`` adds the smoothness
    warning.
    """

    w: MatrixPolynomial
    n: int
    m: int
    genus: int
    sheet_labels: tuple  # leading diagonal entries of W
    structural: tuple  # Diagnostics of W's leading coefficient, genus and degrees

    @cached_property
    def _leverrier(self) -> tuple:
        return _faddeev_leverrier(self.w)

    @property
    def char_coeffs(self) -> tuple:
        """(a_1, ..., a_n) as Poly."""
        return self._leverrier[0]

    @property
    def adjugate(self) -> tuple:
        """(N_0, ..., N_{n-1}) as PolyMatrix."""
        return self._leverrier[1]

    def a(self, i: int) -> Poly:
        """a_i(z) for i = 1..n; a_0 is the constant 1."""
        if i == 0:
            return Poly.one()
        return self.char_coeffs[i - 1]

    def r_at(self, z: complex, w: complex) -> complex:
        """Evaluate R(z, w) = w^n + a_1(z) w^{n-1} + ... + a_n(z) numerically."""
        acc = complex(1)
        for i in range(1, self.n + 1):
            acc = acc * w + self.a(i)(z)
        return acc

    @cached_property
    def diagnostics(self) -> tuple:
        """The structural checks, then the smoothness warning once W's leading
        coefficient has passed (the curve checks need it)."""
        if not all(d.passed for d in self.structural if d.name.startswith("leading_")):
            return self.structural
        return self.structural + (_smoothness(self.n, self.char_coeffs),)

    def fatal_diagnostics(self) -> list[Diagnostic]:
        """The failed fatal checks; all are structural, so none triggers the smoothness check."""
        return [d for d in self.structural if d.fatal and not d.passed]


def genus(m: int, n: int) -> int:
    """Genus of the spectral curve for leading degree m and size n."""
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    num = (n - 1) * (m * n - 2)
    assert num % 2 == 0, "genus formula must produce an integer"
    return num // 2


def characteristic_data(w: MatrixPolynomial) -> SpectralCurveData:
    """The spectral curve of W with its structural checks; the rest on demand.

    Only the checks, read off W's entries, run here.  The characteristic
    coefficients and the adjugate come from :func:`_faddeev_leverrier` on
    the first read of either.
    """
    return SpectralCurveData(
        w=w, n=w.n, m=w.m, genus=genus(w.m, w.n), sheet_labels=w.leading_diagonal(),
        structural=tuple(_structural(w)),
    )


def _faddeev_leverrier(w: MatrixPolynomial) -> tuple:
    """((a_1, ..., a_n), (N_0, ..., N_{n-1})): characteristic polynomial and adjugate.

    One Faddeev-LeVerrier pass, which stays in Q[z] throughout: N_0 = 1 and,
    for k = 1..n, a_k = -tr(W N_{k-1})/k and N_k = W N_{k-1} + a_k 1.  Then
    det(w*1 - W) = w^n + a_1 w^{n-1} + ... + a_n, and N_k = sum_{j<=k} a_j W^(k-j)
    are the coefficients of the adjugate (N_n = 0 is Cayley-Hamilton).
    """
    n, mat = w.n, w.matrix
    zero = Poly.zero()
    coeffs = []
    adjugate = [tuple(tuple(Poly.one() if i == j else zero for j in range(n)) for i in range(n))]
    for k in range(1, n + 1):
        nk = adjugate[-1]
        wn = [[sum((mat[i][s] * nk[s][j] for s in range(n)), zero) for j in range(n)]
              for i in range(n)]
        ak = sum((wn[i][i] for i in range(n)), zero) * Fraction(-1, k)
        coeffs.append(ak)
        if k < n:
            adjugate.append(tuple(tuple(wn[i][j] + ak if i == j else wn[i][j] for j in range(n))
                                  for i in range(n)))
    return tuple(coeffs), tuple(adjugate)


def _structural(w: MatrixPolynomial) -> list[Diagnostic]:
    """Structural checks on W(z), read off its entries.

    Distinctness of the leading diagonal is fatal (branch expansions at
    infinity collide without it), and the degree check runs only once the
    leading coefficient has passed.  It reads W's entries: every entry of
    degree <= m gives deg a_i <= m*i, the bound every later stage reads the
    curve to, and an entry above m (possible through the raw constructor)
    would be dropped silently by the projector recursion.  Irreducibility is not
    checked; reducible inputs surface later as failed consistency identities.
    """
    diags: list[Diagnostic] = []
    lead_diag_ok = w.leading_is_diagonal()
    diags.append(
        Diagnostic(
            "leading_coefficient_diagonal", lead_diag_ok, fatal=True,
            detail="" if lead_diag_ok else "leading coefficient must be diagonal",
        )
    )
    entries = w.leading_diagonal()
    distinct = len(set(entries)) == len(entries)
    diags.append(
        Diagnostic(
            "leading_entries_distinct", distinct, fatal=True,
            detail="" if distinct else f"repeated leading entries {entries}",
        )
    )
    g_ok = genus(w.m, w.n) > 0
    diags.append(
        Diagnostic(
            "genus_positive", g_ok, fatal=False,
            detail="" if g_ok else f"genus {genus(w.m, w.n)} <= 0; theta machinery does not apply",
        )
    )
    if not (lead_diag_ok and distinct):
        return diags
    deg = max(p.degree() for row in w.matrix for p in row)
    deg_ok = deg <= w.m
    diags.append(
        Diagnostic(
            "char_coeff_degrees", deg_ok, fatal=True,
            detail="" if deg_ok
            else f"entry degree {deg} exceeds m={w.m}, so deg a_i may exceed m*i",
        )
    )
    return diags


def _smoothness(n: int, coeffs: Sequence[Poly]) -> Diagnostic:
    """Squarefreeness of the w-discriminant of R, a warning only.

    It is a sufficient smoothness condition, not a necessary one.  The
    discriminant is the resultant of R and dR/dw, both polynomials in w over
    Q[z]: a Sylvester determinant, the costliest check, so it runs only when
    the diagnostics are read.
    """
    pw = [Poly.one(), *coeffs]
    qw = [Fraction(n - i) * a for i, a in enumerate(pw[:n])]
    disc = resultant_w(pw, qw)
    sf = (not disc.is_zero()) and is_squarefree(disc)
    return Diagnostic(
        "smoothness_squarefree_discriminant", sf, fatal=False,
        detail=""
        if sf
        else "disc_w R not squarefree; smoothness inconclusive (curve may be singular or reducible)",
    )
