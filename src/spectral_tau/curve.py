"""Matrix polynomials and their spectral curves.

The root object is W(z) = B0*z^m + ... + Bm with a diagonal leading
coefficient whose entries are pairwise distinct.  The spectral curve is
det(w*1 - W(z)) = w^n + a_1(z) w^{n-1} + ... + a_n(z).

A W is checked once, when it is built: :class:`MatrixPolynomial` refuses
any W outside that domain with :class:`InvalidMatrixPolynomial`, so no later
stage checks it again.  Everything the exact chain reads is a function of W
alone, so each W has one curve: :func:`characteristic_data` builds it on its
first call, keeps it on W and returns it afterwards, and it computes only
what is read.  W's leading diagonal labels the sheets.  W's integer form
(L, L B_l, Delta) feeds the Faddeev-LeVerrier pass, the projector recursion
and the hyperelliptic normal form.  That pass, over Z[z] on L W, yields the
a_k and the adjugate Phi(z, w) of w*1 - W(z), whose column sums and D(z)
feed the divisor, so the correlator engine, which reads only the integer
form, never pays it.  The smoothness check (a Bareiss determinant over
Z[z]) runs when the diagnostics are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import lcm
from typing import Sequence

from .polynomials import Poly, _int_add, _int_mul, is_squarefree, poly_matrix_det, resultant_w

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
    coefficient of z^(m-i)).  Every constructor checks W, in this order, and
    raises :class:`InvalidMatrixPolynomial` with the message of the first
    check that fails: W is square with n >= 2, m >= 1, every entry has
    degree <= m (the projector recursion reads only B_0..B_m, and the bound
    deg a_i <= m*i follows), the leading coefficient B_0 is diagonal, and its
    entries are pairwise distinct (the branches at infinity collide without
    it).  Irreducibility is not checked; a reducible curve surfaces later as
    failed consistency identities.
    """

    n: int
    m: int
    matrix: tuple

    def __post_init__(self):
        n, m, mat = self.n, self.m, self.matrix
        if n < 2 or len(mat) != n or any(len(row) != n for row in mat):
            raise InvalidMatrixPolynomial("matrix must be square with n >= 2")
        if m < 1:
            raise InvalidMatrixPolynomial("degree m must be at least 1")
        deg = max(p.degree() for row in mat for p in row)
        if deg > m:
            raise InvalidMatrixPolynomial(f"entry degree {deg} exceeds declared m={m}")
        lead = self.coefficient_of_power(m)
        if any(lead[i][j] for i in range(n) for j in range(n) if i != j):
            raise InvalidMatrixPolynomial("leading coefficient must be diagonal")
        if len({lead[i][i] for i in range(n)}) != n:
            raise InvalidMatrixPolynomial("leading diagonal entries must be pairwise distinct")

    @staticmethod
    def from_entries(entries: Sequence[Sequence[Poly]], m: int | None = None) -> "MatrixPolynomial":
        """W from its entries, constants allowed; m defaults to the largest entry degree."""
        mat = tuple(tuple(p if isinstance(p, Poly) else Poly.constant(p) for p in row) for row in entries)
        if m is None:
            m = max((p.degree() for row in mat for p in row), default=-1)
        return MatrixPolynomial(len(mat), m, mat)

    @staticmethod
    def from_power_matrices(n: int, m: int, descending: Sequence) -> "MatrixPolynomial":
        """Build from n x n matrices [B0, B1, ..., Bm] where B0 multiplies z^m."""
        if len(descending) != m + 1:
            raise InvalidMatrixPolynomial(f"need {m + 1} matrices, got {len(descending)}")
        for k, mat in enumerate(descending):
            if len(mat) != n or any(len(row) != n for row in mat):
                raise InvalidMatrixPolynomial(f"coefficients[{k}] must be an {n}x{n} matrix")
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

    @cached_property
    def _curve(self) -> "SpectralCurveData":
        """The one curve of this W; read it through :func:`characteristic_data`."""
        return SpectralCurveData(
            w=self, n=self.n, m=self.m, genus=genus(self.m, self.n),
            sheet_labels=self.leading_diagonal(), structural=tuple(_structural(self)),
        )


@dataclass(frozen=True)
class SpectralCurveData:
    """The curve det(w*1 - W(z)) = 0 with everything the exact chain reads off W.

    ``sheet_labels`` is W's leading diagonal: sheet a is the branch
    w_a ~ sheet_labels[a-1] z^m.  ``structural`` holds the rows of the checks
    on W (see :func:`_structural`), made with the curve from W alone.  The
    rest is computed on its first read.
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
    def integer_form(self) -> tuple:
        """(L, lb, Delta): L the lcm of W's denominators, lb[l] = L B_l the integer
        matrix of W's coefficient of z^(m-l), Delta the lcm of the |L b_i - L b_j|."""
        w, n, m = self.w, self.n, self.m
        mats = [w.coefficient_of_power(m - l) for l in range(m + 1)]
        scale = lcm(*(c.denominator for mat in mats for row in mat for c in row))
        lb = tuple(tuple(tuple(c.numerator * (scale // c.denominator) for c in row)
                         for row in mat) for mat in mats)
        delta = lcm(*(abs(lb[0][i][i] - lb[0][j][j]) for i in range(n) for j in range(i)))
        return scale, lb, delta

    @cached_property
    def _leverrier(self) -> tuple:
        return _faddeev_leverrier(self)

    @property
    def char_coeffs(self) -> tuple:
        """(a_1, ..., a_n) as Poly."""
        return self._leverrier[0]

    @property
    def adjugate(self) -> tuple:
        """(N_0, ..., N_{n-1}) as PolyMatrix."""
        return self._leverrier[1]

    @cached_property
    def cofactor_row_sums(self) -> tuple:
        """q[i][k], the i-th column sum of N_k: row i of the cofactors of w*1 - W(z)
        sums to sum_k q[i][k] w^(n-1-k) (see ``divisor``)."""
        rn = range(self.n)
        return tuple(tuple(sum((nk[s][i] for s in rn), Poly.zero()) for nk in self.adjugate)
                     for i in rn)

    @cached_property
    def d_polynomial(self) -> Poly:
        """D(z) = det Q^T for the cofactor row sums Q (see ``divisor.d_polynomial``)."""
        return poly_matrix_det([list(col) for col in zip(*self.cofactor_row_sums)])

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
        """The structural rows, then the smoothness warning."""
        return self.structural + (_smoothness(self.n, self.char_coeffs),)


def genus(m: int, n: int) -> int:
    """Genus of the spectral curve for leading degree m and size n."""
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and m >= 1")
    num = (n - 1) * (m * n - 2)
    assert num % 2 == 0, "genus formula must produce an integer"
    return num // 2


def characteristic_data(w: MatrixPolynomial) -> SpectralCurveData:
    """The spectral curve of W with its structural rows; the rest on demand.

    The first call on a W builds its curve, computing only those rows, and
    keeps it on W; every later call returns that same object, with whatever
    it has computed since.
    """
    return w._curve


def _faddeev_leverrier(curve: SpectralCurveData) -> tuple:
    """((a_1, ..., a_n), (N_0, ..., N_{n-1})): characteristic polynomial and adjugate.

    One Faddeev-LeVerrier pass over Z[z], on V = L W from the curve's
    integer form: N_0 = 1 and, for k = 1..n, alpha_k = -tr(V N_{k-1})/k and
    N_k = V N_{k-1} + alpha_k 1.  The alpha_k are the coefficients of
    det(w*1 - V) in Z[z], so every division by k is exact, and a remainder
    raises ArithmeticError.  Then det(w*1 - W) = w^n + a_1 w^{n-1} + ... + a_n
    with a_k = alpha_k / L^k, and N_k(W) = sum_{j<=k} a_j W^(k-j) = N_k(V) / L^k
    are the coefficients of the adjugate (N_n = 0 is Cayley-Hamilton); one
    Fraction is made per output coefficient.
    """
    n, m = curve.n, curve.m
    scale, lb, _ = curve.integer_form
    v = [[_int_add([], [lb[m - k][i][j] for k in range(m + 1)]) for j in range(n)]
         for i in range(n)]
    nk = [[[1] if i == j else [] for j in range(n)] for i in range(n)]
    alphas, numerators = [], []
    for k in range(1, n + 1):
        numerators.append(nk)
        vn = [[reduce(_int_add, (_int_mul(v[i][s], nk[s][j]) for s in range(n)), [])
               for j in range(n)] for i in range(n)]
        alpha = []
        for c in reduce(_int_add, (vn[i][i] for i in range(n)), []):
            q, r = divmod(-c, k)
            if r:
                raise ArithmeticError(
                    f"Faddeev-LeVerrier: tr(V N_{k - 1}) is not divisible by {k}")
            alpha.append(q)
        alphas.append(alpha)
        if k < n:
            nk = [[_int_add(vn[i][j], alpha) if i == j else vn[i][j] for j in range(n)]
                  for i in range(n)]

    def rational(ints, k):
        return Poly(Fraction(c, scale ** k) for c in ints)

    return (tuple(rational(alpha, k) for k, alpha in enumerate(alphas, 1)),
            tuple(tuple(tuple(rational(entry, k) for entry in row) for row in mat)
                  for k, mat in enumerate(numerators)))


def _structural(w: MatrixPolynomial) -> list[Diagnostic]:
    """The rows of the checks on W that ``curve-info`` reports.

    The three fatal ones (B_0 diagonal, B_0's entries distinct, every entry
    of degree <= m) are the checks of :class:`MatrixPolynomial`, made when W
    was built, so on any W they have passed.  ``genus_positive`` is a
    warning: on a genus-0 curve the theta machinery does not apply.
    """
    g = genus(w.m, w.n)
    return [
        Diagnostic("leading_coefficient_diagonal", True, fatal=True),
        Diagnostic("leading_entries_distinct", True, fatal=True),
        Diagnostic("genus_positive", g > 0, fatal=False,
                   detail="" if g > 0 else f"genus {g} <= 0; theta machinery does not apply"),
        Diagnostic("char_coeff_degrees", True, fatal=True),
    ]


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
