"""Dense univariate polynomials over the rationals.

Coefficients are stored ascending by power of z.  The zero polynomial is the
empty coefficient list and has degree -1.  All arithmetic is exact, and a
coefficient becomes a Fraction once: one that already is one is kept as it
is.  The gcd and the determinant run over Z[z], on int coefficient lists
with the denominators cleared (:func:`_cleared`), and make their Fractions
at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Sequence


_ZERO = Fraction(0)


def _normalize(coeffs: Iterable[Fraction | int]) -> tuple[Fraction, ...]:
    c = [x if type(x) is Fraction else Fraction(x) for x in coeffs]
    while c and not c[-1]:
        c.pop()
    return tuple(c)


class Poly:
    """Polynomial in z with Fraction coefficients, ascending order.

    ``_complex`` holds the coefficients as complex numbers, highest power
    first, made on the first evaluation at a point that is not rational.
    """

    __slots__ = ("coeffs", "_complex")

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        self.coeffs = _normalize(coeffs)
        self._complex = None

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def constant(c) -> "Poly":
        return Poly((Fraction(c),))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return _ZERO

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return _coerce(other) - self

    def __mul__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        return Poly(tuple(c / lead for c in self.coeffs))

    def __call__(self, x):
        """Evaluate by Horner: exactly at an int or Fraction, in complex floats elsewhere."""
        if isinstance(x, (int, Fraction)):
            result = Fraction(0)
            for c in reversed(self.coeffs):
                result = result * x + c
            return result
        if self._complex is None:
            self._complex = tuple(complex(c) for c in reversed(self.coeffs))
        result = 0 * x if self._complex else 0
        for c in self._complex:
            result = result * x + c
        return result

    def float_coeffs_descending(self) -> list[float]:
        return [float(c) for c in reversed(self.coeffs)] if self.coeffs else [0.0]

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i in reversed(range(len(self.coeffs))):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def _coerce(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.constant(x)
    return NotImplemented


def _primitive(coeffs) -> list[int]:
    """Integers proportional to the rational (or integer) coefficients, with gcd 1."""
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (scale // c.denominator) for c in coeffs]
    content = gcd(*ints)
    return [c // content for c in ints]


def _pseudo_remainder(f: list[int], g: list[int]) -> list[int]:
    """lc(g)^e f mod g for some e >= 0, by integer steps; ascending, zeros trimmed."""
    r, top, lead = list(f), len(g) - 1, g[-1]
    while len(r) > top:
        c, shift = r[-1], len(r) - 1 - top
        r = [lead * x for x in r]
        for j, y in enumerate(g):
            r[shift + j] -= c * y
        while r and not r[-1]:
            r.pop()
    return r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q[z], by a primitive remainder sequence over Z[z].

    The inputs are scaled to primitive integer polynomials, and each
    pseudo-remainder is divided by its content, so the remainders never carry
    the common factors that make Euclid's Fractions over Q blow up (Collins,
    J. ACM 14, 1967).  The last nonzero remainder is a gcd; it is returned
    monic, and the gcd of two zeros is zero.
    """
    f, g = (_primitive(p) for p in sorted((a.coeffs, b.coeffs), key=len, reverse=True))
    while g:
        f, g = g, _primitive(_pseudo_remainder(f, g))
    return Poly(f).monic()


def is_squarefree(p: Poly) -> bool:
    if p.degree() <= 1:
        return True
    return poly_gcd(p, p.derivative()).degree() == 0


def _cleared(polys: Iterable[Poly]) -> tuple[int, list[list[int]]]:
    """(L, the int coefficient lists of L p): L is the lcm of the denominators of the polys."""
    polys = list(polys)
    scale = lcm(*(c.denominator for p in polys for c in p.coeffs))
    return scale, [[c.numerator * (scale // c.denominator) for c in p.coeffs] for p in polys]


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    """a * b over Z[z]; a product of nonzero lists keeps a nonzero top coefficient."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_add(a: list[int], b: list[int], sign: int = 1) -> list[int]:
    """a + sign * b over Z[z], zeros trimmed."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += sign * y
    while out and not out[-1]:
        out.pop()
    return out


def _int_exact_div(a: list[int], b: list[int]) -> list[int]:
    """a / b over Z[z]; raises ValueError unless b divides a there.

    Each step floor-divides by b's top coefficient; a step that is not
    exact leaves a nonzero coefficient behind, which the remainder check sees.
    """
    rem, d, lead = list(a), len(b) - 1, b[-1]
    q = [0] * max(0, len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        if rem[i]:
            f = q[i - d] = rem[i] // lead
            for j, y in enumerate(b):
                rem[i - d + j] -= f * y
    if any(rem):
        raise ValueError("polynomial division is not exact")
    return q


def poly_matrix_det(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square Poly matrix by fraction-free (Bareiss) elimination over Z[z].

    Each row is scaled by the lcm of its denominators, the elimination runs
    on int coefficient lists, and the determinant is divided by the product
    of the row scales once, one Fraction per coefficient.  The divisions by
    previous pivots are exact in Z[z]; a nonzero remainder would mean
    corrupted input and raises.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    if n == 0:
        return Poly.one()
    scales, m = zip(*(_cleared(row) for row in rows))
    m = list(m)
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not m[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot_row is None:
                return Poly.zero()
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _int_add(_int_mul(m[i][j], m[k][k]), _int_mul(m[i][k], m[k][j]), -1)
                m[i][j] = _int_exact_div(num, prev)
            m[i][k] = []
        prev = m[k][k]
    scale = sign * prod(scales)
    return Poly(Fraction(c, scale) for c in m[n - 1][n - 1])


def resultant_w(pcoeffs: Sequence[Poly], qcoeffs: Sequence[Poly]) -> Poly:
    """Resultant in w of two polynomials in w whose coefficients live in Q[z].

    Both inputs are sequences of Poly, descending in w (index 0 is the leading
    w-coefficient).  Computed as the Sylvester determinant.
    """
    p = list(pcoeffs)
    q = list(qcoeffs)
    dp = len(p) - 1
    dq = len(q) - 1
    if dp < 0 or dq < 0:
        raise ValueError("zero polynomial has no resultant")
    size = dp + dq
    rows: list[list[Poly]] = []
    for i in range(dq):
        row = [Poly.zero()] * size
        for j, c in enumerate(p):
            row[i + j] = c
        rows.append(row)
    for i in range(dp):
        row = [Poly.zero()] * size
        for j, c in enumerate(q):
            row[i + j] = c
        rows.append(row)
    return poly_matrix_det(rows)
