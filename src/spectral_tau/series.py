"""Truncated power series in u = 1/z with exact rational coefficients.

A :class:`USeries` holds the coefficients of u^val, ..., u^(end - 1), where
``end = val + len(coeffs)``.  Its length is its trust certificate: a
coefficient below ``val`` is a true zero, and a coefficient at or past
``end`` is unknown, so reading it raises :class:`TruncationError`.  A
polynomial p(z) enters through :meth:`USeries.from_poly` with valuation
-deg p, so W(z), the characteristic coefficients a_i(z) and the branches
w_a ~ b0_a z^m are all series of this one type.

Window rule: a sum or difference is trusted up to the smaller of the two
ends; a product a*b up to min(a.end + b.val, b.end + a.val), that is, from
a.val + b.val for the smaller of the two lengths; :meth:`inverse` and
:meth:`inv_sqrt` keep the input's length.  So every result's window is a
sound certificate of which coefficients are exact.

There is no exact mode.  An exact polynomial would need an unbounded window,
and every operation would then have to special-case it (an inverse of an
exact non-monomial series has no natural length at all).  Giving each
polynomial an explicit length when it becomes a series keeps one rule for
every value.

Coefficients are Python ints and Fractions.  A product scales each operand
to integer numerators over the lcm of its denominators, convolves in ints and
makes one Fraction per output coefficient; a product of two int series stays
int.  Otherwise only division (in :meth:`inverse` and :meth:`inv_sqrt`) makes
new Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, mul, sub
from typing import Iterable

from .polynomials import Poly


class TruncationError(Exception):
    """Raised when a coefficient at or past a series' trusted window is read."""


class NotInvertibleError(Exception):
    """Raised when a series has no invertible leading coefficient."""


def _numerators(coeffs) -> tuple[list[int], int]:
    """Integers c_k and d with coeffs[k] == c_k / d, d the lcm of the denominators."""
    d = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _convolve(a, b) -> list:
    """First len(a) coefficients of the product of two equally long sequences."""
    rb = b[::-1]
    n = len(a)
    return [sum(map(mul, a[:k + 1], rb[n - 1 - k:])) for k in range(n)]


class USeries:
    __slots__ = ("val", "coeffs")

    def __init__(self, val: int, coeffs: Iterable[int | Fraction]):
        self.val = val
        self.coeffs = tuple(coeffs)

    @staticmethod
    def from_poly(p: Poly, length: int) -> "USeries":
        """p(1/u) with ``length`` coefficients from u^(-deg p) on."""
        d = max(p.degree(), 0)
        return USeries(-d, [p.coeff(d - k) for k in range(length)])

    @property
    def end(self) -> int:
        """First exponent past the trusted window."""
        return self.val + len(self.coeffs)

    def _check(self, k: int) -> None:
        if k >= self.end:
            raise TruncationError(
                f"coefficient of u^{k} is past the trusted window (end={self.end})")

    def __getitem__(self, k: int):
        if k < self.val:
            return 0
        self._check(k)
        return self.coeffs[k - self.val]

    def coefficients(self, start: int, stop: int) -> list:
        """Coefficients of u^start .. u^(stop - 1); raises past the window."""
        self._check(stop - 1)
        pad = max(min(self.val, stop) - start, 0)
        return [0] * pad + list(self.coeffs[max(start - self.val, 0):stop - self.val])

    def is_zero(self) -> bool:
        """True when every trusted coefficient vanishes."""
        return not any(self.coeffs)

    # -- ring operations ---------------------------------------------------
    def _combine(self, other: "USeries", op) -> "USeries":
        val, end = min(self.val, other.val), min(self.end, other.end)
        return USeries(val, map(op, self.coefficients(val, end), other.coefficients(val, end)))

    def __add__(self, other: "USeries") -> "USeries":
        return self._combine(other, add)

    def __sub__(self, other: "USeries") -> "USeries":
        return self._combine(other, sub)

    def __mul__(self, other) -> "USeries":
        if isinstance(other, (int, Fraction)):
            return USeries(self.val, [other * c for c in self.coeffs])
        n = min(len(self.coeffs), len(other.coeffs))
        a, b = self.coeffs[:n], other.coeffs[:n]
        val = self.val + other.val
        if all(type(c) is int for c in a + b):
            return USeries(val, _convolve(a, b))
        (na, da), (nb, db) = _numerators(a), _numerators(b)
        d = da * db
        return USeries(val, [Fraction(c, d) for c in _convolve(na, nb)])

    __rmul__ = __mul__

    def _normalized(self) -> "USeries":
        """Drop leading zeros: the valuation rises, the end stays."""
        for k, c in enumerate(self.coeffs):
            if c:
                return USeries(self.val + k, self.coeffs[k:])
        raise NotInvertibleError("series vanishes on its trusted window")

    def inverse(self) -> "USeries":
        """1/s, of valuation -val and the same length as s without leading zeros."""
        s = self._normalized()
        a = s.coeffs
        inv0 = 1 / Fraction(a[0])
        out = [inv0]
        for k in range(1, len(a)):
            acc = 0
            for j in range(1, k + 1):
                if a[j]:
                    acc += a[j] * out[k - j]
            out.append(-acc * inv0)
        return USeries(-s.val, out)

    def inv_sqrt(self) -> "USeries":
        """s^(-1/2) for s = 1 + O(u), of the same length.

        The constant term must be exactly 1: general square roots would leave
        the rationals.  Uses s y' = -(1/2) s' y, which gives
        y_k = sum_{j=1..k} (j - 2k) s_j y_(k-j) / (2k).
        """
        s = self._normalized()
        if s.val != 0 or s.coeffs[0] != 1:
            raise NotInvertibleError("inverse square root requires constant term 1")
        a = s.coeffs
        y = [Fraction(1)]
        for k in range(1, len(a)):
            acc = 0
            for j in range(1, k + 1):
                if a[j]:
                    acc += (j - 2 * k) * a[j] * y[k - j]
            y.append(Fraction(acc) / (2 * k))
        return USeries(0, y)

    def __eq__(self, other) -> bool:
        """Equality of trusted content on the common trusted window."""
        if not isinstance(other, USeries):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self) -> str:
        return f"USeries(val={self.val}, coeffs={list(self.coeffs)!r})"
