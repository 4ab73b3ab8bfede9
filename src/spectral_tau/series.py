"""Truncated power series in u = 1/z with exact rational coefficients.

A :class:`USeries` holds the coefficients of u^val, ..., u^(end - 1), where
``end = val + len(coeffs)``.  Its length is its trust certificate: a
coefficient below ``val`` is a true zero, and a coefficient at or past
``end`` is unknown, so reading it raises :class:`TruncationError`.  The
projector series and the expansion of 1/sqrt(Q) behind the theta check's
V-vectors are values of this one type.

Window rule: a sum or difference is trusted up to the smaller of the two
ends, and :meth:`inv_sqrt` keeps the input's length.  So every result's
window is a sound certificate of which coefficients are exact.

With a ``scale`` d, coeffs holds numerators: u^k has coefficient
coeffs[k - val] / d^k.  The projector series store their certified integers
so; a Fraction is made only where a coefficient is read (``[k]``,
:meth:`coefficients`), and series of one scale add numerators.

There is no exact mode.  An exact polynomial would need an unbounded window,
and every operation would then have to special-case it.  Giving each value
an explicit length when it becomes a series keeps one rule for every value.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Iterable


class TruncationError(Exception):
    """Raised when a coefficient at or past a series' trusted window is read."""


class NotInvertibleError(Exception):
    """Raised when a series has no invertible leading coefficient."""


class USeries:
    __slots__ = ("val", "coeffs", "scale")

    def __init__(self, val: int, coeffs: Iterable[int | Fraction], scale: int = 1):
        self.val = val
        self.coeffs = tuple(coeffs)
        self.scale = scale

    @property
    def end(self) -> int:
        """First exponent past the trusted window."""
        return self.val + len(self.coeffs)

    def _check(self, k: int) -> None:
        if k >= self.end:
            raise TruncationError(
                f"coefficient of u^{k} is past the trusted window (end={self.end})")

    def __getitem__(self, k: int):
        return 0 if k < self.val else self.coefficients(k, k + 1)[0]

    def numerators(self, start: int, stop: int) -> list:
        """Numerators over scale^k of u^start .. u^(stop - 1); raises past the window."""
        self._check(stop - 1)
        pad = max(min(self.val, stop) - start, 0)
        return [0] * pad + list(self.coeffs[max(start - self.val, 0):stop - self.val])

    def coefficients(self, start: int, stop: int) -> list:
        """Coefficients of u^start .. u^(stop - 1); raises past the window."""
        nums, d = self.numerators(start, stop), self.scale
        return nums if d == 1 else [q / Fraction(d) ** k for k, q in enumerate(nums, start)]

    def is_zero(self) -> bool:
        """True when every trusted coefficient vanishes."""
        return not any(self.coeffs)

    # -- sums and differences ----------------------------------------------
    def _combine(self, other: "USeries", op) -> "USeries":
        val, end = min(self.val, other.val), min(self.end, other.end)
        read = USeries.numerators if self.scale == other.scale else USeries.coefficients
        return USeries(val, map(op, read(self, val, end), read(other, val, end)),
                       self.scale if read is USeries.numerators else 1)

    def __add__(self, other: "USeries") -> "USeries":
        return self._combine(other, add)

    def __sub__(self, other: "USeries") -> "USeries":
        return self._combine(other, sub)

    def _normalized(self) -> "USeries":
        """Drop leading zeros: the valuation rises, the end stays."""
        for k, c in enumerate(self.coeffs):
            if c:
                return USeries(self.val + k, self.coeffs[k:], self.scale)
        raise NotInvertibleError("series vanishes on its trusted window")

    def inv_sqrt(self) -> "USeries":
        """s^(-1/2) for s = 1 + O(u), of the same length.

        The constant term must be exactly 1: general square roots would leave
        the rationals.  Uses s y' = -(1/2) s' y, which gives
        y_k = sum_{j=1..k} (j - 2k) s_j y_(k-j) / (2k), homogeneous of degree
        k at order k, so it runs on numerators and keeps the scale.
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
        return USeries(0, y, s.scale)

    def __eq__(self, other) -> bool:
        """Equality of trusted content on the common trusted window."""
        if not isinstance(other, USeries):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self) -> str:
        return f"USeries(val={self.val}, coeffs={list(self.coeffs)!r}, scale={self.scale})"
