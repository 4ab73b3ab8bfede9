"""Sparse multivariate polynomials over the integers and the rationals.

Used by the correlator engine for truncated numerators in the auxiliary
variables u_i = 1/z_i.  Exponents are nonnegative integer tuples; zero
coefficients are never stored.  Integer coefficients stay Python ``int`` (the
engine rescales its series to integers), anything else is kept as
``Fraction``.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from operator import add
from typing import Dict, Iterable, Tuple

Exponent = Tuple[int, ...]


class InexactDivisionError(Exception):
    """Raised when an exact multivariate division leaves a trusted remainder."""


class MultiPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Exponent, Fraction] | None = None):
        self.nvars = nvars
        clean: Dict[Exponent, Fraction] = {}
        for e, c in (terms or {}).items():
            if type(c) is not int:
                c = Fraction(c)
            if c == 0:
                continue
            if len(e) != nvars or any(x < 0 for x in e):
                raise ValueError(f"bad exponent tuple {e} for {nvars} variables")
            clean[tuple(e)] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: Dict[Exponent, Fraction]) -> "MultiPoly":
        """Wrap terms that are already valid exponent tuples with nonzero values."""
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        return poly

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars, {})

    @staticmethod
    def constant(nvars: int, c) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, idx: int, power: int = 1) -> "MultiPoly":
        e = [0] * nvars
        e[idx] = power
        return MultiPoly(nvars, {tuple(e): 1})

    @staticmethod
    def pair_difference(nvars: int, i: int, j: int) -> "MultiPoly":
        """u_i - u_j."""
        return MultiPoly.variable(nvars, i) - MultiPoly.variable(nvars, j)

    @staticmethod
    def from_univariate(nvars: int, idx: int, coeffs: Iterable[Fraction]) -> "MultiPoly":
        """Embed sum_k coeffs[k] * u_idx**k."""
        terms: Dict[Exponent, Fraction] = {}
        for k, c in enumerate(coeffs):
            if c:
                e = [0] * nvars
                e[idx] = k
                terms[tuple(e)] = c
        return MultiPoly(nvars, terms)

    # -- basic ring ops -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exponent: Exponent) -> Fraction:
        return self.terms.get(tuple(exponent), 0)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        return multipoly_sum(self.nvars, (self, other))

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def mul(self, other: "MultiPoly", max_total_degree: int | None = None) -> "MultiPoly":
        """Product, optionally dropping monomials above a total degree cap."""
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        right = sorted((sum(e), e, c) for e, c in other.terms.items())
        out: Dict[Exponent, Fraction] = {}
        get = out.get
        for e1, c1 in self.terms.items():
            room = None if max_total_degree is None else max_total_degree - sum(e1)
            for d2, e2, c2 in right:
                if room is not None and d2 > room:
                    break
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return MultiPoly._trusted(self.nvars, {e: c for e, c in out.items() if c})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        return self.mul(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        raise TypeError("MultiPoly is unhashable")

    def __repr__(self) -> str:
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            mono = "*".join(f"u{i}^{p}" for i, p in enumerate(e) if p) or "1"
            bits.append(f"{self.terms[e]}*{mono}")
        return "MultiPoly(" + " + ".join(bits) + ")"


def multipoly_sum(nvars: int, polys: Iterable[MultiPoly]) -> MultiPoly:
    """Sum of polynomials in ``nvars`` variables, accumulated in one dict."""
    out: Dict[Exponent, Fraction] = {}
    get = out.get
    for p in polys:
        for e, c in p.terms.items():
            out[e] = get(e, 0) + c
    return MultiPoly._trusted(nvars, {e: c for e, c in out.items() if c})


def multipoly_exact_divide(
    numerator: MultiPoly, divisor: MultiPoly, trusted_total_degree: int
) -> MultiPoly:
    """Divide exactly, tolerating junk only above the trusted total degree.

    The result is the graded-lex reduction of ``numerator`` by ``divisor``.
    Any remainder monomial at or below ``trusted_total_degree`` means the
    division was not exact where it had to be, which signals a truncation bug
    upstream, so it raises :class:`InexactDivisionError`.  Remainder monomials
    above the trusted degree are discarded (they live where the numerator was
    never trustworthy to begin with).  A divisor +-(u_i - u_j) takes the
    divided-difference path, anything else the generic reduction.
    """
    if divisor.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if numerator.nvars != divisor.nvars:
        raise ValueError("variable count mismatch")
    pair = _unit_pair(divisor)
    if pair is not None:
        return _divide_by_pair(numerator, *pair, trusted_total_degree)
    return _grlex_divide(numerator, divisor, trusted_total_degree)


def _unit_pair(divisor: MultiPoly):
    """(i, j, s) when divisor = s * (u_i - u_j) with i < j and s = +-1, else None."""
    if len(divisor.terms) != 2:
        return None
    linear = []
    for e, c in divisor.terms.items():
        if sum(e) != 1:
            return None
        linear.append((e.index(1), c))
    (i, ci), (j, cj) = sorted(linear)
    if ci not in (1, -1) or cj != -ci:
        return None
    return i, j, int(ci)


def _divide_by_pair(numerator: MultiPoly, i: int, j: int, sign: int,
                    trusted_total_degree: int) -> MultiPoly:
    """Quotient by sign * (u_i - u_j), i < j, as a divided difference.

    Fix the exponents of the other variables and the degree d = a + b in
    (u_i, u_j).  Along that anti-diagonal the numerator's coefficients
    f[a, b] give the quotient as running sums, q[d-1-b, b] = sum of
    f[d-b', b'] over b' <= b, and the full sum is the remainder left at
    u_j^d: the graded-lex reduction by the leading term u_i, done in closed
    form.
    """
    diagonals: Dict[Exponent, Dict[int, Fraction]] = {}
    for e, c in numerator.terms.items():
        b = e[j]
        key = e[:i] + (e[i] + b,) + e[i + 1:j] + (0,) + e[j + 1:]
        diagonals.setdefault(key, {})[b] = c
    quotient: Dict[Exponent, Fraction] = {}
    for key, row in diagonals.items():
        d = key[i]
        pre, mid, post = key[:i], key[i + 1:j], key[j + 1:]
        running = 0
        for b in range(d):
            running += row.get(b, 0)
            if running:
                quotient[pre + (d - 1 - b,) + mid + (b,) + post] = sign * running
        running += row.get(d, 0)
        if running and sum(key) <= trusted_total_degree:
            raise InexactDivisionError(
                "division not exact within trusted range: remainder at "
                f"{pre + (0,) + mid + (d,) + post}"
            )
    return MultiPoly._trusted(numerator.nvars, quotient)


def _grlex_key(e: Exponent) -> tuple:
    return (sum(e), e)


def _grlex_divide(numerator: MultiPoly, divisor: MultiPoly,
                  trusted_total_degree: int) -> MultiPoly:
    """Generic graded-lex reduction; see :func:`multipoly_exact_divide`."""
    lt = max(divisor.terms, key=_grlex_key)
    lc = divisor.terms[lt]
    work = dict(numerator.terms)
    quotient: Dict[Exponent, Fraction] = {}
    # Monomials are consumed in descending graded-lex order from a heap;
    # reduction only creates monomials strictly below the one consumed, and
    # each new one is pushed once.
    def heap_key(e):
        return (-sum(e), tuple(-x for x in e), e)

    heap = [heap_key(e) for e in work]
    heapq.heapify(heap)
    seen = set(work)
    while heap:
        e = heapq.heappop(heap)[-1]
        c = work.get(e, 0)
        if c == 0:
            continue
        del work[e]
        q = tuple(a - b for a, b in zip(e, lt))
        if any(x < 0 for x in q):
            if sum(e) <= trusted_total_degree:
                raise InexactDivisionError(
                    f"division not exact within trusted range: remainder at {e}"
                )
            continue
        factor = Fraction(c) / lc
        quotient[q] = quotient.get(q, 0) + factor
        for de, dc in divisor.terms.items():
            if de == lt:
                continue
            t = tuple(a + b for a, b in zip(q, de))
            work[t] = work.get(t, 0) - factor * dc
            if t not in seen:
                seen.add(t)
                heapq.heappush(heap, heap_key(t))
    return MultiPoly(numerator.nvars, quotient)
