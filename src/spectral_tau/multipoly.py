"""Sparse multivariate polynomials over the integers, divisible by u_i - u_j.

Used by the correlator engine for truncated numerators in the auxiliary
variables u_i = 1/z_i.  Exponents are nonnegative integer tuples; zero
coefficients are never stored.  The contract is as narrow as the engine's
use: coefficients are Python ``int`` (the engine rescales its series to
integers, u = c t, before it expands) and the only divisors are the pair
differences +-(u_i - u_j) of the Vandermonde denominator.  A non-integer
coefficient or any other divisor raises ``ValueError``.

Format.  A polynomial in u_0..u_{n-1} is a dict of rows.  A row's key is the
exponent tuple of u_1..u_{n-1}; its value is one Python int that packs the
u_0-coefficients c_0, c_1, ... of the row as signed base-2^W digits,
x = sum_k c_k 2^(W k): the row evaluated at u_0 = 2^W (Kronecker
substitution).  One big-int product multiplies two rows, one big-int sum adds
them, and a total-degree truncation keeps a row's low digits as a signed
residue, so an operation costs a few int operations per row instead of one
dict operation per pair of terms.

Width rule.  Every polynomial carries ``bound``, a certified upper bound on
the magnitude of its coefficients, and a width W with bound < 2^(W-1).  Then
each digit is the unique signed residue of its slot and a row decodes to
exactly its coefficients.  Every operation derives its result's bound from
its operands': a sum adds them, a product multiplies them (the only product
is apart: its second factor is univariate in a variable other than u_0 that
the first lacks, or a constant, so one term pair meets in each monomial and
any other factor raises ``ValueError``), a product by u_i - u_j doubles it,
and the division by u_i - u_j multiplies by the length of its longest
anti-diagonal.  A result whose bound does not fit is computed at a wider W,
its operands repacked first, so digits never overflow silently.  The
correlator engine packs its slots at a width that fits the certified bound
of the whole table, so on its path no operation widens.

Why u_0.  Every chain of the N-point expansion starts with slot 0, which
expands in u_0, so each partial product holds u_0 through its full
truncation.  Every later slot is univariate in its own variable; multiplying
by it is a row times a scalar under a new key, and no two products land in
the same row.  The product by u_i - u_j only moves rows: u_0 shifts a
packed row up one digit and u_i, i >= 1, raises one entry of its key.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Dict, Iterable, Tuple

Exponent = Tuple[int, ...]
Rows = Dict[Exponent, int]


class InexactDivisionError(Exception):
    """Raised when an exact multivariate division leaves a trusted remainder."""


# -- packed rows -------------------------------------------------------------------

def packing_width(bound: int) -> int:
    """The least digit width W >= 2 with bound < 2^(W-1)."""
    return max(2, bound.bit_length() + 1)


def _pack(digits: Dict[int, int], width: int) -> int:
    x = 0
    for k in range(max(digits), -1, -1):
        x = (x << width) + digits.get(k, 0)
    return x


def _unpack(x: int, width: int) -> Dict[int, int]:
    """{k: c_k} for the nonzero signed digits of x."""
    half = 1 << (width - 1)
    full = half << 1
    out = {}
    k = 0
    while x:
        d = x & (full - 1)
        if d >= half:
            d -= full
        if d:
            out[k] = d
        x = (x - d) >> width
        k += 1
    return out


def _low(x: int, nbits: int) -> int:
    """The digits of x below bit nbits (a multiple of W), as a signed residue."""
    if x.bit_length() < nbits:
        return x
    low = x & ((1 << nbits) - 1)
    if low >> (nbits - 1):
        low -= 1 << nbits
    return low


def _digit(x: int, k: int, width: int) -> int:
    if k:
        x = (x - _low(x, k * width)) >> (k * width)
    return _low(x, width)


def _nonzero(rows: Rows) -> Rows:
    """The rows without those that cancelled to zero."""
    return {e: r for e, r in rows.items() if r} if 0 in rows.values() else rows


def _repack(rows: Rows, width: int, new_width: int) -> Rows:
    if width == new_width:
        return rows
    return {e: _pack(_unpack(r, width), new_width) for e, r in rows.items()}


class MultiPoly:
    __slots__ = ("nvars", "rows", "width", "bound")

    def __init__(self, nvars: int, terms: Dict[Exponent, int] | None = None):
        self._set_terms(nvars, terms or {}, 2)

    def _set_terms(self, nvars: int, terms: Dict[Exponent, int], width: int) -> None:
        """Validate {exponent: int} and pack it at least ``width`` bits wide."""
        if nvars < 1:
            raise ValueError("a MultiPoly needs at least one variable")
        digits: Dict[Exponent, Dict[int, int]] = {}
        for e, c in terms.items():
            if type(c) is not int:
                raise ValueError(f"coefficient {c!r} is not an int")
            if c == 0:
                continue
            e = tuple(e)
            if len(e) != nvars or any(x < 0 for x in e):
                raise ValueError(f"bad exponent tuple {e} for {nvars} variables")
            digits.setdefault(e[1:], {})[e[0]] = c
        bound = max((abs(c) for row in digits.values() for c in row.values()), default=0)
        width = max(width, packing_width(bound))
        self.nvars = nvars
        self.rows = {e: _pack(row, width) for e, row in digits.items()}
        self.width = width
        self.bound = bound

    @classmethod
    def _trusted(cls, nvars: int, rows: Rows, width: int, bound: int) -> "MultiPoly":
        """Wrap nonzero rows packed at ``width`` whose coefficients are within ``bound``."""
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.rows = rows
        poly.width = width
        poly.bound = bound
        return poly

    # -- constructors -------------------------------------------------------
    # zero and pair_difference are built once per argument tuple and shared:
    # no operation changes a MultiPoly's rows, width or bound after it is made.
    @staticmethod
    @lru_cache(maxsize=None)
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars, {})

    @staticmethod
    def constant(nvars: int, c: int) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    @lru_cache(maxsize=None)
    def pair_difference(nvars: int, i: int, j: int) -> "MultiPoly":
        """u_i - u_j."""
        if i == j:
            return MultiPoly.zero(nvars)
        return MultiPoly(nvars, {tuple(int(k == i) for k in range(nvars)): 1,
                                 tuple(int(k == j) for k in range(nvars)): -1})

    @staticmethod
    def from_univariate(nvars: int, idx: int, coeffs: Iterable[int],
                        width: int = 2) -> "MultiPoly":
        """Embed sum_k coeffs[k] * u_idx**k, packed at least ``width`` bits wide.

        The rows are built directly: for idx = 0 one row holding every
        coefficient, otherwise one row {k * e_idx: c_k} per nonzero c_k; the
        bound is max |c_k|.  The correlator engine passes the width of its
        table's certified bound, so that the table's products and sums never
        repack.
        """
        coeffs = list(coeffs)
        if not 0 <= idx < nvars:
            raise ValueError(f"variable index {idx} out of range for {nvars} variables")
        for c in coeffs:
            if type(c) is not int:
                raise ValueError(f"coefficient {c!r} is not an int")
        bound = max(map(abs, coeffs), default=0)
        width = max(width, packing_width(bound))
        if not bound:
            rows = {}
        elif idx == 0:
            rows = {(0,) * (nvars - 1): _pack(dict(enumerate(coeffs)), width)}
        else:
            pre, post = (0,) * (idx - 1), (0,) * (nvars - 1 - idx)
            rows = {pre + (k,) + post: c for k, c in enumerate(coeffs) if c}
        return MultiPoly._trusted(nvars, rows, width, bound)

    # -- basic ring ops -------------------------------------------------------
    @property
    def terms(self) -> Dict[Exponent, int]:
        """{exponent: coefficient} for every nonzero term, unpacked."""
        out: Dict[Exponent, int] = {}
        for e, r in self.rows.items():
            for k, c in _unpack(r, self.width).items():
                out[(k,) + e] = c
        return out

    def coeff(self, exponent: Exponent) -> int:
        """The coefficient at ``exponent``; 0 when it has a negative entry."""
        e = tuple(exponent)
        if len(e) != self.nvars:
            raise ValueError(f"bad exponent tuple {e} for {self.nvars} variables")
        row = self.rows.get(e[1:])
        if row is None or e[0] < 0:
            return 0
        return _digit(row, e[0], self.width)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        return multipoly_sum(self.nvars, (self, other))

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.nvars, {e: -r for e, r in self.rows.items()},
                                  self.width, self.bound)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def mul(self, other: "MultiPoly", max_total_degree: int | None = None) -> "MultiPoly":
        """Product by an apart factor, optionally dropping monomials above a total degree cap.

        ``other`` is univariate in a variable ``self`` lacks, or a constant:
        the 1 x 1 case of :func:`multipoly_chain_step`.
        """
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        cap = 1 << 62 if max_total_degree is None else max_total_degree
        return multipoly_chain_step([[self]], [[other]], cap)[0][0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self) -> str:
        terms = self.terms
        if not terms:
            return "MultiPoly(0)"
        bits = []
        for e in sorted(terms, key=lambda t: (sum(t), t)):
            mono = "*".join(f"u{i}^{p}" for i, p in enumerate(e) if p) or "1"
            bits.append(f"{terms[e]}*{mono}")
        return "MultiPoly(" + " + ".join(bits) + ")"


def multipoly_chain_step(a, b, cap: int) -> list:
    """The matrix product a b of MultiPoly grids, without monomials above total degree ``cap``.

    The apart rule: every entry of b is univariate in one variable other than
    u_0 that no entry of a holds, or is a constant.  A row r of a[i][k] is
    truncated and keyed once per degree d of b[k], and each coefficient c of
    u^d in b[k][j] adds r * c into column j.  Entry (i, j) has bound
    sum_k a[i][k].bound * b[k][j].bound, which holds only under the apart rule,
    so a breach of it raises ``ValueError``; all entries share one width.
    """
    n = len(a)
    nvars = a[0][0].nvars
    # b's key position (None for a slot of constants) and its terms [(d, [(j, c), ...])] per row
    v = next((p for row in b for poly in row for e in poly.rows for p, x in enumerate(e) if x),
             None)
    terms = [{} for _ in b]
    for k, row in enumerate(b):
        for j, poly in enumerate(row):
            for e, c in poly.rows.items():
                d = 0 if v is None else e[v]
                if sum(e) != d:
                    raise ValueError(f"slot entry {poly!r} is not univariate in one variable")
                if c.bit_length() >= poly.width:
                    raise ValueError(f"slot entry {poly!r} holds u_0")
                terms[k].setdefault(d, []).append((j, c))
    terms = [sorted(t.items()) for t in terms]
    bounds = [[sum(a[i][k].bound * b[k][j].bound for k in range(n)
                   if a[i][k].rows and b[k][j].rows) for j in range(n)] for i in range(n)]
    width = max(packing_width(max(map(max, bounds))),
                *(poly.width for mat in (a, b) for row in mat for poly in row))
    out = []
    for i in range(n):
        cols = [{} for _ in range(n)]
        for k in range(n):
            for e, r in _repack(a[i][k].rows, a[i][k].width, width).items():
                keep = cap - sum(e)     # highest u_0 digit of a product
                if v is not None:
                    if e[v]:
                        raise ValueError(f"chain entry {a[i][k]!r} holds the slot's variable")
                    pre, post = e[:v], e[v + 1:]
                for d, js in terms[k]:
                    if keep < d:
                        break
                    r = _low(r, (keep - d + 1) * width)
                    if not r:
                        break
                    key = pre + (d,) + post if d else e     # e[v] is 0 here, or b is constants
                    for j, c in js:
                        cols[j][key] = cols[j].get(key, 0) + r * c
        out.append([MultiPoly._trusted(nvars, _nonzero(col), width, bound)
                    for col, bound in zip(cols, bounds[i])])
    return out


def multipoly_sum(nvars: int, polys: Iterable[MultiPoly]) -> MultiPoly:
    """Sum of polynomials in ``nvars`` variables, accumulated row by row."""
    kept, bound, width = [], 0, 2
    for p in polys:
        if p.rows:
            kept.append(p)
            bound += p.bound
            width = max(width, p.width)
    if len(kept) < 2:
        return kept[0] if kept else MultiPoly.zero(nvars)
    width = max(width, packing_width(bound))
    out: Rows = {}
    get = out.get
    for p in kept:
        rows = _repack(p.rows, p.width, width)
        if not out:
            out.update(rows)
        else:
            for e, r in rows.items():
                out[e] = get(e, 0) + r
    return MultiPoly._trusted(nvars, _nonzero(out), width, bound)


def multipoly_times_pair(f: MultiPoly, i: int, j: int) -> MultiPoly:
    """f * (u_i - u_j), 0 <= i < j, by moving rows: the inverse of :func:`multipoly_exact_divide`.

    Times u_0 shifts a packed row up one digit, times u_i (i >= 1) raises a
    key entry.  The bound 2 * f.bound widens as in :func:`multipoly_sum`.
    """
    if not f.rows:
        return MultiPoly.zero(f.nvars)
    bound = 2 * f.bound
    width = max(f.width, packing_width(bound))
    rows = _repack(f.rows, f.width, width)
    ii, jj = i - 1, j - 1
    out = {e[:jj] + (e[jj] + 1,) + e[jj + 1:]: -r for e, r in rows.items()}
    get = out.get
    for e, r in rows.items():
        if i:
            e = e[:ii] + (e[ii] + 1,) + e[ii + 1:]
        else:
            r <<= width
        out[e] = get(e, 0) + r
    return MultiPoly._trusted(f.nvars, _nonzero(out), width, bound)


def multipoly_coset_factor(q: MultiPoly, slots: Iterable[int], j: int) -> MultiPoly:
    """q - sum over b in ``slots`` of q with u_b and u_j exchanged (1 <= b < j).

    Each relabeling moves row keys only, so the packed u_0 digits are
    subtracted key by key into one dict.  The bound is the sum's,
    (1 + len(slots)) * q.bound, and a bound that does not fit widens as in
    :func:`multipoly_sum`.
    """
    slots = list(slots)
    bound = q.bound * (1 + len(slots))
    width = max(q.width, packing_width(bound))
    rows = _repack(q.rows, q.width, width)
    out = dict(rows)
    for b in slots:
        _subtract_swapped(out, rows, b - 1, j - 1)
    return MultiPoly._trusted(q.nvars, _nonzero(out), width, bound)


def _subtract_swapped(out: Rows, rows: Rows, i: int, j: int) -> None:
    """out -= rows with key positions i < j exchanged."""
    if not rows:
        return
    order = list(range(len(next(iter(rows)))))
    order[i], order[j] = j, i
    relabel = itemgetter(*order)
    get = out.get
    for e, r in rows.items():
        e = relabel(e)
        out[e] = get(e, 0) - r


def multipoly_exact_divide(
    numerator: MultiPoly, divisor: MultiPoly, trusted_total_degree: int
) -> MultiPoly:
    """Divide by ``divisor`` = s * (u_i - u_j), s = +-1, as a divided difference.

    Fix the exponents of the other variables and the degree d = a + b in
    (u_i, u_j), i < j.  Along that anti-diagonal the numerator's coefficients
    f[a, b] give the quotient as running sums, q[d-1-b, b] = sum of
    f[d-b', b'] over b' <= b, and the full sum is the remainder left at
    u_j^d: the graded-lex reduction by the leading term u_i, in closed form.
    A quotient coefficient sums at most d + 1 numerator coefficients, which
    sets its bound.

    A remainder monomial at or below ``trusted_total_degree`` means the
    division was not exact where it had to be, a truncation bug upstream, and
    raises :class:`InexactDivisionError`; those above it, where the numerator
    was never trustworthy, are dropped.  Any other divisor raises ``ValueError``.
    """
    if numerator.nvars != divisor.nvars:
        raise ValueError("variable count mismatch")
    pair = _unit_pair(divisor)
    if pair is None:
        raise ValueError(f"divisor {divisor!r} is not +-(u_i - u_j)")
    i, j, sign = pair
    width, rows = numerator.width, numerator.rows
    jj = j - 1
    if i == 0:
        longest = max((r.bit_length() // width + e[jj] for e, r in rows.items()), default=0)
    else:
        longest = max((e[i - 1] + e[jj] for e in rows), default=0)
    bound = numerator.bound * (longest + 1)
    if bound.bit_length() >= width:
        new_width = packing_width(bound)
        rows = _repack(rows, width, new_width)
        width = new_width
    divide = _divide_rows_by_u0_pair if i == 0 else _divide_rows_by_pair
    quotient = divide(rows, i - 1, jj, sign, width, trusted_total_degree)
    return MultiPoly._trusted(numerator.nvars, quotient, width, bound)


def _unit_pair(divisor: MultiPoly):
    """(i, j, s) when divisor = s * (u_i - u_j) with i < j and s = +-1, else None."""
    terms = divisor.terms
    if len(terms) == 2 and all(sum(e) == 1 for e in terms):
        (i, s), (j, t) = sorted((e.index(1), c) for e, c in terms.items())
        if s in (1, -1) and t == -s:
            return i, j, s
    return None


def _divide_rows_by_pair(rows: Rows, ii: int, jj: int, sign: int, width: int,
                         trusted: int) -> Rows:
    """Running sums of whole rows along the anti-diagonals of (u_i, u_j), i >= 1."""
    diagonals: Dict[Exponent, Dict[int, int]] = {}
    for e, r in rows.items():
        b = e[jj]
        key = e[:ii] + (e[ii] + b,) + e[ii + 1:jj] + (0,) + e[jj + 1:]
        diagonals.setdefault(key, {})[b] = r
    quotient: Rows = {}
    for key, row in diagonals.items():
        d = key[ii]
        pre, mid, post = key[:ii], key[ii + 1:jj], key[jj + 1:]
        running = 0
        for b in range(d):
            running += row.get(b, 0)
            if running:
                quotient[pre + (d - 1 - b,) + mid + (b,) + post] = sign * running
        running += row.get(d, 0)
        keep = trusted - sum(key)     # the u_0 digits that must vanish
        if running and keep >= 0:
            low = _low(running, (keep + 1) * width)
            if low:
                raise InexactDivisionError(
                    "division not exact within trusted range: remainder at "
                    f"{(min(_unpack(low, width)),) + pre + (0,) + mid + (d,) + post}"
                )
    return quotient


def _divide_rows_by_u0_pair(rows: Rows, ii: int, jj: int, sign: int, width: int,
                            trusted: int) -> Rows:
    """The divided difference for u_0 - u_j, digit by digit along each row group.

    With R_b the row at u_j^b, the quotient row at u_j^b is
    Q_b = (Q_(b-1) + R_b) shifted down one digit, and the digit shifted out
    is the remainder on the anti-diagonal of degree b.
    """
    groups: Dict[Exponent, Dict[int, int]] = {}
    for e, r in rows.items():
        groups.setdefault(e[:jj] + (0,) + e[jj + 1:], {})[e[jj]] = r
    half = 1 << (width - 1)
    mask = (half << 1) - 1
    quotient: Rows = {}
    for key, row in groups.items():
        pre, post = key[:jj], key[jj + 1:]
        rest = sum(key)
        top = max(row)
        acc = 0
        b = 0
        while b <= top or acc:
            acc += row.get(b, 0)
            low = acc & mask
            if low:
                if low >= half:
                    low -= half << 1
                if b + rest <= trusted:
                    raise InexactDivisionError(
                        "division not exact within trusted range: remainder at "
                        f"{(0,) + pre + (b,) + post}"
                    )
                acc -= low
            acc >>= width
            if acc:
                quotient[pre + (b,) + post] = sign * acc
            b += 1
    return quotient
