"""Jets of the wave fields and the closed-form resolvent coefficients.

A jet holds the off-diagonal field values y_ij, their first derivatives in
the spatial variables x^b, and the symmetric second derivatives, all exact
rationals subject to the compatibility constraints

    sum_k d y_ij / d x^k = 0,
    d y_ij / d x^k = y_ik y_kj          (i, j, k pairwise distinct)

and the x-derivatives of these.  The first three inverse-power coefficients
B_1, B_2, B_3 of the matrix resolvent attached to a sheet have closed forms
in the jet data; conversely a jet can be read off the projector series of a
matrix polynomial, since the projectors are the resolvents at the base point
of the flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .curve import MatrixPolynomial
from .projectors import all_projectors


class JetError(Exception):
    pass


@dataclass(frozen=True)
class JetPoint:
    n: int
    y: Mapping[tuple[int, int], Fraction]
    d1: Mapping[tuple[int, int, int], Fraction]
    d2: Mapping[tuple[int, int, int, int], Fraction]  # key (i, j, b, c) with b <= c

    def value(self, i: int, j: int) -> Fraction:
        if i == j:
            return Fraction(0)
        return self.y[(i, j)]

    def deriv(self, i: int, j: int, b: int) -> Fraction:
        if i == j:
            return Fraction(0)
        return self.d1[(i, j, b)]

    def deriv2(self, i: int, j: int, b: int, c: int) -> Fraction:
        if i == j:
            return Fraction(0)
        if b > c:
            b, c = c, b
        return self.d2[(i, j, b, c)]


@dataclass(frozen=True)
class ResolventCoeffs:
    sheet: int
    b1: tuple
    b2: tuple
    b3: tuple


@dataclass(frozen=True)
class ConstraintResidue:
    name: str
    indices: tuple
    residue: Fraction


def validate_jet(jet: JetPoint) -> list[ConstraintResidue]:
    """Exact residues of every constraint instance; the jet is valid iff all vanish."""
    n = jet.n
    out: list[ConstraintResidue] = []
    idx = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for (i, j) in idx:
        out.append(ConstraintResidue(
            "derivative_sum", (i, j),
            sum((jet.deriv(i, j, k) for k in range(1, n + 1)), Fraction(0)),
        ))
        for k in range(1, n + 1):
            if k != i and k != j:
                out.append(ConstraintResidue(
                    "product_rule", (i, j, k),
                    jet.deriv(i, j, k) - jet.value(i, k) * jet.value(k, j),
                ))
        for b in range(1, n + 1):
            out.append(ConstraintResidue(
                "derivative_sum_d", (i, j, b),
                sum((jet.deriv2(i, j, k, b) for k in range(1, n + 1)), Fraction(0)),
            ))
            for k in range(1, n + 1):
                if k != i and k != j:
                    out.append(ConstraintResidue(
                        "product_rule_d", (i, j, k, b),
                        jet.deriv2(i, j, k, b)
                        - jet.deriv(i, k, b) * jet.value(k, j)
                        - jet.value(i, k) * jet.deriv(k, j, b),
                    ))
    return out


def _zero_matrix(n: int):
    return [[Fraction(0)] * n for _ in range(n)]


def resolvent_coefficients(jet: JetPoint, sheet: int) -> ResolventCoeffs:
    """Closed forms of B_1, B_2, B_3 for the given sheet (1-based).

    B_1 = -[E_a, Y].  B_2 has -dy_ij/dx^a off the diagonal, -y_ia y_ai at
    (i,i) for i != a, and sum_s y_as y_sa at (a,a).  The printed B_3 display
    lists its diagonal case for indices away from the sheet; the off-diagonal
    entries with i, j both different from a are forced by idempotency of the
    resolvent to (dy_ia/dx^a) y_aj - y_ia (dy_aj/dx^a), which reduces to the
    printed expression at i = j.
    """
    n = jet.n
    a = sheet
    if not 1 <= a <= n:
        raise JetError(f"sheet {a} out of range")
    sum_aa = sum((jet.value(a, s) * jet.value(s, a) for s in range(1, n + 1)), Fraction(0))
    b1 = _zero_matrix(n)
    b2 = _zero_matrix(n)
    b3 = _zero_matrix(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            r, c = i - 1, j - 1
            # B1 = -[E_a, Y]
            if i == a and j != a:
                b1[r][c] = -jet.value(a, j)
            elif j == a and i != a:
                b1[r][c] = jet.value(i, a)
            # B2
            if i != j:
                b2[r][c] = -jet.deriv(i, j, a)
            elif i == a:
                b2[r][c] = sum_aa
            else:
                b2[r][c] = -jet.value(i, a) * jet.value(a, i)
            # B3, four cases
            if i != a and j != a:
                b3[r][c] = (
                    jet.deriv(i, a, a) * jet.value(a, j)
                    - jet.value(i, a) * jet.deriv(a, j, a)
                )
            elif i == a and j != a:
                b3[r][c] = -jet.deriv2(a, j, a, a) - 2 * jet.value(a, j) * sum_aa
            elif i != a and j == a:
                b3[r][c] = jet.deriv2(i, a, a, a) + 2 * jet.value(i, a) * sum_aa
            else:
                b3[r][c] = sum(
                    (
                        jet.value(s, a) * jet.deriv(a, s, a)
                        - jet.deriv(s, a, a) * jet.value(a, s)
                        for s in range(1, n + 1)
                    ),
                    Fraction(0),
                )
    freeze = lambda mat: tuple(tuple(row) for row in mat)
    return ResolventCoeffs(sheet=sheet, b1=freeze(b1), b2=freeze(b2), b3=freeze(b3))


def jet_from_projectors(w: MatrixPolynomial) -> JetPoint:
    """Read the jet off the first three projector coefficients of every sheet.

    Values come from the rows of B_1 = -[E_a, Y], first derivatives from the
    off-diagonal of B_2, own second derivatives from the row/column cases of
    B_3 (two routes, compared).  Then every entry of B_1, B_2 and B_3 of every
    sheet is compared with :func:`resolvent_coefficients` of the jet; a
    mismatch raises (it means the input is degenerate or outside the flow
    class the closed forms describe).
    """
    n = w.n
    projectors = all_projectors(w, 3)
    coeff = lambda a, k: tuple(tuple(s[k] for s in row) for row in projectors[a - 1])
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]

    y = {(i, j): -coeff(i, 1)[i - 1][j - 1] for i, j in pairs}   # (B_{i,1})_ij = -y_ij
    d1 = {(i, j, b): -coeff(b, 2)[i - 1][j - 1] for i, j in pairs for b in range(1, n + 1)}

    def own_second(i: int, j: int, b: int) -> Fraction:
        """d^2 y_ij / d(x^b)^2 for b in {i, j}, read from sheet b's B3."""
        sum_bb = sum((y[(b, s)] * y[(s, b)] for s in range(1, n + 1) if s != b), Fraction(0))
        if b == i:
            return -coeff(b, 3)[i - 1][j - 1] - 2 * y[(i, j)] * sum_bb
        return coeff(b, 3)[i - 1][j - 1] - 2 * y[(i, j)] * sum_bb

    d2: dict[tuple[int, int, int, int], Fraction] = {}

    def put_d2(i, j, b, c, val):
        if b > c:
            b, c = c, b
        if (i, j, b, c) in d2 and d2[(i, j, b, c)] != val:
            raise JetError(
                f"projector data inconsistent with the jet structure at d2 y[{i},{j}], x^{b} x^{c}"
            )
        d2[(i, j, b, c)] = val

    for i, j in pairs:
        # derivatives with at least one index outside {i, j}: product rule
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                if c in (i, j):
                    continue
                val = d1[(i, c, b)] * y[(c, j)] + y[(i, c)] * d1[(c, j, b)]
                put_d2(i, j, b, c, val)
        put_d2(i, j, i, i, own_second(i, j, i))
        put_d2(i, j, j, j, own_second(i, j, j))
        # the mixed (i, j) entry follows from the vanishing derivative sum
        mixed = -sum(
            (d2[(i, j, *sorted((c, i)))] for c in range(1, n + 1) if c != j),
            Fraction(0),
        )
        put_d2(i, j, i, j, mixed)

    jet = JetPoint(n=n, y=y, d1=d1, d2=d2)
    for b in range(1, n + 1):
        rc = resolvent_coefficients(jet, b)
        for k, closed in enumerate((rc.b1, rc.b2, rc.b3), start=1):
            read = coeff(b, k)
            for i in range(n):
                for j in range(n):
                    if closed[i][j] != read[i][j]:
                        raise JetError(
                            f"projector data inconsistent with the jet structure at "
                            f"B{k}[{i + 1},{j + 1}], sheet {b}"
                        )
    return jet
