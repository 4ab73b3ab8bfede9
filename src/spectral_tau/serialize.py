"""JSON wire formats.

Rationals travel as strings "p/q" (or "p"), never as floats; matrix
polynomials as {"n", "m", "coefficients": [B0, ..., Bm]} with B0 multiplying
z^m.  All emitters sort keys and entries so identical inputs produce
byte-identical reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .curve import InvalidMatrixPolynomial, MatrixPolynomial
from .rationals import format_rational, parse_rational

if TYPE_CHECKING:  # the two *_from_json constructors import them when called
    from .correlators import CorrelatorTable
    from .jets import JetPoint


class ParseError(ValueError):
    pass


def parse_matrix_polynomial(data: dict) -> MatrixPolynomial:
    """Parse and validate the matrix-polynomial schema (exact entries only)."""
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    for key in ("n", "m", "coefficients"):
        if key not in data:
            raise ParseError(f"missing field {key!r}")
    n, m = data["n"], data["m"]
    if not isinstance(n, int) or not isinstance(m, int) or n < 2 or m < 1:
        raise ParseError("need integer n >= 2 and m >= 1")
    coeffs = data["coefficients"]
    if not isinstance(coeffs, list) or len(coeffs) != m + 1:
        raise ParseError(f"coefficients must list m+1 = {m + 1} matrices (z^m first)")
    matrices = []
    for k, mat in enumerate(coeffs):
        if not isinstance(mat, list) or len(mat) != n or any(
            not isinstance(row, list) or len(row) != n for row in mat
        ):
            raise ParseError(f"coefficients[{k}] must be an {n}x{n} matrix")
        parsed = []
        for i, row in enumerate(mat):
            prow = []
            for j, entry in enumerate(row):
                try:
                    prow.append(parse_rational(entry))
                except ValueError as exc:
                    raise ParseError(f"coefficients[{k}][{i}][{j}]: {exc}") from exc
            parsed.append(prow)
        matrices.append(parsed)
    lead = matrices[0]
    if any(lead[i][j] != 0 for i in range(n) for j in range(n) if i != j):
        raise ParseError("leading coefficient must be diagonal")
    diag = [lead[i][i] for i in range(n)]
    if len(set(diag)) != n:
        raise ParseError("leading diagonal entries must be pairwise distinct")
    try:
        return MatrixPolynomial.from_power_matrices(n, m, matrices)
    except InvalidMatrixPolynomial as exc:
        raise ParseError(str(exc)) from exc


def correlator_table_to_json(table: CorrelatorTable) -> dict:
    entries = []
    for key in sorted(table.entries):
        entries.append({
            "a": [a for a, _ in key],
            "k": [k for _, k in key],
            "value": format_rational(table.entries[key]),
        })
    return {"N": table.n_points, "entries": entries, "trusted_order": table.trusted_order}


def correlator_table_from_json(data: dict) -> CorrelatorTable:
    from .correlators import CorrelatorTable

    entries = {}
    for item in data["entries"]:
        key = tuple((int(a), int(k)) for a, k in zip(item["a"], item["k"]))
        entries[key] = parse_rational(item["value"])
    return CorrelatorTable(int(data["N"]), entries, int(data["trusted_order"]))


def divisor_points_to_json(points) -> list:
    return [
        {
            "z": [p.z.real, p.z.imag],
            "w": [p.w.real, p.w.imag],
            "residual_R": p.residual_r,
            "residual_eig": p.residual_eig,
        }
        for p in points
    ]


def jet_to_json(jet: JetPoint) -> dict:
    return {
        "n": jet.n,
        "y": [
            {"i": i, "j": j, "value": format_rational(v)}
            for (i, j), v in sorted(jet.y.items())
        ],
        "d1": [
            {"i": i, "j": j, "b": b, "value": format_rational(v)}
            for (i, j, b), v in sorted(jet.d1.items())
        ],
        "d2": [
            {"i": i, "j": j, "b": b, "c": c, "value": format_rational(v)}
            for (i, j, b, c), v in sorted(jet.d2.items())
        ],
    }


def jet_from_json(data: dict) -> JetPoint:
    from .jets import JetPoint

    y = {(int(e["i"]), int(e["j"])): parse_rational(e["value"]) for e in data["y"]}
    d1 = {(int(e["i"]), int(e["j"]), int(e["b"])): parse_rational(e["value"]) for e in data["d1"]}
    d2 = {
        (int(e["i"]), int(e["j"]), int(e["b"]), int(e["c"])): parse_rational(e["value"])
        for e in data["d2"]
    }
    return JetPoint(n=int(data["n"]), y=y, d1=d1, d2=d2)
