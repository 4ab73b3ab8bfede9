"""Command-line front end.

Every subcommand takes --input (the matrix-polynomial JSON schema) and
--output (the report file; stdout without it), and only the flags it reads:

    curve-info, jet   nothing more
    correlators       --kmax --max-n --indices
    divisor           --tol
    verify-theta      --kmax --max-n --tol

The report is deterministic JSON.  Exit status: 0 success, 1 verification
failure or a failed numerical stage (divisor, periods, theta), 2 input error
(an --input that cannot be read or an --output that cannot be written
included; a flag a subcommand does not take is argparse's usage error, also 2).

Each handler imports the modules it runs, so the exact subcommands
(curve-info, correlators, jet) start without numpy and the numerical
modules; a handler turns the errors of its numerical stages into
:class:`StageError`, which :func:`run` maps to exit status 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .curve import characteristic_data
from .rationals import format_rational
from .serialize import (
    ParseError,
    correlator_table_to_json,
    divisor_points_to_json,
    jet_to_json,
    parse_matrix_polynomial,
)

KMAX_CAP = 16
MAXN_CAP = 6


class StageError(Exception):
    """A numerical stage (divisor, periods, theta) failed: exit status 1."""


@dataclass
class JobSpec:
    command: str
    input_path: str
    output_path: str | None = None
    kmax: int = 2
    max_n: int = 2
    tol: float = 1e-9
    indices: str | None = None


def _load_input(job: JobSpec):
    with open(job.input_path) as fh:
        data = json.load(fh)
    return parse_matrix_polynomial(data)


# Each check raises a ValueError (exit status 2) with a message that starts with its flag.

def _check_range(flag, value, low, cap):
    if value < low:
        raise ParseError(f"{flag}: {value} is below {low}")
    if value > cap:
        raise ParseError(f"{flag}: {value} exceeds the caps (at most {cap})")


def _check_sizes(job: JobSpec) -> None:
    """--kmax in 0..KMAX_CAP and --max-n in 0..MAXN_CAP."""
    _check_range("--kmax", job.kmax, 0, KMAX_CAP)
    _check_range("--max-n", job.max_n, 0, MAXN_CAP)


def _checked_indices(text: str, n: int) -> tuple:
    """The pairs (a, k) of "a1,k1;a2,k2;...": 2..MAXN_CAP of them, a in 1..n, k in 0..KMAX_CAP."""
    pairs = []
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        try:
            a, k = map(int, chunk.split(","))
        except ValueError:
            raise ParseError(f"--indices: {chunk!r} is not a pair a,k of integers") from None
        pairs.append((a, k))
    _check_range("--indices: number of pairs", len(pairs), 2, MAXN_CAP)
    for a, k in pairs:
        if not 1 <= a <= n:
            raise ParseError(f"--indices: sheet {a} outside 1..{n}")
        _check_range("--indices: order k", k, 0, KMAX_CAP)
    return tuple(pairs)


def _cmd_curve_info(job: JobSpec) -> dict:
    w = _load_input(job)
    curve = characteristic_data(w)
    return {
        "n": curve.n,
        "m": curve.m,
        "genus": curve.genus,
        "char_coefficients": [
            [format_rational(c) for c in curve.a(i).coeffs] for i in range(1, curve.n + 1)
        ],
        "char_degrees": [curve.a(i).degree() for i in range(1, curve.n + 1)],
        "diagnostics": [
            {"name": d.name, "passed": d.passed, "fatal": d.fatal, "detail": d.detail}
            for d in curve.diagnostics
        ],
    }


def _cmd_correlators(job: JobSpec) -> dict:
    import itertools

    from .correlators import CorrelatorEngine, correlator_n

    w = _load_input(job)
    _check_sizes(job)
    pairs = _checked_indices(job.indices, w.n) if job.indices else None
    engine = CorrelatorEngine(w)
    if pairs:
        table = correlator_n(w, tuple(a for a, _ in pairs), max(k for _, k in pairs), engine)
        return {
            "N": len(pairs),
            "indices": [[a, k] for a, k in pairs],
            "value": format_rational(table.value(pairs)),
        }
    tables = []
    for npts in range(2, max(2, job.max_n) + 1):
        for sheets in itertools.combinations_with_replacement(range(1, w.n + 1), npts):
            tables.append(correlator_table_to_json(correlator_n(w, sheets, job.kmax, engine)))
    return {"tables": tables}


def _cmd_divisor(job: JobSpec) -> dict:
    from .divisor import DivisorError, d_polynomial, expected_d_degree, pole_divisor, require_tol

    w = _load_input(job)
    tol = require_tol(job.tol, "--tol")
    try:
        points = pole_divisor(w, tol)
        dpoly = d_polynomial(w)
    except DivisorError as exc:
        raise StageError(str(exc)) from exc
    return {
        "d_polynomial": [format_rational(c) for c in dpoly.coeffs],
        "d_degree": dpoly.degree(),
        "expected_degree": expected_d_degree(w),
        "points": divisor_points_to_json(points),
    }


def _cmd_jet(job: JobSpec) -> dict:
    from .jets import jet_from_projectors, validate_jet

    w = _load_input(job)
    jet = jet_from_projectors(w)
    residues = validate_jet(jet)
    bad = [r for r in residues if r.residue != 0]
    report = jet_to_json(jet)
    report["constraints_checked"] = len(residues)
    report["constraints_failed"] = [
        {"name": r.name, "indices": list(r.indices), "residue": format_rational(r.residue)}
        for r in bad
    ]
    return report


def _cmd_verify_theta(job: JobSpec) -> dict:
    from .divisor import DivisorError, require_tol
    from .periods import PeriodError
    from .theta import ThetaError
    from .verify import verify_main_theorem

    w = _load_input(job)
    _check_sizes(job)
    tol = require_tol(job.tol, "--tol")
    kmax = {n: job.kmax for n in range(3, max(4, job.max_n) + 1)}
    try:
        report = verify_main_theorem(w, kmax=kmax, tol=max(tol, 1e-12))
    except (DivisorError, PeriodError, ThetaError) as exc:
        raise StageError(str(exc)) from exc
    return report.to_json_dict()


# subcommand -> (handler, the flags it reads besides --input and --output)
_COMMANDS = {
    "curve-info": (_cmd_curve_info, ()),
    "correlators": (_cmd_correlators, ("--kmax", "--max-n", "--indices")),
    "divisor": (_cmd_divisor, ("--tol",)),
    "jet": (_cmd_jet, ()),
    "verify-theta": (_cmd_verify_theta, ("--kmax", "--max-n", "--tol")),
}

# flag -> (JobSpec field, which also holds its default; type; help)
_FLAGS = {
    "--kmax": ("kmax", int, f"largest order k, 0..{KMAX_CAP}"),
    "--max-n": ("max_n", int, f"largest number of points N, 0..{MAXN_CAP}"),
    "--tol": ("tol", float, "tolerance, a finite number > 0"),
    "--indices": ("indices", str, 'index pairs "a1,k1;a2,k2;..." for a single correlator'),
}


def run(job: JobSpec) -> tuple[int, dict]:
    """Dispatch a job; returns (exit_status, report)."""
    try:
        report = _COMMANDS[job.command][0](job)
    except (ParseError, OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        return 2, {"errors": [str(exc)]}
    except StageError as exc:
        return 1, {"errors": [str(exc)]}
    if job.command == "verify-theta" and not report.get("success", False):
        return 1, report
    return 0, report


def _emit(report: dict, output_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if output_path:
        with open(output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-tau",
        description="Exact spectral-curve correlators and theta-function verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--input", dest="input_path", metavar="INPUT", required=True,
                       help="matrix polynomial JSON file")
        p.add_argument("--output", dest="output_path", metavar="OUTPUT", default=None,
                       help="write the JSON report here")
        for flag in flags:
            field, kind, text = _FLAGS[flag]
            p.add_argument(flag, dest=field, type=kind, default=getattr(JobSpec, field), help=text)
    return parser


def main(argv=None) -> int:
    """Run the job and emit its report; a report --output cannot take is an input error."""
    job = JobSpec(**vars(build_parser().parse_args(argv)))
    status, report = run(job)
    try:
        _emit(report, job.output_path)
    except OSError as exc:
        status = 2
        _emit({"errors": [str(exc)]}, None)
    return status


if __name__ == "__main__":
    sys.exit(main())
