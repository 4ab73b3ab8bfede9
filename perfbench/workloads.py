"""Seeded instances and request lists of the benchmark workloads.

Importing this module imports ``spectral_tau``; ``run.py`` puts the
checkout's ``src`` directory on ``sys.path`` first and times the import as
part of set-up.

Random instances come from copies of the generators in ``tests/conftest.py``,
so conftest seed ``s`` names the same curve here, in the tests and in the
ROADMAP tables.  The workload seed picks one entry of a fixed pool of conftest
seeds (``pool_seed``); every output the pool can produce has a digest in
``digests.json``, recorded with ``run.py --record`` and checked once against
an independent path when recorded (``record``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import spectral_tau
import spectral_tau.cli
from spectral_tau import (
    MatrixPolynomial,
    characteristic_data,
    correlator_n,
    correlator_pair,
    hyperelliptic_combination,
    verify_main_theorem,
)
from spectral_tau.periods import PeriodError
from spectral_tau.polynomials import Poly
from spectral_tau.serialize import parse_matrix_polynomial

from stats import expected_failure

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs" / "examples"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

POOL_BASE = 100     # default seed 0 -> conftest seed 100, as in the ROADMAP tables
POOL_SIZE = 16
G3_PAIRS = 2        # theta-g3: seed picks conftest pair (101, 102) or (103, 104)
CLI_TIMEOUT_S = 120
VERIFY_TOL = 1e-9   # the CLI's default tolerance

DOC_FILES = {
    "g1-doc": "hyperelliptic-g1.json",
    "g2-doc": "hyperelliptic-g2.json",
    "m1-doc": "three-sheet-m1.json",
}


# -- copies of the tests/conftest.py generators --------------------------------

def small_fraction(rng, num=4, den=3):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_matrix_polynomial(seed, n, m, traceless=False, distinct_range=8):
    """Random W with diagonal distinct leading matrix; retries until valid."""
    rng = random.Random(seed)
    while True:
        lead = rng.sample(range(-distinct_range, distinct_range + 1), n)
        mats = [[[Fraction(lead[i]) if i == j else Fraction(0) for j in range(n)]
                 for i in range(n)]]
        for _ in range(m):
            mats.append([[small_fraction(rng) for _ in range(n)] for _ in range(n)])
        if traceless:
            for k in range(0, m + 1):
                s = sum(mats[k][i][i] for i in range(n))
                mats[k][n - 1][n - 1] -= s
            lead_entries = [mats[0][i][i] for i in range(n)]
            if len(set(lead_entries)) != n:
                continue
        w = MatrixPolynomial.from_power_matrices(n, m, mats)
        curve = characteristic_data(w)
        if all(d.passed or not d.fatal for d in curve.diagnostics):
            if any(not d.passed for d in curve.diagnostics if d.name == "leading_entries_distinct"):
                continue
            return w


def random_hyperelliptic(seed, g, require_smooth=True):
    """Random traceless 2x2 W = [[a,b],[c,-a]] with monic a of degree g+1."""
    rng = random.Random(seed)
    while True:
        a = Poly([small_fraction(rng, 3, 2) for _ in range(g + 1)] + [Fraction(1)])
        b = Poly([small_fraction(rng, 3, 2) for _ in range(g + 1)])
        c = Poly([small_fraction(rng, 3, 2) for _ in range(g + 1)])
        w = MatrixPolynomial.from_entries([[a, b], [c, -a]])
        curve = characteristic_data(w)
        if require_smooth and not all(d.passed for d in curve.diagnostics):
            continue
        return w, a, b, c


# -- instances -------------------------------------------------------------------

def pool_seed(seed: int) -> int:
    return POOL_BASE + seed % POOL_SIZE


def make_instance(name: str) -> MatrixPolynomial:
    """Build an instance from its name: '<kind>-doc' or '<kind>-s<conftest seed>'.

    Kinds: g1, g2, g3 (random_hyperelliptic of that genus) and n3m1, n3m2,
    n4m1 (random_matrix_polynomial with that n and m).
    """
    kind, _, tag = name.partition("-")
    if tag == "doc":
        return parse_matrix_polynomial(json.loads((DOCS / DOC_FILES[name]).read_text()))
    seed = int(tag[1:])
    if kind.startswith("g"):
        return random_hyperelliptic(seed, int(kind[1:]))[0]
    return random_matrix_polynomial(seed, int(kind[1]), int(kind[3]))


def instance_json(w: MatrixPolynomial) -> str:
    """The CLI input schema, coefficients of z^m first, rationals as strings."""
    coeffs = [[[str(Fraction(x)) for x in row] for row in w.coefficient_of_power(k)]
              for k in range(w.m, -1, -1)]
    return json.dumps({"n": w.n, "m": w.m, "coefficients": coeffs}, indent=2) + "\n"


def instance_digest(w: MatrixPolynomial) -> str:
    return hashlib.sha256(instance_json(w).encode()).hexdigest()[:16]


# -- outputs and digests ---------------------------------------------------------

@dataclass(frozen=True)
class Output:
    """What one request produced: a digest of its exact output, the verify
    verdict (theta workloads) and the report size (CLI)."""

    digest: str
    verdict: bool | None = None
    stdout_bytes: int = 0


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def table_digest(values: dict) -> str:
    """Digest of {index tuple: Fraction}, independent of dict order."""
    lines = sorted(f"{key}={Fraction(v)}" for key, v in values.items())
    return _sha("\n".join(lines))


def verify_digest(report: dict) -> str:
    """Digest of the exact side of a verify report (N, k, F) only: theta values
    are checked through the verdict, so a quadrature change is no mismatch."""
    return _sha("\n".join(f"{r['N']}:{r['k']}:{r['F']}" for r in report["identities"]))


@dataclass(frozen=True)
class Request:
    key: str
    run: Callable[[], Output]


# -- exact-npoint ----------------------------------------------------------------

# (instance, sheets, N, kmax); sheets None means hyperelliptic_combination.
# N = 3, 4 and 5 on the docs examples; every m1-doc value is 0.
EXACT_DOC_SPECS = (
    ("g1-doc", None, 3, 2), ("g1-doc", None, 4, 2),
    ("g2-doc", None, 3, 2), ("g2-doc", None, 4, 2), ("g2-doc", None, 5, 0),
    ("m1-doc", (1, 2, 3), 3, 2), ("m1-doc", (1, 2, 3, 3), 4, 2),
    ("m1-doc", (1, 2, 3, 1, 2), 5, 0),
)
EXACT_RANDOM_SPECS = (
    ("g1", None, 4, 1), ("g2", None, 4, 1),
    ("n3m1", (1, 1, 2, 3), 4, 1), ("n3m2", (1, 1, 2, 3), 4, 1),
)


def exact_specs(seed: int):
    s = pool_seed(seed)
    return EXACT_DOC_SPECS + tuple((f"{kind}-s{s}", sheets, npts, k)
                                   for kind, sheets, npts, k in EXACT_RANDOM_SPECS)


def exact_key(inst, sheets, npts, kmax) -> str:
    what = "hcomb" if sheets is None else "corr" + "".join(map(str, sheets))
    return f"exact-npoint/{inst}/{what}/N{npts}k{kmax}"


def exact_values(w, sheets, npts, kmax) -> dict:
    if sheets is None:
        return hyperelliptic_combination(w, npts, kmax)
    table = correlator_n(w, sheets, kmax)
    return {tuple(k for _, k in key): v for key, v in table.entries.items()}


def exact_request(instances, spec) -> Request:
    inst, sheets, npts, kmax = spec
    w = instances[inst]
    return Request(exact_key(*spec), lambda: Output(table_digest(exact_values(w, sheets, npts, kmax))))


# -- cli-exact -------------------------------------------------------------------

CLI_COMMANDS = (
    ("curve-info",),
    ("divisor",),
    ("jet",),
    ("correlators", "--max-n", "2", "--kmax", "8"),
    ("correlators", "--indices", "1,2;2,3"),
)
CLI_RANDOM_KINDS = ("n3m2", "n4m1")


def cli_instances(seed: int):
    s = pool_seed(seed)
    return tuple(DOC_FILES) + tuple(f"{kind}-s{s}" for kind in CLI_RANDOM_KINDS)


def cli_key(inst, command) -> str:
    return f"cli-exact/{inst}/{' '.join(command)}"


def cli_subprocess(argv) -> tuple[int, bytes]:
    """Run the spectral-tau CLI from this checkout's sources in a child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "spectral_tau.cli", *argv],
                          capture_output=True, env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout


def cli_in_process(argv) -> tuple[int, bytes]:
    """Call spectral_tau.cli.main in this process with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = spectral_tau.cli.main(list(argv))
    return status, buf.getvalue().encode()


def cli_request(path: Path, inst, command, invoke) -> Request:
    argv = (*command, "--input", str(path))

    def run() -> Output:
        status, stdout = invoke(argv)
        if status != 0:
            raise RuntimeError(f"exit code {status}: {stdout[:200]!r}")
        return Output(hashlib.sha256(stdout).hexdigest(), stdout_bytes=len(stdout))

    return Request(cli_key(inst, command), run)


def cli_input_path(work: Path, inst: str) -> Path:
    if inst.endswith("-doc"):
        return DOCS / DOC_FILES[inst]
    return work / "inputs" / f"{inst}.json"


def write_cli_inputs(work: Path, instances: dict) -> None:
    for inst, w in instances.items():
        path = cli_input_path(work, inst)
        if path.parent != DOCS:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(instance_json(w))


# -- theta-g2, theta-g3 ----------------------------------------------------------

DOC_KMAX = {3: 2, 4: 1}
RANDOM_KMAX = {3: 1, 4: 0}


def theta_specs(workload: str, seed: int):
    if workload == "theta-g2":
        return (("g1-doc", DOC_KMAX), ("g2-doc", DOC_KMAX), (f"g1-s{pool_seed(seed)}", RANDOM_KMAX))
    j = seed % G3_PAIRS
    return ((f"g3-s{101 + 2 * j}", RANDOM_KMAX), (f"g3-s{102 + 2 * j}", RANDOM_KMAX))


def theta_key(workload, inst, kmax) -> str:
    return f"{workload}/{inst}/k3={kmax[3]},k4={kmax[4]}"


def theta_request(workload, instances, inst, kmax) -> Request:
    w = instances[inst]

    def run() -> Output:
        report = verify_main_theorem(w, kmax=kmax, tol=VERIFY_TOL).to_json_dict()
        return Output(verify_digest(report), verdict=bool(report["success"]))

    return Request(theta_key(workload, inst, kmax), run)


# -- workloads -------------------------------------------------------------------

WORKLOADS = ("exact-npoint", "cli-exact", "theta-g2", "theta-g3")


@dataclass
class Workload:
    instances: dict
    requests: list


def request_plan(name: str, seed: int) -> tuple[list[str], list]:
    """Instance names and request specs of one workload at one seed."""
    if name == "exact-npoint":
        specs = list(exact_specs(seed))
        return sorted({s[0] for s in specs}), specs
    if name == "cli-exact":
        insts = list(cli_instances(seed))
        return insts, [(inst, cmd) for inst in insts for cmd in CLI_COMMANDS]
    if name in ("theta-g2", "theta-g3"):
        specs = list(theta_specs(name, seed))
        return [inst for inst, _ in specs], specs
    raise ValueError(f"unknown workload {name!r}")


def build(name: str, seed: int, work: Path, in_process_cli: bool = False) -> Workload:
    """Set-up: generate the instances, write the CLI inputs, list the requests."""
    inst_names, specs = request_plan(name, seed)
    instances = {inst: make_instance(inst) for inst in inst_names}
    if name == "exact-npoint":
        requests = [exact_request(instances, spec) for spec in specs]
    elif name == "cli-exact":
        write_cli_inputs(work, instances)
        invoke = cli_in_process if in_process_cli else cli_subprocess
        requests = [cli_request(cli_input_path(work, inst), inst, cmd, invoke) for inst, cmd in specs]
    else:
        requests = [theta_request(name, instances, inst, kmax) for inst, kmax in specs]
    return Workload(instances, requests)


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


# -- independent checks, run once when digests are recorded ------------------------

def _hyper_goldens(w: MatrixPolynomial) -> dict:
    """Closed forms of tests/test_acceptance.py criterion 1 (N = 3, 4 entries)."""
    g = w.m - 1
    a, b, c = w.matrix[0][0], w.matrix[0][1], w.matrix[1][0]

    def x(p, k):
        return p.coeff(g + 1 - k)

    a1, a2 = x(a, 1), x(a, 2)
    b1, b2, b3 = (x(b, k) for k in (1, 2, 3))
    c1, c2, c3 = (x(c, k) for k in (1, 2, 3))
    return {
        (3, (0, 0, 0)): 2 * (b1 * c2 - b2 * c1),
        (3, (0, 0, 1)): 2 * (a1 * b2 * c1 - b3 * c1 - a1 * b1 * c2 + b1 * c3),
        (4, (0, 0, 0, 0)): 4 * (2 * a2 * b1 * c1 - a1 * b2 * c1 - b3 * c1 - a1 * b1 * c2
                                + 2 * b2 * c2 - b1 * c3),
    }


def _three_sheet_golden(w: MatrixPolynomial) -> Fraction:
    """F^{123}_{000} in closed form (tests/test_acceptance.py criterion 2)."""
    b0 = w.leading_diagonal()
    b1m = w.coefficient_of_power(w.m - 1)

    def b1(i, j):
        return b1m[i - 1][j - 1]

    def d(i, j):
        return b0[i - 1] - b0[j - 1]

    return (b1(1, 2) * b1(2, 3) * b1(3, 1) - b1(1, 3) * b1(3, 2) * b1(2, 1)) / (
        d(1, 2) * d(2, 3) * d(3, 1))


def _check_exact(w, sheets, npts, kmax, values) -> list[str]:
    from spectral_tau.correlators import hyperelliptic_combination_from_tables

    problems = []
    if sheets is None:
        if hyperelliptic_combination_from_tables(w, npts, kmax) != values:
            problems.append("differs from hyperelliptic_combination_from_tables")
        for (n_g, ks), want in _hyper_goldens(w).items():
            if n_g == npts and ks in values and values[ks] != want:
                problems.append(f"golden {ks} mismatch")
        return problems
    # the same correlator with the first two slots swapped runs other chains
    swapped = (sheets[1], sheets[0]) + tuple(sheets[2:])
    table = correlator_n(w, swapped, kmax)
    for ks, v in values.items():
        sk = (ks[1], ks[0]) + tuple(ks[2:])
        if table.value(tuple(zip(swapped, sk))) != v:
            problems.append(f"slot-swap symmetry fails at {ks}")
            break
    if sheets == (1, 2, 3) and w.n == 3 and values[(0, 0, 0)] != _three_sheet_golden(w):
        problems.append("golden F^{123}_{000} mismatch")
    return problems


def _exact_det(mat) -> Fraction:
    mat = [list(row) for row in mat]
    n, det = len(mat), Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] / mat[col][col]
            for cc in range(col, n):
                mat[r][cc] -= f * mat[col][cc]
    return det


def _check_cli(w, command, stdout: bytes) -> list[str]:
    report = json.loads(stdout)
    n = w.n
    problems = []
    if command[0] == "curve-info":
        # det(x - W(z)) evaluated exactly against the reported a_i(z)
        coeffs = [[Fraction(c) for c in a] for a in report["char_coefficients"]]
        for z, x in ((2, 3), (-1, Fraction(1, 2)), (5, -7)):
            wz = [[w.matrix[i][j](Fraction(z)) for j in range(n)] for i in range(n)]
            det = _exact_det([[(x if i == j else 0) - wz[i][j] for j in range(n)] for i in range(n)])
            char = x ** n + sum(Poly(c)(Fraction(z)) * x ** (n - 1 - i) for i, c in enumerate(coeffs))
            if det != char:
                problems.append(f"char polynomial differs from det at z={z}")
    elif command[0] == "divisor":
        for p in report["points"]:
            z, x = complex(*p["z"]), complex(*p["w"])
            wz = np.array([[complex(w.matrix[i][j](z)) for j in range(n)] for i in range(n)])
            scale = (abs(x) + np.abs(wz).max()) ** n
            if abs(np.linalg.det(x * np.eye(n) - wz)) > 1e-7 * scale:
                problems.append(f"divisor point {p['z']} is off the curve")
    elif command[0] == "jet":
        if report["constraints_failed"] or report["constraints_checked"] < 1:
            problems.append("jet constraints not all satisfied")
    elif "--indices" in command:
        (a1, k1), (a2, k2) = [tuple(map(int, c.split(","))) for c in command[2].split(";")]
        table = correlator_pair(w, a2, a1, max(k1, k2))
        if Fraction(report["value"]) != table.value(((a2, k2), (a1, k1))):
            problems.append("indices value differs from the slot-swapped table")
    else:
        full = {}
        for t in report["tables"]:
            for e in t["entries"]:
                (a1, a2), (k1, k2) = e["a"], e["k"]
                full[(a1, a2, k1, k2)] = full[(a2, a1, k2, k1)] = Fraction(e["value"])
        kmax = int(command[command.index("--kmax") + 1])
        for b, k1, k2 in itertools.product(range(1, n + 1), range(kmax + 1), range(kmax + 1)):
            if sum(full[(a, b, k1, k2)] for a in range(1, n + 1)) != 0:
                problems.append(f"sheet sum over slot 1 nonzero at b={b}, k=({k1},{k2})")
                break
        b0 = w.leading_diagonal()
        b1m = w.coefficient_of_power(w.m - 1)
        for i, j in itertools.combinations(range(n), 2):
            want = b1m[i][j] * b1m[j][i] / (b0[i] - b0[j]) ** 2
            if full[(i + 1, j + 1, 0, 0)] != want:
                problems.append(f"golden F^{{{i + 1}{j + 1}}}_00 mismatch")
    return problems


def record_seeds(name: str) -> range:
    return range(G3_PAIRS) if name == "theta-g3" else range(POOL_SIZE)


def record(names, work: Path, log) -> dict:
    """Digest every output the seed pool can produce, checking each once
    against an independent path; outputs that fail a check are not recorded,
    and a verify that raises PeriodError is recorded as an expected failure."""
    digests: dict = {}
    seen = set()
    for name in names:
        for seed in record_seeds(name):
            wl = build(name, seed, work)
            for spec, req in zip(request_plan(name, seed)[1], wl.requests):
                if req.key in seen:
                    continue
                seen.add(req.key)
                try:
                    if name == "cli-exact":
                        inst, command = spec
                        argv = (*command, "--input", str(cli_input_path(work, inst)))
                        status, stdout = cli_subprocess(argv)
                        if status != 0:
                            raise RuntimeError(f"exit code {status}: {stdout[:200]!r}")
                        problems = _check_cli(wl.instances[inst], command, stdout)
                        if cli_in_process(argv) != (status, stdout):
                            problems.append("in-process stdout differs from the subprocess")
                        digest = hashlib.sha256(stdout).hexdigest()
                    elif name == "exact-npoint":
                        inst, sheets, npts, kmax = spec
                        w = wl.instances[inst]
                        values = exact_values(w, sheets, npts, kmax)
                        problems = _check_exact(w, sheets, npts, kmax, values)
                        digest = table_digest(values)
                    else:
                        out = req.run()
                        problems = [] if out.verdict else ["verify verdict FAIL"]
                        digest = out.digest
                except Exception as exc:  # recorded as missing, reported below
                    if name.startswith("theta-") and isinstance(exc, PeriodError):
                        # a basis that fails today counts in failed_frac, not against correct
                        digests[req.key] = expected_failure(exc)
                        log(f"{req.key}: recorded as an expected failure: {exc}")
                    else:
                        log(f"{req.key}: not recorded: {type(exc).__name__}: {exc}")
                    continue
                if problems:
                    log(f"{req.key}: not recorded: {'; '.join(problems)}")
                    continue
                digests[req.key] = digest
                log(f"{req.key}: ok")
    return digests
