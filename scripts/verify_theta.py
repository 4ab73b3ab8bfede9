#!/usr/bin/env python3
"""Run the theta-function verification on the bundled hyperelliptic instances.

For each instance the exact rational combinations of correlators are compared
against the contracted logarithmic theta derivatives at the eigenvector point
of the Jacobian.  Usage: python3 scripts/verify_theta.py [--kmax3 K] [--kmax4 K]
"""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from spectral_tau import verify_main_theorem  # noqa: E402
from spectral_tau.serialize import parse_matrix_polynomial  # noqa: E402

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "examples"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--kmax3", type=int, default=2)
    ap.add_argument("--kmax4", type=int, default=1)
    ap.add_argument("--tol", type=float, default=1e-6)
    args = ap.parse_args()
    status = 0
    for name in ("hyperelliptic-g1.json", "hyperelliptic-g2.json"):
        with open(DOCS / name) as fh:
            w = parse_matrix_polynomial(json.load(fh))
        t0 = time.perf_counter()
        rep = verify_main_theorem(w, kmax={3: args.kmax3, 4: args.kmax4}, tol=args.tol)
        ms = (time.perf_counter() - t0) * 1e3
        print(f"== {name}: {'PASS' if rep.success else 'FAIL'} in {ms:.1f} ms, "
              f"shift {rep.shift_used}")
        for key, val in sorted(rep.checks.items()):
            print(f"   {key}: {val:.3e}" if isinstance(val, float) else f"   {key}: {val}")
        for r in rep.identities:
            print(f"   N={r.n_points} k={r.k_tuple}: F={r.f_exact} "
                  f"T={r.t_value.real:+.12g}{r.t_value.imag:+.2e}i rel={r.rel_err:.2e}")
        if not rep.success:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
