#!/usr/bin/env python3
"""Tally verify-theta outcomes on the seeded stress families A and B.

For genus g in 1..3 and s in 0..39, rng = random.Random(1000 g + s) draws, in
this order, a = z^(g+1) + sum_k (randint(-H, H) / randint(1, 3)) z^k, then b
and c as sum_k (randint(-3, 3) / randint(1, 3)) z^k (k < g+1), each of c's
coefficients times eps.  W = [[a, b], [c, -a]]; a W whose diagnostics fail is
skipped, and verify_main_theorem(W, {3: 1, 4: 0}) runs on the rest.  Family A
is H = 100, eps = 1; family B is H = 1000, eps = 1/1000 (clustered branch
points).  Prints, per genus, the counts of passes, FAILs and each exception.

Usage: python3 scripts/stress_families.py [-v] [A] [B]   (default: both)
"""

import argparse
import collections
import pathlib
import random
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from spectral_tau import MatrixPolynomial, characteristic_data, verify_main_theorem  # noqa: E402
from spectral_tau.polynomials import Poly  # noqa: E402

FAMILIES = {"A": (100, Fraction(1)), "B": (1000, Fraction(1, 1000))}   # H, eps


def instance(name: str, g: int, s: int):
    """W of family ``name`` at genus g and seed s, or None when its diagnostics fail."""
    h, eps = FAMILIES[name]
    rng = random.Random(1000 * g + s)
    a = Poly([Fraction(rng.randint(-h, h), rng.randint(1, 3)) for _ in range(g + 1)] + [1])
    b, c = (Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * f for _ in range(g + 1)])
            for f in (1, eps))
    w = MatrixPolynomial.from_entries([[a, b], [c, -a]])
    return w if all(d.passed for d in characteristic_data(w).diagnostics) else None


def family(name: str):
    """(g, s, W) for every instance of the family whose diagnostics pass."""
    for g in (1, 2, 3):
        for s in range(40):
            w = instance(name, g, s)
            if w is not None:
                yield g, s, w


def outcome(w) -> tuple[str, str]:
    """("pass" or "FAIL", the largest rel_err), or (the exception's name, its message)."""
    try:
        rep = verify_main_theorem(w, {3: 1, 4: 0})
    except Exception as exc:   # a tally: every failure is counted under its type
        return type(exc).__name__, str(exc)
    return "pass" if rep.success else "FAIL", f"{max(r.rel_err for r in rep.identities):.2e}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("families", nargs="*", choices=sorted(FAMILIES))
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="also print every instance that does not pass")
    args = ap.parse_args()
    for name in args.families or FAMILIES:
        tallies = collections.defaultdict(collections.Counter)
        for g, s, w in family(name):
            label, detail = outcome(w)
            tallies[g][label] += 1
            if args.verbose and label != "pass":
                print(f"  {name} g{g} s{s}: {label}: {detail}")
        for g, tally in sorted(tallies.items()):
            print(f"family {name} g{g}: " + ", ".join(f"{n} {k}" for k, n in tally.most_common()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
