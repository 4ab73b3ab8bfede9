"""Summary statistics, failure accounting and the compare verdict."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

TAIL_MIN_BEYOND = 10


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def tail_percentile(samples, min_beyond: int = TAIL_MIN_BEYOND):
    """The highest whole percentile with at least ``min_beyond`` samples above it.

    Returns (percentile, value, sample count), or None when the run has so few
    samples that this percentile would not lie above the median; the metric
    is then omitted rather than estimated.  The value is the nearest-rank
    percentile.
    """
    xs = sorted(samples)
    n = len(xs)
    pct = math.floor(100 * (n - min_beyond) / n) if n else 0
    if pct <= 50:
        return None
    rank = math.ceil(pct / 100 * n)
    assert n - rank >= min_beyond
    return pct, xs[rank - 1], n


EXPECTED_FAILURE = "raises "


def expected_failure(exc: BaseException) -> str:
    """The digest entry of a request that is known to fail with ``exc``'s type."""
    return EXPECTED_FAILURE + type(exc).__name__


@dataclass
class Tally:
    """Requests attempted and failed; each request counts once either way.

    A request fails on an exception, a nonzero CLI exit code (raised as an
    exception), an output that does not match its recorded digest, or a
    verify verdict of FAIL.  Every failure counts in ``failed``, and every
    failure clears ``correct`` except an exception that the request's digest
    entry names as its expected failure (``raises <ExceptionType>``).
    """

    attempted: int = 0
    failed: int = 0
    excused: int = 0
    reasons: list = field(default_factory=list)

    def record(self, key: str, run, expected: dict):
        """Run one request and account for it; returns its Output or None."""
        self.attempted += 1
        want = expected.get(key)
        try:
            out = run()
        except Exception as exc:  # any failure of the program counts, then the loop goes on
            excused = want == expected_failure(exc)
            self._fail(key, f"{type(exc).__name__}: {exc}" + (" (expected)" if excused else ""),
                       excused)
            return None
        if want is None:
            self._fail(key, "no recorded digest")
        elif want.startswith(EXPECTED_FAILURE):
            self._fail(key, f"expected to fail ({want}) but returned: re-record the digests")
        elif out.digest != want:
            self._fail(key, "output differs from its recorded digest")
        elif out.verdict is False:
            self._fail(key, "verify verdict FAIL")
        return out

    def _fail(self, key, reason, excused=False):
        self.failed += 1
        self.excused += excused
        self.reasons.append(f"{key}: {reason}")

    @property
    def correct(self) -> bool:
        return self.failed == self.excused

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def verdict(old, new, bound: float, better: str = "lower", pairs=None) -> str:
    """better / no worse / worse / unresolved for one metric of one workload.

    ``old`` and ``new`` are the per-run values of the two result sets and
    ``pairs`` optional (old, new) values of runs with the same seed.  The
    verdict is unresolved when the old runs' spread (interquartile distance
    over median) exceeds the bound, unless every new run beats every old run.
    A gain needs the medians to differ by more than the old spread and, when
    pairs exist, the new side to win nine tenths of them.
    """
    sign = 1 if better == "lower" else -1
    o1, om, o3 = quartiles(old)
    _, nm, _ = quartiles(new)
    gain = sign * (om - nm)
    all_better = max(sign * x for x in new) < min(sign * x for x in old)
    if om and (o3 - o1) / abs(om) > bound and not all_better:
        return "unresolved"
    wins_ok = True
    if pairs:
        wins = sum(sign * (o - n) > 0 for o, n in pairs)
        wins_ok = wins >= 0.9 * len(pairs)
    if gain > (o3 - o1) and wins_ok:
        return "better"
    if -gain > bound * abs(om):
        return "worse"
    return "no worse"
