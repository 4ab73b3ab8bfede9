"""Tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import stats  # noqa: E402
from tracer import Span, Tracer, install, layer_times, self_times  # noqa: E402


class FakeOutput:
    def __init__(self, digest, verdict=None):
        self.digest, self.verdict, self.report = digest, verdict, None


# -- tail percentile ------------------------------------------------------------------

def test_tail_percentile_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    pct, value, n = stats.tail_percentile(samples)
    assert (pct, value, n) == (90, 90.0, 100)
    assert sum(x > value for x in samples) == 10


def test_tail_percentile_is_highest_such_percentile():
    samples = list(range(1000))
    pct, value, _ = stats.tail_percentile(samples)
    assert pct == 99
    assert sum(x > value for x in samples) >= 10
    # one percentile higher would leave fewer than ten beyond
    assert 1000 - math.ceil((pct + 1) / 100 * 1000) < 10


def test_tail_percentile_uneven_count():
    samples = [float(i) for i in range(37)]
    pct, value, n = stats.tail_percentile(samples)
    assert pct == 72 and n == 37
    assert sum(x > value for x in samples) >= 10


@pytest.mark.parametrize("n", [0, 1, 10, 19, 20])
def test_tail_percentile_omitted_with_too_few_samples(n):
    assert stats.tail_percentile([1.0] * n) is None


def test_tail_percentile_first_count_with_a_tail():
    assert stats.tail_percentile([1.0] * 21)[0] == 52


# -- failure counting -----------------------------------------------------------------

def test_exception_counts_once_and_clears_correct():
    tally = stats.Tally()

    def boom():
        raise RuntimeError("injected")

    assert tally.record("a", boom, {"a": "x"}) is None
    tally.record("b", lambda: FakeOutput("y"), {"b": "y"})
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failed_frac == 0.5
    assert not tally.correct
    assert tally.reasons == ["a: RuntimeError: injected"]


def test_all_passing_is_correct():
    tally = stats.Tally()
    tally.record("a", lambda: FakeOutput("x", verdict=True), {"a": "x"})
    assert (tally.attempted, tally.failed, tally.correct) == (1, 0, True)


def test_wrong_digest_counts_once():
    tally = stats.Tally()
    tally.record("a", lambda: FakeOutput("bad"), {"a": "good"})
    tally.record("b", lambda: FakeOutput("good"), {"b": "good"})
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, False)


def test_missing_digest_and_failed_verdict_count():
    tally = stats.Tally()
    tally.record("a", lambda: FakeOutput("d"), {})
    tally.record("b", lambda: FakeOutput("d", verdict=False), {"b": "d"})
    tally.record("c", lambda: FakeOutput("d", verdict=True), {"c": "d"})
    assert (tally.attempted, tally.failed, tally.correct) == (3, 2, False)


class KnownError(Exception):
    pass


def test_expected_failure_counts_but_keeps_correct():
    expected = {"a": stats.expected_failure(KnownError())}

    def known():
        raise KnownError("basis")

    tally = stats.Tally()
    tally.record("a", known, expected)
    tally.record("b", lambda: FakeOutput("y"), {**expected, "b": "y"})
    assert (tally.attempted, tally.failed, tally.excused) == (2, 1, 1)
    assert tally.failed_frac == 0.5 and tally.correct


def test_expected_failure_excuses_only_its_exception_and_key():
    expected = {"a": stats.expected_failure(KnownError())}

    def other():
        raise RuntimeError("injected")

    def known():
        raise KnownError("basis")

    for key, run in (("a", other), ("b", known)):
        tally = stats.Tally()
        tally.record(key, run, expected)
        assert (tally.failed, tally.correct) == (1, False)
    # a request recorded as failing that now returns has nothing to check against
    tally = stats.Tally()
    tally.record("a", lambda: FakeOutput("z", verdict=True), expected)
    assert (tally.failed, tally.correct) == (1, False)


# -- self time ------------------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, "outer", 0, 100, None, "r"),
        Span(1, "mid", 10, 60, 0, "r"),
        Span(2, "leaf", 20, 30, 1, "r"),
        Span(3, "leaf", 40, 45, 1, "r"),
        Span(4, "mid", 70, 90, 0, "r"),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 100 - 50 - 20, 1: 50 - 10 - 5, 2: 10, 3: 5, 4: 20}
    assert sum(selfs.values()) == 100


def test_self_time_merges_overlapping_children():
    spans = [
        Span(0, "p", 0, 100, None, None),
        Span(1, "c", 10, 50, 0, None),
        Span(2, "c", 40, 120, 0, None),   # overlaps its sibling and outlives the parent
    ]
    assert self_times(spans)[0] == 10


def test_layer_times_counts_recursion_once():
    spans = [
        Span(0, "theta", 0, 1_000_000_000, None, None),
        Span(1, "theta", 0, 400_000_000, 0, None),
    ]
    row = layer_times(spans)["theta"]
    assert row["calls"] == 1
    assert row["inclusive_s"] == pytest.approx(1.0)
    assert row["self_s"] == pytest.approx(1.0)


def test_tracer_records_parent_and_request():
    tr = Tracer()
    tr.request = "req-1"

    def inner():
        return 3

    def outer():
        return tr.call("inner", inner, (), {})

    assert tr.call("outer", outer, (), {}) == 3
    inner_span, outer_span = tr.spans
    assert inner_span.parent == outer_span.id
    assert outer_span.parent is None
    assert {s.request for s in tr.spans} == {"req-1"}


def test_install_wraps_names_bound_at_import_and_restores():
    import spectral_tau.correlators as correlators
    from spectral_tau import MatrixPolynomial, hyperelliptic_combination
    from spectral_tau.polynomials import Poly

    w = MatrixPolynomial.from_entries([[Poly([0, 0, 1]), Poly([1, 1])],
                                       [Poly([0, 2]), Poly([0, 0, -1])]])
    original = correlators.multipoly_exact_divide
    tr = Tracer()
    restore = install(tr)
    try:
        assert correlators.multipoly_exact_divide is not original
        import spectral_tau

        values = spectral_tau.hyperelliptic_combination(w, 3, 0)
    finally:
        restore()
    assert correlators.multipoly_exact_divide is original
    assert values == hyperelliptic_combination(w, 3, 0)
    assert tr.counts["multipoly.divide_calls"] == 3
    names = {s.name for s in tr.spans}
    assert {"correlators", "correlators.slot_matrix", "multipoly.mul", "multipoly.divide",
            "curve", "projectors"} <= names
    outer = [s for s in tr.spans if s.name == "correlators"]
    assert len(outer) == 1 and outer[0].parent is None


# -- compare verdict ------------------------------------------------------------------

def test_verdict_rules():
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95]
    assert stats.verdict(base, [8.0] * 6, 0.1) == "better"
    assert stats.verdict(base, [10.02] * 6, 0.1) == "no worse"
    assert stats.verdict(base, [12.0] * 6, 0.1) == "worse"
    noisy = [5.0, 10.0, 15.0, 20.0]
    assert stats.verdict(noisy, [12.0] * 4, 0.1) == "unresolved"
    # every new run beats every old run: resolved, but the gain is inside the spread
    assert stats.verdict(noisy, [1.0] * 4, 0.1) == "no worse"
    pairs = list(zip(base, [8.0, 8.0, 8.0, 8.0, 8.0, 11.0]))
    assert stats.verdict(base, [8.0] * 6, 0.1, pairs=pairs) == "no worse"
