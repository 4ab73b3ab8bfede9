"""Spans and counters recorded from outside spectral_tau.

``install`` wraps the public entry points of each ``src/spectral_tau``
module, and two private seams that it only observes, by replacing every
binding of the original function: a name bound at import in another module
(``correlators`` binds ``multipoly_exact_divide``, ``verify`` binds
``period_matrix``, the theta functions and more) is replaced where it is
looked up.  The package-level ``theta`` function shadows the
``spectral_tau.theta`` module, so modules are reached with ``importlib``.

Spans carry a name, start and end (``perf_counter_ns``), the parent span and
the request; they are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: int
    end: int
    parent: int | None
    request: str | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request: str | None = None
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.attempts: list[dict] = []   # period-basis attempts (wasted-work log)
        self.lattice: list[dict] = []    # theta lattice evaluations (wasted-work log)
        self.verify_reports: list = []
        self._stack: list[tuple[int, str]] = []
        self._open: Counter = Counter()
        self._next_id = 0

    def nested_in(self, name: str) -> bool:
        """True when a span of this name is already open below the current one."""
        return self._open[name] > 0

    def call(self, name, fn, args, kwargs, after=None):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        outer = not self.nested_in(name)
        self._stack.append((sid, name))
        self._open[name] += 1
        result, error = None, None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._open[name] -= 1
            self.spans.append(Span(sid, name, start, end, parent, self.request))
            if after is not None:
                after(self, args, kwargs, result, error, (end - start) / 1e9, outer)

    def note_max(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def dump(self, path) -> None:
        data = {
            "spans": [s._asdict() for s in self.spans],
            "counts": dict(self.counts),
            "maxima": self.maxima,
            "period_attempts": self.attempts,
            "theta_lattice": self.lattice,
        }
        path.write_text(json.dumps(data) + "\n")


# -- observation hooks -------------------------------------------------------------

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _after_projector(tr, args, kwargs, result, error, seconds, outer):
    tr.note_max("projectors.max_order", _arg(args, kwargs, 2, "order"))


def _after_divide(tr, args, kwargs, result, error, seconds, outer):
    tr.counts["multipoly.divide_calls"] += 1
    tr.counts["multipoly.dividend_terms"] += len(args[0].terms)


def _after_mul(tr, args, kwargs, result, error, seconds, outer):
    tr.counts["multipoly.mul_calls"] += 1


def _after_correlators(tr, args, kwargs, result, error, seconds, outer):
    if not outer or result is None:
        return
    values = result.entries.values() if hasattr(result, "entries") else result.values()
    for v in values:
        v = Fraction(v)
        tr.counts["correlators.values"] += 1
        tr.note_max("correlators.max_bits",
                    max(abs(v.numerator).bit_length(), v.denominator.bit_length()))


def _after_attempt(tr, args, kwargs, result, error, seconds, outer):
    tr.counts["periods.basis_attempts"] += 1
    tr.counts["periods.basis_failed"] += error is not None
    tr.attempts.append({
        "request": tr.request,
        "station_order": args[3] if len(args) > 3 else kwargs.get("station_order", "descending"),
        "clearance_shrink": _arg(args, kwargs, 2, "shrink"),
        "clearance": None if result is None else float(result.clearance),
        "seconds": seconds,
        "error": None if error is None else f"{type(error).__name__}: {error}",
    })


def _after_raw_values(tr, args, kwargs, result, error, seconds, outer):
    g, radius = len(args[0]), _arg(args, kwargs, 3, "radius")
    tr.counts["theta.lattice_evals"] += 1
    tr.counts["theta.lattice_points"] += (2 * radius + 1) ** g
    tr.lattice.append({"request": tr.request, "g": g, "radius": radius})


def _after_theta(tr, args, kwargs, result, error, seconds, outer):
    tr.counts["theta.calls"] += outer


def _after_verify(tr, args, kwargs, result, error, seconds, outer):
    if result is not None:
        tr.verify_reports.append(result)


# (module, attribute or Class.method, span name or None to count only, hook)
ENTRY_POINTS = (
    ("curve", "characteristic_data", "curve", None),
    ("projectors", "projector_series", "projectors", _after_projector),
    ("projectors", "phi_coefficients", "projectors", None),
    ("correlators", "CorrelatorEngine.slot_matrix", "correlators.slot_matrix", None),
    ("correlators", "CorrelatorEngine.difference_matrix", "correlators.slot_matrix", None),
    ("correlators", "correlator_pair", "correlators", _after_correlators),
    ("correlators", "correlator_n", "correlators", _after_correlators),
    ("correlators", "hyperelliptic_combination", "correlators", _after_correlators),
    ("multipoly", "MultiPoly.mul", "multipoly.mul", _after_mul),
    ("multipoly", "multipoly_exact_divide", "multipoly.divide", _after_divide),
    ("divisor", "pole_divisor", "divisor", None),
    ("divisor", "d_polynomial", "divisor", None),
    ("jets", "jet_from_projectors", "jets", None),
    ("jets", "validate_jet", "jets", None),
    ("periods", "period_matrix", "periods.period_matrix", None),
    ("periods", "_period_matrix_at_clearance", "periods.attempt", _after_attempt),
    ("periods", "jacobian_point", "periods.abel", None),
    ("periods", "v_vectors", "periods.v", None),
    ("theta", "theta_with_derivatives", "theta", _after_theta),
    ("theta", "theta", "theta", _after_theta),
    ("theta", "log_theta_derivatives", "theta", _after_theta),
    ("theta", "_raw_values", None, _after_raw_values),
    ("verify", "verify_main_theorem", "verify", _after_verify),
    ("cli", "main", "cli", None),
)


def _make_wrapper(tracer, name, fn, after):
    if name is None:
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(tracer, args, kwargs, result, None, 0.0, True)
            return result
        return counted

    def wrapped(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, after)
    return wrapped


def install(tracer: Tracer):
    """Wrap every entry point; returns a function that restores the originals."""
    undo = []
    for modname, attr, name, after in ENTRY_POINTS:
        module = importlib.import_module(f"spectral_tau.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, _make_wrapper(tracer, name, original, after))
            undo.append((cls, meth, original))
            continue
        original = getattr(module, attr)
        wrapper = _make_wrapper(tracer, name, original, after)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))

    def restore():
        for target, key, original in reversed(undo):
            setattr(target, key, original)
    return restore


# -- analysis ----------------------------------------------------------------------

def self_times(spans) -> dict[int, int]:
    """Span id -> its duration minus the part of it that child spans cover."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children[s.parent].append((lo, hi))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0, None, None
        for lo, hi in sorted(children.get(s.id, ())):
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_times(spans) -> dict[str, dict]:
    """Per span name: summed self time and the inclusive time of the spans not
    nested in another span of the same name, in seconds."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}

    def nested_in_same(s):
        p = by_id.get(s.parent)
        while p is not None:
            if p.name == s.name:
                return True
            p = by_id.get(p.parent)
        return False

    out: dict = defaultdict(lambda: {"self_s": 0.0, "inclusive_s": 0.0, "calls": 0})
    for s in spans:
        row = out[s.name]
        row["self_s"] += selfs[s.id] / 1e9
        if not nested_in_same(s):
            row["inclusive_s"] += (s.end - s.start) / 1e9
            row["calls"] += 1
    return dict(out)


def inclusive_under(spans, name: str, ancestor: str) -> float:
    """Inclusive seconds of outermost ``name`` spans that run inside ``ancestor``."""
    by_id = {s.id: s for s in spans}
    total = 0
    for s in spans:
        if s.name != name:
            continue
        seen_self, seen_anc = False, False
        p = by_id.get(s.parent)
        while p is not None:
            seen_self |= p.name == name
            seen_anc |= p.name == ancestor
            p = by_id.get(p.parent)
        if seen_anc and not seen_self:
            total += s.end - s.start
    return total / 1e9


def shift_margin(report) -> float | None:
    """Runner-up half-period error over the best one, from report.shift_errors."""
    errs = sorted(e for e in report.shift_errors.values() if e != float("inf"))
    if len(errs) < 2:
        return None
    return errs[1] / errs[0] if errs[0] > 0 else float("inf")
