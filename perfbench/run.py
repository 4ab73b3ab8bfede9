"""Benchmark of spectral-tau's exact and theta chains.

    python3 perfbench/run.py --workload exact-npoint --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all              # every workload in BENCHMARK.json
    python3 perfbench/run.py --workload theta-g3         # the genus-3 workload, run by hand
    python3 perfbench/run.py --record                    # re-record digests.json
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

Run it from the root of a checkout; it imports ``spectral_tau`` from that
checkout's ``src`` directory and refuses to run without it.  Each workload is
a closed loop with one client: one request at a time, repeated in passes over
a fixed request list until ``--seconds`` have elapsed.  Every output is checked
against its recorded digest and every verify verdict must pass; any failure
but a request's recorded expected failure makes ``correct`` false and the exit
code 1.  ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json (end_to_end without tracing, per_layer
with it).  Each run also appends a full record, with its environment stamp,
to perfbench/.work/results.jsonl; traced runs write their spans next to it.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (set-up time is measured from the first line)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SPEC_FILE = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 5   # set-ups per run: this process and four children
IMPORT_SAMPLES = 3

sys.path.insert(0, str(BENCH))
import stats  # noqa: E402

# unit and the layer whose absence leaves a per-layer metric without a value
LAYER_METRICS = {
    "curve.s": ("s", "curve"),
    "projectors.s": ("s", "projectors"),
    "projectors.max_order": ("count", "projectors"),
    "correlators.slot_matrix_s": ("s", "correlators.slot_matrix"),
    "correlators.self_s": ("s", "correlators"),
    "correlators.values": ("count", "correlators"),
    "correlators.max_bits": ("bits", "correlators"),
    "multipoly.mul_calls": ("count", "multipoly.mul"),
    "multipoly.mul_s": ("s", "multipoly.mul"),
    "multipoly.divide_calls": ("count", "multipoly.divide"),
    "multipoly.divide_s": ("s", "multipoly.divide"),
    "multipoly.dividend_terms": ("count", "multipoly.divide"),
    "divisor.s": ("s", "divisor"),
    "jets.s": ("s", "jets"),
    "periods.period_matrix_s": ("s", "periods.period_matrix"),
    "periods.basis_attempts": ("count", "periods.period_matrix"),
    "periods.basis_failed": ("count", "periods.period_matrix"),
    "periods.basis_useful_ratio": ("ratio", "periods.period_matrix"),
    "periods.abel_s": ("s", "periods.abel"),
    "periods.v_s": ("s", "periods.v"),
    "theta.calls": ("count", "theta"),
    "theta.lattice_evals": ("count", "theta"),
    "theta.lattice_points": ("count", "theta"),
    "theta.s": ("s", "theta"),
    "verify.self_s": ("s", "verify"),
    "verify.exact_s": ("s", "verify"),
    "verify.max_rel_err": ("ratio", "verify"),
    "verify.shift_margin": ("ratio", "verify"),
    "cli.import_s": ("s", "cli"),
    "cli.process_s": ("s", "cli"),
    "cli.report_bytes": ("bytes", "cli"),
    "trace.overhead_s": ("s", None),
}


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text())


def env_stamp(workload, seed, instances) -> dict:
    import numpy

    from workloads import instance_digest

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "SPECTRAL_TAU_THREADS": os.environ.get("SPECTRAL_TAU_THREADS"),
        "workload": workload,
        "seed": seed,
        "instances": {name: instance_digest(w) for name, w in sorted(instances.items())},
    }


def run_pass(requests, expected, tally, latencies, tracer=None) -> float:
    start = time.perf_counter()
    for req in requests:
        if tracer is not None:
            tracer.request = req.key
        t0 = time.perf_counter()
        out = tally.record(req.key, req.run, expected)
        latencies.append(time.perf_counter() - t0)
        if tracer is not None and out is not None:
            tracer.counts["cli.report_bytes"] += out.stdout_bytes
    return time.perf_counter() - start


def setup_samples(args, first: float) -> list[float]:
    """This run's set-up time plus that of fresh child processes."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def import_seconds() -> float:
    """Median time of a bare ``import spectral_tau`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import spectral_tau; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, cwd=ROOT, timeout=60, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def layer_metrics(tracer, traced_passes, overhead_s) -> dict:
    """Per-layer metrics, per traced pass; None marks a layer the workload never calls."""
    from tracer import inclusive_under, layer_times, shift_margin

    lt = layer_times(tracer.spans)
    per = 1.0 / traced_passes
    c, mx = tracer.counts, tracer.maxima

    def self_s(name):
        return lt[name]["self_s"] * per

    attempts = c["periods.basis_attempts"]
    margins = [m for m in map(shift_margin, tracer.verify_reports) if m is not None]
    rel_errs = [r.rel_err for rep in tracer.verify_reports for r in rep.identities]
    values = {
        "curve.s": lambda: self_s("curve"),
        "projectors.s": lambda: self_s("projectors"),
        "projectors.max_order": lambda: mx["projectors.max_order"],
        "correlators.slot_matrix_s": lambda: self_s("correlators.slot_matrix"),
        "correlators.self_s": lambda: self_s("correlators"),
        "correlators.values": lambda: c["correlators.values"] * per,
        "correlators.max_bits": lambda: mx["correlators.max_bits"],
        "multipoly.mul_calls": lambda: c["multipoly.mul_calls"] * per,
        "multipoly.mul_s": lambda: self_s("multipoly.mul"),
        "multipoly.divide_calls": lambda: c["multipoly.divide_calls"] * per,
        "multipoly.divide_s": lambda: self_s("multipoly.divide"),
        "multipoly.dividend_terms": lambda: c["multipoly.dividend_terms"] * per,
        "divisor.s": lambda: self_s("divisor"),
        "jets.s": lambda: self_s("jets"),
        "periods.period_matrix_s": lambda: lt["periods.period_matrix"]["inclusive_s"] * per,
        "periods.basis_attempts": lambda: attempts * per,
        "periods.basis_failed": lambda: c["periods.basis_failed"] * per,
        "periods.basis_useful_ratio": lambda: (attempts - c["periods.basis_failed"]) / attempts,
        "periods.abel_s": lambda: self_s("periods.abel"),
        "periods.v_s": lambda: self_s("periods.v"),
        "theta.calls": lambda: c["theta.calls"] * per,
        "theta.lattice_evals": lambda: c["theta.lattice_evals"] * per,
        "theta.lattice_points": lambda: c["theta.lattice_points"] * per,
        "theta.s": lambda: self_s("theta"),
        "verify.self_s": lambda: self_s("verify"),
        "verify.exact_s": lambda: inclusive_under(tracer.spans, "correlators", "verify") * per,
        "verify.max_rel_err": lambda: max(rel_errs),
        "verify.shift_margin": lambda: min(margins),
        "cli.import_s": import_seconds,
        "cli.process_s": lambda: lt["cli"]["inclusive_s"] * per,
        "cli.report_bytes": lambda: tracer.counts["cli.report_bytes"] * per,
        "trace.overhead_s": lambda: overhead_s,
    }
    out = {}
    for name, (unit, layer) in LAYER_METRICS.items():
        present = layer is None or layer in lt
        if name == "verify.shift_margin":
            present = bool(margins)
        out[name] = {"value": values[name](), "unit": unit} if present else None
    return out


def wasted_work(tracer) -> dict:
    by_request: dict = {}
    for a in tracer.attempts:
        by_request.setdefault(a["request"], []).append(a)
    radii = Counter((e["g"], e["radius"]) for e in tracer.lattice)
    return {
        "period_attempts": by_request,
        "theta_lattice_by_radius": {f"g={g} r={r}": n for (g, r), n in sorted(radii.items())},
    }


def print_wasted_work(log) -> None:
    for request, attempts in log["period_attempts"].items():
        failed = [a for a in attempts if a["error"]]
        print(f"  period basis, {request}: {len(attempts)} attempts, {len(failed)} failed, "
              f"{sum(a['seconds'] for a in failed):.4f} s in failed attempts of "
              f"{sum(a['seconds'] for a in attempts):.4f} s")
        for a in attempts:
            print(f"    {a['station_order']:<10} shrink {a['clearance_shrink']:<4} "
                  f"{a['seconds']:.4f} s  {a['error'] or 'ok, clearance %.4g' % a['clearance']}")
    if log["theta_lattice_by_radius"]:
        print("  theta lattice evaluations by radius: " + ", ".join(
            f"{k}: {n}" for k, n in log["theta_lattice_by_radius"].items()))


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args) -> int:
    from workloads import build, load_digests

    traced = bool(args.trace)
    wl = build(args.workload, args.seed, WORK, in_process_cli=traced)
    setup_first = time.perf_counter() - T_START
    expected = load_digests()
    tally = stats.Tally()
    latencies: list[float] = []
    untraced_passes: list[float] = []
    traced_passes: list[float] = []
    # a pass is started only when it should end within half a pass of the
    # deadline, so a run lasts about --seconds whatever the pass length
    loop_start = time.perf_counter()
    deadline = loop_start + args.seconds
    tracer = None
    if traced:
        from tracer import Tracer, install

        tracer = Tracer()

        def traced_pass():
            restore = install(tracer)
            try:
                traced_passes.append(run_pass(wl.requests, expected, tally, [], tracer))
            finally:
                restore()

        # untraced and traced passes in ABBA order, so a drift within the run
        # does not read as tracing overhead
        while True:
            if len(traced_passes) % 2 == 0:
                untraced_passes.append(run_pass(wl.requests, expected, tally, []))
                traced_pass()
            else:
                traced_pass()
                untraced_passes.append(run_pass(wl.requests, expected, tally, []))
            if time.perf_counter() + (untraced_passes[-1] + traced_passes[-1]) / 2 > deadline:
                break
    else:
        while True:
            untraced_passes.append(run_pass(wl.requests, expected, tally, latencies))
            if time.perf_counter() + untraced_passes[-1] / 2 > deadline:
                break
    loop_end = time.perf_counter()

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env_stamp(args.workload, args.seed, wl.instances),
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.reasons,
        "failed_frac": tally.failed_frac,
        "requests_per_pass": len(wl.requests), "passes": untraced_passes,
    }
    spec = load_spec()
    print(f"workload {args.workload}  seed {args.seed}  closed loop, one client, "
          f"{len(wl.requests)} requests per pass, {tally.attempted} attempted, {tally.failed} failed")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for reason in tally.reasons:
        print(f"  FAILED {reason}")

    if traced:
        overhead = statistics.median(traced_passes) - statistics.median(untraced_passes)
        layers = layer_metrics(tracer, len(traced_passes), overhead)
        log = wasted_work(tracer)
        WORK.mkdir(parents=True, exist_ok=True)
        tracer.dump(WORK / f"trace-{args.workload}-s{args.seed}.json")
        record.update(traced_passes=traced_passes, layers=layers, wasted_work=log)
        print(f"traced passes {len(traced_passes)}, untraced wall {statistics.median(untraced_passes):.4f} s, "
              f"traced wall {statistics.median(traced_passes):.4f} s, tracing overhead {overhead:.4f} s")
        for name, m in layers.items():
            if m is None:
                print(f"  {name:<28} absent: {args.workload} makes no call into "
                      f"{LAYER_METRICS[name][1]}")
            else:
                print(f"  {name:<28} {fmt(m['value'])} {m['unit']}")
        print_wasted_work(log)
        metrics = {}
        for m in spec["per_layer"]:
            value = layers[m["name"]]
            metrics[m["name"]] = {"value": 0 if value is None else value["value"], "unit": m["unit"]}
    else:
        if args.workload == "cli-exact":
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setups = setup_samples(args, setup_first)
        tail = stats.tail_percentile(latencies)
        e2e = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.fmean(untraced_passes), "s"),
            "latency_p50_s": (statistics.median(latencies), "s"),
            "failed_frac": (tally.failed_frac, "ratio"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }
        if tail is not None:
            e2e["latency_tail_s"] = (tail[1], "s")
        record.update(setup_samples=setups, latencies=latencies, loop_s=loop_end - loop_start,
                      metrics={k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
                      latency_tail=None if tail is None else {"percentile": tail[0], "samples": tail[2]})
        for name, (value, unit) in e2e.items():
            extra = ""
            if name == "latency_tail_s":
                extra = f"  (p{tail[0]} of {tail[2]} samples)"
            print(f"  {name:<16} {fmt(value)} {unit}{extra}")
        if tail is None:
            print(f"  latency_tail_s   omitted: {len(latencies)} samples leave no percentile above "
                  f"the median with {stats.TAIL_MIN_BEYOND} samples beyond it")
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}

    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.correct else 1


def compare(old_path, new_path) -> int:
    """One row per workload and end-to-end metric of two results.jsonl files.

    Metrics that BENCHMARK.json does not bound are judged with its largest bound.
    """
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    default_bound = max(bounds.values())

    def load(path):
        runs = {}
        for line in Path(path).read_text().splitlines():
            rec = json.loads(line)
            if not rec["trace"]:
                runs.setdefault(rec["workload"], []).append(rec)
        return runs

    old, new = load(old_path), load(new_path)
    print(f"{'workload':<14} {'metric':<15} {'old q1/median/q3':<28} {'new q1/median/q3':<28} verdict")
    for workload in sorted(set(old) & set(new)):
        names = [n for n in old[workload][0]["metrics"]
                 if all(n in r["metrics"] for r in old[workload] + new[workload])]
        for name in names:
            o = [r["metrics"][name]["value"] for r in old[workload]]
            n = [r["metrics"][name]["value"] for r in new[workload]]
            by_seed_old = {r["seed"]: r["metrics"][name]["value"] for r in old[workload]}
            pairs = [(by_seed_old[r["seed"]], r["metrics"][name]["value"])
                     for r in new[workload] if r["seed"] in by_seed_old]
            v = stats.verdict(o, n, bounds.get(name, default_bound), "lower", pairs)
            qo, qn = stats.quartiles(o), stats.quartiles(n)
            print(f"{workload:<14} {name:<15} {'/'.join(f'{x:.4g}' for x in qo):<28} "
                  f"{'/'.join(f'{x:.4g}' for x in qn):<28} {v}")
    return 0


def record_digests(args) -> int:
    from workloads import DIGESTS, WORKLOADS, load_digests, record

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    digests = {k: v for k, v in load_digests().items()
               if not any(k.startswith(n + "/") for n in names)}
    digests.update(record(names, WORK, lambda msg: print(msg, flush=True)))
    DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    print(f"{len(digests)} digests in {DIGESTS.name}")
    return 0


def run_all(args) -> int:
    status = 0
    for w in load_spec()["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", w["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)], cwd=ROOT)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record the output digests of the seed pool into digests.json")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two results.jsonl files")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "spectral_tau" / "__init__.py").is_file() or not SPEC_FILE.is_file():
        print(f"error: run from a checkout of spectral-tau: {SRC / 'spectral_tau'} "
              f"or {SPEC_FILE.name} is missing", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare)
    threads = os.environ.get("SPECTRAL_TAU_THREADS")
    if threads not in (None, "1"):
        print(f"error: SPECTRAL_TAU_THREADS must be unset or 1, got {threads!r}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    sys.path.insert(0, str(SRC))
    if args.record:
        return record_digests(args)
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS, build

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    import spectral_tau

    if Path(spectral_tau.__file__).resolve().parent != SRC / "spectral_tau":
        print(f"error: imported spectral_tau from {spectral_tau.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        build(args.workload, args.seed, WORK)
        print(time.perf_counter() - T_START)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
