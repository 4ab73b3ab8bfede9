#!/usr/bin/env python3
"""Copy the latest benchmark records of every BENCHMARK.json workload into a snapshot.

Reads perfbench/.work/results.jsonl (or RESULTS), takes the last untraced
(--trace 0) and the last traced (--trace 1) record of each workload, and
stores them under LABEL in OUT, keeping the other labels already there:
{LABEL: {workload: {"untraced": record, "traced": record}}}, one line per
record field, so that snapshots diff by metric.

Usage: python3 scripts/bench_snapshot.py OUT LABEL [RESULTS]
  e.g. python3 scripts/bench_snapshot.py BENCH_27.json change
"""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def snapshot(out: Path, label: str, results: Path) -> None:
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    latest = {}
    for line in results.read_text().splitlines():
        rec = json.loads(line)
        latest[rec["workload"], "traced" if rec["trace"] else "untraced"] = rec
    missing = [f"{w} {t}" for w in workloads for t in ("untraced", "traced") if (w, t) not in latest]
    if missing:
        raise SystemExit(f"no record in {results} for: {', '.join(missing)}")
    data = json.loads(out.read_text()) if out.exists() else {}
    data[label] = {w: {t: latest[w, t] for t in ("untraced", "traced")} for w in workloads}
    out.write_text(re.sub(r"\n(?: {5,}| {4}(?=[\]}]))", "", json.dumps(data, indent=1)) + "\n")


if __name__ == "__main__":
    if len(sys.argv) not in (3, 4):
        raise SystemExit(__doc__)
    default = ROOT / "perfbench" / ".work" / "results.jsonl"
    snapshot(Path(sys.argv[1]), sys.argv[2], Path(sys.argv[3]) if len(sys.argv) == 4 else default)
