#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``run.py`` once per seed, one run at a time, and prints for each
end-to-end metric the median, the quartiles (``statistics.quantiles``,
n=4) and the spread ``(q3 - q1) / median``, which must stay within the
metric's bound in ``BENCHMARK.json`` (and, to leave headroom, below a
third of it).  The summary, with the last run's manifest, is written to
``perfbench/out/spread-<workload>.json``.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload study-cold --seeds 1-10 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="'1-10' or '1,5,9'")
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in json.loads(
        (BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    values: dict = {}
    failures = 0
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=BENCH.parent)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failures += result["failed"] + (not result["correct"])
        line = [f"seed {seed}:"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.6g}")
        print(" ".join(line), flush=True)

    print(f"{args.workload}: {failures} failures")
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bound, "values": vals}
        flag = "" if bound is None or spread < bound / 3 else "  <-- over bound/3"
        print(f"  {name:24s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
              f"  spread {spread:7.4f}  bound {bound}{flag}")
    last = BENCH / "out" / f"{args.workload}-full-seed{seed}-trace0.json"
    record = {"workload": args.workload, "seeds": args.seeds,
              "seconds": args.seconds, "failures": failures,
              "metrics": summary,
              "manifest": json.loads(last.read_text())["manifest"]}
    out = BENCH / "out" / f"spread-{args.workload}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
