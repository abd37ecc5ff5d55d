#!/usr/bin/env python
"""Same-run speed ratio of the cluster node's decode stretches.

Serves one 4-node Poisson scenario (Orin AGX 64GB x 4, Llama-3 INT4,
``hf-transformers``, round-robin, FCFS, 128+128-token requests just
below saturation) twice in this process:

- ``per-step`` — :class:`PerStepNode` from ``tests/cluster``: the
  historical serving loop, one DES event per decode step per node;
- ``stretch``  — :class:`~repro.cluster.node.ClusterNode`: one DES event
  per decode stretch, settled lazily for readers.

Both runs must produce identical results (report, every request record,
node meters, every power sample) before any timing counts — a speedup
that changes answers is a bug.  Timings interleave the two loops and
keep each one's best of ``--repeats``, so host noise hits both alike;
the gate is their ratio, not an absolute time.

Regression gate (CI ``speed-regression`` job): the stretch loop must be
>= ``--min-speedup`` times faster than the per-step loop.

Usage::

    python benchmarks/bench_cluster_speed.py            # full scenario
    python benchmarks/bench_cluster_speed.py --smoke --min-speedup 1.5
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests" / "cluster"))

from _per_step_node import per_step_nodes  # noqa: E402
from repro.cluster import EdgeCluster, FleetSpec, NodeSpec  # noqa: E402
from repro.cluster.workload import poisson_workload  # noqa: E402
from repro.reporting import format_table  # noqa: E402


def build(per_step: bool) -> EdgeCluster:
    fleet = FleetSpec.of([NodeSpec("jetson-orin-agx-64gb")] * 4,
                         model="llama", precision="int4",
                         policy="round-robin")
    with per_step_nodes() if per_step else contextlib.nullcontext():
        return EdgeCluster.of(fleet)


def serve(per_step: bool, n_requests: int, seed: int):
    """One timed run: (host seconds, events scheduled, result digest,
    report)."""
    cluster = build(per_step)
    requests = poisson_workload(0.8, n_requests, 128, 128, seed=seed)
    t0 = time.perf_counter()
    report = cluster.run(requests)
    host_s = time.perf_counter() - t0
    digest = repr((
        report,
        [dataclasses.asdict(r) for r in cluster.last_requests],
        [(n.served_tokens, n.busy_energy_j, n.busy_seconds,
          n.thermal.temp_c, n.throttle_log,
          [(s.time_s, s.power_w, s.phase) for s in n.sampler.samples])
         for n in cluster.nodes],
    ))
    return host_s, cluster.env.next_seq(), digest, report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="short trace (CI budget)")
    ap.add_argument("--requests", type=int, default=None,
                    help="override the trace length")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timed runs per loop (best one counts)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="exit 1 unless stretch/per-step speed >= this")
    args = ap.parse_args()
    n = args.requests or (600 if args.smoke else 4000)

    best = {}
    digests = {}
    events = {}
    for _ in range(max(1, args.repeats)):
        for name, per_step in (("per-step", True), ("stretch", False)):
            host_s, n_events, digest, report = serve(per_step, n, args.seed)
            if name in digests and digests[name] != digest:
                print(f"FAIL: {name} run is not deterministic")
                return 1
            digests[name] = digest
            events[name] = n_events
            best[name] = min(best.get(name, host_s), host_s)
        if digests["per-step"] != digests["stretch"]:
            print("FAIL: stretch results differ from the per-step loop")
            return 1

    tokens = sum(r.output_tokens for r in poisson_workload(
        0.8, n, 128, 128, seed=args.seed))
    rows = [{"loop": name, "host_s": round(best[name], 3),
             "des_events": events[name],
             "tokens_per_host_s": round(tokens / best[name])}
            for name in ("per-step", "stretch")]
    speedup = best["per-step"] / best["stretch"]
    print(format_table(rows, title=(
        f"cluster decode loop, {n} requests, seed {args.seed} "
        f"(results identical; best of {args.repeats})")))
    print(f"speedup: {speedup:.2f}x  (completed {report.completed}/{n})")
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x < required "
              f"{args.min_speedup:.2f}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
