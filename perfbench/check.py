"""Output check: exact digests of the simulated results, and invariants.

The simulator is deterministic, so the check is exact.  A digest is the
SHA-256 of a canonical JSON rendering of the results, with every float
written by ``repr`` (round-trip exact).  ``digests.json`` holds the
committed digests per (workload, size, seed); a seed without one is
still checked against the invariants and against the other repetitions
of the same invocation.

The invariants are checked from outside, on the public report, request
and node objects:

1. each injected request ends completed or rejected, exactly once;
2. the node meters' served tokens equal the tokens requests kept plus the
   tokens lost to preemption, and equal the ledger's served plus wasted
   tokens (``ClusterReport.wasted_tokens``);
3. per request, ``arrival_s <= first_token_s <= finish_s``;
4. the per-request energy sums to at most the nodes' busy energy (the
   nodes also bill prefill and KV transfers, which no request is charged).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: The simulated results a digest covers, named so that a column added to
#: the report later does not change the digest of unchanged results.
REPORT_FIELDS = (
    "n_requests", "completed", "rejected", "makespan_s", "p50_ttft_s",
    "p99_ttft_s", "p50_e2e_s", "p99_e2e_s", "mean_tpot_s",
    "throughput_tok_s", "slo_attainment", "goodput_rps", "fleet_energy_j",
    "j_per_token", "busy_energy_j", "retries", "lost_tokens", "swap_outs",
    "swap_ins", "sacrifices", "swapped_gb", "prefix_hit_tokens",
    "prefix_hit_rate", "wasted_tokens", "jain_tokens")
TENANT_FIELDS = ("tenant", "injected", "completed", "rejected",
                 "served_tokens", "wasted_tokens", "slo_met", "p99_ttft_s")
NODE_FIELDS = ("node", "served_tokens", "prefilled_tokens", "completed",
               "busy_s", "busy_energy_j")

#: Relative slack on invariant 4, for float summation order only.
ENERGY_RTOL = 1e-9


def digest_of(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cluster_digest(report) -> str:
    requests = [
        [r.req_id, r.tenant, r.node_id, r.arrival_s, r.first_token_s,
         r.finish_s, r.generated, r.lost_tokens, r.rejected, r.retries,
         r.energy_j, r.swaps, r.swap_ins, r.prefix_cached_tokens]
        for r in sorted(report.requests, key=lambda r: r.req_id)
    ]
    return digest_of({
        "report": {k: getattr(report, k) for k in REPORT_FIELDS},
        "tenants": [{k: getattr(t, k) for k in TENANT_FIELDS}
                    for t in report.tenants],
        "nodes": [{k: row[k] for k in NODE_FIELDS}
                  for row in report.node_rows],
        "requests": requests,
    })


def cluster_invariants(report, nodes, n_injected: int) -> List[str]:
    out: List[str] = []
    reqs = report.requests
    if len(reqs) != n_injected:
        out.append(f"report holds {len(reqs)} requests, {n_injected} injected")
    if len({r.req_id for r in reqs}) != len(reqs):
        out.append("duplicate request ids in the report")
    for r in reqs:
        if (r.finish_s is not None) == bool(r.rejected):
            out.append(f"request {r.req_id} is not in exactly one terminal "
                       f"state (finish_s={r.finish_s}, rejected={r.rejected})")
    if report.completed + report.rejected != n_injected:
        out.append(f"completed {report.completed} + rejected "
                   f"{report.rejected} != injected {n_injected}")

    served = sum(n.served_tokens for n in nodes)
    kept_plus_lost = sum(r.generated + r.lost_tokens for r in reqs)
    if served != kept_plus_lost:
        out.append(f"node served tokens {served} != generated + lost "
                   f"{kept_plus_lost}")
    ledger = sum(t.served_tokens for t in report.tenants) + report.wasted_tokens
    if served != ledger:
        out.append(f"node served tokens {served} != ledger served + wasted "
                   f"{ledger}")

    for r in reqs:
        if r.finish_s is None:
            continue
        if r.first_token_s is None or not (
                r.arrival_s <= r.first_token_s <= r.finish_s):
            out.append(f"request {r.req_id} timestamps not monotone: "
                       f"arrival {r.arrival_s}, first token "
                       f"{r.first_token_s}, finish {r.finish_s}")

    req_j = sum(r.energy_j for r in reqs)
    busy_j = sum(n.busy_energy_j for n in nodes)
    if req_j > busy_j * (1.0 + ENERGY_RTOL):
        out.append(f"request energy {req_j} J exceeds node busy energy "
                   f"{busy_j} J")
    return out


def study_digest(runs) -> str:
    rows = []
    for r in runs:
        rows.append({
            "model": r.model, "device": r.device, "workload": r.workload,
            "runtime": r.runtime, "precision": r.precision.value,
            "power_mode": r.power_mode, "batch_size": r.batch_size,
            "gen": [r.gen.input_tokens, r.gen.output_tokens], "oom": r.oom,
            "mean_latency_s": r.mean_latency_s,
            "throughput_tok_s": r.throughput_tok_s,
            "model_gb": r.model_gb, "incremental_gb": r.incremental_gb,
            "total_gb": r.total_gb, "median_power_w": r.median_power_w,
            "energy_j": r.energy_j,
            "batches": [[b.latency_s, b.prefill_s, b.decode_s, b.oom]
                        for b in r.batches],
        })
    return digest_of(rows)


def study_invariants(runs, cache_stats) -> List[str]:
    out: List[str] = []
    if not runs:
        out.append("study produced no runs")
    for r in runs:
        if r.oom:
            continue
        if not (r.mean_latency_s > 0 and r.throughput_tok_s > 0
                and r.energy_j > 0):
            out.append(f"{r.model} bs={r.batch_size} "
                       f"seq={r.gen.total_tokens}: non-positive latency, "
                       f"throughput or energy")
    if cache_stats.lookups != len(runs):
        out.append(f"cache lookups {cache_stats.lookups} != runs {len(runs)}")
    if cache_stats.puts != cache_stats.misses:
        out.append(f"cache puts {cache_stats.puts} != misses "
                   f"{cache_stats.misses}")
    return out


def load_digests() -> Dict:
    return json.loads(DIGESTS_PATH.read_text())


def expected_digest(digests: Dict, workload: str, size: str,
                    seed: int) -> Optional[str]:
    """The committed digest for this run, or None when none is committed.

    The study draws no random inputs, so its digest is stored once per
    size under the key ``"any"`` and applies to every seed.
    """
    by_seed = digests.get(workload, {}).get(size, {})
    return by_seed.get("any", by_seed.get(str(seed)))


def digest_violations(digest: str, expected: Optional[str]) -> List[str]:
    if expected is not None and digest != expected:
        return [f"digest {digest[:16]}... != committed {expected[:16]}..."]
    return []
