"""The continuous scheduler runs on the cluster node's serving loop.

``ContinuousBatchScheduler.serve`` drives one
:class:`~repro.cluster.node.ClusterNode`; there is no second
continuous-batching loop.  These tests pin what that means:

- contiguous runs without KV pressure reproduce, float for float, the
  per-request timestamps the scheduler's former standalone loop
  produced (digests recorded from that loop);
- the three places the standalone loop had drifted from the node now
  follow the node: paged decode pays no concat traffic, contiguous
  admission reserves each sequence's whole lifetime, and the fair
  scheduler sees arrivals at submit time.
"""

import copy
import hashlib
import json

import pytest

from repro.cluster.workload import multi_tenant_workload, poisson_workload
from repro.engine.scheduler import ContinuousBatchScheduler, ServeRequest
from repro.hardware import get_device
from repro.models import get_model
from repro.quant.dtypes import Precision

#: sha256 over ``(req_id, first_token_s.hex(), finish_s.hex(),
#: lost_tokens)`` rows of 30 multi-tenant requests at 6 req/s (seed 5),
#: max_batch 32, natural KV budget — recorded from the scheduler's
#: standalone loop before it was replaced by the node.
PARITY_DIGESTS = {
    ("fcfs", "sacrifice"):
        "aa1f5b983a914d798675147d680969e83a0bdd8bd758018c7a1c9bea5d33d044",
    ("fcfs", "swap-lru"):
        "aa1f5b983a914d798675147d680969e83a0bdd8bd758018c7a1c9bea5d33d044",
    ("vtc", "sacrifice"):
        "8bc2bd4ee9cbcf1dc2b0c7b7cfa3809005ce7540c574b352ec16dee3d3a73ad1",
    ("vtc", "swap-lru"):
        "8bc2bd4ee9cbcf1dc2b0c7b7cfa3809005ce7540c574b352ec16dee3d3a73ad1",
}


def sched(paged=False, max_batch=32, **kw):
    return ContinuousBatchScheduler(
        get_device("jetson-orin-agx-64gb"), get_model("llama"),
        Precision.FP16, max_batch=max_batch, paged=paged, **kw)


def _digest(requests) -> str:
    rows = [(r.req_id, r.first_token_s.hex(), r.finish_s.hex(),
             r.lost_tokens)
            for r in sorted(requests, key=lambda r: r.req_id)]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("fair,policy", sorted(PARITY_DIGESTS))
def test_contiguous_runs_match_the_standalone_loop(fair, policy):
    reqs = multi_tenant_workload(6.0, 30, seed=5)
    sched(fair_scheduler=fair, kv_policy=policy).serve(reqs)
    assert _digest(reqs) == PARITY_DIGESTS[(fair, policy)]


def test_paged_decode_pays_no_concat_traffic():
    """With an ample budget the paged runtime only differs from the
    contiguous one by its cache-growth cost, which is zero: its
    makespan must come in below the contiguous makespan."""
    reqs = poisson_workload(3.0, 48, input_tokens=32, output_tokens=64,
                            seed=11)
    contiguous = sched(paged=False).serve(copy.deepcopy(reqs))
    paged = sched(paged=True).serve(copy.deepcopy(reqs))
    assert paged.n_requests == contiguous.n_requests == 48
    assert paged.makespan_s < contiguous.makespan_s


def test_contiguous_admission_reserves_whole_lifetimes():
    """A budget holding exactly two lifetime reservations never runs
    more than two sequences at once."""
    inp, out = 16, 32
    arch = get_model("llama")
    per_token = arch.kv_cache_spec().bytes_per_token_per_layer * arch.n_layers
    reqs = [ServeRequest(req_id=i, arrival_s=0.0, input_tokens=inp,
                         output_tokens=out) for i in range(6)]
    report = sched(max_batch=6,
                   kv_budget_bytes=2 * (inp + out) * per_token).serve(reqs)
    assert report.n_requests == 6
    for r in reqs:
        overlapping = [o for o in reqs
                       if o.first_token_s <= r.first_token_s <= o.finish_s]
        assert len(overlapping) <= 2, r.req_id
