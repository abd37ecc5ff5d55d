"""Paged admission in the continuous scheduler."""

import copy

import pytest

from repro.cluster.workload import poisson_workload
from repro.engine.scheduler import ContinuousBatchScheduler, ServeRequest
from repro.hardware import get_device
from repro.models import get_model
from repro.quant.dtypes import Precision


def sched(paged: bool, budget: int = None, max_batch: int = 8):
    return ContinuousBatchScheduler(
        get_device("jetson-orin-agx-64gb"), get_model("llama"),
        Precision.FP16, max_batch=max_batch, paged=paged,
        kv_budget_bytes=budget,
    )


def test_paged_serves_all_requests():
    reqs = poisson_workload(3.0, 16, input_tokens=16, output_tokens=16, seed=2)
    report = sched(paged=True).serve(reqs)
    assert report.n_requests == 16
    assert report.discipline == "continuous-paged"


def test_paged_needs_less_memory_for_same_concurrency():
    """Contiguous admission reserves each sequence's *final* length up
    front; the block manager only holds blocks for generated tokens, so
    its peak pool usage sits well below the contiguous reservation."""
    from repro.memsys.allocator import CachingAllocator
    from repro.memsys.paged import PagedKVCache
    from repro.models import get_model

    arch = get_model("llama")
    spec = arch.kv_cache_spec()
    n_seqs, inp, out = 16, 16, 48
    full_reservation = n_seqs * spec.bytes_total(1, inp + out)

    alloc = CachingAllocator(int(1e9))
    cache = PagedKVCache(spec, alloc, full_reservation, block_tokens=16)
    # All sequences resident, decoding in lockstep (the worst case).
    live = set(range(n_seqs))
    for s in live:
        cache.add_sequence(s, inp)
    for _ in range(out):
        for s in list(live):
            cache.append_token(s)
        # Staggered completion: half the sequences are short.
        if 0 in live and cache.seq_tokens(0) == inp + out // 2:
            for s in range(0, n_seqs, 2):
                cache.release_sequence(s)
                live.discard(s)
    peak = cache.stats.peak_used_blocks * cache.bytes_per_block
    assert peak < 0.85 * full_reservation


def test_preemption_path_still_completes_everything():
    # A pool so small that growth must preempt: everything still finishes.
    budget = int(15e6)
    reqs = poisson_workload(20.0, 12, input_tokens=16, output_tokens=64, seed=6)
    report = sched(paged=True, budget=budget, max_batch=12).serve(reqs)
    assert report.n_requests == 12
    for r in report.requests:
        assert r.finish_s is not None
        assert r.ttft_s >= 0


def _bytes_per_block(block_tokens: int = 16) -> int:
    spec = get_model("llama").kv_cache_spec()
    return spec.bytes_per_token_per_layer * spec.n_layers * block_tokens


class TestAdmissionBoundary:
    """Block-granular admission: exact fit admits, one block over rejects."""

    def _cache(self, n_blocks: int, block_tokens: int = 16):
        from repro.memsys.allocator import CachingAllocator
        from repro.memsys.paged import PagedKVCache

        spec = get_model("llama").kv_cache_spec()
        pool = n_blocks * _bytes_per_block(block_tokens)
        return PagedKVCache(spec, CachingAllocator(pool + 32 * 2**20), pool,
                            block_tokens=block_tokens)

    def test_admit_exactly_at_capacity(self):
        cache = self._cache(n_blocks=4)
        assert cache.can_admit(4 * 16)
        cache.add_sequence(0, 4 * 16)
        assert cache.free_blocks == 0

    def test_reject_one_token_over_block_capacity(self):
        cache = self._cache(n_blocks=4)
        # 65 tokens round up to a fifth block: one block over the pool.
        assert not cache.can_admit(4 * 16 + 1)
        from repro.errors import OutOfMemoryError

        with pytest.raises(OutOfMemoryError):
            cache.add_sequence(0, 4 * 16 + 1)
        # The failed admission must not leak blocks.
        assert cache.free_blocks == 4
        cache.add_sequence(1, 4 * 16)

    def test_scheduler_serves_request_that_exactly_fills_pool(self):
        # Final sequence length 16 + 48 = 64 tokens = exactly 4 blocks.
        budget = 4 * _bytes_per_block()
        reqs = [ServeRequest(req_id=0, arrival_s=0.0, input_tokens=16,
                             output_tokens=48)]
        report = sched(paged=True, budget=budget, max_batch=1).serve(reqs)
        assert report.requests[0].finish_s is not None
        assert report.requests[0].generated == 48


class TestPreemption:
    """preempt_youngest: the youngest sequence is evicted and recomputed."""

    def _three_requests(self):
        # Three identical 16-in/32-out sequences; r2 arrives a beat
        # late.  A 7-block pool admits all three prompts, but when r0
        # and r1 cross the 33-token block boundary in the same decode
        # iteration the pool is dry and r2 — the youngest — is evicted.
        # After r0/r1 finish, r2 re-runs from scratch (3 blocks <= 7).
        return [
            ServeRequest(req_id=0, arrival_s=0.0, input_tokens=16,
                         output_tokens=32),
            ServeRequest(req_id=1, arrival_s=0.0, input_tokens=16,
                         output_tokens=32),
            ServeRequest(req_id=2, arrival_s=0.1, input_tokens=16,
                         output_tokens=32),
        ]

    def test_youngest_is_preempted_and_still_completes(self):
        tight = sched(paged=True, budget=7 * _bytes_per_block(),
                      max_batch=3).serve(self._three_requests())
        r0, r1, r2 = tight.requests
        assert all(r.generated == 32 for r in tight.requests)
        # r2 has the same service demand and arrived only 0.1 s late;
        # it finishes a full re-run after the others only because it
        # was evicted and recomputed from scratch.
        assert r2.finish_s > r0.finish_s + 1.0
        assert r2.finish_s > r1.finish_s + 1.0

    def test_preemption_recompute_costs_time(self):
        tight = sched(paged=True, budget=7 * _bytes_per_block(),
                      max_batch=3).serve(self._three_requests())
        ample = sched(paged=True, budget=64 * _bytes_per_block(),
                      max_batch=3).serve(self._three_requests())
        assert all(r.finish_s is not None for r in ample.requests)
        # Recompute-style preemption re-pays r2's prefill and decode.
        assert tight.makespan_s > ample.makespan_s

    def test_unpreemptable_oom_raises(self):
        from repro.errors import OutOfMemoryError

        # A single sequence outgrowing the whole pool has no victim to
        # evict: the scheduler must surface the OOM, not loop.
        reqs = [ServeRequest(req_id=0, arrival_s=0.0, input_tokens=16,
                             output_tokens=256)]
        with pytest.raises(OutOfMemoryError):
            sched(paged=True, budget=2 * _bytes_per_block(),
                  max_batch=1).serve(reqs)


class TestBlockRoundedAdmissionBoundary:
    """Regression: a prompt needing exactly the remaining blocks admits.

    The old admission check asked for blocks covering ``input + 1``
    tokens, so a prompt that exactly filled the free pool was refused
    until a running sequence finished — an off-by-one that serialised
    exactly-full admissions.  Decode growth is handled by preemption,
    not by reserving the extra block up front.
    """

    def _sched_with_blocks(self, n_blocks, max_batch=8):
        from repro.models import get_model

        arch = get_model("llama")
        probe = arch.kv_cache_spec()
        bpb = probe.bytes_per_token_per_layer * probe.n_layers * 16
        return sched(paged=True, budget=n_blocks * bpb, max_batch=max_batch)

    def test_exactly_full_pool_admits(self):
        s = self._sched_with_blocks(8)
        # A holds 3 blocks for its whole life (48-token cap, 16 rounds).
        a = ServeRequest(req_id=0, arrival_s=0.0, input_tokens=40,
                         output_tokens=8)
        # B's 80-token prompt needs exactly the 5 remaining blocks.
        b = ServeRequest(req_id=1, arrival_s=0.05, input_tokens=80,
                         output_tokens=16)
        report = s.serve([a, b])
        assert report.n_requests == 2
        assert a.finish_s is not None and b.finish_s is not None
        # The boundary admission ran B concurrently with A: its first
        # token streams long before A drains (pre-fix, B waited for A).
        assert b.first_token_s < a.finish_s

    def test_over_full_prompt_still_waits(self):
        s = self._sched_with_blocks(8)
        a = ServeRequest(req_id=0, arrival_s=0.0, input_tokens=40,
                         output_tokens=8)
        # 81 tokens -> 6 blocks > the 5 free: must wait for A to finish.
        b = ServeRequest(req_id=1, arrival_s=0.05, input_tokens=81,
                         output_tokens=8)
        report = s.serve([a, b])
        assert report.n_requests == 2
        assert b.first_token_s > a.finish_s
