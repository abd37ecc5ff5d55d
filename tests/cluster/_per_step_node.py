"""Test-only oracle: a cluster node that simulates decode one step at a time.

:class:`PerStepNode` is :class:`~repro.cluster.node.ClusterNode` with the
serving loop as it was before decode stretches: one DES event per decode
step, every step accounted and credited the moment it starts and ends.
The loop below is kept verbatim; it never opens a stretch, so the node's
settle/cut hooks are no-ops and everything else is inherited unchanged.

:func:`per_step_nodes` makes :meth:`EdgeCluster.of
<repro.cluster.cluster.EdgeCluster.of>` (and so every fleet runner built
on it: chaos, sweeps) build ``PerStepNode`` fleets, for differential
tests and for the cluster speed benchmark.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro.cluster.node import ClusterNode
from repro.kvtier.swap import swap_bandwidth_bytes_s
from repro.obs import kinds
from repro.sim.events import Interrupt


class PerStepNode(ClusterNode):
    """A :class:`ClusterNode` driven by the per-step serving loop."""

    def _serve_loop(self):
        env = self.env
        while True:
            if not self.healthy:
                self._restart_ev = env.event()
                try:
                    yield self._restart_ev
                except Interrupt:  # pragma: no cover - crash while down
                    pass
                self._restart_ev = None
                continue
            try:
                if self._pending_transfer_s > 0:
                    # Swap-out traffic from the last preemption round:
                    # the bus was busy writing victims' KV host-side.
                    seconds = self._pending_transfer_s
                    self._pending_transfer_s = 0.0
                    _, dur = self._account_transfer(seconds, "kv_swap_out")
                    yield env.timeout(dur)
                    self.last_busy_s = env.now
                admitted = self._admit()
                for r in admitted:
                    if r.kv_state == "swapped":
                        # Restore preserved KV instead of re-prefilling.
                        nbytes, seconds = self.swap.swap_in(
                            r.req_id, swap_bandwidth_bytes_s(self.device))
                        _, dur = self._account_transfer(
                            seconds, "kv_swap_in")
                        swap_start = env.now
                        yield env.timeout(dur)
                        self.last_busy_s = env.now
                        r.kv_state = "resident"
                        r.swapped_kv_bytes = 0
                        r.swap_ins += 1
                        if self.obs.enabled:
                            self.obs.complete(
                                kinds.KV_SWAP_IN, swap_start, env.now,
                                cat=kinds.CAT_CLUSTER, track=self.obs_track,
                                req=r.req_id, kv_bytes=nbytes)
                            self.obs.metrics.histogram(
                                "kv_swap_in_s").observe(env.now - swap_start)
                        continue
                    if self.role == "decode":
                        continue  # prompt KV arrives via the transfer link
                    hit = 0
                    if self.radix is not None and r.prompt_ids is not None:
                        if self.radix.holds(r.req_id):
                            self.radix.release(r.req_id)  # replay re-match
                        hit = self.radix.insert(
                            r.req_id, r.prompt_ids, env.now)
                        r.prefix_cached_tokens = hit
                        if hit and self.obs.enabled:
                            self.obs.instant(
                                kinds.KV_PREFIX_HIT, cat=kinds.CAT_REQUEST,
                                track=f"req{r.req_id}", parent=r.obs_span,
                                node=self.node_id, tokens=hit)
                            self.obs.metrics.histogram(
                                "kv_prefix_hit_tokens").observe(hit)
                    prefill_tokens = max(1, r.input_tokens - hit)
                    cost = self.timer.prefill(1, prefill_tokens)
                    _, dur = self._account(cost, "prefill")
                    prefill_start = env.now
                    yield env.timeout(dur)
                    self.last_busy_s = env.now
                    self.prefilled_tokens += prefill_tokens
                    self.scheduler.on_tokens_served(
                        r, prefill_tokens=prefill_tokens)
                    r.prefill_end_s = env.now
                    if self.obs.enabled:
                        self.obs.complete(
                            kinds.PREFILL, prefill_start, env.now,
                            cat=kinds.CAT_CLUSTER, track=self.obs_track,
                            req=r.req_id, tokens=prefill_tokens)
                    if self.role == "prefill":
                        self.active.remove(r)
                        self._drop_radix_pin(r)
                        if self.on_prefill_done is not None:
                            self.on_prefill_done(r)

                if not self.active:
                    self.state.set_idle()
                    head = self._next_candidate()
                    if (head is not None
                            and self._kv_need(head) <= self.kv_budget):
                        continue  # re-check admission (head now fits)
                    # Empty, or head-of-line blocked by shrunk KV budget:
                    # sleep until a submit/restore/degrade wakes us.
                    self._wake = env.event()
                    yield self._wake
                    self._wake = None
                    continue

                bs = len(self.active)
                context = max(r.input_tokens + r.generated for r in self.active)
                concat = self.backend.decode_concat_bytes(
                    self.kv_bytes(bs * context))
                cost = self.timer.decode_step(bs, context, concat_bytes=concat)
                step_j, dur = self._account(cost, "decode")
                step_start = env.now
                yield env.timeout(dur)
                self.last_busy_s = env.now
                if self.obs.enabled:
                    self.obs.complete(
                        kinds.DECODE, step_start, env.now,
                        cat=kinds.CAT_CLUSTER, track=self.obs_track,
                        batch=bs, context=context)
                # Requests evicted mid-step (OOM pressure) left `active`
                # and get no token from this step.
                step_tenants = set()
                for r in list(self.active):
                    r.generated += 1
                    r.last_token_s = env.now
                    r.energy_j += step_j / bs
                    self.served_tokens += 1
                    self.scheduler.on_tokens_served(r, decode_tokens=1)
                    self.tenant_served_tokens[r.tenant] = (
                        self.tenant_served_tokens.get(r.tenant, 0) + 1)
                    step_tenants.add(r.tenant)
                    if r.first_token_s is None:
                        r.first_token_s = env.now
                    if r.generated >= r.output_tokens:
                        r.finish_s = env.now
                        self.active.remove(r)
                        # The prompt path stays in the radix tree for
                        # future arrivals; only the pin is dropped.
                        self._drop_radix_pin(r)
                        self.completed.append(r)
                        if self.on_complete is not None:
                            self.on_complete(r)
                if self.obs.enabled and self.scheduler.name != "fcfs":
                    # Per-tenant served-token counter series (sorted so
                    # the trace stays byte-stable under PYTHONHASHSEED).
                    # Fair-scheduler runs only: legacy FCFS traces keep
                    # their exact historical record stream.
                    for tenant in sorted(step_tenants):
                        self.obs.counter(
                            kinds.served_tokens_kind(tenant),
                            self.tenant_served_tokens[tenant],
                            track=self.obs_track)
                # Optimistic (free-block) admission can overcommit: live
                # KV grew this step and may now exceed the pool —
                # preempt the youngest (vLLM recompute preemption).
                if (self.backend.admits_by_free_blocks
                        and self.kv_in_use > self.kv_budget):
                    self._evict_over_budget(permanent=True,
                                            pool_exhausted=True)
            except Interrupt:
                continue  # crashed mid-step: loop re-checks health


@contextlib.contextmanager
def per_step_nodes():
    """Build every :class:`EdgeCluster` fleet from :class:`PerStepNode`."""
    with mock.patch("repro.cluster.cluster.ClusterNode", PerStepNode):
        yield
