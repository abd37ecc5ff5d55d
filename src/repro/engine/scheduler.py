"""Request-level serving simulation: static vs continuous batching.

The paper serves *static* batches (HF ``generate`` over a fixed prompt
set) and points to dedicated inference engines as future work (§4).
This module simulates both disciplines over the same calibrated cost
model, with Poisson request arrivals on the DES:

- :class:`StaticBatchScheduler` — collect up to ``max_batch`` requests
  (or wait out ``max_wait_s``), run the batch to completion, repeat.
  Simple, but late arrivals wait for the whole previous batch.
- :class:`ContinuousBatchScheduler` — iteration-level scheduling in the
  Orca/vLLM style: after every decode step, finished sequences retire
  and queued requests are admitted (paying their prefill) while the KV
  budget allows, so the GPU never idles on a draining batch.

There is one continuous-batching core in the repo, the serving loop of
:class:`~repro.cluster.node.ClusterNode`; the continuous scheduler
drives a single node on a private clock rather than keeping a loop of
its own.

Both report per-request metrics: time-to-first-token, time-per-output-
token, end-to-end latency, plus aggregate percentiles and goodput.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.engine.kernels import EngineCostParams, StepTimer
from repro.errors import ExperimentError, OutOfMemoryError
from repro.hardware.device import EdgeDevice
from repro.models.architecture import TransformerArchitecture
from repro.quant.dtypes import Precision
from repro.sim.environment import Environment
from repro.sim.resources import Store


@dataclass
class ServeRequest:
    """One inference request in the arrival stream."""

    req_id: int
    arrival_s: float
    input_tokens: int
    output_tokens: int
    first_token_s: Optional[float] = None
    finish_s: Optional[float] = None
    generated: int = 0
    #: Decode tokens thrown away by preemption or KV-state loss; each
    #: one was produced (and billed) once already and must be redone.
    lost_tokens: int = 0
    #: How many times this request restarted from scratch.
    replays: int = 0
    #: Token-ID prompt (optional).  When present on the paged backend,
    #: the radix prefix cache can share KV blocks with other requests
    #: whose prompts start identically.
    prompt_ids: Optional[tuple] = None
    #: Sim time of the most recent decode token (LRU victim selection).
    last_token_s: Optional[float] = None
    #: Prompt tokens served from the shared-prefix cache (block-aligned).
    prefix_cached_tokens: int = 0

    def reset_for_replay(self) -> None:
        """Drop in-flight state after preemption / KV loss.

        The recompute-style discipline: generated tokens are discarded
        (counted in ``lost_tokens``), the request re-prefills wherever
        it lands next, and the first-token clock keeps its *original*
        value if a token was already streamed — the client saw it.
        """
        if self.generated:
            self.lost_tokens += self.generated
            self.replays += 1
        self.generated = 0
        self.finish_s = None

    @property
    def ttft_s(self) -> Optional[float]:
        """Time to first token."""
        if self.first_token_s is None:
            return None
        return self.first_token_s - self.arrival_s

    @property
    def latency_s(self) -> Optional[float]:
        if self.finish_s is None:
            return None
        return self.finish_s - self.arrival_s

    @property
    def tpot_s(self) -> Optional[float]:
        """Time per output token after the first."""
        if self.finish_s is None or self.first_token_s is None or self.output_tokens < 2:
            return None
        return (self.finish_s - self.first_token_s) / (self.output_tokens - 1)


@dataclass
class ServingReport:
    """Aggregate outcome of one serving simulation."""

    discipline: str
    n_requests: int
    makespan_s: float
    throughput_tok_s: float
    mean_ttft_s: float
    p95_ttft_s: float
    mean_latency_s: float
    p95_latency_s: float
    mean_tpot_s: float
    requests: List[ServeRequest] = field(default_factory=list)

    def as_row(self) -> Dict[str, float]:
        return {
            "discipline": self.discipline,
            "throughput_tok_s": round(self.throughput_tok_s, 1),
            "mean_ttft_s": round(self.mean_ttft_s, 2),
            "p95_ttft_s": round(self.p95_ttft_s, 2),
            "mean_latency_s": round(self.mean_latency_s, 2),
            "p95_latency_s": round(self.p95_latency_s, 2),
            "mean_tpot_s": round(self.mean_tpot_s, 4),
        }


def _report(discipline: str, requests: List[ServeRequest],
            makespan: float) -> ServingReport:
    done = [r for r in requests if r.finish_s is not None]
    if not done:
        raise ExperimentError("no request completed")
    ttfts = np.array([r.ttft_s for r in done])
    lats = np.array([r.latency_s for r in done])
    tpots = np.array([r.tpot_s for r in done if r.tpot_s is not None])
    total_tokens = sum(r.input_tokens + r.output_tokens for r in done)
    return ServingReport(
        discipline=discipline,
        n_requests=len(done),
        makespan_s=makespan,
        throughput_tok_s=total_tokens / makespan,
        mean_ttft_s=float(ttfts.mean()),
        p95_ttft_s=float(np.percentile(ttfts, 95)),
        mean_latency_s=float(lats.mean()),
        p95_latency_s=float(np.percentile(lats, 95)),
        mean_tpot_s=float(tpots.mean()) if tpots.size else 0.0,
        requests=done,
    )


#: Per-request outcome fields :class:`ContinuousBatchScheduler` copies
#: back from the node's requests onto the caller's.
_SERVED_FIELDS = ("first_token_s", "finish_s", "generated", "lost_tokens",
                  "replays", "last_token_s", "prefix_cached_tokens")


class _SchedulerBase:
    def __init__(
        self,
        device: EdgeDevice,
        arch: TransformerArchitecture,
        precision: Precision,
        max_batch: int = 32,
        params: Optional[EngineCostParams] = None,
        kv_budget_bytes: Optional[int] = None,
    ):
        if max_batch < 1:
            raise ExperimentError("max_batch must be >= 1")
        self.device = device
        self.arch = arch
        self.precision = precision
        self.max_batch = max_batch
        self.params = params
        if kv_budget_bytes is None:
            from repro.backends import get_backend
            from repro.cluster.node import natural_kv_budget

            kv_budget_bytes = natural_kv_budget(
                device, get_backend("hf-transformers"), arch, precision)
        if kv_budget_bytes <= 0:
            raise ExperimentError("model leaves no KV budget on this device")
        self.kv_budget = kv_budget_bytes


class StaticBatchScheduler(_SchedulerBase):
    """The paper's discipline: fixed batches run to completion."""

    def __init__(self, *args, max_wait_s: float = 1.0, **kwargs):
        super().__init__(*args, **kwargs)
        if max_wait_s < 0:
            raise ExperimentError("max_wait_s must be >= 0")
        self.max_wait_s = max_wait_s
        self.timer = StepTimer(self.arch, self.device, self.precision,
                               self.params)
        self._kv_per_token = (
            self.arch.kv_cache_spec().bytes_per_token_per_layer
            * self.arch.n_layers)

    def kv_bytes(self, tokens: int) -> int:
        return tokens * self._kv_per_token

    def serve(self, requests: List[ServeRequest]) -> ServingReport:
        """Run the arrival stream to completion; returns the report."""
        env = Environment()
        queue = Store(env)

        def arrivals():
            for r in sorted(requests, key=lambda x: x.arrival_s):
                delay = r.arrival_s - env.now
                if delay > 0:
                    yield env.timeout(delay)
                yield queue.put(r)

        served = 0

        def server():
            nonlocal served
            while served < len(requests):
                first = yield queue.get()
                batch = [first]
                deadline = env.now + self.max_wait_s
                # Fill the batch until the window closes or it is full.
                while len(batch) < self.max_batch and queue.size > 0:
                    batch.append((yield queue.get()))
                if len(batch) < self.max_batch and env.now < deadline:
                    yield env.timeout(deadline - env.now)
                    while len(batch) < self.max_batch and queue.size > 0:
                        batch.append((yield queue.get()))

                bs = len(batch)
                inp = max(r.input_tokens for r in batch)
                out = max(r.output_tokens for r in batch)
                yield env.timeout(self.timer.prefill(bs, inp).seconds)
                for step in range(out):
                    context = inp + step
                    concat = 2 * self.kv_bytes(bs * context)
                    cost = self.timer.decode_step(bs, context, concat_bytes=concat)
                    yield env.timeout(cost.seconds)
                    for r in batch:
                        if step == 0:
                            r.first_token_s = env.now
                        if step == r.output_tokens - 1 and r.finish_s is None:
                            # Static batching holds finished sequences
                            # until the whole batch drains (padding), but
                            # the client sees its last token here.
                            r.finish_s = env.now
                served += bs

        env.process(arrivals(), name="arrivals")
        done = env.process(server(), name="static-server")
        env.run(until=done)
        return _report("static", requests, env.now)


class ContinuousBatchScheduler(_SchedulerBase):
    """Iteration-level scheduling (Orca/vLLM style) on a single node.

    The repo has one continuous-batching core,
    :class:`~repro.cluster.node.ClusterNode`'s serving loop; this class
    drives one such node on a private clock.  ``paged=True`` serves with
    the ``paged`` runtime (admission by free blocks, preemption when the
    pool runs dry, radix prefix sharing for requests carrying
    ``prompt_ids``) instead of ``hf-transformers`` (whole-lifetime KV
    reservations).

    ``kv_policy`` selects what happens to preempted sequences (see
    :mod:`repro.kvtier.policy`): the default ``sacrifice`` drops the
    victim's KV and re-prefills later; ``swap`` preserves it on the
    host side and pays a bandwidth-modelled transfer each way.
    ``fair_scheduler`` is the queue discipline over waiting arrivals
    (:mod:`repro.fairness`; default FCFS).
    """

    def __init__(self, *args, paged: bool = False, kv_policy=None,
                 fair_scheduler=None, **kwargs):
        from repro.kvtier.policy import get_kv_policy

        super().__init__(*args, **kwargs)
        self.paged = paged
        self.kv_policy = get_kv_policy(kv_policy)
        self.fair_scheduler = fair_scheduler
        #: Populated by :meth:`serve` when the policy preserves KV.
        self.swap_stats = None
        #: Populated by :meth:`serve` on the paged runtime.
        self.prefix_stats = None

    def serve(self, requests: List[ServeRequest]) -> ServingReport:
        """Serve the arrival stream on one node; returns the report.

        Raises :class:`OutOfMemoryError` when a request can never run:
        the node refuses it at submit, or its whole-lifetime KV outgrows
        the paged pool mid-decode.
        """
        from repro.cluster.node import ClusterNode
        from repro.cluster.workload import as_cluster_requests

        env = Environment()
        node = ClusterNode(
            # The node owns (and may thermally throttle) its device.
            env, 0, copy.deepcopy(self.device), self.arch, self.precision,
            max_batch=self.max_batch, max_queue=len(requests),
            params=self.params, kv_budget_bytes=self.kv_budget,
            backend="paged" if self.paged else "hf-transformers",
            kv_policy=self.kv_policy, scheduler=self.fair_scheduler,
        )
        reqs = as_cluster_requests(requests)
        done = env.event()
        hopeless: List[ServeRequest] = []

        def on_complete(r) -> None:
            if len(node.completed) == len(reqs):
                done.succeed(None)

        def on_hopeless(rs) -> None:
            # Rejected under permanent pool pressure: never completes.
            hopeless.extend(rs)
            if not done.triggered:
                done.succeed(None)

        node.on_complete = on_complete
        node.on_crash = on_hopeless
        # Advance the clock to each arrival and submit it there.
        for r in sorted(reqs, key=lambda x: x.arrival_s):
            env.run(until=r.arrival_s)
            if not hopeless and not node.submit(r):
                hopeless.append(r)
            if hopeless:
                break
        else:
            env.run(until=done)
        if hopeless:
            r = hopeless[0]
            raise OutOfMemoryError(
                requested_bytes=node.kv_bytes(r.input_tokens
                                              + r.output_tokens),
                available_bytes=node.kv_budget,
                context=f"request {r.req_id} can never fit the KV budget",
            )
        for caller, served in zip(requests, reqs):
            for name in _SERVED_FIELDS:
                setattr(caller, name, getattr(served, name))
        self.swap_stats = node.swap.stats if node.swap is not None else None
        self.prefix_stats = (node.radix.stats if node.radix is not None
                             else None)
        return _report("continuous-paged" if self.paged else "continuous",
                       requests, env.now)
