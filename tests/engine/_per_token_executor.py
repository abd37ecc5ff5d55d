"""Test-only oracle: a batch executor that decodes one token per DES event.

:class:`PerTokenExecutor` is :class:`~repro.engine.executor.BatchExecutor`
with the run loop as it was before decode stretches: one DES event per
generated token, the allocator driven in simulated-time order, every
step's cost taken from the scalar
:meth:`~repro.engine.kernels.StepTimer.decode_step`.  The loop below is
kept verbatim; the memory helpers (``_make_kv``, workspace and eager
sizes) are inherited, so a backend's executor subclass keeps its KV
protocol under the oracle.

:func:`per_token_executors` swaps this loop into every executor the
engine builds (the hf, gguf and paged backends alike), for differential
tests and for the study-harness speed benchmark.
"""

from __future__ import annotations

import contextlib
from typing import List, Optional
from unittest import mock

from repro.engine.executor import BatchExecutor
from repro.engine.request import BatchRequest, BatchResult
from repro.engine.state import EngineState
from repro.errors import OutOfMemoryError
from repro.memsys.allocator import Allocation
from repro.obs import kinds
from repro.obs.span import NULL_OBSERVER, Observer
from repro.power.model import ComponentUtilization
from repro.sim.environment import Environment


class PerTokenExecutor(BatchExecutor):
    """A :class:`BatchExecutor` driven by the per-token decode loop."""

    def run(
        self,
        env: Environment,
        request: BatchRequest,
        state: EngineState,
        obs: Observer = NULL_OBSERVER,
        track: str = "engine",
    ):
        bs = request.batch_size
        gen = request.gen
        result = BatchResult(request=request, latency_s=0.0, prefill_s=0.0, decode_s=0.0)
        start = env.now

        held: List[Allocation] = []
        kv = None
        eager_buf: Optional[Allocation] = None
        try:
            held.append(
                self.allocator.alloc(
                    self.workspace_bytes + self._activation_bytes(bs), tag="workspace"
                )
            )
            kv = self._make_kv(bs, gen)

            # ---- prefill ----
            kv.prefill(gen.input_tokens)
            if self.eager_score_buffers:
                eager_buf = self.allocator.alloc(
                    self._eager_bytes(bs, gen.input_tokens), tag="eager-scores"
                )
            cost = self.timer.prefill(bs, gen.input_tokens)
            state.set("prefill", ComponentUtilization.from_step_cost(cost))
            prefill_start = env.now
            yield env.timeout(cost.seconds)
            result.prefill_s = cost.seconds
            if obs.enabled:
                obs.complete(kinds.PREFILL, prefill_start, env.now,
                             cat=kinds.CAT_ENGINE, track=track, batch=bs,
                             tokens=gen.input_tokens)

            # ---- decode ----
            for _ in range(gen.output_tokens):
                context = kv.seq_len
                concat = kv.concat_traffic_bytes()
                kv.append_token()
                if self.eager_score_buffers:
                    assert eager_buf is not None
                    # Free-then-alloc: the runtime reuses the buffer in
                    # place when it can; only the footprint grows.  Clear
                    # the reference first so an OOM here cannot cause a
                    # double free in the cleanup path.
                    buf, eager_buf = eager_buf, None
                    self.allocator.free(buf)
                    eager_buf = self.allocator.alloc(
                        self._eager_bytes(bs, kv.seq_len), tag="eager-scores"
                    )
                cost = self.timer.decode_step(bs, context, concat_bytes=concat)
                state.set("decode",
                          ComponentUtilization.from_step_cost(cost))
                step_start = env.now
                yield env.timeout(cost.seconds)
                result.step_seconds.append(cost.seconds)
                if obs.enabled:
                    obs.complete(kinds.DECODE, step_start, env.now,
                                 cat=kinds.CAT_ENGINE, track=track,
                                 batch=bs, tokens=1)
            result.decode_s = sum(result.step_seconds)
            result.latency_s = env.now - start
        except OutOfMemoryError:
            result.oom = True
            result.latency_s = env.now - start
        finally:
            state.set_idle()
            if eager_buf is not None:
                self.allocator.free(eager_buf)
            if kv is not None:
                kv.release()
            for h in held:
                self.allocator.free(h)
        return result


@contextlib.contextmanager
def per_token_executors():
    """Run every :class:`BatchExecutor` (and subclass) per token."""
    with mock.patch.object(BatchExecutor, "run", PerTokenExecutor.run):
        yield
