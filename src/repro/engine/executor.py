"""The prefill/decode loop as a discrete-event process.

One :class:`BatchExecutor` runs one batch: it allocates workspace and the
KV cache through the caching allocator (so fragmentation and OOM emerge
from the same mechanisms as on the real board), advances simulated time
per engine step using :class:`~repro.engine.kernels.StepTimer`, and
publishes utilization to :class:`~repro.engine.state.EngineState` for
the power sampler.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.engine.kernels import StepTimer
from repro.engine.request import BatchRequest, BatchResult
from repro.engine.state import EngineState
from repro.errors import OutOfMemoryError
from repro.memsys.allocator import Allocation, CachingAllocator
from repro.memsys.fastpath import TRAJECTORY_CACHE, StreamSpec, apply_delta
from repro.memsys.kvcache import KVCache
from repro.obs import kinds
from repro.obs.span import NULL_OBSERVER, Observer
from repro.power.model import ComponentUtilization
from repro.sim.environment import Environment


class BatchExecutor:
    """Runs one :class:`BatchRequest` on the simulation.

    A batch runs in two steps.  Its memory is resolved first: the whole
    allocator op sequence (workspace, KV prefill, one growth per decoded
    token, release) is applied up front and yields the batch's OOM
    point, if any.  Then one decode emitter advances simulated time:
    decode steps are collapsed between scheduled simulation events
    (power-sampler ticks, end of batch) into one absolute-time timeout
    per stretch.  Timestamps are accumulated in the same float order as
    one event per token and scheduled via
    :meth:`~repro.sim.environment.Environment.timeout_at`, so every
    observable — latencies, sampler readings, energy, memory peaks — is
    bit-identical to stepping each token (checked against the per-token
    oracle in ``tests/engine/_per_token_executor.py``).  Resolving
    memory ahead of the clock is safe because nothing reads the
    allocator mid-batch.

    Parameters
    ----------
    timer:
        Cost model bound to (model, device, precision).
    allocator:
        The device allocator (shared with model weights).
    kv_mode:
        ``"dynamic"`` (HF DynamicCache, the paper's setup) or
        ``"static"`` (pre-allocated; ablation).
    eager_score_buffers:
        If True (legacy eager-attention models, i.e. Phi-2), hold
        per-layer full-context score buffers whose footprint grows
        quadratically with context — the phenomenological model of the
        Phi-2 memory blow-up and its sl>=512 OOM (see DESIGN.md).
    workspace_bytes:
        Fixed + batch-dependent runtime workspace to hold for the run.
    """

    def __init__(
        self,
        timer: StepTimer,
        allocator: CachingAllocator,
        kv_mode: str = "dynamic",
        eager_score_buffers: Optional[bool] = None,
        workspace_bytes: int = 0,
    ):
        self.timer = timer
        self.allocator = allocator
        self.kv_mode = kv_mode
        arch = timer.arch
        if eager_score_buffers is None:
            eager_score_buffers = arch.attention_impl == "eager"
        self.eager_score_buffers = eager_score_buffers
        self.workspace_bytes = int(workspace_bytes)
        #: Batches served by the memoized-trajectory fast path (tests).
        self.fastpath_batches = 0

    # -- memory helpers ------------------------------------------------------
    def _make_kv(self, batch_size: int, gen):
        """KV cache for one batch — the hook runtime backends override.

        The returned object must expose the growth protocol the memory
        walk drives: ``prefill(n)``, ``append_token()``, ``seq_len`` and
        ``release()``.  The decode emitter does not ask it for concat
        traffic: it charges the ``torch.cat`` copy from ``kv_mode``, and
        only ``"dynamic"`` pays it.
        """
        return KVCache(
            self.timer.arch.kv_cache_spec(),
            self.allocator,
            batch_size=batch_size,
            mode=self.kv_mode,
            max_seq_len=gen.total_tokens if self.kv_mode == "static" else None,
        )

    def _eager_bytes(self, batch_size: int, context: int) -> int:
        arch = self.timer.arch
        # fp16 scores + fp32 softmax upcast per layer, all layers resident.
        return batch_size * arch.n_layers * arch.n_heads * context * context * 6

    def _activation_bytes(self, batch_size: int) -> int:
        arch = self.timer.arch
        per_seq = (4 * arch.hidden_size + 2 * arch.intermediate_size) * 2
        logits = arch.vocab_size * 4 * 2  # fp32 logits + softmax scratch
        return batch_size * (per_seq + logits)

    # -- the process -----------------------------------------------------------
    def run(
        self,
        env: Environment,
        request: BatchRequest,
        state: EngineState,
        obs: Observer = NULL_OBSERVER,
        track: str = "engine",
    ):
        """Generator process: yields timeouts; returns a BatchResult.

        On simulated OOM the result is returned with ``oom=True`` (all
        held memory is released first), mirroring a caught
        ``torch.cuda.OutOfMemoryError``: the steps completed before the
        failing one are timed, an OOM during setup takes no time.

        ``obs`` receives one prefill span and one decode span per
        stretch, stamped with the simulated timestamps stepping each
        token would produce — observing a run never perturbs its
        numbers.
        """
        bs = request.batch_size
        gen = request.gen
        result = BatchResult(request=request, latency_s=0.0, prefill_s=0.0, decode_s=0.0)
        start = env.now
        oom = self._resolve_memory(bs, gen)
        try:
            if oom is None or oom[0] != "setup":
                # ---- prefill ----
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
                n_timed = oom[1] if oom is not None else gen.output_tokens
                yield from self._decode(env, bs, gen.input_tokens, n_timed,
                                        state, result, obs, track)
            if oom is not None:
                result.oom = True
            else:
                result.decode_s = sum(result.step_seconds)
            result.latency_s = env.now - start
            return result
        finally:
            state.set_idle()

    def _decode(self, env, bs, ctx_start, n_steps, state, result, obs,
                track):
        """Emit ``n_steps`` decode steps, one timeout per stretch.

        Step costs come from the vectorized
        :meth:`~repro.engine.kernels.StepTimer.decode_run`, with
        timestamps accumulated left to right from ``env.now``
        (``np.cumsum`` is bit-identical to the sequential left fold).  A
        stretch ends at the step whose interval contains the next
        scheduled event (a power-sampler tick), so the sampler always
        reads the utilization of the step in progress at its tick.
        """
        if not n_steps:
            return
        concat_coef = (self.timer.arch.kv_cache_spec().bytes_total(bs, 1)
                       if self.kv_mode == "dynamic" else 0)
        run = self.timer.decode_run(bs, ctx_start, n_steps, concat_coef)
        sec = run.seconds
        ts = np.cumsum(np.concatenate(
            ((env.now,), np.asarray(sec, dtype=np.float64))))[1:]
        i = 0
        while i < n_steps:
            horizon = env.peek()
            stretch_start = env.now
            # First step whose completion time reaches the next scheduled
            # event ends the stretch (inclusive).
            end = int(np.searchsorted(ts, horizon, side="left")) + 1
            end = min(max(end, i + 1), n_steps)
            result.step_seconds.extend(sec[i:end])
            last = end - 1
            state.set("decode", ComponentUtilization(
                gpu_compute=run.gpu_compute_frac[last],
                gpu_busy=run.gpu_busy_frac[last],
                mem_bw=run.mem_bw_frac[last],
                cpu_cores_active=run.cpu_cores_active[last],
            ))
            yield env.timeout_at(float(ts[last]))
            if obs.enabled:
                obs.complete(kinds.DECODE, stretch_start, env.now,
                             cat=kinds.CAT_ENGINE, track=track,
                             batch=bs, tokens=end - i)
            i = end

    # -- the memory step ------------------------------------------------------
    def _fastpath_eligible(self) -> bool:
        """The memoized trajectory replay assumes the stock KV growth
        protocol on the stock allocator; backends that override either
        (e.g. the paged executor's block pool) walk the real allocator."""
        return (
            type(self)._make_kv is BatchExecutor._make_kv
            and type(self.allocator) is CachingAllocator
            and self.kv_mode in ("dynamic", "static")
        )

    def _resolve_memory(self, bs: int, gen) -> Optional[Tuple[str, int]]:
        """Apply the batch's whole allocator op sequence up front.

        Returns ``None`` for a clean batch, ``("setup", 0)`` when the
        workspace/KV-prefill/eager setup fails, or ``("decode", j)`` when
        token ``j`` (0-based) fails — the
        :attr:`~repro.memsys.fastpath.TrajectoryDelta.oom` marker.
        """
        if not self._fastpath_eligible():
            return self._walk_memory(bs, gen)
        kv_spec = self.timer.arch.kv_cache_spec()
        static = self.kv_mode == "static"
        n_out = gen.output_tokens
        if self.eager_score_buffers:
            eager_prefill = self._eager_bytes(bs, gen.input_tokens)
            eager_steps = tuple(self._eager_bytes(bs, gen.input_tokens + j + 1)
                                for j in range(n_out))
        else:
            eager_prefill = None
            eager_steps = ()
        stream = StreamSpec(
            workspace_bytes=self.workspace_bytes + self._activation_bytes(bs),
            n_kv_tensors=2 * kv_spec.n_layers,
            kv_prefill_bytes=kv_spec.layer_tensor_bytes(
                bs, gen.total_tokens if static else gen.input_tokens),
            kv_step_bytes=() if static else tuple(
                kv_spec.layer_tensor_bytes(bs, gen.input_tokens + j + 1)
                for j in range(n_out)),
            eager_prefill_bytes=eager_prefill,
            eager_step_bytes=eager_steps,
            n_tokens=n_out,
        )
        delta = TRAJECTORY_CACHE.delta_for(self.allocator, stream)
        apply_delta(self.allocator, delta)
        self.fastpath_batches += 1
        return delta.oom

    def _walk_memory(self, bs: int, gen) -> Optional[Tuple[str, int]]:
        """Drive the real allocator through the batch's op sequence:
        workspace, KV prefill (and eager scores), one ``append_token``
        per decoded token, then release in ``finally`` order."""
        held: List[Allocation] = []
        kv = None
        eager_buf: Optional[Allocation] = None
        step = None
        try:
            held.append(
                self.allocator.alloc(
                    self.workspace_bytes + self._activation_bytes(bs), tag="workspace"
                )
            )
            kv = self._make_kv(bs, gen)
            kv.prefill(gen.input_tokens)
            if self.eager_score_buffers:
                eager_buf = self.allocator.alloc(
                    self._eager_bytes(bs, gen.input_tokens), tag="eager-scores"
                )
            for step in range(gen.output_tokens):
                kv.append_token()
                if self.eager_score_buffers:
                    # Free-then-alloc: the runtime reuses the buffer in
                    # place when it can; only the footprint grows.  Clear
                    # the reference first so an OOM here cannot cause a
                    # double free in the cleanup path.
                    buf, eager_buf = eager_buf, None
                    self.allocator.free(buf)
                    eager_buf = self.allocator.alloc(
                        self._eager_bytes(bs, kv.seq_len), tag="eager-scores"
                    )
        except OutOfMemoryError:
            return ("setup", 0) if step is None else ("decode", step)
        finally:
            if eager_buf is not None:
                self.allocator.free(eager_buf)
            if kv is not None:
                kv.release()
            for h in held:
                self.allocator.free(h)
        return None
