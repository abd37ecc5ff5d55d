"""One serving node: a device, its engine loop, queue and energy meter.

A :class:`ClusterNode` wraps an :class:`~repro.hardware.device.EdgeDevice`
with a continuous-batching serving loop (iteration-level scheduling)
running as a process on a *shared* simulation environment, so many nodes
coexist on one clock.  This loop is the repo's one continuous-batching
core: the single-device
:class:`~repro.engine.scheduler.ContinuousBatchScheduler` drives a
single node on a private clock rather than keeping a loop of its own.
Each node owns:

- an admission queue with a depth cap (back-pressure) and a KV-budget
  check (requests whose full KV footprint can never fit are refused
  outright — the OOM-driven rejection path);
- an :class:`~repro.engine.state.EngineState` + jtop-style
  :class:`~repro.telemetry.sampler.PowerSampler`, so fleet energy is
  integrated from sampled traces exactly like the paper's methodology;
- exact per-step energy accounting used to attribute joules to the
  individual tokens each step produced;
- a lumped-RC :class:`~repro.hardware.thermal.ThermalModel` advanced by
  the *dissipated* step power, so thermal throttling emerges from the
  workload (a sustained MAXN batch heats the junction; the throttle
  multiplier then feeds back into the next step's clocks) instead of
  being scripted.

Nodes can serve both phases (default), or only prefill / only decode
for the Splitwise-style disaggregated routing policy.

Decode stretches.  Between two points where its batch could change, a
node does not wake once per decode step: at the batch boundary it plans
every step up to the next such point and yields one absolute timeout at
the end of the last.  A stretch ends at the first step that completes a
request; after the first step at whose end admission could fire (queued
work and a free batch slot, unless FCFS admission provably stays shut);
at the step whose tokens take paged KV over the budget; at a step whose
thermal advance flips the throttle governor; and, with an observer
attached, after every step (decode spans are recorded at step ends).
Each planned step is costed, powered and thermally advanced exactly as
a lone step would be, in the same float order, so every simulated
number is bit-identical to stepping one event per token.

Nothing outside the node sees a stretch.  Readers — the power sampler,
``kv_pressure`` / ``kv_in_use`` and ``predicted_j_per_token`` for the
routers, ``submit``, and any caller once ``Environment.run`` returns —
first *settle* it: every step boundary that has happened by the current
instant is applied (accounting, heat, tokens).
Changers — ``submit`` when a batch slot is free, ``crash``,
``set_kv_shrink``, ``apply_mode`` (autoscaler, brownouts),
``set_precision``, ``set_slowdown`` and ``shift_ambient`` (fault
injection) — settle and then *cut* the stretch at the step in progress,
which finishes with the duration it started with.

Tie rule: the boundary where step ``k - 1`` ends is ordered on the
event heap as the per-step wake-up would be — at ``t[k]``, as if
scheduled when the step started (``t[k - 1]``), with the sequence
number the stretch claimed when it was planned.  An event at exactly a
boundary runs before it if it was scheduled before that step started,
and after it otherwise.  An event scheduled at exactly the start of a
later planned step counts as scheduled after that step's wake-up; the
per-step loop orders that double coincidence by an insertion number a
stretch never claims.

Fault surface (driven by :mod:`repro.faults`): :meth:`crash` /
:meth:`restart` model a node death with KV-state loss, ``kv_shrink``
models transient OOM pressure, :meth:`set_slowdown` models straggler
interference, :meth:`shift_ambient` a heat wave, and
:meth:`set_precision` is the graceful-degradation hook.  All of it is
deterministic on the shared clock.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, List, Optional

from repro.backends.base import resolve_backend
from repro.cluster.workload import ClusterRequest
from repro.fairness.scheduler import (
    FairScheduler,
    FCFSScheduler,
    get_fair_scheduler,
)
from repro.engine.kernels import EngineCostParams, StepCost
from repro.engine.state import EngineState
from repro.errors import ConfigError
from repro.hardware.device import EdgeDevice
from repro.hardware.thermal import ThermalModel
from repro.kvtier.policy import get_kv_policy
from repro.kvtier.radix import RadixPrefixCache
from repro.kvtier.swap import HostSwapSpace, swap_bandwidth_bytes_s
from repro.models.architecture import TransformerArchitecture
from repro.obs import kinds
from repro.obs.span import NO_SPAN, NULL_OBSERVER, Observer
from repro.power.model import ComponentUtilization, PowerModel
from repro.power.modes import PowerMode, apply_power_mode, get_power_mode
from repro.quant.dtypes import Precision
from repro.sim.environment import Environment
from repro.sim.events import Interrupt
from repro.telemetry.sampler import PowerSampler

#: Workspace bytes reserved out of the KV budget (CUDA context, temps).
_WORKSPACE_BYTES = int(1e9)


def natural_kv_budget(device: EdgeDevice, backend,
                      arch: TransformerArchitecture,
                      precision: Precision) -> int:
    """KV bytes left on ``device`` after weights and workspace.

    This is the budget every node derives unless one was pinned
    explicitly at construction, and the same budget the analytic
    planner (:mod:`repro.plan`) uses for its M_total token capacity —
    one formula, two consumers, so the fluid model and the DES agree
    on memory by construction.  May be <= 0 when the weights alone
    exceed the board.
    """
    return int(
        device.memory.usable_bytes
        - backend.weight_bytes(arch, precision)
        - _WORKSPACE_BYTES
    )


@dataclass
class CrashEpisode:
    """One down interval of a node (``up_s`` is None while still down)."""

    down_s: float
    up_s: Optional[float] = None

    @property
    def repair_s(self) -> Optional[float]:
        if self.up_s is None:
            return None
        return self.up_s - self.down_s


class _Stretch:
    """One planned run of decode steps over a fixed batch.

    Step ``j`` runs over ``[t[j], t[j + 1])``; the lists hold its cost,
    wall seconds, busy joules, and the junction temperature right after
    its thermal advance.  ``flip`` is the step whose advance flips the
    throttle governor (always the last planned one), or -1.  ``started``
    steps have been accounted on the node and ``credited`` steps have
    handed out their tokens; ``n`` shrinks when a change cuts the
    stretch short.
    """

    __slots__ = ("batch", "bs", "seq", "t", "cost", "seconds", "joules",
                 "temp", "flip", "n", "started", "credited", "wake")

    def __init__(self, batch, t0, cost, seconds, joules):
        self.batch = batch
        self.bs = len(batch)
        self.t = [t0, t0 + seconds]
        self.cost = [cost]
        self.seconds = [seconds]
        self.joules = [joules]
        # Step 0 is accounted by the loop itself (idle gap included).
        self.temp = [None]
        self.flip = -1
        self.started = 1
        self.credited = 0


class ClusterNode:
    """A single device serving requests on the shared cluster clock.

    Parameters
    ----------
    env:
        The shared simulation environment.
    node_id:
        Stable index within the cluster (used for deterministic
        tie-breaking by routers).
    device:
        The hardware preset instance (owned by this node; power modes
        mutate it).
    arch / precision:
        Model served by this node (every node holds a full replica).
    power_mode:
        Optional nvpmodel-style mode name applied at construction.
    role:
        ``"both"`` (default), ``"prefill"`` or ``"decode"`` — the
        latter two implement the Splitwise-style split.
    max_batch / max_queue:
        Concurrency cap of the running batch and depth cap of the
        admission queue (``submit`` refuses above it).
    thermal:
        Thermal RC model advanced by dissipated power each step
        (default: a stock :class:`ThermalModel`).  Throttling applies
        the model's frequency multiplier to the GPU clock on top of
        whatever power mode is active.
    """

    def __init__(
        self,
        env: Environment,
        node_id: int,
        device: EdgeDevice,
        arch: TransformerArchitecture,
        precision: Precision,
        power_mode: Optional[str] = None,
        role: str = "both",
        max_batch: int = 8,
        max_queue: int = 256,
        params: Optional[EngineCostParams] = None,
        power_model: Optional[PowerModel] = None,
        kv_budget_bytes: Optional[int] = None,
        sample_period_s: float = 1.0,
        thermal: Optional[ThermalModel] = None,
        obs: Optional[Observer] = None,
        backend=None,
        kv_policy=None,
        scheduler=None,
        region: Optional[str] = None,
        carbon_trace=None,
        tier: Optional[str] = None,
    ):
        if max_batch < 1 or max_queue < 1:
            raise ConfigError("max_batch and max_queue must be >= 1")
        if role not in ("both", "prefill", "decode"):
            raise ConfigError(f"unknown node role {role!r}")
        self.env = env
        self.node_id = node_id
        self.device = device
        self.arch = arch
        self.precision = precision
        self.role = role
        #: Geographic placement (``repro.sustain``): the node's region
        #: and the carbon/price trace its energy is metered against
        #: (None = no carbon accounting, the legacy behaviour).
        self.region = region
        self.carbon_trace = carbon_trace
        #: Cascade tier label; tiered requests only land on matching
        #: nodes (None accepts untiered traffic only — see ``accepts``).
        self.tier = tier
        self.max_batch = max_batch
        self.max_queue = max_queue
        self._params = params
        #: Inference-runtime backend (name or instance); nodes of one
        #: fleet may mix runtimes.
        self.backend = resolve_backend(backend)
        if power_mode is not None:
            apply_power_mode(device, get_power_mode(power_mode))
        self.timer = self.backend.make_timer(arch, device, precision, params)
        self.power_model = power_model or PowerModel()
        self._explicit_kv_budget = kv_budget_bytes is not None
        if kv_budget_bytes is None:
            kv_budget_bytes = natural_kv_budget(device, self.backend,
                                                arch, precision)
        if kv_budget_bytes <= 0:
            raise ConfigError(
                f"model leaves no KV budget on node {node_id} ({device.name})"
            )
        self._kv_budget_base = kv_budget_bytes
        #: Fraction of the nominal KV budget currently usable (< 1 under
        #: injected OOM pressure).
        self.kv_shrink = 1.0
        self._kv_per_token = (
            arch.kv_cache_spec().bytes_per_token_per_layer * arch.n_layers
        )

        #: KV lifecycle policy (repro.kvtier): what happens to preempted
        #: requests' caches.  The default sacrifice/lifo/conservative is
        #: bit-identical to the historical preempt-youngest-recompute.
        self.kv_policy = get_kv_policy(kv_policy)
        self.swap: Optional[HostSwapSpace] = None
        if self.kv_policy.preserves_kv:
            self.swap = HostSwapSpace(int(
                self.kv_policy.host_capacity_frac
                * device.memory.capacity_bytes))
        #: Shared-prefix radix cache; only the paged runtime does block-
        #: granular sharing, and only ``prompt_ids``-carrying requests
        #: participate, so other configurations see an empty tree.
        self.radix: Optional[RadixPrefixCache] = None
        if self.backend.admits_by_free_blocks and self.role != "decode":
            bt = getattr(self.backend, "block_tokens", 16)
            self.radix = RadixPrefixCache(bt, bt * self._kv_per_token)
        #: Swap-out bus time accrued outside the serve loop, billed (with
        #: mem-bound energy) at the next loop iteration.
        self._pending_transfer_s = 0.0
        #: Preemptions that dropped KV (any policy; includes swap-space-
        #: full fallbacks).
        self.kv_sacrifices = 0

        #: Queue-scheduling discipline (``repro.fairness``): FCFS by
        #: default — a bit-identical extraction of the historical
        #: head-of-queue pop — or a fair policy (``vtc``, ``wsc``).
        self.scheduler = get_fair_scheduler(scheduler)
        #: Whether decode tokens must be billed to the scheduler one by
        #: one (FCFS inherits the no-op hook and skips the calls).
        self._bills_decode = (type(self.scheduler).on_tokens_served
                              is not FairScheduler.on_tokens_served)
        #: Per-tenant decode-token production meter (counts every token
        #: this node produced for the tenant, replays included).
        self.tenant_served_tokens: Dict[str, int] = {}

        self.queue: List[ClusterRequest] = []
        self.active: List[ClusterRequest] = []
        self.completed: List[ClusterRequest] = []
        #: Called when a prefill-role node finishes a prompt (set by the
        #: cluster to start the KV transfer to a decode node).
        self.on_prefill_done: Optional[Callable[[ClusterRequest], None]] = None
        #: Called when a request finishes decoding.
        self.on_complete: Optional[Callable[[ClusterRequest], None]] = None
        #: Called with the orphaned requests when the node crashes (set
        #: by the cluster to requeue them elsewhere).
        self.on_crash: Optional[
            Callable[[List[ClusterRequest]], None]] = None

        #: Observability sink (spans/instants on the ``node{i}`` track).
        self.obs = obs if obs is not None else NULL_OBSERVER
        self.obs_track = f"node{node_id}"
        self.state = EngineState()
        self.sampler = PowerSampler(env, device, self.power_model, self.state,
                                    period_s=sample_period_s, obs=self.obs,
                                    obs_track=self.obs_track,
                                    sync=self._settle_state)
        #: Exact step-accounted busy energy (J) and busy wall time (s).
        self.busy_energy_j = 0.0
        self.busy_seconds = 0.0
        #: Decode tokens this node produced (each token exactly once per
        #: *production*; replays after KV loss produce tokens again).
        self.served_tokens = 0
        #: Prompt tokens this node prefilled (replayed prefills count).
        self.prefilled_tokens = 0
        self.last_busy_s = 0.0

        # -- fault/resilience state ----------------------------------------
        #: False while crashed; admission refuses and routers skip.
        self.healthy = True
        #: Wall-time multiplier on engine steps (straggler interference;
        #: change it through set_slowdown once serving).
        self.slowdown = 1.0
        #: Down intervals, for availability / MTTR accounting.
        self.crash_log: List[CrashEpisode] = []
        #: (time, throttled) transitions of the thermal governor.
        self.throttle_log: List[tuple] = []
        self.thermal = thermal if thermal is not None else ThermalModel()
        self._thermal_clock = env.now
        #: GPU clock the active power mode asks for; the thermal
        #: governor multiplies *this*, so throttling composes with
        #: nvpmodel changes instead of fighting them.
        self._base_gpu_hz = device.gpu.freq_hz

        self._wake = None
        self._restart_ev = None
        #: The decode stretch in flight (None outside one).
        self._stretch: Optional[_Stretch] = None
        env.on_pause(self._settle)  # callers inspecting between runs
        self._proc = env.process(self._serve_loop(), name=f"node-{node_id}")

    # -- capacity ----------------------------------------------------------
    @property
    def kv_budget(self) -> int:
        """Usable KV bytes right now (nominal budget x pressure shrink)."""
        return int(self._kv_budget_base * self.kv_shrink)

    def kv_bytes(self, tokens: int) -> int:
        return tokens * self._kv_per_token

    def _kv_need(self, r: ClusterRequest) -> int:
        """KV bytes admission charges ``r`` (backend discipline: hf/gguf
        reserve the whole lifetime, paged only the prompt's blocks).

        A swapped request must restore everything it preserved — prompt
        plus generated-so-far — before it can decode again."""
        if getattr(r, "kv_state", "resident") == "swapped":
            return r.swapped_kv_bytes
        out = 0 if self.role == "prefill" else r.output_tokens
        return self.backend.request_kv_reservation(
            r.input_tokens, out, self._kv_per_token)

    def _kv_live(self, r: ClusterRequest, ahead: int = 0) -> int:
        """KV bytes ``r`` holds privately right now (grows per token
        under paged), or ``ahead`` tokens from now.  Prompt blocks
        living in the radix tree are charged once through the tree, not
        per sharer."""
        out = 0 if self.role == "prefill" else r.output_tokens
        live = self.backend.live_kv_bytes(
            r.input_tokens, r.generated + ahead, out, self._kv_per_token)
        if self.radix is not None and self.radix.holds(r.req_id):
            bt = self.radix.block_tokens
            live -= self.kv_bytes((r.input_tokens // bt) * bt)
        return max(0, live)

    @property
    def kv_in_use(self) -> int:
        if self._stretch is not None:
            self._settle()
        total = sum(self._kv_live(r) for r in self.active)
        if self.radix is not None:
            # Tree-resident prompt blocks (shared and retained-after-
            # completion alike) occupy the pool once.
            total += self.radix.resident_bytes
        return total

    @property
    def kv_pressure(self) -> float:
        """Committed KV (running + queued) over budget; can exceed 1."""
        queued = sum(self._kv_need(r) for r in self.queue)
        return (self.kv_in_use + queued) / self.kv_budget

    @property
    def depth(self) -> int:
        """Outstanding work: queued plus running requests."""
        return len(self.queue) + len(self.active)

    def fits(self, r: ClusterRequest) -> bool:
        """Could this request *ever* run here (empty node, current budget)?"""
        return self._kv_need(r) <= self.kv_budget

    def accepts(self, r: ClusterRequest) -> bool:
        """Admission control: healthy, room in the queue, feasible
        footprint — and, for cascade fleets, a matching tier label
        (a tiered request names the model stage it needs; untiered
        requests go anywhere, so legacy fleets are unaffected)."""
        tier = getattr(r, "tier", None)
        if tier is not None and self.tier != tier:
            return False
        return (self.healthy and len(self.queue) < self.max_queue
                and self.fits(r))

    def submit(self, r: ClusterRequest) -> bool:
        """Enqueue a request; returns False if admission refuses it."""
        if not self.accepts(r):
            return False
        if self._stretch is not None:
            self._settle()
            if len(self.active) < self.max_batch:
                self._cut()  # the arrival may be admitted next step
        r.node_id = self.node_id
        self.queue.append(r)
        self.scheduler.on_arrival(r, self.env.now)
        if self.obs.enabled:
            r.queue_span = self.obs.begin(
                kinds.QUEUE, cat=kinds.CAT_REQUEST, track=f"req{r.req_id}",
                parent=r.obs_span, node=self.node_id)
        self._notify()
        return True

    def _notify(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed(None)

    # -- operating point ---------------------------------------------------
    def apply_mode(self, mode: PowerMode) -> None:
        """Apply a power mode and rebase the thermal governor on it.

        All mode changes (autoscaler rungs, brownout downshifts) should
        come through here rather than mutating the device directly:
        the throttle multiplier is re-derived against the new base
        clock, so a throttled node switching modes stays throttled
        relative to the *new* mode.
        """
        self._cut()
        apply_power_mode(self.device, mode)
        self._base_gpu_hz = self.device.gpu.freq_hz
        self._apply_throttle()
        if self.obs.enabled:
            self.obs.instant(kinds.MODE_CHANGE, cat=kinds.CAT_CLUSTER,
                             track=self.obs_track, mode=mode.name,
                             gpu_mhz=round(mode.gpu_freq_hz / 1e6))

    def current_mode_snapshot(self) -> PowerMode:
        """The operating point as an (anonymous) PowerMode, for restore."""
        dev = self.device
        return PowerMode(
            name=f"node{self.node_id}-snapshot",
            gpu_freq_hz=self._base_gpu_hz,
            cpu_freq_hz=dev.cpu.freq_hz,
            cpu_online_cores=dev.cpu.online_cores,
            mem_freq_hz=dev.memory.freq_hz,
        )

    def _apply_throttle(self) -> None:
        gpu = self.device.gpu
        target = self._base_gpu_hz * self.thermal.freq_multiplier
        target = min(max(target, gpu.min_freq_hz), gpu.max_freq_hz)
        if gpu.freq_hz != target:
            gpu.set_freq(target)

    def _idle_watts(self) -> float:
        return self.power_model.power_w(self.device,
                                        ComponentUtilization.idle())

    def _advance_thermal(self, watts: float, seconds: float) -> None:
        """Advance the RC node: idle gap since last step, then this step."""
        was_throttled = self.thermal.throttled
        gap = self.env.now - self._thermal_clock
        if gap > 0:
            self.thermal.advance(self._idle_watts(), gap)
        self.thermal.advance(watts, seconds)
        self._thermal_clock = self.env.now + seconds
        if self.thermal.throttled != was_throttled:
            self.throttle_log.append((self.env.now, self.thermal.throttled))
        self._apply_throttle()

    # -- faults ------------------------------------------------------------
    def crash(self) -> List[ClusterRequest]:
        """Kill the node: KV state is lost, outstanding work orphans.

        Active requests lose their generated tokens (``reset_for_replay``
        — the re-prefill bill lands on whichever node takes them next);
        queued ones had no state to lose.  Returns the orphans, and
        also hands them to ``on_crash`` if the cluster registered one.
        """
        if not self.healthy:
            return []
        # The step in progress stays accounted; later ones never run.
        self._settle()
        self._stretch = None
        self.healthy = False
        orphans = list(self.active) + list(self.queue)
        if self.obs.enabled:
            for r in self.active:
                self.obs.instant(kinds.REPLAY, cat=kinds.CAT_REQUEST,
                                 track=f"req{r.req_id}", parent=r.obs_span,
                                 node=self.node_id,
                                 tokens_lost=r.generated)
            for r in self.queue:
                self.obs.end(r.queue_span, outcome="crash")
                r.queue_span = NO_SPAN
        for r in self.active:
            r.reset_for_replay()
        for r in orphans:
            # Host swap space and the radix tree live on the same board:
            # a crash loses preserved KV exactly like resident KV.
            if r.kv_state == "swapped":
                if self.swap is not None:
                    self.swap.drop(r.req_id)
                r.kv_state = "sacrificed"
                r.swapped_kv_bytes = 0
                r.reset_for_replay()
            r.prefix_cached_tokens = 0
        if self.radix is not None:
            self.radix.clear()
        self.active.clear()
        self.queue.clear()
        self.scheduler.on_flush()
        self.state.set_idle()
        self._wake = None
        self.crash_log.append(CrashEpisode(down_s=self.env.now))
        self._proc.interrupt("crash")
        if self.on_crash is not None and orphans:
            self.on_crash(orphans)
        return orphans

    def restart(self) -> None:
        """Bring the node back: cold board, empty queue, ambient junction."""
        if self.healthy:
            return
        self.healthy = True
        self.crash_log[-1].up_s = self.env.now
        self.thermal.temp_c = self.thermal.ambient_c
        self.thermal.throttled = False
        self._thermal_clock = self.env.now
        self._apply_throttle()
        if self._restart_ev is not None and not self._restart_ev.triggered:
            self._restart_ev.succeed(None)

    def set_kv_shrink(self, factor: float) -> List[ClusterRequest]:
        """Scale the usable KV budget (transient OOM pressure).

        Shrinking below the running batch's footprint evicts the
        youngest active requests (recompute-style, same victim rule as
        the single-node scheduler) back to the *head* of this node's
        queue; they re-prefill once the pressure lifts.  Returns the
        evicted requests.
        """
        if factor <= 0:
            raise ConfigError("kv_shrink must be positive")
        self._cut()
        grew = factor > self.kv_shrink
        self.kv_shrink = factor
        evicted = self._evict_over_budget(kv_shrink=factor)
        if grew:
            self._notify()  # headroom returned: head may fit now
        return evicted

    def _evict_over_budget(self, permanent: bool = False,
                           **obs_fields) -> List[ClusterRequest]:
        """Evict youngest active requests until KV fits the budget.

        Shared victim rule for both pressure sources: injected shrink
        faults (transient — pressure lifts, so victims wait at this
        node's queue head), and paged-runtime pool exhaustion
        (``permanent=True`` — optimistic admission let live KV outgrow
        the pool mid-decode, and the pool never grows back).  Under
        permanent pressure a victim whose *whole-lifetime* footprint
        exceeds the budget can never finish here no matter how often it
        re-prefills; requeueing it locally would livelock, so it is
        handed to the fleet (``on_crash``, whose requeue cap bounds the
        retries) or marked rejected.
        """
        policy = self.kv_policy
        limit = policy.effective_budget(self.kv_budget)
        if self.radix is not None and self.kv_in_use > limit:
            # Cheapest relief first: retained (unpinned) prefix blocks.
            self.radix.reclaim(self.kv_in_use - limit, self.env.now)
        evicted: List[ClusterRequest] = []
        while self.active and self.kv_in_use > limit:
            victim = policy.select_victim(self.active)
            if victim is None:  # pragma: no cover - active implies one
                break
            self.active.remove(victim)
            self._drop_radix_pin(victim)
            evicted.append(victim)
        if evicted:
            if self.obs.enabled:
                for r in evicted:
                    r.evicted = True
                    self.obs.instant(
                        kinds.EJECT, cat=kinds.CAT_REQUEST,
                        track=f"req{r.req_id}", parent=r.obs_span,
                        node=self.node_id, **obs_fields)
            hopeless: List[ClusterRequest] = []
            if permanent:
                out = 0 if self.role == "prefill" else None
                def lifetime(r):
                    o = r.output_tokens if out is None else out
                    return self.backend.live_kv_bytes(
                        r.input_tokens, o, o, self._kv_per_token)
                hopeless = [r for r in evicted
                            if lifetime(r) > self.kv_budget]
            requeue = [r for r in evicted if r not in hopeless]
            for r in hopeless:
                self._sacrifice(r)
            for r in requeue:
                if not self._try_swap_out(r):
                    self._sacrifice(r)
            # Evictions re-enter at the queue head (they were already
            # admitted once); the depth cap only gates *new* arrivals.
            self.queue[0:0] = requeue
            for r in requeue:
                self.scheduler.on_arrival(r, self.env.now)
            if self.obs.enabled:
                for r in requeue:
                    r.queue_span = self.obs.begin(
                        kinds.QUEUE, cat=kinds.CAT_REQUEST,
                        track=f"req{r.req_id}", parent=r.obs_span,
                        node=self.node_id, after_eviction=True)
            if hopeless:
                if self.on_crash is not None:
                    self.on_crash(hopeless)
                else:
                    for r in hopeless:
                        r.rejected = True
        return evicted

    def _drop_radix_pin(self, r: ClusterRequest) -> None:
        """Unpin ``r``'s prompt path (the tree keeps it, reclaimable)."""
        if self.radix is not None and self.radix.holds(r.req_id):
            self.radix.release(r.req_id)

    def _try_swap_out(self, r: ClusterRequest) -> bool:
        """Preserve an eviction victim's KV host-side (swap policies).

        Returns False when the policy sacrifices or host space is full;
        the caller then falls back to drop + re-prefill.  The transfer
        occupies the memory bus: its seconds accrue to
        ``_pending_transfer_s`` and the serve loop bills them (with
        mem-bound energy) before the next step.
        """
        if self.swap is None:
            return False
        nbytes = self._kv_live(r)
        if nbytes <= 0 or not self.swap.can_hold(nbytes):
            self.swap.stats.sacrifices += 1
            return False
        seconds = self.swap.swap_out(
            r.req_id, nbytes, swap_bandwidth_bytes_s(self.device))
        self._pending_transfer_s += seconds
        r.kv_state = "swapped"
        r.swapped_kv_bytes = nbytes
        r.swaps += 1
        if self.obs.enabled:
            self.obs.instant(
                kinds.KV_SWAP_OUT, cat=kinds.CAT_REQUEST,
                track=f"req{r.req_id}", parent=r.obs_span,
                node=self.node_id, kv_bytes=nbytes,
                transfer_s=round(seconds, 6))
            self.obs.metrics.histogram("kv_swap_out_bytes").observe(nbytes)
        return True

    def _sacrifice(self, r: ClusterRequest) -> None:
        """Drop + re-prefill accounting for one eviction victim, with
        the KV loss made explicit in traces (a ``kv_transfer`` instant:
        the bytes recomputation will have to move again)."""
        lost_bytes = self._kv_live(r)
        lost_tokens = r.generated
        r.reset_for_replay()
        r.kv_state = "sacrificed"
        r.swapped_kv_bytes = 0
        self.kv_sacrifices += 1
        if self.obs.enabled:
            self.obs.instant(
                kinds.KV_TRANSFER, cat=kinds.CAT_REQUEST,
                track=f"req{r.req_id}", parent=r.obs_span,
                node=self.node_id, kv_bytes=lost_bytes,
                lost_tokens=lost_tokens, reason="sacrifice")

    def set_precision(self, precision: Precision) -> None:
        """Swap the served precision (graceful degradation).

        Rebuilds the step timer and, unless the KV budget was pinned
        explicitly at construction, re-derives it from the new weight
        footprint — degrading INT8 -> INT4 roughly halves weight bytes,
        so the budget *grows* and queued work may become admissible.
        """
        if precision is self.precision:
            return
        self._cut()
        self.precision = precision
        self.timer = self.backend.make_timer(self.arch, self.device,
                                             precision, self._params)
        if not self._explicit_kv_budget:
            base = natural_kv_budget(self.device, self.backend,
                                     self.arch, precision)
            if base <= 0:
                raise ConfigError(
                    f"precision {precision.value} leaves no KV budget on "
                    f"node {self.node_id}"
                )
            self._kv_budget_base = base
        self._notify()

    def set_slowdown(self, factor: float) -> None:
        """Set the straggler wall-time multiplier on engine steps.

        Steps already started keep the duration they started with; the
        next step runs at ``factor``.
        """
        self._cut()
        self.slowdown = factor

    def shift_ambient(self, delta_c: float) -> None:
        """Move the thermal model's ambient temperature by ``delta_c``
        (heat waves, failed cooling) from the next step on."""
        self._cut()
        self.thermal.ambient_c += delta_c

    @property
    def downtime_s(self) -> float:
        """Total down wall-time so far (open episode counts to now)."""
        total = 0.0
        for ep in self.crash_log:
            up = ep.up_s if ep.up_s is not None else self.env.now
            total += up - ep.down_s
        return total

    # -- energy ------------------------------------------------------------
    def predicted_j_per_token(self, batch_size: int = 4,
                              context: int = 256) -> float:
        """Marginal decode energy per token at the *current* operating
        point — the signal the energy-aware router ranks nodes by."""
        self._settle_state()
        bs = max(1, min(batch_size, self.max_batch))
        concat = self.backend.decode_concat_bytes(self.kv_bytes(bs * context))
        cost = self.timer.decode_step(bs, context, concat_bytes=concat)
        watts = self.power_model.power_w(self.device, cost.util)
        return watts * cost.seconds / bs

    def _account(self, cost: StepCost, phase: str) -> tuple:
        """Publish utilization, integrate busy energy and heat.

        Returns ``(step_joules, step_seconds)`` — seconds include the
        straggler slowdown, and the joules integrate over that
        stretched wall time (interference keeps the board powered, it
        does not pause it).
        """
        util = cost.util
        self.state.set(phase, util)
        seconds = cost.seconds * self.slowdown
        watts = self.power_model.power_w(self.device, util)
        joules = watts * seconds
        self.busy_energy_j += joules
        self.busy_seconds += seconds
        self._advance_thermal(watts, seconds)
        return joules, seconds

    def _account_transfer(self, seconds: float, phase: str) -> tuple:
        """Bill a KV host transfer: the memory bus streams at its
        effective rate, one CPU core drives the copy, the GPU idles."""
        mem = self.device.memory
        util = ComponentUtilization(
            gpu_compute=0.0, gpu_busy=0.0,
            mem_bw=min(1.0, mem.streaming_efficiency * mem.effective_ratio),
            cpu_cores_active=1.0,
        )
        self.state.set(phase, util)
        seconds *= self.slowdown
        watts = self.power_model.power_w(self.device, util)
        joules = watts * seconds
        self.busy_energy_j += joules
        self.busy_seconds += seconds
        self._advance_thermal(watts, seconds)
        return joules, seconds

    # -- decode stretches --------------------------------------------------
    def _stretch_cap(self, bs: int) -> int:
        """Steps the current batch is guaranteed to run unchanged.

        A stretch ends at the first step that completes a request, after
        the first step at whose end admission could fire, and at the
        step whose tokens push paged KV over the budget (the loop then
        preempts).  With an observer attached every step is its own
        stretch: decode spans are recorded at step ends, interleaved
        with every other record of the run.
        """
        if self.obs.enabled:
            return 1
        n = min(r.output_tokens - r.generated for r in self.active)
        if n <= 1:
            return 1
        if self.queue and bs < self.max_batch and not self._head_blocked():
            return 1
        if self.backend.admits_by_free_blocks:
            n = self._steps_until_kv_full(n)
        return n

    def _head_blocked(self) -> bool:
        """True when admission provably stays shut for the whole batch:
        FCFS keeps offering the same head, committed KV never shrinks
        while the batch decodes, and there is no radix cache whose
        reclaim could make room (or change state by trying)."""
        if self.radix is not None or not isinstance(self.scheduler,
                                                    FCFSScheduler):
            return False
        limit = self.kv_policy.effective_budget(self.kv_budget)
        return self.kv_in_use + self._kv_need(self.queue[0]) > limit

    def _steps_until_kv_full(self, n: int) -> int:
        """Cap ``n`` at the first step whose tokens take live paged KV
        over the budget (live KV only grows with ``generated``, so the
        crossing is found by bisection)."""
        resident = self.radix.resident_bytes if self.radix is not None else 0
        budget = self.kv_budget

        def over(m: int) -> bool:
            return (sum(self._kv_live(r, m) for r in self.active)
                    + resident) > budget

        if not over(n - 1):
            return n
        lo, hi = 1, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if over(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def _plan_stretch(self, bs: int, context: int, cost: StepCost,
                      joules: float, seconds: float) -> _Stretch:
        """Plan the decode steps after the (already accounted) first one
        and schedule one wake-up at the end of the last.

        Each step is costed, powered and thermally advanced exactly as
        :meth:`_account` would at its start — same operations, same
        float order — but into the plan, not the node.  The stretch
        also ends at a step that flips the throttle governor: the next
        step runs at a different clock.
        """
        env = self.env
        st = _Stretch(list(self.active), env.now, cost, seconds, joules)
        cap = self._stretch_cap(bs)
        if cap > 1:
            backend, kv_per_token = self.backend, self._kv_per_token
            costs = self.timer.decode_steps(bs, context + 1, [
                backend.decode_concat_bytes(bs * ctx * kv_per_token)
                for ctx in range(context + 1, context + cap)])
            watts = self.power_model.powers_w(self.device,
                                              [c.util for c in costs])
            slowdown = self.slowdown
            secs = [c.seconds * slowdown for c in costs]
            th = self.thermal
            ambient, r_th, tau = th.ambient_c, th.r_thermal_c_per_w, th.tau_s
            hot, cool = th.throttle_temp_c, th.resume_temp_c
            temp, throttled = th.temp_c, th.throttled
            temps, exp = st.temp, math.exp
            for w, sec in zip(watts, secs):
                # ThermalModel.advance, inlined (no idle gap mid-stretch).
                target = ambient + w * r_th
                temp = target + (temp - target) * exp(-sec / tau)
                temps.append(temp)
                if (temp <= cool) if throttled else (temp >= hot):
                    st.flip = len(temps) - 1
                    break
            m = len(temps) - 1
            st.cost += costs[:m]
            st.seconds += secs[:m]
            st.joules += [w * sec for w, sec in zip(watts[:m], secs)]
            # Same left-to-right sums as the per-step wake-up times.
            st.t[1:] = accumulate(secs[:m], initial=st.t[1])
        n = st.n = len(st.cost)
        st.seq = env.next_seq()
        st.wake = env.timeout_at(st.t[n], scheduled_at=st.t[n - 1],
                                 seq=st.seq)
        return st

    def _settle(self, credit: bool = True) -> None:
        """Bring the stretch in flight up to the current instant.

        Virtual step boundary ``k`` is ordered on the event heap as the
        per-step loop's wake-up would be: at ``t[k]``, as if scheduled
        at ``t[k - 1]``, with the stretch's sequence number.  Every
        boundary ordered before the event now running has happened.
        ``credit=False`` applies the steps' accounting and heat but
        leaves their tokens for a later settle.
        """
        st = self._stretch
        if st is None:
            return
        k, n, t = st.started, st.n, st.t
        if k < n:
            env = self.env
            cur = env.current_order()
            if cur is None:
                k = bisect_right(t, env.now, k, n)
            else:
                # Boundaries before now have happened; one exactly at
                # now (times strictly increase) follows the tie rule.
                k = bisect_left(t, env.now, k, n)
                if k < n and (t[k], t[k - 1], st.seq) < cur:
                    k += 1
            if k > st.started:
                self._start_steps(st, k)
        if credit and st.credited < k - 1:
            self._credit_steps(st, k - 1)

    def _settle_state(self) -> None:
        """Settle what power readers see — utilization, clocks, heat —
        leaving the tokens for a later full settle."""
        self._settle(credit=False)

    def _start_steps(self, st: _Stretch, k: int) -> None:
        """Account every planned step before ``k`` (its start has come)."""
        t = st.t
        joules, seconds = self.busy_energy_j, self.busy_seconds
        for j in range(st.started, k):
            joules += st.joules[j]
            seconds += st.seconds[j]
        self.busy_energy_j, self.busy_seconds = joules, seconds
        last = k - 1
        self.state.set("decode", st.cost[last].util)
        th = self.thermal
        th.temp_c = st.temp[last]
        self._thermal_clock = t[k]
        if last == st.flip:
            th.throttled = not th.throttled
            self.throttle_log.append((t[last], th.throttled))
            self._apply_throttle()
        st.started = k

    def _credit_steps(self, st: _Stretch, hi: int) -> None:
        """Hand out the tokens of every step before ``hi``.

        Each such step gives every batch member one token; no request
        completes before the stretch's last step, which the serving
        loop credits itself.
        """
        lo, t = st.credited, st.t
        m = hi - lo
        shares = [st.joules[j] / st.bs for j in range(lo, hi)]
        first_s, last_s = t[lo + 1], t[hi]
        served = self.tenant_served_tokens
        for r in st.batch:
            r.generated += m
            r.last_token_s = last_s
            e = r.energy_j
            for share in shares:
                e += share
            r.energy_j = e
            if r.first_token_s is None:
                r.first_token_s = first_s
            served[r.tenant] = served.get(r.tenant, 0) + m
        self.served_tokens += m * st.bs
        if self._bills_decode:
            bill = self.scheduler.on_tokens_served
            for _ in range(m):
                for r in st.batch:
                    bill(r, decode_tokens=1)
        st.credited = hi
        self.last_busy_s = last_s

    def _cut(self) -> None:
        """Settle, then end the stretch with the step in progress — for
        changes that would alter the steps after it."""
        st = self._stretch
        if st is None:
            return
        self._settle()
        s = st.started
        if s < st.n:
            st.n = s
            st.wake = self.env.timeout_at(st.t[s], scheduled_at=st.t[s - 1],
                                          seq=st.seq)
            self._proc.retarget(st.wake)

    # -- the serving loop --------------------------------------------------
    def _next_candidate(self) -> Optional[ClusterRequest]:
        """The queued request the scheduler would admit next."""
        if not self.queue:
            return None
        return self.queue[self.scheduler.select_next(self.queue)]

    def _admit(self) -> List[ClusterRequest]:
        """Admit scheduler-selected requests while the batch and KV
        budget allow.

        The scheduler picks *which* queued request each admission slot
        goes to; admission still stops at the first selected candidate
        that does not fit (head-of-line semantics relative to the
        scheduler's order — under FCFS this is exactly the historical
        ``queue[0]`` discipline, bit for bit).
        """
        admitted = []
        limit = self.kv_policy.effective_budget(self.kv_budget)
        while self.queue and len(self.active) < self.max_batch:
            idx = self.scheduler.select_next(self.queue)
            need = self._kv_need(self.queue[idx])
            if (self.kv_in_use + need > limit and self.radix is not None):
                # Retained prefix blocks are the cache of last resort:
                # give them back before refusing admission.
                self.radix.reclaim(self.kv_in_use + need - limit,
                                   self.env.now)
            if self.kv_in_use + need > limit:
                break
            r = self.queue.pop(idx)
            self.scheduler.on_dequeue(r)
            self.active.append(r)
            admitted.append(r)
            if self.obs.enabled:
                if idx:
                    # Queue jumps are the fair-scheduling signal worth
                    # tracing; FCFS never jumps, so legacy traces are
                    # unchanged byte for byte.
                    self.obs.instant(
                        kinds.SCHED_SELECT, cat=kinds.CAT_CLUSTER,
                        track=self.obs_track, req=r.req_id,
                        tenant=r.tenant, scheduler=self.scheduler.name,
                        queue_jump=idx)
                self._obs_admitted(r)
        return admitted

    def _obs_admitted(self, r: ClusterRequest) -> None:
        """Close the queue-wait span; note readmissions after eviction."""
        obs = self.obs
        start = obs.open_start(r.queue_span)
        if start is not None:
            obs.metrics.histogram("queue_wait_s").observe(self.env.now - start)
        obs.end(r.queue_span, node=self.node_id)
        r.queue_span = NO_SPAN
        if r.evicted:
            r.evicted = False
            obs.instant(kinds.READMIT, cat=kinds.CAT_REQUEST,
                        track=f"req{r.req_id}", parent=r.obs_span,
                        node=self.node_id)

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
                st = self._plan_stretch(bs, context, cost, step_j, dur)
                self._stretch = st
                yield st.wake
                # Woken at the end of the stretch's last step (or of the
                # step a change cut it at): replay every earlier step,
                # then credit the last one exactly as a lone step.
                self._stretch = None
                n = st.n
                if st.started < n:
                    self._start_steps(st, n)
                if st.credited < n - 1:
                    self._credit_steps(st, n - 1)
                step_j = st.joules[n - 1]
                step_start = st.t[n - 1]
                self.last_busy_s = env.now
                if self.obs.enabled:
                    self.obs.complete(
                        kinds.DECODE, step_start, env.now,
                        cat=kinds.CAT_CLUSTER, track=self.obs_track,
                        batch=bs, context=context + n - 1)
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

    # -- reporting ---------------------------------------------------------
    def as_row(self) -> dict:
        return {
            "node": self.node_id,
            "device": self.device.name,
            "runtime": self.backend.name,
            "scheduler": self.scheduler.name,
            "served_tokens": self.served_tokens,
            "prefilled_tokens": self.prefilled_tokens,
            "completed": len(self.completed),
            "busy_s": round(self.busy_seconds, 1),
            "busy_energy_j": round(self.busy_energy_j, 1),
            "downtime_s": round(self.downtime_s, 1),
            "crashes": len(self.crash_log),
            "temp_c": round(self.thermal.temp_c, 1),
            "precision": self.precision.value,
        }
