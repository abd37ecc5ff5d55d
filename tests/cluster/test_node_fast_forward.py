"""Decode stretches must be observationally invisible.

:class:`~repro.cluster.node.ClusterNode` runs each decode stretch as one
DES event and settles it lazily; :class:`_per_step_node.PerStepNode`
keeps the historical loop with one event per decode step.  Every
observable of a run must match between the two exactly — floats bit for
bit: the report, every request record, the node meters, every power
sample, the throttle and crash logs, and the Chrome-trace bytes.

The matrix crosses runtime x KV policy x queue scheduler x router; the
chaos runs inject crash, OOM-shrink, straggler, brownout and thermal
faults; the hand-built traces put arrivals, sampler ticks, fault edges
and router reads exactly on decode-step boundaries inside a stretch,
where ordering follows the event heap's scheduling order.
"""

from __future__ import annotations

import contextlib
import dataclasses

import pytest

from _per_step_node import PerStepNode, per_step_nodes
from repro.cluster import ClusterRequest, EdgeCluster, FleetSpec, NodeSpec
from repro.cluster.autoscale import PowerModeAutoscaler
from repro.cluster.node import ClusterNode
from repro.cluster.router import get_router
from repro.cluster.workload import (
    bursty_workload,
    poisson_workload,
    shared_prefix_workload,
)
from repro.engine.scheduler import ContinuousBatchScheduler, ServeRequest
from repro.faults import FaultInjector, FaultScheduleSpec
from repro.faults.recovery import FallbackConfig, PrecisionFallback
from repro.faults.report import ChaosSpec, run_chaos
from repro.faults.schedule import (
    FaultClass,
    FaultEpisode,
    generate_schedule,
    schedule_from_episodes,
)
from repro.hardware import get_device
from repro.hardware.thermal import ThermalModel
from repro.models import get_model
from repro.obs import Observer, kinds
from repro.obs.export import chrome_trace_json
from repro.quant.dtypes import Precision
from repro.sim.environment import Environment

ORIN64 = "jetson-orin-agx-64gb"
ORIN_NX = "jetson-orin-nx-16gb"


def node_meters(n: ClusterNode) -> dict:
    return {
        "row": n.as_row(),
        "served_tokens": n.served_tokens,
        "prefilled_tokens": n.prefilled_tokens,
        "busy_energy_j": n.busy_energy_j,
        "busy_seconds": n.busy_seconds,
        "last_busy_s": n.last_busy_s,
        "tenant_served_tokens": list(n.tenant_served_tokens.items()),
        "temp_c": n.thermal.temp_c,
        "throttled": n.thermal.throttled,
        "gpu_hz": n.device.gpu.freq_hz,
        "throttle_log": list(n.throttle_log),
        "crash_log": [(c.down_s, c.up_s) for c in n.crash_log],
        "samples": [(s.time_s, s.power_w, s.phase) for s in n.sampler.samples],
        "kv_sacrifices": n.kv_sacrifices,
        "swap": None if n.swap is None else dataclasses.asdict(n.swap.stats),
        "radix": None if n.radix is None else dataclasses.asdict(n.radix.stats),
        "counters": n.scheduler.counter_snapshot(),
        "completed": [r.req_id for r in n.completed],
        "state": (n.state.phase, n.state.util),
    }


def fingerprint(cluster: EdgeCluster, report, obs=None) -> dict:
    return {
        "report": report,
        "requests": [dataclasses.asdict(r) for r in cluster.last_requests],
        "nodes": [node_meters(n) for n in cluster.nodes],
        "events": None,
        "trace": None if obs is None else chrome_trace_json(obs),
    }


def assert_same(fast: dict, slow: dict) -> None:
    """Key by key, compared through repr (exact floats, NaN-safe).

    Reports the first differing position only: the reprs run to
    hundreds of kilobytes, too long for a full diff.
    """
    assert fast.keys() == slow.keys()
    for key in fast:
        a, b = repr(fast[key]), repr(slow[key])
        if a != b:
            i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                     min(len(a), len(b)))
            pytest.fail(f"{key} differs at char {i}: stretch "
                        f"...{a[max(0, i - 80):i + 80]}... vs per-step "
                        f"...{b[max(0, i - 80):i + 80]}...")


def serve(per_step: bool, fleet: FleetSpec, requests, observe=False,
          sample_period_s=0.25, attach=None):
    obs = Observer() if observe else None
    ctx = per_step_nodes() if per_step else contextlib.nullcontext()
    with ctx:
        cluster = EdgeCluster.of(fleet, observer=obs,
                                 sample_period_s=sample_period_s)
    if per_step:
        assert all(type(n) is PerStepNode for n in cluster.nodes)
    transcript = attach(cluster) if attach is not None else None
    report = cluster.run(requests)
    fp = fingerprint(cluster, report, obs)
    if transcript is not None:
        fp["events"] = transcript()
    return fp


def differential(fleet, make_requests, **kw) -> dict:
    fast = serve(False, fleet, make_requests(), **kw)
    slow = serve(True, fleet, make_requests(), **kw)
    assert_same(fast, slow)
    return fast


# -- the configuration matrix -----------------------------------------------

RUNTIME_PRECISION = {"hf-transformers": "fp16", "paged": "fp16",
                     "gguf": "int4"}


def matrix_fleet(runtime, kv_policy, scheduler, router) -> FleetSpec:
    nodes = [NodeSpec(ORIN_NX, max_batch=6, runtime=runtime,
                      kv_policy=kv_policy, scheduler=scheduler)
             for _ in range(2)]
    return FleetSpec.of(nodes, model="phi2",
                        precision=RUNTIME_PRECISION[runtime], policy=router)


def matrix_requests():
    return shared_prefix_workload(3.0, 24, prefix_tokens=256,
                                  share_ratio=0.6, unique_tokens=32,
                                  output_tokens=40, seed=3)


@pytest.mark.parametrize("router", ["round-robin", "jsq", "least-kv",
                                    "energy-aware", "prefix-affinity"])
@pytest.mark.parametrize("scheduler", ["fcfs", "vtc"])
@pytest.mark.parametrize("kv_policy", ["sacrifice", "swap-lru"])
@pytest.mark.parametrize("runtime", ["hf-transformers", "paged", "gguf"])
def test_matrix_is_bit_identical(runtime, kv_policy, scheduler, router):
    differential(matrix_fleet(runtime, kv_policy, scheduler, router),
                 matrix_requests)


@pytest.mark.parametrize("router", ["round-robin", "least-kv",
                                    "prefix-affinity"])
@pytest.mark.parametrize("runtime", ["hf-transformers", "paged", "gguf"])
def test_observed_runs_trace_byte_identical(runtime, router):
    differential(matrix_fleet(runtime, "swap-lru", "vtc", router),
                 matrix_requests, observe=True)


def test_memory_tight_paged_fleet_preempts_identically():
    """Paged KV outgrows the pool mid-stretch: the stretch must end at
    the step whose tokens cross the budget, where the loop preempts."""
    nodes = [NodeSpec(ORIN_NX, max_batch=96, runtime="paged",
                      kv_policy=policy, scheduler="fcfs")
             for policy in ("swap-lru", "sacrifice")]
    fleet = FleetSpec.of(nodes, model="phi2", precision="fp16",
                         policy="round-robin")
    fast = serve(False, fleet, shared_prefix_workload(
        6.0, 80, prefix_tokens=512, share_ratio=0.2, unique_tokens=64,
        output_tokens=160, seed=1))
    slow = serve(True, fleet, shared_prefix_workload(
        6.0, 80, prefix_tokens=512, share_ratio=0.2, unique_tokens=64,
        output_tokens=160, seed=1))
    assert_same(fast, slow)
    report = fast["report"]
    assert report.swap_outs + report.sacrifices > 0


@pytest.mark.parametrize("kv_policy", ["sacrifice", "swap-lru"])
def test_oom_shrink_evicts_mid_stretch_identically(kv_policy):
    """A shrink that evicts part of the batch cuts the stretch: evicted
    requests get no token from the step in progress."""
    fleet = FleetSpec.of([NodeSpec(ORIN_NX, max_batch=16, runtime="paged",
                                   kv_policy=kv_policy)],
                         model="phi2", precision="fp16", policy="jsq")
    schedule = schedule_from_episodes([FaultEpisode(
        episode_id=0, node_id=0, fault=FaultClass.OOM, start_s=7.3,
        duration_s=9.0, magnitude=0.02)])

    def inject(cluster):
        injector = FaultInjector(cluster.env, cluster.nodes, schedule)
        cluster.attach_injector(injector)
        return injector.applied_trace

    def requests():
        return [ClusterRequest(req_id=i, arrival_s=0.1 * i, input_tokens=256,
                               output_tokens=160) for i in range(12)]

    fast = differential(fleet, requests, attach=inject)
    assert "evicted=0" not in fast["events"][0][-1]


def test_autoscaled_fleet_is_bit_identical():
    """The power-mode autoscaler re-clocks nodes mid-stretch."""
    fleet = FleetSpec.of([NodeSpec(ORIN64), NodeSpec(ORIN64)],
                         model="llama", precision="int4",
                         policy="energy-aware")

    def autoscale(cluster):
        scaler = PowerModeAutoscaler(cluster.env, cluster.nodes)
        cluster.attach_autoscaler(scaler)
        return lambda: list(scaler.history)

    def requests():
        return bursty_workload(0.3, 3.0, 60, 64, 96, mean_calm_s=20.0,
                               mean_burst_s=8.0, seed=2)

    assert len(differential(fleet, requests, attach=autoscale)["events"]) > 2


def test_disaggregated_fleet_is_bit_identical():
    """Splitwise decode nodes receive requests after a KV transfer."""
    fleet = FleetSpec.of([NodeSpec(ORIN64), NodeSpec(ORIN_NX),
                          NodeSpec(ORIN_NX)], model="llama",
                         precision="int4", policy="splitwise")
    differential(fleet, lambda: poisson_workload(1.5, 40, 128, 64, seed=4))


def test_steady_fleet_collapses_decode_events():
    """The point of the stretches: far fewer DES events, same results."""
    fleet = FleetSpec.of([NodeSpec(ORIN64)] * 4, model="llama",
                         precision="int4", policy="round-robin")

    def run(per_step):
        ctx = per_step_nodes() if per_step else contextlib.nullcontext()
        with ctx:
            cluster = EdgeCluster.of(fleet)
        report = cluster.run(poisson_workload(0.8, 60, 128, 128, seed=1))
        return cluster.env.next_seq(), fingerprint(cluster, report)

    fast_events, fast = run(False)
    slow_events, slow = run(True)
    assert_same(fast, slow)
    assert fast_events * 2 < slow_events


# -- chaos ------------------------------------------------------------------

def chaos_spec(seed: int) -> ChaosSpec:
    return ChaosSpec(
        n_requests=60, rate_per_s=2.0,
        faults=FaultScheduleSpec(
            seed=seed, horizon_s=60.0, crash_rate_per_min=1.5,
            brownout_rate_per_min=1.5, oom_rate_per_min=1.5,
            straggler_rate_per_min=1.5, thermal_rate_per_min=1.5,
            crash_downtime_s=6.0, oom_duration_s=8.0))


@pytest.mark.parametrize("seed", range(6))
def test_chaos_runs_are_bit_identical(seed):
    spec = chaos_spec(seed)
    fleet = FleetSpec.of(
        [NodeSpec(d, max_batch=spec.max_batch, max_queue=spec.max_queue,
                  kv_policy=spec.kv_policy) for d in spec.devices],
        model=spec.model, precision=spec.precision, policy=spec.policy)
    schedule = generate_schedule(spec.faults)

    def inject(cluster):
        injector = FaultInjector(cluster.env, cluster.nodes, schedule)
        cluster.attach_injector(injector)
        return injector.applied_trace

    def requests():
        return poisson_workload(spec.rate_per_s, spec.n_requests,
                                spec.input_tokens, spec.output_tokens,
                                seed=spec.workload_seed)

    differential(fleet, requests, attach=inject, sample_period_s=1.0)
    fast = run_chaos(spec)
    with per_step_nodes():
        slow = run_chaos(spec)
    assert_same({"chaos": fast}, {"chaos": slow})


# -- thermal throttling inside stretches ------------------------------------

def cycling_thermal() -> ThermalModel:
    """Steady temperature above the throttle point at full clock and
    below the resume point when throttled: the governor keeps cycling
    under sustained decode."""
    return ThermalModel(tau_s=5.0, r_thermal_c_per_w=2.0,
                        throttle_temp_c=75.0, resume_temp_c=70.0,
                        throttle_freq_ratio=0.3)


def test_throttle_flips_mid_stretch_identically():
    def run(cls):
        env = Environment()
        node = cls(env, 0, get_device(ORIN64), get_model("llama"),
                   Precision.FP16, power_mode="MAXN", thermal=cycling_thermal(),
                   max_batch=8, sample_period_s=0.37)
        node.sampler.start()
        reqs = [ClusterRequest(req_id=i, arrival_s=0.0, input_tokens=64,
                               output_tokens=300 + 40 * i) for i in range(8)]
        for r in reqs:
            node.submit(r)
        env.run(until=400.0)
        return node_meters(node), [dataclasses.asdict(r) for r in reqs]

    fast, slow = run(ClusterNode), run(PerStepNode)
    assert_same({"run": fast}, {"run": slow})
    assert len(fast[0]["throttle_log"]) >= 4


def test_energy_router_reads_throttled_clocks_mid_stretch():
    """Routing on predicted J/token reads the clock a throttle flip
    inside a stretch has set, not the one the stretch started with."""
    def run(cls):
        env = Environment()
        nodes = [cls(env, i, get_device(ORIN64), get_model("llama"),
                     Precision.FP16, power_mode="MAXN", max_batch=8,
                     thermal=cycling_thermal() if i == 0 else None)
                 for i in range(2)]
        cluster = EdgeCluster(nodes, get_router("energy-aware"), env)
        report = cluster.run(poisson_workload(1.2, 80, 64, 200, seed=5))
        return fingerprint(cluster, report)

    fast = run(ClusterNode)
    assert_same(fast, run(PerStepNode))
    assert len(fast["nodes"][0]["throttle_log"]) >= 2


def test_precision_fallback_and_paused_reads_identically():
    """Degrading precision mid-stretch cuts it (new timer, new budget);
    callers inspecting between ``env.run(until=...)`` calls see the
    node exactly as the per-step loop leaves it."""
    def run(cls):
        env = Environment()
        node = cls(env, 0, get_device(ORIN64), get_model("llama"),
                   Precision.INT8, max_batch=2, max_queue=256)
        for i in range(220):
            node.submit(ClusterRequest(req_id=i, arrival_s=0.0,
                                       input_tokens=1024, output_tokens=512))
        # Patient enough to degrade mid-decode, not during the prefills.
        fallback = PrecisionFallback(env, [node], FallbackConfig(
            pressure_threshold=0.5, patience=21, period_s=0.5))
        fallback.start()
        seen = []
        for until in (0.77, 5.49, 12.48, 20.47, 29.99):
            env.run(until=until)
            seen.append((node.served_tokens, node.busy_energy_j,
                         node.busy_seconds, node.thermal.temp_c,
                         [(r.generated, r.energy_j) for r in node.active]))
        return seen, node.precision, node_meters(node)

    fast = run(ClusterNode)
    assert_same({"run": fast}, {"run": run(PerStepNode)})
    assert fast[1] is Precision.INT4


def test_single_node_scheduler_is_bit_identical():
    """ContinuousBatchScheduler drives one node on a private clock and
    submits between ``env.run(until=...)`` calls."""
    def run(per_step):
        reqs = [ServeRequest(req_id=i, arrival_s=0.7 * i, input_tokens=48,
                             output_tokens=24 + 7 * (i % 5))
                for i in range(20)]
        sched = ContinuousBatchScheduler(
            get_device(ORIN64), get_model("llama"), Precision.FP16,
            max_batch=4)
        ctx = per_step_nodes() if per_step else contextlib.nullcontext()
        with ctx:
            report = sched.serve(reqs)
        return repr(report), [dataclasses.asdict(r) for r in reqs]

    assert_same({"serve": run(False)}, {"serve": run(True)})


# -- hand-built ties on step boundaries -------------------------------------

def one_node_fleet(router="least-kv") -> FleetSpec:
    return FleetSpec.of([NodeSpec(ORIN64)], model="llama",
                        precision="fp16", policy=router)


def lone_request(req_id=0, arrival=0.0, out=64) -> ClusterRequest:
    return ClusterRequest(req_id=req_id, arrival_s=arrival, input_tokens=64,
                          output_tokens=out)


@pytest.fixture(scope="module")
def decode_spans():
    """(start, end) of each decode step of one lone request, from the
    oracle."""
    obs = Observer()
    with per_step_nodes():
        cluster = EdgeCluster.of(one_node_fleet(), observer=obs)
    cluster.run([lone_request()])
    spans = [(s.start_s, s.end_s) for s in obs.spans_named(kinds.DECODE)]
    assert len(spans) == 64
    return spans


@pytest.fixture(scope="module")
def boundaries(decode_spans):
    """Decode step boundaries (step end times) of one lone request."""
    return [end for _, end in decode_spans]


@pytest.mark.parametrize("step", [1, 2, 17, 40])
def test_sampler_tick_on_a_step_boundary(boundaries, step):
    def requests():
        return [lone_request()]

    differential(one_node_fleet(), requests,
                 sample_period_s=boundaries[step])


@pytest.mark.parametrize("step", [1, 2, 17, 40])
def test_arrival_on_a_step_boundary(boundaries, step):
    def requests():
        return [lone_request(), lone_request(1, boundaries[step], out=9)]

    for router in ("least-kv", "energy-aware"):
        differential(one_node_fleet(router), requests,
                     sample_period_s=boundaries[step])


@pytest.mark.parametrize("step", [1, 2, 17, 40])
@pytest.mark.parametrize("fault", [FaultClass.STRAGGLER, FaultClass.THERMAL,
                                   FaultClass.BROWNOUT, FaultClass.OOM,
                                   FaultClass.CRASH])
def test_fault_edge_on_a_step_boundary(boundaries, step, fault):
    magnitude = {FaultClass.STRAGGLER: 2.0, FaultClass.THERMAL: 30.0,
                 FaultClass.OOM: 0.5, FaultClass.CRASH: 1.0,
                 FaultClass.BROWNOUT: 0.0}[fault]
    start = boundaries[step]
    duration = boundaries[step + 5] - start
    schedule = schedule_from_episodes([FaultEpisode(
        episode_id=0, node_id=0, fault=fault, start_s=start,
        duration_s=duration, magnitude=magnitude)])

    def inject(cluster):
        injector = FaultInjector(cluster.env, cluster.nodes, schedule)
        cluster.attach_injector(injector)
        return injector.applied_trace

    def requests():
        return [lone_request()]

    differential(one_node_fleet(), requests, attach=inject,
                 sample_period_s=boundaries[step])


@pytest.mark.parametrize("step", [1, 2, 17, 40])
def test_router_reads_on_a_step_boundary(boundaries, step):
    """Readers scheduled before the stretch (heap order: first) and at
    the boundary itself (heap order: after the node) see what the
    per-step loop shows them."""
    t = boundaries[step]

    def run(cls):
        env = Environment()
        node = cls(env, 0, get_device(ORIN64), get_model("llama"),
                   Precision.FP16)
        seen = []

        def early_reader():
            yield env.timeout_at(t)
            seen.append(("early", node.kv_pressure,
                         node.predicted_j_per_token(), node.busy_energy_j,
                         node.state.util, node.served_tokens))

        def late_reader():
            yield env.timeout_at(t)
            env.process(reader_at_boundary())

        def reader_at_boundary():
            seen.append(("late", node.kv_pressure, node.busy_energy_j,
                         node.state.util, node.served_tokens))
            node.set_slowdown(1.5)
            yield env.timeout(0)

        env.process(early_reader())
        node.submit(lone_request())
        env.process(late_reader())
        env.run()
        return seen, node_meters(node)

    fast, slow = run(ClusterNode), run(PerStepNode)
    assert_same({"run": fast}, {"run": slow})


def test_cut_wake_keeps_the_stretch_order(decode_spans):
    """A stretch cut during its first step wakes with the sequence number
    it claimed at its start: an event scheduled at that same instant,
    after the node, still runs after the node's wake-up."""
    t0, t1 = decode_spans[0]

    def run(cls):
        env = Environment()
        node = cls(env, 0, get_device(ORIN64), get_model("llama"),
                   Precision.FP16)
        seen = []

        def reader():
            yield env.timeout_at(t0)  # runs after the node's step starts
            yield env.timeout_at(t1)
            seen.append((node.served_tokens, node.busy_energy_j,
                         node.kv_in_use))

        def changer():
            yield env.timeout_at((t0 + t1) / 2)
            node.set_slowdown(1.25)

        node.submit(lone_request())
        env.process(reader())
        env.process(changer())
        env.run()
        return seen, node_meters(node)

    fast = run(ClusterNode)
    assert_same({"run": fast}, {"run": run(PerStepNode)})
    assert fast[0][0][0] == 1
