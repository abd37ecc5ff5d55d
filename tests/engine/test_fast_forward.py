"""Decode fast-forward must be observationally invisible.

The executor resolves a batch's memory up front and collapses its
decode steps into one absolute-time timeout per inter-event stretch.
Its contract is *bit-identical* results against the per-token oracle
(:mod:`_per_token_executor`): every latency, per-step duration, power
sample, energy integral, and memory milestone must match the
step-by-step execution — not approximately, exactly, because timestamps
are accumulated in the same float-addition order and scheduled at
absolute times.

The suite runs both across precisions, power modes, batch sizes,
generation lengths, sampler-period edge cases, runtimes and OOM
configurations, and also asserts serial == parallel for the process
fan-out of :mod:`repro.core.parallel`.
"""

from __future__ import annotations

import contextlib

import pytest
from _per_token_executor import PerTokenExecutor, per_token_executors

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.parallel import run_specs
from repro.engine.request import GenerationSpec
from repro.engine.runtime import RunResult, ServingEngine
from repro.hardware.device import get_device
from repro.models.zoo import get_model
from repro.power.modes import get_power_mode
from repro.quant.dtypes import Precision


def _oracle(per_token: bool):
    return per_token_executors() if per_token else contextlib.nullcontext()


def _run(per_token: bool, *, model="MS-Phi2", precision=Precision.FP16,
         batch_size=4, gen=GenerationSpec(16, 48), power_mode="MAXN",
         n_runs=2, sample_period_s=2.0, runtime=None) -> RunResult:
    engine = ServingEngine(
        get_device("jetson-orin-agx-64gb"), get_model(model), precision,
        sample_period_s=sample_period_s, backend=runtime,
    )
    with _oracle(per_token):
        return engine.run(batch_size=batch_size, gen=gen, n_runs=n_runs,
                          power_mode=get_power_mode(power_mode))


def _run_spec(per_token: bool, spec: ExperimentSpec) -> RunResult:
    with _oracle(per_token):
        return run_experiment(spec)


def assert_identical(a: RunResult, b: RunResult) -> None:
    """Every observable equal — floats bit-for-bit, not approximately."""
    assert a.oom == b.oom
    assert a.mean_latency_s == b.mean_latency_s
    assert a.throughput_tok_s == b.throughput_tok_s
    assert a.median_power_w == b.median_power_w
    assert a.energy_j == b.energy_j
    assert a.model_gb == b.model_gb
    assert a.incremental_gb == b.incremental_gb
    assert a.total_gb == b.total_gb
    assert len(a.batches) == len(b.batches)
    for ba, bb in zip(a.batches, b.batches):
        assert ba.oom == bb.oom
        assert ba.latency_s == bb.latency_s
        assert ba.prefill_s == bb.prefill_s
        assert ba.decode_s == bb.decode_s
        assert ba.step_seconds == bb.step_seconds


CONFIGS = [
    pytest.param({}, id="default"),
    pytest.param({"model": "Llama3"}, id="llama"),
    pytest.param({"precision": Precision.INT8}, id="int8"),
    pytest.param({"precision": Precision.INT4}, id="int4"),
    pytest.param({"power_mode": "H"}, id="powermode-H"),
    pytest.param({"power_mode": "E"}, id="powermode-E"),
    pytest.param({"batch_size": 128}, id="big-batch"),
    pytest.param({"gen": GenerationSpec(128, 384)}, id="long-gen"),
    pytest.param({"gen": GenerationSpec(1, 1)}, id="one-token"),
    # Sampler-period edges: ticks denser than steps (many events inside
    # one decode stretch) and a period that lands mid-step repeatedly.
    pytest.param({"sample_period_s": 0.013}, id="dense-sampler"),
    pytest.param({"sample_period_s": 0.0503, "gen": GenerationSpec(8, 96)},
                 id="odd-sampler"),
    # The paged runtime walks its block pool instead of replaying a
    # memoized trajectory; dense ticks cut its decode into many stretches.
    pytest.param({"runtime": "paged", "sample_period_s": 0.013},
                 id="paged-dense-sampler"),
]


@pytest.mark.parametrize("overrides", CONFIGS)
def test_fast_forward_is_bit_identical(overrides):
    slow = _run(True, **overrides)
    fast = _run(False, **overrides)
    assert_identical(slow, fast)


def test_fast_forward_identical_under_oom():
    # Phi-2's eager score buffers blow up with context: bs=32 at
    # sl=1024 OOMs mid-decode on the 64 GB board (the paper's OOM cell).
    over = dict(model="MS-Phi2", batch_size=32, gen=GenerationSpec(256, 768))
    slow = _run(True, **over)
    fast = _run(False, **over)
    assert slow.oom, "expected this configuration to OOM"
    assert_identical(slow, fast)


def test_fast_forward_runs_fewer_events():
    """The fast path must actually collapse events, not just match."""
    from repro.engine.executor import BatchExecutor
    from repro.engine.state import EngineState
    from repro.memsys.allocator import CachingAllocator
    from repro.engine.kernels import StepTimer
    from repro.engine.request import BatchRequest
    from repro.sim.environment import Environment

    def count_yields(per_token):
        env = Environment()
        timer = StepTimer(get_model("Llama3"),
                          get_device("jetson-orin-agx-64gb"), Precision.FP16)
        cls = PerTokenExecutor if per_token else BatchExecutor
        ex = cls(timer, CachingAllocator(int(60e9)))
        gen = ex.run(env, BatchRequest(batch_size=2, gen=GenerationSpec(8, 64)),
                     EngineState())
        n = 0
        try:
            ev = next(gen)
            while True:
                n += 1
                env.run(until=ev)
                ev = gen.send(ev._value)
        except StopIteration:
            pass
        return n

    slow, fast = count_yields(True), count_yields(False)
    assert slow == 1 + 64  # prefill + one event per decode step
    # No sampler in this env, so the whole decode collapses to one event.
    assert fast == 2


SPEC_CONFIGS = [
    pytest.param({"kv_mode": "static"}, id="static-kv"),
    pytest.param({"kv_mode": "static", "batch_size": 64}, id="static-big"),
    pytest.param({"runtime": "gguf"}, id="gguf"),
    pytest.param({"runtime": "gguf", "precision": Precision.INT4},
                 id="gguf-int4"),
    pytest.param({"runtime": "paged"}, id="paged"),
    pytest.param({"runtime": "paged", "power_mode": "E"}, id="paged-mode-E"),
    # The block pool runs dry mid-decode: OOM after 96 decode steps.
    pytest.param({"model": "Mistral-Base", "runtime": "paged",
                  "batch_size": 128, "gen": GenerationSpec(512, 1024)},
                 id="paged-oom"),
]


@pytest.mark.parametrize("overrides", SPEC_CONFIGS)
def test_fast_forward_identical_across_runtimes_and_kv_modes(overrides):
    """The trajectory replay only engages where it is provably exact (hf
    dynamic/static KV on the caching allocator); every other backend
    walks the real allocator — and all of them feed the one decode
    emitter and stay bit-identical to per-token stepping."""
    kwargs = dict(model="Llama3", batch_size=4, n_runs=2)
    kwargs.update(overrides)
    spec = ExperimentSpec(**kwargs)
    assert_identical(_run_spec(True, spec), _run_spec(False, spec))


def test_run_experiment_fast_forward_flag_matches():
    spec = ExperimentSpec(model="Mistral-Base", precision=Precision.INT4,
                          batch_size=8, n_runs=2)
    assert_identical(_run_spec(True, spec), _run_spec(False, spec))


def test_serial_vs_parallel_study_identical():
    specs = [
        ExperimentSpec(model="MS-Phi2", batch_size=2, n_runs=1),
        ExperimentSpec(model="MS-Phi2", batch_size=4, n_runs=1),
        ExperimentSpec(model="Llama3", precision=Precision.INT8,
                       batch_size=2, n_runs=1),
        ExperimentSpec(model="MS-Phi2", power_mode="H", batch_size=2,
                       n_runs=1),
    ]
    serial = run_specs(specs, jobs=1)
    parallel = run_specs(specs, jobs=2)
    assert [r.model for r in parallel] == [r.model for r in serial]
    for a, b in zip(serial, parallel):
        assert_identical(a, b)
        assert a.as_row() == b.as_row()


def test_mixed_grid_serial_parallel_vectorized_identical():
    """Acceptance grid: backends x precision x power mode, OOM included.

    Three executions of one mixed spec list must agree row-for-row:
    per-token stepping (the ground truth), the serial executor
    (vectorized decode + trajectory replay), and the process fan-out.
    """
    specs = [
        ExperimentSpec(model="Llama3", batch_size=2, n_runs=1),
        ExperimentSpec(model="Llama3", precision=Precision.INT8,
                       kv_mode="static", batch_size=4, n_runs=1),
        ExperimentSpec(model="MS-Phi2", power_mode="E", batch_size=2,
                       n_runs=1),
        ExperimentSpec(model="Llama3", runtime="gguf", batch_size=2,
                       n_runs=1),
        ExperimentSpec(model="Llama3", runtime="paged", batch_size=2,
                       n_runs=1),
        # Phi-2 at bs=32 / sl=1024 OOMs mid-decode on the 64 GB board.
        ExperimentSpec(model="MS-Phi2", batch_size=32,
                       gen=GenerationSpec(256, 768), n_runs=1),
    ]
    baseline = [_run_spec(True, s) for s in specs]
    assert any(r.oom for r in baseline), "grid must include the OOM cell"
    serial = run_specs(specs, jobs=1)
    parallel = run_specs(specs, jobs=2)
    for base, a, b in zip(baseline, serial, parallel):
        assert_identical(base, a)
        assert_identical(a, b)
        assert a.as_row() == b.as_row()


def test_fastpath_engages_and_matches_allocator_end_state():
    """The stock executor must actually take the trajectory fastpath (not
    silently fall back), and leave the allocator in the *exact* state
    per-token stepping leaves it in."""
    from repro.engine.executor import BatchExecutor
    from repro.engine.kernels import StepTimer
    from repro.engine.request import BatchRequest
    from repro.engine.state import EngineState
    from repro.memsys.allocator import CachingAllocator
    from repro.memsys.fastpath import state_fingerprint
    from repro.sim.environment import Environment

    def drive(per_token):
        env = Environment()
        timer = StepTimer(get_model("Llama3"),
                          get_device("jetson-orin-agx-64gb"), Precision.FP16)
        alloc = CachingAllocator(int(60e9))
        ex = (PerTokenExecutor if per_token else BatchExecutor)(timer, alloc)
        gen = ex.run(env, BatchRequest(batch_size=2,
                                       gen=GenerationSpec(8, 32)),
                     EngineState())
        try:
            ev = next(gen)
            while True:
                env.run(until=ev)
                ev = gen.send(ev._value)
        except StopIteration:
            pass
        return ex, alloc

    slow_ex, slow_alloc = drive(True)
    fast_ex, fast_alloc = drive(False)
    assert slow_ex.fastpath_batches == 0
    assert fast_ex.fastpath_batches == 1
    assert state_fingerprint(fast_alloc) == state_fingerprint(slow_alloc)
