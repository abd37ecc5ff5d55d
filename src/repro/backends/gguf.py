"""llama.cpp-style runtime: GGUF weights, static KV, CPU/GPU layer split.

Cost-model shape, calibrated qualitatively against the on-device
llama.cpp characterizations in related work ("Sometimes Painful but
Certainly Promising" — Abstreiter et al.; "Sustainable LLM Inference
for Edge AI" — Husom et al.):

- weights are a single mmap'd GGUF file with exact k-quant footprints
  (:func:`repro.quant.gguf.gguf_weight_bytes`); together with the
  fixed graph-planned compute buffer the *total* serving footprint
  stays below the HF stack's (no cuBLAS/caching-allocator slack).
  Weights are streamed without separate dequant kernels —
  dequantization happens in-register inside the fused matmul kernels,
  modelled as a small math-rate penalty rather than the HF stack's
  dequant/act-quant time terms;
- ``n_gpu_layers`` splits the layer stack: offloaded layers run on the
  iGPU roofline, the rest on the CPU (ggml threads at a fraction of
  streaming DRAM bandwidth), and the two parts are *serial* per step —
  exactly the -ngl behaviour llama.cpp exposes;
- the host loop is a tight C++ sampler: per-step and per-sequence host
  costs are an order of magnitude below HF ``generate``'s Python
  dispatch, which is what makes the runtime single-sequence-fast;
- the KV cache is allocated up front at the full context (static), so
  decode pays no concat traffic and memory stays flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends.base import RuntimeBackend
from repro.backends.registry import register_backend
from repro.engine.executor import BatchExecutor
from repro.engine.kernels import StepCost, StepTimer
from repro.errors import ConfigError
from repro.models.flops import PhaseCounts
from repro.quant.dtypes import Precision
from repro.quant.gguf import gguf_type_for, gguf_weight_bytes


@dataclass(frozen=True)
class GGUFCostParams:
    """Calibratable constants specific to the llama.cpp execution model."""

    #: Host-side seconds per decode step at max CPU clock (C++ loop).
    host_step_s: float = 0.35e-3
    #: Additional host seconds per sequence per step (sampling).
    host_per_seq_s: float = 0.05e-3
    #: FLOPs one CPU core sustains per clock on ggml's quantized GEMV
    #: (peak NEON dot-product is ~16; memory stalls and dequant shuffles
    #: hold real kernels to about a quarter of that).
    cpu_flops_per_core_hz: float = 4.0
    #: Fraction of streaming DRAM bandwidth the ggml CPU threads reach.
    cpu_stream_fraction: float = 0.55
    #: Minimum seconds per launched GPU kernel (fused graph: fewer,
    #: cheaper launches than the HF stack's 42 us floor).
    kernel_floor_s: float = 30e-6
    #: Fraction of the HF per-step kernel count the fused ggml graph
    #: actually launches.
    kernel_fusion: float = 0.6
    #: Math-rate multiplier while dequantizing k-quants in-register.
    kquant_math_penalty: float = 0.92
    #: Fixed compute-buffer workspace (GB): llama.cpp pre-plans its
    #: graph allocator, no cuBLAS/caching-allocator slack.
    workspace_gb: float = 0.40

    def __post_init__(self) -> None:
        for name in ("host_step_s", "host_per_seq_s", "cpu_flops_per_core_hz",
                     "cpu_stream_fraction", "kernel_floor_s", "kernel_fusion",
                     "kquant_math_penalty", "workspace_gb"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.cpu_stream_fraction > 1.0:
            raise ConfigError("cpu_stream_fraction must be <= 1")


class GGUFStepTimer(StepTimer):
    """Step costs under the llama.cpp execution model.

    Reuses the shared memoization and FLOP/byte counting (weight traffic
    is swapped for the GGUF footprint via ``self.weight_bytes``) but
    recombines the counts with the serial GPU-then-CPU layer split.
    """

    def __init__(self, arch, device, precision, params, cost: GGUFCostParams,
                 n_gpu_layers: int):
        super().__init__(arch, device, precision, params)
        self.weight_bytes = gguf_weight_bytes(arch, precision)
        self.cost = cost
        if n_gpu_layers < 0 or n_gpu_layers > arch.n_layers:
            n_gpu_layers = arch.n_layers
        self.n_gpu_layers = n_gpu_layers

    def _combine(self, counts: PhaseCounts, n_tokens: int,
                 concat_bytes: float, is_prefill: bool) -> StepCost:
        p = self.params
        c = self.cost
        dev = self.device
        gpu = dev.gpu
        gpu_frac = self.n_gpu_layers / self.arch.n_layers

        # Traffic: weights once (k-quant footprint), KV gather/write,
        # activations.  Static cache => concat_bytes is always 0 here.
        stream_bytes = (
            counts.weight_bytes_read
            + counts.activation_bytes
            + counts.kv_bytes_written
            + concat_bytes
            + (counts.kv_bytes_read + counts.kv_expand_bytes)
            * p.kv_traffic_scale
        )
        stream_bw = dev.memory.streaming_bandwidth() * p.bw_scale

        # GPU part: roofline over the offloaded layer fraction.
        t_mem_gpu = stream_bytes * gpu_frac / stream_bw
        sat = n_tokens / (n_tokens + p.gemm_sat_tokens)
        math_prec = (Precision.FP16 if self.precision.is_quantized
                     else self.precision)
        kq = (c.kquant_math_penalty if self.precision.is_quantized else 1.0)
        flops_rate = gpu.effective_flops(math_prec) * p.flops_scale * sat * kq
        t_comp_gpu = counts.flops * gpu_frac / flops_rate

        # CPU part: ggml threads stream at a fraction of DRAM bandwidth
        # and retire SIMD dot products on every online core.
        cpu_frac = 1.0 - gpu_frac
        t_mem_cpu = stream_bytes * cpu_frac / (stream_bw * c.cpu_stream_fraction)
        cpu_rate = (dev.cpu.online_cores * dev.cpu.freq_hz
                    * c.cpu_flops_per_core_hz)
        t_comp_cpu = counts.flops * cpu_frac / cpu_rate

        t_gpu_roof = (t_mem_gpu**p.overlap_p + t_comp_gpu**p.overlap_p) \
            ** (1.0 / p.overlap_p)
        # ggml interleaves loads and math tightly on CPU: roofline max.
        t_cpu = max(t_mem_cpu, t_comp_cpu)

        # Launch floor only for the offloaded part of the fused graph.
        floor_scale = gpu.freq_ratio * dev.memory.freq_ratio**0.5
        n_kernels = self.arch.kernels_per_step * c.kernel_fusion * gpu_frac
        if is_prefill:
            n_kernels += self.n_gpu_layers * c.kernel_fusion
        t_floor = n_kernels * c.kernel_floor_s / floor_scale
        t_gpu = t_gpu_roof + t_floor

        t_host = (c.host_step_s
                  + c.host_per_seq_s * self._host_seqs(n_tokens, is_prefill)) \
            / dev.cpu.freq_ratio
        seconds = t_gpu + t_cpu + t_host

        gpu_busy = t_gpu / seconds
        denom = t_mem_gpu + t_comp_gpu
        gpu_compute = gpu_busy * (t_comp_gpu / denom if denom > 0 else 0.0)
        bytes_moved = stream_bytes
        peak_bw_now = dev.memory.peak_bandwidth * dev.memory.effective_ratio
        mem_bw_frac = min(1.0, bytes_moved / (peak_bw_now * seconds))
        # ggml saturates every online core while CPU layers run; outside
        # that window one thread drives the graph.
        cpu_cores = (1.0
                     + (dev.cpu.online_cores - 1.0) * (t_cpu / seconds)
                     + 0.5 * (t_host / seconds))
        return StepCost(
            seconds=seconds,
            t_mem=t_mem_gpu + t_mem_cpu,
            t_comp=t_comp_gpu + t_comp_cpu,
            t_kernel_floor=t_floor,
            t_host=t_host,
            bytes_moved=bytes_moved,
            gpu_compute_frac=gpu_compute,
            gpu_busy_frac=gpu_busy,
            mem_bw_frac=mem_bw_frac,
            cpu_cores_active=min(cpu_cores, float(dev.cpu.online_cores)),
        )


@register_backend
@dataclass(frozen=True)
class GGUFBackend(RuntimeBackend):
    """llama.cpp-style serving: mmap'd GGUF weights, static KV cache."""

    name = "gguf"
    description = ("llama.cpp-style: mmap'd GGUF k-quant weights, "
                   "CPU/GPU layer split (n_gpu_layers), static KV")

    #: Layers offloaded to the GPU; -1 (default) offloads all of them.
    n_gpu_layers: int = -1
    cost: GGUFCostParams = field(default_factory=GGUFCostParams)

    def weight_bytes(self, arch, precision: Precision) -> int:
        return gguf_weight_bytes(arch, precision)

    def load_weights(self, allocator, arch, precision: Precision) -> None:
        # One mmap of the whole GGUF file (llama.cpp maps, not copies).
        allocator.alloc(self.weight_bytes(arch, precision),
                        tag="weights.gguf-mmap")

    def make_timer(self, arch, device, precision: Precision, params=None):
        from repro.calibration.constants import CALIBRATED_COST_PARAMS

        return GGUFStepTimer(arch, device, precision,
                             params or CALIBRATED_COST_PARAMS,
                             self.cost, self.n_gpu_layers)

    def workspace_bytes(self, arch, precision: Precision,
                        batch_size: int) -> int:
        # Graph-planned compute buffer: fixed, batch-independent.
        return int(self.cost.workspace_gb * 1e9)

    def make_executor(self, timer, allocator, arch, precision: Precision,
                      batch_size: int):
        return BatchExecutor(
            timer,
            allocator,
            kv_mode="static",
            eager_score_buffers=False,
            workspace_bytes=self.workspace_bytes(arch, precision, batch_size),
        )

    def quant_error(self, arch, precision: Precision):
        """Measured dequant error of the GGUF dtype serving ``precision``."""
        from repro.quant.gguf import gguf_rel_error

        return gguf_rel_error(arch, gguf_type_for(precision).name)
