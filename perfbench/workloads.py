"""The three benchmark workloads, driven through the public ``repro`` API.

Each workload runs in three phases inside one fresh interpreter:

``build``    construct the fleet or study spec (host time: ``startup.build_s``)
``generate`` draw the request trace from ``--seed`` (``workload.gen_pct``)
``run``      the timed section: serve the trace / run the study, plus the
             observability export on cluster-contended

and then ``outputs`` reads the simulated results back from the public
report/result objects (outside the timed section).

Workload parameters live in ``PARAMS`` so the manifest can record them;
``full`` is what the benchmark measures, ``tiny`` is for the self-tests.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path
from typing import Dict, List

from check import cluster_digest, cluster_invariants, study_digest, study_invariants

PARAMS: Dict[str, Dict[str, dict]] = {
    # Open-loop Poisson at a rate just below saturation: every request is
    # served, node batches mostly 4-8.  Host time is one DES event per
    # decode step per node, so the DES kernel, node loop, StepTimer,
    # PowerModel and ThermalModel do almost all the work.
    "cluster-steady": {
        "full": dict(devices=("jetson-orin-agx-64gb",) * 4, model="llama",
                     precision="int4", runtime="hf-transformers",
                     router="round-robin", scheduler="fcfs",
                     kv_policy="sacrifice", max_batch=8, observer=False,
                     generator="poisson_workload", rate_per_s=0.8,
                     n_requests=4000, input_tokens=128, output_tokens=128),
        "tiny": dict(devices=("jetson-orin-agx-64gb",) * 4, model="llama",
                     precision="int4", runtime="hf-transformers",
                     router="round-robin", scheduler="fcfs",
                     kv_policy="sacrifice", max_batch=8, observer=False,
                     generator="poisson_workload", rate_per_s=0.8,
                     n_requests=60, input_tokens=128, output_tokens=128),
    },
    # Open-loop shared-prefix traffic past saturation on a memory-tight
    # paged fleet: queues build, KV swaps out and back in, radix prefix
    # hits, VTC selection and prefix-affinity peeks all fire, and the
    # Observer records and exports a full trace inside the timed section.
    "cluster-contended": {
        "full": dict(devices=("jetson-orin-nx-16gb",) * 2, model="phi2",
                     precision="fp16", runtime="paged",
                     router="prefix-affinity", scheduler="vtc",
                     kv_policy="swap-lru", max_batch=96, observer=True,
                     generator="shared_prefix_workload", rate_per_s=1.5,
                     n_requests=1500, prefix_tokens=512, share_ratio=0.6,
                     unique_tokens=32, output_tokens=128),
        "tiny": dict(devices=("jetson-orin-nx-16gb",) * 2, model="phi2",
                     precision="fp16", runtime="paged",
                     router="prefix-affinity", scheduler="vtc",
                     kv_policy="swap-lru", max_batch=96, observer=True,
                     generator="shared_prefix_workload", rate_per_s=1.5,
                     n_requests=60, prefix_tokens=512, share_ratio=0.6,
                     unique_tokens=32, output_tokens=128),
    },
    # The run_full_study slice of benchmarks/bench_harness_speed.py, cold:
    # fresh interpreter, empty ResultCache, serial.  The study draws no
    # random inputs, so its outputs do not depend on the seed.
    "study-cold": {
        "full": dict(models=("MS-Phi2", "Llama3"), n_runs=2,
                     include_power_energy=True, runtime="hf-transformers",
                     jobs=1),
        "tiny": dict(models=("MS-Phi2",), n_runs=1,
                     include_power_energy=False, runtime="hf-transformers",
                     jobs=1),
    },
}


class Workload:
    """Parameters, seed and a private working directory for one repetition."""

    def __init__(self, params: dict, seed: int, work_dir: Path):
        self.p = params
        self.seed = seed
        self.work_dir = work_dir

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


class ClusterWorkload(Workload):
    """One cluster serving run: FleetSpec -> EdgeCluster -> run(trace)."""

    def build(self) -> None:
        from repro.cluster import EdgeCluster, FleetSpec, NodeSpec
        from repro.obs import Observer

        p = self.p
        nodes = [NodeSpec(device=d, max_batch=p["max_batch"],
                          runtime=p["runtime"], kv_policy=p["kv_policy"],
                          scheduler=p["scheduler"])
                 for d in p["devices"]]
        fleet = FleetSpec.of(nodes, model=p["model"],
                             precision=p["precision"], policy=p["router"])
        self.observer = Observer() if p["observer"] else None
        self.cluster = EdgeCluster.of(fleet, observer=self.observer)

    def generate(self) -> None:
        import repro.cluster.workload as wl

        p = self.p
        if p["generator"] == "poisson_workload":
            self.requests = wl.poisson_workload(
                p["rate_per_s"], p["n_requests"], p["input_tokens"],
                p["output_tokens"], seed=self.seed)
        else:
            self.requests = wl.shared_prefix_workload(
                p["rate_per_s"], p["n_requests"],
                prefix_tokens=p["prefix_tokens"],
                share_ratio=p["share_ratio"],
                unique_tokens=p["unique_tokens"],
                output_tokens=p["output_tokens"], seed=self.seed)

    def run(self) -> None:
        # Module attributes, not imported names, so the traced run's
        # wrappers on the export functions are seen here too.
        import repro.obs.export as export

        self.report = self.cluster.run(self.requests)
        self.export_bytes = 0
        if self.observer is not None:
            self.work_dir.mkdir(parents=True, exist_ok=True)
            trace = export.write_chrome_trace(
                self.work_dir / "trace.json", self.observer)
            metrics = export.write_metrics(
                self.work_dir / "metrics.csv", self.observer.metrics)
            self.export_bytes = (trace.stat().st_size
                                 + metrics.stat().st_size)

    def outputs(self) -> dict:
        rep, nodes = self.report, self.cluster.nodes
        served = sum(n.served_tokens for n in nodes)
        obs = self.observer
        return {
            "digest": cluster_digest(rep),
            "violations": cluster_invariants(rep, nodes, len(self.requests)),
            "sim_tokens": served,
            "sim": {
                "sim_j_per_token": rep.j_per_token,
                "sim_p50_ttft_s": rep.p50_ttft_s,
                "sim_p99_ttft_s": rep.p99_ttft_s,
                "sim_goodput_rps": rep.goodput_rps,
                "completed": rep.completed,
                "rejected": rep.rejected,
            },
            "counters": {
                "requests": len(self.requests),
                "served_tokens": served,
                "busy_s": sum(n.busy_seconds for n in nodes),
                "node_s": len(nodes) * rep.makespan_s,
                "prefix_hit_tokens": rep.prefix_hit_tokens,
                "prompt_tokens": (rep.prefix_hit_tokens
                                  + sum(n.prefilled_tokens for n in nodes)),
                "swap_outs": rep.swap_outs,
                "sacrifices": rep.sacrifices,
                "obs_records": (0 if obs is None else len(obs.spans)
                                + len(obs.instants) + len(obs.counters)),
                "export_bytes": self.export_bytes,
            },
        }

class StudyWorkload(Workload):
    """One cold run_full_study slice into a fresh, empty ResultCache."""

    def build(self) -> None:
        from repro.core.cache import ResultCache
        from repro.core.study import StudySpec

        p = self.p
        self.spec = StudySpec.of(p["models"], n_runs=p["n_runs"],
                                 include_power_energy=p["include_power_energy"],
                                 runtime=p["runtime"])
        self.cache = ResultCache(self.work_dir / "cache")

    def generate(self) -> None:
        """The study plans its own grid; there is no trace to draw."""

    def run(self) -> None:
        from repro.core.study import run_full_study

        self.results = run_full_study(self.spec, jobs=self.p["jobs"],
                                      cache=self.cache)

    def outputs(self) -> dict:
        from repro.memsys.fastpath import TRAJECTORY_CACHE

        runs = study_runs(self.results)
        tokens = energy = 0.0
        for r in runs:
            for b in r.batches:
                if not b.oom:
                    tokens += b.request.batch_size * b.request.gen.output_tokens
            energy += r.energy_j
        stats = self.cache.stats
        cache_bytes = sum(f.stat().st_size
                          for f in (self.work_dir / "cache").rglob("*")
                          if f.is_file())
        return {
            "digest": study_digest(runs),
            "violations": study_invariants(runs, stats),
            "sim_tokens": tokens,
            "sim": {
                "sim_j_per_token": energy / tokens,
                **paper_deviation(self.results),
            },
            "counters": {
                "requests": 0,
                "trajectory_hits": TRAJECTORY_CACHE.hits,
                "trajectory_lookups": (TRAJECTORY_CACHE.hits
                                       + TRAJECTORY_CACHE.misses),
                "cache_hits": stats.hits,
                "cache_lookups": stats.lookups,
                "cache_bytes": cache_bytes,
            },
        }


def study_runs(res) -> List:
    """Every RunResult of a study, in the order bench_harness_speed uses."""
    runs = []
    for by_wl in (*res.batch_sweeps.values(), *res.seqlen_sweeps.values()):
        for rs in by_wl.values():
            runs += rs
    for rs in (*res.quant_sweeps.values(), *res.power_mode_sweeps.values()):
        runs += rs
    for by_prec in res.power_energy_sweeps.values():
        for rs in by_prec.values():
            runs += rs
    return runs


def paper_deviation(res) -> dict:
    """Median |ours/paper - 1| (in %) over the grid cells the study shares
    with the paper's Tables 4-7.

    In-sample: ``EngineCostParams`` was fitted to these same tables, so
    this measures how well the fit is preserved, not predictive accuracy.
    """
    from repro.calibration import paperdata
    from repro.reporting import compare_rows, deviation_summary

    tables = [
        ("batch_size", res.batch_sweeps, "wikitext2",
         paperdata.TABLE4_BATCH_WIKITEXT),
        ("batch_size", res.batch_sweeps, "longbench",
         paperdata.TABLE5_BATCH_LONGBENCH),
        ("seq_len", res.seqlen_sweeps, "longbench",
         paperdata.TABLE6_SEQLEN_LONGBENCH),
        ("seq_len", res.seqlen_sweeps, "wikitext2",
         paperdata.TABLE7_SEQLEN_WIKITEXT),
    ]
    cols = ["ram_gb", "latency_s"]
    compared = []
    for x_name, sweeps, wl, table in tables:
        paper = [{"model": m, x_name: x, "ram_gb": ram, "latency_s": lat}
                 for m, cells in table.items()
                 for x, (ram, lat, _tp) in cells.items()]
        ours = []
        for model, by_wl in sweeps.items():
            for r in by_wl.get(wl, []):
                x = r.batch_size if x_name == "batch_size" else r.gen.total_tokens
                ours.append({
                    "model": model, x_name: x,
                    "ram_gb": None if r.oom else round(
                        r.model_gb + r.incremental_gb, 2),
                    "latency_s": None if r.oom else round(r.mean_latency_s, 2),
                })
        if ours:
            compared += compare_rows(paper, ours, ["model", x_name], cols)
    summary = deviation_summary(compared, cols)
    return {
        "paper_latency_dev_pct": 100.0 * summary["latency_s"]["median_abs_dev"],
        "paper_ram_dev_pct": 100.0 * summary["ram_gb"]["median_abs_dev"],
        "paper_cells": summary["latency_s"]["n"],
    }


def make(name: str, size: str, seed: int, work_dir: Path):
    params = PARAMS[name][size]
    cls = StudyWorkload if name == "study-cold" else ClusterWorkload
    return cls(params, seed, work_dir / f"{name}-{os.getpid()}")
