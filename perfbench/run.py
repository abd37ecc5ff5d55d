#!/usr/bin/env python3
"""The repo benchmark: one command, three workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cluster-steady --seed 1 --seconds 30 --trace 0

Each repetition runs ``perfbench/rep.py`` in a fresh single-threaded
interpreter, so import cost and process-global caches are paid every
time; repetitions run one at a time until ``--seconds`` is used up (at
least ``MIN_REPS``).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics plus the tracing overhead.  Every repetition's
simulated results are checked (see ``check.py``); a repetition that
raises or fails the check counts in ``failed``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with its
provenance manifest and the per-repetition numbers, is written to
``perfbench/out/``.  See ``perfbench/README.md`` for what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"
WORK_DIR = BENCH / ".work"

sys.path.insert(0, str(BENCH))

from check import (digest_violations, expected_digest,  # noqa: E402
                   load_digests)
from layers import UNATTRIBUTED_TOLERANCE_PCT, per_layer_metrics  # noqa: E402
from workloads import PARAMS  # noqa: E402

WORKLOADS = tuple(PARAMS)

#: Repetitions run even when ``--seconds`` is already used up: untraced
#: repetitions, and (untraced, traced) pairs in a traced run.
MIN_REPS = 3
MIN_PAIRS = 2
#: A single repetition that takes longer than this is a failure.
REP_TIMEOUT_S = 150

#: Host seconds the calibration loop (``rep.calibrate``) takes at the
#: reference machine speed.  The shared host's speed swings by up to half
#: over minutes, so each repetition's host times are rescaled to this
#: speed by its own calibration: ``ref_s = host_s * CAL_REF_S / cal_s``.
#: Never change it: it fixes the scale of every recorded number.
CAL_REF_S = 0.3

#: name -> (unit, better, kind).  "host" metrics are measured on this
#: machine's clock (in reference seconds) or memory; "sim" metrics are
#: simulated results.
END_TO_END = {
    "setup_s": ("s", "lower", "host"),
    "sim_tokens_per_ref_s": ("tok/ref_s", "higher", "host"),
    "peak_rss_mb": ("MB", "lower", "host"),
    "sim_j_per_token": ("J/tok", "lower", "sim"),
}

PER_LAYER = {
    "startup.import_s": ("s", "lower"),
    "startup.import_scipy_pct": ("%", "lower"),
    "startup.build_s": ("s", "lower"),
    "workload.gen_pct": ("%", "lower"),
    "workload.requests": ("count", "higher"),
    "sim.events": ("count", "lower"),
    "sim.events_per_ref_s": ("1/ref_s", "higher"),
    "sim.step_self_pct": ("%", "lower"),
    "node.decode_steps": ("count", "lower"),
    "node.mean_batch": ("tok/step", "higher"),
    "node.busy_frac": ("frac", "lower"),
    "kernels.calls": ("count", "lower"),
    "kernels.pct": ("%", "lower"),
    "power.calls": ("count", "lower"),
    "power.pct": ("%", "lower"),
    "thermal.calls": ("count", "lower"),
    "thermal.pct": ("%", "lower"),
    "router.calls": ("count", "lower"),
    "router.pct": ("%", "lower"),
    "sched.calls": ("count", "lower"),
    "sched.pct": ("%", "lower"),
    "kvtier.calls": ("count", "lower"),
    "kvtier.pct": ("%", "lower"),
    "kvtier.prefix_hit_rate": ("frac", "higher"),
    "kvtier.prompt_tokens": ("count", "higher"),
    "kvtier.swap_outs": ("count", "lower"),
    "kvtier.sacrifices": ("count", "lower"),
    "obs.records": ("count", "lower"),
    "obs.record_pct": ("%", "lower"),
    "obs.export_pct": ("%", "lower"),
    "obs.export_bytes": ("bytes", "lower"),
    "report.pct": ("%", "lower"),
    "report.sim_p50_ttft_s": ("sim_s", "lower"),
    "report.sim_p99_ttft_s": ("sim_s", "lower"),
    "report.sim_goodput_rps": ("req/sim_s", "higher"),
    "memsys.streams": ("count", "lower"),
    "memsys.replay_pct": ("%", "lower"),
    "memsys.trajectory_lookups": ("count", "higher"),
    "memsys.trajectory_hit_ratio": ("frac", "higher"),
    "engine.experiments": ("count", "higher"),
    "engine.pct": ("%", "lower"),
    "perplexity.pct": ("%", "lower"),
    "cache.lookups": ("count", "higher"),
    "cache.hit_ratio": ("frac", "higher"),
    "cache.pct": ("%", "lower"),
    "cache.bytes_written": ("bytes", "lower"),
    "fidelity.paper_latency_dev_pct": ("%", "lower"),
    "fidelity.paper_ram_dev_pct": ("%", "lower"),
    "fidelity.paper_cells": ("count", "higher"),
    "trace.host_s": ("s", "lower"),
    "trace.unattributed_pct": ("%", "lower"),
    "trace_overhead_pct": ("%", "lower"),
}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("REPRO_CACHE_DIR", None)  # the study brings its own cache
    return env


def scipy_import_share(importtime_log: str) -> float:
    """% of ``import repro`` that ``scipy.integrate`` took (-X importtime)."""
    cumulative = {}
    for line in importtime_log.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _self, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum)
    total = cumulative.get("repro", 0)
    return 100.0 * cumulative.get("scipy.integrate", 0) / total if total else 0.0


class Runner:
    def __init__(self, args):
        self.args = args
        self.env = child_env()
        self.expected = expected_digest(load_digests(), args.workload,
                                        args.size, args.seed)
        self.reps: List[dict] = []
        self.first_digest: Optional[str] = None

    def spawn(self, traced: bool) -> None:
        a = self.args
        cmd = [sys.executable]
        if traced:
            cmd += ["-X", "importtime"]
        cmd += [str(BENCH / "rep.py"), a.workload, a.size, str(a.seed),
                "1" if traced else "0", repr(time.time()), str(WORK_DIR)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rep = {"ok": False, "error": f"timed out after {REP_TIMEOUT_S} s"}
        else:
            try:
                rep = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                rep = {"ok": False, "error": (
                    f"exit {proc.returncode}: " + proc.stderr[-2000:])}
            else:
                if traced:
                    rep["import_scipy_pct"] = scipy_import_share(proc.stderr)
        rep["traced"] = traced
        rep["wall_s"] = time.perf_counter() - t0
        if rep.get("ok"):
            rep["violations"] = self.check(rep)
            rep["ok"] = not rep["violations"]
        self.reps.append(rep)

    def check(self, rep: dict) -> List[str]:
        out = list(rep["violations"])
        out += digest_violations(rep["digest"], self.expected)
        if self.first_digest is None:
            self.first_digest = rep["digest"]
        elif rep["digest"] != self.first_digest:
            out.append("results differ from the first repetition of this "
                       "invocation" + (" (traced vs untraced)"
                                       if rep["traced"] else ""))
        if rep["traced"]:
            layer = per_layer_metrics(rep["layers"], rep["host_s"],
                                      rep["counters"])
            rep["per_layer"] = layer
            if layer["trace.unattributed_pct"] > UNATTRIBUTED_TOLERANCE_PCT:
                out.append(
                    f"wrapped layers account for only "
                    f"{100 - layer['trace.unattributed_pct']:.1f}% of the "
                    f"traced host time (tolerance "
                    f"{UNATTRIBUTED_TOLERANCE_PCT}%)")
        return out

    def run(self) -> None:
        start = time.perf_counter()
        pairs = self.args.trace == 1
        n, floor = 0, MIN_PAIRS if pairs else MIN_REPS
        while True:
            t0 = time.perf_counter()
            self.spawn(traced=False)
            if pairs:
                self.spawn(traced=True)
            n += 1
            step = time.perf_counter() - t0
            if n >= floor and (time.perf_counter() - start + step
                               > self.args.seconds):
                break


def median_of(reps: List[dict], fn) -> float:
    return statistics.median(fn(r) for r in reps)


def at_ref(rep: dict, seconds: float) -> float:
    """Host seconds of ``rep`` rescaled to the reference machine speed."""
    return seconds * CAL_REF_S / rep["cal_s"]


def end_to_end(good: List[dict]) -> Dict[str, float]:
    return {
        "setup_s": median_of(good, lambda r: at_ref(r, r["setup_s"])),
        "sim_tokens_per_ref_s": median_of(
            good, lambda r: r["sim_tokens"] / at_ref(r, r["host_s"])),
        "peak_rss_mb": median_of(good, lambda r: r["rss_mb"]),
        "sim_j_per_token": good[0]["sim"]["sim_j_per_token"],
    }


def per_layer(plain: List[dict], traced: List[dict]) -> Dict[str, float]:
    out = {name: median_of(traced, lambda r: r["per_layer"][name])
           for name in traced[0]["per_layer"]}
    untraced_host = median_of(plain, lambda r: at_ref(r, r["host_s"]))
    traced_host = median_of(traced, lambda r: at_ref(r, r["host_s"]))
    sim = traced[0]["sim"]
    out.update({
        "startup.import_s": median_of(plain,
                                      lambda r: at_ref(r, r["import_s"])),
        "startup.import_scipy_pct": median_of(
            traced, lambda r: r["import_scipy_pct"]),
        "startup.build_s": median_of(plain, lambda r: at_ref(r, r["build_s"])),
        "workload.gen_pct": median_of(
            plain, lambda r: 100.0 * r["gen_s"] / r["setup_s"]),
        "workload.requests": traced[0]["counters"]["requests"],
        "sim.events_per_ref_s": out["sim.events"] / untraced_host,
        "report.sim_p50_ttft_s": sim.get("sim_p50_ttft_s", 0.0),
        "report.sim_p99_ttft_s": sim.get("sim_p99_ttft_s", 0.0),
        "report.sim_goodput_rps": sim.get("sim_goodput_rps", 0.0),
        "fidelity.paper_latency_dev_pct": sim.get("paper_latency_dev_pct",
                                                  0.0),
        "fidelity.paper_ram_dev_pct": sim.get("paper_ram_dev_pct", 0.0),
        "fidelity.paper_cells": sim.get("paper_cells", 0),
        "trace.host_s": traced_host,
        "trace_overhead_pct": 100.0 * (traced_host / untraced_host - 1.0),
    })
    return out


def read_versions() -> Dict[str, object]:
    """Every module-level ``*_VERSION`` constant under ``src/repro``, as
    written in its own module (parsed, not imported)."""
    out = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id.endswith("_VERSION")
                    and isinstance(node.value, ast.Constant)):
                out[f"{module}.{node.targets[0].id}"] = node.value.value
    return out


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                               cwd=ROOT, capture_output=True, text=True,
                               timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return rev.stdout.strip() + ("+dirty-src" if dirty.stdout.strip() else "")


def manifest(args, reps: List[dict]) -> dict:
    return {
        "host": {"cores": os.cpu_count(), "machine": platform.machine(),
                 "system": platform.system(),
                 "python": platform.python_version(),
                 "numpy": next((r["numpy"] for r in reps if "numpy" in r),
                               None)},
        "git_revision": git_revision(),
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "params": PARAMS[args.workload][args.size],
        "versions": read_versions(),
    }


def print_summary(args, metrics: Dict[str, float], units: Dict[str, str],
                  reps: List[dict], good: List[dict]) -> None:
    failed = len(reps) - len(good)
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace}: {len(reps)} repetitions, {failed} failed "
          f"(failed_frac {failed / len(reps):.3f})")
    for rep in reps:
        if not rep["ok"]:
            print("  FAILED:", rep.get("error") or "; ".join(rep["violations"]))
    for name, value in metrics.items():
        kind = END_TO_END[name][2] if name in END_TO_END else "layer"
        print(f"  {name:34s} {value:>16.6g} {units[name]:10s} {kind}")
    if good and args.trace == 0:
        # The raw host numbers behind the reference-speed ones.
        raw = {"setup_s (raw)": (median_of(good, lambda r: r["setup_s"]), "s"),
               "sim_tokens_per_host_s (raw)": (median_of(
                   good, lambda r: r["sim_tokens"] / r["host_s"]), "tok/s"),
               "cal_s": (median_of(good, lambda r: r["cal_s"]), "s")}
        for name, (value, unit) in raw.items():
            print(f"  {name:34s} {value:>16.6g} {unit:10s} host")
        # Simulated results that vary with the seed by far more than a
        # regression bound: shown for the reader, checked by digest.
        for name, value in sorted(good[0]["sim"].items()):
            if name != "sim_j_per_token":
                print(f"  {name:34s} {value:>16.6g} {'':10s} sim")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-long inputs for the self-tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    runner = Runner(args)
    warm = subprocess.run([sys.executable, "-c", "import repro, workloads"],
                          cwd=ROOT, env=runner.env, capture_output=True,
                          text=True, timeout=REP_TIMEOUT_S)
    if warm.returncode != 0:  # byte-compiles src/ so set-up is steady
        print("error: cannot import repro:\n" + warm.stderr[-2000:],
              file=sys.stderr)
        return 2
    runner.run()

    reps = runner.reps
    good = [r for r in reps if r["ok"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    correct = len(good) == len(reps)
    if args.trace == 0:
        metrics = end_to_end(good) if good else {}
        units = {k: v[0] for k, v in END_TO_END.items()}
    else:
        metrics = per_layer(plain, traced) if plain and traced else {}
        metrics = {k: metrics[k] for k in PER_LAYER if k in metrics}
        units = {k: v[0] for k, v in PER_LAYER.items()}
    print_summary(args, metrics, units, reps, good)

    OUT_DIR.mkdir(exist_ok=True)
    # The traced repetition with the median host time stands for the run:
    # its coarse spans and per-(layer, function, parent) accumulators.
    typical = (sorted(traced, key=lambda r: r["host_s"])[len(traced) // 2]
               if traced else {})
    record = {
        "manifest": manifest(args, reps),
        "correct": correct, "attempted": len(reps),
        "failed": len(reps) - len(good),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "spans": typical.get("spans", []),
        "layers": [dict(zip(("layer", "function", "parent", "calls",
                             "inclusive_s", "self_s"), row))
                   for row in typical.get("layers", [])],
        "repetitions": [{k: v for k, v in r.items() if k != "layers"}
                        for r in reps],
    }
    out = OUT_DIR / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"correct": correct, "attempted": len(reps),
                      "failed": len(reps) - len(good),
                      "metrics": record["metrics"]}))
    return 0 if correct and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
