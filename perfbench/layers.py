"""Per-layer host-time attribution for the traced run.

The benchmark wraps the public entry points of each layer (the table
``LAYERS``) from its own files; nothing under ``src/`` is edited.  A
span per call would mean millions of spans on cluster-steady, so each
wrapper instead feeds an accumulator keyed ``(layer, function, parent
layer)`` and keeps self time with a stack: a call's self time is its
duration minus the time of wrapped calls beneath it.

``sim`` wraps ``Environment.step``, whose callbacks resume the node and
engine serving loops.  Those loops have no public boundary of their
own, so the sim layer's self time is "DES kernel plus node/engine loop
glue".  ``Environment.timeout`` is not wrapped: it only constructs an
event, and wrapping it would add a wrapper call per decode step for no
attributable work.

The wrappers pass arguments and results through untouched, so the
simulated results are bit-identical to an unwrapped run (the traced run
checks this against its untraced twin on every invocation).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Dict, List, Optional, Tuple

#: (layer, module, class or None for module functions, function names).
LAYERS: List[Tuple[str, str, Optional[str], Tuple[str, ...]]] = [
    ("sim", "repro.sim.environment", "Environment", ("step",)),
    ("kernels", "repro.engine.kernels", "StepTimer",
     ("prefill", "decode_step", "decode_run")),
    ("power", "repro.power.model", "PowerModel", ("power_w", "breakdown")),
    ("thermal", "repro.hardware.thermal", "ThermalModel", ("advance",)),
    ("router", "repro.cluster.router", "Router", ("choose",)),
    ("sched", "repro.fairness.scheduler", "FairScheduler",
     ("select_next", "on_tokens_served")),
    ("kvtier", "repro.kvtier.radix", "RadixPrefixCache",
     ("insert", "match", "peek", "reclaim", "release")),
    ("kvtier", "repro.kvtier.swap", "HostSwapSpace", ("swap_out", "swap_in")),
    ("obs", "repro.obs.span", "Observer",
     ("begin", "end", "complete", "instant", "counter")),
    ("obs.export", "repro.obs.export", None,
     ("write_chrome_trace", "write_metrics")),
    ("report", "repro.cluster.slo", None, ("build_report",)),
    ("memsys", "repro.memsys.fastpath", None, ("simulate_stream",)),
    ("memsys", "repro.memsys.fastpath", "TrajectoryCache", ("delta_for",)),
    ("engine", "repro.core.experiment", None, ("run_experiment",)),
    ("perplexity", "repro.perplexity.analytical", None, ("perplexity_table",)),
    ("perplexity", "repro.quant.error", None, ("measure_quant_error",)),
    ("cache", "repro.core.cache", "ResultCache",
     ("get", "put", "get_or_compute")),
]

#: Layers called a handful of times per run, whose calls are also kept
#: as full spans (start, end, parent) beside the accumulators.
COARSE = ("report", "obs.export")

#: Largest share of the traced timed section that may fall outside every
#: wrapped layer (orchestration glue such as ``EdgeCluster.run``'s own set-up and
#: ``Environment.run``'s loop) before the attribution is called broken.
UNATTRIBUTED_TOLERANCE_PCT = 15.0


class Tracer:
    """Per-(layer, function, parent) call counts and inclusive/self time."""

    def __init__(self):
        self.stack: List[list] = []
        #: (layer, function, parent layer) -> [calls, inclusive_s, self_s]
        self.acc: Dict[Tuple[str, str, str], list] = {}
        #: [function, parent layer, start, end] for the COARSE layers.
        self.spans: List[list] = []

    def wrap(self, layer: str, fname: str, fn):
        stack, acc, clock = self.stack, self.acc, time.perf_counter
        spans = self.spans if layer in COARSE else None

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else "-"
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                key = (layer, fname, parent)
                a = acc.get(key)
                if a is None:
                    a = acc[key] = [0, 0.0, 0.0]
                a[0] += 1
                a[1] += dt
                a[2] += dt - frame[1]
                if spans is not None:
                    spans.append([fname, parent, t0, t0 + dt])

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap every entry point of ``LAYERS``.

        Methods are wrapped on the class and on every subclass that
        overrides them; module functions are replaced on the defining
        module and in every loaded ``repro`` module that imported them
        by name.
        """
        for layer, modname, clsname, names in LAYERS:
            mod = importlib.import_module(modname)
            if clsname is None:
                for name in names:
                    orig = getattr(mod, name)
                    new = self.wrap(layer, name, orig)
                    for m in list(sys.modules.values()):
                        if (getattr(m, "__name__", "").startswith("repro")
                                and getattr(m, name, None) is orig):
                            setattr(m, name, new)
                continue
            for cls in _with_subclasses(getattr(mod, clsname)):
                for name in names:
                    if name in cls.__dict__:
                        setattr(cls, name,
                                self.wrap(layer, name, cls.__dict__[name]))

    def rows(self) -> List[list]:
        return [[layer, fn, parent, c, incl, self_s]
                for (layer, fn, parent), (c, incl, self_s)
                in sorted(self.acc.items())]


def _with_subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out


def per_layer_metrics(rows: List[list], host_s: float, counters: dict,
                      ) -> Dict[str, float]:
    """Layer metrics from one traced repetition.

    ``rows`` are :meth:`Tracer.rows`; ``host_s`` is the traced timed
    section.  Host time per layer is reported as a share (%) of
    ``host_s``, whose length ``run.py`` reports as ``trace.host_s``.
    """
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    fn_calls: Dict[Tuple[str, str, str], int] = {}
    for layer, fn, parent, c, _incl, s in rows:
        calls[layer] = calls.get(layer, 0) + c
        self_s[layer] = self_s.get(layer, 0.0) + s
        fn_calls[(layer, fn, parent)] = c

    def pct(layer: str) -> float:
        return 100.0 * self_s.get(layer, 0.0) / host_s

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    decode_steps = fn_calls.get(("kernels", "decode_step", "sim"), 0)
    attributed = sum(self_s.values())
    return {
        "sim.events": calls.get("sim", 0),
        "sim.step_self_pct": pct("sim"),
        "node.decode_steps": decode_steps,
        "node.mean_batch": ratio(counters.get("served_tokens", 0),
                                 decode_steps),
        "node.busy_frac": ratio(counters.get("busy_s", 0.0),
                                counters.get("node_s", 0.0)),
        "kernels.calls": calls.get("kernels", 0),
        "kernels.pct": pct("kernels"),
        "power.calls": calls.get("power", 0),
        "power.pct": pct("power"),
        "thermal.calls": calls.get("thermal", 0),
        "thermal.pct": pct("thermal"),
        "router.calls": calls.get("router", 0),
        "router.pct": pct("router"),
        "sched.calls": calls.get("sched", 0),
        "sched.pct": pct("sched"),
        "kvtier.calls": calls.get("kvtier", 0),
        "kvtier.pct": pct("kvtier"),
        "kvtier.prefix_hit_rate": ratio(counters.get("prefix_hit_tokens", 0),
                                        counters.get("prompt_tokens", 0)),
        "kvtier.prompt_tokens": counters.get("prompt_tokens", 0),
        "kvtier.swap_outs": counters.get("swap_outs", 0),
        "kvtier.sacrifices": counters.get("sacrifices", 0),
        "obs.records": counters.get("obs_records", 0),
        "obs.record_pct": pct("obs"),
        "obs.export_pct": pct("obs.export"),
        "obs.export_bytes": counters.get("export_bytes", 0),
        "report.pct": pct("report"),
        "memsys.streams": sum(c for (_l, fn, _p), c in fn_calls.items()
                              if fn == "simulate_stream"),
        "memsys.replay_pct": pct("memsys"),
        "memsys.trajectory_lookups": counters.get("trajectory_lookups", 0),
        "memsys.trajectory_hit_ratio": ratio(
            counters.get("trajectory_hits", 0),
            counters.get("trajectory_lookups", 0)),
        "engine.experiments": sum(c for (_l, fn, _p), c in fn_calls.items()
                                  if fn == "run_experiment"),
        "engine.pct": pct("engine"),
        "perplexity.pct": pct("perplexity"),
        "cache.lookups": counters.get("cache_lookups", 0),
        "cache.hit_ratio": ratio(counters.get("cache_hits", 0),
                                 counters.get("cache_lookups", 0)),
        "cache.pct": pct("cache"),
        "cache.bytes_written": counters.get("cache_bytes", 0),
        "trace.unattributed_pct": 100.0 * (host_s - attributed) / host_s,
    }
