"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  Prints one JSON
object on stdout:

- ``setup_s``: host seconds from the parent's spawn to ready to run
  (interpreter start, ``import repro``, build, generate);
- ``import_s``/``build_s``/``gen_s``: the parts of set-up;
- ``host_s``: host seconds of the timed section;
- ``cal_s``: host seconds of the fixed calibration loop, run after the
  timed section (see :func:`calibrate`);
- ``rss_mb``: the process's peak resident memory, before calibrating;
- ``digest``/``violations``/``sim``/``counters``: the simulated outputs;
- traced runs only: ``layers`` (the accumulator rows) and ``spans``
  (the coarse phases: setup, import, build, generate, run, and the
  report and export calls inside run).

Usage: rep.py WORKLOAD SIZE SEED TRACED SPAWN_TIME WORK_DIR
"""

from __future__ import annotations

import gc
import heapq
import json
import resource
import sys
import time
from pathlib import Path


class _Event:
    __slots__ = ("t", "i", "v")


def calibrate(n: int = 200_000) -> float:
    """Host seconds of a fixed pure-Python loop: the machine-speed probe.

    It does the kind of work the simulator does (slotted objects, a heap,
    dict stores, float arithmetic) and uses no repository code, so a
    change to the program cannot move it; only the host's speed does.
    The garbage collector is off so the heap left by the workload does
    not leak into the measurement.
    """
    gc.disable()
    try:
        heap, table, acc = [], {}, 0.0
        t0 = time.perf_counter()
        for i in range(n):
            e = _Event()
            e.t, e.i, e.v = ((i * 7919) % 100003) * 1e-3, i, acc
            heapq.heappush(heap, (e.t, i, e))
            table[i & 8191] = e
            if len(heap) > 256:
                t, _, x = heapq.heappop(heap)
                acc += t * 1.0001 + (x.i & 7)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def main(argv) -> int:
    t_start = time.perf_counter()
    workload, size, seed, traced, spawn_time, work_dir = argv
    seed, traced, spawn_time = int(seed), traced == "1", float(spawn_time)
    clock = time.perf_counter

    t0 = clock()
    import repro  # noqa: F401  (the cost every user of the API pays)
    t_import = clock() - t0

    import workloads
    from layers import Tracer

    w = workloads.make(workload, size, seed, Path(work_dir))
    t1 = clock()
    w.build()
    t2 = clock()
    w.generate()
    t3 = clock()
    setup_s = time.time() - spawn_time

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    t4 = clock()
    try:
        w.run()
        t5 = clock()
        out = w.outputs()
    finally:
        w.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    del w
    gc.collect()

    result = {
        "ok": True,
        "setup_s": setup_s,
        "import_s": t_import,
        "build_s": t2 - t1,
        "gen_s": t3 - t2,
        "host_s": t5 - t4,
        "cal_s": calibrate(),
        "rss_mb": rss_mb,
        "numpy": sys.modules["numpy"].__version__,
        **out,
    }
    if tracer is not None:
        result["layers"] = tracer.rows()
        rel = lambda t: t - t_start  # noqa: E731
        result["spans"] = [
            ["setup", None, 0.0, rel(t3)],
            ["import", "setup", rel(t0), rel(t0 + t_import)],
            ["build", "setup", rel(t1), rel(t2)],
            ["generate", "setup", rel(t2), rel(t3)],
            ["run", None, rel(t4), rel(t5)],
        ] + [[name, parent if parent != "-" else "run", rel(a), rel(b)]
             for name, parent, a, b in tracer.spans]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
