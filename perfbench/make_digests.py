#!/usr/bin/env python3
"""Regenerate ``digests.json``: the committed digests of simulated results.

Each digest comes from a fresh untraced repetition, exactly as the
benchmark runs it.  Regenerate only when the benchmark's own workload
definitions change; a change to the program that claims only speed must
leave every committed digest matching, so it never runs this script.

Seed 1 is the tuning seed, seed 2 the held-out seed; the other committed
seeds widen the exact check to the seeds a caller is likely to pass.

Usage (from the repository root)::

    python3 perfbench/make_digests.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from check import DIGESTS_PATH  # noqa: E402
from run import WORK_DIR, child_env  # noqa: E402
from workloads import PARAMS  # noqa: E402

FULL_SEEDS = range(0, 32)
TINY_SEEDS = (1,)


def digest(workload: str, size: str, seed: int) -> str:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "rep.py"), workload, size, str(seed),
         "0", "0", str(WORK_DIR)],
        cwd=BENCH.parent, env=child_env(), capture_output=True, text=True,
        timeout=300, check=True)
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    if rep["violations"]:
        raise SystemExit(f"{workload} {size} seed {seed}: {rep['violations']}")
    return rep["digest"]


def main() -> int:
    out: dict = {}
    for workload in PARAMS:
        for size, seeds in (("full", FULL_SEEDS), ("tiny", TINY_SEEDS)):
            if workload == "study-cold":
                # No random inputs: one digest for every seed (checked).
                a, b = digest(workload, size, 1), digest(workload, size, 2)
                if a != b:
                    raise SystemExit(f"{workload} {size} depends on the seed")
                out.setdefault(workload, {})[size] = {"any": a}
                continue
            out.setdefault(workload, {})[size] = {
                str(s): digest(workload, size, s) for s in seeds}
            print(f"{workload} {size}: {len(seeds)} seeds", flush=True)
    DIGESTS_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
