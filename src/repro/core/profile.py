"""Deterministic profiling entry point for the harness hot path.

``repro profile`` answers "where does a cold run actually spend its
time?" without asking the user to wire up cProfile by hand.  It runs a
small spec list serially (no cache, so every spec takes the cold
simulate path), under :mod:`cProfile`, and renders a report that is
**stable across runs**: rows are sorted by ``(-cumtime, file, line,
name)``, paths are printed repo-relative, and only the top N rows are
shown — so two profiles of the same build diff cleanly and a regression
shows up as a reordered table, not noise.

Wall-clock caveat: cProfile's per-call hook inflates cheap, frequently
called functions (the allocator's per-op path can read ~4x its true
share), so treat the report as a map of *where to look*, and confirm
ratios with ``benchmarks/bench_harness_speed.py`` which times the same
scenarios un-instrumented.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class ProfileRow:
    """One function's aggregate cost within the profiled region."""

    ncalls: int
    tottime: float
    cumtime: float
    where: str  # "path:line(function)" with repo-relative path

    def as_row(self) -> dict:
        return {
            "ncalls": self.ncalls,
            "tottime_s": round(self.tottime, 6),
            "cumtime_s": round(self.cumtime, 6),
            "function": self.where,
        }


@dataclass(frozen=True)
class ProfileReport:
    """Deterministic top-N view of one profiled run."""

    rows: Tuple[ProfileRow, ...]
    total_calls: int
    total_seconds: float
    n_specs: int

    def format(self) -> str:
        lines = [
            f"profile: {self.n_specs} spec(s), {self.total_calls} calls, "
            f"{self.total_seconds:.3f}s total (cProfile-instrumented)",
            f"{'ncalls':>10s} {'tottime':>9s} {'cumtime':>9s}  function",
        ]
        for r in self.rows:
            lines.append(f"{r.ncalls:>10d} {r.tottime:>9.4f} "
                         f"{r.cumtime:>9.4f}  {r.where}")
        return "\n".join(lines)


def _repo_relative(path: str) -> str:
    """Shorten an absolute source path for stable, readable reports.

    Paths inside this package become relative to the ``src`` root
    (``repro/engine/executor.py``); everything else (stdlib,
    site-packages) keeps its final two components, which is enough to
    identify the module without leaking machine-specific prefixes.
    """
    if path.startswith("~") or path == "<string>":
        return path  # builtins render as "~"; keep as-is
    p = Path(path)
    src_root = Path(__file__).resolve().parents[2]  # .../src
    try:
        return p.resolve().relative_to(src_root).as_posix()
    except ValueError:
        return "/".join(p.parts[-2:]) if len(p.parts) >= 2 else path


def report_from_stats(stats: pstats.Stats, top: int = 25,
                      n_specs: int = 0) -> ProfileReport:
    """Reduce raw pstats to the deterministic top-N report."""
    rows = []
    total_calls = 0
    for (path, line, name), (cc, nc, tt, ct, _callers) in stats.stats.items():
        total_calls += nc
        where = f"{_repo_relative(path)}:{line}({name})"
        rows.append(ProfileRow(ncalls=nc, tottime=tt, cumtime=ct, where=where))
    # cumtime descending; file:line(name) breaks ties so equal-cost rows
    # (common for trivial dunders) land in one canonical order.
    rows.sort(key=lambda r: (-r.cumtime, r.where))
    return ProfileReport(rows=tuple(rows[:top]), total_calls=total_calls,
                         total_seconds=stats.total_tt, n_specs=n_specs)


def profile_specs(
    specs: Sequence,
    params=None,
    top: int = 25,
) -> ProfileReport:
    """cProfile a serial, uncached run of ``specs``; return the report.

    The run is forced serial and cache-less so the profile captures the
    cold simulate path itself — not pickle/dispatch overhead or cache
    hits, which the benchmarks measure separately.
    """
    from repro.core.experiment import run_experiment
    from repro.memsys.fastpath import TRAJECTORY_CACHE

    # A warm trajectory cache would hide the very work being profiled.
    TRAJECTORY_CACHE.clear()
    prof = cProfile.Profile()
    prof.enable()
    try:
        for spec in specs:
            run_experiment(spec, params=params, cache=None)
    finally:
        prof.disable()
    stats = pstats.Stats(prof)
    return report_from_stats(stats, top=top, n_specs=len(specs))


def default_profile_specs(models: Optional[Sequence[str]] = None,
                          n_runs: int = 2) -> List:
    """A small, representative cold workload: one default-precision spec
    plus one larger-context spec per model."""
    from repro.core.experiment import ExperimentSpec
    from repro.engine.request import GenerationSpec

    names = list(models) if models else ["llama"]
    specs = []
    for name in names:
        specs.append(ExperimentSpec.for_model(name, n_runs=n_runs))
        specs.append(ExperimentSpec.for_model(
            name, n_runs=n_runs, batch_size=16,
            gen=GenerationSpec(128, 256)))
    return specs
