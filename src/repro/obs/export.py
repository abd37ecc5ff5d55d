"""Exporters: Chrome trace-event JSON, CSV, Prometheus text exposition.

All three are pure functions of the :class:`~repro.obs.span.Observer`
contents — no wall clock, no environment lookups, stable ordering and
stable float rendering — so exporting the same seeded run twice yields
byte-identical files (asserted by ``tests/obs`` and the ``obs`` entry
of the CI cluster-smoke job).

The Chrome format targets ``chrome://tracing`` / Perfetto: span groups
become processes, tracks become named threads, spans are complete
(``"X"``) events, instants ``"i"`` events and counter series ``"C"``
events; span/parent ids ride along in ``args`` so the request hierarchy
survives the round trip.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.errors import ConfigError
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               _fmt_float)
from repro.obs.span import Observer

PathLike = Union[str, Path]

#: File suffixes routed to Prometheus text exposition by :func:`write_metrics`.
PROMETHEUS_SUFFIXES = (".prom", ".txt")


def _us(t: float) -> float:
    """Seconds -> microseconds, rounded to a stable sub-ns grid."""
    return round(t * 1e6, 3)


class _Lanes:
    """First-seen-order pid/tid assignment for groups and tracks."""

    def __init__(self) -> None:
        self.pids: Dict[str, int] = {}
        self.tids: Dict[Tuple[str, str], int] = {}

    def pid(self, group: str) -> int:
        if group not in self.pids:
            self.pids[group] = len(self.pids) + 1
        return self.pids[group]

    def tid(self, group: str, track: str) -> int:
        key = (group, track)
        if key not in self.tids:
            self.tids[key] = sum(1 for g, _ in self.tids if g == group) + 1
        return self.tids[key]


def to_chrome_trace(obs: Observer) -> dict:
    """The observer's records as a Chrome trace-event object."""
    lanes = _Lanes()
    events: List[dict] = []
    for s in obs.spans:
        args = dict(s.args)
        args["span_id"] = s.span_id
        if s.parent_id is not None:
            args["parent_id"] = s.parent_id
        events.append({
            "ph": "X", "name": s.name, "cat": s.cat or "default",
            "pid": lanes.pid(s.group), "tid": lanes.tid(s.group, s.track),
            "ts": _us(s.start_s), "dur": _us(s.end_s - s.start_s),
            "args": args,
        })
    for i in obs.instants:
        args = dict(i.args)
        if i.parent_id is not None:
            args["parent_id"] = i.parent_id
        events.append({
            "ph": "i", "s": "t", "name": i.name, "cat": i.cat or "default",
            "pid": lanes.pid(i.group), "tid": lanes.tid(i.group, i.track),
            "ts": _us(i.time_s), "args": args,
        })
    for c in obs.counters:
        events.append({
            "ph": "C", "name": c.name,
            "pid": lanes.pid(c.group), "tid": lanes.tid(c.group, c.track),
            "ts": _us(c.time_s), "args": {c.track: c.value},
        })

    meta: List[dict] = []
    for group, pid in lanes.pids.items():
        meta.append({"ph": "M", "name": "process_name", "pid": pid,
                     "args": {"name": group}})
    for (group, track), tid in lanes.tids.items():
        meta.append({"ph": "M", "name": "thread_name",
                     "pid": lanes.pids[group], "tid": tid,
                     "args": {"name": track}})
    return {"displayTimeUnit": "ms", "traceEvents": meta + events}


def chrome_trace_json(obs: Observer) -> str:
    """Canonical single-line JSON rendering (byte-stable)."""
    return json.dumps(to_chrome_trace(obs), sort_keys=True,
                      separators=(",", ":")) + "\n"


def write_chrome_trace(path: PathLike, obs: Observer) -> Path:
    """Write the Perfetto-loadable trace; returns the path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(chrome_trace_json(obs))
    return out


# -- spans as CSV -------------------------------------------------------------

SPAN_CSV_HEADER = ["span_id", "parent_id", "group", "track", "name", "cat",
                   "start_s", "end_s", "duration_s", "args"]


def write_spans_csv(path: PathLike, obs: Observer) -> Path:
    """Flat per-span rows (one line per closed span, close order)."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SPAN_CSV_HEADER)
        for s in obs.spans:
            writer.writerow([
                s.span_id, "" if s.parent_id is None else s.parent_id,
                s.group, s.track, s.name, s.cat,
                f"{s.start_s:.9f}", f"{s.end_s:.9f}",
                f"{s.duration_s:.9f}",
                ";".join(f"{k}={v}" for k, v in s.args),
            ])
    return out


# -- metrics ------------------------------------------------------------------

def write_metrics_csv(path: PathLike, registry: MetricsRegistry) -> Path:
    """Snapshot rows as CSV (metric, type, labels, value)."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "type", "labels", "value"])
        for row in registry.snapshot_rows():
            writer.writerow([row["metric"], row["type"], row["labels"],
                             _fmt_float(row["value"])])
    return out


def _prom_labels(items) -> str:
    if not items:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in items)
    return "{" + body + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """Prometheus text exposition (one ``# TYPE`` header per metric)."""
    lines: List[str] = []
    typed: Dict[str, str] = {}
    for inst in registry.instruments():
        if inst.name not in typed:
            typed[inst.name] = inst.kind
            lines.append(f"# TYPE {inst.name} {inst.kind}")
        if isinstance(inst, (Counter, Gauge)):
            lines.append(f"{inst.name}{_prom_labels(inst.labels)} "
                         f"{_fmt_float(inst.value)}")
        elif isinstance(inst, Histogram):
            for bound, cum in zip(inst.bounds, inst.cumulative()):
                items = inst.labels + (("le", _fmt_float(bound)),)
                lines.append(f"{inst.name}_bucket{_prom_labels(items)} {cum}")
            items = inst.labels + (("le", "+Inf"),)
            lines.append(f"{inst.name}_bucket{_prom_labels(items)} "
                         f"{inst.count}")
            lines.append(f"{inst.name}_sum{_prom_labels(inst.labels)} "
                         f"{_fmt_float(inst.sum)}")
            lines.append(f"{inst.name}_count{_prom_labels(inst.labels)} "
                         f"{inst.count}")
        else:  # pragma: no cover - registry only creates the three kinds
            raise ConfigError(f"unknown instrument type {type(inst)!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(path: PathLike, registry: MetricsRegistry) -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(prometheus_text(registry))
    return out


def write_metrics(path: PathLike, registry: MetricsRegistry) -> Path:
    """Dispatch on suffix: ``.prom``/``.txt`` -> Prometheus, else CSV."""
    if Path(path).suffix in PROMETHEUS_SUFFIXES:
        return write_prometheus(path, registry)
    return write_metrics_csv(path, registry)
