"""The shared grid runner: exact table/CSV bytes and axis order."""

import pytest

from repro.core.grid import GridReport, run_grid
from repro.fairness import FairnessSpec, run_fairness
from repro.kvtier import KvTierSpec, run_kvtier
from repro.plan import (PlanSpec, ValidationReport, ValidationSpec, plan,
                        run_validation)
from repro.sustain import SustainSpec, run_sustain

ROWS = [
    {"name": "a", "value": 1.5, "ok": True},
    {"name": "longer", "value": 20, "ok": False},
]


class TestGridReport:
    def test_table_bytes(self):
        # Every column is left-justified to its widest cell, the last
        # one included, so lines carry trailing padding.
        assert GridReport(ROWS).table() == (
            "name    value  ok   \n"
            "a       1.5    True \n"
            "longer  20     False"
        )

    def test_csv_bytes(self):
        assert GridReport(ROWS).csv() == (
            "name,value,ok\n"
            "a,1.5,True\n"
            "longer,20,False\n"
        )

    def test_empty_report_renders_nothing(self):
        assert GridReport().table() == ""
        assert GridReport().csv() == ""


def test_run_grid_walks_the_axes_outermost_first():
    calls = []

    def point(spec, x, y):
        calls.append((spec, x, y))
        return {"x": x, "y": y}

    report = run_grid("s", (("x", (1, 2)), ("y", ("a", "b", "c"))), point)
    assert type(report) is GridReport
    assert calls == [("s", 1, "a"), ("s", 1, "b"), ("s", 1, "c"),
                     ("s", 2, "a"), ("s", 2, "b"), ("s", 2, "c")]
    assert report.rows == [{"x": x, "y": y} for _, x, y in calls]


def test_run_grid_builds_the_requested_report_type():
    report = run_grid(None, (("x", (1,)),), lambda spec, x: {"x": x},
                      report=ValidationReport)
    assert isinstance(report, ValidationReport)
    assert report.rows == [{"x": 1}]


SWEEPS = {
    "kvtier": (
        run_kvtier,
        KvTierSpec(n_requests=16, policies=("sacrifice", "swap-lru"),
                   triggers=(1.0, 0.85), share_ratios=(0.0, 0.5)),
        lambda r: (r["share_ratio"], r["policy"].split("-")[0],
                   r["trigger"]),
        [(s, p, t) for s in (0.0, 0.5) for p in ("sacrifice", "swap")
         for t in (1.0, 0.85)],
    ),
    "fairness": (
        run_fairness,
        FairnessSpec(schedulers=("fcfs", "vtc"), mixes=("flood", "balanced"),
                     n_interactions=6, rate_per_s=3.0, mean_turns=2.0,
                     max_turns=3, mean_think_time_s=0.5),
        lambda r: (r["mix"], r["scheduler"]),
        [("flood", "fcfs"), ("flood", "vtc"),
         ("balanced", "fcfs"), ("balanced", "vtc")],
    ),
    "sustain": (
        run_sustain,
        SustainSpec(n_requests=8, scenarios=("uniform", "two-region"),
                    cascades=("off", "on")),
        lambda r: (r["scenario"], r["cascade"], r["router"]),
        [(s, c, r) for s in ("uniform", "two-region") for c in ("off", "on")
         for r in ("energy-aware", "carbon-aware")],
    ),
    "plan-validate": (
        run_validation,
        ValidationSpec(workloads=("poisson-low", "bursty"),
                       routers=("round-robin", "jsq"),
                       runtimes=("hf-transformers", "paged"), n_requests=12),
        lambda r: (r["workload"], r["router"], r["runtime"]),
        [(w, r, rt) for w in ("poisson-low", "bursty")
         for r in ("round-robin", "jsq")
         for rt in ("hf-transformers", "paged")],
    ),
    "plan": (
        plan,
        PlanSpec(runtimes=("hf-transformers", "gguf"),
                 power_modes=("MAXN", "C")),
        lambda r: (r["runtime"], r["precision"], r["power_mode"]),
        [(rt, "fp16", m) for rt in ("hf-transformers", "gguf")
         for m in ("MAXN", "C")],
    ),
}


@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_csv_is_reproducible_in_declared_order(name):
    """The CI gate, per grid: same spec, same bytes, declared row order."""
    run, spec, key, expected = SWEEPS[name]
    first = run(spec)
    assert first.csv() == run(spec).csv()
    assert first.csv().endswith("\n")
    assert [key(r) for r in first.rows] == expected
    assert len(first.table().splitlines()) == 1 + len(expected)
