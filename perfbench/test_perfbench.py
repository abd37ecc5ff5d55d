"""Self-tests of the benchmark (not part of the tier-1 suite).

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import uuid
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    path = BENCH / ".work" / f"test-{uuid.uuid4().hex}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def test_benchmark_json_matches_the_runner():
    assert [m["name"] for m in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} \
        == {k: v[:2] for k, v in run.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.PARAMS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line
                   for line in lines[:-1]), m["name"]


def test_refuses_to_run_without_the_program(workdir):
    (workdir / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, workdir / "perfbench")
    shutil.copy(BENCH / "digests.json", workdir / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    proc = bench("--workload", "cluster-steady", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=workdir)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", list(workloads.PARAMS))
def test_layer_wrappers_leave_results_bit_identical(workload, workdir):
    def rep(traced):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "rep.py"), workload, "tiny", "3",
             str(int(traced)), "0", str(workdir)],
            cwd=ROOT, env=run.child_env(), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    plain, traced = rep(False), rep(True)
    assert traced["digest"] == plain["digest"]
    assert traced["sim"] == plain["sim"]
    assert traced["counters"] == plain["counters"]
    assert traced["layers"] and "layers" not in plain


def test_committed_tiny_digests_still_match(workdir):
    digests = check.load_digests()
    for name in workloads.PARAMS:
        w = workloads.make(name, "tiny", 1, workdir)
        w.build()
        w.generate()
        w.run()
        out = w.outputs()
        w.close()
        assert out["violations"] == []
        expected = check.expected_digest(digests, name, "tiny", 1)
        assert expected is not None
        assert check.digest_violations(out["digest"], expected) == []


@pytest.fixture(scope="module")
def steady_tiny():
    w = workloads.make("cluster-steady", "tiny", 1, BENCH / ".work")
    w.build()
    w.generate()
    w.run()
    w.close()
    return w


def test_check_fails_on_a_perturbed_digest(steady_tiny):
    digest = check.cluster_digest(steady_tiny.report)
    assert check.digest_violations(digest, digest) == []
    assert check.digest_violations(digest, "0" * 64)
    r = steady_tiny.report.requests[0]
    saved = r.finish_s
    r.finish_s = saved + 1e-9
    try:
        assert check.cluster_digest(steady_tiny.report) != digest
    finally:
        r.finish_s = saved


@pytest.mark.parametrize("perturb", [
    "timestamps", "terminal_state", "node_meter", "energy", "missing"])
def test_check_fails_on_a_perturbed_invariant(steady_tiny, perturb):
    rep, nodes = steady_tiny.report, steady_tiny.cluster.nodes
    n = len(steady_tiny.requests)
    assert check.cluster_invariants(rep, nodes, n) == []
    r = rep.requests[5]
    saved = (r.first_token_s, r.rejected, r.energy_j, nodes[0].served_tokens)
    try:
        if perturb == "timestamps":
            r.first_token_s = r.finish_s + 1.0
        elif perturb == "terminal_state":
            r.rejected = True
        elif perturb == "node_meter":
            nodes[0].served_tokens += 1
        elif perturb == "energy":
            r.energy_j += sum(x.busy_energy_j for x in nodes)
        else:
            n += 1
        assert check.cluster_invariants(rep, nodes, n)
    finally:
        (r.first_token_s, r.rejected, r.energy_j,
         nodes[0].served_tokens) = saved


def test_study_check_fails_on_a_perturbed_invariant(workdir):
    w = workloads.make("study-cold", "tiny", 1, workdir)
    w.build()
    w.generate()
    w.run()
    runs = workloads.study_runs(w.results)
    stats = w.cache.stats
    w.close()
    assert check.study_invariants(runs, stats) == []
    stats.puts += 1
    assert check.study_invariants(runs, stats)
    stats.puts -= 1
    live = next(r for r in runs if not r.oom)
    live.energy_j = 0.0
    assert check.study_invariants(runs, stats)
