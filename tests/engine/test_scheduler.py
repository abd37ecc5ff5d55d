"""Request-level serving: static vs continuous batching."""

import copy

import pytest

from repro.cluster.workload import poisson_workload
from repro.engine.scheduler import (
    ContinuousBatchScheduler,
    ServeRequest,
    StaticBatchScheduler,
)
from repro.errors import ExperimentError
from repro.hardware import get_device
from repro.models import get_model
from repro.quant.dtypes import Precision


def make_sched(kind, model="llama", max_batch=8, **kw):
    cls = StaticBatchScheduler if kind == "static" else ContinuousBatchScheduler
    return cls(get_device("jetson-orin-agx-64gb"), get_model(model),
               Precision.FP16, max_batch=max_batch, **kw)


def workload(rate=2.0, n=24, seed=3, out=16):
    return poisson_workload(rate, n, input_tokens=16, output_tokens=out,
                            seed=seed)


class TestWorkloadGen:
    def test_arrivals_sorted_and_seeded(self):
        a = workload(seed=5)
        b = workload(seed=5)
        assert [r.arrival_s for r in a] == [r.arrival_s for r in b]
        assert [r.arrival_s for r in a] == sorted(r.arrival_s for r in a)

    def test_mean_rate_approximates_lambda(self):
        reqs = poisson_workload(10.0, 500, seed=1)
        assert reqs[-1].arrival_s == pytest.approx(50.0, rel=0.25)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            poisson_workload(0.0, 5)
        with pytest.raises(ExperimentError):
            poisson_workload(1.0, 0)


class TestStatic:
    def test_all_requests_complete_with_metrics(self):
        report = make_sched("static").serve(workload())
        assert report.n_requests == 24
        for r in report.requests:
            assert r.finish_s is not None
            assert r.first_token_s is not None
            assert r.ttft_s >= 0
            assert r.latency_s >= r.ttft_s

    def test_batches_bounded_by_max_batch(self):
        report = make_sched("static", max_batch=4).serve(workload())
        assert report.n_requests == 24

    def test_later_arrivals_wait_for_running_batch(self):
        """With a single-slot server, TTFT grows along the queue."""
        reqs = [ServeRequest(i, 0.01 * i, 16, 16) for i in range(4)]
        report = StaticBatchScheduler(
            get_device("jetson-orin-agx-64gb"), get_model("llama"),
            Precision.FP16, max_batch=1, max_wait_s=0.0,
        ).serve(reqs)
        ttfts = [r.ttft_s for r in sorted(report.requests, key=lambda r: r.req_id)]
        assert ttfts == sorted(ttfts)
        assert ttfts[-1] > 3 * ttfts[0] if ttfts[0] > 0 else True


class TestContinuous:
    def test_all_requests_complete(self):
        report = make_sched("continuous").serve(workload())
        assert report.n_requests == 24
        assert report.mean_tpot_s > 0

    def test_beats_static_on_ttft_under_load(self):
        """The iteration-level scheduler admits new requests mid-batch,
        so tail TTFT collapses versus run-to-completion batching."""
        reqs = workload(rate=4.0, n=32, out=32)
        static = make_sched("static").serve(copy.deepcopy(reqs))
        cont = make_sched("continuous").serve(copy.deepcopy(reqs))
        assert cont.p95_ttft_s < static.p95_ttft_s

    def test_respects_kv_budget(self):
        # A tiny budget forces admission control but must still finish.
        sched = make_sched("continuous", max_batch=8,
                           kv_budget_bytes=int(50e6))
        report = sched.serve(workload(n=12))
        assert report.n_requests == 12

    def test_impossible_budget_rejected(self):
        with pytest.raises(ExperimentError):
            make_sched("continuous", model="mistral",
                       kv_budget_bytes=-1)  # explicit nonsense budget
