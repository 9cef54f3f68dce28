"""Dynamic-batching engine invariants (:mod:`repro.serve.engine`).

The scheduling contract from the module docstring, pinned: batch bound,
FIFO order, the idle-dispatch deadline, shedding at the queue bound,
latency-split accounting, bit-for-bit determinism, graceful degradation
under a fault plan, and zero collector state when tracing is off.
"""

from __future__ import annotations

import pytest

from repro.faults.injector import FaultInjector, injecting
from repro.faults.plan import FaultPlan
from repro.serve.arrivals import ArrivalPlan, Request
from repro.serve.costmodel import TableCostModel
from repro.serve.engine import ServeConfig, ServingEngine
from repro.trace.tracer import NULL_TRACER, Tracer, active as tracer_active, tracing

#: Flat 20 ms forward regardless of batch — the "batching is free" abstraction
#: of the four core groups, spelled out per batch so nothing extrapolates.
FLAT = TableCostModel({b: 0.020 for b in range(1, 9)})


def poisson(rate=100.0, n=80, index=0):
    return ArrivalPlan.from_seed(
        f"poisson:0xc0ffee:{index}", rate_rps=rate, n_requests=n
    ).generate()


def run(requests, cost_model=FLAT, **knobs):
    return ServingEngine(cost_model, ServeConfig(**knobs)).run(requests)


class TestConfig:
    @pytest.mark.parametrize(
        "knobs",
        [
            {"max_batch": 0},
            {"max_wait_s": -0.1},
            {"queue_bound": 0},
            {"slo_s": 0.0},
        ],
    )
    def test_invalid_knobs_rejected(self, knobs):
        with pytest.raises(ValueError):
            ServeConfig(**knobs)


class TestInvariants:
    def test_every_request_is_accounted_exactly_once(self):
        report = run(poisson(), max_batch=4, queue_bound=8)
        assert report.n_completed + report.n_shed == report.n_requests == 80
        assert sorted(r.rid for r in report.records) == list(range(80))

    def test_batch_never_exceeds_max_batch(self):
        report = run(poisson(rate=500.0), max_batch=3)
        assert report.records and all(
            r.batch_size <= 3 for r in report.completed
        )

    def test_fifo_dispatch_order(self):
        report = run(poisson(), max_batch=4)
        by_arrival = sorted(report.completed, key=lambda r: (r.arrival_s, r.rid))
        batch_ids = [r.batch_id for r in by_arrival]
        assert batch_ids == sorted(batch_ids)

    def test_idle_dispatch_never_overshoots_the_deadline(self):
        """A request admitted while the engine is idle (queue_s == 0) waits
        at most max_wait_s for its batch to form."""
        report = run(poisson(rate=30.0), max_batch=8, max_wait_s=0.005)
        idle = [r for r in report.completed if r.queue_s == 0.0]
        assert idle  # the low-rate stream must exercise the idle path
        assert all(r.batch_s <= 0.005 + 1e-12 for r in idle)

    def test_sheds_exactly_past_the_queue_bound(self):
        burst = tuple(Request(rid=i, arrival_s=0.001) for i in range(20))
        report = run(burst, max_batch=2, max_wait_s=0.0, queue_bound=4)
        # t=0.001: 4 admitted, 16 arrivals find the bound -> shed... but the
        # engine drains 2 per dispatch at t, so admission interleaves; the
        # invariant is just conservation + a nonzero shed count.
        assert report.n_shed > 0
        assert report.n_completed + report.n_shed == 20
        shed = [r for r in report.records if r.shed]
        assert all(r.batch_size == 0 and r.latency_s == 0.0 for r in shed)

    def test_latency_split_sums_to_done_minus_arrival(self):
        report = run(poisson(rate=200.0), max_batch=4, queue_bound=16)
        for r in report.completed:
            assert r.latency_s == pytest.approx(
                r.queue_s + r.batch_s + r.compute_s
            )
            assert r.queue_s >= 0 and r.batch_s >= -1e-12 and r.compute_s > 0

    def test_deterministic_replay(self):
        a = run(poisson(index=4), max_batch=4)
        b = run(poisson(index=4), max_batch=4)
        assert a.records == b.records
        assert a.makespan_s == b.makespan_s and a.n_batches == b.n_batches


class TestBatchingWins:
    def test_dynamic_batching_beats_batch1_under_overload(self):
        """Offered load is 2.5x the batch=1 service rate but well under the
        batched one; with a flat cost table batching is free throughput."""
        requests = poisson(rate=125.0, n=120)
        slo = dict(slo_s=0.2, queue_bound=32)
        batch1 = run(requests, max_batch=1, max_wait_s=0.0, **slo)
        dynamic = run(requests, max_batch=8, max_wait_s=0.005, **slo)
        assert dynamic.throughput_rps > batch1.throughput_rps
        assert dynamic.goodput_rps > batch1.goodput_rps
        assert dynamic.slo_attainment > batch1.slo_attainment
        assert dynamic.mean_batch_size > 1.5


class TestFaults:
    def test_degrades_by_shedding_not_dying(self):
        plan = FaultPlan.from_seed("chaos:0x5caffe:0", ranks=1, iterations=1)
        with injecting(FaultInjector(plan)):
            report = run(poisson(rate=120.0, n=100), max_batch=4, queue_bound=8)
        assert report.fault_seed == "chaos:0x5caffe:0"
        assert report.n_completed + report.n_shed == 100
        assert report.makespan_s > 0

    def test_degradation_slows_compute_vs_fault_free(self):
        requests = poisson(rate=50.0, n=60)
        clean = run(requests, max_batch=4)
        plan = FaultPlan.from_seed("degrade:0x5caffe:0", ranks=1, iterations=1)
        with injecting(FaultInjector(plan)):
            slowed = run(requests, max_batch=4)
        assert slowed.makespan_s >= clean.makespan_s
        assert clean.fault_seed is None

    def test_mesh_degradation_stretches_every_batch_by_its_factor(self):
        # The engine is the one site that reads ``mesh_degrade``. This plan
        # has no stragglers and no transient faults, so the factor alone
        # sets each batch's compute.
        requests = poisson(rate=50.0, n=60)
        plan = FaultPlan(seed="x", profile="degrade", ranks=1, iterations=1, mesh_factor=2.5)
        with injecting(plan) as fi:
            slowed = run(requests, max_batch=4)
        assert slowed.completed
        for rec in slowed.completed:
            assert rec.compute_s == FLAT.compute_s(rec.batch_size) * 2.5
        assert fi.injected["mesh_degrade"] == 1

        bare = run(requests, max_batch=4)
        with injecting(FaultPlan(seed="none", profile="transient", ranks=1, iterations=1)):
            zero = run(requests, max_batch=4)
        assert zero.records == bare.records


class TestInertness:
    def test_disabled_collectors_allocate_no_state(self):
        assert tracer_active() is NULL_TRACER
        bare = run(poisson(index=2), max_batch=4)
        assert tracer_active() is NULL_TRACER
        assert len(NULL_TRACER.spans) == 0
        # ... and the result is bit-identical with a tracer installed.
        tracer = Tracer()
        with tracing(tracer):
            observed = run(poisson(index=2), max_batch=4)
        assert observed.records == bare.records
        assert observed.makespan_s == bare.makespan_s
        assert len(tracer.spans) > 0
