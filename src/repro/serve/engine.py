"""The batched-inference serving engine on the simulated clock.

A discrete-event loop over one model replica (one SW26010 node — its four
core groups already batch-parallelize inside the cost model). Requests from
an :class:`~repro.serve.arrivals.ArrivalPlan` enter a bounded admission
queue; a Clipper-style dynamic batcher dispatches a batch when it is full
(``max_batch``) **or** the oldest admitted request has waited
``max_wait_s`` **or** no future arrival can ever grow the batch; the batch
then occupies the engine for the cost model's forward time. Arrivals that
find the queue at ``queue_bound`` are *shed* — under a chaos fault plan the
engine degrades by shedding load and stretching compute, never by dying.

Scheduling invariants (pinned by ``tests/test_serve_engine.py``):

* a batch never exceeds ``max_batch`` requests;
* admission is FIFO and batches preserve arrival order;
* when the engine is idle, no admitted request waits past its
  ``max_wait_s`` deadline before dispatch;
* event time only moves forward, and the result is a pure function of
  (arrivals, cost model, config, ambient fault plan) — no wall clock.

Ambient integration mirrors the training-side subsystems:
``request_queued`` / ``batch_dispatch`` / ``batch_compute`` trace spans
are emitted only when a tracer is installed (the engine itself allocates
none), and fault hooks consult the ambient injector
(compute stretched by straggler/mesh degradation, per-batch transient
retries through the shared ``comm`` site).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

from repro.faults.injector import active as _injector, transient_delay
from repro.serve.arrivals import Request
from repro.serve.report import RequestRecord, ServeReport
from repro.trace.scaling import active as _scaling
from repro.trace.tracer import Span, active as _tracer


@dataclass(frozen=True)
class ServeConfig:
    """The batching and SLO knobs of one serving session."""

    #: Largest batch one dispatch may carry.
    max_batch: int = 8
    #: Longest an admitted request may wait for its batch to form while
    #: the engine is idle (the dynamic-batching deadline).
    max_wait_s: float = 0.010
    #: Admission-queue capacity; arrivals beyond it are shed.
    queue_bound: int = 64
    #: Latency objective requests are scored against.
    slo_s: float = 0.050

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {self.max_wait_s}")
        if self.queue_bound < 1:
            raise ValueError(f"queue_bound must be >= 1, got {self.queue_bound}")
        if self.slo_s <= 0:
            raise ValueError(f"slo_s must be > 0, got {self.slo_s}")


class ServingEngine:
    """Runs one arrival stream through dynamic batching and forward compute.

    ``cost_model`` is anything with ``compute_s(batch) -> float`` (a
    :class:`~repro.serve.costmodel.NetForwardCostModel` in production, a
    :class:`~repro.testing.stubs.TableCostModel` in tests).
    """

    def __init__(self, cost_model, config: ServeConfig | None = None) -> None:
        self.cost_model = cost_model
        self.config = config or ServeConfig()

    # ------------------------------------------------------------------ #
    def run(
        self,
        requests: Sequence[Request],
        *,
        model: str = "",
        arrivals: str = "",
    ) -> ServeReport:
        """Serve every request; returns the full latency report."""
        cfg = self.config
        tr = _tracer()
        fi = _injector()
        # Degradations apply to the whole session: a straggling node or a
        # degraded CPE mesh slows every batch by a constant factor.
        slow = 1.0
        if fi.enabled:
            slow = max(fi.comm_scale(0, 0), fi.mesh_degrade())

        by_arrival = attrgetter("arrival_s", "rid")
        pending = sorted(requests, key=by_arrival)
        queue: deque[Request] = deque()
        records: list[RequestRecord] = []
        queued_spans: dict[int, Span] = {}
        prev_batch_span: Span | None = None
        t = 0.0  # event time (simulated seconds)
        t_free = 0.0  # when the engine last went idle
        i = 0  # next not-yet-admitted arrival
        n_batches = 0

        def admit_until(now: float) -> None:
            nonlocal i
            while i < len(pending) and pending[i].arrival_s <= now:
                req = pending[i]
                i += 1
                if len(queue) >= cfg.queue_bound:
                    records.append(
                        RequestRecord(rid=req.rid, arrival_s=req.arrival_s, shed=True)
                    )
                    if tr.enabled:
                        tr.instant_event(
                            f"req{req.rid} shed", "request_shed",
                            track="serve/requests", start=req.arrival_s,
                            args={"rid": req.rid, "depth": len(queue)},
                        )
                    continue
                queue.append(req)
                if tr.enabled:
                    queued_spans[req.rid] = tr.instant_event(
                        f"req{req.rid}", "request_queued",
                        track="serve/requests", start=req.arrival_s,
                        args={"rid": req.rid, "depth": len(queue)},
                    )

        while i < len(pending) or queue:
            if not queue:
                t = max(t, pending[i].arrival_s)
            admit_until(t)
            if not queue:
                continue  # everything admitted at t was shed; jump again
            deadline = queue[0].arrival_s + cfg.max_wait_s
            exhausted = i >= len(pending)
            if len(queue) < cfg.max_batch and t < deadline and not exhausted:
                # Wait for whichever comes first: the batch-forming deadline
                # or the next arrival that could grow the batch.
                t = min(deadline, pending[i].arrival_s)
                continue

            # --- dispatch ------------------------------------------------ #
            batch = [queue.popleft() for _ in range(min(len(queue), cfg.max_batch))]
            size = len(batch)
            base_s = self.cost_model.compute_s(size) * slow
            sc = _scaling()
            if sc.enabled:
                # What-if validation: one multiply on the batch's forward
                # time, the same operation the projection applies.
                base_s *= sc.factor("batch")
            compute_s = base_s + transient_delay(
                "comm", base_s, track="serve/engine", at_s=t
            )
            if tr.enabled:
                # When this batch *could* have dispatched, engine
                # availability aside: its composition's earliest trigger
                # (full / deadline / arrivals exhausted), no earlier than
                # its last member's arrival. The critical-path graph floors
                # the batch there; the gap to the recorded start is engine
                # backlog, which a what-if can shrink.
                triggers = [batch[0].arrival_s + cfg.max_wait_s]
                if size == cfg.max_batch:
                    triggers.append(batch[-1].arrival_s)
                if i >= len(pending):
                    triggers.append(pending[-1].arrival_s if pending else t)
                ready_s = max(batch[-1].arrival_s, min(triggers))
                tr.instant_event(
                    f"batch{n_batches}", "batch_dispatch",
                    track="serve/scheduler", start=t,
                    args={"batch_id": n_batches, "size": size,
                          "backlog": len(queue)},
                )
                batch_span = tr.emit(
                    f"batch{n_batches} x{size}", "batch_compute",
                    track="serve/engine", start=t, dur=compute_s,
                    args={"batch_id": n_batches, "size": size,
                          "ready_s": ready_s},
                )
                for req in batch:
                    queued = queued_spans.pop(req.rid, None)
                    if queued is not None:
                        tr.edge(queued, batch_span)
                if prev_batch_span is not None:
                    # One engine: batches execute serially.
                    tr.edge(prev_batch_span, batch_span)
                prev_batch_span = batch_span
            for req in batch:
                queue_s = max(0.0, t_free - req.arrival_s)
                batch_s = t - max(req.arrival_s, t_free)
                rec = RequestRecord(
                    rid=req.rid,
                    arrival_s=req.arrival_s,
                    queue_s=queue_s,
                    batch_s=batch_s,
                    compute_s=compute_s,
                    batch_id=n_batches,
                    batch_size=size,
                )
                records.append(rec)
            n_batches += 1
            t = t_free = t + compute_s

        records.sort(key=by_arrival)
        return ServeReport(
            model=model or getattr(self.cost_model, "name", "") or "model",
            arrivals=arrivals,
            n_requests=len(pending),
            max_batch=cfg.max_batch,
            max_wait_s=cfg.max_wait_s,
            queue_bound=cfg.queue_bound,
            slo_s=cfg.slo_s,
            makespan_s=t,
            n_batches=n_batches,
            records=records,
            fault_seed=fi.plan.seed if fi.enabled else None,
        )
