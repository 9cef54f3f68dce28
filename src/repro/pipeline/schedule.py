"""Microbatch schedules: GPipe fill-drain and 1F1B, walked exactly.

A pipeline iteration is a set of ops — ``F(s, m)`` / ``B(s, m)`` for each
stage ``s`` and microbatch ``m`` — plus the boundary transfers between
them. Each *schedule* fixes a per-stage op order; the simulator then
walks the ops deterministically:

* a stage executes its ops strictly in schedule order, one at a time
  (a :class:`~repro.hw.clock.SerialResource` whose windows are ready
  when their dependencies are done);
* ``F(s, m)`` needs the forward boundary transfer of microbatch ``m``
  from stage ``s - 1``; ``B(s, m)`` needs the backward transfer from
  stage ``s + 1`` (and, on the last stage, its own ``F(s, m)``);
* each boundary link is full-duplex but serial per direction (one
  resource per direction, a transfer ready at its producer's end).

That walk *is* the schedule — no numerical fitting, no averaging — so
emitting its ops as spans with dep edges mirroring exactly the three
rules above lets the critical-path profiler's identity schedule reproduce
the recorded end-to-end time bitwise (the same contract the rest of the
tracer's instrumentation sites honor).

Bubble accounting: with perfectly balanced stages and free transfers,
both schedules idle each stage for ``(S - 1) / (M + S - 1)`` of the
iteration (the classic GPipe bubble fraction); the simulator reports the
realized value, which the ``pipeline.bubble_frac`` metric and the
``pipeline_bubble`` decoration spans expose.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple

from repro.hw.clock import SerialResource
from repro.trace.scaling import active as _scaling
from repro.trace.tracer import Tracer

SCHEDULES = ("fill_drain", "1f1b")


class OpRecord(NamedTuple):
    """One executed stage op (forward or backward of one microbatch)."""

    kind: str  # "F" | "B"
    stage: int
    microbatch: int
    start_s: float
    dur_s: float

    @property
    def end_s(self) -> float:
        return self.start_s + self.dur_s


class XferRecord(NamedTuple):
    """One boundary transfer (activations down, gradients up)."""

    kind: str  # "fwd" | "bwd"
    src: int
    dst: int
    microbatch: int
    start_s: float
    dur_s: float
    ready_s: float
    nbytes: float

    @property
    def end_s(self) -> float:
        return self.start_s + self.dur_s


@dataclass(frozen=True)
class PipelineTimeline:
    """The walked schedule of one pipeline iteration.

    :func:`simulate_pipeline`, which builds every timeline, stores ``ops``
    sorted by (stage, start) and ``xfers`` by (kind, source stage, start):
    each stage's ops and each link direction's transfers in the order they
    ran. :meth:`stage_gaps` and :func:`emit_pipeline_trace` walk them in
    that order without sorting again.
    """

    schedule: str
    n_stages: int
    n_microbatches: int
    ops: tuple[OpRecord, ...]
    xfers: tuple[XferRecord, ...]

    @cached_property
    def makespan_s(self) -> float:
        """Latest op or transfer end, scanned once per timeline."""
        return max(
            [op.end_s for op in self.ops] + [x.end_s for x in self.xfers],
            default=0.0,
        )

    @property
    def stage_busy_s(self) -> tuple[float, ...]:
        busy = [0.0] * self.n_stages
        for op in self.ops:
            busy[op.stage] += op.dur_s
        return tuple(busy)

    @property
    def bubble_frac(self) -> float:
        """Idle share of the stage×time area: ``1 - busy / (S * T)``."""
        t = self.makespan_s
        if t <= 0:
            return 0.0
        return 1.0 - sum(self.stage_busy_s) / (self.n_stages * t)

    def stage_gaps(self) -> list[list[tuple[float, float]]]:
        """Idle ``(start, dur)`` windows within the makespan, one list per
        stage, from one pass over the ops."""
        gaps: list[list[tuple[float, float]]] = [[] for _ in range(self.n_stages)]
        cursors = [0.0] * self.n_stages
        for op in self.ops:
            s, cursor = op.stage, cursors[op.stage]
            if op.start_s > cursor:
                gaps[s].append((cursor, op.start_s - cursor))
            cursors[s] = max(cursor, op.end_s)
        end = self.makespan_s
        for row, cursor in zip(gaps, cursors):
            if end > cursor:
                row.append((cursor, end - cursor))
        return gaps


def stage_orders(
    schedule: str, n_stages: int, n_microbatches: int
) -> list[list[tuple[str, int]]]:
    """Per-stage op order ``[(kind, microbatch), ...]`` for a schedule.

    ``fill_drain`` (GPipe): all forwards in microbatch order, then all
    backwards in *reverse* order (the last microbatch's activations are
    freshest). ``1f1b`` (PipeDream-flush): stage ``s`` warms up with
    ``min(S - 1 - s, M)`` forwards, alternates one-forward-one-backward
    through the steady state, and drains the remaining backwards in FIFO
    order. Both run every microbatch exactly once each way, so the data
    path (and the accumulated gradient) is schedule-independent.
    """
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}; use {SCHEDULES}")
    if n_stages < 1:
        raise ValueError("n_stages must be >= 1")
    if n_microbatches < 1:
        raise ValueError("n_microbatches must be >= 1")
    S, M = n_stages, n_microbatches
    orders: list[list[tuple[str, int]]] = []
    for s in range(S):
        ops: list[tuple[str, int]] = []
        if schedule == "fill_drain":
            ops.extend(("F", m) for m in range(M))
            ops.extend(("B", m) for m in reversed(range(M)))
        else:  # 1f1b
            warm = min(S - 1 - s, M)
            ops.extend(("F", m) for m in range(warm))
            for i in range(M - warm):
                ops.append(("F", warm + i))
                ops.append(("B", i))
            ops.extend(("B", i) for i in range(M - warm, M))
        orders.append(ops)
    return orders


def simulate_pipeline(
    stage_fwd_s: list[float],
    stage_bwd_s: list[float],
    *,
    n_microbatches: int,
    schedule: str = "1f1b",
    fwd_xfer_s: list[float] | None = None,
    bwd_xfer_s: list[float] | None = None,
    xfer_bytes: list[float] | None = None,
) -> PipelineTimeline:
    """Walk one pipeline iteration deterministically.

    ``stage_fwd_s[s]`` / ``stage_bwd_s[s]`` are stage ``s``'s per-microbatch
    compute times; ``fwd_xfer_s[i]`` / ``bwd_xfer_s[i]`` the transfer times
    across boundary ``i`` (default 0 — the free-transfer idealization the
    bubble-math unit tests pin). Under an ambient
    :class:`~repro.trace.scaling.CostScaling`, stage ops scale with the
    ``"stage"`` factor and transfers with ``"p2p"`` — the same operations
    the critical-path projection applies, so what-if validation holds
    bitwise.
    """
    S = len(stage_fwd_s)
    if len(stage_bwd_s) != S:
        raise ValueError("stage_fwd_s and stage_bwd_s must have equal length")
    M = n_microbatches
    orders = stage_orders(schedule, S, M)
    fwd_x = list(fwd_xfer_s) if fwd_xfer_s is not None else [0.0] * (S - 1)
    bwd_x = list(bwd_xfer_s) if bwd_xfer_s is not None else [0.0] * (S - 1)
    nbytes = list(xfer_bytes) if xfer_bytes is not None else [0.0] * (S - 1)
    if len(fwd_x) != S - 1 or len(bwd_x) != S - 1 or len(nbytes) != S - 1:
        raise ValueError(f"boundary arrays must have length {S - 1}")
    sc = _scaling()
    if sc.enabled:
        stage_fwd_s = [t * sc.factor("stage") for t in stage_fwd_s]
        stage_bwd_s = [t * sc.factor("stage") for t in stage_bwd_s]
        fwd_x = [t * sc.factor("p2p") for t in fwd_x]
        bwd_x = [t * sc.factor("p2p") for t in bwd_x]

    # Walk state: per-stage op pointer, one serial resource per stage and
    # per (direction, link), completed op end times, scheduled transfers.
    pointer = [0] * S
    stages = [SerialResource() for _ in range(S)]
    links = {
        (kind, i): SerialResource() for kind in ("fwd", "bwd") for i in range(S - 1)
    }
    op_end: dict[tuple[str, int, int], float] = {}
    xfer_end: dict[tuple[str, int, int], float] = {}
    ops: list[OpRecord] = []
    xfers: list[XferRecord] = []

    def _schedule_xfer(kind: str, boundary: int, m: int, ready: float) -> None:
        dur = (fwd_x if kind == "fwd" else bwd_x)[boundary]
        w = links[(kind, boundary)].reserve(ready, dur)
        src, dst = (boundary, boundary + 1) if kind == "fwd" else (boundary + 1, boundary)
        xfers.append(
            XferRecord(
                kind=kind,
                src=src,
                dst=dst,
                microbatch=m,
                start_s=w.start_s,
                dur_s=dur,
                ready_s=ready,
                nbytes=nbytes[boundary],
            )
        )
        xfer_end[(kind, boundary, m)] = w.end_s

    total = sum(len(o) for o in orders)
    done = 0
    while done < total:
        progressed = False
        for s in range(S):
            while pointer[s] < len(orders[s]):
                kind, m = orders[s][pointer[s]]
                if kind == "F":
                    dep = 0.0 if s == 0 else xfer_end.get(("fwd", s - 1, m))
                else:
                    if s == S - 1:
                        dep = op_end.get(("F", s, m))
                    else:
                        dep = xfer_end.get(("bwd", s, m))
                if dep is None:
                    break  # dependency not produced yet; try other stages
                dur = (stage_fwd_s if kind == "F" else stage_bwd_s)[s]
                w = stages[s].reserve(dep, dur)
                ops.append(
                    OpRecord(kind=kind, stage=s, microbatch=m, start_s=w.start_s, dur_s=dur)
                )
                end = w.end_s
                op_end[(kind, s, m)] = end
                pointer[s] += 1
                done += 1
                progressed = True
                if kind == "F" and s < S - 1:
                    _schedule_xfer("fwd", s, m, end)
                if kind == "B" and s > 0:
                    _schedule_xfer("bwd", s - 1, m, end)
        if not progressed:
            raise RuntimeError(
                f"pipeline schedule deadlocked at {done}/{total} ops "
                f"(schedule={schedule!r}, S={S}, M={M})"
            )
    timeline = PipelineTimeline(
        schedule=schedule,
        n_stages=S,
        n_microbatches=M,
        ops=tuple(sorted(ops, key=attrgetter("stage", "start_s"))),
        xfers=tuple(sorted(xfers, key=attrgetter("kind", "src", "start_s"))),
    )
    return timeline


def emit_pipeline_trace(
    tracer: Tracer, timeline: PipelineTimeline, *, origin_s: float = 0.0
) -> None:
    """Emit one walked iteration as spans with critical-path dep edges.

    Tracks: ``pipeline/stage<s>`` for compute ops (``stage_fwd`` /
    ``stage_bwd``), ``pipeline/link<i>-<i+1>/{fwd,bwd}`` for boundary
    transfers (``activation_xfer``, each carrying its ``ready_s`` release
    floor), plus ``pipeline_bubble`` decoration spans over each stage's
    idle gaps. Dep edges mirror the simulator's three waiting rules —
    same-track emission order covers the serial-stage and serial-link
    rules, explicit edges carry the cross-track producer/consumer ones —
    so the identity critical-path schedule reproduces every recorded end
    time exactly (pinned by ``tests/test_pipeline_trace.py``).

    ``origin_s`` shifts the whole iteration on the trace timeline — the
    trainer passes its running simulated time so consecutive iterations
    don't overlap on the shared tracks.
    """
    if not tracer.enabled:
        return
    op_spans = {}
    xfer_spans = {}
    for op in timeline.ops:
        cat = "stage_fwd" if op.kind == "F" else "stage_bwd"
        span = tracer.emit(
            f"{op.kind}{op.microbatch}",
            cat,
            track=f"pipeline/stage{op.stage}",
            start=origin_s + op.start_s,
            dur=op.dur_s,
            args={"stage": op.stage, "microbatch": op.microbatch},
        )
        op_spans[(op.kind, op.stage, op.microbatch)] = span
    for x in timeline.xfers:
        boundary = min(x.src, x.dst)
        span = tracer.emit(
            f"{'act' if x.kind == 'fwd' else 'grad'} m{x.microbatch} "
            f"{x.src}->{x.dst}",
            "activation_xfer",
            track=f"pipeline/link{boundary}-{boundary + 1}/{x.kind}",
            start=origin_s + x.start_s,
            dur=x.dur_s,
            args={
                "microbatch": x.microbatch,
                "bytes": x.nbytes,
                "ready_s": origin_s + x.ready_s,
                "src": x.src,
                "dst": x.dst,
            },
        )
        xfer_spans[(x.kind, boundary, x.microbatch)] = span
        producer = op_spans.get(("F" if x.kind == "fwd" else "B", x.src, x.microbatch))
        if producer is not None:
            tracer.edge(producer, span)
    S = timeline.n_stages
    for op in timeline.ops:
        key = (op.kind, op.stage, op.microbatch)
        if op.kind == "F" and op.stage > 0:
            tracer.edge(xfer_spans[("fwd", op.stage - 1, op.microbatch)], op_spans[key])
        elif op.kind == "B":
            if op.stage == S - 1:
                tracer.edge(op_spans[("F", op.stage, op.microbatch)], op_spans[key])
            else:
                tracer.edge(xfer_spans[("bwd", op.stage, op.microbatch)], op_spans[key])
    for s, gaps in enumerate(timeline.stage_gaps()):
        for start, dur in gaps:
            tracer.emit(
                "bubble",
                "pipeline_bubble",
                track=f"pipeline/stage{s}",
                start=origin_s + start,
                dur=dur,
                args={"stage": s},
            )
