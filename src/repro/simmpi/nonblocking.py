"""Nonblocking collective launches scheduled on the simulated clock.

Modern data-parallel stacks hide gradient-allreduce latency by launching
one ``MPI_Iallreduce`` per gradient bucket as soon as the backward pass
finishes the bucket's layers, completing them all before the optimizer
step. :class:`IAllreduceQueue` reproduces that scheduling discipline in
the simulator:

* the *data* path is exact — each launch runs the real simulated
  collective (buffers move through the algorithm, results are bit-exact),
  so bucketed and fused training produce identical gradients;
* the *time* path is a schedule — the fabric is a
  :class:`~repro.hw.clock.SerialResource` serving one collective at a
  time for its simulated duration. Whatever fits before the caller's
  barrier (the end of backward compute) is *hidden*; only the remainder
  lands on the iteration's critical path.

The communicator's clock keeps its existing meaning — total network
occupancy — while the queue tracks where on the timeline each request
ran, which is what the trace's service and overlap spans report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hw.clock import Reservation, SerialResource
from repro.simmpi.comm import CollectiveResult, SimComm
from repro.trace.tracer import Span, active as _tracer


@dataclass
class PendingCollective(Reservation):
    """One in-flight (or completed) nonblocking collective request; its
    window lasts the blocking collective's simulated duration."""

    tag: str
    result: CollectiveResult = field(default_factory=CollectiveResult)
    #: The per-rank buffers the collective reduced (in place) — the request
    #: owns them until :meth:`IAllreduceQueue.wait_all` hands them back.
    buffers: list[np.ndarray] = field(default_factory=list)
    done: bool = False
    #: The launch instant's trace span (None when tracing is off); the
    #: service window recorded at :meth:`IAllreduceQueue.wait_all` hangs
    #: its causal edge off it.
    launch_span: Span | None = None


class IAllreduceQueue:
    """Launches allreduces nonblocking-style over a serial fabric.

    Parameters
    ----------
    comm:
        The communicator every launch runs over.
    collective:
        Blocking allreduce ``fn(comm, buffers, *, average)`` (any member of
        the simulated family).
    origin_s:
        Timeline origin for the schedule; defaults to the communicator
        clock's current time, so per-iteration queues line up with the
        accumulated comm time of earlier iterations.
    """

    def __init__(self, comm: SimComm, collective, origin_s: float | None = None) -> None:
        self.comm = comm
        self._collective = collective
        self.origin_s = comm.clock.now if origin_s is None else float(origin_s)
        #: The network, serving one collective at a time.
        self.fabric = SerialResource(self.origin_s)
        #: Launched-but-unwaited requests, in launch order.
        self.pending: list[PendingCollective] = []

    def iallreduce(
        self,
        buffers: list[np.ndarray],
        *,
        ready_s: float | None = None,
        average: bool = False,
        tag: str = "",
    ) -> PendingCollective:
        """Launch one nonblocking allreduce of ``buffers``.

        ``ready_s`` is the simulated time the buffers became available
        (defaults to the queue origin). The reduction itself executes
        immediately — data is bit-exact the moment this returns — while
        the occupied network window is scheduled serially after any
        earlier request. Raises :class:`~repro.errors.CollectiveTimeout`
        like the blocking collective if a participating rank is dead; in
        that case nothing is enqueued and already-pending requests must be
        discarded by the caller (see :meth:`discard`).
        """
        ready = self.origin_s if ready_s is None else float(ready_s)
        t0 = self.comm.clock.now
        result = self._collective(self.comm, buffers, average=average)
        req = self.fabric.reserve(
            ready, self.comm.clock.now - t0, PendingCollective,
            tag=tag, result=result, buffers=list(buffers),
        )
        self.pending.append(req)
        tr = _tracer()
        if tr.enabled:
            req.launch_span = tr.instant_event(
                f"iallreduce {tag}" if tag else "iallreduce",
                "collective_launch",
                track="comm/launch",
                start=ready,
                args={
                    "tag": tag,
                    "bytes": float(buffers[0].nbytes) if buffers else 0.0,
                    "queued_s": req.start_s - ready,
                },
            )
        return req

    def wait_all(self, *, barrier_s: float | None = None) -> list[PendingCollective]:
        """Complete every pending request (the pre-update synchronization).

        ``barrier_s`` is the simulated time the local backward compute
        finished; service before it counts as *hidden* comm, service after
        it as *exposed*. Returns the completed requests in launch order.
        """
        completed, self.pending = self.pending, []
        tr = _tracer()
        for req in completed:
            req.done = True
            if not tr.enabled:
                continue
            self.fabric.emit(
                tr, req, f"allreduce {req.tag}" if req.tag else "allreduce",
                "collective_service", track="comm/fabric", args={"tag": req.tag},
                barrier_s=barrier_s, launch=req.launch_span,
            )
            if barrier_s is None:
                continue
            hidden = req.hidden_before(barrier_s)
            if hidden > 0:
                tr.emit(
                    f"overlap {req.tag}" if req.tag else "overlap",
                    "overlap_window",
                    track="comm/overlap",
                    start=req.start_s,
                    dur=hidden,
                    args={
                        "tag": req.tag,
                        "hidden_s": hidden,
                        "exposed_s": req.dur_s - hidden,
                        "barrier_s": barrier_s,
                    },
                )
        return completed

    def discard(self) -> list[PendingCollective]:
        """Drop every pending request without completing it.

        The elastic trainer calls this when a rank crash aborts an
        iteration mid-flight: launched-but-uncompleted bucket allreduces
        must not leak their (possibly partially-reduced) buffers into the
        rebuilt communicator's next iteration. Returns the dropped
        requests for inspection.
        """
        dropped, self.pending = self.pending, []
        return dropped
