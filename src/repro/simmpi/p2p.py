"""Point-to-point transfers between simulated ranks.

The collectives in this package are lockstep algorithms; pipeline-parallel
training needs the other MPI primitive family — matched ``send``/``recv``
between two ranks (activations downstream, gradients upstream). A
:class:`P2PTransport` prices those messages on the same fabric/topology
cost model the collectives use (:meth:`~repro.simmpi.comm.SimComm.pair_time`)
and follows the package's data/time split:

* the *data* path is exact — every send deposits a bitwise copy of the
  payload into a (src, dst, tag)-keyed mailbox, and ``recv`` hands back
  exactly those bytes, so pipeline-stage training stays bit-identical to
  a single-rank run;
* the *time* path is accounted — blocking ``send`` advances the
  communicator clock by the priced transfer; nonblocking ``isend`` runs
  the transfer immediately (data exact) while its network window is
  scheduled serially after earlier requests, mirroring
  :class:`~repro.simmpi.nonblocking.IAllreduceQueue`.

Fault hooks ride the existing ``"comm"`` transient site (a flaky link
retries the transfer with identical data, its time charged to the
communicator clock), dead ranks raise
:class:`~repro.errors.CollectiveTimeout` like a collective step would, and
``p2p_transfer`` spans carry dep edges so the critical-path profiler sees
activation transfers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CommunicatorError
from repro.faults.injector import active as _faults, charge_transient
from repro.hw.clock import Reservation, SerialResource
from repro.simmpi.comm import SimComm
from repro.trace.scaling import active as _scaling
from repro.trace.tracer import Span, active as _tracer


@dataclass
class P2PResult:
    """Outcome accounting of one blocking point-to-point transfer."""

    time_s: float = 0.0
    nbytes: float = 0.0
    src: int = 0
    dst: int = 0
    cross_supernode: bool = False


@dataclass
class PendingTransfer(Reservation):
    """One in-flight (or completed) nonblocking p2p transfer; its window
    lasts the blocking transfer's priced duration."""

    tag: str
    src: int
    dst: int
    nbytes: float
    cross_supernode: bool = False
    done: bool = False
    launch_span: Span | None = None
    #: The service window's span, recorded at :meth:`P2PTransport.wait_all`.
    service_span: Span | None = None


class P2PTransport:
    """Matched send/recv between ranks of one communicator.

    Parameters
    ----------
    comm:
        The communicator transfers are priced over (fabric, placement,
        cost model, clock, failed-rank set). Its clock's current time is
        the origin of the nonblocking schedule.
    """

    def __init__(self, comm: SimComm) -> None:
        self.comm = comm
        #: Timeline origin of the nonblocking schedule.
        self.origin_s = comm.clock.now
        #: The network nonblocking transfers are served on, one at a time.
        self.fabric = SerialResource(self.origin_s)
        #: Launched-but-unwaited nonblocking transfers, in launch order.
        self.pending: list[PendingTransfer] = []
        self._mailbox: dict[tuple[int, int, str], list[np.ndarray]] = {}
        #: The previous blocking transfer's span — the fabric serves one
        #: message at a time, so each transfer depends on the last.
        self._prev_span: Span | None = None

    # ------------------------------------------------------------------ #
    # shared delivery path
    # ------------------------------------------------------------------ #
    def _deliver(
        self, src: int, dst: int, payload, tag: str
    ) -> tuple[float, float, float, bool]:
        """The data path of every send: check both endpoints, price the
        transfer and deposit a bitwise copy of ``payload`` for a matching
        :meth:`recv`. Returns ``(nbytes, transfer seconds, straggler
        slowdown seconds, crosses a supernode)``."""
        p = self.comm.p
        for r in (src, dst):
            if not 0 <= r < p:
                raise CommunicatorError(f"rank {r} out of range for p={p}")
        if src == dst:
            raise CommunicatorError(f"p2p transfer needs distinct ranks, got {src}")
        if self.comm.failed_ranks:
            dead = frozenset(r for r in (src, dst) if r in self.comm.failed_ranks)
            if dead:
                self.comm._timeout(dead)
        arr = np.array(payload, copy=True)
        nbytes = float(arr.nbytes)
        base = self.comm.pair_time(src, dst, nbytes)
        t = base
        fi = _faults()
        if fi.enabled:
            t *= fi.comm_scale(src, dst)
        slow_s = t - base
        sc = _scaling()
        if sc.enabled:
            t *= sc.factor("p2p")
        self._mailbox.setdefault((src, dst, tag), []).append(arr)
        return nbytes, t, slow_s, self.comm.crosses_supernode(src, dst)

    def _charge(self, t: float, slow_s: float) -> None:
        """The time path of every send: advance the communicator clock by
        the transfer and charge its faults."""
        self.comm.clock.advance(t)
        fi = _faults()
        if fi.enabled:
            if slow_s > 0:
                fi.note_slow(slow_s)
            # Flaky-link retry: the transfer is repeated with identical
            # data, so results stay bit-exact (the "comm" transient site).
            charge_transient("comm", self.comm.clock, t, track="comm")

    # ------------------------------------------------------------------ #
    # blocking
    # ------------------------------------------------------------------ #
    def send(self, src: int, dst: int, payload, *, tag: str = "") -> P2PResult:
        """Blocking send of ``payload`` from ``src`` to ``dst``.

        Deposits a bitwise copy into the mailbox for a matching
        :meth:`recv` and advances the communicator clock by the priced
        transfer time. Raises :class:`~repro.errors.CollectiveTimeout`
        if either endpoint is dead.
        """
        nbytes, t, slow_s, cross = self._deliver(src, dst, payload, tag)
        result = P2PResult(
            time_s=t, nbytes=nbytes, src=src, dst=dst, cross_supernode=cross
        )
        tr = _tracer()
        if tr.enabled:
            span = tr.emit(
                f"send {src}->{dst}" + (f" {tag}" if tag else ""),
                "p2p_transfer",
                track="p2p/fabric",
                start=self.comm.clock.now,
                dur=t,
                args={
                    "src": src,
                    "dst": dst,
                    "bytes": nbytes,
                    "tag": tag,
                    "cross_supernode": cross,
                },
            )
            if self._prev_span is not None:
                tr.edge(self._prev_span, span)
            self._prev_span = span
        self._charge(t, slow_s)
        return result

    def recv(self, src: int, dst: int, *, tag: str = "") -> np.ndarray:
        """Receive the oldest matching message (FIFO per (src, dst, tag)).

        The simulator executes ranks in dependency order, so the matching
        send has already run; an unmatched recv is a protocol bug and
        raises :class:`~repro.errors.CommunicatorError`.
        """
        box = self._mailbox.get((src, dst, tag))
        if not box:
            raise CommunicatorError(
                f"recv({src}->{dst}, tag={tag!r}) has no matching send"
            )
        return box.pop(0)

    # ------------------------------------------------------------------ #
    # nonblocking
    # ------------------------------------------------------------------ #
    def isend(
        self,
        src: int,
        dst: int,
        payload,
        *,
        ready_s: float | None = None,
        tag: str = "",
    ) -> PendingTransfer:
        """Launch one nonblocking transfer.

        The payload is delivered immediately (data path exact — a matching
        :meth:`recv`/:meth:`irecv` sees the bytes the moment this returns)
        while the network window is booked on the serial fabric after
        earlier nonblocking requests.
        """
        ready = self.origin_s if ready_s is None else float(ready_s)
        nbytes, t, slow_s, cross = self._deliver(src, dst, payload, tag)
        req = self.fabric.reserve(
            ready, t, PendingTransfer,
            tag=tag, src=src, dst=dst, nbytes=nbytes, cross_supernode=cross,
        )
        self.pending.append(req)
        self._charge(t, slow_s)
        tr = _tracer()
        if tr.enabled:
            req.launch_span = tr.instant_event(
                f"isend {src}->{dst}" + (f" {tag}" if tag else ""),
                "collective_launch",
                track="p2p/launch",
                start=ready,
                args={"src": src, "dst": dst, "bytes": nbytes, "tag": tag,
                      "queued_s": req.start_s - ready},
            )
        return req

    def irecv(self, src: int, dst: int, *, tag: str = "") -> np.ndarray:
        """Nonblocking-side receive: the matched :meth:`isend` has already
        delivered the bytes, so this is :meth:`recv` by another name —
        completion timing lives on the :class:`PendingTransfer`."""
        return self.recv(src, dst, tag=tag)

    def wait_all(self, *, barrier_s: float | None = None) -> list[PendingTransfer]:
        """Complete every pending nonblocking transfer.

        Emits each transfer's serial-fabric service window as a
        ``p2p_transfer`` span (with its ``ready_s`` release floor and a
        chain edge to the previous window) and splits service into
        hidden/exposed around ``barrier_s`` like the collective queue.
        """
        completed, self.pending = self.pending, []
        tr = _tracer()
        for req in completed:
            req.done = True
            if tr.enabled:
                req.service_span = self.fabric.emit(
                    tr, req,
                    f"xfer {req.src}->{req.dst}" + (f" {req.tag}" if req.tag else ""),
                    "p2p_transfer", track="p2p/fabric",
                    args={
                        "src": req.src,
                        "dst": req.dst,
                        "bytes": req.nbytes,
                        "tag": req.tag,
                        "cross_supernode": req.cross_supernode,
                    },
                    barrier_s=barrier_s,
                    launch=req.launch_span,
                )
        return completed

