"""The tracer: typed spans on the simulated clock.

A :class:`Tracer` collects :class:`Span` records — named, categorised
intervals on named *tracks* — from instrumentation hooks in the training
framework, the simulated MPI layer, the pipeline and serving schedules and
the fault injector. A priced invocation's compute/DMA/RLC parts come from
:func:`emit_cost_spans`. Time is always *simulated* seconds, never wall
clock, so traces are deterministic and reproducible.

Tracks are ``/``-separated paths (``rank0/dma``, ``p2p/fabric``); the first
segment becomes the Perfetto *process*, the rest the *thread*, giving the
one-track-per-rank/resource layout the exporters render.

Tracing is ambient and off by default: :func:`active` returns a shared
:class:`NullTracer` whose every method is a no-op, so instrumentation costs
one attribute check when disabled and never perturbs simulated-time
arithmetic (pinned by ``tests/test_trace_integration.py``). Enable it with
:func:`tracing`::

    from repro.trace.export import write_chrome_json
    from repro.trace.tracer import tracing

    with tracing() as tr:
        run_workload()
    write_chrome_json(tr, "trace.json")
"""

from __future__ import annotations

import math
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Iterator, Mapping, NamedTuple

from repro.errors import SpanValidationError


#: The span taxonomy. Instrumentation sites use these categories; exporters
#: and the attribution summary group by them. See ``docs/observability.md``.
SPAN_CATEGORIES = (
    "dma_transfer",  # priced DDR3 <-> LDM DMA time (emit_cost_spans)
    "rlc_exchange",  # priced register-bus time on the CPE mesh (emit_cost_spans)
    "cpe_compute",   # priced CPE pipeline work (emit_cost_spans)
    "collective_step",  # one lockstep round of a simulated collective
    "collective_launch",  # instant: a nonblocking collective was launched
    "overlap_window",   # portion of a collective hidden behind backward compute
    "layer_fwd",     # one layer's forward pass
    "layer_bwd",     # one layer's backward pass
    "solver_iter",   # one full solver iteration
    "plan_cost",     # a kernel plan's priced invocation
    "fault_inject",  # instant: an injected fault fired (repro.faults)
    "fault_retry",   # retry/backoff/timeout time charged to recovery
    "request_queued",  # instant: a serving request entered the admission queue
    "request_shed",    # instant: a serving request was shed at the queue bound
    "batch_dispatch",  # instant: the dynamic batcher formed and launched a batch
    "batch_compute",   # a dispatched batch's forward-only execution
    "collective_service",  # one nonblocking launch's serial-fabric service window
    "p2p_transfer",    # one point-to-point message between two ranks
    "stage_fwd",       # one pipeline stage's forward pass of one microbatch
    "stage_bwd",       # one pipeline stage's backward pass of one microbatch
    "activation_xfer",  # boundary activation/gradient transfer between stages
    "pipeline_bubble",  # idle time on a pipeline stage (fill/drain/stall)
)

#: Causal-edge kinds accepted by :meth:`Tracer.edge`. ``dep`` means the
#: destination span cannot start before the source span ends (a scheduling
#: dependency the critical-path graph walks); ``member`` attaches a
#: resource-component span to its container (the ``emit_cost_spans``
#: children), which is containment, not ordering.
EDGE_KINDS = ("dep", "member")


class Span(NamedTuple):
    """One traced interval (or instant event) on a track.

    An immutable record; edges and timeline highlights match spans by
    identity, never by value.

    Attributes
    ----------
    name:
        Human-readable label ("conv1_1 fwd", "step3", "xfer 0->1", ...).
    cat:
        One of :data:`SPAN_CATEGORIES` (free-form strings are allowed for
        extensions; exporters pass them through).
    track:
        Resolved ``/``-separated track path.
    start_s, dur_s:
        Simulated start time and duration in seconds.
    args:
        Optional metadata (bytes moved, bandwidth, partner rank, ...).
    instant:
        True for zero-duration point events (e.g. ``fault_inject``).
    """

    name: str
    cat: str
    track: str
    start_s: float
    dur_s: float = 0.0
    args: Mapping[str, Any] | None = None
    instant: bool = False

    @property
    def end_s(self) -> float:
        return self.start_s + self.dur_s


class Tracer:
    """Collects spans with a per-track time cursor.

    Two emission styles coexist:

    * **cursor-driven** (``start=None``): the span starts at the track's
      current cursor and advances it by ``dur`` — sequential layout, used
      by analytic instrumentation (layer costs, solver iterations) that
      has durations but no clock;
    * **clock-driven** (explicit ``start``): the span is pinned at a
      simulated-clock timestamp and the cursor only ratchets forward —
      used by clocked instrumentation (DMA engine, register comm,
      communicator steps).

    The cursor of a track never moves backwards, which is the per-track
    monotonicity invariant the unit tests pin.
    """

    #: Instrumentation sites check this before doing any work.
    enabled: bool = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Explicit causal edges ``(src, dst, kind)``; see :meth:`edge`.
        self.edges: list[tuple[Span, Span, str]] = []
        self._cursors: dict[str, float] = defaultdict(float)
        self._prefix: list[str] = []

    # ------------------------------------------------------------------ #
    # track context
    # ------------------------------------------------------------------ #
    def resolve(self, track: str) -> str:
        """Full track path: the current context prefix joined to ``track``.

        A leading ``/`` makes ``track`` absolute (the prefix is ignored).
        """
        if track.startswith("/"):
            return track[1:]
        if not self._prefix:
            return track
        return "/".join(self._prefix) + "/" + track

    @contextmanager
    def context(self, prefix: str) -> Iterator[None]:
        """Prefix all relative tracks emitted inside the block.

        Contexts nest: ``context("rank0")`` then ``context("cg1")`` yields
        tracks like ``rank0/cg1/dma``.
        """
        self._prefix.append(prefix)
        try:
            yield
        finally:
            self._prefix.pop()

    def cursor(self, track: str) -> float:
        """Current cursor (end of the latest span) of a track."""
        return self._cursors[self.resolve(track)]

    def end_time(self) -> float:
        """Latest span end across all tracks (0.0 when empty)."""
        return max(self._cursors.values(), default=0.0)

    # ------------------------------------------------------------------ #
    # emission
    # ------------------------------------------------------------------ #
    def emit(
        self,
        name: str,
        cat: str,
        *,
        track: str = "main",
        start: float | None = None,
        dur: float = 0.0,
        args: Mapping[str, Any] | None = None,
        instant: bool = False,
    ) -> Span:
        """Record one span; see the class docstring for start semantics."""
        dur = float(dur)
        # ``not (dur >= 0)`` is True for NaN, which ``dur < 0`` misses.
        if not (dur >= 0.0) or not math.isfinite(dur):
            raise SpanValidationError(
                f"span {name!r} on track {track!r}: duration must be finite "
                f"and >= 0 (end >= start), got {dur!r}"
            )
        resolved = self.resolve(track)
        start_s = self._cursors[resolved] if start is None else float(start)
        if not math.isfinite(start_s):
            raise SpanValidationError(
                f"span {name!r} on track {track!r}: start must be finite, "
                f"got {start_s!r}"
            )
        # One C-level tuple build: the generated ``Span.__new__`` would add
        # a Python frame to every recorded span.
        span = tuple.__new__(
            Span,
            (name, cat, resolved, start_s, dur, dict(args) if args else None, instant),
        )
        self.spans.append(span)
        end = start_s + dur
        if end > self._cursors[resolved]:
            self._cursors[resolved] = end
        return span

    def edge(self, src: Span, dst: Span, kind: str = "dep") -> None:
        """Record an explicit causal edge: ``dst`` depends on ``src``.

        Instrumentation sites call this where the dependency is *known*
        rather than inferable from track layout — a backward pass gating a
        bucket launch, one collective step feeding the next, a request
        joining a batch. ``kind="dep"`` is a scheduling dependency (the
        critical-path walk follows it; the Chrome export renders it as a
        flow arrow); ``kind="member"`` attaches an ``emit_cost_spans``
        component to its container span.
        """
        if kind not in EDGE_KINDS:
            raise SpanValidationError(
                f"edge kind must be one of {EDGE_KINDS}, got {kind!r}"
            )
        self.edges.append((src, dst, kind))

    def instant_event(
        self,
        name: str,
        cat: str,
        *,
        track: str = "main",
        start: float | None = None,
        args: Mapping[str, Any] | None = None,
    ) -> Span:
        """Record a zero-duration point event."""
        return self.emit(name, cat, track=track, start=start, args=args, instant=True)

    @contextmanager
    def span(
        self,
        name: str,
        cat: str,
        *,
        track: str = "main",
        dur: float | None = None,
        args: Mapping[str, Any] | None = None,
    ) -> Iterator[None]:
        """Cursor-driven nesting: the span covers everything emitted inside.

        The span starts at the track's cursor; children emitted inside the
        block (on the same track or below it) extend the parent, whose
        duration at exit is the cursor advance — unless ``dur`` is given,
        which also ratchets the cursor so siblings follow sequentially.
        """
        resolved = self.resolve(track)
        start = self._cursors[resolved]
        yield
        if dur is None:
            # Children may have advanced deeper tracks; cover them too.
            descendant_end = max(
                (
                    end
                    for t, end in self._cursors.items()
                    if t == resolved or t.startswith(resolved + "/")
                ),
                default=start,
            )
            dur = max(descendant_end - start, 0.0)
        self.emit(name, cat, track="/" + resolved, start=start, dur=dur, args=args)

    def __len__(self) -> int:
        return len(self.spans)


class NullTracer(Tracer):
    """The disabled tracer: every operation is a no-op.

    Instrumentation guards on :attr:`enabled`, so with the null tracer
    installed the per-call cost is one function call and one attribute
    check — and no simulated-time arithmetic ever depends on it.
    """

    enabled = False

    def emit(self, name: str, cat: str, **kwargs: Any) -> Span:  # type: ignore[override]
        raise RuntimeError("NullTracer.emit called; guard instrumentation with `if tracer.enabled`")

    def edge(self, src: Span, dst: Span, kind: str = "dep") -> None:  # type: ignore[override]
        raise RuntimeError("NullTracer.edge called; guard instrumentation with `if tracer.enabled`")

    @contextmanager
    def context(self, prefix: str) -> Iterator[None]:
        yield

    @contextmanager
    def span(self, name: str, cat: str, **kwargs: Any) -> Iterator[None]:
        yield


def emit_cost_spans(
    tracer: Tracer,
    name: str,
    cost: Any,
    *,
    cat: str = "plan_cost",
    track: str = "layers",
    args: Mapping[str, Any] | None = None,
    start: float | None = None,
) -> Span | None:
    """Emit a priced invocation as a parent span plus component children.

    ``cost`` is any :class:`~repro.kernels.plan.PlanCost`-shaped object
    (``compute_s`` / ``dma_s`` / ``rlc_s`` / ``total_s`` / ``flops`` /
    ``dma_bytes``). The parent lands on ``track`` at ``start`` (default:
    the track's cursor); the compute/DMA/RLC components land on the
    sibling resource tracks (``cpe``, ``dma``, ``rlc``) pinned at the
    parent's start — they overlap each other, which is exactly the
    dual-pipeline rule (``total = max(compute, dma, rlc) + overhead``)
    made visible.
    """
    if not tracer.enabled:
        return None
    if start is None:
        start = tracer.cursor(track)
    merged: dict[str, Any] = {
        "flops": cost.flops,
        "dma_bytes": cost.dma_bytes,
        "overhead_s": cost.overhead_s,
    }
    if args:
        merged.update(args)
    parent = tracer.emit(
        name, cat, track=track, start=start, dur=cost.total_s, args=merged
    )
    components = (
        ("cpe", "cpe_compute", cost.compute_s, {"flops": cost.flops}),
        ("dma", "dma_transfer", cost.dma_s, {"bytes": cost.dma_bytes}),
        ("rlc", "rlc_exchange", cost.rlc_s, {}),
    )
    for comp_track, comp_cat, dur, extra in components:
        if dur > 0:
            comp = tracer.emit(
                name,
                comp_cat,
                track=comp_track,
                start=start,
                dur=dur,
                args={"of": cat, **extra},
            )
            tracer.edge(comp, parent, kind="member")
    return parent


#: Shared disabled tracer; identity-compared by tests.
NULL_TRACER = NullTracer()

_active: Tracer = NULL_TRACER


def active() -> Tracer:
    """The ambient tracer (the shared :data:`NULL_TRACER` when disabled)."""
    return _active


def install(tracer: Tracer) -> Tracer:
    """Make ``tracer`` ambient; returns the previously installed one."""
    global _active
    previous = _active
    _active = tracer
    return previous


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Enable tracing for the block; yields the (possibly new) tracer."""
    tr = tracer if tracer is not None else Tracer()
    previous = install(tr)
    try:
        yield tr
    finally:
        install(previous)


@contextmanager
def suspended() -> Iterator[None]:
    """Temporarily disable tracing (e.g. around plan-search churn)."""
    previous = install(NULL_TRACER)
    try:
        yield
    finally:
        install(previous)
