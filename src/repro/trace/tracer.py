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
from operator import attrgetter
from typing import Any, Iterator, Mapping, NamedTuple

from repro.errors import SpanValidationError


class Resource(NamedTuple):
    """One priced resource of a :class:`~repro.kernels.plan.PlanCost`."""

    #: The ``PlanCost`` field holding its busy seconds.
    field: str
    #: Its resource class: the track its component spans land on, the class
    #: a critical path attributes them to and a what-if factor scales.
    cls: str
    #: The span category of its component spans.
    cat: str
    #: The ``args`` entry of a component span that records the work done,
    #: as (key, ``PlanCost`` field); None when the cost counts none.
    work: tuple[str, str] | None

    @property
    def label(self) -> str:
        """Its name as a roofline bound and a table column: the field
        without ``_s`` (``compute`` for ``compute_s``)."""
        return self.field.removesuffix("_s")


#: The priced resources, in ``PlanCost`` field order. A plan's time is
#: ``max`` of their busy seconds plus ``overhead_s``. Every module that maps
#: one of these spellings to another (span category to class, class to
#: field, field to roofline bound) reads this table.
RESOURCES = (
    Resource("compute_s", "cpe", "cpe_compute", ("flops", "flops")),
    Resource("dma_s", "dma", "dma_transfer", ("bytes", "dma_bytes")),
    Resource("rlc_s", "rlc", "rlc_exchange", None),
)

#: Leaf span category -> resource class: the priced resources' component
#: spans, then every other leaf that carries resource time. The critical
#: path attributes time to these classes and a what-if scales them.
RESOURCE_CLASS = {
    **{r.cat: r.cls for r in RESOURCES},
    "collective_step": "collective",
    "collective_service": "collective",
    "batch_compute": "batch",
    "fault_retry": "fault",
    "p2p_transfer": "p2p",
    "activation_xfer": "p2p",
    "stage_fwd": "stage",
    "stage_bwd": "stage",
}

#: The span taxonomy. Instrumentation sites use these categories; exporters
#: and the attribution summary group by them. See ``docs/observability.md``.
SPAN_CATEGORIES = (
    *(r.cat for r in RESOURCES),  # priced component time (emit_cost_spans)
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
        #: The open contexts' prefixes, each followed by ``/``.
        self._context = ""

    # ------------------------------------------------------------------ #
    # track context
    # ------------------------------------------------------------------ #
    def resolve(self, track: str) -> str:
        """Full track path: the current context prefix joined to ``track``.

        A leading ``/`` makes ``track`` absolute (the prefix is ignored).
        """
        if track.startswith("/"):
            return track[1:]
        return self._context + track

    @contextmanager
    def context(self, prefix: str) -> Iterator[None]:
        """Prefix all relative tracks emitted inside the block.

        Contexts nest: ``context("rank0")`` then ``context("cg1")`` yields
        tracks like ``rank0/cg1/dma``. The joined prefix is built once on
        entry and the enclosing one restored on exit, so resolving a track
        inside the block is one concatenation.
        """
        outer = self._context
        self._context = f"{outer}{prefix}/"
        try:
            yield
        finally:
            self._context = outer

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


#: What :func:`emit_cost_spans` reads from :data:`RESOURCES`, built once: a
#: cost's busy seconds in table order, and per resource its track, category,
#: and the ``args`` key and ``PlanCost`` field of its work.
_busy_seconds = attrgetter(*(r.field for r in RESOURCES))
_COMPONENTS = tuple((r.cls, r.cat, *(r.work or (None, None))) for r in RESOURCES)


def emit_cost_spans(
    tracer: Tracer,
    name: str,
    cost: Any,
    *,
    cat: str = "plan_cost",
    args: Mapping[str, Any] | None = None,
    start: float | None = None,
) -> Span | None:
    """Emit a priced invocation as a parent span plus component children.

    ``cost`` is any :class:`~repro.kernels.plan.PlanCost`-shaped object
    (the :data:`RESOURCES` fields, ``overhead_s``, ``total_s``, ``flops``
    and ``dma_bytes``). The parent lands on the ``layers`` track at
    ``start`` (default: the track's cursor); each resource with busy time
    gets a component span of its category on its class's sibling track
    (``cpe``, ``dma``, ``rlc``), pinned at the parent's start. They
    overlap each other, which is exactly the dual-pipeline rule
    (``total = max(compute, dma, rlc) + overhead``) made visible.
    """
    if not tracer.enabled:
        return None
    if start is None:
        start = tracer.cursor("layers")
    merged: dict[str, Any] = {
        "flops": cost.flops,
        "dma_bytes": cost.dma_bytes,
        "overhead_s": cost.overhead_s,
    }
    if args:
        merged.update(args)
    parent = tracer.emit(
        name, cat, track="layers", start=start, dur=cost.total_s, args=merged
    )
    for (comp_track, comp_cat, key, work), dur in zip(_COMPONENTS, _busy_seconds(cost)):
        if dur > 0:
            comp = tracer.emit(
                name, comp_cat, track=comp_track, start=start, dur=dur,
                args={"of": cat, key: getattr(cost, work)} if key else {"of": cat},
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
