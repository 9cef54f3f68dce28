"""Simulated time accounting.

All performance numbers produced by this package come from
:class:`SimClock`: pure arithmetic accumulation of model-predicted
durations, never wall-clock measurement. A clock also keeps per-category
totals ("dma", "compute", "rlc", "comm", ...) so harnesses can report
time breakdowns like the paper's Fig. 11.

:class:`SerialResource` is the package's one overlap rule. A resource
that serves one window at a time (a network fabric, a pipeline stage or
link, a register bus) starts a window at ``max(ready, free)``, and the
part of its service before a barrier counts as *hidden*. Every schedule
that overlaps work with communication books its windows through it.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, TypeVar


class SimClock:
    """Accumulates simulated seconds, optionally per category.

    The clock is deliberately minimal: ``advance`` moves time forward and
    attributes the increment to the category named by the innermost active
    :meth:`section` (or an explicit ``category=`` argument).
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._by_category: dict[str, float] = defaultdict(float)
        self._section_stack: list[str] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, dt: float, category: str | None = None) -> None:
        """Move simulated time forward by ``dt`` seconds (must be >= 0)."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative time {dt!r}")
        self._now += dt
        cat = category if category is not None else (
            self._section_stack[-1] if self._section_stack else "other"
        )
        self._by_category[cat] += dt

    @contextmanager
    def section(self, category: str) -> Iterator[None]:
        """Attribute all ``advance`` calls inside the block to ``category``."""
        self._section_stack.append(category)
        try:
            yield
        finally:
            self._section_stack.pop()

    def category_total(self, category: str) -> float:
        """Total simulated seconds attributed to ``category``."""
        return self._by_category.get(category, 0.0)

    def breakdown(self) -> dict[str, float]:
        """Copy of the per-category totals."""
        return dict(self._by_category)

    def reset(self) -> None:
        """Zero the clock and all category totals."""
        self._now = 0.0
        self._by_category.clear()


@dataclass(slots=True)
class Reservation:
    """One window a :class:`SerialResource` served."""

    #: When the window's work became available (its release floor).
    ready_s: float
    #: When the resource began serving it: ``max(ready_s, free)``.
    start_s: float
    #: How long the window occupies the resource.
    dur_s: float

    @property
    def end_s(self) -> float:
        """When the resource frees up: ``start_s + dur_s``."""
        return self.start_s + self.dur_s

    def hidden_before(self, barrier_s: float) -> float:
        """Seconds of this window's service that precede ``barrier_s``.

        Clamped to ``[0, dur_s]``: ``end_s - start_s`` can exceed
        ``dur_s`` by one ulp, and a fully hidden window must expose
        exactly zero.
        """
        return min(self.dur_s, max(0.0, min(self.end_s, barrier_s) - self.start_s))


R = TypeVar("R", bound=Reservation)


class SerialResource:
    """A resource that serves one window at a time, in booking order."""

    __slots__ = ("free_s", "last_span")

    def __init__(self, free_s: float = 0.0) -> None:
        #: When the resource next frees up (monotone across reservations).
        self.free_s = free_s
        #: The span of the last window :meth:`emit` traced.
        self.last_span: Any = None

    def reserve(
        self, ready_s: float, dur_s: float, kind: type[R] = Reservation, **fields: Any
    ) -> R:
        """Book the next window: it starts at ``max(ready_s, free_s)`` and
        holds the resource for ``dur_s``. ``kind`` (a :class:`Reservation`
        subclass) and ``fields`` let callers attach their own request data.
        """
        start = max(ready_s, self.free_s)
        self.free_s = start + dur_s
        return kind(ready_s, start, dur_s, **fields)

    def emit(self, tracer: Any, res: Reservation, name: str, cat: str, *, track: str,
             args: dict[str, Any], barrier_s: float | None = None,
             launch: Any = None) -> Any:
        """Trace ``res`` on ``tracer`` and return its span.

        The span carries ``res.ready_s`` as its release floor and, when
        ``barrier_s`` is given, the window's ``hidden_s``/``exposed_s``
        split. Dep edges run from ``launch`` (the window's launch instant,
        if any), then from the previous window this resource traced.
        """
        args = {**args, "ready_s": res.ready_s}
        if barrier_s is not None:
            args["hidden_s"] = res.hidden_before(barrier_s)
            args["exposed_s"] = res.dur_s - args["hidden_s"]
        span = tracer.emit(
            name, cat, track=track, start=res.start_s, dur=res.dur_s, args=args
        )
        for before in (launch, self.last_span):
            if before is not None:
                tracer.edge(before, span)
        self.last_span = span
        return span
