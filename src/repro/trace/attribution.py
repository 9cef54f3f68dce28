"""Bottleneck attribution over a trace: the ``trace`` command's busy table.

The roofline rows (:func:`~repro.metrics.roofline.net_roofline`) price a
net's layers; this table answers the same question — *which resource was
busy longest?* — from whatever a trace recorded, so it covers collectives
as well as layer costs, and splits per rank.

Busy time is the summed duration of the component spans of each priced
resource (:data:`~repro.trace.tracer.RESOURCES`) and of the
``collective_step`` spans; container spans (``layer_*``, ``solver_iter``,
``plan_cost``) are structure, not busy time. Tracks group by their first
``/`` segment, the process of the Chrome export (one per rank). Tracks
without a ``/``, as a single-process run records them, form one group.
"""

from __future__ import annotations

from repro.trace.tracer import RESOURCES, Span, Tracer
from repro.utils.tables import Table
from repro.utils.units import format_time

#: (column, span category) of each resource the table reports.
_COLUMNS = (
    *((r.label, r.cat) for r in RESOURCES),
    ("collective", "collective_step"),
)

#: The group of every track without a process prefix.
_UNPREFIXED = "(unprefixed)"


def _bottleneck(busy: dict[str, float]) -> str:
    """The category with the most busy time (the first on a tie), or ``-``."""
    return max(busy, key=busy.__getitem__) if busy else "-"


def render_attribution(tracer: Tracer | list[Span]) -> str:
    """The bottleneck-attribution table of a trace.

    One row per track group: where its last span ends, each resource's
    busy seconds with their share of that end, and the busiest category.
    The footer gives the trace's end and the busiest category overall.
    """
    spans = tracer.spans if isinstance(tracer, Tracer) else tracer
    categories = {cat for _, cat in _COLUMNS}
    ends: dict[str, float] = {}
    busy: dict[str, dict[str, float]] = {}
    for span in spans:
        head, sep, _ = span.track.partition("/")
        group = head if sep else _UNPREFIXED
        ends[group] = max(ends.get(group, 0.0), span.end_s)
        group_busy = busy.setdefault(group, {})
        if span.cat in categories and not span.instant:
            group_busy[span.cat] = group_busy.get(span.cat, 0.0) + span.dur_s

    table = Table(
        headers=["group", "end", *(column for column, _ in _COLUMNS), "bottleneck"],
        title="trace attribution (simulated busy time per resource)",
    )
    overall: dict[str, float] = {}
    for group in sorted(ends):
        end, group_busy = ends[group], busy[group]
        cells = []
        for _, cat in _COLUMNS:
            t = group_busy.get(cat, 0.0)
            cells.append(f"{format_time(t)} ({100 * (t / end if end > 0 else 0.0):.0f}%)")
        for cat, t in group_busy.items():
            overall[cat] = overall.get(cat, 0.0) + t
        table.add_row(group, format_time(end), *cells, _bottleneck(group_busy))
    footer = (
        f"trace end: {format_time(max(ends.values(), default=0.0))} | "
        f"overall bottleneck: {_bottleneck(overall)}"
    )
    return table.render() + "\n" + footer
