"""Merge metrics counter tracks into the Chrome trace-event export.

Perfetto renders ``"ph": "C"`` (counter) events as per-process line charts
stacked above the span swimlanes. This module derives counter series from a
:class:`~repro.trace.tracer.Tracer`'s spans — cumulative DMA bytes and
cumulative FLOPs per process, sampled at each contributing span's end — and
appends them to :func:`repro.trace.export.to_chrome`'s output, so one JSON
file carries both the timeline and the utilization trajectory.
"""

from __future__ import annotations

import json
from typing import Any

from repro.trace.export import to_chrome
from repro.trace.tracer import RESOURCES, Span, Tracer

#: span category -> (counter name, args key holding the increment): the
#: work the priced resources' component spans record, then wire bytes.
_COUNTER_SOURCES = {
    **{
        r.cat: (f"{r.cls} {r.work[0]} (cum)", r.work[0])
        for r in RESOURCES if r.work is not None
    },
    "collective_step": ("wire bytes (cum)", "bytes"),
}


def chrome_counter_events(tracer: Tracer | list[Span]) -> list[dict[str, Any]]:
    """Counter ("C") events derived from a tracer's spans.

    One series per (process, counter): cumulative sums of the span ``args``
    payloads in :data:`_COUNTER_SOURCES`, sampled at span end times. Events
    carry process *names*; :func:`to_chrome_with_metrics` rewrites them to
    the pids of the base export.
    """
    spans = tracer.spans if isinstance(tracer, Tracer) else list(tracer)
    contributing: list[tuple[float, str, str, float]] = []
    for span in spans:
        source = _COUNTER_SOURCES.get(span.cat)
        if source is None or not span.args:
            continue
        name, key = source
        value = span.args.get(key)
        if not isinstance(value, (int, float)) or value <= 0:
            continue
        process = span.track.partition("/")[0]
        contributing.append((span.end_s, process, name, float(value)))

    events: list[dict[str, Any]] = []
    totals: dict[tuple[str, str], float] = {}
    for end_s, process, name, value in sorted(contributing, key=lambda t: t[0]):
        key = (process, name)
        totals[key] = totals.get(key, 0.0) + value
        events.append(
            {
                "name": name,
                "ph": "C",
                "ts": end_s * 1e6,
                "pid": process,  # rewritten to a numeric pid on merge
                "tid": 0,
                "args": {"value": totals[key]},
            }
        )
    return events


def to_chrome_with_metrics(tracer: Tracer | list[Span]) -> dict[str, Any]:
    """The Chrome trace-event object with metrics counter tracks merged in."""
    obj = to_chrome(tracer)
    pids: dict[str, int] = {
        ev["args"]["name"]: ev["pid"]
        for ev in obj["traceEvents"]
        if ev.get("ph") == "M" and ev.get("name") == "process_name"
    }
    for ev in chrome_counter_events(tracer):
        pid = pids.get(ev["pid"])
        if pid is None:
            continue  # counter for a process that emitted no spans
        ev["pid"] = pid
        obj["traceEvents"].append(ev)
    return obj


def write_chrome_json_with_metrics(tracer: Tracer | list[Span], path: str) -> str:
    """Serialize :func:`to_chrome_with_metrics` to ``path``; returns it."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_with_metrics(tracer), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
