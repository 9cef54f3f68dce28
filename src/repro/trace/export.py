"""Chrome trace-event JSON export (Perfetto-loadable).

Renders a :class:`~repro.trace.tracer.Tracer` as the JSON object format of
the Trace Event specification: complete ``"X"`` events for spans, ``"i"``
instant events, and ``"M"`` metadata naming processes and threads. Load the
file at https://ui.perfetto.dev (or ``chrome://tracing``).

Track mapping: the first ``/``-segment of a track becomes the *process*
(one per simulated rank, or ``mesh``/``node`` for single-node traces), the
remainder the *thread* (one per resource: ``cpe``, ``dma``, ``rlc``,
``collective``, ...), so a 4-rank trace renders as four process groups each
with its resource swimlanes.

:func:`repro.testing.chrome.validate_chrome` is the structural check the
tests run on every exported trace.
"""

from __future__ import annotations

import json
from typing import Any

from repro.trace.tracer import Span, Tracer

#: Preferred top-to-bottom thread ordering inside one process.
_THREAD_ORDER = (
    "solver",
    "layers",
    "cpe",
    "dma",
    "rlc",
    "collective",
)

#: Sort index of every thread ``_THREAD_ORDER`` does not list (``comm``,
#: the serving and pipeline tracks, ...), below all listed ones. It is a
#: fixed number, not the list's length, so those threads keep their index
#: when the list changes.
_UNLISTED_SORT_INDEX = 8


def _split_track(track: str) -> tuple[str, str]:
    """``rank0/dma`` -> (process ``rank0``, thread ``dma``)."""
    head, sep, rest = track.partition("/")
    return (head, rest) if sep else (head, head)


def _thread_sort_index(thread: str) -> int:
    leaf = thread.rsplit("/", 1)[-1]
    try:
        return _THREAD_ORDER.index(leaf)
    except ValueError:
        return _UNLISTED_SORT_INDEX


def to_chrome(tracer: Tracer | list[Span]) -> dict[str, Any]:
    """Build the Chrome trace-event JSON object for a tracer's spans.

    Explicit ``dep`` edges recorded by :meth:`Tracer.edge` export as flow
    events (``"s"``/``"f"`` pairs), which Perfetto renders as arrows from
    the source span's end to the destination span's start. ``member``
    edges are containment, not ordering, and are not exported.
    """
    if isinstance(tracer, Tracer):
        spans = tracer.spans
        dep_edges = [(s, d) for s, d, kind in tracer.edges if kind == "dep"]
    else:
        spans = list(tracer)
        dep_edges = []
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    events: list[dict[str, Any]] = []
    meta: list[dict[str, Any]] = []
    locations: dict[int, tuple[int, int]] = {}

    for span in spans:
        process, thread = _split_track(span.track)
        if process not in pids:
            pids[process] = len(pids) + 1
            meta.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pids[process],
                    "tid": 0,
                    "args": {"name": process},
                }
            )
        key = (process, thread)
        if key not in tids:
            tids[key] = len(tids) + 1
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pids[process],
                    "tid": tids[key],
                    "args": {"name": thread},
                }
            )
            meta.append(
                {
                    "name": "thread_sort_index",
                    "ph": "M",
                    "pid": pids[process],
                    "tid": tids[key],
                    "args": {"sort_index": _thread_sort_index(thread)},
                }
            )
        event: dict[str, Any] = {
            "name": span.name,
            "cat": span.cat,
            "ph": "i" if span.instant else "X",
            # The format's timestamps are microseconds.
            "ts": span.start_s * 1e6,
            "pid": pids[process],
            "tid": tids[key],
        }
        if span.instant:
            event["s"] = "t"  # thread-scoped instant
        else:
            event["dur"] = span.dur_s * 1e6
        if span.args:
            event["args"] = dict(span.args)
        events.append(event)
        locations[id(span)] = (pids[process], tids[key])

    flow_id = 0
    for src, dst in dep_edges:
        src_loc = locations.get(id(src))
        dst_loc = locations.get(id(dst))
        if src_loc is None or dst_loc is None:
            continue  # edge references a span from another tracer
        flow_id += 1
        events.append(
            {
                "name": "dep",
                "cat": "critpath",
                "ph": "s",
                "id": flow_id,
                "ts": src.end_s * 1e6,
                "pid": src_loc[0],
                "tid": src_loc[1],
            }
        )
        events.append(
            {
                "name": "dep",
                "cat": "critpath",
                "ph": "f",
                "bp": "e",  # bind to the enclosing slice
                "id": flow_id,
                "ts": dst.start_s * 1e6,
                "pid": dst_loc[0],
                "tid": dst_loc[1],
            }
        )

    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ns",
        "otherData": {"producer": "repro.trace (simulated SW26010 time)"},
    }


def write_chrome_json(tracer: Tracer | list[Span], path: str) -> str:
    """Serialize :func:`to_chrome` to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome(tracer), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
