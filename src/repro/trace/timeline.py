"""Per-iteration text timeline: a trace rendered for the terminal.

The Perfetto export is the rich view; this renderer answers the quick
question — "where did this simulated iteration's time go?" — without
leaving the shell. Spans are grouped by track, listed chronologically with
start/duration, and indented one step per level of containment within the
track (a layer span contains nothing on its own track, but a
reduce-scatter step nests visually under its collective parent when both
share a track).
"""

from __future__ import annotations

from typing import Iterable

from repro.trace.tracer import Span, Tracer
from repro.utils.units import format_time

#: Spans listed per track before the elision marker.
MAX_SPANS_PER_TRACK = 40
#: Characters of a span's ``args`` shown before they are cut with ``...``.
MAX_ARGS_LEN = 48


def _format_args(span: Span) -> str:
    if not span.args:
        return ""
    body = ", ".join(f"{k}={v}" for k, v in span.args.items())
    if len(body) > MAX_ARGS_LEN:
        body = body[: MAX_ARGS_LEN - 3] + "..."
    return f"  {{{body}}}"


def render_timeline(
    tracer: Tracer | list[Span],
    *,
    highlight: Iterable[Span] | None = None,
) -> str:
    """Render the trace as grouped, chronological text.

    Long tracks are truncated to :data:`MAX_SPANS_PER_TRACK` entries with an
    elision marker (traces of full nets run to thousands of spans; the
    text view is for orientation, not completeness).

    ``highlight`` marks the given spans (matched by identity — e.g.
    :func:`~repro.trace.critpath.path_spans`) with a leading ``*``, the
    critical-path view of the timeline.
    """
    spans = tracer.spans if isinstance(tracer, Tracer) else list(tracer)
    if not spans:
        return "(empty trace)"
    marked = {id(s) for s in highlight} if highlight is not None else set()
    by_track: dict[str, list[Span]] = {}
    for s in spans:
        by_track.setdefault(s.track, []).append(s)
    lines: list[str] = []
    for track in sorted(by_track):
        track_spans = sorted(by_track[track], key=lambda s: (s.start_s, -s.dur_s))
        lines.append(f"== {track} ({len(track_spans)} spans) ==")
        shown = track_spans[:MAX_SPANS_PER_TRACK]
        # Containment-based indentation within the track: a stack of open
        # (start, end) intervals the current span falls inside.
        open_spans: list[tuple[float, float]] = []
        for s in shown:
            while open_spans and s.start_s >= open_spans[-1][1] - 1e-15:
                open_spans.pop()
            if (
                open_spans
                and not s.instant
                and s.start_s == open_spans[-1][0]
                and s.end_s == open_spans[-1][1]
            ):
                # Identical interval: a concurrent duplicate (lockstep
                # partners, mirrored resources), not containment — render
                # as a sibling, not a child.
                open_spans.pop()
            indent = "  " * len(open_spans)
            if not s.instant and s.dur_s > 0:
                # Zero-duration spans contain nothing; keeping them off the
                # stack stops followers at the same instant from nesting.
                open_spans.append((s.start_s, s.end_s))
            stamp = f"[{format_time(s.start_s):>9} +{format_time(s.dur_s):>9}]"
            if s.instant:
                stamp = f"[{format_time(s.start_s):>9}  (instant)]"
            mark = "* " if id(s) in marked else "  "
            lines.append(f"{mark}{stamp} {indent}{s.name} <{s.cat}>{_format_args(s)}")
        hidden = len(track_spans) - len(shown)
        if hidden > 0:
            lines.append(f"  ... {hidden} more spans")
    return "\n".join(lines)
