"""Structural validator of the Chrome trace-event JSON that
:mod:`repro.trace.export` writes.

The tests run :func:`validate_chrome` on every exported trace (the golden
traces, the CLI's ``--out`` files, the serving, pipeline and metrics
traces), so the format the exporter promises is checked in one place.
"""

from __future__ import annotations

import json
from typing import Any


def validate_chrome(obj: Any) -> list[str]:
    """Structural checks of the Chrome trace-event JSON object format.

    Returns a list of problem descriptions (empty = valid). Checks the
    invariants Perfetto's importer relies on: a ``traceEvents`` list whose
    entries carry ``name``/``ph``/``ts``/``pid``/``tid``, non-negative
    durations on complete events, and named processes/threads for every
    (pid, tid) that appears.
    """
    errors: list[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be a JSON object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    named_pids: set[int] = set()
    named_tids: set[tuple[int, int]] = set()
    used_pids: set[int] = set()
    used_tids: set[tuple[int, int]] = set()
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append(f"event {i}: not an object")
            continue
        for field in ("name", "ph", "pid", "tid"):
            if field not in ev:
                errors.append(f"event {i}: missing {field!r}")
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") == "process_name":
                named_pids.add(ev.get("pid"))
            elif ev.get("name") == "thread_name":
                named_tids.add((ev.get("pid"), ev.get("tid")))
            continue
        if ph not in ("X", "i", "B", "E", "C", "s", "f"):
            errors.append(f"event {i}: unknown phase {ph!r}")
            continue
        if ph in ("s", "f") and "id" not in ev:
            errors.append(f"event {i}: flow event without id")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"event {i}: bad ts {ts!r}")
        if ph == "C":
            # Counter events attach to a process track, not a thread; they
            # carry their sample values in args and need no thread_name.
            if not isinstance(ev.get("args"), dict):
                errors.append(f"event {i}: counter event without args")
            used_pids.add(ev.get("pid"))
            continue
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"event {i}: complete event with bad dur {dur!r}")
        used_pids.add(ev.get("pid"))
        used_tids.add((ev.get("pid"), ev.get("tid")))
    for pid in sorted(used_pids - named_pids):
        errors.append(f"pid {pid} has events but no process_name metadata")
    for pid, tid in sorted(used_tids - named_tids):
        errors.append(f"(pid {pid}, tid {tid}) has events but no thread_name metadata")
    try:
        json.dumps(obj)
    except (TypeError, ValueError) as exc:
        errors.append(f"not JSON-serializable: {exc}")
    return errors
