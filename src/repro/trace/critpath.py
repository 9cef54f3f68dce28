"""Critical-path profiler over the span stream.

Aggregate attribution (:mod:`repro.trace.attribution`, the roofline) says
how much time each resource consumed *in total*; this module says whether
that time actually bounded the end-to-end result. It builds a dependency
graph over a trace session's typed spans — explicit causal edges recorded
by :meth:`~repro.trace.tracer.Tracer.edge` at the instrumentation sites,
plus inferred same-track ordering — walks the longest path to the
terminal span, and attributes critical-path time by resource class and by
layer, with slack for everything off the path.

The same graph supports *projection*: scale any resource class (or one
layer) by a factor and re-walk the schedule to a new end-to-end time.
:mod:`repro.trace.whatif` wraps that into the ``python -m repro whatif``
command with a validation mode that re-runs the simulator under
:mod:`repro.trace.scaling` and pins projection == simulation.

Graph model
-----------
* **Leaf spans** (``cpe_compute``, ``dma_transfer``, ``rlc_exchange``,
  ``collective_step``, ``collective_service``, ``batch_compute``,
  ``fault_retry``) carry resource time and scale with their class factor.
* **Container spans** (``layer_fwd``, ``layer_bwd``, ``plan_cost``) derive
  their duration from their member components by the dual-pipeline rule
  (``max(members) + overhead``), so scaling one component re-evaluates the
  ``max`` — a DMA-bound layer does not speed up when compute shrinks.
* **Instants** (arrivals, launches) are zero-duration nodes anchored at
  their recorded time: external events a what-if cannot move.
* Summary spans (``solver_iter``, ``overlap_window``, ``batch_dispatch``,
  ``request_shed``) decorate the trace but are not scheduled.

A node starts at ``max(release floor, latest predecessor end)``; the
floor is the recorded start for anchored nodes and the ``ready_s`` arg
for serially-served windows (batches, nonblocking collectives).
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Any, Mapping

from repro.errors import CritPathError
from repro.trace.tracer import Span, Tracer

#: Leaf span category -> what-if resource class.
RESOURCE_CLASS = {
    "cpe_compute": "cpe",
    "dma_transfer": "dma",
    "rlc_exchange": "rlc",
    "collective_step": "collective",
    "collective_service": "collective",
    "batch_compute": "batch",
    "fault_retry": "fault",
    "p2p_transfer": "p2p",
    "activation_xfer": "p2p",
    "stage_fwd": "stage",
    "stage_bwd": "stage",
}

#: Containers whose duration derives from member components + overhead.
CONTAINER_CATS = frozenset(("layer_fwd", "layer_bwd", "plan_cost"))

#: Decoration-only categories: never scheduled as graph nodes.
EXCLUDED_CATS = frozenset((
    "solver_iter",
    "overlap_window",
    "batch_dispatch",
    "request_shed",
    "pipeline_bubble",
))

#: Tolerance for inferring same-track ordering from recorded geometry.
_CHAIN_EPS = 1e-12


def _layer_of(span: Span) -> str | None:
    """The layer name a ``layer_fwd``/``layer_bwd`` container belongs to."""
    if span.cat not in ("layer_fwd", "layer_bwd"):
        return None
    name, sep, suffix = span.name.rpartition(" ")
    return name if sep and suffix in ("fwd", "bwd") else span.name


@dataclass(frozen=True)
class CritGraph:
    """The dependency graph of one trace, compiled into per-node columns.

    Node ``i`` is ``spans[i]``; every other column is a tuple indexed the
    same way. :func:`build_graph` also fixes the Kahn order once, so each
    schedule is one duration pass plus one walk over ``order``.
    """

    spans: tuple[Span, ...]
    #: "leaf" | "container" | "marker" (zero-duration anchor/instant).
    kinds: tuple[str, ...]
    #: What-if resource class (None: never scaled).
    resources: tuple[str | None, ...]
    layers: tuple[str | None, ...]
    #: Release floor: the recorded start of markers and roots, ``ready_s``
    #: of serially-served windows, else 0.0 (predecessor-bound).
    floors: tuple[float, ...]
    preds: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[int, ...], ...]
    #: Member component node indices (containers only).
    members: tuple[tuple[int, ...], ...]
    #: Scheduled (dep + inferred-chain) edges as (src, dst) node indices.
    edges: list[tuple[int, int]]
    #: Member spans (by node index) — priced inside containers, not scheduled.
    member_nodes: frozenset[int]
    #: Topological order over scheduled nodes (short of them on a cycle).
    order: tuple[int, ...]

    @property
    def n_scheduled(self) -> int:
        return len(self.spans) - len(self.member_nodes)

    @cached_property
    def identity(self) -> tuple[tuple[float, ...], ...]:
        """The unscaled schedule's (start, end, dur), walked once."""
        dur = _durations(self, {})
        start, end = _walk(self, dur)
        return tuple(start), tuple(end), tuple(dur)


def _adjacency(n: int, edges: list, side: int) -> tuple[tuple[int, ...], ...]:
    """Per-node neighbour tuples from ``edges`` grouped on ``edge[side]``."""
    out: list[tuple[int, ...]] = [()] * n
    other = itemgetter(1 - side)
    for node, group in groupby(edges, itemgetter(side)):
        out[node] = tuple(map(other, group))
    return tuple(out)


def build_graph(tracer: Tracer | list[Span]) -> CritGraph:
    """Compile a trace into its dependency graph.

    Accepts a :class:`Tracer` (explicit edges included) or a bare span
    list (same-track inference only).
    """
    if isinstance(tracer, Tracer):
        recorded = tracer.spans
        raw_edges = tracer.edges
    else:
        recorded = list(tracer)
        raw_edges = []

    spans: list[Span] = []
    kinds: list[str] = []
    resources: list[str | None] = []
    layers: list[str | None] = []
    # None: roots fall back to the recorded start, others to predecessors.
    floors: list[float | None] = []
    for span in recorded:
        _, cat, _, start, _, args, instant = span
        if cat in EXCLUDED_CATS:
            continue
        spans.append(span)
        resources.append(RESOURCE_CLASS.get(cat))
        container = cat in CONTAINER_CATS
        kinds.append("container" if container else "marker" if instant else "leaf")
        layers.append(_layer_of(span) if container else None)
        if instant and not container:
            floors.append(start)
        elif args and "ready_s" in args:
            floors.append(float(args["ready_s"]))
        else:
            floors.append(None)
    n = len(spans)
    node_of = dict(zip(map(id, spans), range(n))).get

    members: list[tuple[int, ...]] = [()] * n
    member_nodes: set[int] = set()
    dep_edges: list[tuple[int, int]] = []
    for src, dst, kind in raw_edges:
        si, di = node_of(id(src)), node_of(id(dst))
        if si is None or di is None or si == di:
            continue
        if kind == "member":
            members[di] += (si,)
            member_nodes.add(si)
        else:
            dep_edges.append((si, di))

    # Same-track ordering: non-member interval spans emitted on one track
    # chain when the next one starts at/after the previous end (clock- and
    # cursor-driven emission are both monotone per track; spans that
    # overlap are concurrent and stay unchained).
    last_on_track: dict[str, tuple[int, float]] = {}
    for i, (span, kind) in enumerate(zip(spans, kinds)):
        if kind == "marker" or i in member_nodes:
            continue
        _, _, track, start, dur, _, _ = span
        end = start + dur
        prev = last_on_track.get(track)
        if prev is not None and start >= prev[1] - _CHAIN_EPS:
            dep_edges.append((prev[0], i))
        # ``>=``: a zero-duration span ending exactly where its predecessor
        # did must still become the chain head, or the next span would
        # bypass it (and any explicit dependency riding on it).
        if prev is None or end >= prev[1]:
            last_on_track[track] = (i, end)
    # Emission order leaves long sorted runs for the sort to merge; drop
    # duplicates, then explicit edges touching a (priced, unscheduled) member.
    dep_edges.sort()
    edges = [e for e in dict.fromkeys(dep_edges)
             if e[0] not in member_nodes and e[1] not in member_nodes]
    succs = _adjacency(n, edges, 0)
    # A stable sort by destination keeps each node's predecessors ascending.
    preds = _adjacency(n, sorted(edges, key=itemgetter(1)), 1)

    # Kahn's algorithm; ``order`` doubles as the FIFO of ready nodes.
    indegree = list(map(len, preds))
    order = [i for i in range(n) if not indegree[i] and i not in member_nodes]
    for i in order:
        for j in succs[i]:
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)

    floors = [
        (span.start_s if not preds[i] else 0.0) if floor is None else floor
        for i, (span, floor) in enumerate(zip(spans, floors))
    ]
    return CritGraph(
        spans=tuple(spans), kinds=tuple(kinds), resources=tuple(resources),
        layers=tuple(layers), floors=tuple(floors), preds=preds, succs=succs,
        members=tuple(members), edges=edges,
        member_nodes=frozenset(member_nodes), order=tuple(order),
    )


# --------------------------------------------------------------------------- #
# scheduling / projection
# --------------------------------------------------------------------------- #
def _binding_member(
    graph: CritGraph, i: int, get
) -> tuple[float, str | None, float]:
    """Container ``i``'s largest scaled member time, that member's class,
    and the container's layer factor."""
    layer = graph.layers[i]
    lf = get(f"layer:{layer}", 1.0) if layer else 1.0
    bound, bound_res = 0.0, None
    for m in graph.members[i]:
        res = graph.resources[m]
        d = graph.spans[m].dur_s * (get(res or "", 1.0) * lf)
        if d > bound:
            bound, bound_res = d, res
    return bound, bound_res, lf


def _durations(graph: CritGraph, factors: Mapping[str, float]) -> list[float]:
    """Each scheduled node's duration under ``factors`` (0.0 elsewhere).

    Mirrors, operation for operation, what the simulator recomputes under
    :class:`~repro.trace.scaling.CostScaling` — containers re-apply the
    dual-pipeline ``max(members) + overhead`` rule to scaled components.
    """
    get = factors.get
    spans, kinds, resources = graph.spans, graph.kinds, graph.resources
    dur = [0.0] * len(spans)
    for i in graph.order:
        kind = kinds[i]
        if kind == "leaf":
            res, d = resources[i], spans[i].dur_s
            dur[i] = d if res is None else d * get(res, 1.0)
        elif kind == "container":
            bound, _, lf = _binding_member(graph, i, get)
            overhead = float((spans[i].args or {}).get("overhead_s", 0.0))
            dur[i] = bound + overhead * (get("overhead", 1.0) * lf)
    return dur


def _walk(graph: CritGraph, dur: list[float]) -> tuple[list[float], list[float]]:
    """Forward pass in topological order: ``start = max(floor, pred ends)``."""
    start, end = [0.0] * len(dur), [0.0] * len(dur)
    floors, preds = graph.floors, graph.preds
    end_of = end.__getitem__
    for i in graph.order:
        # ``max`` keeps the first of equal values: the floor, then the
        # earliest-listed predecessor.
        s = max(floors[i], *map(end_of, preds[i])) if preds[i] else floors[i]
        start[i] = s
        end[i] = s + dur[i]
    return start, end


@dataclass
class ScheduleResult:
    """Projected start/end times for every node, in node-index order."""

    start_s: list[float]
    end_s: list[float]
    dur_s: list[float]
    order: list[int]  # topological order over scheduled nodes

    @property
    def end_to_end_s(self) -> float:
        return max(self.end_s, default=0.0)


def schedule(
    graph: CritGraph, factors: Mapping[str, float] | None = None
) -> ScheduleResult:
    """Walk the graph forward: ``start = max(floor, latest pred end)``."""
    if len(graph.order) != graph.n_scheduled:
        raise CritPathError(
            f"dependency graph has a cycle: scheduled {len(graph.order)} of "
            f"{graph.n_scheduled} nodes"
        )
    if factors:
        dur = _durations(graph, factors)
        start, end = _walk(graph, dur)
    else:
        start, end, dur = map(list, graph.identity)
    return ScheduleResult(start_s=start, end_s=end, dur_s=dur, order=list(graph.order))


# --------------------------------------------------------------------------- #
# critical path extraction
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PathEntry:
    """One span on the critical path."""

    name: str
    cat: str
    track: str
    start_s: float
    dur_s: float
    resource: str | None
    layer: str | None


@dataclass
class CritPathReport:
    """Critical-path attribution of one trace."""

    end_to_end_s: float
    terminal: str
    terminal_track: str
    path: list[PathEntry]
    #: Critical-path time by resource class (containers attribute their
    #: binding component; fixed overheads land under "overhead").
    by_resource: dict[str, float]
    #: Critical-path time by layer (layer containers only).
    by_layer: dict[str, float]
    #: Exposed collective seconds on the path — the ``exposed_s`` portion
    #: of on-path collective windows (full duration when untagged, e.g.
    #: the fused allreduce whose steps all start after the barrier).
    collective_exposed_s: float
    #: (name, track, slack_s) for the largest-slack off-path spans.
    top_slack: list[tuple[str, str, float]]
    n_nodes: int
    n_edges: int
    #: Contiguous path segments grouped by phase (compute / collective /
    #: serve), in path order — one compute+collective pair per solver
    #: iteration on training traces.
    segments: list[dict[str, Any]]

    def to_json(self) -> dict[str, Any]:
        """Machine-readable report (schema ``repro-critpath/1``)."""
        return {
            "schema": "repro-critpath/1",
            "end_to_end_s": self.end_to_end_s,
            "terminal": self.terminal,
            "terminal_track": self.terminal_track,
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "by_resource": {k: self.by_resource[k] for k in sorted(self.by_resource)},
            "by_layer": {k: self.by_layer[k] for k in sorted(self.by_layer)},
            "collective_exposed_s": self.collective_exposed_s,
            "segments": self.segments,
            "top_slack": [
                {"name": n, "track": t, "slack_s": s} for n, t, s in self.top_slack
            ],
            "path": [
                {
                    "name": e.name,
                    "cat": e.cat,
                    "track": e.track,
                    "start_s": e.start_s,
                    "dur_s": e.dur_s,
                    "resource": e.resource,
                }
                for e in self.path
            ],
        }

    def write_json(self, path: str) -> str:
        """Serialize :meth:`to_json` to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return path


def _phase_of(entry: PathEntry) -> str:
    if entry.resource == "collective":
        return "collective"
    if entry.track.split("/", 1)[0] == "serve" or entry.resource == "batch":
        return "serve"
    if entry.cat in ("layer_fwd", "layer_bwd") or entry.resource in (
        "cpe", "dma", "rlc"
    ):
        return "compute"
    return "other"


def extract_path(
    graph: CritGraph, sched: ScheduleResult
) -> tuple[list[int], int]:
    """Walk binding predecessors back from the terminal node.

    Returns (path node indices in time order, terminal index). The walk
    stops where a node is bound by its own release floor rather than a
    predecessor — the path's source event.
    """
    if not sched.order:
        return [], -1
    start, end = sched.start_s, sched.end_s
    terminal = max(sched.order, key=lambda i: (end[i], i))
    path = [terminal]
    node = terminal
    while graph.preds[node]:
        binding = max(graph.preds[node], key=lambda p: (end[p], -p))
        if end[binding] < start[node]:
            break  # release-bound: the path starts here
        node = binding
        path.append(node)
    path.reverse()
    return path, terminal


def critical_path(
    tracer: Tracer | list[Span] | CritGraph,
    factors: Mapping[str, float] | None = None,
    *,
    top_slack: int = 5,
) -> CritPathReport:
    """The critical-path report of a trace (optionally under what-if factors)."""
    graph = tracer if isinstance(tracer, CritGraph) else build_graph(tracer)
    sched = schedule(graph, factors)
    path_idx, terminal = extract_path(graph, sched)

    get = (factors or {}).get
    by_resource: dict[str, float] = {}
    by_layer: dict[str, float] = {}
    exposed = 0.0
    entries: list[PathEntry] = []
    for i in path_idx:
        span, res, layer = graph.spans[i], graph.resources[i], graph.layers[i]
        dur = sched.dur_s[i]
        entries.append(
            PathEntry(
                name=span.name,
                cat=span.cat,
                track=span.track,
                start_s=sched.start_s[i],
                dur_s=dur,
                resource=res,
                layer=layer,
            )
        )
        if graph.kinds[i] == "container":
            bound, bound_res, _ = _binding_member(graph, i, get)
            if bound_res is not None:
                by_resource[bound_res] = by_resource.get(bound_res, 0.0) + bound
            overhead = dur - bound
            if overhead > 0:
                by_resource["overhead"] = by_resource.get("overhead", 0.0) + overhead
            if layer:
                by_layer[layer] = by_layer.get(layer, 0.0) + dur
        elif res is not None:
            by_resource[res] = by_resource.get(res, 0.0) + dur
        if res == "collective":
            exposed += float((span.args or {}).get("exposed_s", dur))

    # Slack: classic CPM late-finish backward pass over the projection;
    # ``late_start[j] = late[j] - dur[j]`` is set before j's predecessors.
    end_to_end, end = sched.end_to_end_s, sched.end_s
    late = [end_to_end] * len(graph.spans)
    late_start = late[:]
    for i in reversed(sched.order):
        if graph.succs[i]:
            late[i] = min(map(late_start.__getitem__, graph.succs[i]))
        late_start[i] = late[i] - sched.dur_s[i]
    on_path = set(path_idx)
    rows = ((late[i] - end[i], i) for i in sched.order
            if i not in on_path and not graph.spans[i].instant)
    slack_rows = heapq.nsmallest(top_slack, rows, key=lambda t: (-t[0], t[1]))
    slack = [(graph.spans[i].name, graph.spans[i].track, s) for s, i in slack_rows]

    segments: list[dict[str, Any]] = []
    for e in entries:
        phase = _phase_of(e)
        if segments and segments[-1]["phase"] == phase:
            segments[-1]["dur_s"] += e.dur_s
            segments[-1]["spans"] += 1
        else:
            segments.append({"phase": phase, "dur_s": e.dur_s, "spans": 1})

    report = CritPathReport(
        end_to_end_s=end_to_end,
        terminal=graph.spans[terminal].name if terminal >= 0 else "",
        terminal_track=graph.spans[terminal].track if terminal >= 0 else "",
        path=entries,
        by_resource=by_resource,
        by_layer=by_layer,
        collective_exposed_s=exposed,
        top_slack=slack,
        n_nodes=graph.n_scheduled,
        n_edges=len(graph.edges),
        segments=segments,
    )
    return report


def path_spans(
    tracer: Tracer | list[Span] | CritGraph,
    factors: Mapping[str, float] | None = None,
) -> list[Span]:
    """The on-path spans themselves (for timeline highlighting)."""
    graph = tracer if isinstance(tracer, CritGraph) else build_graph(tracer)
    sched = schedule(graph, factors)
    path_idx, _ = extract_path(graph, sched)
    return [graph.spans[i] for i in path_idx]


def request_completions(
    graph: CritGraph, sched: ScheduleResult
) -> dict[int, float]:
    """Per-served-request completion times under a schedule.

    A request completes when the batch it joined finishes; the request's
    longest path is arrival -> batch formation -> serial engine wait ->
    batch compute, all encoded in the graph's edges. Keyed by ``rid``.
    """
    out: dict[int, float] = {}
    spans = graph.spans
    for i, span in enumerate(spans):
        if span.cat != "request_queued" or not span.args:
            continue
        rid = span.args.get("rid")
        if rid is None:
            continue
        for j in graph.succs[i]:
            if spans[j].cat == "batch_compute":
                out[int(rid)] = sched.end_s[j]
                break
    return out


# --------------------------------------------------------------------------- #
# rendering
# --------------------------------------------------------------------------- #
def render_critpath(report: CritPathReport | Tracer | list[Span]) -> str:
    """The terminal critical-path section (``python -m repro trace``)."""
    from repro.utils.tables import Table
    from repro.utils.units import format_time

    if not isinstance(report, CritPathReport):
        report = critical_path(report)
    total = report.end_to_end_s
    table = Table(
        headers=["resource", "on critical path", "share"],
        title="critical path (time that bounded the end-to-end result)",
    )
    for res in sorted(report.by_resource, key=lambda r: -report.by_resource[r]):
        t = report.by_resource[res]
        share = 100.0 * t / total if total > 0 else 0.0
        table.add_row(res, format_time(t), f"{share:.0f}%")
    lines = [table.render()]
    lines.append(
        f"end-to-end: {format_time(total)} | terminal: {report.terminal!r} "
        f"on {report.terminal_track} | {len(report.path)} spans on path "
        f"({report.n_nodes} nodes, {report.n_edges} edges)"
    )
    if report.collective_exposed_s > 0:
        lines.append(
            f"exposed collective on path: {format_time(report.collective_exposed_s)}"
        )
    if report.by_layer:
        top = sorted(report.by_layer.items(), key=lambda kv: -kv[1])[:5]
        lines.append(
            "top layers on path: "
            + ", ".join(f"{name} {format_time(t)}" for name, t in top)
        )
    if report.top_slack:
        name, track, s = report.top_slack[0]
        lines.append(
            f"largest slack off path: {name!r} on {track} "
            f"(could grow {format_time(s)} for free)"
        )
    return "\n".join(lines)
