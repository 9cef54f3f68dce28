"""Critical-path profiler over the span stream.

The aggregate views (the attribution table of :mod:`repro.trace.attribution`,
the roofline rows of :mod:`repro.metrics.roofline`) say how much time each
resource consumed *in total*; this module says whether that time actually
bounded the end-to-end result. It builds a dependency
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
* **Leaf spans** (the categories of
  :data:`~repro.trace.tracer.RESOURCE_CLASS`: the priced resources'
  components, collective steps and service windows, serving batches, fault
  retries, transfers and pipeline stages) carry resource time and scale
  with their class factor.
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
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Mapping, NamedTuple

from repro.errors import CritPathError
from repro.trace.tracer import RESOURCE_CLASS, RESOURCES, Span, Tracer

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


#: Span category -> (node kind as an interval, as an instant, resource class).
_CLASSIFY = {
    **{cat: ("leaf", "marker", res) for cat, res in RESOURCE_CLASS.items()},
    **{cat: ("container", "container", None) for cat in CONTAINER_CATS},
}
_UNCLASSIFIED = ("leaf", "marker", None)


@dataclass(frozen=True)
class CritGraph:
    """The dependency graph of one trace, compiled into per-node columns.

    Node ``i`` is ``spans[i]``; every other column is a tuple indexed the
    same way. :func:`build_graph` also fixes the Kahn order and walks the
    identity schedule in the same pass, so each scaled schedule is one
    walk over ``order``.
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
    #: Scheduling neighbours of each node, in ascending index order.
    preds: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[int, ...], ...]
    #: Member component node indices (containers only).
    members: tuple[tuple[int, ...], ...]
    #: Member spans (by node index) — priced inside containers, not scheduled.
    member_nodes: frozenset[int]
    #: Topological order over scheduled nodes (short of them on a cycle).
    order: tuple[int, ...]
    #: The unscaled schedule's (start, end, dur), walked with the order.
    identity: tuple[tuple[float, ...], ...]

    @property
    def n_scheduled(self) -> int:
        return len(self.spans) - len(self.member_nodes)

    @cached_property
    def edges(self) -> list[tuple[int, int]]:
        """Scheduled (dep + inferred-chain) edges as sorted (src, dst) pairs."""
        return [(i, j) for i, succ in enumerate(self.succs) for j in succ]


def build_graph(tracer: Tracer | list[Span]) -> CritGraph:
    """Compile a trace into its dependency graph.

    Accepts a :class:`Tracer` (explicit edges included) or a bare span
    list (same-track inference only).
    """
    recorded, raw_edges = (
        (tracer.spans, tracer.edges) if isinstance(tracer, Tracer) else (tracer, ())
    )
    spans = [span for span in recorded if span[1] not in EXCLUDED_CATS]
    n = len(spans)
    node_of = dict(zip(map(id, spans), range(n))).get

    members: list[tuple[int, ...]] = [()] * n
    member_nodes: set[int] = set()
    deps: list[tuple[int, int]] = []
    for src, dst, kind in raw_edges:
        si, di = node_of(id(src)), node_of(id(dst))
        if si is None or di is None or si == di:
            continue
        if kind == "member":
            members[di] += (si,)
            member_nodes.add(si)
        else:
            deps.append((si, di))
    # Explicit predecessors by destination; edges touching a (priced,
    # unscheduled) member drop out.
    preds: list[tuple[int, ...]] = [()] * n
    for si, di in deps:
        if si not in member_nodes and di not in member_nodes:
            preds[di] += (si,)
    del deps, node_of  # the largest temporaries: free them before the node pass

    # One pass classifies each node and infers same-track ordering:
    # non-member interval spans emitted on one track chain when the next
    # one starts at/after the previous end (clock- and cursor-driven
    # emission are both monotone per track; spans that overlap are
    # concurrent and stay unchained).
    kinds: list[str] = []
    resources: list[str | None] = []
    layers: list[str | None] = []
    floors: list[float] = []
    succs: list[tuple[int, ...]] = [()] * n
    heads: dict[str, int] = {}  # track -> chain head node
    head_ends: dict[str, float] = {}
    for i, span in enumerate(spans):
        _, cat, track, start, dur, args, instant = span
        interval, point, res = _CLASSIFY.get(cat, _UNCLASSIFIED)
        kind = point if instant else interval
        kinds.append(kind)
        resources.append(res)
        layers.append(_layer_of(span) if kind == "container" else None)
        pred = preds[i]
        if kind != "marker" and i not in member_nodes:
            end = start + dur
            head = heads.get(track)
            if head is None:
                heads[track], head_ends[track] = i, end
            else:
                head_end = head_ends[track]
                if start >= head_end - _CHAIN_EPS:
                    pred += (head,)
                # ``>=``: a zero-duration span ending exactly where its
                # predecessor did must still become the chain head, or the
                # next span would bypass it (and any explicit dependency
                # riding on it).
                if end >= head_end:
                    heads[track], head_ends[track] = i, end
        if len(pred) > 1:
            pred = tuple(sorted(set(pred)))
        preds[i] = pred
        for j in pred:
            succs[j] += (i,)
        if kind == "marker":
            floors.append(start)
        elif args and "ready_s" in args:
            floors.append(float(args["ready_s"]))
        else:
            floors.append(0.0 if pred else start)

    # Kahn's algorithm from the roots walks the identity schedule; the
    # provisional graph's ``order`` grows as nodes are released.
    graph = CritGraph(
        spans=tuple(spans), kinds=tuple(kinds), resources=tuple(resources),
        layers=tuple(layers), floors=tuple(floors), preds=tuple(preds),
        succs=tuple(succs), members=tuple(members),
        member_nodes=frozenset(member_nodes),
        order=[i for i in range(n) if not preds[i] and i not in member_nodes],
        identity=(),
    )
    identity = _walk(graph, {}, list(map(len, preds)))
    return replace(
        graph, order=tuple(graph.order), identity=tuple(map(tuple, identity))
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


def _walk(
    graph: CritGraph, factors: Mapping[str, float], indegree: list[int] | None = None
) -> tuple[list[float], list[float], list[float]]:
    """One forward pass in topological order under ``factors``.

    Each node's duration mirrors, operation for operation, what the
    simulator recomputes under :class:`~repro.trace.scaling.CostScaling`
    — containers re-apply the dual-pipeline ``max(members) + overhead``
    rule to scaled components — and ``start = max(floor, pred ends)``.
    With ``indegree``, the pass is also Kahn's algorithm: ``graph.order``
    holds the roots and doubles as the FIFO of ready nodes, and a node is
    walked once its predecessors are final.
    """
    get, order = factors.get, graph.order
    # Only factors other than 1.0: ``d * 1.0 == d`` bit for bit.
    scale = {res: f for res in RESOURCE_CLASS.values() if (f := get(res, 1.0)) != 1.0}
    spans, kinds, resources = graph.spans, graph.kinds, graph.resources
    layers, floors, members = graph.layers, graph.floors, graph.members
    preds, succs = graph.preds, graph.succs
    n = len(spans)
    start, end, dur = [0.0] * n, [0.0] * n, [0.0] * n
    for i in order:
        kind = kinds[i]
        if kind == "leaf":
            res, d = resources[i], spans[i][4]
            if res in scale:
                d *= scale[res]
        elif kind == "container":
            layer = layers[i]
            lf = get(f"layer:{layer}", 1.0) if layer else 1.0
            bound = 0.0
            for m in members[i]:
                md = spans[m][4] * (get(resources[m] or "", 1.0) * lf)
                if md > bound:
                    bound = md
            overhead = float((spans[i][5] or {}).get("overhead_s", 0.0))
            d = bound + overhead * (get("overhead", 1.0) * lf)
        else:
            d = 0.0
        # As ``max``: the first of equal values wins, the floor, then the
        # earliest-listed predecessor.
        s = floors[i]
        for p in preds[i]:
            if end[p] > s:
                s = end[p]
        start[i], end[i], dur[i] = s, s + d, d
        if indegree is not None:
            for j in succs[i]:
                indegree[j] -= 1
                if not indegree[j]:
                    order.append(j)
    return start, end, dur


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
        start, end, dur = _walk(graph, factors)
    else:
        start, end, dur = map(list, graph.identity)
    return ScheduleResult(start_s=start, end_s=end, dur_s=dur, order=list(graph.order))


# --------------------------------------------------------------------------- #
# critical path extraction
# --------------------------------------------------------------------------- #
class PathEntry(NamedTuple):
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


#: The classes of the priced resources: their time is compute phase.
_PRICED_CLASSES = frozenset(r.cls for r in RESOURCES)


def _phase_of(entry: PathEntry) -> str:
    if entry.resource == "collective":
        return "collective"
    if entry.track.split("/", 1)[0] == "serve" or entry.resource == "batch":
        return "serve"
    if entry.resource in _PRICED_CLASSES or entry.cat in ("layer_fwd", "layer_bwd"):
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
    terminal = max(zip(map(end.__getitem__, sched.order), sched.order))[1]
    path = [terminal]
    node = terminal
    while graph.preds[node]:
        # The latest-ending predecessor, ties to the lowest index (the
        # first listed, as ``preds`` ascend).
        binding = graph.preds[node][0]
        for p in graph.preds[node]:
            if end[p] > end[binding]:
                binding = p
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
        entries.append(PathEntry(
            span.name, span.cat, span.track, sched.start_s[i], dur, res, layer
        ))
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
    end_to_end, end, dur = sched.end_to_end_s, sched.end_s, sched.dur_s
    late = [end_to_end] * len(graph.spans)
    late_start = late[:]
    succs = graph.succs
    for i in reversed(sched.order):
        succ = succs[i]
        lt = late_start[succ[0]] if succ else end_to_end
        for j in succ:  # as ``min``: the first of equal values wins
            if late_start[j] < lt:
                lt = late_start[j]
        late[i], late_start[i] = lt, lt - dur[i]
    # Largest slack first, ties by node index: ``end - late`` is exactly
    # ``-(late - end)``, so native tuples order the rows.
    on_path = set(path_idx)
    spans = graph.spans
    rows = heapq.nsmallest(top_slack, (
        (end[i] - late[i], i) for i in sched.order
        if i not in on_path and not spans[i][6]
    ))
    slack = [(spans[i].name, spans[i].track, late[i] - end[i]) for _, i in rows]

    segments: list[dict[str, Any]] = []
    for e in entries:
        phase = _phase_of(e)
        if segments and segments[-1]["phase"] == phase:
            segments[-1]["dur_s"] += e.dur_s
            segments[-1]["spans"] += 1
        else:
            segments.append({"phase": phase, "dur_s": e.dur_s, "spans": 1})

    return CritPathReport(
        end_to_end_s=end_to_end,
        terminal=graph.spans[terminal].name if terminal >= 0 else "",
        terminal_track=graph.spans[terminal].track if terminal >= 0 else "",
        path=entries,
        by_resource=by_resource,
        by_layer=by_layer,
        collective_exposed_s=exposed,
        top_slack=slack,
        n_nodes=graph.n_scheduled,
        n_edges=sum(map(len, graph.succs)),
        segments=segments,
    )


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
