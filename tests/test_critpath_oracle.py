"""The compiled critical-path graph against the object walk it replaced.

:func:`~repro.trace.critpath.build_graph` compiles a trace into flat
columns with the topological order and the identity durations fixed once;
``schedule``, ``critical_path`` and ``project`` are one duration pass plus
one walk over that order. The oracle below is the plain definition: one
node object per span, a Kahn sort on every schedule, each duration
re-derived by the dual-pipeline rule, and every off-path node sorted for
slack. On generated traces both must agree bit for bit. Tier-1 runs a
modest number of examples; ``REPRO_HEAVY=1`` runs many more.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.trace.critpath import (
    CONTAINER_CATS,
    EXCLUDED_CATS,
    CritPathReport,
    PathEntry,
    _phase_of,
    build_graph,
    critical_path,
    extract_path,
    request_completions,
    schedule,
)
from repro.trace.tracer import RESOURCE_CLASS, Span, Tracer
from repro.trace.whatif import project

HEAVY = bool(int(os.environ.get("REPRO_HEAVY", "0") or "0"))
EXAMPLES = 2000 if HEAVY else 100
CHAIN_EPS = 1e-12


# --------------------------------------------------------------------------- #
# the oracle: one object per node, re-derived on every walk
# --------------------------------------------------------------------------- #
@dataclass
class Node:
    span: Span
    index: int
    kind: str
    resource: str | None = None
    layer: str | None = None
    floor_s: float | None = None
    preds: list[int] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)
    members: list[int] = field(default_factory=list)


@dataclass
class Graph:
    nodes: list[Node]
    edges: list[tuple[int, int]]
    member_nodes: set[int]


def layer_of(span: Span) -> str | None:
    if span.cat not in ("layer_fwd", "layer_bwd"):
        return None
    name, sep, suffix = span.name.rpartition(" ")
    return name if sep and suffix in ("fwd", "bwd") else span.name


def oracle_graph(tracer: Tracer) -> Graph:
    nodes: list[Node] = []
    by_span: dict[int, int] = {}
    for span in tracer.spans:
        if span.cat in EXCLUDED_CATS:
            continue
        if span.cat in CONTAINER_CATS:
            kind = "container"
        elif span.instant:
            kind = "marker"
        else:
            kind = "leaf"
        node = Node(span, len(nodes), kind, RESOURCE_CLASS.get(span.cat), layer_of(span))
        if kind == "marker":
            node.floor_s = span.start_s
        elif span.args and "ready_s" in span.args:
            node.floor_s = float(span.args["ready_s"])
        by_span[id(span)] = node.index
        nodes.append(node)
    member_nodes: set[int] = set()
    dep_edges: set[tuple[int, int]] = set()
    for src, dst, kind in tracer.edges:
        si, di = by_span.get(id(src)), by_span.get(id(dst))
        if si is None or di is None or si == di:
            continue
        if kind == "member":
            nodes[di].members.append(si)
            member_nodes.add(si)
        else:
            dep_edges.add((si, di))
    last_on_track: dict[str, int] = {}
    for node in nodes:
        if node.index in member_nodes or node.kind == "marker":
            continue
        prev = last_on_track.get(node.span.track)
        if prev is not None and node.span.start_s >= nodes[prev].span.end_s - CHAIN_EPS:
            dep_edges.add((prev, node.index))
        if prev is None or node.span.end_s >= nodes[prev].span.end_s:
            last_on_track[node.span.track] = node.index
    edges = sorted(
        (s, d) for s, d in dep_edges if s not in member_nodes and d not in member_nodes
    )
    for s, d in edges:
        nodes[d].preds.append(s)
        nodes[s].succs.append(d)
    return Graph(nodes, edges, member_nodes)


def factor(factors, cls: str) -> float:
    return factors.get(cls, 1.0) if factors else 1.0


def effective_duration(graph: Graph, node: Node, factors) -> float:
    span = node.span
    if node.kind == "marker":
        return 0.0
    if node.kind == "container":
        lf = factor(factors, f"layer:{node.layer}") if node.layer else 1.0
        bound = 0.0
        for mi in node.members:
            m = graph.nodes[mi]
            d = m.span.dur_s * (factor(factors, m.resource or "") * lf)
            if d > bound:
                bound = d
        overhead = 0.0
        if span.args and "overhead_s" in span.args:
            overhead = float(span.args["overhead_s"])
        return bound + overhead * (factor(factors, "overhead") * lf)
    if node.resource is not None:
        return span.dur_s * factor(factors, node.resource)
    return span.dur_s


def oracle_schedule(graph: Graph, factors):
    n = len(graph.nodes)
    start, end, dur = [0.0] * n, [0.0] * n, [0.0] * n
    indegree = [len(node.preds) for node in graph.nodes]
    ready = [i for i in range(n) if indegree[i] == 0 and i not in graph.member_nodes]
    order: list[int] = []
    head = 0
    while head < len(ready):
        i = ready[head]
        head += 1
        order.append(i)
        node = graph.nodes[i]
        d = effective_duration(graph, node, factors)
        release = node.floor_s
        if release is None:
            release = node.span.start_s if not node.preds else 0.0
        s = release
        for p in node.preds:
            if end[p] > s:
                s = end[p]
        start[i], dur[i] = s, d
        end[i] = s + d
        for j in node.succs:
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)
    assert len(order) == n - len(graph.member_nodes)
    return start, end, dur, order


def oracle_path(graph: Graph, sched) -> tuple[list[int], int]:
    start, end, _, order = sched
    if not order:
        return [], -1
    terminal = max(order, key=lambda i: (end[i], i))
    path = [terminal]
    node = terminal
    while graph.nodes[node].preds:
        binding = max(graph.nodes[node].preds, key=lambda p: (end[p], -p))
        if end[binding] < start[node]:
            break
        node = binding
        path.append(node)
    path.reverse()
    return path, terminal


def oracle_report(graph: Graph, factors, top_slack: int) -> dict:
    sched = oracle_schedule(graph, factors)
    start, end, dur, order = sched
    path_idx, terminal = oracle_path(graph, sched)
    by_resource: dict[str, float] = {}
    by_layer: dict[str, float] = {}
    exposed = 0.0
    entries = []
    for i in path_idx:
        node = graph.nodes[i]
        span = node.span
        entries.append(PathEntry(span.name, span.cat, span.track, start[i], dur[i],
                                 node.resource, node.layer))
        if node.kind == "container":
            lf = factor(factors, f"layer:{node.layer}") if node.layer else 1.0
            bound, bound_res = 0.0, None
            for mi in node.members:
                m = graph.nodes[mi]
                d = m.span.dur_s * (factor(factors, m.resource or "") * lf)
                if d > bound:
                    bound, bound_res = d, m.resource
            if bound_res is not None:
                by_resource[bound_res] = by_resource.get(bound_res, 0.0) + bound
            if dur[i] - bound > 0:
                by_resource["overhead"] = by_resource.get("overhead", 0.0) + (dur[i] - bound)
            if node.layer:
                by_layer[node.layer] = by_layer.get(node.layer, 0.0) + dur[i]
        elif node.resource is not None:
            by_resource[node.resource] = by_resource.get(node.resource, 0.0) + dur[i]
        if node.resource == "collective":
            if span.args and "exposed_s" in span.args:
                exposed += float(span.args["exposed_s"])
            else:
                exposed += dur[i]
    end_to_end = max(end, default=0.0)
    late = [end_to_end] * len(graph.nodes)
    for i in reversed(order):
        if graph.nodes[i].succs:
            late[i] = min(late[j] - dur[j] for j in graph.nodes[i].succs)
    on_path = set(path_idx)
    rows = sorted(
        ((late[i] - end[i], i) for i in order
         if i not in on_path and not graph.nodes[i].span.instant),
        key=lambda t: (-t[0], t[1]),
    )
    segments: list[dict] = []
    for e in entries:
        phase = _phase_of(e)
        if segments and segments[-1]["phase"] == phase:
            segments[-1]["dur_s"] += e.dur_s
            segments[-1]["spans"] += 1
        else:
            segments.append({"phase": phase, "dur_s": e.dur_s, "spans": 1})
    return CritPathReport(
        end_to_end_s=end_to_end,
        terminal=graph.nodes[terminal].span.name if terminal >= 0 else "",
        terminal_track=graph.nodes[terminal].span.track if terminal >= 0 else "",
        path=entries,
        by_resource=by_resource,
        by_layer=by_layer,
        collective_exposed_s=exposed,
        top_slack=[(graph.nodes[i].span.name, graph.nodes[i].span.track, s)
                   for s, i in rows[:top_slack]],
        n_nodes=len(graph.nodes) - len(graph.member_nodes),
        n_edges=len(graph.edges),
        segments=segments,
    ).to_json()


def oracle_completions(graph: Graph, end: list[float]) -> dict[int, float]:
    out: dict[int, float] = {}
    for node in graph.nodes:
        args = node.span.args
        if node.span.cat != "request_queued" or not args or args.get("rid") is None:
            continue
        for j in node.succs:
            if graph.nodes[j].span.cat == "batch_compute":
                out[int(args["rid"])] = end[j]
                break
    return out


# --------------------------------------------------------------------------- #
# generated traces
# --------------------------------------------------------------------------- #
TRACKS = ("a", "b", "r0/cpe", "r0/dma", "serve/engine")
LEAF_CATS = (*RESOURCE_CLASS, "io_wait")  # io_wait: a leaf with no class
INSTANT_CATS = ("request_queued", "collective_launch", "fault_inject")
LAYERS = ("conv1", "ip1")
CONTAINER_NAMES = ("conv1 fwd", "conv1 bwd", "ip1 fwd", "ip1", "pool", " fwd")
COMPONENTS = (("cpe", "cpe_compute"), ("dma", "dma_transfer"), ("rlc", "rlc_exchange"))
CLASSES = ("cpe", "dma", "rlc", "collective", "batch", "overhead",
           *(f"layer:{name}" for name in LAYERS))

# Dyadic values make abutting spans, equal ends and equal slacks common;
# arbitrary floats make the grouping of each product matter.
durations = st.one_of(
    st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0)),
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False, allow_infinity=False),
)
offsets = st.sampled_from((None, None, 0.0, -0.5, -1.0, 0.25, 2.0))
factor_values = st.one_of(
    st.sampled_from((0.5, 2.0, 1.0)),
    st.floats(min_value=0.05, max_value=5.0, allow_nan=False, allow_infinity=False),
)


def pinned(tr: Tracer, track: str, offset: float | None) -> float | None:
    """Cursor-driven (None) or pinned near the track's cursor."""
    return None if offset is None else max(0.0, tr.cursor(track) + offset)


@st.composite
def traces(draw) -> Tracer:
    tr = Tracer()
    rid = 0
    for _ in range(draw(st.integers(min_value=1, max_value=24))):
        op = draw(st.sampled_from(("leaf", "leaf", "leaf", "instant", "container",
                                   "excluded", "edge")))
        track = draw(st.sampled_from(TRACKS))
        start = pinned(tr, track, draw(offsets))
        if op == "leaf":
            args = None
            if draw(st.booleans()):
                args = {"ready_s": draw(st.sampled_from((0.0, 1.0, 2.5, 6.0)))}
            elif draw(st.booleans()):
                args = {"exposed_s": draw(durations)}
            tr.emit("leaf", draw(st.sampled_from(LEAF_CATS)), track=track,
                    start=start, dur=draw(durations), args=args)
        elif op == "instant":
            cat = draw(st.sampled_from(INSTANT_CATS))
            args = {"rid": rid} if cat == "request_queued" else None
            rid += 1
            tr.instant_event("mark", cat, track=track, start=start, args=args)
        elif op == "container":
            args = None
            if draw(st.booleans()):
                args = {"overhead_s": draw(durations)}
            parent = tr.emit(draw(st.sampled_from(CONTAINER_NAMES)),
                             draw(st.sampled_from(tuple(sorted(CONTAINER_CATS)))),
                             track=track, start=start, dur=draw(durations), args=args)
            for sub, cat in COMPONENTS:
                if draw(st.booleans()):
                    comp = tr.emit(parent.name, cat, track=f"{track}/{sub}",
                                   start=parent.start_s, dur=draw(durations))
                    tr.edge(comp, parent, kind="member")
        elif op == "excluded":
            tr.emit("iter", "solver_iter", track=track, start=start, dur=draw(durations))
        elif len(tr.spans) >= 2:
            # Forward dependency edges only: the graph stays acyclic.
            j = draw(st.integers(min_value=1, max_value=len(tr.spans) - 1))
            i = draw(st.integers(min_value=0, max_value=j - 1))
            tr.edge(tr.spans[i], tr.spans[j])
    return tr


# Some classes absent (factor 1.0), or every class scaled at once.
factor_maps = st.one_of(
    st.dictionaries(st.sampled_from(CLASSES), factor_values, max_size=len(CLASSES)),
    st.fixed_dictionaries({cls: factor_values for cls in CLASSES}),
)


# --------------------------------------------------------------------------- #
# the properties
# --------------------------------------------------------------------------- #
def grouped_member_trace() -> Tracer:
    """A layer container whose member time depends on the product grouping:
    ``0.1 * (0.3 * 0.7) != (0.1 * 0.3) * 0.7``."""
    tr = Tracer()
    parent = tr.emit("conv1 fwd", "layer_fwd", track="layers", dur=0.1)
    comp = tr.emit("conv1 fwd", "cpe_compute", track="cpe", start=0.0, dur=0.1)
    tr.edge(comp, parent, kind="member")
    return tr


def zero_head_trace() -> Tracer:
    """A zero-duration span ending where its predecessor did: it must head
    the track's chain, so the path runs through it."""
    tr = Tracer()
    for dur in (1.0, 0.0, 1.0):
        tr.emit("s", "cpe_compute", track="a", dur=dur)
    return tr


def slack_tie_trace() -> Tracer:
    """Three off-path spans with zero slack whose Kahn order (roots first)
    differs from their index order."""
    tr = Tracer()
    tr.emit("a0", "cpe_compute", track="a", dur=1.0)
    tr.emit("a1", "cpe_compute", track="a", dur=1.0)
    tr.emit("b", "dma_transfer", track="b", dur=2.0)
    tr.emit("c", "rlc_exchange", track="c", dur=2.0)
    return tr


def same(got, want) -> bool:
    """Bitwise equality: ``repr`` round-trips floats and tells -0.0 from 0.0."""
    return repr(got) == repr(want)


@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(tr=traces(), factors=factor_maps)
@example(tr=grouped_member_trace(), factors={"cpe": 0.3, "layer:conv1": 0.7})
@example(tr=zero_head_trace(), factors={})
@example(tr=slack_tie_trace(), factors={"dma": 1.0})
def test_compiled_graph_matches_object_walk(tr, factors):
    oracle = oracle_graph(tr)
    graph = build_graph(tr)
    assert same(graph.edges, oracle.edges)
    assert graph.member_nodes == oracle.member_nodes
    n = len(oracle.nodes)
    for f in (None, factors):
        want = oracle_schedule(oracle, f)
        got = schedule(graph, f)
        assert same((got.start_s, got.end_s, got.dur_s, got.order), want)
        assert same(extract_path(graph, got), oracle_path(oracle, want))
        assert same(request_completions(graph, got), oracle_completions(oracle, want[1]))
        for k in (0, 1, 5, n):
            assert same(critical_path(graph, f, top_slack=k).to_json(),
                        oracle_report(oracle, f, k))
    projection = project(graph, factors)
    assert same(projection.baseline_s, max(oracle_schedule(oracle, None)[1], default=0.0))
    assert same(projection.report.to_json(), oracle_report(oracle, factors, 5))


# --------------------------------------------------------------------------- #
# traces from the real emitters
# --------------------------------------------------------------------------- #
#: Emitted trace sizes; ``REPRO_HEAVY=1`` uses the wall-clock benchmark's
#: (``perfbench/workloads.py``, the ``trace_timelines`` workload).
SERVE_REQUESTS = 6000 if HEAVY else 400
DP_RANKS = 256 if HEAVY else 4
PIPE_STAGES, PIPE_MICROBATCHES = (8, 256) if HEAVY else (4, 8)


def served_trace() -> Tracer:
    """Bursty arrivals past a six-deep admission queue: some are shed."""
    from repro.serve.arrivals import ArrivalPlan
    from repro.testing.stubs import TableCostModel
    from repro.serve.engine import ServeConfig, ServingEngine
    from repro.trace.tracer import tracing

    requests = ArrivalPlan.from_seed(
        "bursty:0xc0ffee:3", rate_rps=1500.0, n_requests=SERVE_REQUESTS
    ).generate()
    engine = ServingEngine(
        TableCostModel({b: 0.001 + 0.0007 * b for b in range(1, 9)}),
        ServeConfig(max_batch=8, max_wait_s=0.002, queue_bound=6),
    )
    with tracing() as tr:
        report = engine.run(requests)
    assert 0 < report.n_shed < report.n_requests
    return tr


def data_parallel_trace() -> Tracer:
    """One traced LeNet step: member spans, the barrier, the RHD replay."""
    from repro.frame.model_zoo import lenet
    from repro.trace.session import trace_training_step

    tr, _ = trace_training_step(lenet.build(batch_size=16), ranks=DP_RANKS)
    return tr


def pipeline_trace(schedule_name: str) -> Tracer:
    """A walked pipeline iteration with uneven stages and links."""
    from repro.pipeline.schedule import emit_pipeline_trace, simulate_pipeline

    S = PIPE_STAGES
    timeline = simulate_pipeline(
        [0.5 + 0.25 * (s % 3) for s in range(S)],
        [1.0 + 0.375 * ((2 * s) % 3) for s in range(S)],
        n_microbatches=PIPE_MICROBATCHES,
        schedule=schedule_name,
        fwd_xfer_s=[0.125 + 0.0625 * (i % 2) for i in range(S - 1)],
        bwd_xfer_s=[0.3 - 0.05 * (i % 3) for i in range(S - 1)],
    )
    tr = Tracer()
    emit_pipeline_trace(tr, timeline)
    return tr


def check_against_oracle(tr: Tracer, factors: dict[str, float]) -> None:
    """The compiled graph against the object walk on one emitted trace,
    identity and under ``factors`` (classes the trace responds to)."""
    oracle = oracle_graph(tr)
    graph = build_graph(tr)
    assert same(graph.edges, oracle.edges)
    assert graph.member_nodes == oracle.member_nodes
    for f in (None, factors):
        want = oracle_schedule(oracle, f)
        got = schedule(graph, f)
        assert same((got.start_s, got.end_s, got.dur_s, got.order), want)
        assert same(extract_path(graph, got), oracle_path(oracle, want))
        assert same(request_completions(graph, got), oracle_completions(oracle, want[1]))
        for k in (0, 1, 5):
            assert same(critical_path(graph, f, top_slack=k).to_json(),
                        oracle_report(oracle, f, k))
    projection = project(graph, factors)
    assert same(projection.baseline_s, max(oracle_schedule(oracle, None)[1], default=0.0))
    assert same(projection.report.to_json(), oracle_report(oracle, factors, 5))


def test_served_trace_matches_object_walk():
    check_against_oracle(served_trace(), {"batch": 0.625})


def test_data_parallel_trace_matches_object_walk():
    check_against_oracle(
        data_parallel_trace(), {"cpe": 0.5, "dma": 2.0, "rlc": 0.7, "collective": 1.3}
    )


def test_1f1b_pipeline_trace_matches_object_walk():
    check_against_oracle(pipeline_trace("1f1b"), {"stage": 0.5, "p2p": 2.0})


def test_fill_drain_pipeline_trace_matches_object_walk():
    check_against_oracle(pipeline_trace("fill_drain"), {"stage": 1.7, "p2p": 0.3})
