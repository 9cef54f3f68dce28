"""Trace sessions: end-to-end timelines of a simulated training step.

Ties the tracer to the workload the CLI exposes (``python -m repro trace
<model> --ranks N``): the data-parallel iteration that
:class:`~repro.parallel.ssgd.SSGDIterationModel` prices for Figs. 10/11
(Algorithm 1). Every rank runs its layer passes (priced by the layer
plans), the CG sync and CG0's local gradient reduce; the ranks allreduce
the gradients with recursive halving/doubling over the TaihuLight fabric;
every rank applies the SGD update, and the next iteration starts after it.

The collective is traced through :func:`replay_rhd`, which hands
:func:`~repro.simmpi.collectives.rhd.rhd_schedule` — the schedule
:func:`~repro.simmpi.collectives.rhd.rhd_allreduce` executes — to the
collectives' one accounting replay,
:func:`~repro.simmpi.collectives.reduce_ops.replay`. It charges every round
through ``SimComm.account_step`` without materializing the gradient
buffers (a VGG-16 payload is 0.5 GB per rank; the replay prices it in
microseconds). The executor charges through the same replay, and
``tests/test_trace_integration.py`` pins replay-vs-executed equality for
every algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernels.plan import PlanCost
from repro.parallel.ssgd import SSGDIterationModel
from repro.parallel.threads import node_iteration_time
from repro.simmpi.collectives.reduce_ops import replay
from repro.simmpi.collectives.rhd import rhd_schedule
from repro.simmpi.comm import CollectiveResult, SimComm
from repro.simmpi.reorder import block_placement, round_robin_placement
from repro.topology.fabric import TaihuLightFabric
from repro.trace.scaling import active as _scaling
from repro.trace.tracer import Tracer, emit_cost_spans, suspended, tracing

#: ``scheme`` -> rank placement; its ``name`` is the iteration model's.
PLACEMENTS = {"improved": round_robin_placement, "original": block_placement}


def replay_rhd(comm: SimComm, nbytes: float, *, itemsize: int = 4) -> CollectiveResult:
    """Accounting-only recursive halving/doubling allreduce.

    Charges ``comm`` with exactly the steps, pairs and byte counts that
    :func:`~repro.simmpi.collectives.rhd.rhd_allreduce` charges for a
    payload of ``nbytes`` (``nbytes / itemsize`` elements), including the
    non-power-of-two fold/unfold and MPICH's near-equal block splits — but
    moves no data, so arbitrarily large gradients trace cheaply.
    """
    n = max(1, int(round(float(nbytes) / itemsize)))
    return replay(comm, rhd_schedule(comm.p, n, itemsize))


def trace_net_iteration(net, costs: list, tracer: Tracer) -> float:
    """Emit one simulated training iteration of ``net`` as spans.

    ``costs`` is the net's priced per-layer walk
    (:meth:`~repro.frame.net.Net.sw_layer_costs`), priced once by the
    caller for every rank and iteration. Under the tracer's current track
    context: ``layer_fwd`` spans in layer order, ``layer_bwd`` spans in
    reverse order (each with compute/DMA/RLC component children on the
    resource tracks), and one ``solver_iter`` span covering the sweep.
    Returns the iteration's simulated seconds.
    """
    start = tracer.cursor("layers")
    prev = None
    for layer, cost in costs:
        parent = emit_cost_spans(
            tracer, f"{layer.name} fwd", cost.forward,
            cat="layer_fwd", args={"layer_type": layer.type},
        )
        if parent is not None:
            if prev is not None:
                tracer.edge(prev, parent)
            prev = parent
    for layer, cost in reversed(costs):
        parent = emit_cost_spans(
            tracer, f"{layer.name} bwd", cost.backward,
            cat="layer_bwd", args={"layer_type": layer.type},
        )
        if parent is not None:
            if prev is not None:
                tracer.edge(prev, parent)
            prev = parent
    dur = tracer.cursor("layers") - start
    tracer.emit(
        f"{net.name} iteration",
        "solver_iter",
        track="solver",
        start=start,
        dur=dur,
        args={"layers": len(net.layers)},
    )
    return dur


@dataclass(frozen=True)
class SessionSummary:
    """What one traced training step simulated.

    The terms are :class:`~repro.parallel.ssgd.IterationBreakdown`'s, per
    rank (the ranks are symmetric) and summed over the iterations:
    ``compute_s`` (layer passes plus the CG sync), ``local_reduce_s``,
    ``allreduce_s`` and ``update_s``. ``total_s`` is the traced end: the
    same terms accumulated along the timeline, so it equals
    ``tracer.end_time()`` and the critical-path end bitwise.
    ``node_dma_bytes`` is what the local reduces and updates stream; the
    allreduce's per-rank wire bytes split by link (``wire_bytes_intra``,
    ``wire_bytes_cross``) and its locally reduced ``reduce_bytes`` sum
    the :class:`~repro.simmpi.comm.CollectiveResult` of every iteration.
    """

    model: str
    ranks: int
    iterations: int
    compute_s: float
    local_reduce_s: float
    allreduce_s: float
    update_s: float
    total_s: float
    allreduce_steps: int
    payload_bytes: float
    node_dma_bytes: float
    scheme: str
    wire_bytes_intra: float
    wire_bytes_cross: float
    reduce_bytes: float


def trace_training_step(
    net,
    *,
    ranks: int = 4,
    iterations: int = 1,
    tracer: Tracer | None = None,
    scheme: str = "improved",
    nodes_per_supernode: int | None = None,
) -> tuple[Tracer, SessionSummary]:
    """Trace ``iterations`` data-parallel training steps of ``net``.

    One :class:`~repro.parallel.ssgd.SSGDIterationModel` (gradient payload,
    ``nodes_per_supernode`` and the placement ``scheme`` names:
    ``round-robin`` for ``"improved"``, ``block`` for ``"original"``)
    prices everything but the layers. Each iteration, in order: every
    rank's layer spans, CG sync and local reduce (tracks
    ``rank<r>/{solver,layers,cpe,dma,rlc}``); a zero-duration barrier on
    ``rank0/collective`` that waits on every rank; the allreduce rounds on
    ``rank<r>/collective``; every rank's SGD update.
    """
    if ranks < 1 or iterations < 1:
        raise ValueError(f"ranks and iterations must be >= 1, got {ranks}, {iterations}")
    if scheme not in PLACEMENTS:
        raise ValueError(f"scheme must be 'improved' or 'original', got {scheme!r}")
    q = nodes_per_supernode
    if q is None:
        # Prefer a layout with >= 2 supernodes so cross-supernode steps
        # show up; fall back to one supernode for tiny/odd rank counts.
        q = ranks // 2 if ranks % 2 == 0 and ranks > 2 else ranks
    if q < 1 or ranks % q != 0:
        raise ValueError(f"ranks={ranks} must be a multiple of nodes_per_supernode={q}")
    tr = tracer if tracer is not None else Tracer()

    payload = float(net.param_bytes())
    placement = PLACEMENTS[scheme](ranks, q)
    # The layer spans price the compute, so the model's compute_s is unused.
    model = SSGDIterationModel(
        compute_s=0.0,
        model_bytes=payload,
        nodes_per_supernode=q,
        placement=placement.name,
    )
    node = node_iteration_time(0.0, payload)
    # The local reduce (four gradient copies in, one out) and the update
    # (params, grads and velocity) each stream five payloads through DMA.
    sync = PlanCost(overhead_s=node.sync_s)
    local_reduce = PlanCost(dma_s=node.local_reduce_s, dma_bytes=5.0 * payload)
    update = PlanCost(dma_s=model.update_time(), dma_bytes=5.0 * payload)
    # Every rank and iteration runs the same layer passes, so the net is
    # priced once, with ambient tracing suspended so the plan search inside
    # the cost hooks does not spam the trace with candidate LDM-allocation
    # events.
    with suspended():
        costs = net.sw_layer_costs()
    sc = _scaling()
    if sc.enabled:
        # What-if validation: scale each layer's component costs exactly
        # as the projection does, then let total_s re-derive the
        # dual-pipeline bound from the scaled components.
        costs = [
            (
                layer,
                cost.__class__(
                    sc.scale_plan_cost(cost.forward, layer.name),
                    sc.scale_plan_cost(cost.backward, layer.name),
                ),
            )
            for layer, cost in costs
        ]
        sync, local_reduce, update = (
            sc.scale_plan_cost(c) for c in (sync, local_reduce, update)
        )
    fabric = TaihuLightFabric(n_nodes=ranks, nodes_per_supernode=q)

    compute_s = local_reduce_s = allreduce_s = update_s = 0.0
    steps = 0
    intra = cross = reduced_bytes = 0.0
    with tracing(tr):
        for _ in range(iterations):
            reduced = []
            for r in range(ranks):
                with tr.context(f"rank{r}"):
                    layers_s = trace_net_iteration(net, costs, tr)
                    emit_cost_spans(tr, "cg sync", sync)
                    reduced.append(emit_cost_spans(tr, "local reduce", local_reduce))
            compute_s += layers_s + sync.total_s
            local_reduce_s += local_reduce.total_s
            ready = max(span.end_s for span in reduced)
            last_step = None
            if ranks > 1:
                barrier = tr.emit(
                    "barrier", "collective_step", track="rank0/collective", start=ready
                )
                for span in reduced:
                    tr.edge(span, barrier)
                # A fresh communicator whose clock starts at the barrier, so
                # every round's start accumulates exactly as the critical
                # path chains it.
                comm = SimComm(fabric, placement)
                comm.clock.advance(ready)
                comm.prev_step_span = barrier
                res = replay_rhd(comm, payload)
                ready = comm.clock.now
                last_step = comm.prev_step_span
                allreduce_s += res.time_s
                steps += res.steps
                intra += res.bytes_intra
                cross += res.bytes_cross
                reduced_bytes += res.reduce_bytes
            for r in range(ranks):
                with tr.context(f"rank{r}"):
                    updated = emit_cost_spans(tr, "sgd update", update, start=ready)
                if last_step is not None:
                    tr.edge(last_step, updated)
            update_s += update.total_s
    summary = SessionSummary(
        model=net.name,
        ranks=ranks,
        iterations=iterations,
        compute_s=compute_s,
        local_reduce_s=local_reduce_s,
        allreduce_s=allreduce_s,
        update_s=update_s,
        total_s=updated.end_s,
        allreduce_steps=steps,
        payload_bytes=payload,
        node_dma_bytes=iterations * (local_reduce.dma_bytes + update.dma_bytes),
        scheme=scheme,
        wire_bytes_intra=intra,
        wire_bytes_cross=cross,
        reduce_bytes=reduced_bytes,
    )
    return tr, summary
