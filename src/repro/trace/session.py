"""Trace sessions: end-to-end timelines of a simulated training step.

Ties the tracer to the workload the CLI exposes (``python -m repro trace
<model> --ranks N``): every rank runs one data-parallel training iteration
(identical compute, Algorithm 1's node-local half priced by the layer
plans), then the ranks synchronize gradients with the recursive
halving/doubling allreduce over the TaihuLight fabric, placed after the
compute phase on the shared timeline.

The collective is traced through :func:`replay_rhd` — a schedule-accurate
*accounting replay* of :func:`~repro.simmpi.collectives.rhd.rhd_allreduce`
that walks the identical step/pair/byte structure through
``SimComm.account_step`` without materializing the gradient buffers (a
VGG-16 payload is 0.5 GB per rank; the replay prices it in microseconds).
``tests/test_trace_integration.py`` pins replay-vs-executed equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.registry import active as _metrics
from repro.simmpi.collectives.reduce_ops import block_offsets
from repro.simmpi.comm import CollectiveResult, SimComm
from repro.simmpi.reorder import block_placement, round_robin_placement
from repro.topology.fabric import TaihuLightFabric
from repro.trace.scaling import active as _scaling
from repro.trace.tracer import Span, Tracer, active, emit_cost_spans, suspended, tracing


def _largest_pow2_leq(p: int) -> int:
    k = 1
    while k * 2 <= p:
        k *= 2
    return k


def replay_rhd(comm: SimComm, nbytes: float, *, itemsize: int = 4) -> CollectiveResult:
    """Accounting-only recursive halving/doubling allreduce.

    Charges ``comm`` with exactly the steps, pairs and byte counts that
    :func:`~repro.simmpi.collectives.rhd.rhd_allreduce` charges for a
    payload of ``nbytes`` (``nbytes / itemsize`` elements), including the
    non-power-of-two fold/unfold and MPICH's near-equal block splits — but
    moves no data, so arbitrarily large gradients trace cheaply. Its
    ``comm.*`` counters carry the same ``collective="rhd"`` label.
    """
    with _metrics().labelled(collective="rhd"):
        return _replay_rhd(comm, nbytes, itemsize)


def _replay_rhd(comm: SimComm, nbytes: float, itemsize: int) -> CollectiveResult:
    p = comm.p
    n = max(1, int(round(float(nbytes) / itemsize)))
    result = CollectiveResult()
    if p == 1:
        return result
    nbytes_full = float(n * itemsize)

    # --- fold down to a power of two -------------------------------------
    k = _largest_pow2_leq(p)
    r = p - k
    if r > 0:
        pairs = [(2 * i, 2 * i + 1, nbytes_full) for i in range(r)]
        comm.account_step(result, pairs, reduce_bytes=nbytes_full)
        active_ranks = [2 * i for i in range(r)] + list(range(2 * r, p))
    else:
        active_ranks = list(range(p))

    off = block_offsets(n, k)

    def span_bytes(lo_blk: int, hi_blk: int) -> float:
        return float((off[hi_blk] - off[lo_blk]) * itemsize)

    # --- reduce-scatter: recursive halving --------------------------------
    lo = [0] * k
    hi = [k] * k
    d = k // 2
    while d >= 1:
        pairs = []
        max_reduce = 0.0
        for v in range(k):
            w = v ^ d
            if w < v:
                continue
            mid = (lo[v] + hi[v]) // 2
            send_v = span_bytes(mid, hi[v])
            send_w = span_bytes(lo[v], mid)
            pairs.append((active_ranks[v], active_ranks[w], max(send_v, send_w)))
            max_reduce = max(max_reduce, send_v, send_w)
            lo[v], hi[v] = lo[v], mid
            lo[w], hi[w] = mid, hi[w]
        comm.account_step(result, pairs, reduce_bytes=max_reduce)
        d //= 2

    # --- allgather: recursive doubling ------------------------------------
    d = 1
    while d < k:
        pairs = []
        merged: dict[int, tuple[int, int]] = {}
        for v in range(k):
            w = v ^ d
            if w < v:
                continue
            send_v = span_bytes(lo[v], hi[v])
            send_w = span_bytes(lo[w], hi[w])
            pairs.append((active_ranks[v], active_ranks[w], max(send_v, send_w)))
            span = (min(lo[v], lo[w]), max(hi[v], hi[w]))
            merged[v] = span
            merged[w] = span
        for v, (nlo, nhi) in merged.items():
            lo[v], hi[v] = nlo, nhi
        comm.account_step(result, pairs)
        d *= 2

    # --- unfold ------------------------------------------------------------
    if r > 0:
        pairs = [(2 * i, 2 * i + 1, nbytes_full) for i in range(r)]
        comm.account_step(result, pairs)
    return result


def trace_net_iteration(net, tracer: Tracer | None = None) -> float:
    """Emit one simulated training iteration of ``net`` as spans.

    Under the tracer's current track context: ``layer_fwd`` spans in layer
    order, ``layer_bwd`` spans in reverse order (each with compute/DMA/RLC
    component children on the resource tracks), and one ``solver_iter``
    span covering the sweep. Returns the iteration's simulated seconds.

    Layer costs are computed with ambient tracing *suspended* so the plan
    search inside the cost hooks does not spam the trace with candidate
    LDM-allocation events.
    """
    tr = tracer if tracer is not None else active()
    if not tr.enabled:
        return float(net.sw_iteration_time())
    start = tr.cursor("layers")
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
    prev = None
    for layer, cost in costs:
        parent = emit_cost_spans(
            tr, f"{layer.name} fwd", cost.forward,
            cat="layer_fwd", args={"layer_type": layer.type},
        )
        if parent is not None:
            if prev is not None:
                tr.edge(prev, parent)
            prev = parent
    for layer, cost in reversed(costs):
        parent = emit_cost_spans(
            tr, f"{layer.name} bwd", cost.backward,
            cat="layer_bwd", args={"layer_type": layer.type},
        )
        if parent is not None:
            if prev is not None:
                tr.edge(prev, parent)
            prev = parent
    dur = tr.cursor("layers") - start
    tr.emit(
        f"{net.name} iteration",
        "solver_iter",
        track="solver",
        dur=dur,
        args={"layers": len(net.layers)},
    )
    return dur


@dataclass(frozen=True)
class SessionSummary:
    """What one traced training step simulated."""

    model: str
    ranks: int
    iterations: int
    compute_s: float
    allreduce_s: float
    allreduce_steps: int
    payload_bytes: float
    scheme: str
    wire_bytes_intra: float
    wire_bytes_cross: float

    @property
    def total_s(self) -> float:
        return self.compute_s + self.allreduce_s


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

    Every rank gets an identical compute timeline (tracks
    ``rank<r>/{solver,layers,cpe,dma,rlc}``); each iteration's gradient
    allreduce follows on ``rank<r>/collective``, priced over a TaihuLight
    fabric with ``round-robin`` (``scheme="improved"``) or ``block``
    (``scheme="original"``) rank placement.
    """
    if ranks < 1:
        raise ValueError("ranks must be >= 1")
    if scheme not in ("improved", "original"):
        raise ValueError(f"scheme must be 'improved' or 'original', got {scheme!r}")
    tr = tracer if tracer is not None else Tracer()

    q = nodes_per_supernode
    if q is None:
        # Prefer a layout with >= 2 supernodes so cross-supernode steps
        # show up; fall back to one supernode for tiny/odd rank counts.
        q = ranks // 2 if ranks % 2 == 0 and ranks > 2 else ranks
    if ranks % q != 0:
        raise ValueError(f"ranks={ranks} must be a multiple of nodes_per_supernode={q}")

    payload = float(net.param_bytes())
    fabric = TaihuLightFabric(n_nodes=ranks, nodes_per_supernode=q)
    placement = (
        round_robin_placement(ranks, q)
        if scheme == "improved"
        else block_placement(ranks, q)
    )
    compute_s = 0.0
    allreduce_s = 0.0
    steps = 0
    intra = cross = 0.0
    first_fwd: dict[tuple[int, int], Span] = {}
    last_bwd: dict[tuple[int, int], Span] = {}
    with tracing(tr):
        for r in range(ranks):
            with tr.context(f"rank{r}"):
                for it in range(iterations):
                    mark = len(tr.spans)
                    trace_net_iteration(net, tr)
                    segment = tr.spans[mark:]
                    fwds = [s for s in segment if s.cat == "layer_fwd"]
                    bwds = [s for s in segment if s.cat == "layer_bwd"]
                    if fwds:
                        first_fwd[(r, it)] = fwds[0]
                    if bwds:
                        last_bwd[(r, it)] = bwds[-1]
            compute_s = max(compute_s, tr.cursor(f"/rank{r}/layers"))
        if ranks > 1:
            # One allreduce per iteration, laid out after the compute phase
            # it synchronizes. Each uses a fresh communicator whose clock
            # is pre-advanced to the phase's place on the global timeline,
            # so recorded step times accumulate from the offset exactly as
            # the critical-path projection chains them.
            per_iter = compute_s / iterations if iterations else 0.0
            for i in range(iterations):
                comm = SimComm(fabric, placement)
                comm.clock.advance(per_iter * (i + 1) + allreduce_s, category="comm")
                mark = len(tr.spans)
                res = replay_rhd(comm, payload)
                step_spans = [
                    s for s in tr.spans[mark:] if s.cat == "collective_step"
                ]
                # Barrier: the first lockstep round waits on every rank's
                # backward pass of the iteration it synchronizes.
                for span in step_spans:
                    if span.name != "step0":
                        break
                    for r in range(ranks):
                        bwd = last_bwd.get((r, i))
                        if bwd is not None:
                            tr.edge(bwd, span)
                # Sync: the next iteration's forward waits on this
                # allreduce completing (its final round's representative).
                if step_spans and i + 1 < iterations:
                    for r in range(ranks):
                        fwd = first_fwd.get((r, i + 1))
                        if fwd is not None:
                            tr.edge(step_spans[-1], fwd)
                allreduce_s += res.time_s
                steps += res.steps
                intra += res.bytes_intra
                cross += res.bytes_cross
    summary = SessionSummary(
        model=net.name,
        ranks=ranks,
        iterations=iterations,
        compute_s=compute_s,
        allreduce_s=allreduce_s,
        allreduce_steps=steps,
        payload_bytes=payload,
        scheme=scheme,
        wire_bytes_intra=intra,
        wire_bytes_cross=cross,
    )
    return tr, summary
