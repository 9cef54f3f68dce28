"""Discrete-event simulator of the 8x8 CPE mesh's register buses.

The analytic RLC model (:mod:`repro.hw.rlc`) prices communication with
aggregate bandwidths; this simulator executes a schedule event by event —
per-bus occupancy, per-CPE readiness, sender/receiver stalls — which is how
the paper's Fig. 3 GEMM inner loop actually behaves on hardware (the send
is asynchronous; the receiver stalls until data arrives; a bus serializes
its messages).

Used two ways:

* cross-validation: the event-driven time of the 8-step GEMM schedule must
  agree with the analytic model when the schedule is conflict-free (see
  ``tests/test_mesh_sim.py``);
* what-if studies: naive schedules with bus conflicts are measurably worse,
  quantifying why the Cannon-style step structure matters.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.faults.injector import active as _faults
from repro.hw.clock import SerialResource
from repro.hw.spec import SW26010Params, SW_PARAMS
from repro.trace.tracer import active as _tracer


@dataclass(frozen=True)
class MeshOp:
    """One scheduled mesh operation.

    ``kind`` is ``"row_bcast"`` (src broadcasts to its row),
    ``"col_bcast"`` (to its column), ``"p2p"`` (same row or column), or
    ``"compute"`` (local FLOPs on the source CPE). Operations carry an
    integer ``step`` tag: an op waits for all of the CPE's previous-step
    work (the lockstep structure of the GEMM inner loop).
    """

    kind: str
    src: tuple[int, int]
    nbytes: float = 0.0
    dst: tuple[int, int] | None = None
    flops: float = 0.0
    efficiency: float = 1.0
    step: int = 0


@dataclass
class MeshTrace:
    """Simulation outcome."""

    finish_s: float = 0.0
    per_op_finish: list[float] = field(default_factory=list)
    bus_busy_s: dict[str, float] = field(default_factory=dict)
    #: Per-bus serialization stalls: time ready ops spent queueing for a bus.
    bus_wait_s: dict[str, float] = field(default_factory=dict)

    @property
    def max_bus_utilization(self) -> float:
        if not self.bus_busy_s or self.finish_s == 0:
            return 0.0
        return max(self.bus_busy_s.values()) / self.finish_s


class MeshSimulator:
    """Event-driven execution of a mesh op schedule.

    Resources: 8 row buses, 8 column buses (one message at a time each,
    at the per-lane register-communication rate), and 64 CPE compute
    pipelines. Within a step ops run as concurrently as resources allow;
    a CPE's step-k ops wait for its step-(k-1) ops (data dependence of the
    GEMM accumulation).
    """

    def __init__(self, params: SW26010Params | None = None) -> None:
        self.params = params or SW_PARAMS
        mesh = self.params.cpe_rows
        # Per-lane rates: the aggregate figures assume all 8 buses of a
        # kind run concurrently.
        self._bcast_rate = self.params.rlc_bcast_bw / mesh
        self._p2p_rate = self.params.rlc_p2p_bw / mesh
        self._startup = self.params.rlc_startup_cycles / self.params.clock_hz

    def _bus_of(self, op: MeshOp) -> str:
        r, c = op.src
        if op.kind == "row_bcast":
            return f"row{r}"
        if op.kind == "col_bcast":
            return f"col{c}"
        if op.kind == "p2p":
            if op.dst is None:
                raise ValueError("p2p op needs a destination")
            dr, dc = op.dst
            if r == dr:
                return f"row{r}"
            if c == dc:
                return f"col{c}"
            raise ValueError(f"p2p {op.src} -> {op.dst} is neither row nor column")
        raise ValueError(f"op kind {op.kind!r} uses no bus")

    def run(self, ops: list[MeshOp]) -> MeshTrace:
        """Simulate a schedule; ops are considered in list order."""
        mesh = self.params.cpe_rows
        buses: dict[str, SerialResource] = defaultdict(SerialResource)
        bus_busy: dict[str, float] = {}
        bus_wait: dict[str, float] = {}
        cpe_ready = [[0.0] * mesh for _ in range(mesh)]
        # Step barriers per CPE: finish time of the CPE's latest op per step.
        step_done = [[{} for _ in range(mesh)] for _ in range(mesh)]
        trace = MeshTrace()

        def dep_time(pos: tuple[int, int], step: int) -> float:
            r, c = pos
            prior = [t for s, t in step_done[r][c].items() if s < step]
            return max(prior) if prior else 0.0

        tr = _tracer()
        fi = _faults()
        # Mesh-link degradation cuts every bus's bandwidth for the whole
        # schedule (transfer times stretch by the plan's mesh_factor).
        degrade = fi.mesh_degrade() if fi.enabled else 1.0
        for op in ops:
            r, c = op.src
            if op.kind == "compute":
                if not 0 < op.efficiency <= 1:
                    raise ValueError("efficiency must be in (0, 1]")
                start = max(cpe_ready[r][c], dep_time(op.src, op.step))
                dur = op.flops / (self.params.cpe_peak_flops * op.efficiency)
                finish = start + dur
                cpe_ready[r][c] = finish
                if tr.enabled:
                    tr.emit(
                        f"compute s{op.step}", "cpe_compute",
                        track=f"mesh/cpe_r{r}c{c}", start=start, dur=dur,
                        args={"flops": op.flops, "step": op.step},
                    )
            else:
                bus = self._bus_of(op)
                rate = self._bcast_rate if op.kind.endswith("bcast") else self._p2p_rate
                # Sends are asynchronous producer-consumer pushes of
                # LDM-resident data: they wait for the bus and for the
                # CPE's own earlier-step work, but NOT for unrelated
                # incoming data (cpe_ready).
                ready = dep_time(op.src, op.step)
                dur = self._startup + op.nbytes / rate * degrade
                w = buses[bus].reserve(ready, dur)
                start, finish = w.start_s, w.end_s
                bus_busy[bus] = bus_busy.get(bus, 0.0) + dur
                # Contention stall: the op was ready but its bus was not.
                bus_wait[bus] = bus_wait.get(bus, 0.0) + (start - ready)
                if tr.enabled:
                    tr.emit(
                        f"{op.kind} s{op.step}", "rlc_exchange",
                        track=f"mesh/{bus}", start=start, dur=dur,
                        args={"bytes": op.nbytes, "src": f"({r},{c})", "step": op.step},
                    )
                # Sender is free once the (asynchronous) send is issued;
                # receivers become data-ready at message completion.
                receivers: list[tuple[int, int]]
                if op.kind == "row_bcast":
                    receivers = [(r, j) for j in range(mesh) if j != c]
                elif op.kind == "col_bcast":
                    receivers = [(i, c) for i in range(mesh) if i != r]
                else:
                    receivers = [op.dst]  # type: ignore[list-item]
                for rr, rc in receivers:
                    cpe_ready[rr][rc] = max(cpe_ready[rr][rc], finish)
                    step_done[rr][rc][op.step] = max(
                        step_done[rr][rc].get(op.step, 0.0), finish
                    )
            step_done[r][c][op.step] = max(step_done[r][c].get(op.step, 0.0), finish)
            trace.per_op_finish.append(finish)
            trace.finish_s = max(trace.finish_s, finish)
        trace.bus_busy_s = bus_busy
        trace.bus_wait_s = bus_wait
        return trace


def gemm_inner_schedule(
    tile_a_bytes: float,
    tile_b_bytes: float,
    tile_flops: float,
    efficiency: float = 0.8,
    params: SW26010Params | None = None,
) -> list[MeshOp]:
    """The Fig. 3 schedule for one LDM-resident block product.

    At step t, CPE(i, t) broadcasts its A tile along row i and CPE(t, j)
    broadcasts its B tile along column j; every CPE then accumulates its
    C tile. Eight steps total, all 16 broadcasts of a step on distinct
    buses — the conflict-free structure that reaches full aggregate RLC
    bandwidth.
    """
    p = params or SW_PARAMS
    mesh = p.cpe_rows
    ops: list[MeshOp] = []
    for t in range(mesh):
        for i in range(mesh):
            ops.append(
                MeshOp(kind="row_bcast", src=(i, t), nbytes=tile_a_bytes, step=2 * t)
            )
        for j in range(mesh):
            ops.append(
                MeshOp(kind="col_bcast", src=(t, j), nbytes=tile_b_bytes, step=2 * t)
            )
        for i in range(mesh):
            for j in range(mesh):
                ops.append(
                    MeshOp(
                        kind="compute",
                        src=(i, j),
                        flops=tile_flops,
                        efficiency=efficiency,
                        step=2 * t + 1,
                    )
                )
    return ops


def naive_single_bus_schedule(
    tile_a_bytes: float,
    tile_b_bytes: float,
    tile_flops: float,
    efficiency: float = 0.8,
    params: SW26010Params | None = None,
) -> list[MeshOp]:
    """A deliberately bad alternative: every tile relayed through row 0.

    All broadcasts funnel through bus ``row0`` (then column buses fan out),
    serializing what the proper schedule overlaps — the kind of layout a
    naive port produces.
    """
    p = params or SW_PARAMS
    mesh = p.cpe_rows
    ops: list[MeshOp] = []
    for t in range(mesh):
        for i in range(mesh):
            # Stage every A tile through CPE (0, t)'s row bus...
            ops.append(
                MeshOp(kind="row_bcast", src=(0, t), nbytes=tile_a_bytes, step=2 * t)
            )
        for j in range(mesh):
            ops.append(
                MeshOp(kind="col_bcast", src=(0, j), nbytes=tile_b_bytes, step=2 * t)
            )
        for i in range(mesh):
            for j in range(mesh):
                ops.append(
                    MeshOp(
                        kind="compute",
                        src=(i, j),
                        flops=tile_flops,
                        efficiency=efficiency,
                        step=2 * t + 1,
                    )
                )
    return ops
