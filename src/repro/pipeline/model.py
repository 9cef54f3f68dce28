"""Pipeline/hybrid iteration timing model, priced like the DP model.

Weak-scaling frame (the same one :class:`~repro.parallel.ssgd.
SSGDIterationModel` uses for figs. 10/11): at ``n`` nodes the global
batch is ``n * b``, where ``b`` is the per-node sub-batch the stage plan
was costed at. A pipeline group of ``S`` stages therefore streams
``S * b`` samples per iteration per replica, split into ``M``
microbatches — so each stage op costs ``stage_cost * S / M`` and each
boundary transfer moves ``cut_bytes * S / M`` (compute and activations
both scale linearly with batch in the per-layer cost model).

What each mode pays per iteration:

* **data-parallel** (the reference, priced by ``SSGDIterationModel``):
  full local compute plus a full-model allreduce across all ``n`` nodes;
* **pipeline** (``replicas=1``, ``S = n``): the walked schedule's
  makespan — compute plus fill/drain bubble plus boundary-activation
  transfers (kilobytes–megabytes, not the model) — and *no* gradient
  allreduce at all;
* **hybrid** (``S * R = n``): the same makespan, plus per-stage-group
  allreduces of only that stage's parameters across its ``R`` replicas.
  Stage groups are disjoint node sets, so their allreduces run
  concurrently and the iteration pays the slowest one.

The allreduce is priced by :func:`~repro.parallel.comm_cost.allreduce_cost`
— the helper the fig10/fig11 pins gate — and a boundary transfer by
``SW_COLLECTIVE_NETWORK.ptp_time``, the curve that helper prices on, at the
intra-supernode rate (pipelines up to 256 nodes fit one supernode), so the
modes cannot drift onto different cost curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hw.clock import SerialResource
from repro.hw.spec import SW_PARAMS
from repro.parallel.comm_cost import allreduce_cost
from repro.pipeline.partition import StagePlan
from repro.pipeline.schedule import PipelineTimeline, simulate_pipeline
from repro.topology.cost_model import SW_COLLECTIVE_NETWORK
from repro.topology.fabric import NODES_PER_SUPERNODE


@dataclass(frozen=True)
class PipelineBreakdown:
    """Where one pipeline/hybrid iteration's time goes."""

    #: Makespan of the walked microbatch schedule (compute + bubbles +
    #: exposed activation transfers).
    pipeline_s: float
    #: Idle share of the stage×time area for this iteration.
    bubble_frac: float
    #: *Exposed* per-stage-group gradient allreduce (0 for pure pipeline):
    #: each group's sync launches when its stage's last backward op ends,
    #: so service fitting inside the pipeline drain is hidden — the same
    #: hidden/exposed discipline the DP model's overlap schedule uses.
    allreduce_s: float
    #: Allreduce service hidden behind the drain of other stages.
    allreduce_hidden_s: float
    #: SGD update of the slowest stage's parameter shard.
    update_s: float
    #: Makespan stretch attributable to boundary transfers (makespan
    #: minus the free-transfer makespan) plus the gradient allreduce —
    #: the iteration's total exposed communication.
    exposed_comm_s: float

    @property
    def total_s(self) -> float:
        return self.pipeline_s + self.allreduce_s + self.update_s

    @property
    def comm_fraction(self) -> float:
        """Exposed-communication share of the iteration (the hybrid-vs-DP
        acceptance quantity)."""
        t = self.total_s
        return self.exposed_comm_s / t if t > 0 else 0.0


@dataclass
class PipelineIterationModel:
    """Prices pipeline/hybrid iterations for one stage plan.

    Parameters
    ----------
    plan:
        The stage partition (costed at per-node sub-batch ``b``).
    n_microbatches:
        Microbatches per iteration (``M``).
    schedule:
        ``"1f1b"`` or ``"fill_drain"``.
    replicas:
        Data-parallel replicas per stage (``R``); ``R = 1`` is pure
        pipeline, ``R > 1`` is hybrid. Total nodes = ``S * R``.
    bucket_mb:
        Hybrid gradient sync granularity: each stage group's allreduce
        is split into size-bounded buckets that become ready across the
        stage's backward window and are served serially per group — the
        PR-5 overlap discipline applied within stage groups. ``None``
        (default) is the fused path: one launch per stage when its last
        backward op ends.

    Each stage group's allreduce runs on round-robin placed ranks of
    256-node supernodes.
    """

    plan: StagePlan
    n_microbatches: int
    schedule: str = "1f1b"
    replicas: int = 1
    bucket_mb: float | None = None

    def __post_init__(self) -> None:
        if self.n_microbatches < 1:
            raise ValueError("n_microbatches must be >= 1")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")

    @property
    def n_stages(self) -> int:
        return self.plan.n_stages

    @property
    def n_nodes(self) -> int:
        return self.n_stages * self.replicas

    @property
    def microbatch_scale(self) -> float:
        """Per-microbatch cost multiplier on the plan's stage costs.

        Each replica streams ``S * b`` samples in ``M`` microbatches, so
        one microbatch is ``S / M`` of the plan's costing batch —
        independent of ``R`` (more replicas shrink the per-replica batch
        exactly as they shrink the per-microbatch share).
        """
        return self.n_stages / self.n_microbatches

    def xfer_times(self) -> tuple[list[float], list[float]]:
        """Per-boundary (forward, backward) transfer seconds for one
        microbatch. Activations flow down, their gradients (same shapes,
        same bytes) flow back up."""
        scale = self.microbatch_scale
        fwd = [
            SW_COLLECTIVE_NETWORK.ptp_time(nbytes * scale)
            for nbytes in self.plan.cut_bytes
        ]
        return fwd, list(fwd)

    def timeline(self, *, with_comm: bool = True) -> PipelineTimeline:
        """Walk one iteration's schedule (``with_comm=False`` idealizes
        free transfers — the baseline for exposed-comm accounting)."""
        scale = self.microbatch_scale
        fwd_x, bwd_x = self.xfer_times() if with_comm else (None, None)
        return simulate_pipeline(
            [t * scale for t in self.plan.stage_fwd_s],
            [t * scale for t in self.plan.stage_bwd_s],
            n_microbatches=self.n_microbatches,
            schedule=self.schedule,
            fwd_xfer_s=fwd_x,
            bwd_xfer_s=bwd_x,
            xfer_bytes=[b * scale for b in self.plan.cut_bytes],
        )

    def update_time(self) -> float:
        """SGD update of the largest stage shard (5x parameter traffic,
        as in the DP model — but each node only owns its stage)."""
        bw = SW_PARAMS.dma_peak_bw
        return 5.0 * max(self.plan.stage_param_bytes) / bw

    def _sync_schedule(self, timeline: PipelineTimeline) -> tuple[float, float]:
        """Hybrid gradient sync scheduled against the pipeline drain.

        Stage ``s``'s group allreduce buckets become ready across its
        backward window (gradients accumulate microbatch by microbatch;
        the last bucket needs the last backward op) and are served on the
        group's fabric, one :class:`~repro.hw.clock.SerialResource` per
        stage group — the DP model's overlap discipline.
        Service before the makespan is hidden behind the still-running
        stages; only the spill extends the iteration. Returns
        ``(max spill across groups, total hidden seconds)``.
        """
        if self.replicas <= 1:
            return 0.0, 0.0
        makespan = timeline.makespan_s
        spill = 0.0
        hidden = 0.0
        for s in range(self.plan.n_stages):
            nbytes = self.plan.stage_param_bytes[s]
            if nbytes <= 0:
                continue
            ends = sorted(
                op.end_s
                for op in timeline.ops
                if op.stage == s and op.kind == "B"
            )
            if self.bucket_mb is None:
                k = 1
            else:
                k = max(1, math.ceil(nbytes / (self.bucket_mb * 1e6)))
            window = ends[-1] - ends[0]
            per_bucket = allreduce_cost(
                nbytes / k,
                self.replicas,
                nodes_per_supernode=NODES_PER_SUPERNODE,
            )
            fabric = SerialResource()
            for i in range(k):
                ready = ends[0] + window * (i + 1) / k
                hidden += fabric.reserve(ready, per_bucket).hidden_before(makespan)
            spill = max(spill, max(0.0, fabric.free_s - makespan))
        return spill, hidden

    def breakdown(self) -> PipelineBreakdown:
        timeline = self.timeline(with_comm=True)
        ideal = self.timeline(with_comm=False)
        exposed_xfer = max(0.0, timeline.makespan_s - ideal.makespan_s)
        exposed_ar, hidden_ar = self._sync_schedule(timeline)
        return PipelineBreakdown(
            pipeline_s=timeline.makespan_s,
            bubble_frac=timeline.bubble_frac,
            allreduce_s=exposed_ar,
            allreduce_hidden_s=hidden_ar,
            update_s=self.update_time(),
            exposed_comm_s=exposed_xfer + exposed_ar,
        )

    def iteration_time(self) -> float:
        return self.breakdown().total_s

    def comm_fraction(self) -> float:
        return self.breakdown().comm_fraction
