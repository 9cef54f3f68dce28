"""Executable pipeline/hybrid trainer over the simulated cluster.

The defining invariant (mirroring :class:`~repro.parallel.trainer.
DistributedTrainer`'s "replicas equal single-process training"): pipeline
training is *bit-identical* to single-rank gradient accumulation. One
iteration streams ``M`` microbatches through the stages and updates with
the averaged gradient — exactly ``SGDSolver(iter_size=M)``'s semantics —
and because every layer op runs in the same order with the same operands,
the resulting weights match that reference to the last bit (pinned by
``tests/test_pipeline_trainer.py`` for LeNet/AlexNet/VGG).

The stages execute on one shared net per replica — the simulator's
standard collapse of distributed state — but the boundary tensors really
do travel: after a stage's forward slice, every cut blob's activation is
pushed through the priced :class:`~repro.simmpi.p2p.P2PTransport` to the
next stage and the blob's array is *replaced* by the transported copy
(likewise for gradients flowing back). The transport is therefore
load-bearing — a lossy link corrupts training, which the mutation test
pins — while staying bit-exact, so the identity above survives.

Hybrid mode runs ``R`` replica pipelines on disjoint shards and averages
each stage's parameter gradients across its replica group with a real
simulated allreduce (disjoint groups, payload = that stage's parameters
only — the point of hybrid parallelism: the full-model allreduce of pure
data parallelism never happens). The groups sync with the topology-aware
allreduce on a round-robin group communicator.

Time is accounted separately from data, as everywhere in the package:
each iteration walks the microbatch schedule
(:func:`~repro.pipeline.schedule.simulate_pipeline`) with the plan's
stage costs and the fabric's transfer prices, records the makespan, and
emits the pipeline trace spans the critical-path profiler validates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.frame.net import Net
from repro.frame.solver import SGDSolver
from repro.parallel.packing import GradientPacker
from repro.pipeline.partition import StagePlan, plan_stages
from repro.pipeline.schedule import emit_pipeline_trace, simulate_pipeline
from repro.simmpi.collectives.topo_aware import topo_aware_allreduce
from repro.simmpi.comm import SimComm
from repro.simmpi.nonblocking import IAllreduceQueue
from repro.simmpi.p2p import P2PTransport
from repro.simmpi.reorder import block_placement, round_robin_placement, supernode_comm
from repro.trace.tracer import active as _tracer


@dataclass
class PipelineStats:
    """Per-iteration records of a pipeline training run."""

    losses: list[float] = field(default_factory=list)
    #: Walked-schedule makespans, one per iteration.
    pipeline_time_s: float = 0.0
    #: Network occupancy: boundary transfers + hybrid allreduces.
    comm_time_s: float = 0.0
    #: Realized bubble fraction per iteration.
    bubble_fracs: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.losses)


class PipelineTrainer:
    """Pipeline-parallel (optionally hybrid) synchronous SGD.

    Parameters
    ----------
    net_factory:
        Builds one identically-initialized net per replica (must be
        deterministic per rank, like the data-parallel trainer's).
    n_stages:
        Pipeline depth ``S``; the net is partitioned by
        :func:`~repro.pipeline.partition.plan_stages`'s exact DP split
        of the SW26010 layer costs.
    n_microbatches:
        Microbatches per iteration ``M``; each is one full forward/
        backward pass of the net's batch, so the effective batch is
        ``M * batch_size`` (Caffe's ``iter_size`` semantics).
    schedule:
        ``"1f1b"`` or ``"fill_drain"`` — *timing only*: both run every
        microbatch once each way, so the accumulated gradient (and the
        trained weights) are schedule-independent by construction.
    replicas:
        Data-parallel replicas per stage (hybrid mode when > 1).
    """

    def __init__(
        self,
        net_factory: Callable[[int], Net],
        n_stages: int,
        *,
        n_microbatches: int = 1,
        schedule: str = "1f1b",
        replicas: int = 1,
        nodes_per_supernode: int = 4,
        base_lr: float = 0.01,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ) -> None:
        if n_microbatches < 1:
            raise ValueError("n_microbatches must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.n_microbatches = int(n_microbatches)
        self.schedule = schedule
        self.replicas = int(replicas)
        self.nets = [net_factory(rank) for rank in range(replicas)]
        self.solvers = [
            SGDSolver(
                net,
                base_lr=base_lr,
                momentum=momentum,
                weight_decay=weight_decay,
                iter_size=n_microbatches,
            )
            for net in self.nets
        ]
        self.plan: StagePlan = plan_stages(self.nets[0], n_stages)
        self.comm = supernode_comm(
            self.plan.n_stages * replicas, nodes_per_supernode, block_placement
        )
        self.transport = P2PTransport(self.comm)
        #: Per-replica, per-stage gradient packers (hybrid sync payloads);
        #: ``None`` for stages owning no learnable parameters.
        self._stage_packers: list[list[GradientPacker | None]] = [
            [
                GradientPacker(params) if params else None
                for s in range(self.plan.n_stages)
                for params in [
                    [
                        p
                        for i in self.plan.layer_range(s)
                        for p in net.layers[i].params
                    ]
                ]
            ]
            for net in self.nets
        ]
        if replicas > 1:
            self.group_comm: SimComm | None = supernode_comm(
                replicas, nodes_per_supernode, round_robin_placement
            )
        else:
            self.group_comm = None
        #: Running simulated time; each iteration's walked schedule is
        #: appended here so trace spans never overlap across iterations.
        self._origin_s = 0.0

    # ------------------------------------------------------------------ #
    @property
    def n_stages(self) -> int:
        return self.plan.n_stages

    @property
    def n_nodes(self) -> int:
        return self.n_stages * self.replicas

    def _rank(self, stage: int, replica: int) -> int:
        """Node of (stage, replica): replicas own contiguous stage runs."""
        return replica * self.n_stages + stage

    # ------------------------------------------------------------------ #
    # data path (bit-identical to SGDSolver(iter_size=M))
    # ------------------------------------------------------------------ #
    def _staged_forward(self, net: Net, replica: int) -> float:
        """One microbatch's forward, stage by stage.

        Layer ops run in exactly :meth:`Net.forward`'s order; between
        stage slices every cut blob's activation crosses the priced
        transport and the blob array is replaced by the received copy.
        """
        loss_sum = 0.0
        for s in range(self.n_stages):
            for i in self.plan.layer_range(s):
                layer = net.layers[i]
                bottom, top = net._io(layer)
                layer.forward(bottom, top)
                if getattr(layer, "is_loss", False):
                    loss_sum += layer.loss_weight * float(top[0].data[0])
            if s < self.n_stages - 1:
                src, dst = self._rank(s, replica), self._rank(s + 1, replica)
                for name in self.plan.cut_blobs[s]:
                    blob = net.blobs[name]
                    self.transport.send(src, dst, blob.data, tag=f"fwd:{name}")
                    blob.data = self.transport.recv(src, dst, tag=f"fwd:{name}")
        return loss_sum

    def _staged_backward(self, net: Net, replica: int) -> None:
        """One microbatch's backward, stage by stage in reverse.

        Mirrors :meth:`Net.backward` exactly (diff reset, loss seeding,
        reverse layer order — parameter diffs accumulate); cut-blob
        gradients cross the transport back up between stage slices.
        """
        for blob in net.blobs.values():
            blob.zero_diff()
        for layer in net.layers:
            if getattr(layer, "is_loss", False):
                top_blob = net.blobs[net._tops[layer.name][0]]
                top_blob.diff = np.full(
                    top_blob.shape, layer.loss_weight, dtype=top_blob.dtype
                )
        for s in range(self.n_stages - 1, -1, -1):
            for i in reversed(self.plan.layer_range(s)):
                layer = net.layers[i]
                bottom, top = net._io(layer)
                layer.backward(top, bottom)
            if s > 0:
                src, dst = self._rank(s, replica), self._rank(s - 1, replica)
                for name in self.plan.cut_blobs[s - 1]:
                    blob = net.blobs[name]
                    self.transport.send(src, dst, blob.diff, tag=f"bwd:{name}")
                    blob.diff = self.transport.recv(src, dst, tag=f"bwd:{name}")

    def _sync_replicas(self, stats: PipelineStats, timeline) -> None:
        """Hybrid gradient sync: one nonblocking allreduce per stage group.

        Each group averages only its stage's parameter diffs across the
        ``R`` replicas — a real simulated collective, so the averaged
        gradients are bit-exact. The launches ride the PR-5
        :class:`~repro.simmpi.nonblocking.IAllreduceQueue`: stage ``s``'s
        request becomes ready when its last backward op ends on the
        walked timeline, and service fitting before the makespan (other
        stages are still draining) is hidden comm.
        """
        assert self.group_comm is not None
        t0 = self.group_comm.clock.now
        stage_last = [0.0] * self.n_stages
        for op in timeline.ops:
            if op.kind == "B":
                stage_last[op.stage] = max(stage_last[op.stage], op.end_s)
        queue = IAllreduceQueue(
            self.group_comm, topo_aware_allreduce, origin_s=self._origin_s
        )
        synced: list[int] = []
        for s in range(self.n_stages):
            if self._stage_packers[0][s] is None:
                continue  # stage owns no learnable params
            buffers = [
                self._stage_packers[r][s].pack_diffs()
                for r in range(self.replicas)
            ]
            queue.iallreduce(
                buffers,
                ready_s=self._origin_s + stage_last[s],
                average=True,
                tag=f"stage{s}",
            )
            synced.append(s)
        requests = queue.wait_all(
            barrier_s=self._origin_s + timeline.makespan_s
        )
        for s, req in zip(synced, requests):
            for r in range(self.replicas):
                self._stage_packers[r][s].unpack_diffs(req.buffers[r])
        stats.comm_time_s += self.group_comm.clock.now - t0

    # ------------------------------------------------------------------ #
    # time path
    # ------------------------------------------------------------------ #
    def _make_timeline(self):
        """Walk one iteration's microbatch schedule (time path only)."""
        xfer_s = [
            self.comm.pair_time(self._rank(s, 0), self._rank(s + 1, 0), nbytes)
            for s, nbytes in enumerate(self.plan.cut_bytes)
        ]
        return simulate_pipeline(
            list(self.plan.stage_fwd_s),
            list(self.plan.stage_bwd_s),
            n_microbatches=self.n_microbatches,
            schedule=self.schedule,
            fwd_xfer_s=xfer_s,
            bwd_xfer_s=xfer_s,
            xfer_bytes=list(self.plan.cut_bytes),
        )

    def _record(self, timeline, stats: PipelineStats) -> None:
        """Emit one walked iteration's trace and advance time."""
        tr = _tracer()
        if tr.enabled:
            emit_pipeline_trace(tr, timeline, origin_s=self._origin_s)
        self._origin_s += timeline.makespan_s
        stats.pipeline_time_s += timeline.makespan_s
        stats.bubble_fracs.append(timeline.bubble_frac)

    # ------------------------------------------------------------------ #
    def step(self, n_iters: int = 1) -> PipelineStats:
        """Run ``n_iters`` pipelined iterations (forward/backward ``M``
        microbatches per replica, hybrid sync, identical updates)."""
        stats = PipelineStats()
        for _ in range(n_iters):
            timeline = self._make_timeline()
            comm_t0 = self.comm.clock.now
            iter_losses = []
            for replica, (net, solver) in enumerate(
                zip(self.nets, self.solvers)
            ):
                net.zero_param_diffs()
                loss_sum = 0.0
                for _m in range(self.n_microbatches):
                    loss_sum += self._staged_forward(net, replica)
                    self._staged_backward(net, replica)
                if self.n_microbatches > 1:
                    for p in net.params:
                        p.diff /= self.n_microbatches
                iter_losses.append(loss_sum / self.n_microbatches)
            if self.replicas > 1:
                self._sync_replicas(stats, timeline)
            for solver in self.solvers:
                solver.apply_update(solver.learning_rate())
                solver.iter += 1
            stats.comm_time_s += self.comm.clock.now - comm_t0
            stats.losses.append(float(np.mean(iter_losses)))
            self._record(timeline, stats)
        return stats
