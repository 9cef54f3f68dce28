"""Synchronous-SGD iteration timing model (Algorithm 1 at cluster scale).

One training iteration on ``N`` nodes:

1. each node's 4 CGs forward/backward a quarter of its sub-mini-batch
   (``compute_s``, from the net's kernel plans or measured throughput);
2. CG0 averages the four gradient copies (``local_reduce``);
3. the packed gradient is allreduced across nodes (topology-aware RHD);
4. every node applies the SGD update;
5. the I/O thread's exposed prefetch time, if any, is added.

Weak scaling: the global batch is ``N * sub_batch``, so
``speedup(N) = N * t(1) / t(N)`` — with t(1) having no allreduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hw.clock import Reservation, SerialResource
from repro.hw.spec import SW_PARAMS
from repro.io.prefetch import PrefetchPipeline
from repro.parallel.comm_cost import allreduce_cost
from repro.parallel.threads import node_iteration_time
from repro.topology.fabric import NODES_PER_SUPERNODE

#: Fraction of node compute that is backward: the window at the *end* of
#: compute during which bucket gradients become ready (backward costs
#: roughly twice forward).
BACKWARD_FRAC = 2.0 / 3.0


@dataclass(frozen=True)
class OverlapSchedule:
    """Bucketed allreduces scheduled against the backward window.

    Buckets become ready one after another as backward finishes their
    layers; the fabric is a :class:`~repro.hw.clock.SerialResource`
    serving launches in order. Buckets that become ready while the
    fabric is still busy coalesce into a single launch (Horovod-style
    tensor fusion), so the per-collective startup overhead is paid once
    per launch, not once per bucket. Service before ``barrier_s`` — the
    end of local compute — is *hidden* behind backward; only what spills
    past the barrier lands on the iteration's critical path. With a
    single bucket (the fused path) ``ready == barrier`` and everything
    is exposed, which is exactly the non-overlapped model.
    """

    #: One fabric window per launch, in launch order.
    launches: tuple[Reservation, ...]
    #: How many gradient buckets each launch coalesced.
    merged: tuple[int, ...]
    barrier_s: float

    @property
    def n_buckets(self) -> int:
        return sum(self.merged)

    @property
    def total_comm_s(self) -> float:
        """Total network occupancy across every bucket."""
        return sum(w.dur_s for w in self.launches)

    @property
    def hidden_s(self) -> float:
        """Comm time hidden behind the remaining backward compute: per
        launch, the slice of service before the barrier (the same rule
        the trainer's nonblocking queue uses)."""
        return sum(w.hidden_before(self.barrier_s) for w in self.launches)

    @property
    def exposed_s(self) -> float:
        """Comm time past the barrier — what lands on the critical path.
        Exactly the full occupancy for the fused single-bucket schedule,
        whose only launch starts at the barrier."""
        return self.total_comm_s - self.hidden_s


@dataclass
class IterationBreakdown:
    """Where one distributed iteration's time goes.

    ``allreduce_s`` is the *exposed* allreduce time — with bucketed
    overlap enabled, the hidden portion is reported separately in
    ``overlap_hidden_s`` and does not extend the iteration.
    """

    compute_s: float
    local_reduce_s: float
    allreduce_s: float
    update_s: float
    io_s: float
    overlap_hidden_s: float = 0.0

    @property
    def total_s(self) -> float:
        return (
            self.compute_s
            + self.local_reduce_s
            + self.allreduce_s
            + self.update_s
            + self.io_s
        )

    @property
    def comm_fraction(self) -> float:
        """Fraction of iteration spent in inter-node communication."""
        t = self.total_s
        return self.allreduce_s / t if t > 0 else 0.0


@dataclass
class SSGDIterationModel:
    """Prices distributed SSGD iterations for one (net, sub-batch) config.

    Parameters
    ----------
    compute_s:
        Node-local forward+backward time for the sub-mini-batch.
    model_bytes:
        Packed gradient payload (``net.param_bytes()``).
    nodes_per_supernode:
        Supernode size q (256 on TaihuLight).
    placement:
        ``"round-robin"`` (swCaffe) or ``"block"`` (MPICH baseline) rank
        numbering for the allreduce.
    prefetch:
        Optional I/O pipeline; when given, ``batch_io_bytes`` is the
        per-node mini-batch payload read each iteration.
    bucket_mb:
        Gradient-bucket size bound in MB for overlap-aware allreduce.
        ``None`` (the default) is the fused path: one bucket holding the
        whole model, launched only when backward has fully finished —
        i.e. the model's historical behavior, unchanged.
    """

    compute_s: float
    model_bytes: float
    nodes_per_supernode: int = NODES_PER_SUPERNODE
    placement: str = "round-robin"
    prefetch: PrefetchPipeline | None = None
    batch_io_bytes: float = 0.0
    bucket_mb: float | None = None

    def bucket_sizes(self) -> tuple[float, ...]:
        """Per-bucket payloads (bytes), an even split bounded by
        ``bucket_mb``; a single full-model bucket when fused."""
        if self.bucket_mb is None:
            return (self.model_bytes,)
        bound = float(self.bucket_mb) * 1e6
        if bound <= 0:
            raise ValueError("bucket_mb must be positive")
        k = max(1, math.ceil(self.model_bytes / bound))
        return tuple([self.model_bytes / k] * k)

    def _single_allreduce_time(self, nbytes: float, n_nodes: int) -> float:
        return allreduce_cost(
            nbytes,
            n_nodes,
            nodes_per_supernode=self.nodes_per_supernode,
            placement=self.placement,
        )

    def overlap_schedule(self, n_nodes: int, compute_s: float) -> OverlapSchedule:
        """Schedule the bucket allreduces against a compute window.

        ``compute_s`` is the node-local compute time (forward + backward
        + thread sync); backward occupies its last :data:`BACKWARD_FRAC`
        slice, and bucket ``i`` of ``K`` becomes ready when backward is
        ``(i + 1) / K`` done (gradients accumulate in reverse layer
        order, so equal-size buckets fill at an even pace). Every bucket
        already ready when the fabric frees up rides in the same launch.
        """
        sizes = self.bucket_sizes()
        if n_nodes <= 1:
            sizes = ()
        backward_start = compute_s * (1.0 - BACKWARD_FRAC)
        window = compute_s - backward_start
        k = len(sizes)
        bucket_ready = [backward_start + window * (i + 1) / k for i in range(k)]
        fabric = SerialResource()
        launches: list[Reservation] = []
        merged: list[int] = []
        i = 0
        while i < k:
            # Every bucket already ready when this launch starts rides in it.
            j = i + 1
            while j < k and bucket_ready[j] <= max(bucket_ready[i], fabric.free_s):
                j += 1
            c = self._single_allreduce_time(sum(sizes[i:j]), n_nodes)
            launches.append(fabric.reserve(bucket_ready[i], c))
            merged.append(j - i)
            i = j
        return OverlapSchedule(
            launches=tuple(launches), merged=tuple(merged), barrier_s=compute_s
        )

    def update_time(self) -> float:
        """SGD update: stream params + grads + velocity (5x traffic)."""
        return 5.0 * self.model_bytes / SW_PARAMS.dma_peak_bw

    def breakdown(self, n_nodes: int) -> IterationBreakdown:
        """Full iteration breakdown at ``n_nodes``."""
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        node = node_iteration_time(self.compute_s, self.model_bytes)
        io_s = 0.0
        if self.prefetch is not None and self.batch_io_bytes > 0:
            io_s = self.prefetch.iteration_io_time(
                n_nodes, self.batch_io_bytes, self.compute_s
            )
        compute = node.compute_s + node.sync_s
        schedule = self.overlap_schedule(n_nodes, compute)
        return IterationBreakdown(
            compute_s=compute,
            local_reduce_s=node.local_reduce_s,
            allreduce_s=schedule.exposed_s,
            update_s=self.update_time(),
            io_s=io_s,
            overlap_hidden_s=schedule.hidden_s,
        )

    def iteration_time(self, n_nodes: int) -> float:
        """End-to-end iteration seconds at ``n_nodes``."""
        return self.breakdown(n_nodes).total_s

    def comm_fraction(self, n_nodes: int) -> float:
        """Fig. 11's quantity: allreduce share of the iteration."""
        return self.breakdown(n_nodes).comm_fraction

    def speedup(self, n_nodes: int) -> float:
        """Fig. 10's quantity: weak-scaling speedup over one node."""
        t1 = self.iteration_time(1)
        tn = self.iteration_time(n_nodes)
        return n_nodes * t1 / tn
