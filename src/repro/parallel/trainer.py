"""Functional distributed SSGD trainer over simulated workers.

This is the *executable* counterpart of the timing model: ``k`` net
replicas train on disjoint data shards; after each backward pass the packed
gradients are allreduced with a real simulated collective (data actually
moves through the algorithm) and every replica applies the same update.

The defining invariant — replicas stay bit-identical, and the result equals
single-process training on the concatenated batch — is what the tests pin.

The trainer is *elastic*: when fault injection (:mod:`repro.faults`) crashes
a rank, the collective raises :class:`~repro.errors.CollectiveTimeout`, and
the trainer shrinks around the dead rank — survivors keep their logical
order, the communicator is rebuilt with the trainer's own placement,
every surviving solver rolls back to the last snapshot and its data sources
rewind to the resume iteration. The recovered run is bit-identical to an
uninterrupted run at the same effective schedule: full scale up to the
snapshot, surviving scale after it (pinned by ``tests/test_faults_chaos.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import CollectiveTimeout, FaultError
from repro.faults.injector import active as _faults
from repro.faults.recovery import rewind_net_sources, survivor_indices
from repro.frame.net import Net
from repro.frame.snapshot import load_solver, save_solver, snapshot_path
from repro.frame.solver import SGDSolver
from repro.parallel.packing import BucketedPacker, GradientPacker
from repro.simmpi.collectives.rhd import rhd_allreduce
from repro.simmpi.collectives.ring import ring_allreduce
from repro.simmpi.collectives.topo_aware import topo_aware_allreduce
from repro.simmpi.nonblocking import IAllreduceQueue
from repro.simmpi.reorder import block_placement, round_robin_placement, supernode_comm

#: Each algorithm's collective and the rank placement its communicator is
#: built with: the topology-aware allreduce is RHD over round-robin ranks.
ALGORITHMS: dict[str, tuple[Callable, Callable]] = {
    "ring": (ring_allreduce, block_placement),
    "rhd": (rhd_allreduce, block_placement),
    "topo-aware": (topo_aware_allreduce, round_robin_placement),
}


@dataclass
class DistributedStats:
    """Per-iteration records of a distributed run.

    ``losses`` gains one entry per *completed* iteration, including any that
    a later crash rollback discards and reruns; weights, not losses, are
    the recovery-equivalence currency.
    """

    losses: list[float] = field(default_factory=list)
    comm_time_s: float = 0.0
    #: Comm seconds hidden behind backward compute (bucketed runs only).
    comm_hidden_s: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.losses)


class DistributedTrainer:
    """Data-parallel synchronous SGD across simulated workers.

    Parameters
    ----------
    net_factory:
        Builds one identically-initialized net replica per call (must be
        deterministic — same seeds — or the replicas diverge immediately).
    n_workers:
        Worker (node) count.
    algorithm:
        ``"ring"``, ``"rhd"`` or ``"topo-aware"``. It also picks the rank
        placement of the communicator, at start-up and after every
        shrink: block for ``ring`` and ``rhd``, round-robin across
        supernodes for ``topo-aware`` (see :data:`ALGORITHMS`).
    nodes_per_supernode:
        Supernode size for the simulated fabric.
    base_lr, momentum, weight_decay:
        Solver hyperparameters (identical on every worker).
    snapshot_prefix:
        When set, the trainer snapshots solver state to
        ``{prefix}_iter_{N}.npz`` (one file — replicas are identical) at
        iteration 0 and every ``snapshot_every`` iterations, which is what
        elastic recovery rolls back to. Without it, a rank crash is fatal.
    snapshot_every:
        Snapshot cadence in iterations.
    bucket_mb:
        When set, gradients are exchanged as size-bounded buckets in
        reverse layer order, each launched as a nonblocking allreduce as
        soon as the backward sweep finishes its layers (the overlap-aware
        path). ``None`` keeps the paper's fused single-buffer exchange.
        Both paths produce bit-identical weights (pinned by the
        conformance suite); only the simulated comm schedule differs.
    backward_s:
        Modeled per-iteration backward-compute seconds, used to place
        bucket launches on the simulated timeline (bucket ``b`` is ready
        once its share of gradient bytes is produced). With the default
        0.0 every bucket launches at the iteration start and no comm is
        hidden — timing enrichment only, never data.
    """

    def __init__(
        self,
        net_factory: Callable[[int], Net],
        n_workers: int,
        algorithm: str = "topo-aware",
        nodes_per_supernode: int = 4,
        base_lr: float = 0.01,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
        snapshot_prefix: str | None = None,
        snapshot_every: int = 2,
        bucket_mb: float | None = None,
        backward_s: float = 0.0,
    ) -> None:
        if n_workers <= 0:
            raise ValueError("need at least one worker")
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; use {set(ALGORITHMS)}")
        if snapshot_every <= 0:
            raise ValueError("snapshot_every must be >= 1")
        if bucket_mb is not None and bucket_mb <= 0:
            raise ValueError("bucket_mb must be positive")
        if backward_s < 0:
            raise ValueError("backward_s must be >= 0")
        self.algorithm = algorithm
        self.nodes_per_supernode = nodes_per_supernode
        self.bucket_mb = bucket_mb
        self.backward_s = backward_s
        self.nets = [net_factory(rank) for rank in range(n_workers)]
        self.solvers = [
            SGDSolver(
                net,
                base_lr=base_lr,
                momentum=momentum,
                weight_decay=weight_decay,
            )
            for net in self.nets
        ]
        self.packers = [self._make_packer(net) for net in self.nets]
        self._collective, self._placement = ALGORITHMS[algorithm]
        self.comm = supernode_comm(n_workers, nodes_per_supernode, self._placement)
        # --- elastic state ------------------------------------------------
        #: External worker ids still participating; logical rank i is
        #: ``active[i]``. Starts as the identity roster.
        self.active: list[int] = list(range(n_workers))
        #: Completed-iteration counter across step() calls and rollbacks.
        self.global_iter: int = 0
        #: Recovery log: ``(resume_iteration, surviving external ids)`` per
        #: crash, exactly what a fault-free reference run must replay with
        #: :meth:`shrink_to` to reproduce the recovered weights.
        self.recoveries: list[tuple[int, tuple[int, ...]]] = []
        self.snapshot_prefix = snapshot_prefix
        self.snapshot_every = snapshot_every
        self._last_snapshot = 0
        #: Nonblocking launch queue of the iteration in flight (bucketed
        #: runs only); cleared by :meth:`_recover` so a crash never leaks
        #: launched-but-uncompleted bucket state across a rebuild.
        self._queue: IAllreduceQueue | None = None
        if snapshot_prefix is not None:
            save_solver(self.solvers[0], snapshot_path(snapshot_prefix, 0))

    def _make_packer(self, net: Net):
        """Fused packer by default; bucketed when ``bucket_mb`` is set."""
        if self.bucket_mb is None:
            return GradientPacker(net.params)
        layer_ids = [
            i for i, layer in enumerate(net.layers) for _ in layer.params
        ]
        return BucketedPacker(
            net.params, self.bucket_mb * 1e6, layer_ids=layer_ids
        )

    @property
    def n_workers(self) -> int:
        return len(self.nets)

    def step(self, n_iters: int = 1) -> DistributedStats:
        """Run synchronized iterations across all (surviving) workers.

        Counts *effective* iterations: a crash rolls ``global_iter`` back to
        the last snapshot and the discarded span is rerun at the surviving
        scale, so the trainer always ends ``n_iters`` effective iterations
        ahead of where it started.
        """
        stats = DistributedStats()
        end = self.global_iter + n_iters
        while self.global_iter < end:
            fi = _faults()
            if fi.enabled:
                fi.begin_iteration(self.global_iter)
                fi.set_rank_map(self.active)
                self._mark_failures(fi)
            try:
                self._one_iteration(stats)
            except CollectiveTimeout as exc:
                self._recover(exc.ranks)
                continue
            self.global_iter += 1
            if (
                self.snapshot_prefix is not None
                and self.global_iter % self.snapshot_every == 0
            ):
                self._snapshot()
        return stats

    def _one_iteration(self, stats: DistributedStats) -> None:
        """One synchronous iteration: local grads, allreduce, update."""
        if self.bucket_mb is not None:
            self._one_iteration_bucketed(stats)
            return
        # Local forward/backward on each worker's shard.
        iter_losses = []
        for net in self.nets:
            net.zero_param_diffs()
            losses = net.forward()
            net.backward()
            iter_losses.append(sum(losses.values()))
        # Allreduce the packed gradients (averaged across workers).
        buffers = [p.pack_diffs() for p in self.packers]
        t0 = self.comm.clock.now
        self._collective(self.comm, buffers, average=True)
        stats.comm_time_s += self.comm.clock.now - t0
        for packer, buf in zip(self.packers, buffers):
            packer.unpack_diffs(buf)
        # Identical updates everywhere.
        for solver in self.solvers:
            solver.apply_update()
            solver.iter += 1
        stats.losses.append(float(np.mean(iter_losses)))

    def _one_iteration_bucketed(self, stats: DistributedStats) -> None:
        """Overlap-aware iteration: per-bucket nonblocking allreduces.

        Workers 0..k-2 run their full backward first; the last worker's
        backward drives the launch schedule through the net's per-layer
        hooks — once a bucket's layers have all produced gradients on
        every replica, its allreduce launches immediately. Data-wise each
        bucket is reduced with the same algorithm and intra-bucket layout
        as the fused path; time-wise the launches land on the simulated
        timeline where backward compute can still hide them.
        """
        iter_losses = []
        for net in self.nets[:-1]:
            net.zero_param_diffs()
            losses = net.forward()
            net.backward()
            iter_losses.append(sum(losses.values()))
        last = self.nets[-1]
        last.zero_param_diffs()
        losses = last.forward()

        lead = self.packers[0]
        t0 = self.comm.clock.now
        barrier_s = t0 + self.backward_s
        cumfrac = lead.cumulative_fractions()
        queue = IAllreduceQueue(self.comm, self._collective, origin_s=t0)
        self._queue = queue
        launched: list[int] = []

        def launch(bucket: int) -> None:
            bufs = [p.pack_bucket_diffs(bucket) for p in self.packers]
            queue.iallreduce(
                bufs,
                ready_s=t0 + self.backward_s * cumfrac[bucket],
                average=True,
                tag=f"bucket{bucket}",
            )
            launched.append(bucket)

        def hook(layer, index) -> None:
            while (
                len(launched) < lead.n_buckets
                and lead.ready_layer[len(launched)] >= index
            ):
                launch(len(launched))

        last.add_backward_hook(hook)
        try:
            last.backward()
        finally:
            last.remove_backward_hook(hook)
        iter_losses.append(sum(losses.values()))
        # Hook-less nets (or params outside any layer) cannot occur, but a
        # bucket that never triggered must still be exchanged.
        while len(launched) < lead.n_buckets:
            launch(len(launched))
        requests = queue.wait_all(barrier_s=barrier_s)
        self._queue = None
        stats.comm_time_s += self.comm.clock.now - t0
        stats.comm_hidden_s += sum(r.hidden_before(barrier_s) for r in requests)
        for bucket, req in enumerate(requests):
            for worker, packer in enumerate(self.packers):
                packer.unpack_bucket_diffs(bucket, req.buffers[worker])
        for solver in self.solvers:
            solver.apply_update()
            solver.iter += 1
        stats.losses.append(float(np.mean(iter_losses)))

    # ------------------------------------------------------------------ #
    # elastic recovery
    # ------------------------------------------------------------------ #
    def _mark_failures(self, fi) -> None:
        """Translate the plan's crashed external ids into logical ranks."""
        dead_external = fi.failed_ranks() & set(self.active)
        if dead_external:
            self.comm.failed_ranks = frozenset(
                i for i, r in enumerate(self.active) if r in dead_external
            )
            if fi.plan is not None:
                self.comm.timeout_s = fi.plan.timeout_s

    def shrink_to(self, survivors: list[int]) -> None:
        """Drop every worker not in ``survivors`` and renumber the rest.

        ``survivors`` lists external ids (an order-preserving subset of
        :attr:`active`; a repeated or reordered id raises
        :class:`~repro.errors.FaultError`). Used by recovery after a crash
        and by fault-free reference runs replaying a recorded
        :attr:`recoveries` schedule. The rebuilt communicator keeps the
        algorithm's placement.
        """
        if not survivors:
            raise FaultError("cannot shrink to zero survivors")
        index_of = {r: i for i, r in enumerate(self.active)}
        missing = [r for r in survivors if r not in index_of]
        if missing:
            raise FaultError(f"survivors {missing} are not active workers")
        keep = [index_of[r] for r in survivors]
        if any(a >= b for a, b in zip(keep, keep[1:])):
            raise FaultError(
                f"survivors {list(survivors)} are not an order-preserving "
                f"subset of the active workers {self.active}"
            )
        self.nets = [self.nets[i] for i in keep]
        self.solvers = [self.solvers[i] for i in keep]
        self.packers = [self.packers[i] for i in keep]
        self.active = list(survivors)
        self.comm = supernode_comm(
            len(survivors), self.nodes_per_supernode, self._placement
        )

    def _recover(self, dead_logical: frozenset[int]) -> None:
        """Shrink around crashed ranks and roll back to the last snapshot."""
        if self.snapshot_prefix is None:
            raise FaultError(
                "rank crash without snapshots enabled; pass snapshot_prefix "
                "to DistributedTrainer to allow elastic recovery"
            )
        dead_external = {self.active[i] for i in dead_logical}
        survivors = survivor_indices(self.active, dead_external)
        if not survivors:
            raise FaultError(f"all ranks crashed at iteration {self.global_iter}")
        # Launched-but-uncompleted bucket allreduces die with the old
        # communicator: their buffers must never be unpacked after the
        # rollback, or partially-reduced gradients would leak into the
        # rebuilt roster's first iteration.
        if self._queue is not None:
            self._queue.discard()
            self._queue = None
        self.shrink_to(survivors)
        resume = self._last_snapshot
        path = snapshot_path(self.snapshot_prefix, resume)
        for solver in self.solvers:
            load_solver(solver, path)
        for net in self.nets:
            rewind_net_sources(net, resume)
        self.global_iter = resume
        self.recoveries.append((resume, tuple(survivors)))
        fi = _faults()
        if fi.enabled:
            fi.set_rank_map(self.active)
            fi.note_crash(frozenset(dead_external))
            fi.note_rebuild()

    def _snapshot(self) -> None:
        """Persist solver state; replicas are identical, one file suffices."""
        save_solver(self.solvers[0], snapshot_path(self.snapshot_prefix, self.global_iter))
        if self.global_iter > self._last_snapshot:
            self._last_snapshot = self.global_iter

    def replicas_in_sync(self, atol: float = 0.0) -> bool:
        """Whether all replicas hold identical parameters."""
        ref = self.packers[0].pack_data()
        return all(
            np.allclose(p.pack_data(), ref, rtol=0, atol=atol)
            for p in self.packers[1:]
        )
