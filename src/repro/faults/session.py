"""Chaos sessions: one faulted training run plus its fault-free reference.

:func:`run_chaos` is the programmatic core of ``python -m repro chaos``: it
trains a net data-parallel under a seeded :class:`~repro.faults.plan.FaultPlan`
(elastic recovery enabled), then — unless ``verify=False`` — replays the
recorded recovery schedule in a fault-free reference run and checks the
final weights match bit-for-bit, which is the subsystem's acceptance
criterion (also pinned by ``tests/test_faults_chaos.py``).
"""

from __future__ import annotations

import tempfile
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.faults.injector import FaultInjector, injecting
from repro.faults.plan import FaultPlan
from repro.parallel.trainer import DistributedTrainer
from repro.trace.tracer import Tracer, tracing
from repro.utils.units import format_time


@dataclass
class ChaosReport:
    """Outcome of one chaos session."""

    seed: str
    plan: FaultPlan
    ranks: int
    iterations: int
    surviving_ranks: int = 0
    injected: Counter = field(default_factory=Counter)
    retries: int = 0
    rank_rebuilds: int = 0
    timeouts: int = 0
    fault_time_s: float = 0.0
    total_time_s: float = 0.0
    losses: list[float] = field(default_factory=list)
    recoveries: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    #: ``None`` when verification was skipped.
    weights_match: bool | None = None

    def render(self) -> str:
        """The report the ``chaos`` command prints."""
        lines = [
            f"chaos run: seed {self.seed!r} ({self.plan.describe()})",
            f"  {self.iterations} iteration(s), {self.ranks} -> "
            f"{self.surviving_ranks} rank(s)",
        ]
        if self.injected:
            mix = ", ".join(f"{k} x{n}" for k, n in sorted(self.injected.items()))
            lines.append(f"  faults injected: {mix}")
        else:
            lines.append("  faults injected: none")
        lines.append(
            f"  retries {self.retries}, timeouts {self.timeouts}, "
            f"rank rebuilds {self.rank_rebuilds}"
        )
        lines.append(
            f"  simulated comm time {format_time(self.total_time_s)} "
            f"({format_time(self.fault_time_s)} lost to faults)"
        )
        for resume, survivors in self.recoveries:
            lines.append(
                f"  recovery: rolled back to iteration {resume}, "
                f"survivors {list(survivors)}"
            )
        if self.losses:
            lines.append(f"  loss {self.losses[0]:.4f} -> {self.losses[-1]:.4f}")
        if self.weights_match is not None:
            verdict = "bit-identical" if self.weights_match else "DIVERGED"
            lines.append(f"  vs fault-free reference: weights {verdict}")
        return "\n".join(lines)


def _replay_reference(
    net_factory: Callable,
    *,
    ranks: int,
    iterations: int,
    algorithm: str,
    nodes_per_supernode: int,
    recoveries: list[tuple[int, tuple[int, ...]]],
) -> DistributedTrainer:
    """A fault-free run at the recovered run's effective schedule.

    Replays each recorded recovery as a plain elastic shrink: full roster
    up to the resume iteration, survivors after — no faults, no rollback.
    """
    ref = DistributedTrainer(
        net_factory,
        ranks,
        algorithm=algorithm,
        nodes_per_supernode=nodes_per_supernode,
    )
    done = 0
    for resume, survivors in recoveries:
        if resume > done:
            ref.step(resume - done)
            done = resume
        ref.shrink_to(list(survivors))
    if iterations > done:
        ref.step(iterations - done)
    return ref


def run_chaos(
    net_factory: Callable,
    *,
    ranks: int,
    iterations: int,
    seed: str,
    algorithm: str = "rhd",
    nodes_per_supernode: int = 4,
    snapshot_every: int = 2,
    snapshot_dir: str | None = None,
    tracer: Tracer | None = None,
    verify: bool = True,
) -> ChaosReport:
    """Train under a seeded fault plan; optionally verify bitwise recovery.

    ``net_factory`` takes a rank and returns an identically-initialized net
    (the :class:`DistributedTrainer` contract). Snapshots land in
    ``snapshot_dir`` (a fresh temporary directory by default).
    """
    plan = FaultPlan.from_seed(seed, ranks=ranks, iterations=iterations)
    if snapshot_dir is None:
        snapshot_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    trainer = DistributedTrainer(
        net_factory,
        ranks,
        algorithm=algorithm,
        nodes_per_supernode=nodes_per_supernode,
        snapshot_prefix=f"{snapshot_dir}/chaos",
        snapshot_every=snapshot_every,
    )
    fi = FaultInjector(plan)
    trace_ctx = tracing(tracer) if tracer is not None else nullcontext()
    with trace_ctx, injecting(fi):
        stats = trainer.step(iterations)
    report = ChaosReport(
        seed=seed,
        plan=plan,
        ranks=ranks,
        iterations=iterations,
        surviving_ranks=trainer.n_workers,
        injected=Counter(fi.injected),
        retries=fi.retries,
        rank_rebuilds=fi.rank_rebuilds,
        timeouts=fi.timeouts,
        fault_time_s=fi.retry_s + fi.slow_s + fi.timeout_s,
        total_time_s=stats.comm_time_s,
        losses=list(stats.losses),
        recoveries=list(trainer.recoveries),
    )
    if verify:
        ref = _replay_reference(
            net_factory,
            ranks=ranks,
            iterations=iterations,
            algorithm=algorithm,
            nodes_per_supernode=nodes_per_supernode,
            recoveries=trainer.recoveries,
        )
        report.weights_match = bool(
            np.array_equal(
                trainer.packers[0].pack_data(), ref.packers[0].pack_data()
            )
        )
    return report
