"""Simulated communicator: prices messages between logical ranks.

Collectives are lockstep algorithms, so the communicator accounts time per
*step*: all pairs in a step proceed concurrently, and the step lasts as long
as its slowest pair (cross-supernode pairs are slower). Reduction work
(``gamma`` per byte) is added where the algorithm performs it.

The reduction rate depends on where the sum runs (the paper's third
improvement): on the MPE, summation crawls through the 9.9 GB/s copy path;
offloaded to the four CPE clusters it streams at DMA bandwidth.
:func:`reduce_gamma` derives both rates from the hardware model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CollectiveTimeout
from repro.faults.injector import active as _faults, charge_transient
from repro.hw.clock import SimClock
from repro.hw.spec import SW_PARAMS
from repro.topology.cost_model import LinearCostModel
from repro.topology.fabric import TaihuLightFabric
from repro.simmpi.process import Placement
from repro.trace.scaling import active as _scaling
from repro.trace.tracer import Span, active as _tracer


def reduce_gamma(engine: str = "cpe") -> float:
    """Seconds-per-byte cost of the local reduction.

    ``"mpe"`` models the default MPI_Allreduce behaviour (sum on the
    management core: two reads + one write through the 9.9 GB/s path).
    ``"cpe"`` models swCaffe's improvement (sum on the four CPE clusters:
    the same 3x traffic against 4 x 28 GB/s of aggregate DMA bandwidth).
    """
    if engine == "mpe":
        return 3.0 / SW_PARAMS.mpe_copy_bw
    if engine == "cpe":
        return 3.0 / (SW_PARAMS.n_core_groups * SW_PARAMS.dma_peak_bw)
    raise ValueError(f"unknown reduce engine {engine!r} (use 'mpe' or 'cpe')")


@dataclass
class CollectiveResult:
    """Outcome accounting for one collective invocation."""

    time_s: float = 0.0
    steps: int = 0
    alpha_count: int = 0
    bytes_intra: float = 0.0  # per-rank bytes sent on intra-supernode links
    bytes_cross: float = 0.0  # per-rank bytes sent on cross-supernode links
    reduce_bytes: float = 0.0  # per-rank bytes locally reduced
    step_times: list[float] = field(default_factory=list)

    def add_step(self, dt: float) -> None:
        self.time_s += dt
        self.steps += 1
        self.step_times.append(dt)


class SimComm:
    """Communicator over a fabric with an explicit rank placement.

    Parameters
    ----------
    fabric:
        Physical topology (defines supernode boundaries).
    placement:
        Logical-rank -> physical-node mapping.
    cost:
        Linear alpha-beta-gamma model used for message pricing and the
        local reduction. When ``None``, the fabric's size-dependent network
        curve prices messages instead (with cross-supernode
        oversubscription) and the reduction runs on the CPE clusters.
    """

    def __init__(
        self,
        fabric: TaihuLightFabric,
        placement: Placement,
        cost: LinearCostModel | None = None,
    ) -> None:
        if placement.p > fabric.n_nodes:
            raise ValueError(
                f"placement has {placement.p} ranks but fabric only "
                f"{fabric.n_nodes} nodes"
            )
        self.fabric = fabric
        self.placement = placement
        self.cost = cost
        #: Local reduction seconds/byte.
        self.gamma = cost.gamma if cost is not None else reduce_gamma("cpe")
        self.clock = SimClock()
        #: Logical ranks declared dead: any lockstep step touching one
        #: times out and raises :class:`CollectiveTimeout`. Plain state
        #: (settable by tests and the elastic trainer) so the check costs
        #: one empty-set test when nothing has crashed.
        self.failed_ranks: frozenset[int] = frozenset()
        #: Seconds a step waits on a dead partner before declaring it.
        self.timeout_s: float = 1e-3
        #: Representative span of the previous traced step; each lockstep
        #: round depends on the one before it (critical-path edges). A
        #: trace session seeds it with a barrier span so the first round
        #: waits on every rank.
        self.prev_step_span: Span | None = None

    @property
    def p(self) -> int:
        """Number of ranks."""
        return self.placement.p

    def crosses_supernode(self, rank_a: int, rank_b: int) -> bool:
        """Whether the pair's message crosses a supernode boundary."""
        return not self.fabric.same_supernode(
            self.placement.node_of(rank_a), self.placement.node_of(rank_b)
        )

    def pair_time(self, rank_a: int, rank_b: int, nbytes: float) -> float:
        """Time for one (full-duplex) exchange of ``nbytes`` per direction."""
        cross = self.crosses_supernode(rank_a, rank_b)
        if self.cost is not None:
            return self.cost.ptp_time(nbytes, cross_supernode=cross)
        return self.fabric.ptp_time(
            self.placement.node_of(rank_a), self.placement.node_of(rank_b), nbytes
        )

    def reduce_time(self, nbytes: float) -> float:
        """Time to locally reduce ``nbytes`` of received data on one rank."""
        return self.gamma * float(nbytes)

    def account_step(
        self,
        result: CollectiveResult,
        pairs: list[tuple[int, int, float]],
        *,
        reduce_bytes: float = 0.0,
    ) -> None:
        """Charge one lockstep collective step.

        ``pairs`` lists ``(rank_a, rank_b, nbytes)`` concurrent exchanges;
        the step costs the max pair time plus the (concurrent, per-rank)
        reduction of ``reduce_bytes``. Traffic statistics accumulate the
        per-rank maximum, matching the per-rank cost equations in the paper.
        """
        if not pairs:
            return
        if self.failed_ranks:
            dead = frozenset(
                r for a, b, _ in pairs for r in (a, b) if r in self.failed_ranks
            )
            if dead:
                self._timeout(dead)
        fi = _faults()
        step_time = 0.0
        base_step_time = 0.0
        any_cross = False
        max_bytes = 0.0
        for a, b, nbytes in pairs:
            t = self.pair_time(a, b, nbytes)
            base_step_time = max(base_step_time, t)
            if fi.enabled:
                # Straggler slowdown: the step lasts as long as its
                # slowest (possibly degraded) pair.
                t *= fi.comm_scale(a, b)
            step_time = max(step_time, t)
            cross = self.crosses_supernode(a, b)
            any_cross = any_cross or cross
            max_bytes = max(max_bytes, nbytes)
        slow_s = step_time - base_step_time
        if any_cross:
            result.bytes_cross += max_bytes
        else:
            result.bytes_intra += max_bytes
        result.alpha_count += 1
        if reduce_bytes > 0:
            step_time += self.reduce_time(reduce_bytes)
            result.reduce_bytes += reduce_bytes
        sc = _scaling()
        if sc.enabled:
            # What-if validation: one multiply on the finished step time,
            # the same operation the critical-path projection applies.
            step_time *= sc.factor("collective")
        tr = _tracer()
        if tr.enabled:
            # One lockstep round: every participating rank is busy for the
            # full step on its own collective track. Ranks that sat out the
            # previous round still wait for it (lockstep), so every span
            # depends on the previous step's representative.
            step_idx = result.steps
            prev = self.prev_step_span
            first: Span | None = None
            for a, b, nbytes in pairs:
                cross = self.crosses_supernode(a, b)
                for rank, partner in ((a, b), (b, a)):
                    span = tr.emit(
                        f"step{step_idx}", "collective_step",
                        track=f"rank{rank}/collective",
                        start=self.clock.now, dur=step_time,
                        args={
                            "partner": partner,
                            "bytes": nbytes,
                            "cross_supernode": cross,
                            "reduce_bytes": reduce_bytes,
                        },
                    )
                    if first is None:
                        first = span
                    if prev is not None:
                        tr.edge(prev, span)
            if first is not None:
                self.prev_step_span = first
        result.add_step(step_time)
        self.clock.advance(step_time)
        if fi.enabled:
            if slow_s > 0:
                fi.note_slow(slow_s)
            # Flaky-link retry: the whole lockstep step is repeated and
            # its time charged to the clock (the re-exchange carries
            # identical data, so results stay bit-exact).
            charge_transient("comm", self.clock, step_time, track="comm")

    def _timeout(self, dead: frozenset[int]) -> None:
        """Wait out the timeout on ``dead`` ranks, then fail the collective."""
        self.clock.advance(self.timeout_s)
        tr = _tracer()
        if tr.enabled:
            tr.emit(
                "collective timeout", "fault_retry", track="comm",
                start=self.clock.now - self.timeout_s, dur=self.timeout_s,
                args={"ranks": sorted(dead)},
            )
            tr.instant_event(
                "rank_crash", "fault_inject", track="comm",
                start=self.clock.now, args={"ranks": sorted(dead)},
            )
        fi = _faults()
        if fi.enabled:
            fi.note_timeout(self.timeout_s)
        raise CollectiveTimeout(
            f"collective step timed out on crashed rank(s) {sorted(dead)}",
            ranks=dead,
        )
