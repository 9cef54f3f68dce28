"""The fault injector: ambient delivery of a plan's faults into the hooks.

Mirrors the design of :mod:`repro.trace.tracer`: injection is ambient and
**off by default**.
:func:`active` returns a shared :class:`NullInjector` whose ``enabled``
attribute is False, so every instrumentation site costs one function call
and one attribute check when disabled and never perturbs simulated-time
arithmetic (pinned by ``tests/test_faults_chaos.py``). Enable with
:func:`injecting`::

    from repro.faults.injector import injecting
    from repro.faults.plan import FaultPlan

    plan = FaultPlan.from_seed("chaos:0x5caffe:0", ranks=4, iterations=8)
    with injecting(plan) as fi:
        trainer.step(8)
    print(fi.injected, fi.retries)

Hook sites live in :mod:`repro.hw.dma` / :mod:`repro.hw.rlc` (transient
corruption + retry-with-backoff on the :class:`~repro.hw.clock.SimClock`),
:mod:`repro.serve.engine` (mesh degradation and stragglers stretch every
served batch, flaky links retry it), and :mod:`repro.simmpi.comm`
(straggler slowdown, flaky-link step retries, crash timeouts). The shared :func:`charge_transient` helper keeps the
DMA/RLC/comm sites identical: decide, emit trace spans, charge the clock.
The injector itself keeps the run's fault totals (retries, retry,
straggler and timeout seconds) that ``python -m repro chaos`` reports.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.faults.plan import SITE_KINDS, FaultPlan
from repro.trace.tracer import active as _tracer


class FaultInjector:
    """Delivers one :class:`FaultPlan`'s faults, keeping replayable counts.

    Per-site invocation counters make transient decisions reproducible:
    the ``n``-th DMA transfer of a run faults iff the plan says invocation
    ``n`` faults, independent of what any other site did in between.
    """

    #: Instrumentation sites check this before doing any work.
    enabled: bool = True

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._site_calls: dict[str, int] = defaultdict(int)
        #: Faults delivered so far, by kind (dma_corrupt, rank_crash, ...).
        self.injected: Counter[str] = Counter()
        #: Total transient retries performed.
        self.retries: int = 0
        #: Simulated seconds spent on those retries (re-runs plus backoff).
        self.retry_s: float = 0.0
        #: Extra seconds stragglers added to collective steps and p2p sends.
        self.slow_s: float = 0.0
        #: Collective timeouts waited out on crashed ranks, and their seconds.
        self.timeouts: int = 0
        self.timeout_s: float = 0.0
        #: Communicator rebuilds performed by elastic recovery.
        self.rank_rebuilds: int = 0
        #: Iteration cursor (set by the trainer via :meth:`begin_iteration`).
        self.iteration: int = 0
        #: Logical-rank -> external-rank map for straggler lookup after a
        #: shrink (identity by default).
        self._rank_map: tuple[int, ...] | None = None

    # ------------------------------------------------------------------ #
    # transient faults
    # ------------------------------------------------------------------ #
    def transient(self, site: str, base_s: float) -> tuple[int, float]:
        """Decide the next invocation of ``site``: ``(retries, extra_seconds)``.

        Advances the site's invocation counter; ``extra_seconds`` accounts
        each retry at the operation's own duration plus exponential backoff,
        and adds to :attr:`retry_s`.
        """
        n = self._site_calls[site]
        self._site_calls[site] = n + 1
        k = self.plan.transient_faults(site, n)
        if k == 0:
            return 0, 0.0
        self.injected[SITE_KINDS[site]] += k
        self.retries += k
        extra = self.plan.retry_overhead_s(base_s, k)
        self.retry_s += extra
        return k, extra

    # ------------------------------------------------------------------ #
    # degradations
    # ------------------------------------------------------------------ #
    def mesh_degrade(self) -> float:
        """Slowdown multiplier (>= 1) of the degraded CPE mesh."""
        factor = self.plan.mesh_factor
        if factor > 1.0:
            self.injected["mesh_degrade"] += 1
        return factor

    def comm_scale(self, rank_a: int, rank_b: int) -> float:
        """Straggler slowdown of one pairwise exchange (max of both ends)."""
        a, b = self._external(rank_a), self._external(rank_b)
        return max(self.plan.straggler_factor(a), self.plan.straggler_factor(b))

    # ------------------------------------------------------------------ #
    # crashes / elastic recovery
    # ------------------------------------------------------------------ #
    def begin_iteration(self, iteration: int) -> None:
        """Move the crash-schedule cursor to ``iteration``."""
        self.iteration = int(iteration)

    def failed_ranks(self) -> frozenset[int]:
        """External ids of all ranks dead at the current iteration."""
        return self.plan.crashed_by(self.iteration)

    def set_rank_map(self, external_ids: Sequence[int] | None) -> None:
        """Map logical ranks to external ids after an elastic shrink."""
        self._rank_map = None if external_ids is None else tuple(external_ids)

    def _external(self, logical_rank: int) -> int:
        if self._rank_map is None or not 0 <= logical_rank < len(self._rank_map):
            return logical_rank
        return self._rank_map[logical_rank]

    def note_slow(self, slow_s: float) -> None:
        """Record one collective step or p2p send stretched by ``slow_s``
        seconds by a straggler."""
        self.injected["straggler"] += 1
        self.slow_s += slow_s

    def note_timeout(self, timeout_s: float) -> None:
        """Record one collective timeout waited out on a crashed rank."""
        self.timeouts += 1
        self.timeout_s += timeout_s

    def note_crash(self, ranks: frozenset[int]) -> None:
        """Record delivered rank crashes (called by the timeout site)."""
        self.injected["rank_crash"] += len(ranks)

    def note_rebuild(self) -> None:
        """Record one elastic communicator rebuild."""
        self.rank_rebuilds += 1


class NullInjector(FaultInjector):
    """The disabled injector: deciding anything is an instrumentation bug.

    Hook sites guard with ``if fi.enabled:``, so with the null injector
    installed the per-call cost is one function call and one attribute
    check — and no simulated-time arithmetic ever depends on it.
    """

    enabled = False

    def __init__(self) -> None:  # no plan to hold
        pass

    def _bug(self) -> RuntimeError:
        return RuntimeError(
            "NullInjector consulted; guard fault hooks with `if injector.enabled`"
        )

    def transient(self, site: str, base_s: float) -> tuple[int, float]:
        raise self._bug()

    def mesh_degrade(self) -> float:
        raise self._bug()

    def comm_scale(self, rank_a: int, rank_b: int) -> float:
        raise self._bug()

    def failed_ranks(self) -> frozenset[int]:
        raise self._bug()


#: Shared disabled injector; identity-compared by tests.
NULL_INJECTOR = NullInjector()

_active: FaultInjector = NULL_INJECTOR


def active() -> FaultInjector:
    """The ambient injector (the shared :data:`NULL_INJECTOR` when disabled)."""
    return _active


def install(injector: FaultInjector) -> FaultInjector:
    """Make ``injector`` ambient; returns the previously installed one."""
    global _active
    previous = _active
    _active = injector
    return previous


@contextmanager
def injecting(plan_or_injector: FaultPlan | FaultInjector) -> Iterator[FaultInjector]:
    """Enable fault injection for the block; yields the injector."""
    fi = (
        plan_or_injector
        if isinstance(plan_or_injector, FaultInjector)
        else FaultInjector(plan_or_injector)
    )
    previous = install(fi)
    try:
        yield fi
    finally:
        install(previous)


@contextmanager
def suspended() -> Iterator[None]:
    """Temporarily disable injection (e.g. around reference computations)."""
    previous = install(NULL_INJECTOR)
    try:
        yield
    finally:
        install(previous)


# --------------------------------------------------------------------------- #
# the shared transient hook
# --------------------------------------------------------------------------- #
def _retry(site: str, base_s: float, *, track: str, at_s: float) -> tuple[int, float]:
    """Decide the next invocation of ``site``: ``(retries, extra_seconds)``.

    ``(0, 0.0)`` when injection is disabled or the invocation succeeds
    first try. Otherwise emits a ``fault_inject`` instant plus a
    ``fault_retry`` span on ``track``, both starting at ``at_s``.
    """
    fi = active()
    if not fi.enabled:
        return 0, 0.0
    k, extra = fi.transient(site, base_s)
    if k:
        tr = _tracer()
        if tr.enabled:
            kind = SITE_KINDS[site]
            tr.instant_event(
                kind, "fault_inject", track=track, start=at_s, args={"retries": k}
            )
            tr.emit(
                f"{kind} retry", "fault_retry", track=track,
                start=at_s, dur=extra, args={"retries": k, "base_s": base_s},
            )
    return k, extra


def charge_transient(site: str, clock, base_s: float, *, track: str) -> int:
    """Hook helper for DMA/RLC/comm sites: inject, trace, charge, retry.

    No-op (beyond the enabled check) when injection is disabled. When the
    plan faults this invocation: traces the retries at ``clock.now`` and
    advances ``clock`` by the retry overhead under the ``"fault"``
    category. Returns the number of retries injected.
    """
    k, extra = _retry(site, base_s, track=track, at_s=clock.now)
    if k:
        clock.advance(extra, category="fault")
    return k


def transient_delay(site: str, base_s: float, *, track: str, at_s: float) -> float:
    """Clock-less sibling of :func:`charge_transient` for event-driven hosts.

    The serving engine (:mod:`repro.serve.engine`) keeps its own event time
    instead of a :class:`~repro.hw.clock.SimClock`, so this variant returns
    the retry overhead in seconds for the caller to add to its timeline —
    same decision, same trace spans (pinned at ``at_s``). Returns 0.0 when
    injection is disabled or the invocation succeeds first try.
    """
    return _retry(site, base_s, track=track, at_s=at_s)[1]
