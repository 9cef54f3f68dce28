"""Fault plans: seeded, replayable schedules of typed faults.

A :class:`FaultPlan` is the deterministic "what goes wrong" side of the
fault-injection plane. It is constructed from a *seed string* with the
same replay spec as the :mod:`repro.testing` fuzzer seeds —
``"<profile>:<base_seed_hex>:<index>"``, e.g. ``"chaos:0x5caffe:3"`` — so
any chaos failure reported by CI can be replayed locally bit-for-bit.

The fault taxonomy (see ``docs/robustness.md``):

* ``link_retry`` — a collective's lockstep exchange hits a flaky network
  link and repeats the step (transient);
* ``mesh_degrade`` — the CPE mesh's register buses run at a fraction of
  their bandwidth for the whole run (degradation, no retries);
* ``straggler`` — a rank's network exchanges are slowed by a constant
  factor (degradation);
* ``rank_crash`` — a rank dies at a scheduled iteration; collectives that
  include it time out and the elastic trainer shrinks around it.

Transient faults are decided *statelessly*: invocation ``n`` of a site
faults iff a CRC32-derived uniform of ``(seed, site, n)`` falls below the
plan's rate, so replaying a workload replays the exact same faults with no
shared RNG stream to keep in sync.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

#: Default chaos namespace (shared with the conformance fuzzer's seeds).
BASE_SEED = 0x5CAFFE

#: The fault-mix profiles a seed string may name.
PROFILES = ("transient", "degrade", "crash", "chaos")

#: Transient-fault call sites (first field of the stateless decision).
TRANSIENT_SITES = ("comm",)

#: Site -> fault kind, as reported in injector totals and trace span names.
SITE_KINDS = {"comm": "link_retry"}


def seed_string(profile: str, index: int, base_seed: int = BASE_SEED) -> str:
    """Canonical replayable address of one fault schedule."""
    return f"{profile}:{base_seed:#x}:{index}"


def parse_seed_string(s: str) -> tuple[str, int, int]:
    """Invert :func:`seed_string` -> ``(profile, base_seed, index)``."""
    try:
        profile, base_hex, index = s.rsplit(":", 2)
        return profile, int(base_hex, 16), int(index)
    except ValueError as exc:
        raise ValueError(
            f"malformed fault seed {s!r} (expected '<profile>:<hex>:<index>')"
        ) from exc


def _hash_uniform(*parts: object) -> float:
    """Deterministic uniform in [0, 1) from a tuple of hashable parts."""
    tag = zlib.crc32("|".join(str(p) for p in parts).encode("utf-8"))
    return tag / 2**32


@dataclass(frozen=True)
class FaultPlan:
    """One seeded fault schedule over a ``ranks`` x ``iterations`` workload.

    Immutable and cheap to share: the ambient
    :class:`~repro.faults.injector.FaultInjector` holds one plan and asks
    it pointwise questions (does invocation ``n`` of site ``s`` fault? who
    is crashed by iteration ``t``?).
    """

    seed: str
    profile: str
    ranks: int
    iterations: int
    #: Per-invocation transient fault rate of the ``comm`` site (0 disables it).
    comm_rate: float = 0.0
    #: Slowdown multiplier of the degraded CPE mesh (1.0 = intact).
    mesh_factor: float = 1.0
    #: Logical rank -> slowdown factor (>= 1) on its network exchanges.
    stragglers: Mapping[int, float] = field(default_factory=dict)
    #: Scheduled ``(iteration, rank)`` crashes.
    crashes: tuple[tuple[int, int], ...] = ()
    #: Retry policy for transient faults.
    max_retries: int = 4
    backoff_base_s: float = 1e-6
    #: Time a collective waits before declaring a dead partner crashed.
    timeout_s: float = 1e-3

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_seed(cls, seed: str, *, ranks: int, iterations: int = 1) -> "FaultPlan":
        """Build the plan a seed string addresses for a given workload size."""
        profile, base_seed, index = parse_seed_string(seed)
        if profile not in PROFILES:
            raise ValueError(
                f"unknown fault profile {profile!r} (choose from {PROFILES})"
            )
        if ranks < 1 or iterations < 1:
            raise ValueError("ranks and iterations must be >= 1")
        rng = np.random.default_rng(
            [base_seed, zlib.crc32(profile.encode("utf-8")), index]
        )
        kwargs: dict = {}
        if profile in ("transient", "chaos"):
            # Two draws that once set DMA and RLC fault rates. Those sites
            # are gone, but the draws stay so every seed string keeps the
            # comm rate, stragglers and crash it always addressed.
            rng.uniform(0.05, 0.35, size=2)
            kwargs["comm_rate"] = float(rng.uniform(0.02, 0.20))
        if profile in ("degrade", "chaos"):
            kwargs["mesh_factor"] = float(rng.uniform(1.5, 4.0))
            n_slow = int(rng.integers(1, max(2, ranks // 2 + 1)))
            slow_ranks = rng.choice(ranks, size=min(n_slow, ranks), replace=False)
            kwargs["stragglers"] = {
                int(r): float(rng.uniform(1.5, 5.0)) for r in slow_ranks
            }
        if profile in ("crash", "chaos") and ranks > 1:
            # One crash, never at iteration 0 (there is always a pre-crash
            # snapshot) and never leaving zero survivors.
            it = int(rng.integers(1, iterations)) if iterations > 1 else 1
            rank = int(rng.integers(0, ranks))
            kwargs["crashes"] = ((it, rank),)
            if profile == "crash":
                kwargs["comm_rate"] = float(rng.uniform(0.0, 0.10))
        return cls(
            seed=seed, profile=profile, ranks=ranks, iterations=iterations, **kwargs
        )

    # ------------------------------------------------------------------ #
    # pointwise queries
    # ------------------------------------------------------------------ #
    def _rate(self, site: str) -> float:
        if site == "comm":
            return self.comm_rate
        raise ValueError(f"unknown transient site {site!r} (use {TRANSIENT_SITES})")

    def transient_faults(self, site: str, invocation: int) -> int:
        """Consecutive corruptions hitting invocation ``invocation`` of ``site``.

        0 means the invocation succeeds first try; ``k`` means ``k`` retries
        are needed. Deterministic in ``(seed, site, invocation)`` alone.
        """
        rate = self._rate(site)
        if rate <= 0.0:
            return 0
        u = _hash_uniform(self.seed, site, invocation)
        k, threshold = 0, rate
        while u < threshold and k < self.max_retries:
            k += 1
            threshold *= rate
        return k

    def retry_delay_s(self, attempt: int) -> float:
        """Exponential backoff before retry ``attempt`` (0-based)."""
        return self.backoff_base_s * 2.0**attempt

    def retry_overhead_s(self, base_s: float, n_retries: int) -> float:
        """Total extra seconds for re-running a ``base_s`` operation ``n`` times."""
        return sum(base_s + self.retry_delay_s(a) for a in range(n_retries))

    def straggler_factor(self, rank: int) -> float:
        """Slowdown multiplier (>= 1) of one rank's network exchanges."""
        return max(1.0, float(self.stragglers.get(rank, 1.0)))

    def crashed_by(self, iteration: int) -> frozenset[int]:
        """All ranks dead at or before ``iteration`` (crashes are permanent)."""
        return frozenset(r for it, r in self.crashes if it <= iteration)

    def describe(self) -> str:
        """One-line human summary (used by the chaos CLI report)."""
        parts = [f"profile={self.profile}"]
        if self.comm_rate:
            parts.append(f"comm_rate={self.comm_rate:.2f}")
        if self.mesh_factor > 1.0:
            parts.append(f"mesh_factor={self.mesh_factor:.2f}")
        if self.stragglers:
            parts.append(
                "stragglers={%s}"
                % ", ".join(f"{r}: {f:.1f}x" for r, f in sorted(self.stragglers.items()))
            )
        if self.crashes:
            parts.append(
                "crashes=[%s]"
                % ", ".join(f"rank {r} @ iter {it}" for it, r in self.crashes)
            )
        return " ".join(parts)

