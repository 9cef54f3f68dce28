"""Seeded, replayable request-arrival profiles for the serving engine.

An :class:`ArrivalPlan` is the serving-side analogue of a
:class:`~repro.faults.plan.FaultPlan`: a deterministic "what traffic shows
up when" schedule addressed by a seed string with the same replay spec as
the fault and fuzzer seeds — ``"<profile>:<base_seed_hex>:<index>"``, e.g.
``"poisson:0xc0ffee:3"`` — so any serving result reported by CI can be
replayed locally bit-for-bit.

Three arrival profiles:

* ``poisson`` — memoryless traffic: i.i.d. exponential inter-arrival
  times at the requested rate (the classic open-loop load model);
* ``bursty`` — a two-state modulated Poisson process: the generator
  alternates between a *hot* state (several times the nominal rate) and a
  *calm* state (a fraction of it), with geometrically distributed state
  lengths. Mean rate matches ``rate_rps``; the bursts are what stress the
  admission queue;
* ``steady`` — fixed ``1/rate`` spacing, no randomness (the degenerate
  profile the batching-invariant tests reason about analytically).

Timestamps are *simulated* seconds from the start of the serving session,
strictly non-decreasing, generated in one pass from a
``numpy.random.Generator`` seeded by ``(base_seed, crc32(profile), index)``
— the same derivation :class:`~repro.faults.plan.FaultPlan` uses, so one
hex namespace covers both planes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Default arrival namespace (a serving-flavoured sibling of the chaos seed).
BASE_SEED = 0xC0FFEE

#: The traffic profiles a seed string may name.
PROFILES = ("poisson", "bursty", "steady")

#: Bursty profile shape: hot/calm rate multipliers and the mean state
#: length (in requests). States alternate with equal expected request
#: counts, so the mean inter-arrival gap is the average of the per-state
#: gaps: (1/HOT + 1/CALM) / 2r = (1/3 + 5/3) / 2r = 1/r — the mean rate
#: stays exactly the nominal ``rate_rps`` while bursts run at 3x.
BURST_HOT_FACTOR = 3.0
BURST_CALM_FACTOR = 3.0 / 5.0
BURST_MEAN_STATE_LEN = 16


def seed_string(profile: str, index: int, base_seed: int = BASE_SEED) -> str:
    """Canonical replayable address of one arrival schedule."""
    return f"{profile}:{base_seed:#x}:{index}"


def parse_seed_string(s: str) -> tuple[str, int, int]:
    """Invert :func:`seed_string` -> ``(profile, base_seed, index)``."""
    try:
        profile, base_hex, index = s.rsplit(":", 2)
        return profile, int(base_hex, 16), int(index)
    except ValueError as exc:
        raise ValueError(
            f"malformed arrival seed {s!r} (expected '<profile>:<hex>:<index>')"
        ) from exc


class Request(NamedTuple):
    """One inference request: an id and a simulated arrival time."""

    rid: int
    arrival_s: float


@dataclass(frozen=True)
class ArrivalPlan:
    """One seeded arrival schedule: ``n_requests`` at ``rate_rps`` mean rate.

    Immutable; :meth:`generate` is a pure function of the plan, so two
    plans built from the same seed and knobs produce identical request
    streams (pinned by ``tests/test_serve_arrivals.py``).
    """

    seed: str
    profile: str
    rate_rps: float
    n_requests: int

    @classmethod
    def from_seed(cls, seed: str, *, rate_rps: float, n_requests: int) -> "ArrivalPlan":
        """Build the plan a seed string addresses for a given load shape."""
        profile, _, _ = parse_seed_string(seed)
        if profile not in PROFILES:
            raise ValueError(
                f"unknown arrival profile {profile!r} (choose from {PROFILES})"
            )
        if rate_rps <= 0:
            raise ValueError(f"rate_rps must be > 0, got {rate_rps!r}")
        if n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, got {n_requests!r}")
        return cls(
            seed=seed, profile=profile, rate_rps=float(rate_rps),
            n_requests=int(n_requests),
        )

    def _rng(self) -> np.random.Generator:
        profile, base_seed, index = parse_seed_string(self.seed)
        return np.random.default_rng(
            [base_seed, zlib.crc32(profile.encode("utf-8")), index]
        )

    def generate(self) -> tuple[Request, ...]:
        """The full request stream, sorted by (non-decreasing) arrival time."""
        if self.profile == "steady":
            gaps = np.full(self.n_requests, 1.0 / self.rate_rps)
        elif self.profile == "poisson":
            gaps = self._rng().exponential(1.0 / self.rate_rps, size=self.n_requests)
        else:  # bursty
            gaps = self._bursty_gaps()
        arrivals = np.cumsum(gaps)
        return tuple(
            Request(rid=i, arrival_s=float(t)) for i, t in enumerate(arrivals)
        )

    def _bursty_gaps(self) -> np.ndarray:
        rng = self._rng()
        gaps = np.empty(self.n_requests)
        hot = bool(rng.integers(0, 2))
        i = 0
        while i < self.n_requests:
            run = int(rng.geometric(1.0 / BURST_MEAN_STATE_LEN))
            run = min(run, self.n_requests - i)
            factor = BURST_HOT_FACTOR if hot else BURST_CALM_FACTOR
            gaps[i : i + run] = rng.exponential(
                1.0 / (self.rate_rps * factor), size=run
            )
            i += run
            hot = not hot
        return gaps

    def describe(self) -> str:
        """One-line human summary (used by the serve CLI report)."""
        return (
            f"profile={self.profile} rate={self.rate_rps:g} req/s "
            f"n={self.n_requests} seed={self.seed}"
        )
