"""Convolution plan autotuning (Sec. VI-A).

"For layers [that] can be implemented with two methods, swCaffe can run
first two iterations to determine the best strategy used for remaining
iterations." The autotuner reproduces that: it prices (or, in a live net,
times) each direction of each candidate plan once per layer configuration
and caches the winner.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlanError
from repro.kernels.conv_explicit import ExplicitConvPlan
from repro.kernels.conv_implicit import ImplicitConvPlan
from repro.kernels.plan import PlanCost
from repro.hw.spec import SW26010Params

#: Directions a convolution layer needs plans for.
DIRECTIONS = ("forward", "backward_weight", "backward_input")


@dataclass(frozen=True)
class ConvConfig:
    """Hashable convolution layer configuration (the autotuner cache key)."""

    batch: int
    ni: int
    no: int
    height: int
    width: int
    k: int
    stride: int = 1
    pad: int = 0
    dtype_bytes: int = 4


@dataclass(frozen=True)
class PlanChoice:
    """Winner for one (config, direction)."""

    plan_name: str
    cost: PlanCost
    alternatives: tuple[tuple[str, float], ...]  # (name, total_s) of all candidates


def _direction_cost(plan, direction: str) -> PlanCost:
    return getattr(plan, f"cost_{direction}")()


def select_conv_plan(
    config: ConvConfig, direction: str, params: SW26010Params | None = None
) -> PlanChoice:
    """Price every available plan for one direction and keep the winner."""
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    candidates = []
    explicit = ExplicitConvPlan(
        config.batch, config.ni, config.no, config.height, config.width,
        config.k, config.stride, config.pad, config.dtype_bytes, params,
    )
    candidates.append(explicit)
    try:
        implicit = ImplicitConvPlan(
            config.batch, config.ni, config.no, config.height, config.width,
            config.k, config.stride, config.pad, config.dtype_bytes, params,
        )
        candidates.append(implicit)
    except PlanError:
        pass

    results: list[tuple[str, PlanCost]] = []
    for plan in candidates:
        try:
            results.append((plan.name, _direction_cost(plan, direction)))
        except PlanError:
            continue
    if not results:
        raise PlanError(f"no plan available for {config} / {direction}")
    winner = min(results, key=lambda nc: nc[1].total_s)
    return PlanChoice(
        plan_name=winner[0],
        cost=winner[1],
        alternatives=tuple((n, c.total_s) for n, c in results),
    )


class PlanAutotuner:
    """Caches plan choices per (config, direction), like swCaffe's
    first-two-iterations probe."""

    def __init__(self, params: SW26010Params | None = None) -> None:
        self.params = params
        self._cache: dict[tuple[ConvConfig, str], PlanChoice] = {}
        self.probe_count = 0

    def choose(self, config: ConvConfig, direction: str) -> PlanChoice:
        """Return the cached winner, probing once on a cache miss."""
        key = (config, direction)
        if key not in self._cache:
            self._cache[key] = select_conv_plan(config, direction, self.params)
            self.probe_count += 1
        return self._cache[key]

    def clear(self) -> None:
        """Forget all decisions (e.g. after a hardware-model change)."""
        self._cache.clear()
        self.probe_count = 0
