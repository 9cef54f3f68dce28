"""Convolution plan autotuning (Sec. VI-A).

"For layers [that] can be implemented with two methods, swCaffe can run
first two iterations to determine the best strategy used for remaining
iterations." The autotuner reproduces that: it prices (or, in a live net,
times) each direction of each candidate plan once per layer configuration
and caches the winner.

:func:`select_conv_plan` keeps that winner for the rest of the process,
one frozen :class:`PlanChoice` per distinct (config, direction, params),
the way a TVM-style tuner records one schedule per operator workload.
Pricing reads nothing but that key (no fault plan, cost scaling or
tracer), so every layer, harness and command that meets a configuration
again gets the same choice back. :class:`PlanAutotuner` still counts its
own probes per layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlanError
from repro.kernels.conv_explicit import ExplicitConvPlan
from repro.kernels.conv_implicit import ImplicitConvPlan
from repro.kernels.plan import PlanCost
from repro.hw.spec import SW26010Params, SW_PARAMS

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


#: Plan choices priced in this process, one per distinct (config,
#: direction, params). Each paper net is built once per process
#: (``perf.layer_cost.net_record``), but its layers repeat block shapes,
#: so a cold pass over the paper artifacts meets each key ~1.8 times
#: (613 selections, 332 keys). Bounded and cleared like
#: ``gemm._BLOCKING_CACHE``.
_CHOICE_CACHE: dict[tuple[ConvConfig, str, SW26010Params], PlanChoice] = {}
_CHOICE_CACHE_MAX = 65536


def select_conv_plan(
    config: ConvConfig, direction: str, params: SW26010Params | None = None
) -> PlanChoice:
    """Price every available plan for one direction and keep the winner.

    The winner is memoized per process: a repeated (config, direction,
    params) returns the identical :class:`PlanChoice`. A configuration no
    plan can price raises every time it is asked.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    key = (config, direction, params or SW_PARAMS)
    choice = _CHOICE_CACHE.get(key)
    if choice is None:
        choice = _price_conv_plans(*key)
        if len(_CHOICE_CACHE) >= _CHOICE_CACHE_MAX:
            _CHOICE_CACHE.clear()
        _CHOICE_CACHE[key] = choice
    return choice


def _price_conv_plans(
    config: ConvConfig, direction: str, params: SW26010Params
) -> PlanChoice:
    """The uncached selection: build each candidate plan and price it."""
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
