"""Cost-model sanity invariants, asserted on every fuzzer-generated plan.

The simulated figures are only as trustworthy as the cost model's basic
physics, so every plan the differential fuzzer builds is also checked for:

* **positivity** — simulated time is strictly positive and finite, with no
  negative component; flops/DMA bytes are non-negative;
* **overlap consistency** — total time is at least the slowest component
  stream (the dual-pipeline overlap rule can hide, never create, time);
* **DMA conservation** — the priced traffic covers at least the operand
  and result payloads the kernel must touch;
* **monotonicity** — doubling the problem size never reduces flops or DMA
  traffic, and (except for plans with documented pipeline-fill artifacts)
  never reduces simulated time;
* **tile walk** — a blocked kernel's data-free tile walk moves the bytes
  its formula prices (exactly, or more than 0 and at most that where the
  formula is calibrated above the schedule), and no transfer keeps more
  than one CPE's 64 KiB LDM resident (:func:`repro.kernels.plan.replay`
  raises on overflow).
"""

from __future__ import annotations

import math
from typing import Any, Iterable

from repro.errors import LDMAllocationError
from repro.hw.spec import SW26010Params
from repro.kernels.plan import KernelPlan, PlanCost, Transfer, replay


class InvariantViolation(AssertionError):
    """A cost-model sanity check failed."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantViolation(message)


def check_cost_sane(cost: PlanCost, label: str = "plan") -> None:
    """Positivity/finiteness/overlap checks on one simulated cost."""
    for name in ("compute_s", "dma_s", "rlc_s", "overhead_s", "flops", "dma_bytes"):
        value = getattr(cost, name)
        _require(math.isfinite(value), f"{label}: {name} is not finite ({value})")
        _require(value >= 0.0, f"{label}: {name} is negative ({value})")
    _require(cost.total_s > 0.0, f"{label}: total simulated time must be > 0")
    floor = max(cost.compute_s, cost.dma_s, cost.rlc_s)
    _require(
        cost.total_s >= floor - 1e-18,
        f"{label}: total {cost.total_s} below slowest component {floor} "
        "(overlap cannot create time)",
    )


def check_dma_conserved(cost: PlanCost, min_bytes: float, label: str = "plan") -> None:
    """The priced DMA traffic must cover the operand/result payloads."""
    _require(
        cost.dma_bytes >= min_bytes * (1.0 - 1e-9),
        f"{label}: cost prices {cost.dma_bytes:.0f} DMA bytes but the "
        f"kernel must move at least {min_bytes:.0f} (payload not conserved)",
    )


def check_monotone(
    small: PlanCost, big: PlanCost, *, time_monotone: bool = True, label: str = "plan"
) -> None:
    """Doubling the problem must not shrink work, traffic, or (usually) time."""
    _require(
        big.flops >= small.flops,
        f"{label}: flops decreased when scaling up ({small.flops} -> {big.flops})",
    )
    _require(
        big.dma_bytes >= small.dma_bytes * (1.0 - 1e-9),
        f"{label}: DMA bytes decreased when scaling up "
        f"({small.dma_bytes} -> {big.dma_bytes})",
    )
    if time_monotone:
        _require(
            big.total_s >= small.total_s * (1.0 - 1e-9),
            f"{label}: simulated time decreased when scaling up "
            f"({small.total_s} -> {big.total_s})",
        )
    else:
        # Even with fill artifacts the *rate* must be monotone: more work
        # never runs at a lower achieved Gflop/s (the paper's Table II trend).
        if small.flops > 0 and big.flops > small.flops:
            _require(
                big.gflops >= small.gflops * 0.999,
                f"{label}: achieved rate decreased when scaling up "
                f"({small.gflops} -> {big.gflops} Gflop/s)",
            )


def check_walk(
    cost: PlanCost,
    walk: Iterable[Transfer],
    params: SW26010Params,
    *,
    exact: bool,
    label: str = "plan",
) -> None:
    """A tile walk moves the bytes ``cost`` prices, within one CPE's LDM.

    With ``exact`` the walk must move exactly ``cost.dma_bytes``;
    otherwise more than 0 bytes and at most ``cost.dma_bytes``.
    """
    try:
        moved = replay(walk, params).dma_bytes
    except LDMAllocationError as exc:
        raise InvariantViolation(f"{label}: tile walk overflows the LDM: {exc}") from None
    if exact:
        _require(
            moved == cost.dma_bytes,
            f"{label}: tile walk moves {moved} B but the cost prices "
            f"{cost.dma_bytes:.0f} B",
        )
    else:
        _require(
            0 < moved <= cost.dma_bytes,
            f"{label}: tile walk moves {moved} B, outside (0, {cost.dma_bytes:.0f}] "
            "priced",
        )


def check_plan(
    spec: Any,
    config: dict[str, Any],
    plan: KernelPlan,
) -> None:
    """Run the full invariant battery for one fuzzed plan.

    ``spec`` is a :class:`repro.testing.registry.KernelSpec`; the import is
    deferred to keep this module registry-agnostic (the mutation smoke
    tests feed it hand-built specs).
    """
    label = f"{spec.name}{config}"
    cost = plan.cost()
    check_cost_sane(cost, label)
    if spec.min_dma_bytes is not None:
        check_dma_conserved(cost, spec.min_dma_bytes(config), label)
    if spec.scale_up is not None:
        big_config = spec.scale_up(config)
        big_cost = spec.build(big_config).cost()
        check_monotone(
            cost, big_cost, time_monotone=spec.time_monotone, label=label
        )
    if spec.walk is not None:
        check_walk(
            cost, plan.tile_walk(), plan.params, exact=spec.walk == "exact", label=label
        )


def check_collective_result(result: Any, p: int, label: str = "collective") -> None:
    """Sanity on a :class:`CollectiveResult`: non-negative, finite, priced."""
    if result is None:
        return
    _require(math.isfinite(result.time_s), f"{label}: simulated time not finite")
    _require(result.time_s >= 0.0, f"{label}: negative simulated time")
    _require(result.steps >= 0, f"{label}: negative step count")
    _require(
        len(result.step_times) == result.steps,
        f"{label}: step log length {len(result.step_times)} != steps {result.steps}",
    )
    if p > 1 and result.steps > 0:
        _require(
            result.time_s > 0.0,
            f"{label}: {result.steps} communication steps priced at zero time",
        )
