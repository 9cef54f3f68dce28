"""Ambient what-if cost scaling for validation re-simulation.

The what-if engine (:mod:`repro.trace.whatif`) projects a scaled scenario
by re-walking the trace's dependency graph. Its *validation mode* re-runs
the actual simulator with the same factors applied at the cost-model
sites; this module is the ambient channel those sites consult, mirroring
the tracer and fault patterns (a shared null object when disabled,
``if sc.enabled`` guards, a context manager to install a real scaling).

Scale classes match the critical-path resource classes:

``cpe`` / ``dma`` / ``rlc``
    The three components of every :class:`~repro.kernels.plan.PlanCost`,
    the classes of :data:`~repro.trace.tracer.RESOURCES`.
``overhead``
    A plan's fixed per-invocation overhead seconds.
``collective``
    One lockstep collective step (wire time plus local reduction).
``batch``
    A serving batch's forward compute.
``layer:<name>``
    Multiplies every component of one named layer on top of the class
    factors.

The arithmetic here is deliberately the *same operations in the same
order* as the projection in :mod:`repro.trace.critpath`, so on the
serial-fabric schedule the projected end-to-end time equals the
re-simulated one bit for bit (pinned by ``tests/test_whatif.py``).
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

from repro.trace.tracer import RESOURCES

#: The resource classes a what-if factor may target (besides ``layer:*``).
SCALE_CLASSES = (
    *(r.cls for r in RESOURCES), "overhead", "collective", "batch", "p2p", "stage"
)


class CostScaling:
    """An installed set of what-if factors; missing classes default to 1.

    Factors must be finite and > 0 — a zero factor would erase spans the
    projection still schedules, making validation meaningless.
    """

    enabled: bool = True

    def __init__(self, factors: Mapping[str, float]) -> None:
        for cls, f in factors.items():
            if not (cls in SCALE_CLASSES or cls.startswith("layer:")):
                raise ValueError(
                    f"unknown scale class {cls!r} "
                    f"(choose from {SCALE_CLASSES} or 'layer:<name>')"
                )
            if not (0.0 < float(f) < math.inf):
                raise ValueError(
                    f"scale factor for {cls!r} must be > 0 and finite, got {f!r}"
                )
        self.factors = {cls: float(f) for cls, f in factors.items()}

    def factor(self, cls: str) -> float:
        """The multiplier for one scale class (1.0 when unset)."""
        return self.factors.get(cls, 1.0)

    def layer_factor(self, layer_name: str) -> float:
        """The extra multiplier for one named layer (1.0 when unset)."""
        return self.factors.get(f"layer:{layer_name}", 1.0)

    def scale_plan_cost(self, cost: Any, layer_name: str | None = None) -> Any:
        """A copy of a :class:`~repro.kernels.plan.PlanCost` with the
        component fields scaled (``total_s`` re-derives from them, so the
        dual-pipeline rule is re-applied to the scaled components)."""
        lf = self.layer_factor(layer_name) if layer_name else 1.0
        scaled = {
            r.field: getattr(cost, r.field) * (self.factor(r.cls) * lf)
            for r in RESOURCES
        }
        scaled["overhead_s"] = cost.overhead_s * (self.factor("overhead") * lf)
        return dataclasses.replace(cost, **scaled)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v:g}" for k, v in sorted(self.factors.items()))
        return f"CostScaling({body})"


class NullCostScaling(CostScaling):
    """The disabled scaling: every factor is exactly 1 and nothing pays."""

    enabled = False

    def __init__(self) -> None:
        self.factors = {}


#: Shared disabled scaling; cost sites guard with ``if sc.enabled``.
NULL_SCALING = NullCostScaling()

_active: CostScaling = NULL_SCALING


def active() -> CostScaling:
    """The ambient scaling (the shared :data:`NULL_SCALING` when disabled)."""
    return _active


def install(sc: CostScaling) -> CostScaling:
    """Make ``sc`` ambient; returns the previously installed one."""
    global _active
    previous = _active
    _active = sc
    return previous


@contextmanager
def scaling(sc: CostScaling) -> Iterator[CostScaling]:
    """Apply what-if factors to every instrumented cost site in the block."""
    previous = install(sc)
    try:
        yield sc
    finally:
        install(previous)
