"""What-if projection: scale a resource, re-walk the graph, verify by re-simulating.

Coz-style causal profilers answer "what would speeding X up buy me?" by
perturbing a running program and extrapolating. Our clock is simulated, so
we can do better on both sides of that trade:

* the **projection** is a deterministic re-walk of the critical-path graph
  (:mod:`repro.trace.critpath`) with the chosen factors applied to each
  span's resource class — no sampling noise;
* the **validation** re-runs the actual simulator with the same factors
  installed at the cost-model sites (:mod:`repro.trace.scaling`) and
  compares end-to-end times. On the training step the two walks perform
  the same float operations in the same order, so they agree *bitwise*
  at any iteration count (``tests/test_whatif.py`` pins it); where
  discrete decisions shift (serving batch formation), the error is
  reported, not hidden.

Surface: ``python -m repro whatif <net> --ranks N --scale dma=0.5
[--validate --json]`` and the ``--whatif`` flag of the serving harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.trace.critpath import (
    CritGraph,
    CritPathReport,
    build_graph,
    critical_path,
    schedule,
)
from repro.trace.scaling import SCALE_CLASSES, CostScaling, scaling
from repro.trace.tracer import Span, Tracer

#: Relative tolerance for declaring a validation run consistent. The
#: training step is exact (0.0 observed error at any iteration count).
REL_TOL = 1e-9


def parse_scales(items: Iterable[str]) -> dict[str, float]:
    """Parse ``class=factor`` CLI arguments into a factor mapping.

    Classes are validated against :data:`~repro.trace.scaling.SCALE_CLASSES`
    (plus ``layer:<name>``); factors must parse as finite floats > 0.
    """
    factors: dict[str, float] = {}
    for item in items:
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(
                f"--scale expects class=factor (e.g. dma=0.5), got {item!r}"
            )
        try:
            factors[name] = float(value)
        except ValueError:
            raise ValueError(
                f"--scale {item!r}: factor must be a number, got {value!r}"
            ) from None
    CostScaling(factors)  # validates class names and positivity
    return factors


def check_layers(net, factors: Mapping[str, float]) -> None:
    """Reject a ``layer:<name>`` factor that names no layer of ``net``."""
    names = {layer.name for layer in net.layers}
    for cls in factors:
        if cls.startswith("layer:") and cls[len("layer:"):] not in names:
            raise ValueError(f"scale class {cls!r} names no layer of {net.name!r}")


@dataclass(frozen=True)
class WhatIfProjection:
    """A graph re-walk under what-if factors."""

    factors: dict[str, float]
    baseline_s: float
    projected_s: float
    #: Critical path of the *projected* schedule — what bounds the new time.
    report: CritPathReport

    @property
    def speedup(self) -> float:
        """Baseline over projected (> 1 means the change helps)."""
        if self.projected_s <= 0.0:
            return float("inf") if self.baseline_s > 0 else 1.0
        return self.baseline_s / self.projected_s


@dataclass(frozen=True)
class WhatIfValidation:
    """Projection vs a re-simulation with the same factors installed."""

    projected_s: float
    simulated_s: float

    @property
    def abs_error_s(self) -> float:
        return abs(self.projected_s - self.simulated_s)

    @property
    def rel_error(self) -> float:
        scale = max(abs(self.simulated_s), abs(self.projected_s))
        if scale == 0.0:
            return 0.0
        return self.abs_error_s / scale

    @property
    def ok(self) -> bool:
        return self.rel_error <= REL_TOL


def project(
    trace: Tracer | list[Span] | CritGraph, factors: Mapping[str, float]
) -> WhatIfProjection:
    """Project a trace's end-to-end time under scaled resource costs.

    Works on any trace the critical-path graph understands (training
    sessions, serving runs, fault replays). The baseline is the identity
    re-walk of the same graph — bitwise equal to the recorded end time on
    well-formed traces, so ``speedup`` compares like with like. Factors
    are checked as :class:`~repro.trace.scaling.CostScaling` checks them
    (known classes, values > 0); a bad one raises ``ValueError``.
    """
    CostScaling(factors)
    graph = trace if isinstance(trace, CritGraph) else build_graph(trace)
    baseline = schedule(graph).end_to_end_s
    factors = dict(factors)
    report = critical_path(graph, factors)
    return WhatIfProjection(
        factors=factors,
        baseline_s=baseline,
        projected_s=report.end_to_end_s,
        report=report,
    )


@dataclass(frozen=True)
class WhatIfResult:
    """One full what-if study of a training step."""

    model: str
    ranks: int
    iterations: int
    projection: WhatIfProjection
    validation: WhatIfValidation | None

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "schema": "repro-whatif/1",
            "model": self.model,
            "ranks": self.ranks,
            "iterations": self.iterations,
            "factors": {
                k: self.projection.factors[k]
                for k in sorted(self.projection.factors)
            },
            "baseline_s": self.projection.baseline_s,
            "projected_s": self.projection.projected_s,
            "speedup": self.projection.speedup,
            "critpath": self.projection.report.to_json(),
        }
        if self.validation is not None:
            out["validation"] = {
                "simulated_s": self.validation.simulated_s,
                "abs_error_s": self.validation.abs_error_s,
                "rel_error": self.validation.rel_error,
                "ok": self.validation.ok,
            }
        return out


def whatif_training(
    net,
    factors: Mapping[str, float],
    *,
    ranks: int = 4,
    iterations: int = 1,
    scheme: str = "improved",
    nodes_per_supernode: int | None = None,
    validate: bool = False,
) -> WhatIfResult:
    """Project (and optionally validate) a training-step what-if.

    Traces the baseline step, projects the scaled schedule over its
    graph, and — with ``validate=True`` — re-runs the identical session
    under :func:`~repro.trace.scaling.scaling` so the simulator itself
    prices the scaled scenario. A ``layer:<name>`` factor must name a
    layer of ``net`` (:func:`check_layers`).
    """
    from repro.trace.session import trace_training_step

    check_layers(net, factors)
    kwargs = dict(
        ranks=ranks,
        iterations=iterations,
        scheme=scheme,
        nodes_per_supernode=nodes_per_supernode,
    )
    tr, summary = trace_training_step(net, **kwargs)
    projection = project(tr, factors)
    validation = None
    if validate:
        with scaling(CostScaling(dict(factors))):
            tr_scaled, _ = trace_training_step(net, **kwargs)
        validation = WhatIfValidation(
            projected_s=projection.projected_s,
            simulated_s=tr_scaled.end_time(),
        )
    return WhatIfResult(
        model=summary.model,
        ranks=ranks,
        iterations=iterations,
        projection=projection,
        validation=validation,
    )


def render_whatif(result: WhatIfResult) -> str:
    """Terminal summary of a what-if study."""
    from repro.utils.tables import Table
    from repro.utils.units import format_time

    proj = result.projection
    table = Table(
        headers=["quantity", "value"],
        title=(
            f"what-if: {result.model}, {result.ranks} ranks — "
            + ", ".join(f"{k}={v:g}" for k, v in sorted(proj.factors.items()))
        ),
    )
    table.add_row("baseline end-to-end", format_time(proj.baseline_s))
    table.add_row("projected end-to-end", format_time(proj.projected_s))
    table.add_row("speedup", f"{proj.speedup:.3f}x")
    if result.validation is not None:
        v = result.validation
        table.add_row("simulated end-to-end", format_time(v.simulated_s))
        table.add_row(
            "projection error",
            f"{v.abs_error_s:.3e} s ({v.rel_error:.3e} rel, "
            f"{'OK' if v.ok else 'MISMATCH'})",
        )
    lines = [table.render()]
    bound = sorted(proj.report.by_resource.items(), key=lambda kv: -kv[1])
    if bound:
        lines.append(
            "projected critical path: "
            + ", ".join(f"{res} {format_time(t)}" for res, t in bound)
        )
    return "\n".join(lines)
