"""Event-trace observability for the simulated swCaffe stack.

``repro.trace`` records *what the simulator spent its simulated time on* as
typed spans — DMA transfers, register-bus exchanges, CPE compute, LDM
allocations, collective steps, layer passes, solver iterations — collected
from instrumentation hooks in ``repro.hw``, ``repro.kernels``,
``repro.simmpi`` and ``repro.frame``. Tracing is off by default (a no-op
null tracer) and never changes simulated-time results.

Typical use::

    from repro import trace

    with trace.tracing() as tr:
        solver.step(3)                      # or any traced workload
    trace.write_chrome_json(tr, "trace.json")   # open in ui.perfetto.dev
    print(trace.render_attribution(tr))         # bottleneck summary
    print(trace.render_timeline(tr))            # terminal timeline

or, end to end from the CLI::

    python -m repro trace vgg16 --ranks 4 --out trace.json

See ``docs/observability.md`` for the span taxonomy and the Perfetto
workflow.
"""

from repro.trace.tracer import (
    EDGE_KINDS,
    NULL_TRACER,
    NullTracer,
    SPAN_CATEGORIES,
    Span,
    Tracer,
    active,
    emit_cost_spans,
    install,
    suspended,
    tracing,
)
from repro.trace.scaling import (
    NULL_SCALING,
    CostScaling,
    NullCostScaling,
    SCALE_CLASSES,
    scaling,
)
from repro.trace.export import to_chrome, validate_chrome, write_chrome_json
from repro.trace.timeline import render_timeline
from repro.trace.attribution import (
    AttributionReport,
    GroupAttribution,
    attribute,
    render_attribution,
)

__all__ = [
    "EDGE_KINDS",
    "NULL_TRACER",
    "NullTracer",
    "SPAN_CATEGORIES",
    "Span",
    "Tracer",
    "active",
    "emit_cost_spans",
    "install",
    "suspended",
    "tracing",
    "NULL_SCALING",
    "CostScaling",
    "NullCostScaling",
    "SCALE_CLASSES",
    "scaling",
    "to_chrome",
    "validate_chrome",
    "write_chrome_json",
    "render_timeline",
    "AttributionReport",
    "GroupAttribution",
    "attribute",
    "render_attribution",
]

# ``repro.trace.session`` pulls in the simmpi/topology stack; it is loaded
# lazily so hardware-model modules can import this package for their
# instrumentation hooks without creating an import cycle. The critical-path
# and what-if modules are lazy for the same reason (whatif re-simulates).
_SESSION_EXPORTS = (
    "SessionSummary",
    "replay_rhd",
    "trace_net_iteration",
    "trace_training_step",
)
_CRITPATH_EXPORTS = (
    "CritGraph",
    "CritPathReport",
    "build_graph",
    "critical_path",
    "path_spans",
    "render_critpath",
)
_WHATIF_EXPORTS = (
    "WhatIfProjection",
    "WhatIfResult",
    "WhatIfValidation",
    "parse_scales",
    "project",
    "render_whatif",
    "whatif_training",
)
__all__ += list(_SESSION_EXPORTS) + list(_CRITPATH_EXPORTS) + list(_WHATIF_EXPORTS)

_LAZY_MODULES = {
    **{name: "repro.trace.session" for name in _SESSION_EXPORTS},
    **{name: "repro.trace.critpath" for name in _CRITPATH_EXPORTS},
    **{name: "repro.trace.whatif" for name in _WHATIF_EXPORTS},
}


def __getattr__(name: str):
    import importlib

    if name in ("session", "critpath", "whatif"):
        return importlib.import_module(f"repro.trace.{name}")
    module = _LAZY_MODULES.get(name)
    if module is not None:
        return getattr(importlib.import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
