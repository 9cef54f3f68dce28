"""Per-layer host time and counts, measured from outside the program.

A traced benchmark child calls :meth:`LayerClock.install` before it sets
its workload up. That replaces public callables of ``repro.frame``,
``kernels``, ``hw``, ``perf``, ``parallel``, ``simmpi``, ``pipeline``,
``serve``, ``trace`` and ``io`` with timing wrappers, then rebinds every
reference the loaded ``repro`` modules already hold (module globals,
module-level dicts, lists and tuples such as ``PAPER_NETWORKS`` and
``DEVICE_TIMERS``, and default arguments), so calls made through
``from x import f`` bindings and lookup tables are seen as well.

Each wrapper records *self time*: its duration minus the time spent in
nested wrapped calls. Self times of every callable of one layer add up
under that layer's name, so the layer times of a run never overlap and
their sum can be compared with the run's host time.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
import types
from collections import defaultdict

MB = 1e6


def _param_mb(clock: "LayerClock", args: tuple, result) -> None:
    """Parameter storage a freshly built net holds materialised.

    Reads each parameter blob's backing array without going through the
    ``data`` property, so a lazily materialised blob is not forced.
    """
    total = 0
    for layer in getattr(result, "layers", ()):
        for blob in layer.params:
            total += getattr(getattr(blob, "_data", None), "nbytes", 0)
    clock.totals["frame.param_mb"] += total / MB


def _select_key(clock: "LayerClock", args: tuple, result) -> None:
    clock.distinct["kernels.select"].add(args)


def _collective_mb(clock: "LayerClock", args: tuple, result) -> None:
    buffers = args[1]
    clock.totals["simmpi.collective_mb"] += (buffers[0].nbytes if buffers else 0) / MB


def _requests(clock: "LayerClock", args: tuple, result) -> None:
    clock.totals["serve.requests"] += len(args[1])


#: (module, attribute, layer, call counter, post-call hook).
TARGETS: list[tuple[str, str, str, str | None, object]] = [
    ("repro.frame.net", "Net.forward", "frame.exec", None, None),
    ("repro.frame.net", "Net.backward", "frame.exec", None, None),
    ("repro.frame.layer", "Layer.forward", "frame.exec", None, None),
    ("repro.frame.layer", "Layer.backward", "frame.exec", None, None),
    ("repro.frame.solver", "SGDSolver.step", "frame.solver", None, None),
    ("repro.frame.solver", "SGDSolver.apply_update", "frame.solver", None, None),
    ("repro.kernels.autotune", "select_conv_plan", "kernels.select", "kernels.selects", _select_key),
    ("repro.kernels.gemm", "SWGemmPlan.__init__", "kernels.gemm_plan", "kernels.gemm_plans", None),
    ("repro.hw.core_group", "CoreGroup.__init__", "hw.core_group", "hw.core_groups", None),
    ("repro.perf.layer_cost", "net_layer_timings", "perf.price", "perf.prices", None),
    ("repro.perf.layer_cost", "_sw_layer_time", "perf.price", None, None),
    ("repro.perf.gpu_k40m", "gpu_layer_time", "perf.price", None, None),
    ("repro.perf.cpu_host", "cpu_layer_time", "perf.price", None, None),
    ("repro.frame.net", "Net.sw_layer_costs", "perf.price", "perf.prices", None),
    ("repro.parallel.scaling", "ScalingStudy.run", "parallel.model", None, None),
    ("repro.parallel.ssgd", "SSGDIterationModel.breakdown", "parallel.model", None, None),
    ("repro.parallel.ssgd", "SSGDIterationModel.speedup", "parallel.model", None, None),
    ("repro.parallel.trainer", "DistributedTrainer.step", "parallel.step", None, None),
    ("repro.simmpi.collectives.ring", "ring_allreduce", "simmpi.collective", "simmpi.collectives", _collective_mb),
    ("repro.simmpi.collectives.rhd", "rhd_allreduce", "simmpi.collective", "simmpi.collectives", _collective_mb),
    ("repro.simmpi.collectives.topo_aware", "topo_aware_allreduce", "simmpi.collective", "simmpi.collectives", _collective_mb),
    ("repro.simmpi.nonblocking", "IAllreduceQueue.iallreduce", "simmpi.collective", None, None),
    ("repro.simmpi.nonblocking", "IAllreduceQueue.wait_all", "simmpi.collective", None, None),
    ("repro.simmpi.p2p", "P2PTransport.send", "simmpi.p2p", None, None),
    ("repro.simmpi.p2p", "P2PTransport.recv", "simmpi.p2p", None, None),
    ("repro.simmpi.p2p", "P2PTransport.isend", "simmpi.p2p", None, None),
    ("repro.simmpi.p2p", "P2PTransport.irecv", "simmpi.p2p", None, None),
    ("repro.simmpi.p2p", "P2PTransport.wait_all", "simmpi.p2p", None, None),
    ("repro.pipeline.trainer", "PipelineTrainer.step", "pipeline.train", None, None),
    ("repro.pipeline.partition", "plan_stages", "pipeline.partition", None, None),
    ("repro.pipeline.partition", "partition_dp", "pipeline.partition", None, None),
    ("repro.pipeline.partition", "partition_greedy", "pipeline.partition", None, None),
    ("repro.pipeline.schedule", "simulate_pipeline", "pipeline.schedule", None, None),
    ("repro.pipeline.schedule", "emit_pipeline_trace", "pipeline.schedule", None, None),
    ("repro.io.dataset", "SyntheticImageNet.next_batch", "io.data", None, None),
    ("repro.serve.engine", "ServingEngine.run", "serve.engine", None, _requests),
    ("repro.serve.costmodel", "NetForwardCostModel.cost", "serve.engine", "serve.cost_lookups", None),
    ("repro.serve.costmodel", "NetForwardCostModel._price", "serve.engine", "serve.cost_misses", None),
    ("repro.trace.tracer", "Tracer.emit", "trace.record", "trace.spans", None),
    ("repro.trace.tracer", "Tracer.edge", "trace.record", None, None),
    ("repro.trace.tracer", "emit_cost_spans", "trace.record", None, None),
    ("repro.trace.session", "trace_net_iteration", "trace.record", None, None),
    ("repro.trace.critpath", "build_graph", "trace.critpath", None, None),
    ("repro.trace.critpath", "critical_path", "trace.critpath", None, None),
    ("repro.trace.whatif", "project", "trace.whatif", None, None),
]


def _model_zoo_builders():
    """Every public ``build*`` function of the model-zoo modules."""
    zoo = importlib.import_module("repro.frame.model_zoo")
    for info in pkgutil.iter_modules(zoo.__path__):
        name = f"{zoo.__name__}.{info.name}"
        module = importlib.import_module(name)
        for attr, value in vars(module).items():
            if (
                attr.startswith("build")
                and isinstance(value, types.FunctionType)
                and value.__module__ == name
            ):
                yield (name, attr, "frame.build", "frame.builds", _param_mb)


class LayerClock:
    """Self time per layer plus call counts, collected by wrappers."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.totals: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        #: One nested-time accumulator per active wrapped call.
        self._stack: list[float] = []
        #: Originals stay referenced so the ids used for rebinding stay unique.
        self._originals: list[object] = []

    def _wrap(self, fn, layer: str, counter: str | None, hook):
        stack, self_s, totals = self._stack, self.self_s, self.totals
        now = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = now() - start
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                totals[counter] += 1
            if hook is not None:
                hook(self, args, result)
            return result

        return timed

    def install(self) -> None:
        """Wrap every target and rebind the references already taken."""
        swaps: dict[int, object] = {}
        for module_name, attr, layer, counter, hook in [
            *TARGETS, *_model_zoo_builders()
        ]:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[name]
            wrapper = self._wrap(original, layer, counter, hook)
            setattr(owner, name, wrapper)
            swaps[id(original)] = wrapper
            self._originals.append(original)
        _rebind(swaps)

    def snapshot(self) -> dict[str, float]:
        """Layer self times (``<layer>_s``) and counters accumulated so far."""
        out = {f"{layer}_s": t for layer, t in self.self_s.items()}
        out.update(self.totals)
        for key, seen in self.distinct.items():
            out[f"{key}_distinct"] = float(len(seen))
        return out


def _rebind(swaps: dict[int, object]) -> None:
    """Point every reference the ``repro`` modules hold at the wrappers."""

    def swap(value, depth: int = 0):
        new = swaps.get(id(value))
        if new is not None:
            return new
        if depth < 2:
            if type(value) is tuple:
                items = tuple(swap(v, depth + 1) for v in value)
                if any(a is not b for a, b in zip(items, value)):
                    return items
            elif type(value) is list:
                for i, item in enumerate(value):
                    value[i] = swap(item, depth + 1)
            elif type(value) is dict:
                for key, item in value.items():
                    value[key] = swap(item, depth + 1)
        return value

    def swap_defaults(fn) -> None:
        if fn.__defaults__:
            fn.__defaults__ = tuple(swap(v) for v in fn.__defaults__)
        if fn.__kwdefaults__:
            for key, item in fn.__kwdefaults__.items():
                fn.__kwdefaults__[key] = swap(item)

    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if key.startswith("__"):
                continue
            new = swap(value)
            if new is not value:
                namespace[key] = new
            if isinstance(value, types.FunctionType):
                swap_defaults(value)
            elif isinstance(value, type) and value.__module__ == module_name:
                for member in vars(value).values():
                    if isinstance(member, types.FunctionType):
                        swap_defaults(member)
