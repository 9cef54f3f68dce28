"""Net: the layer DAG and forward/backward propagation engine.

Layers are added in topological order (each bottom must already be produced
by an earlier layer or be a data-layer top); the net owns the named blobs,
runs the propagation sweeps, and aggregates per-layer SW26010 costs for the
timing harnesses (Figs. 8/9, Table III).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.frame.blob import Blob
from repro.frame.layer import Layer, LayerCost
from repro.kernels.plan import PlanCost
from repro.trace.tracer import active as _tracer, emit_cost_spans, suspended


class Net:
    """A DAG of layers over named blobs."""

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self.layers: list[Layer] = []
        self._bottoms: dict[str, list[str]] = {}
        self._tops: dict[str, list[str]] = {}
        self.blobs: dict[str, Blob] = {}
        self._producer: dict[str, Layer] = {}
        self.phase = "train"
        self._backward_hooks: list = []
        #: Most recent traced layer span: each layer pass depends on the
        #: one before it (the propagation order), and gradient bucketing
        #: reads it to anchor a bucket launch to the layer that filled it.
        self.last_traced_span = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add(self, layer: Layer, bottoms: list[str], tops: list[str]) -> Layer:
        """Append a layer, wiring it to named blobs.

        Bottom blobs must already exist; top blobs are created (a top may
        not overwrite an existing blob — no in-place layers, so gradient
        fan-in stays unambiguous).
        """
        if layer.name in self._tops:
            raise ShapeError(f"duplicate layer name {layer.name!r}")
        for b in bottoms:
            if b not in self.blobs:
                raise ShapeError(
                    f"layer {layer.name!r}: bottom blob {b!r} does not exist yet"
                )
        for t in tops:
            if t in self.blobs:
                raise ShapeError(
                    f"layer {layer.name!r}: top blob {t!r} already exists "
                    "(in-place layers are not supported)"
                )
        bottom_blobs = [self.blobs[b] for b in bottoms]
        top_blobs = [Blob(t) for t in tops]
        for t, blob in zip(tops, top_blobs):
            self.blobs[t] = blob
            self._producer[t] = layer
        # A layer propagates gradients down only if some bottom was made by
        # a learnable (non-data) layer.
        if layer.propagate_down:
            layer.propagate_down = any(
                b in self._producer and self._producer[b].type != "Data"
                for b in bottoms
            )
        layer.phase = self.phase
        layer.setup(bottom_blobs, top_blobs)
        self.layers.append(layer)
        self._bottoms[layer.name] = list(bottoms)
        self._tops[layer.name] = list(tops)
        return layer

    def layer_by_name(self, name: str) -> Layer:
        """Look up a layer."""
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named {name!r}")

    def set_phase(self, phase: str) -> None:
        """Switch train/test behaviour (BN statistics, dropout)."""
        if phase not in ("train", "test"):
            raise ValueError(f"phase must be 'train' or 'test', got {phase!r}")
        self.phase = phase
        for layer in self.layers:
            layer.phase = phase

    # ------------------------------------------------------------------ #
    # propagation
    # ------------------------------------------------------------------ #
    def _io(self, layer: Layer) -> tuple[list[Blob], list[Blob]]:
        return (
            [self.blobs[b] for b in self._bottoms[layer.name]],
            [self.blobs[t] for t in self._tops[layer.name]],
        )

    def forward(self) -> dict[str, float]:
        """Run the forward sweep; returns {loss_blob_name: weighted value}.

        Loss values are scaled by their layer's ``loss_weight`` (Caffe's
        convention: the reported training loss is the weighted sum).
        """
        losses: dict[str, float] = {}
        tr = _tracer()
        for layer in self.layers:
            bottom, top = self._io(layer)
            layer.forward(bottom, top)
            if tr.enabled:
                with suspended():  # keep plan-search churn out of the trace
                    cost = layer.sw_forward_cost()
                parent = emit_cost_spans(
                    tr, f"{layer.name} fwd", cost,
                    cat="layer_fwd", args={"layer_type": layer.type},
                )
                if parent is not None:
                    if self.last_traced_span is not None:
                        tr.edge(self.last_traced_span, parent)
                    self.last_traced_span = parent
            if getattr(layer, "is_loss", False):
                losses[self._tops[layer.name][0]] = layer.loss_weight * float(
                    top[0].data[0]
                )
        return losses

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #
    def output_blobs(self) -> list[str]:
        """Names of the net's sink blobs: tops no layer consumes as a bottom.

        These are what a serving deployment returns per request (softmax
        probabilities, loss-free logits, ...), in creation order.
        """
        consumed = {b for bottoms in self._bottoms.values() for b in bottoms}
        return [
            t
            for tops in self._tops.values()
            for t in tops
            if t not in consumed
        ]

    def forward_only(self) -> dict[str, np.ndarray]:
        """One inference sweep: forward under the test phase, no gradients.

        Temporarily switches the net to the ``test`` phase (BN running
        statistics, dropout pass-through), runs :meth:`forward`, restores
        the phase, and returns ``{output_blob: data}`` for every sink blob.
        """
        previous = self.phase
        if previous != "test":
            self.set_phase("test")
        try:
            self.forward()
        finally:
            if previous != "test":
                self.set_phase(previous)
        return {name: self.blobs[name].data for name in self.output_blobs()}

    def demux_outputs(self, n: int | None = None) -> list[dict[str, np.ndarray]]:
        """Split the current output blobs back into per-sample rows.

        The serving engine batches ``n`` requests into one forward pass;
        this undoes the batching: element ``i`` maps each output blob name
        to row ``i`` of its data. Outputs whose leading dimension does not
        match the batch (scalar losses, accuracy aggregates) are skipped —
        they have no per-request meaning. ``n`` defaults to the first
        demuxable output's leading dimension.
        """
        outputs = {name: self.blobs[name].data for name in self.output_blobs()}
        batched = {
            name: data
            for name, data in outputs.items()
            if getattr(data, "ndim", 0) >= 1
        }
        if n is None:
            n = next((d.shape[0] for d in batched.values()), 0)
        rows: list[dict[str, np.ndarray]] = []
        for i in range(n):
            rows.append(
                {
                    name: data[i]
                    for name, data in batched.items()
                    if data.shape[0] >= n
                }
            )
        return rows

    def add_backward_hook(self, hook) -> None:
        """Register ``hook(layer, index)``, fired as each layer completes
        its backward pass (``index`` is the layer's forward position).

        Backward runs last-to-first, so when the hook fires for ``index``,
        every layer at ``index`` or later has finished producing its
        parameter gradients — the signal gradient bucketing uses to launch
        a bucket's allreduce while earlier layers are still computing.
        """
        self._backward_hooks.append(hook)

    def remove_backward_hook(self, hook) -> None:
        """Unregister a hook previously added with :meth:`add_backward_hook`."""
        self._backward_hooks.remove(hook)

    def backward(self) -> None:
        """Run the backward sweep (activation diffs are reset first)."""
        for blob in self.blobs.values():
            blob.zero_diff()
        # Seed each loss gradient with its layer's loss weight.
        for layer in self.layers:
            if getattr(layer, "is_loss", False):
                top_blob = self.blobs[self._tops[layer.name][0]]
                top_blob.diff = np.full(
                    top_blob.shape, layer.loss_weight, dtype=top_blob.dtype
                )
        tr = _tracer()
        for index in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[index]
            bottom, top = self._io(layer)
            layer.backward(top, bottom)
            if tr.enabled:
                with suspended():
                    cost = layer.sw_backward_cost()
                parent = emit_cost_spans(
                    tr, f"{layer.name} bwd", cost,
                    cat="layer_bwd", args={"layer_type": layer.type},
                )
                if parent is not None:
                    if self.last_traced_span is not None:
                        tr.edge(self.last_traced_span, parent)
                    self.last_traced_span = parent
            for hook in self._backward_hooks:
                hook(layer, index)

    # ------------------------------------------------------------------ #
    # parameters
    # ------------------------------------------------------------------ #
    @property
    def params(self) -> list[Blob]:
        """All learnable parameter blobs in layer order."""
        out: list[Blob] = []
        for layer in self.layers:
            out.extend(layer.params)
        return out

    def param_bytes(self) -> int:
        """Total model size in bytes (the allreduce payload)."""
        return sum(p.nbytes for p in self.params)

    def zero_param_diffs(self) -> None:
        """Reset all parameter gradients."""
        for p in self.params:
            p.zero_diff()

    # ------------------------------------------------------------------ #
    # SW26010 timing
    # ------------------------------------------------------------------ #
    def sw_layer_costs(self) -> list[tuple[Layer, LayerCost]]:
        """Per-layer simulated forward/backward costs on one core group.

        The one SW26010 per-layer walk: the iteration time, the profiler,
        the roofline rows and the traced step all read it.
        """
        return [(layer, layer.sw_cost()) for layer in self.layers]

    def sw_iteration_time(self) -> float:
        """One training iteration's compute time on the SW26010 node.

        The four core groups process batch quarters concurrently and are
        symmetric, so node time equals per-CG time (Algorithm 1) plus the
        inter-CG gradient average, charged by the parallel trainer. Each
        layer's ``fwd + bwd`` is added in layer order, the same sum as
        :func:`repro.perf.layer_cost.net_iteration_time`.
        """
        return sum(cost.total_s for _, cost in self.sw_layer_costs())

    def __repr__(self) -> str:
        return f"Net({self.name!r}, {len(self.layers)} layers, {len(self.blobs)} blobs)"
