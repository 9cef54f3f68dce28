"""Elementwise / bandwidth-bound kernel cost.

ReLU, batch-norm, dropout, bias, softmax, scale — on SW26010 these layers
are dominated by DMA streaming (the paper's Fig. 8/9 observation that
"bandwidth-bounded layers ... still have a significant amount of time on
SW26010" while a GPU hides them in its 288 GB/s device memory). One
formula, :func:`stream_cost`, prices them all: it streams ``n_inputs``
float32 tensors in and ``n_outputs`` out through LDM and retires
``flops_per_element`` on each element on the way. Layers call it through
:meth:`repro.frame.layer.Layer.stream_cost`.

A net prices the same few streaming shapes over and over (every ReLU,
BN and Eltwise of a block at one feature-map size), so
:func:`stream_cost` keeps one :class:`PlanCost` per distinct argument
tuple for the rest of the process. The cost depends on those arguments
alone, so a memoized cost equals an unmemoized one exactly.
"""

from __future__ import annotations

from repro.errors import PlanError
from repro.hw.spec import SW26010Params
from repro.kernels.plan import PlanCost, pricing_core_group

#: Fraction of CPE-cluster peak the per-element math sustains
#: (elementwise chains rarely exceed ~25%: no FMA balance, short
#: dependency chains).
STREAM_COMPUTE_EFFICIENCY = 0.25

#: Streaming costs priced in this process, keyed by the arguments of
#: :func:`stream_cost`. Bounded and cleared like ``autotune._CHOICE_CACHE``.
_COST_CACHE: dict[tuple[int, float, int, int, SW26010Params], PlanCost] = {}
_COST_CACHE_MAX = 65536


def stream_cost(
    n_elements: int,
    flops_per_element: float,
    n_inputs: int,
    n_outputs: int,
    params: SW26010Params,
) -> PlanCost:
    """Cost of streaming ``n_elements`` float32 values on one core group.

    One bulk DMA transfer of the ``n_inputs`` tensors read and the
    ``n_outputs`` written runs beside the per-element math.

    Raises
    ------
    PlanError
        If the traffic or the flops come out negative.
    """
    key = (n_elements, flops_per_element, n_inputs, n_outputs, params)
    cost = _COST_CACHE.get(key)
    if cost is not None:
        return cost
    nbytes = float(n_elements * 4)
    read_bytes = n_inputs * nbytes
    write_bytes = n_outputs * nbytes
    flops = float(flops_per_element * n_elements)
    if read_bytes < 0 or write_bytes < 0 or flops < 0:
        raise PlanError("traffic and flops must be non-negative")
    cg = pricing_core_group(params)
    total = read_bytes + write_bytes
    dma_s = cg.dma.bulk_time(total) if total > 0 else 0.0
    compute_s = flops / (cg.peak_flops * STREAM_COMPUTE_EFFICIENCY) if flops else 0.0
    if len(_COST_CACHE) >= _COST_CACHE_MAX:
        _COST_CACHE.clear()
    cost = _COST_CACHE[key] = PlanCost(
        compute_s=compute_s, dma_s=dma_s, flops=flops, dma_bytes=total
    )
    return cost
