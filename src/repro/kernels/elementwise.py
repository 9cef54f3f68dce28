"""Elementwise / bandwidth-bound kernel plan.

ReLU, batch-norm, dropout, bias, softmax, scale — on SW26010 these layers
are dominated by DMA streaming (the paper's Fig. 8/9 observation that
"bandwidth-bounded layers ... still have a significant amount of time on
SW26010" while a GPU hides them in its 288 GB/s device memory). One plan
covers them all: it streams ``reads + writes`` bytes through LDM and
retires ``flops`` on the way.

A net prices the same few streaming shapes over and over (every ReLU,
BN and Eltwise of a block at one feature-map size), so
:meth:`ElementwisePlan.cost` keeps one :class:`PlanCost` per distinct
(read bytes, write bytes, flops, efficiency, params) for the rest of the
process. The cost depends on that key alone, so a memoized cost equals
an unmemoized one exactly.
"""

from __future__ import annotations

from repro.errors import PlanError
from repro.kernels.plan import KernelPlan, PlanCost, pricing_core_group
from repro.hw.spec import SW26010Params


class ElementwisePlan(KernelPlan):
    """Streaming kernel: y = f(x, ...) with per-element work.

    Parameters
    ----------
    read_bytes, write_bytes:
        DRAM traffic of each direction.
    flops:
        Arithmetic per invocation (ReLU ~1/elem, BN ~5/elem, ...).
    compute_efficiency:
        Fraction of CPE-cluster peak the per-element math sustains
        (elementwise chains rarely exceed ~25%: no FMA balance, short
        dependency chains).
    """

    name = "elementwise"

    def __init__(
        self,
        read_bytes: float,
        write_bytes: float,
        flops: float = 0.0,
        compute_efficiency: float = 0.25,
        params: SW26010Params | None = None,
    ) -> None:
        super().__init__(params)
        if read_bytes < 0 or write_bytes < 0 or flops < 0:
            raise PlanError("traffic and flops must be non-negative")
        if not 0 < compute_efficiency <= 1.0:
            raise PlanError("compute_efficiency must be in (0, 1]")
        self.read_bytes = float(read_bytes)
        self.write_bytes = float(write_bytes)
        self.flops = float(flops)
        self.compute_efficiency = float(compute_efficiency)

    @classmethod
    def for_tensor(
        cls,
        n_elements: int,
        *,
        flops_per_element: float = 1.0,
        n_inputs: int = 1,
        n_outputs: int = 1,
        dtype_bytes: int = 4,
        compute_efficiency: float = 0.25,
        params: SW26010Params | None = None,
    ) -> "ElementwisePlan":
        """Convenience constructor from element counts."""
        nbytes = float(n_elements * dtype_bytes)
        return cls(
            read_bytes=n_inputs * nbytes,
            write_bytes=n_outputs * nbytes,
            flops=flops_per_element * n_elements,
            compute_efficiency=compute_efficiency,
            params=params,
        )

    def cost(self) -> PlanCost:
        key = (
            self.read_bytes, self.write_bytes, self.flops,
            self.compute_efficiency, self.params,
        )
        cost = _COST_CACHE.get(key)
        if cost is None:
            if len(_COST_CACHE) >= _COST_CACHE_MAX:
                _COST_CACHE.clear()
            cost = _COST_CACHE[key] = _stream_cost(*key)
        return cost


#: Streaming costs priced in this process, keyed by everything
#: ``_stream_cost`` reads. Bounded and cleared like
#: ``autotune._CHOICE_CACHE``.
_COST_CACHE: dict[tuple[float, float, float, float, SW26010Params], PlanCost] = {}
_COST_CACHE_MAX = 65536


def _stream_cost(
    read_bytes: float,
    write_bytes: float,
    flops: float,
    compute_efficiency: float,
    params: SW26010Params,
) -> PlanCost:
    """The unmemoized streaming cost: one bulk transfer beside the math."""
    cg = pricing_core_group(params)
    total = read_bytes + write_bytes
    dma_s = cg.dma.bulk_time(total) if total > 0 else 0.0
    compute_s = flops / (cg.peak_flops * compute_efficiency) if flops else 0.0
    return PlanCost(compute_s=compute_s, dma_s=dma_s, flops=flops, dma_bytes=total)
