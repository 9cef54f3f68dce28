"""Batch-size-sensitive forward cost models for serving batch shapes.

Training prices a net at one fixed mini-batch; a serving engine dispatches
whatever batch the admission queue formed — 1 on a quiet tail, ``max_batch``
under load — and the kernel plans react to the shape: the autotuner's
explicit-vs-implicit choice, the GEMM blocking, and the work-saturation
efficiency all depend on the batch.

:class:`NetForwardCostModel` owns that mapping. It rebuilds the network at
each *distinct per-core-group batch share* it is asked about and sums the
layers' forward costs. The share is the key insight (Algorithm 1, line 4):
the four core groups process batch quarters concurrently, so batches 1-4
all price as share 1 and cost the same — the first 4x of dynamic batching
is architecturally free, and costs only step at multiples of 4 after that
(``docs/serving.md`` walks through the consequences for plan selection).

The engine tests drive a deterministic stand-in instead,
:class:`~repro.testing.stubs.TableCostModel`.
"""

from __future__ import annotations

from typing import Callable

from repro.hw.spec import SW_PARAMS
from repro.kernels.plan import PlanCost, combine_sequential


class NetForwardCostModel:
    """Forward-only cost of a model-zoo network, cached per batch share.

    Parameters
    ----------
    builder:
        A model-zoo build function: ``builder(batch_size=b) -> Net``.
    name:
        Model name for reports (defaults to the first built net's name).
    """

    def __init__(self, builder: Callable[..., object], name: str = "") -> None:
        self._builder = builder
        self.name = name
        #: cg-share -> (representative batch, total forward PlanCost).
        self._by_share: dict[int, tuple[int, PlanCost]] = {}
        self._n_core_groups = SW_PARAMS.n_core_groups

    def _share(self, batch: int) -> int:
        """Per-core-group batch share (Algorithm 1: ceil(batch / 4))."""
        return max(1, -(-batch // self._n_core_groups))

    def _price(self, batch: int) -> PlanCost:
        net = self._builder(batch_size=batch)
        net.set_phase("test")
        if not self.name:
            self.name = net.name
        return combine_sequential(
            [layer.sw_forward_cost() for layer in net.layers]
        )

    def cost(self, batch: int) -> PlanCost:
        """Total forward :class:`PlanCost` of one batch, cached per share."""
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        share = self._share(batch)
        if share not in self._by_share:
            self._by_share[share] = (batch, self._price(batch))
        return self._by_share[share][1]

    def compute_s(self, batch: int) -> float:
        """Simulated forward seconds for one batch of ``batch`` requests."""
        return self.cost(batch).total_s

    def plan_table(self, batches: tuple[int, ...]) -> list[dict[str, object]]:
        """Per-conv-layer forward plan choice at each serving batch size.

        One row per (batch, conv layer): the winning plan name and its
        priced time, from the same autotuner the training path uses — the
        "how batch size interacts with plan selection" data the serve CLI
        prints under ``--explain-plans``.
        """
        rows: list[dict[str, object]] = []
        for b in batches:
            net = self._builder(batch_size=b)
            net.set_phase("test")
            for layer in net.layers:
                if layer.type != "Convolution":
                    continue
                choice = layer.chosen_plans()
                rows.append(
                    {
                        "batch": b,
                        "layer": layer.name,
                        "plan": choice["forward"],
                        "forward_s": layer.sw_forward_cost().total_s,
                    }
                )
        return rows
