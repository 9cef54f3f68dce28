"""Deterministic stand-ins for priced models.

:class:`TableCostModel` replaces :class:`~repro.serve.costmodel.NetForwardCostModel`
in the serving engine tests, the critical-path and what-if tests and the
golden serve trace: an explicit ``{batch: seconds}`` table, no network
construction, no plan search.
"""

from __future__ import annotations

from typing import Mapping

from repro.kernels.plan import PlanCost


class TableCostModel:
    """Explicit per-batch compute table for a serving engine.

    Batches missing from the table price linearly from the largest listed
    batch (``seconds * batch / listed``), so a sparse table still covers
    every dispatch size.
    """

    def __init__(self, seconds_by_batch: Mapping[int, float]) -> None:
        if not seconds_by_batch:
            raise ValueError("cost table must not be empty")
        self._table = {int(b): float(s) for b, s in seconds_by_batch.items()}
        if any(b < 1 or s < 0 for b, s in self._table.items()):
            raise ValueError("cost table needs batches >= 1 and seconds >= 0")
        self.max_batch = max(self._table)

    def compute_s(self, batch: int) -> float:
        """Simulated forward seconds for one batch of ``batch`` requests."""
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if batch in self._table:
            return self._table[batch]
        return self._table[self.max_batch] * batch / self.max_batch

    def cost(self, batch: int) -> PlanCost:
        """A :class:`PlanCost` view (compute only) of :meth:`compute_s`."""
        return PlanCost(compute_s=self.compute_s(batch))
