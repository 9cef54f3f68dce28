"""Whole-processor model: four core groups on a network-on-chip.

swCaffe's single-node parallelism (paper Fig. 5 and Algorithm 1) runs one
pthread per core group; each thread trains on a quarter of the mini-batch
and CG 0 reduces the four gradient copies. :class:`SW26010` holds the four
core groups and the processor-level constants.
"""

from __future__ import annotations

from repro.hw.clock import SimClock
from repro.hw.core_group import CoreGroup
from repro.hw.spec import SW26010Params, SW_PARAMS


class SW26010:
    """A full SW26010 processor: 4 core groups sharing a node."""

    def __init__(self, params: SW26010Params | None = None, clock: SimClock | None = None) -> None:
        self.params = params or SW_PARAMS
        self.clock = clock or SimClock()
        self.core_groups = [
            CoreGroup(index=i, params=self.params) for i in range(self.params.n_core_groups)
        ]

    @property
    def n_core_groups(self) -> int:
        """Number of core groups (4)."""
        return len(self.core_groups)

    @property
    def peak_flops(self) -> float:
        """Whole-chip peak double-precision FLOP/s (~3.02 TFlops)."""
        return sum(cg.peak_flops + cg.mpe.peak_flops for cg in self.core_groups)
