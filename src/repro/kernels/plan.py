"""Kernel plan base types.

A :class:`KernelPlan` is the unit swCaffe schedules on a core group: it
knows its shapes, its LDM blocking, how many FLOPs and DMA bytes it moves,
and therefore how long it takes on the modeled hardware. The GEMM and
convolution plans only price; convolution layers execute through
:mod:`repro.frame.conv_ops`.

A blocked kernel also describes its schedule as a *tile walk*: a generator
of :class:`Transfer` records that moves no data. :func:`replay` prices a
walk transfer by transfer, so tests can pin each walk to the plan's
``cost()`` formula (``docs/calibration.md``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import attrgetter
from typing import Iterable, NamedTuple

from repro.errors import LDMAllocationError
from repro.hw.core_group import CoreGroup
from repro.hw.spec import SW26010Params, SW_PARAMS


#: Work-saturation knee for convolution kernel invocations, in FLOPs.
#: A CPE-cluster kernel needs substantial work per invocation to amortize
#: LDM warm-up, pipeline fill and blocking fringe; invocations carrying
#: fewer than a few hundred MFLOPs (ResNet-50 / GoogLeNet layers at small
#: per-CG batches) run at a fraction ``w / (w + knee)`` of their steady-
#: state efficiency. Calibrated against Table III: both nets sustain only
#: ~2.2-2.4% of peak there while VGG (16x more work per invocation at the
#: same batch budget) sustains ~10%.
WORK_SATURATION_FLOPS = 0.6e9


def work_saturation(flops: float) -> float:
    """Efficiency fraction retained by an invocation of ``flops`` work.

    Floored at 2% so toy-scale kernels (unit tests, LeNet examples) degrade
    to a fixed overhead regime instead of diverging; the networks the paper
    evaluates never reach the floor.
    """
    if flops <= 0:
        return 1.0
    return max(flops / (flops + WORK_SATURATION_FLOPS), 0.02)


@dataclass(frozen=True)
class PlanCost:
    """Simulated time breakdown of one plan invocation on one core group."""

    compute_s: float = 0.0
    dma_s: float = 0.0
    rlc_s: float = 0.0
    overhead_s: float = 0.0
    flops: float = 0.0
    dma_bytes: float = 0.0

    @property
    def total_s(self) -> float:
        """End-to-end seconds with the dual-pipeline overlap rule.

        Compute and DMA overlap on the two CPE issue pipelines; RLC is
        modeled as pipelined under compute (the GEMM inner loop), so the
        bound is the slowest of the three plus fixed overheads.
        """
        return max(self.compute_s, self.dma_s, self.rlc_s) + self.overhead_s

    @property
    def gflops(self) -> float:
        """Achieved GFlop/s at the overlapped time."""
        t = self.total_s
        return self.flops / t / 1e9 if t > 0 else 0.0

    def __add__(self, other: "PlanCost") -> "PlanCost":
        """Sequential composition: each phase keeps its internal overlap."""
        return combine_sequential([self, other])


def combine_sequential(costs: list[PlanCost]) -> PlanCost:
    """Combine phases that run one after another.

    Each phase keeps its own internal compute/DMA overlap; the total is the
    sum of per-phase totals. The returned object reports component sums for
    reporting and encodes the exact total via ``overhead_s``. Each field is
    one built-in ``sum`` over the phases, read at C level.
    """
    return _sequential([sum(map(field, costs)) for field in _SUMMED])


def repeat_sequential(cost: PlanCost, n: int) -> PlanCost:
    """``combine_sequential([cost] * n)``, bit for bit, without the list."""
    return _sequential([sum(repeat(field(cost), n)) for field in _SUMMED])


# The built-in sum stays the accumulator: from Python 3.12 it compensates
# float sums, so a hand-written loop would change results there.
_SUMMED = tuple(map(attrgetter, ("compute_s", "dma_s", "rlc_s", "flops", "dma_bytes", "total_s")))


def _sequential(sums: list[float]) -> PlanCost:
    """The cost of phases with these field sums, run one after another."""
    compute, dma, rlc, flops, dbytes, total = sums
    overhead = total - max(compute, dma, rlc)
    # A sequence of phases can never be faster than any single component
    # stream, so the correction is non-negative up to float rounding.
    overhead = max(overhead, 0.0)
    return PlanCost(
        compute_s=compute,
        dma_s=dma,
        rlc_s=rlc,
        overhead_s=overhead,
        flops=flops,
        dma_bytes=dbytes,
    )


@lru_cache(maxsize=64)
def pricing_core_group(params: SW26010Params) -> CoreGroup:
    """The one core group every plan of ``params`` prices against.

    Pricing reads only ``peak_flops`` and the DMA and RLC time formulas,
    which keep no state, so one core group serves every plan.
    """
    return CoreGroup(params=params)


class Transfer(NamedTuple):
    """One DMA transfer of a tile walk, between memory and the CPEs' LDMs."""

    #: Bytes moved, summed over the issuing CPEs.
    nbytes: int
    #: Contiguous block size in memory; ``None`` for one continuous run.
    block_bytes: int | None = None
    #: CPEs issuing the transfer together.
    n_cpes: int = 64
    #: LDM bytes resident on each issuing CPE while the transfer runs.
    ldm_bytes: int = 0


class WalkCost(NamedTuple):
    """What :func:`replay` reads off a tile walk."""

    dma_bytes: int
    dma_s: float
    transfers: int
    peak_ldm_bytes: int


def replay(walk: Iterable[Transfer], params: SW26010Params) -> WalkCost:
    """Price a tile walk transfer by transfer, moving no data.

    Each transfer costs :meth:`~repro.hw.dma.DMAEngine.transfer_time` of
    its per-CPE share on its issuing CPEs, the formula the plans' ``cost()``
    prices their DMA with. Only tests replay walks: they pin each walk to
    its plan's formula (``docs/calibration.md``).

    Raises
    ------
    LDMAllocationError
        If a transfer keeps more bytes resident than one CPE's LDM holds.
    """
    dma = pricing_core_group(params).dma
    dma_bytes = count = peak = 0
    dma_s = 0.0
    for t in walk:
        if t.ldm_bytes > params.ldm_bytes:
            raise LDMAllocationError(
                f"transfer {count} keeps {t.ldm_bytes} B resident per CPE; "
                f"the LDM holds {params.ldm_bytes} B"
            )
        dma_bytes += t.nbytes
        dma_s += dma.transfer_time(t.nbytes / t.n_cpes, t.n_cpes, block_bytes=t.block_bytes)
        count += 1
        peak = max(peak, t.ldm_bytes)
    return WalkCost(dma_bytes, dma_s, count, peak)


class KernelPlan(abc.ABC):
    """Base class for SW26010 kernel plans.

    A plan prices against the process-wide :func:`pricing_core_group` of
    its parameters (``self._cg``).

    Parameters
    ----------
    params:
        SW26010 model constants (defaults to the calibrated set).
    """

    #: Human-readable plan name used by the autotuner and harness tables.
    name: str = "plan"

    def __init__(self, params: SW26010Params | None = None) -> None:
        self.params = params or SW_PARAMS
        self._cg = pricing_core_group(self.params)

    @abc.abstractmethod
    def cost(self) -> PlanCost:
        """Simulated time for one invocation on one core group."""
