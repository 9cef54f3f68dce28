"""SW26010 architectural model.

This subpackage simulates the Sunway SW26010 many-core processor that
swCaffe targets: four core groups (CGs), each with a management processing
element (MPE), an 8x8 mesh of computing processing elements (CPEs) with
64 KiB software-managed local directive memory (LDM), a DMA engine between
LDM and DDR3 memory, and register-level communication (RLC) buses along
CPE rows and columns.

The model is *functional + temporal*: data movement helpers operate on real
NumPy buffers (so kernels built on top are bit-exact), while every operation
charges simulated time to a :class:`~repro.hw.clock.SimClock` according to
bandwidth/latency models calibrated against the measurements in the paper
(Fig. 2 for DMA, the IPDPSW'17 benchmark for RLC, Table I for peaks).
"""

from repro.hw.spec import (
    ProcessorSpec,
    SW26010_SPEC,
    K40M_SPEC,
    KNL_SPEC,
    E5_2680V3_SPEC,
    SW26010Params,
    SW_PARAMS,
)
from repro.hw.clock import SimClock
from repro.hw.ldm import LDMAllocator
from repro.hw.dma import DMAEngine
from repro.hw.rlc import RegisterComm
from repro.hw.cpe import CPE
from repro.hw.mpe import MPE
from repro.hw.core_group import CoreGroup
from repro.hw.processor import SW26010
from repro.hw.mesh_sim import MeshOp, MeshSimulator, gemm_inner_schedule

__all__ = [
    "ProcessorSpec",
    "SW26010_SPEC",
    "K40M_SPEC",
    "KNL_SPEC",
    "E5_2680V3_SPEC",
    "SW26010Params",
    "SW_PARAMS",
    "SimClock",
    "LDMAllocator",
    "DMAEngine",
    "RegisterComm",
    "CPE",
    "MPE",
    "CoreGroup",
    "SW26010",
    "MeshOp",
    "MeshSimulator",
    "gemm_inner_schedule",
]
