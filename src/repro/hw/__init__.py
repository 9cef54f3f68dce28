"""SW26010 architectural model.

This subpackage models the Sunway SW26010 many-core processor that swCaffe
targets: four core groups (CGs), each with a management processing element
(MPE), an 8x8 mesh of computing processing elements (CPEs) with 64 KiB
software-managed local directive memory (LDM), a DMA engine between LDM
and DDR3 memory, and register-level communication (RLC) buses along CPE
rows and columns.

The model prices: the DMA, RLC and MPE engines turn bytes and flops into
simulated seconds with bandwidth/latency models calibrated against the
measurements in the paper (Fig. 2 for DMA, the IPDPSW'17 benchmark for
RLC, Table I for peaks), and charge them to a
:class:`~repro.hw.clock.SimClock` where a caller advances one. The LDM
capacity is a spec constant that the kernel plans' blockings and tile
walks are held to (:func:`repro.kernels.plan.replay`).

The largest unit built is the core group: the chip is a spec constant,
``SW26010Params.n_core_groups``, and kernel plans share one pricing core
group per parameter set (:mod:`repro.kernels.plan`).
"""
