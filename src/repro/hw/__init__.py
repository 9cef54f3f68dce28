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

The largest unit built is the core group: the chip is a spec constant,
``SW26010Params.n_core_groups``, and kernel plans share one pricing core
group per parameter set (:mod:`repro.kernels.plan`).
"""

# Only tests run the cycle-level mesh simulator; this import is what keeps
# it loaded next to the rest of the hardware model (the fault plan's
# ``mesh_degrade`` site slows its buses) until the kernel tile walks decide
# whether it prices their RLC rounds (ROADMAP).
from repro.hw import mesh_sim  # noqa: F401
