"""Conformance registry: how each kernel, collective and layer is checked.

A :class:`KernelSpec` packages everything the differential fuzzer needs to
exercise one kernel plan family: a config sampler biased toward the edge
cases the paper's kernels are known to be sensitive to (odd channels,
stride > kernel, batch 1, channels < 64, non-power-of-two dims), a plan
builder, a runner producing (label, actual, reference) comparisons for a
kernel that executes data, and the hooks the cost-invariant checker uses
(minimum DMA payload, a problem-size doubling rule, and how the plan's
tile walk must match its priced bytes).

A :class:`CollectiveSpec` does the same for the simulated MPI collectives:
``execute`` runs the algorithm over per-rank buffers, ``reference``
computes the expected per-rank outcome from the pristine inputs.

Registering a spec is all a new kernel or collective needs to do to get
differential + invariant coverage from ``pytest -m conformance``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from repro.frame.conv_ops import conv_backward, conv_forward
from repro.hw.spec import SW_PARAMS
from repro.kernels.conv_explicit import ExplicitConvPlan
from repro.kernels.conv_fft import FFTConvPlan
from repro.kernels.conv_implicit import MIN_CHANNELS_FORWARD, ImplicitConvPlan
from repro.kernels.elementwise import stream_cost
from repro.kernels.gemm import SWGemmPlan
from repro.kernels.im2col import Col2imPlan, Im2colPlan, conv_out_dim
from repro.kernels.plan import KernelPlan
from repro.kernels.pooling import PoolingPlan
from repro.kernels.transform import TensorTransformPlan
from repro.simmpi.collectives.binomial import binomial_allreduce
from repro.simmpi.collectives.rhd import rhd_allreduce
from repro.simmpi.collectives.ring import ring_allreduce
from repro.simmpi.collectives.topo_aware import topo_aware_allreduce
from repro.simmpi.comm import CollectiveResult, SimComm
from repro.simmpi.p2p import P2PTransport
from repro.simmpi.reorder import block_placement
from repro.testing import references as ref
from repro.topology.cost_model import LinearCostModel
from repro.topology.fabric import TaihuLightFabric

Comparison = tuple[str, np.ndarray, np.ndarray]


# --------------------------------------------------------------------------- #
# spec types
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class KernelSpec:
    """Conformance description of one kernel plan family."""

    name: str
    #: Draw one fuzz configuration (a plain dict, fully determining shapes).
    sample: Callable[[np.random.Generator], dict[str, Any]]
    #: Instantiate the plan for a configuration: anything with a
    #: ``cost()``, plus ``tile_walk()`` and ``params`` when ``walk`` is set.
    build: Callable[[dict[str, Any]], KernelPlan]
    #: Execute the kernel vs reference; returns labelled (actual, expected)
    #: pairs. ``None`` for plans that only price.
    run: Callable[[KernelPlan, dict[str, Any], np.random.Generator], list[Comparison]] | None
    #: Lower bound on the DMA bytes one invocation must move (operands +
    #: results touched at least once); the invariant checker asserts the
    #: cost model conserves at least this much traffic.
    min_dma_bytes: Callable[[dict[str, Any]], float] | None = None
    #: Produce a strictly-larger configuration (for monotonicity checks).
    scale_up: Callable[[dict[str, Any]], dict[str, Any]] | None = None
    #: Whether simulated *time* must be monotone under ``scale_up`` (flops
    #: and DMA bytes always must). Plans with pipeline-fill penalties that
    #: shrink faster than work grows (see SWGemmPlan docs) set this False.
    time_monotone: bool = True
    #: How the plan's ``tile_walk()`` bytes meet ``cost().dma_bytes``:
    #: ``"exact"`` (equal), ``"within"`` (more than 0 and at most), or
    #: ``None`` for plans without a tile walk.
    walk: str | None = None
    #: Numerical tolerance for kernel-vs-reference comparisons.
    rtol: float = 1e-9
    atol: float = 1e-9


@dataclass(frozen=True)
class CollectiveSpec:
    """Conformance description of one simulated collective."""

    name: str
    #: Run the collective; gets fresh copies of the per-rank inputs and
    #: must return the per-rank outputs to compare.
    execute: Callable[[SimComm, list[np.ndarray], dict[str, Any]], tuple[list[np.ndarray], CollectiveResult | None]]
    #: Expected per-rank outputs from the pristine inputs.
    reference: Callable[[list[np.ndarray], dict[str, Any]], list[np.ndarray]]
    #: Rank counts the fuzzer may draw (includes non-powers-of-two unless
    #: the algorithm is restricted).
    ranks: tuple[int, ...] = (1, 2, 3, 5, 8, 13, 16)
    #: Reduce modes exercised (the ``average`` flag of the allreduce family).
    reduce_ops: tuple[bool, ...] = (False, True)
    rtol: float = 1e-9
    atol: float = 1e-9


KERNELS: dict[str, KernelSpec] = {}
COLLECTIVES: dict[str, CollectiveSpec] = {}


def register_kernel(spec: KernelSpec) -> KernelSpec:
    """Add (or replace) a kernel spec in the conformance registry."""
    KERNELS[spec.name] = spec
    return spec


def register_collective(spec: CollectiveSpec) -> CollectiveSpec:
    """Add (or replace) a collective spec in the conformance registry."""
    COLLECTIVES[spec.name] = spec
    return spec


def kernel_names() -> list[str]:
    return sorted(KERNELS)


def collective_names() -> list[str]:
    return sorted(COLLECTIVES)


def get_kernel(name: str) -> KernelSpec:
    try:
        return KERNELS[name]
    except KeyError:
        raise KeyError(
            f"{name!r} is not a registered kernel spec "
            f"(known: {', '.join(kernel_names())})"
        ) from None


def get_collective(name: str) -> CollectiveSpec:
    try:
        return COLLECTIVES[name]
    except KeyError:
        raise KeyError(
            f"{name!r} is not a registered collective spec "
            f"(known: {', '.join(collective_names())})"
        ) from None


# --------------------------------------------------------------------------- #
# shared samplers
# --------------------------------------------------------------------------- #
def _choice(rng: np.random.Generator, pool) -> int:
    return int(rng.choice(np.asarray(pool)))


def _conv_geometry(
    rng: np.random.Generator, *, stride_over_kernel: bool = True
) -> dict[str, int]:
    """Sample kernel/stride/pad/image dims with a valid output size.

    Deliberately includes stride > kernel, zero and maximal padding, and
    the smallest legal images so the window-edge paths get fuzzed.
    """
    k = _choice(rng, [1, 2, 3, 5])
    stride = _choice(rng, [1, 2, 3, 4] if stride_over_kernel else [1, 2])
    pad = _choice(rng, [0, 0, 1, 2])
    if pad >= k:  # Caffe forbids pad >= kernel (all-padding windows)
        pad = k - 1
    # Image must produce at least one output pixel: size + 2*pad >= k.
    min_side = max(1, k - 2 * pad)
    extra = _choice(rng, [0, 1, 2, 3])
    side = min_side + stride * _choice(rng, [0, 1, 2]) + extra
    return {"k": k, "stride": stride, "pad": pad, "height": side, "width": side}


def _conv_channels(rng: np.random.Generator, *, minimum: int = 1) -> tuple[int, int]:
    """Channel pairs biased to odd / sub-64 / non-power-of-two counts."""
    pool = [c for c in (1, 2, 3, 5, 7, 13, 16, 31, 63, 64, 65, 96) if c >= minimum]
    return _choice(rng, pool), _choice(rng, pool)


def _conv_sample(rng: np.random.Generator) -> dict[str, Any]:
    geo = _conv_geometry(rng)
    ni, no = _conv_channels(rng)
    return {"batch": _choice(rng, [1, 1, 2, 3]), "ni": ni, "no": no, **geo}


def _implicit_sample(rng: np.random.Generator) -> dict[str, Any]:
    # The implicit micro-kernel refuses channels < 64; fuzz the smallest
    # counts it accepts plus odd/non-power-of-two ones just above the bar.
    geo = _conv_geometry(rng)
    pool = [MIN_CHANNELS_FORWARD, 65, 67, 96, 128]
    return {
        "batch": _choice(rng, [1, 1, 2, 3]),
        "ni": _choice(rng, pool),
        "no": _choice(rng, pool),
        **geo,
    }


def _conv_payload_bytes(cfg: dict[str, Any], dtype_bytes: int = 4) -> float:
    out_h = conv_out_dim(cfg["height"], cfg["k"], cfg["stride"], cfg["pad"])
    out_w = conv_out_dim(cfg["width"], cfg["k"], cfg["stride"], cfg["pad"])
    in_elems = cfg["batch"] * cfg["ni"] * cfg["height"] * cfg["width"]
    out_elems = cfg["batch"] * cfg["no"] * out_h * out_w
    return float((in_elems + out_elems) * dtype_bytes)


def _double_batch(cfg: dict[str, Any]) -> dict[str, Any]:
    return {**cfg, "batch": 2 * cfg["batch"]}


def _conv_inputs(
    cfg: dict[str, Any], rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = rng.normal(size=(cfg["batch"], cfg["ni"], cfg["height"], cfg["width"]))
    w = rng.normal(size=(cfg["no"], cfg["ni"], cfg["k"], cfg["k"]))
    b = rng.normal(size=cfg["no"])
    return x, w, b


# --------------------------------------------------------------------------- #
# kernel specs
# --------------------------------------------------------------------------- #
def _gemm_sample(rng: np.random.Generator) -> dict[str, Any]:
    pool = [1, 2, 3, 5, 7, 8, 9, 13, 16, 27, 33, 48, 64]
    return {
        "m": _choice(rng, pool),
        "n": _choice(rng, pool),
        "k": _choice(rng, pool),
        "dtype_bytes": _choice(rng, [4, 8]),
    }


register_kernel(
    KernelSpec(
        name="gemm",
        sample=_gemm_sample,
        build=lambda cfg: SWGemmPlan(
            cfg["m"], cfg["n"], cfg["k"], dtype_bytes=cfg["dtype_bytes"]
        ),
        run=None,
        min_dma_bytes=lambda cfg: float(
            (cfg["m"] * cfg["k"] + cfg["k"] * cfg["n"] + cfg["m"] * cfg["n"])
            * cfg["dtype_bytes"]
        ),
        scale_up=lambda cfg: {
            **cfg,
            "m": 2 * cfg["m"],
            "n": 2 * cfg["n"],
            "k": 2 * cfg["k"],
        },
        # Known artifact: the small-m pipeline-fill penalty shrinks
        # superlinearly, so total time can dip as dims grow (the model's
        # documented behaviour); achieved Gflops stays monotone instead.
        time_monotone=False,
        walk="exact",
    )
)


def _conv_explicit_run(
    plan: ExplicitConvPlan, cfg: dict[str, Any], rng: np.random.Generator
) -> list[Comparison]:
    # The plan prices; the convolution layers execute frame.conv_ops.
    x, w, b = _conv_inputs(cfg, rng)
    stride, pad = cfg["stride"], cfg["pad"]
    expected = ref.ref_conv2d(x, w, b, stride=stride, pad=pad)
    comparisons = [("conv_forward", conv_forward(x, w, b, stride, pad), expected)]
    dy = rng.normal(size=expected.shape)
    dx, dw, db = conv_backward(x, w, dy, stride, pad)
    rdx, rdw, rdb = ref.ref_conv2d_backward(x, w, dy, stride=stride, pad=pad)
    comparisons += [
        ("conv_backward_dx", dx, rdx),
        ("conv_backward_dw", dw, rdw),
        ("conv_backward_db", db, rdb),
    ]
    return comparisons


register_kernel(
    KernelSpec(
        name="conv_explicit",
        sample=_conv_sample,
        build=lambda cfg: ExplicitConvPlan(
            cfg["batch"], cfg["ni"], cfg["no"], cfg["height"], cfg["width"],
            cfg["k"], cfg["stride"], cfg["pad"],
        ),
        run=_conv_explicit_run,
        min_dma_bytes=_conv_payload_bytes,
        scale_up=_double_batch,
    )
)


register_kernel(
    KernelSpec(
        name="conv_implicit",
        sample=_implicit_sample,
        build=lambda cfg: ImplicitConvPlan(
            cfg["batch"], cfg["ni"], cfg["no"], cfg["height"], cfg["width"],
            cfg["k"], cfg["stride"], cfg["pad"],
        ),
        run=None,
        min_dma_bytes=_conv_payload_bytes,
        # Scale the spatial extent, not the batch: B is the contiguous DMA
        # run of the implicit (R, C, N, B) layout, so doubling it doubles
        # the strided block size and time can legitimately dip deep in the
        # latency-bound regime. Growing H keeps the run length fixed.
        scale_up=lambda cfg: {**cfg, "height": 2 * cfg["height"]},
        walk="within",
    )
)


def _fft_sample(rng: np.random.Generator) -> dict[str, Any]:
    cfg = _conv_sample(rng)
    cfg["stride"] = 1  # FFT convolution supports stride 1 only
    return cfg


register_kernel(
    KernelSpec(
        name="conv_fft",
        sample=_fft_sample,
        build=lambda cfg: FFTConvPlan(
            cfg["batch"], cfg["ni"], cfg["no"], cfg["height"], cfg["width"],
            cfg["k"], 1, cfg["pad"],
        ),
        run=None,
        min_dma_bytes=_conv_payload_bytes,
        scale_up=_double_batch,
    )
)


def _pool_sample(rng: np.random.Generator) -> dict[str, Any]:
    geo = _conv_geometry(rng)
    return {
        "batch": _choice(rng, [1, 1, 2, 3]),
        "channels": _choice(rng, [1, 3, 5, 16, 63]),
        "mode": str(rng.choice(["max", "avg"])),
        **geo,
    }


def _pool_run(
    plan: PoolingPlan, cfg: dict[str, Any], rng: np.random.Generator
) -> list[Comparison]:
    x = rng.normal(size=(cfg["batch"], cfg["channels"], cfg["height"], cfg["width"]))
    out, _ = plan.forward(x)
    expected = ref.ref_pool2d(
        x, cfg["k"], stride=cfg["stride"], pad=cfg["pad"], mode=cfg["mode"]
    )
    return [("forward", out, expected)]


register_kernel(
    KernelSpec(
        name="pooling",
        sample=_pool_sample,
        build=lambda cfg: PoolingPlan(
            cfg["batch"], cfg["channels"], cfg["height"], cfg["width"],
            cfg["k"], cfg["stride"], cfg["pad"], cfg["mode"],
        ),
        run=_pool_run,
        min_dma_bytes=lambda cfg: float(
            4 * cfg["batch"] * cfg["channels"] * (
                cfg["height"] * cfg["width"]
                + conv_out_dim(cfg["height"], cfg["k"], cfg["stride"], cfg["pad"])
                * conv_out_dim(cfg["width"], cfg["k"], cfg["stride"], cfg["pad"])
            )
        ),
        scale_up=_double_batch,
    )
)


def _im2col_sample(rng: np.random.Generator) -> dict[str, Any]:
    geo = _conv_geometry(rng)
    return {"channels": _choice(rng, [1, 2, 3, 5, 7, 16]), **geo}


def _im2col_bytes(cfg: dict[str, Any]) -> float:
    out_h = conv_out_dim(cfg["height"], cfg["k"], cfg["stride"], cfg["pad"])
    out_w = conv_out_dim(cfg["width"], cfg["k"], cfg["stride"], cfg["pad"])
    image = cfg["channels"] * cfg["height"] * cfg["width"]
    matrix = cfg["channels"] * cfg["k"] * cfg["k"] * out_h * out_w
    return float(4 * (image + matrix))


register_kernel(
    KernelSpec(
        name="im2col",
        sample=_im2col_sample,
        build=lambda cfg: Im2colPlan(
            cfg["channels"], cfg["height"], cfg["width"],
            cfg["k"], cfg["stride"], cfg["pad"],
        ),
        run=None,
        min_dma_bytes=_im2col_bytes,
        scale_up=lambda cfg: {**cfg, "channels": 2 * cfg["channels"]},
        walk="exact",
    )
)


register_kernel(
    KernelSpec(
        name="col2im",
        sample=_im2col_sample,
        build=lambda cfg: Col2imPlan(
            cfg["channels"], cfg["height"], cfg["width"],
            cfg["k"], cfg["stride"], cfg["pad"],
        ),
        run=None,
        min_dma_bytes=_im2col_bytes,
        scale_up=lambda cfg: {**cfg, "channels": 2 * cfg["channels"]},
        walk="exact",
    )
)


def _transform_sample(rng: np.random.Generator) -> dict[str, Any]:
    dims = [_choice(rng, [1, 2, 3, 5, 7]) for _ in range(4)]
    return {"shape": tuple(dims), "to_implicit": bool(rng.integers(0, 2))}


def _transform_run(
    plan: TensorTransformPlan, cfg: dict[str, Any], rng: np.random.Generator
) -> list[Comparison]:
    shape = cfg["shape"]
    src_shape = shape if cfg["to_implicit"] else (shape[2], shape[3], shape[1], shape[0])
    x = rng.normal(size=src_shape)
    return [("run", plan.run(x), ref.ref_transform(x, cfg["to_implicit"]))]


register_kernel(
    KernelSpec(
        name="transform",
        sample=_transform_sample,
        build=lambda cfg: TensorTransformPlan(cfg["shape"], cfg["to_implicit"]),
        run=_transform_run,
        min_dma_bytes=lambda cfg: float(
            2 * 4 * int(np.prod(cfg["shape"]))
        ),
        # Scale N: the B and C axes set the strided-run lengths on the two
        # sides of the transposition, so doubling either makes blocks twice
        # as long and the saturating DMA model can price the bigger tensor
        # cheaper. N only multiplies traffic.
        scale_up=lambda cfg: {
            **cfg,
            "shape": (
                cfg["shape"][0],
                2 * cfg["shape"][1],
                cfg["shape"][2],
                cfg["shape"][3],
            ),
        },
    )
)


def _elementwise_sample(rng: np.random.Generator) -> dict[str, Any]:
    return {
        "n_elements": _choice(rng, [1, 17, 100, 4097, 100001]),
        "flops_per_element": float(rng.choice([0.0, 1.0, 5.0])),
        "n_inputs": _choice(rng, [1, 2]),
    }


register_kernel(
    KernelSpec(
        name="elementwise",
        sample=_elementwise_sample,
        # A streaming cost has no plan object: price the config directly.
        build=lambda cfg: SimpleNamespace(
            cost=partial(
                stream_cost, cfg["n_elements"], cfg["flops_per_element"],
                cfg["n_inputs"], 1, SW_PARAMS,
            )
        ),
        run=None,  # cost model only, no tile walk
        min_dma_bytes=lambda cfg: float(4 * cfg["n_elements"] * (cfg["n_inputs"] + 1)),
        scale_up=lambda cfg: {**cfg, "n_elements": 2 * cfg["n_elements"]},
    )
)


# --------------------------------------------------------------------------- #
# collective specs
# --------------------------------------------------------------------------- #
#: Cost model used for fuzzed communicators (the paper's Fig. 7 regime).
FUZZ_COST_MODEL = LinearCostModel(alpha=1e-6, beta1=1e-10, beta2=4e-10, gamma=3e-11)


def make_fuzz_comm(p: int, q: int = 4) -> SimComm:
    """Communicator over a TaihuLight fabric with a block placement.

    The supernode size is clamped so any rank count (including primes)
    yields a valid placement, mirroring the test-suite convention.
    """
    fab = TaihuLightFabric(n_nodes=max(p, q), nodes_per_supernode=q)
    qq = min(q, p)
    if p % qq != 0:
        qq = 1
    return SimComm(fab, block_placement(p, qq), cost=FUZZ_COST_MODEL)


def _allreduce_spec(name: str, fn) -> CollectiveSpec:
    def execute(comm, inputs, cfg):
        bufs = [b.copy() for b in inputs]
        result = fn(comm, bufs, average=cfg["average"])
        return bufs, result

    def reference(inputs, cfg):
        return ref.ref_allreduce(inputs, average=cfg["average"])

    return CollectiveSpec(name=name, execute=execute, reference=reference)


for _name, _fn in [
    ("ring_allreduce", ring_allreduce),
    ("binomial_allreduce", binomial_allreduce),
    ("rhd_allreduce", rhd_allreduce),
    ("topo_aware_allreduce", topo_aware_allreduce),
]:
    register_collective(_allreduce_spec(_name, _fn))


def p2p_shift(comm: SimComm, buffers: list[np.ndarray]) -> CollectiveResult:
    """Ring shift built from matched p2p sends: rank ``r``'s buffer moves
    to rank ``(r + 1) % p``, in place.

    The ``p2p_shift`` spec fuzzes the p2p primitives with the same
    differential machinery as the collectives: each transfer is one
    accounted "step", and the delivered data must equal the rotated
    inputs bit for bit.
    """
    p = comm.p
    result = CollectiveResult()
    if p == 1:
        return result
    transport = P2PTransport(comm)
    for src in range(p):
        res = transport.send(src, (src + 1) % p, buffers[src], tag="shift")
        result.add_step(res.time_s)
        result.alpha_count += 1
        if res.cross_supernode:
            result.bytes_cross += res.nbytes
        else:
            result.bytes_intra += res.nbytes
    received = [transport.recv((dst - 1) % p, dst, tag="shift") for dst in range(p)]
    for dst in range(p):
        buffers[dst][...] = received[dst]
    return result


def _p2p_shift_execute(comm, inputs, cfg):
    bufs = [b.copy() for b in inputs]
    result = p2p_shift(comm, bufs)
    return bufs, result


def _p2p_shift_reference(inputs, cfg):
    p = len(inputs)
    return [np.asarray(inputs[(dst - 1) % p], dtype=np.float64).copy() for dst in range(p)]


register_collective(
    CollectiveSpec(
        name="p2p_shift",
        execute=_p2p_shift_execute,
        reference=_p2p_shift_reference,
        reduce_ops=(False,),
    )
)
