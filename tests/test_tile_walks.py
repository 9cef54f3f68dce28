"""Tile walks against the cost formulas (``docs/calibration.md``).

Each blocked kernel describes its schedule once more as a data-free tile
walk; :func:`repro.kernels.plan.replay` prices it transfer by transfer.
Pinned here:

* the GEMM and im2col/col2im walks move exactly ``cost().dma_bytes``, at
  ``dtype_bytes`` 4 and 8, on random shapes and on every plan the
  model-zoo nets' conv layers build;
* the implicit-convolution walk moves more than 0 and at most the priced
  bytes on images up to 256 rows tall, and can move more on taller ones;
* walk DMA time over ``cost().dma_s`` stays within each kernel's stated
  bound;
* a walk with one transfer dropped fails the byte check, and a resident
  set beyond ``params.ldm_bytes`` raises ``LDMAllocationError``.

Tier 1 draws 50 hypothesis cases per byte pin; ``REPRO_HEAVY=1`` 2000.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LDMAllocationError
from repro.frame.model_zoo import alexnet, googlenet, lenet, resnet, resnet_small, vgg
from repro.hw.core_group import CoreGroup
from repro.hw.spec import SW_PARAMS
from repro.kernels.conv_explicit import ExplicitConvPlan
from repro.kernels.conv_implicit import ImplicitConvPlan
from repro.kernels.gemm import SWGemmPlan
from repro.kernels.im2col import Col2imPlan, Im2colPlan
from repro.kernels.plan import Transfer, replay
from repro.testing.invariants import InvariantViolation, check_walk

HEAVY = bool(int(os.environ.get("REPRO_HEAVY", "0") or "0"))
DEPTH = settings(max_examples=2000 if HEAVY else 50, deadline=None)

ZOO = (
    lenet.build,
    alexnet.build,
    vgg.build_vgg16,
    vgg.build_vgg19,
    googlenet.build,
    resnet_small.build_resnet18,
    resnet_small.build_resnet34,
    resnet.build_resnet50,
)

#: Walk DMA time over ``cost().dma_s`` on every model-zoo plan, per kernel
#: (the bounds ``docs/calibration.md`` states).
TIME_BOUNDS = {
    "gemm": (0.7, 6.5),
    "im2col": (0.65, 30.0),
    "col2im": (0.65, 30.0),
    "implicit": (0.05, 11.0),
}


def walked(plan, params=None):
    return replay(plan.tile_walk(), params or plan.params)


def zoo_plans():
    """Every GEMM, im2col, col2im and implicit plan that the model-zoo
    nets' conv layers price, at batch 1, 16 and 128, keyed by kind and
    constructor arguments."""
    configs = set()
    for build in ZOO:
        for batch in (1, 16, 128):
            net = build(batch_size=batch)
            configs.update(
                layer._config() for layer in net.layers if layer.type == "Convolution"
            )
    plans = {}
    for c in configs:
        explicit = ExplicitConvPlan(c.batch, c.ni, c.no, c.height, c.width, c.k, c.stride, c.pad)
        no, spatial, gemm_k = explicit.no, explicit.spatial, explicit.gemm_k
        # The forward, weight-gradient and input-gradient GEMMs.
        for dims in ((no, spatial, gemm_k), (no, gemm_k, spatial), (gemm_k, spatial, no)):
            plans[("gemm", *dims)] = (SWGemmPlan, dims)
        if not explicit.is_1x1:
            args = (c.ni, c.height, c.width, c.k, c.stride, c.pad)
            plans[("im2col", *args)] = (Im2colPlan, args)
            plans[("col2im", *args)] = (Col2imPlan, args)
        if ImplicitConvPlan.supports_forward(c.ni, c.no):
            args = (c.batch, c.ni, c.no, c.height, c.width, c.k, c.stride, c.pad)
            plans[("implicit", *args)] = (ImplicitConvPlan, args)
    return {key: cls(*args) for key, (cls, args) in plans.items()}


@pytest.fixture(scope="module")
def zoo():
    return zoo_plans()


def conv_geometry(draw, max_side):
    k = draw(st.integers(1, 11))
    stride = draw(st.integers(1, 4))
    pad = draw(st.integers(0, k - 1))
    height = draw(st.integers(max(1, k - 2 * pad), max_side))
    width = draw(st.integers(max(1, k - 2 * pad), 2 * max_side))
    return height, width, k, stride, pad


@st.composite
def im2col_args(draw):
    height, width, k, stride, pad = conv_geometry(draw, 224)
    return draw(st.integers(1, 512)), height, width, k, stride, pad


@st.composite
def implicit_args(draw):
    height, width, k, stride, pad = conv_geometry(draw, 256)
    batch = draw(st.integers(1, 128))
    ni, no = draw(st.integers(64, 512)), draw(st.integers(64, 512))
    return batch, ni, no, height, width, k, stride, pad


class TestBytePins:
    @DEPTH
    @given(
        m=st.integers(1, 2048),
        n=st.integers(1, 2048),
        k=st.integers(1, 2048),
        dtype_bytes=st.sampled_from([4, 8]),
    )
    def test_gemm_walk_moves_exactly_the_priced_bytes(self, m, n, k, dtype_bytes):
        plan = SWGemmPlan(m, n, k, dtype_bytes=dtype_bytes)
        walk = walked(plan)
        assert walk.dma_bytes == plan.cost().dma_bytes
        assert 0 < walk.peak_ldm_bytes <= plan.params.ldm_bytes

    @DEPTH
    @given(args=im2col_args(), dtype_bytes=st.sampled_from([4, 8]))
    def test_im2col_walks_move_exactly_the_priced_bytes(self, args, dtype_bytes):
        for cls in (Im2colPlan, Col2imPlan):
            plan = cls(*args, dtype_bytes=dtype_bytes)
            assert walked(plan).dma_bytes == plan.cost().dma_bytes

    @DEPTH
    @given(args=implicit_args(), dtype_bytes=st.sampled_from([4, 8]))
    def test_implicit_walk_moves_at_most_the_priced_bytes(self, args, dtype_bytes):
        plan = ImplicitConvPlan(*args, dtype_bytes=dtype_bytes)
        walk = walked(plan)
        assert 0 < walk.dma_bytes <= plan.cost().dma_bytes
        assert walk.peak_ldm_bytes == 0  # stream granules, no resident tiles

    def test_implicit_walk_outgrows_the_formula_past_256_rows(self):
        # Past 256 rows the halo columns that neighbouring width blocks
        # both read can outweigh the formula's per-image filter re-reads.
        plan = ImplicitConvPlan(1, 64, 64, 300, 130, 3, 1, 1)
        assert walked(plan).dma_bytes > plan.cost().dma_bytes


class TestModelZoo:
    def test_every_zoo_walk_matches_its_formula(self, zoo):
        kinds = {key[0] for key in zoo}
        assert kinds == set(TIME_BOUNDS)
        for key, plan in zoo.items():
            cost, walk = plan.cost(), walked(plan)
            if key[0] == "implicit":
                assert 0 < walk.dma_bytes <= cost.dma_bytes, key
            else:
                assert walk.dma_bytes == cost.dma_bytes, key
            lo, hi = TIME_BOUNDS[key[0]]
            assert lo <= walk.dma_s / cost.dma_s <= hi, key

    def test_vgg16_im2col_waves_read_1_2_to_4_3x_the_priced_time(self):
        net = vgg.build_vgg16(batch_size=128)
        for layer in net.layers:
            if layer.type != "Convolution":
                continue
            c = layer._config()
            plan = Im2colPlan(c.ni, c.height, c.width, c.k, c.stride, c.pad)
            assert 1.15 <= walked(plan).dma_s / plan.cost().dma_s <= 4.3, layer.name

    @pytest.mark.parametrize(
        "dims,lo,hi",
        [
            pytest.param((256, 256, 576), 1.1, 1.3, id="256x256x576"),
            pytest.param((512, 384, 1152), 1.1, 1.3, id="512x384x1152"),
            pytest.param((512, 3136, 2304), 1.1, 1.3, id="512x3136x2304"),
            # Four latency-bound transfers.
            pytest.param((64, 64, 64), 2.3, 2.6, id="64x64x64"),
        ],
    )
    def test_gemm_walk_time_over_priced_time(self, dims, lo, hi):
        plan = SWGemmPlan(*dims)
        assert lo <= walked(plan).dma_s / plan.cost().dma_s <= hi


class TestReplay:
    def test_replay_charges_what_dma_get_charges(self):
        cg = CoreGroup()
        buf = np.zeros((64, 100), dtype=np.float32)
        cg.dma.get(buf, n_cpes=32, block_bytes=400)
        walk = replay([Transfer(buf.nbytes, 400, 32)], SW_PARAMS)
        assert walk == (buf.nbytes, cg.clock.now, 1, 0)

    @pytest.mark.parametrize(
        "plan",
        [SWGemmPlan(600, 700, 650), Im2colPlan(3, 9, 9, 3, 2, 1)],
        ids=["gemm", "im2col"],
    )
    def test_a_dropped_transfer_fails_the_byte_check(self, plan):
        walk = list(plan.tile_walk())
        cost = plan.cost()
        check_walk(cost, walk, plan.params, exact=True)
        for drop in (0, len(walk) // 2, len(walk) - 1):
            with pytest.raises(InvariantViolation, match="tile walk moves"):
                check_walk(cost, walk[:drop] + walk[drop + 1:], plan.params, exact=True)

    def test_a_resident_set_beyond_the_ldm_raises(self):
        ldm = SW_PARAMS.ldm_bytes
        assert replay([Transfer(64, ldm_bytes=ldm)], SW_PARAMS).peak_ldm_bytes == ldm
        with pytest.raises(LDMAllocationError):
            replay([Transfer(64, ldm_bytes=ldm + 1)], SW_PARAMS)
        # A 512^3 GEMM blocked for 64 KiB keeps 40 KiB resident per CPE.
        plan = SWGemmPlan(512, 512, 512)
        small = dataclasses.replace(SW_PARAMS, ldm_bytes=16 * 1024)
        with pytest.raises(LDMAllocationError):
            walked(plan, small)
        with pytest.raises(InvariantViolation, match="overflows the LDM"):
            check_walk(plan.cost(), plan.tile_walk(), small, exact=True)
