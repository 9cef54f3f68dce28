"""Tests for the multi-node scaling layer: threads, packing, SSGD model."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.frame.blob import Blob
from repro.parallel.packing import BucketedPacker, GradientPacker
from repro.parallel.scaling import ScalingStudy
from repro.parallel.ssgd import IterationBreakdown, SSGDIterationModel
from repro.parallel.threads import node_iteration_time
from repro.topology.cost_model import SW_COLLECTIVE_NETWORK


def make_params(shapes, seed=0):
    rng = np.random.default_rng(seed)
    blobs = []
    for i, shape in enumerate(shapes):
        b = Blob(f"p{i}", shape)
        b.data = rng.normal(size=shape).astype(np.float32)
        b.diff = rng.normal(size=shape).astype(np.float32)
        blobs.append(b)
    return blobs


class TestMultiCGRunner:
    """Algorithm 1's node-local half, :func:`node_iteration_time`; the
    class is named for the runner it replaced so the test ids stay put."""

    def test_scalar_compute_accepted(self):
        assert node_iteration_time(2.0, 0).compute_s == pytest.approx(2.0)

    def test_local_reduce_scales_with_model(self):
        small = node_iteration_time(0.0, 1e6).local_reduce_s
        big = node_iteration_time(0.0, 1e8).local_reduce_s
        assert big == pytest.approx(100 * small)

    def test_total_includes_all_parts(self):
        t = node_iteration_time(1.0, 1e8)
        assert t.total_s == pytest.approx(t.compute_s + t.sync_s + t.local_reduce_s)


class TestGradientPacker:
    def test_pack_unpack_round_trip(self):
        params = make_params([(3, 4), (7,), (2, 2, 2)])
        packer = GradientPacker(params)
        flat = packer.pack_diffs()
        assert flat.size == 12 + 7 + 8
        original = [p.diff.copy() for p in params]
        packer.unpack_diffs(flat * 2.0)
        for p, orig in zip(params, original):
            np.testing.assert_allclose(p.diff, 2 * orig, rtol=1e-6)

    def test_layout_is_concatenation(self):
        params = make_params([(2,), (3,)])
        packer = GradientPacker(params)
        flat = packer.pack_diffs()
        np.testing.assert_array_equal(flat[:2], params[0].diff)
        np.testing.assert_array_equal(flat[2:], params[1].diff)

    def test_total_bytes(self):
        packer = GradientPacker(make_params([(10,), (5, 2)]))
        assert packer.total_bytes == 20 * 4
        assert packer.layer_bytes == [40, 40]

    def test_size_mismatch_rejected(self):
        packer = GradientPacker(make_params([(4,)]))
        with pytest.raises(ShapeError):
            packer.unpack_diffs(np.zeros(5, dtype=np.float32))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            GradientPacker([])

    def test_packed_allreduce_cheaper_with_latency(self):
        # With a per-message latency, one fused allreduce beats per-layer.
        packer = GradientPacker(make_params([(100,)] * 20))
        cost = lambda nbytes: 1e-3 + nbytes * 1e-9
        assert packer.allreduce_time_packed(cost) < packer.allreduce_time_per_layer(cost)


class TestSSGDIterationModel:
    def model(self, **kw):
        defaults = dict(compute_s=1.0, model_bytes=100e6)
        defaults.update(kw)
        return SSGDIterationModel(**defaults)

    def test_single_node_has_no_allreduce(self):
        m = self.model()
        assert m.breakdown(1).allreduce_s == 0.0

    def test_allreduce_grows_with_nodes(self):
        m = self.model()
        times = [m.breakdown(n).allreduce_s for n in (4, 64, 1024)]
        assert times[0] < times[1] < times[2]

    def test_comm_fraction_monotone_in_nodes(self):
        m = self.model()
        fracs = [m.comm_fraction(n) for n in (2, 8, 64, 512, 1024)]
        assert all(a <= b + 1e-12 for a, b in zip(fracs, fracs[1:]))

    def test_larger_batch_lowers_comm_fraction(self):
        small = self.model(compute_s=0.5)
        big = self.model(compute_s=2.0)
        assert big.comm_fraction(1024) < small.comm_fraction(1024)

    def test_speedup_below_linear(self):
        m = self.model()
        for n in (2, 16, 1024):
            assert 0 < m.speedup(n) < n

    def test_round_robin_beats_block_placement(self):
        rr = self.model(placement="round-robin")
        blk = self.model(placement="block")
        assert rr.breakdown(1024).allreduce_s < blk.breakdown(1024).allreduce_s

    def test_breakdown_total(self):
        b = self.model().breakdown(64)
        assert isinstance(b, IterationBreakdown)
        assert b.total_s == pytest.approx(
            b.compute_s + b.local_reduce_s + b.allreduce_s + b.update_s + b.io_s
        )

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            self.model().breakdown(0)

    def test_paper_endpoint_alexnet(self):
        """Calibration sanity: a 232.6 MB model with the paper's AlexNet
        B=256 compute time lands near the measured 1024-node operating
        point (comm ~1.1 s, fraction ~30%, speedup ~715)."""
        m = SSGDIterationModel(compute_s=256 / 94.17, model_bytes=232.6e6)
        comm = m.breakdown(1024).allreduce_s
        assert 0.9 < comm < 1.4
        assert 0.24 < m.comm_fraction(1024) < 0.36
        assert 600 < m.speedup(1024) < 790

    def test_paper_endpoint_resnet(self):
        """ResNet-50 B=32: 97.7 MB model, ~5.76 s compute -> ~10-15% comm."""
        m = SSGDIterationModel(compute_s=32 / 5.56, model_bytes=97.7e6)
        assert 0.08 < m.comm_fraction(1024) < 0.16
        assert 850 < m.speedup(1024) < 950


class TestScalingStudy:
    def test_run_covers_grid(self):
        study = ScalingStudy(node_counts=(2, 4))
        study.add_config("a", SSGDIterationModel(compute_s=1.0, model_bytes=1e6))
        study.add_config("b", SSGDIterationModel(compute_s=2.0, model_bytes=1e6))
        points = study.run()
        assert len(points) == 4
        assert {(p.label, p.n_nodes) for p in points} == {
            ("a", 2), ("a", 4), ("b", 2), ("b", 4),
        }

    def test_duplicate_label_rejected(self):
        study = ScalingStudy()
        study.add_config("a", SSGDIterationModel(compute_s=1.0, model_bytes=1e6))
        with pytest.raises(ValueError):
            study.add_config("a", SSGDIterationModel(compute_s=1.0, model_bytes=1e6))


def make_params64(shapes, seed=0):
    rng = np.random.default_rng(seed)
    blobs = []
    for i, shape in enumerate(shapes):
        b = Blob(f"p{i}", shape, dtype=np.float64)
        b.data = rng.normal(size=shape)
        b.diff = rng.normal(size=shape)
        blobs.append(b)
    return blobs


class TestGradientPackerDtype:
    """Regressions: the packer used to hard-code float32 buffers and to
    hand out aliasing views on unpack."""

    def test_float64_params_pack_float64(self):
        # A float64 gradient must survive the pack without rounding; the
        # old float32 buffer silently truncated it.
        params = make_params64([(3, 4), (7,)])
        params[0].diff = params[0].diff + 1e-12
        packer = GradientPacker(params)
        assert packer.dtype == np.float64
        flat = packer.pack_diffs()
        assert flat.dtype == np.float64
        np.testing.assert_array_equal(flat[:12], params[0].diff.ravel())
        assert packer.pack_data().dtype == np.float64
        assert packer.total_bytes == (12 + 7) * 8

    def test_float64_round_trip_is_exact(self):
        params = make_params64([(5,), (2, 3)])
        packer = GradientPacker(params)
        original = [p.diff.copy() for p in params]
        packer.unpack_diffs(packer.pack_diffs())
        for p, orig in zip(params, original):
            assert np.array_equal(p.diff, orig)
            assert p.diff.dtype == np.float64

    def test_mixed_dtypes_rejected(self):
        mixed = make_params([(4,)]) + make_params64([(4,)])
        with pytest.raises(ShapeError, match="mixed"):
            GradientPacker(mixed)

    def test_unpack_never_aliases_the_flat_buffer(self):
        # Mutating the packed buffer after unpack must not reach p.diff;
        # astype(copy=False) used to alias them when dtypes matched.
        params = make_params([(3,), (2, 2)])
        packer = GradientPacker(params)
        flat = packer.pack_diffs()
        packer.unpack_diffs(flat)
        before = [p.diff.copy() for p in params]
        flat[:] = -777.0
        for p, want in zip(params, before):
            assert np.array_equal(p.diff, want)


class TestBucketedPacker:
    def test_single_bucket_is_the_fused_packer(self):
        params = make_params([(3, 4), (7,), (2, 2, 2)])
        bucketed = BucketedPacker(params)
        fused = GradientPacker(params)
        assert bucketed.n_buckets == 1
        np.testing.assert_array_equal(bucketed.pack_bucket_diffs(0), fused.pack_diffs())
        np.testing.assert_array_equal(bucketed.pack_diffs(), fused.pack_diffs())
        assert bucketed.total_bytes == fused.total_bytes

    def test_buckets_fill_in_reverse_layer_order(self):
        # 4 params x 40 bytes with an 80-byte bound: bucket 0 must hold
        # the LAST two params (first grads finished by backward).
        params = make_params([(10,)] * 4)
        bucketed = BucketedPacker(params, bucket_bytes=80)
        assert bucketed.bucket_param_indices == [(2, 3), (0, 1)]
        assert bucketed.ready_layer == [2, 0]

    def test_oversized_param_gets_own_bucket(self):
        params = make_params([(4,), (100,), (4,)])
        bucketed = BucketedPacker(params, bucket_bytes=64)
        assert (1,) in bucketed.bucket_param_indices

    def test_partition_covers_every_param_exactly_once(self):
        # Property: any bucket bound yields a partition of the params.
        rng = np.random.default_rng(0xB0CCE7)
        for trial in range(40):
            shapes = [(int(rng.integers(1, 40)),) for _ in range(int(rng.integers(1, 12)))]
            params = make_params(shapes, seed=trial)
            bound = float(rng.integers(4, 400))
            bucketed = BucketedPacker(params, bucket_bytes=bound)
            flat_indices = [i for g in bucketed.bucket_param_indices for i in g]
            assert sorted(flat_indices) == list(range(len(params)))
            assert sum(bucketed.bucket_sizes) == bucketed.total_bytes
            assert bucketed.cumulative_fractions()[-1] == pytest.approx(1.0)

    def test_bucket_round_trip_matches_fused(self):
        params = make_params([(6,), (3, 3), (5,), (2, 4)])
        bucketed = BucketedPacker(params, bucket_bytes=48)
        fused_flat = bucketed.pack_diffs()
        for b in range(bucketed.n_buckets):
            bucketed.unpack_bucket_diffs(b, bucketed.pack_bucket_diffs(b) * 2.0)
        np.testing.assert_array_equal(bucketed.pack_diffs(), fused_flat * 2.0)

    def test_ready_layer_uses_layer_ids(self):
        params = make_params([(10,)] * 4)
        bucketed = BucketedPacker(params, bucket_bytes=80, layer_ids=[0, 0, 1, 2])
        assert bucketed.ready_layer == [1, 0]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ShapeError):
            BucketedPacker([])
        with pytest.raises(ShapeError):
            BucketedPacker(make_params([(4,)]), bucket_bytes=0)
        with pytest.raises(ShapeError):
            BucketedPacker(make_params([(4,)]), layer_ids=[0, 1])


class TestOverlapModel:
    """The SSGD bucketed-overlap accounting rule."""

    def model(self, **kw):
        defaults = dict(compute_s=1.8, model_bytes=250e6)
        defaults.update(kw)
        return SSGDIterationModel(**defaults)

    def test_fused_is_the_degenerate_single_bucket(self):
        # bucket_mb=None must reproduce the historical numbers exactly.
        m = self.model()
        b = m.breakdown(64)
        assert m.bucket_sizes() == (m.model_bytes,)
        assert b.overlap_hidden_s == 0.0
        assert b.allreduce_s == m._single_allreduce_time(m.model_bytes, 64)

    def test_huge_bucket_bound_is_also_degenerate(self):
        m = self.model(bucket_mb=1e6)
        assert len(m.bucket_sizes()) == 1
        assert m.breakdown(64).allreduce_s == self.model().breakdown(64).allreduce_s

    def test_bucket_sizes_cover_model_within_bound(self):
        m = self.model(bucket_mb=64.0)
        sizes = m.bucket_sizes()
        assert sum(sizes) == pytest.approx(m.model_bytes)
        assert all(s <= 64e6 for s in sizes)

    def test_hidden_plus_exposed_is_total_occupancy(self):
        for bucket_mb in (16.0, 50.0, 96.0, 200.0, None):
            m = self.model(bucket_mb=bucket_mb)
            for n in (2, 16, 128, 1024):
                sched = m.overlap_schedule(n, 1.8)
                assert sched.hidden_s + sched.exposed_s == pytest.approx(
                    sched.total_comm_s
                )
                assert sched.hidden_s >= 0 and sched.exposed_s >= 0

    def test_launches_partition_buckets(self):
        m = self.model(bucket_mb=25.0)
        k = len(m.bucket_sizes())
        for n in (2, 64, 1024):
            sched = m.overlap_schedule(n, 1.8)
            assert sched.n_buckets == k
            assert len(sched.launches) <= k
            assert all(c > 0 for c in sched.merged)

    def test_schedule_is_serial_and_causal(self):
        sched = self.model(bucket_mb=32.0).overlap_schedule(64, 1.8)
        free = 0.0
        for w in sched.launches:
            assert w.start_s >= w.ready_s  # never starts before its data exists
            assert w.start_s >= free  # one collective at a time
            free = w.end_s

    def test_single_node_has_no_schedule(self):
        sched = self.model(bucket_mb=32.0).overlap_schedule(1, 1.8)
        assert len(sched.launches) == 0
        assert sched.total_comm_s == 0.0

    def test_bucketing_lowers_exposed_comm_at_scale(self):
        # The tentpole claim: at 16+ nodes the bucketed exposed comm
        # fraction is strictly below the fused fraction.
        fused = self.model()
        bucketed = self.model(bucket_mb=96.0)
        for n in (16, 32, 64, 128, 256, 512, 1024):
            bf, bb = fused.breakdown(n), bucketed.breakdown(n)
            assert bb.comm_fraction < bf.comm_fraction, f"n={n}"
            assert bb.overlap_hidden_s > 0.0
            assert bb.total_s < bf.total_s

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            self.model(bucket_mb=-1.0).bucket_sizes()

    def test_scaling_points_report_hidden_time(self):
        study = ScalingStudy(node_counts=(16, 64))
        study.add_config("fused", self.model())
        study.add_config("bucketed", self.model(bucket_mb=96.0))
        points = study.run()
        by = {(p.label, p.n_nodes): p for p in points}
        for n in (16, 64):
            assert by[("fused", n)].overlap_hidden_s == 0.0
            assert by[("bucketed", n)].overlap_hidden_s > 0.0
            assert (
                by[("bucketed", n)].comm_fraction < by[("fused", n)].comm_fraction
            )
