"""Tests for the parallel I/O models and the synthetic dataset (Sec. V-B)."""

import numpy as np
import pytest

from repro.io.dataset import SyntheticImageNet
from repro.io.disk import DiskArrayModel, StripingPolicy
from repro.io.prefetch import PrefetchPipeline
from repro.utils.rng import seeded_rng
from repro.utils.units import MB


class TestStripingPolicy:
    def test_swcaffe_policy_is_32x256mb(self):
        p = StripingPolicy.swcaffe()
        assert p.n_stripes == 32
        assert p.stripe_bytes == 256 * MB

    def test_single_split(self):
        p = StripingPolicy.single_split()
        assert p.n_stripes == 1


class TestDiskArrayModel:
    def test_striped_beats_single_split_at_scale(self):
        # The paper's headline I/O claim: with many concurrent readers the
        # single-split layout collapses onto one array.
        disk = DiskArrayModel()
        batch = 192 * MB  # 256 ImageNet records
        single = disk.read_time(1024, batch, StripingPolicy.single_split())
        striped = disk.read_time(1024, batch, StripingPolicy.swcaffe())
        assert striped < single / 10

    def test_single_process_similar_under_both(self):
        disk = DiskArrayModel()
        batch = 192 * MB
        single = disk.read_time(1, batch, StripingPolicy.single_split())
        striped = disk.read_time(1, batch, StripingPolicy.swcaffe())
        assert striped <= single
        assert striped > 0.3 * single

    def test_192mb_batch_touches_at_most_two_arrays(self):
        # Sec. V-B: "a single process can access at most two disk arrays".
        disk = DiskArrayModel()
        spans = disk.arrays_touched_per_process(StripingPolicy.swcaffe(), 192 * MB)
        assert spans <= 2

    def test_read_time_monotone_in_processes(self):
        disk = DiskArrayModel()
        batch = 192 * MB
        times = [
            disk.read_time(n, batch, StripingPolicy.swcaffe())
            for n in (32, 128, 512, 2048)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(times, times[1:]))

    def test_link_bandwidth_floor(self):
        disk = DiskArrayModel(link_bandwidth=1e9)
        t = disk.read_time(1, 1e9, StripingPolicy.swcaffe())
        assert t >= 1.0

    def test_zero_bytes_free(self):
        assert DiskArrayModel().read_time(10, 0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskArrayModel(n_arrays=0)
        with pytest.raises(ValueError):
            DiskArrayModel().read_time(0, 100)

    def test_aggregate_bandwidth_scales_with_stripes(self):
        disk = DiskArrayModel()
        batch = 192 * MB
        bw_single = disk.aggregate_bandwidth(256, batch, StripingPolicy.single_split())
        bw_striped = disk.aggregate_bandwidth(256, batch, StripingPolicy.swcaffe())
        assert bw_striped > 10 * bw_single


class TestPrefetchPipeline:
    def test_overlap_hides_io_when_compute_dominates(self):
        pipe = PrefetchPipeline(DiskArrayModel(), StripingPolicy.swcaffe())
        t = pipe.iteration_io_time(64, 192 * MB, compute_time=100.0)
        assert t == 0.0

    def test_io_exposed_when_read_dominates(self):
        pipe = PrefetchPipeline(DiskArrayModel(), StripingPolicy.single_split())
        t_read = pipe.read_time(2048, 192 * MB)
        exposed = pipe.iteration_io_time(2048, 192 * MB, compute_time=1.0)
        assert exposed == pytest.approx(t_read - 1.0)
        assert exposed > 0

    def test_disabled_pipeline_serializes(self):
        pipe = PrefetchPipeline(DiskArrayModel(), StripingPolicy.swcaffe(), enabled=False)
        t_read = pipe.read_time(8, 192 * MB)
        assert pipe.iteration_io_time(8, 192 * MB, compute_time=100.0) == pytest.approx(t_read)

    def test_negative_compute_rejected(self):
        pipe = PrefetchPipeline(DiskArrayModel(), StripingPolicy.swcaffe())
        with pytest.raises(ValueError):
            pipe.iteration_io_time(8, 1e6, compute_time=-1.0)


class TestSyntheticImageNet:
    def test_shapes_and_dtypes(self):
        src = SyntheticImageNet(num_classes=10, sample_shape=(3, 8, 8), seed=1)
        images, labels = src.next_batch(5)
        assert images.shape == (5, 3, 8, 8)
        assert images.dtype == np.float32
        assert labels.shape == (5,)
        assert labels.dtype == np.int64
        assert labels.min() >= 0 and labels.max() < 10

    def test_deterministic_replay(self):
        a = SyntheticImageNet(num_classes=5, sample_shape=(4,), seed=3)
        b = SyntheticImageNet(num_classes=5, sample_shape=(4,), seed=3)
        ia, la = a.next_batch(8)
        ib, lb = b.next_batch(8)
        np.testing.assert_array_equal(ia, ib)
        np.testing.assert_array_equal(la, lb)

    def test_lazily_seeded_stream_is_the_seeded_generator(self):
        # The generator is made on the first draw; the stream is still the
        # seed's, and seek() before any draw replays a fresh source.
        def source():
            return SyntheticImageNet(num_classes=5, sample_shape=(3,), seed=7)

        src, rng = source(), seeded_rng(7)
        batches = []
        for _ in range(3):
            images, labels = src.next_batch(4)
            want = rng.integers(0, 5, size=4)
            noise = rng.normal(0.0, 0.5, size=(4, 3)).astype(np.float32)
            np.testing.assert_array_equal(labels, want)
            np.testing.assert_array_equal(
                images, np.stack([src.prototype(int(c)) for c in want]) + noise
            )
            batches.append((images, labels))
        rewound = source()
        rewound.seek(2, 4)
        for got, want in zip(rewound.next_batch(4), batches[2]):
            np.testing.assert_array_equal(got, want)

    def test_label_correlation(self):
        # Samples of the same class must be closer to their prototype than
        # to other prototypes (what makes the dataset learnable).
        src = SyntheticImageNet(num_classes=4, sample_shape=(32,), noise=0.3, seed=2)
        images, labels = src.next_batch(64)
        protos = np.stack([src.prototype(c) for c in range(4)])
        dists = ((images[:, None, :] - protos[None]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(dists.argmin(axis=1), labels)

    def test_prototypes_stable(self):
        src = SyntheticImageNet(num_classes=3, sample_shape=(6,), seed=4)
        p1 = src.prototype(2).copy()
        src.next_batch(10)
        np.testing.assert_array_equal(src.prototype(2), p1)

    def test_batch_bytes_matches_paper_scale(self):
        # 256 records at the default size ~ 192 MB (Sec. V-B).
        src = SyntheticImageNet()
        assert src.batch_bytes(256) == pytest.approx(192e6, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticImageNet(num_classes=1)
        with pytest.raises(ValueError):
            SyntheticImageNet(noise=-1)
        src = SyntheticImageNet(num_classes=3, sample_shape=(2,))
        with pytest.raises(ValueError):
            src.prototype(3)
        with pytest.raises(ValueError):
            src.next_batch(0)
