"""Gradient packing (paper Sec. V-A, last paragraph) and gradient bucketing.

Layer gradients vary from kilobytes (first conv filters) to hundreds of
megabytes (first fully-connected layer). Reducing them one allreduce per
layer pays a latency term per layer and runs the CPE summation at tiny-DMA
granularity; swCaffe packs all gradients into one contiguous buffer after
backward propagation, so both the network and the memory system see one
large, efficient operation.

:class:`GradientPacker` provides both the functional pack/unpack (used by
the distributed trainer) and the cost comparison (used by the packing
ablation).

:class:`BucketedPacker` is the overlap-aware refinement: parameters are
partitioned into size-bounded buckets in *reverse layer order* (the order
backward propagation finishes them), so each bucket's allreduce can launch
while earlier layers are still computing their gradients. The fused packer
is the degenerate single-bucket case: ``BucketedPacker(params, None)``
packs exactly the buffer :class:`GradientPacker` packs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.frame.blob import Blob


class GradientPacker:
    """Packs a fixed set of parameter blobs into one flat buffer.

    The buffer dtype is the (single) dtype shared by all parameters; mixed
    dtypes are rejected up front rather than silently truncated — packing a
    float64 parameter into a float32 buffer would round gradients before
    the collective ever sees them.
    """

    def __init__(self, params: list[Blob]) -> None:
        if not params:
            raise ShapeError("cannot pack an empty parameter list")
        self.params = list(params)
        dtypes = sorted({p.dtype.name for p in self.params})
        if len(dtypes) > 1:
            raise ShapeError(
                f"cannot pack mixed parameter dtypes {dtypes}; packed "
                "collectives require one uniform dtype"
            )
        #: Dtype of the packed buffer (identical to every parameter's).
        self.dtype = self.params[0].dtype
        self._counts = [p.count for p in self.params]
        self._offsets = np.concatenate([[0], np.cumsum(self._counts)])
        self.total_count = int(self._offsets[-1])

    @property
    def total_bytes(self) -> int:
        """Payload of the packed buffer."""
        return self.total_count * self.dtype.itemsize

    @property
    def layer_bytes(self) -> list[int]:
        """Per-parameter payloads (the per-layer allreduce message sizes)."""
        return [c * self.dtype.itemsize for c in self._counts]

    def pack_diffs(self) -> np.ndarray:
        """Gather all parameter gradients into one flat buffer."""
        out = np.empty(self.total_count, dtype=self.dtype)
        for p, lo, hi in zip(self.params, self._offsets[:-1], self._offsets[1:]):
            out[lo:hi] = p.diff.ravel()
        return out

    def unpack_diffs(self, flat: np.ndarray) -> None:
        """Scatter a flat buffer back into the parameter gradients.

        Each gradient is an explicit *copy* of its slice: ``p.diff`` must
        never alias the packed buffer, or a later in-place mutation of the
        flat buffer (an in-place collective, a reused scratch buffer) would
        silently corrupt the per-parameter gradients.
        """
        if flat.size != self.total_count:
            raise ShapeError(
                f"packed buffer has {flat.size} elements, expected {self.total_count}"
            )
        for p, lo, hi in zip(self.params, self._offsets[:-1], self._offsets[1:]):
            p.diff = flat[lo:hi].reshape(p.shape).astype(p.dtype, copy=True)

    def pack_data(self) -> np.ndarray:
        """Gather parameter *values* (used for replica-consistency checks)."""
        out = np.empty(self.total_count, dtype=self.dtype)
        for p, lo, hi in zip(self.params, self._offsets[:-1], self._offsets[1:]):
            out[lo:hi] = p.data.ravel()
        return out

    # ------------------------------------------------------------------ #
    # cost comparison (the packing ablation)
    # ------------------------------------------------------------------ #
    def allreduce_time_packed(self, cost_fn) -> float:
        """One fused allreduce of the whole model. ``cost_fn(nbytes)``."""
        return float(cost_fn(self.total_bytes))

    def allreduce_time_per_layer(self, cost_fn) -> float:
        """One allreduce per parameter tensor (the unpacked baseline)."""
        return float(sum(cost_fn(nb) for nb in self.layer_bytes))


class BucketedPacker:
    """Partitions parameters into size-bounded allreduce buckets.

    Buckets are assigned by walking the parameter list in *reverse* order —
    the order the backward sweep completes gradients — and greedily filling
    each bucket up to ``bucket_bytes`` (a parameter larger than the bound
    gets a bucket of its own). Bucket 0 therefore holds the *last* layers'
    parameters and is the first whose gradients are complete during
    backward propagation. Within a bucket, parameters keep their forward
    (layer) order, so the single-bucket case (``bucket_bytes=None``) packs
    exactly the fused :class:`GradientPacker` buffer.

    The assignment is a deterministic function of the parameter shapes and
    ``bucket_bytes`` alone, and it is a partition: every parameter lands in
    exactly one bucket (property-tested in ``tests/test_parallel.py``).

    Parameters
    ----------
    params:
        Parameter blobs in forward layer order (``net.params``).
    bucket_bytes:
        Size bound per bucket in bytes; ``None`` means one fused bucket.
    layer_ids:
        Optional per-parameter producer-layer index (monotone, forward
        order). :attr:`ready_layer` uses it to decide, during the backward
        sweep, when a bucket's gradients are all complete; defaults to the
        parameter's own index.
    """

    def __init__(
        self,
        params: list[Blob],
        bucket_bytes: float | None = None,
        layer_ids: list[int] | None = None,
    ) -> None:
        if not params:
            raise ShapeError("cannot bucket an empty parameter list")
        if bucket_bytes is not None and bucket_bytes <= 0:
            raise ShapeError(f"bucket_bytes must be positive, got {bucket_bytes}")
        if layer_ids is not None and len(layer_ids) != len(params):
            raise ShapeError(
                f"layer_ids has {len(layer_ids)} entries for {len(params)} params"
            )
        self.params = list(params)
        self.bucket_bytes = None if bucket_bytes is None else float(bucket_bytes)
        ids = list(layer_ids) if layer_ids is not None else list(range(len(params)))

        # Greedy fill over the reversed parameter list; param indices per
        # bucket, then restored to forward order within each bucket.
        groups: list[list[int]] = []
        current: list[int] = []
        current_bytes = 0
        for idx in reversed(range(len(self.params))):
            nbytes = self.params[idx].count * self.params[idx].dtype.itemsize
            if (
                self.bucket_bytes is not None
                and current
                and current_bytes + nbytes > self.bucket_bytes
            ):
                groups.append(current)
                current, current_bytes = [], 0
            current.append(idx)
            current_bytes += nbytes
        groups.append(current)
        #: Forward-order parameter indices of each bucket.
        self.bucket_param_indices: list[tuple[int, ...]] = [
            tuple(sorted(g)) for g in groups
        ]
        #: One fused packer per bucket (validates dtype uniformity too).
        self.buckets: list[GradientPacker] = [
            GradientPacker([self.params[i] for i in g])
            for g in self.bucket_param_indices
        ]
        #: Forward layer index at which each bucket's gradients are all
        #: complete: backward runs last-to-first, so bucket ``b`` is ready
        #: once the layer with its *smallest* forward index has finished.
        self.ready_layer: list[int] = [
            min(ids[i] for i in g) for g in self.bucket_param_indices
        ]
        self._fused = GradientPacker(self.params)

    @property
    def n_buckets(self) -> int:
        return len(self.buckets)

    @property
    def dtype(self) -> np.dtype:
        return self._fused.dtype

    @property
    def total_bytes(self) -> int:
        """Whole-model payload (equals the fused packer's)."""
        return self._fused.total_bytes

    @property
    def bucket_sizes(self) -> list[int]:
        """Per-bucket payload bytes, in launch (reverse-layer) order."""
        return [b.total_bytes for b in self.buckets]

    def cumulative_fractions(self) -> list[float]:
        """Fraction of the model's gradient bytes complete once bucket
        ``i``'s last gradient is produced (buckets in launch order)."""
        total = float(self.total_bytes)
        acc, out = 0.0, []
        for nb in self.bucket_sizes:
            acc += nb
            out.append(acc / total)
        return out

    def pack_bucket_diffs(self, bucket: int) -> np.ndarray:
        """Gather one bucket's gradients into a flat buffer."""
        return self.buckets[bucket].pack_diffs()

    def unpack_bucket_diffs(self, bucket: int, flat: np.ndarray) -> None:
        """Scatter one bucket's reduced buffer back (always copies)."""
        self.buckets[bucket].unpack_diffs(flat)

    def pack_diffs(self) -> np.ndarray:
        """Fused whole-model gradient buffer (forward layer order)."""
        return self._fused.pack_diffs()

    def unpack_diffs(self, flat: np.ndarray) -> None:
        """Fused whole-model unpack (forward layer order)."""
        self._fused.unpack_diffs(flat)

    def pack_data(self) -> np.ndarray:
        """Whole-model parameter values (replica-consistency checks)."""
        return self._fused.pack_data()
