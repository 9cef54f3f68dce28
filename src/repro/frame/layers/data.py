"""Data layer: feeds mini-batches from a dataset source.

Tops are ``[data, label]``. The layer pulls from any object exposing
``next_batch(batch_size) -> (images, labels)`` — in practice the synthetic
ImageNet source in :mod:`repro.io.dataset`, optionally wrapped in the
prefetching pipeline of :mod:`repro.io.prefetch`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.frame.blob import Blob
from repro.frame.layer import Layer


class DataLayer(Layer):
    """Produces (data, label) blobs from a batch source.

    It keeps the base class's free cost hooks on purpose: CPEs DMA training
    data straight from node DRAM and the prefetch thread hides the
    filesystem read (Sec. V-B), so the data layer contributes no
    device-visible time.
    """

    type = "Data"

    def __init__(
        self,
        name: str,
        source,
        batch_size: int,
        params=None,
    ) -> None:
        super().__init__(name, params)
        if batch_size <= 0:
            raise ShapeError(f"{name}: batch_size must be positive")
        self.source = source
        self.batch_size = int(batch_size)
        self.propagate_down = False

    def check_bottom(self, bottom: list[Blob]) -> None:
        if bottom:
            raise ShapeError(f"{self.name}: data layer takes no bottoms")

    def reshape(self, bottom: list[Blob], top: list[Blob]) -> None:
        if len(top) != 2:
            raise ShapeError(f"{self.name}: data layer needs [data, label] tops")
        sample_shape = tuple(self.source.sample_shape)
        top[0].reshape((self.batch_size, *sample_shape))
        # Classification sources yield scalar labels; regression sources may
        # declare a per-sample label shape.
        label_shape = tuple(getattr(self.source, "label_shape", ()))
        top[1].reshape((self.batch_size, *label_shape))

    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        images, labels = self.source.next_batch(self.batch_size)
        top[0].data = images.astype(np.float32, copy=False)
        top[1].data = labels.astype(np.float32, copy=False)

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        # Data layers produce no gradient.
        return
