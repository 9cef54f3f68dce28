"""Synthetic ImageNet-shaped dataset.

We have no ImageNet; the experiments need (a) correctly *shaped and sized*
records for throughput/I/O modeling and (b) *learnable* content so the
framework's end-to-end training can be validated. Each class gets a fixed
random prototype pattern; samples are the prototype plus noise, so even a
small model separates classes within a few hundred iterations.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import seeded_rng
from repro.utils.units import KB


class SyntheticImageNet:
    """Deterministic label-correlated image source.

    Parameters
    ----------
    num_classes:
        Label cardinality (1000 for ImageNet).
    sample_shape:
        Per-sample tensor shape, e.g. ``(3, 224, 224)``.
    noise:
        Standard deviation of the additive noise around each class
        prototype; larger = harder problem.
    record_bytes:
        On-disk size of one record, used by the I/O model. The paper's
        numbers imply ~750 KB/record (a 256-sample mini-batch is ~192 MB).
    seed:
        RNG seed; two sources with the same seed replay identically. The
        sample stream's generator is seeded on the first
        :meth:`next_batch` or :meth:`seek`, so a source that a priced net
        only holds builds none.
    """

    def __init__(
        self,
        num_classes: int = 1000,
        sample_shape: tuple[int, ...] = (3, 224, 224),
        noise: float = 0.5,
        record_bytes: float = 750 * KB,
        seed: int = 0,
    ) -> None:
        if num_classes <= 1:
            raise ValueError("need at least two classes")
        if noise < 0:
            raise ValueError("noise must be non-negative")
        self.num_classes = int(num_classes)
        self.sample_shape = tuple(int(s) for s in sample_shape)
        self.noise = float(noise)
        self.record_bytes = float(record_bytes)
        self.seed = seed
        self._rng: np.random.Generator | None = None
        self._prototypes: dict[int, np.ndarray] = {}

    def prototype(self, label: int) -> np.ndarray:
        """The fixed pattern of one class (generated on first use)."""
        if not 0 <= label < self.num_classes:
            raise ValueError(f"label {label} outside [0, {self.num_classes})")
        if label not in self._prototypes:
            rng = np.random.default_rng([self.seed, label])
            self._prototypes[label] = rng.normal(
                0.0, 1.0, size=self.sample_shape
            ).astype(np.float32)
        return self._prototypes[label]

    def next_batch(self, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        """Random sampling of one mini-batch (paper Sec. V-B: each worker
        prefetches via random sampling)."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self._rng is None:
            self._rng = seeded_rng(self.seed)
        labels = self._rng.integers(0, self.num_classes, size=batch_size)
        images = np.empty((batch_size, *self.sample_shape), dtype=np.float32)
        for i, lab in enumerate(labels):
            images[i] = self.prototype(int(lab))
        if self.noise:
            images += self._rng.normal(0.0, self.noise, size=images.shape).astype(
                np.float32
            )
        return images, labels.astype(np.int64)

    def seek(self, n_batches: int, batch_size: int) -> None:
        """Rewind the sample stream to just after ``n_batches`` draws.

        The RNG restarts from the seed and replays the exact draw pattern of
        ``n_batches`` batches of ``batch_size``, so the next
        :meth:`next_batch` returns what batch ``n_batches`` of a fresh run
        would — the data-source half of elastic recovery
        (:func:`repro.faults.recovery.rewind_net_sources`).
        """
        if n_batches < 0 or batch_size <= 0:
            raise ValueError("need n_batches >= 0 and batch_size > 0")
        self._rng = seeded_rng(self.seed)
        for _ in range(n_batches):
            self._rng.integers(0, self.num_classes, size=batch_size)
            if self.noise:
                self._rng.normal(
                    0.0, self.noise, size=(batch_size, *self.sample_shape)
                )
