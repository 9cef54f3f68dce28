"""Blob: Caffe's named tensor with paired data and gradient storage.

Storage is lazy: a blob created during net construction knows its shape but
allocates no memory until data or diff is touched, so pricing a 1024-node
ResNet-50 run does not allocate gigabytes of activations.

Random weights are lazy too. A weight blob's value is a fill queued on a
:class:`~repro.utils.rng.FillLedger` (:meth:`Blob.fill_from`), and the
ledger owns the rule for when fills are drawn:

* a ledger that created its generator itself (a ``NetBuilder`` or
  ``build_from_spec`` given ``rng=None``, or a layer given ``rng=None``)
  defers: the first read of any pending blob's ``data``, or the first
  other draw from that generator (a dropout mask), draws *all* pending
  fills in the order they were queued;
* a ledger over a caller's generator draws each fill at once, since the
  caller can observe that generator between fills.

Both give bit-identical weights, masks and losses; deferring only skips
the draws of weights nobody reads, such as pricing-only nets for the
paper tables. Assigning ``data`` to a pending blob replaces its value but
keeps its draw in the sequence, so the blobs after it still match. The
backing array stays ``_data`` (``None`` while pending), which memory
accounting may read without forcing a fill.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.utils.rng import Draw, FillLedger


class Blob:
    """A named tensor with ``data`` and ``diff`` arrays of the same shape."""

    def __init__(self, name: str, shape: tuple[int, ...] = (), dtype=np.float32) -> None:
        self.name = name
        self.dtype = np.dtype(dtype)
        self._shape: tuple[int, ...] = tuple(int(s) for s in shape)
        self._data: np.ndarray | None = None
        self._diff: np.ndarray | None = None
        #: The ledger that still owes this blob its value, if any.
        self._pending: FillLedger | None = None
        #: Per-blob learning-rate and weight-decay multipliers (Caffe's
        #: ``lr_mult`` / ``decay_mult``), honored by the solver.
        self.lr_mult: float = 1.0
        self.decay_mult: float = 1.0

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        """Current logical shape."""
        return self._shape

    @property
    def count(self) -> int:
        """Total number of elements."""
        n = 1
        for s in self._shape:
            n *= s
        return n if self._shape else 0

    @property
    def nbytes(self) -> int:
        """Payload size of the data array in bytes."""
        return self.count * self.dtype.itemsize

    def reshape(self, shape: tuple[int, ...]) -> None:
        """Change the logical shape; storage is re-allocated lazily."""
        shape = tuple(int(s) for s in shape)
        if any(s <= 0 for s in shape):
            raise ShapeError(f"blob {self.name!r}: non-positive shape {shape}")
        if shape != self._shape:
            self._shape = shape
            self._data = None
            self._diff = None
            self._pending = None

    # ------------------------------------------------------------------ #
    def fill_from(self, ledger: FillLedger, draw: Draw) -> None:
        """Take this blob's value from ``draw(generator)``, queued on ``ledger``."""
        self._pending = ledger
        ledger.queue(draw, self._receive)

    def _receive(self, value: np.ndarray) -> None:
        """Ledger callback: keep a drawn fill unless ``data`` was replaced."""
        if self._pending is not None:
            self._pending = None
            self._data = np.asarray(value, dtype=self.dtype)

    @property
    def data(self) -> np.ndarray:
        """The value tensor (drawn if pending, else zeroed, on first touch)."""
        if self._data is None and self._pending is not None:
            self._pending.flush()
        if self._data is None:
            if not self._shape:
                raise ShapeError(f"blob {self.name!r} has no shape yet")
            self._data = np.zeros(self._shape, dtype=self.dtype)
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        """Replace the value tensor (cancelling a pending fill)."""
        value = np.asarray(value, dtype=self.dtype)
        if self._shape and value.shape != self._shape:
            raise ShapeError(
                f"blob {self.name!r}: assigned data shape {value.shape} != {self._shape}"
            )
        self._shape = value.shape
        self._data = value
        self._pending = None

    @property
    def diff(self) -> np.ndarray:
        """The gradient tensor (allocated zeroed on first touch)."""
        if self._diff is None:
            if not self._shape:
                raise ShapeError(f"blob {self.name!r} has no shape yet")
            self._diff = np.zeros(self._shape, dtype=self.dtype)
        return self._diff

    @diff.setter
    def diff(self, value: np.ndarray) -> None:
        """Replace the gradient tensor."""
        value = np.asarray(value, dtype=self.dtype)
        if self._shape and value.shape != self._shape:
            raise ShapeError(
                f"blob {self.name!r}: assigned diff shape {value.shape} != {self._shape}"
            )
        self._diff = value

    def zero_diff(self) -> None:
        """Reset the gradient accumulator (cheap if never allocated)."""
        if self._diff is not None:
            self._diff.fill(0)

    def has_data(self) -> bool:
        """Whether the data array has been materialized (a pending fill has not)."""
        return self._data is not None

    def __repr__(self) -> str:
        return f"Blob({self.name!r}, shape={self._shape})"
