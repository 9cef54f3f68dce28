"""Shape-manipulation layers: Flatten, Reshape, Split, Slice.

Pure bookkeeping layers (views and copies); Split is how Caffe expresses
explicit fan-out, and Slice is Concat's inverse. Flatten, Reshape and
Slice are priced as pure DMA streams on SW26010. Split reads its bottom
once and writes every top, and its backward sums the tops' gradients,
priced like Eltwise's SUM.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.frame.blob import Blob
from repro.frame.layer import Layer
from repro.kernels.plan import PlanCost


class _StreamCost(Layer):
    def sw_forward_cost(self) -> PlanCost:
        return self.stream_cost(0.0)

    def sw_backward_cost(self) -> PlanCost:
        return self.stream_cost(0.0) if self.propagate_down else PlanCost()


class FlattenLayer(_StreamCost):
    """(B, ...) -> (B, prod(...))."""

    type = "Flatten"

    def check_bottom(self, bottom: list[Blob]) -> None:
        self.require_bottoms(bottom, 1, self.type)
        if len(bottom[0].shape) < 2:
            raise ShapeError(f"{self.name}: flatten needs a batch dimension")

    def reshape(self, bottom: list[Blob], top: list[Blob]) -> None:
        b = bottom[0].shape[0]
        top[0].reshape((b, bottom[0].count // b))
        self._count = bottom[0].count
        self._bottom_shape = bottom[0].shape

    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        top[0].data = bottom[0].data.reshape(top[0].shape)

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        if not self.propagate_down:
            return
        bottom[0].diff = bottom[0].diff + top[0].diff.reshape(self._bottom_shape)


class ReshapeLayer(_StreamCost):
    """Arbitrary reshape; one ``-1`` wildcard allowed."""

    type = "Reshape"

    def __init__(self, name: str, shape: tuple[int, ...], params=None) -> None:
        super().__init__(name, params)
        if sum(1 for s in shape if s == -1) > 1:
            raise ShapeError(f"{name}: at most one -1 in the target shape")
        self.target = tuple(int(s) for s in shape)

    def check_bottom(self, bottom: list[Blob]) -> None:
        self.require_bottoms(bottom, 1, self.type)

    def reshape(self, bottom: list[Blob], top: list[Blob]) -> None:
        count = bottom[0].count
        fixed = 1
        for s in self.target:
            if s != -1:
                fixed *= s
        if -1 in self.target:
            if count % fixed:
                raise ShapeError(
                    f"{self.name}: cannot infer -1: {count} not divisible by {fixed}"
                )
            shape = tuple(count // fixed if s == -1 else s for s in self.target)
        else:
            if fixed != count:
                raise ShapeError(
                    f"{self.name}: target {self.target} has {fixed} elements, "
                    f"input has {count}"
                )
            shape = self.target
        top[0].reshape(shape)
        self._count = count
        self._bottom_shape = bottom[0].shape

    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        top[0].data = bottom[0].data.reshape(top[0].shape)

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        if not self.propagate_down:
            return
        bottom[0].diff = bottom[0].diff + top[0].diff.reshape(self._bottom_shape)


class SplitLayer(Layer):
    """Copy one bottom into N tops (explicit fan-out; gradients sum)."""

    type = "Split"

    def __init__(self, name: str, n_tops: int = 2, params=None) -> None:
        super().__init__(name, params)
        if n_tops < 1:
            raise ShapeError(f"{name}: need at least one top")
        self.n_tops = int(n_tops)

    def check_bottom(self, bottom: list[Blob]) -> None:
        self.require_bottoms(bottom, 1, self.type)

    def reshape(self, bottom: list[Blob], top: list[Blob]) -> None:
        if len(top) != self.n_tops:
            raise ShapeError(f"{self.name}: expected {self.n_tops} tops, got {len(top)}")
        for t in top:
            t.reshape(bottom[0].shape)
        self._count = bottom[0].count

    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        for t in top:
            t.data = bottom[0].data.copy()

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        if not self.propagate_down:
            return
        total = np.zeros(bottom[0].shape, dtype=np.float64)
        for t in top:
            total += t.diff
        bottom[0].diff = bottom[0].diff + total

    def sw_forward_cost(self) -> PlanCost:
        """One read of the bottom and one write per top."""
        return self.stream_cost(0.0, n_outputs=self.n_tops)

    def sw_backward_cost(self) -> PlanCost:
        """One read per top gradient, summed into one bottom gradient."""
        if not self.propagate_down:
            return PlanCost()
        return self.stream_cost(1.0, n_inputs=self.n_tops)


class SliceLayer(_StreamCost):
    """Split one bottom into N tops along ``axis`` at ``slice_points``."""

    type = "Slice"

    def __init__(self, name: str, slice_points: list[int], axis: int = 1, params=None) -> None:
        super().__init__(name, params)
        if sorted(slice_points) != list(slice_points) or len(set(slice_points)) != len(slice_points):
            raise ShapeError(f"{name}: slice_points must be strictly increasing")
        self.slice_points = [int(s) for s in slice_points]
        self.axis = int(axis)

    @property
    def n_tops(self) -> int:
        return len(self.slice_points) + 1

    def check_bottom(self, bottom: list[Blob]) -> None:
        self.require_bottoms(bottom, 1, self.type)
        dim = bottom[0].shape[self.axis]
        if self.slice_points and not (0 < self.slice_points[0] and self.slice_points[-1] < dim):
            raise ShapeError(f"{self.name}: slice points outside axis of size {dim}")

    def _bounds(self, dim: int) -> list[tuple[int, int]]:
        edges = [0] + self.slice_points + [dim]
        return list(zip(edges[:-1], edges[1:]))

    def reshape(self, bottom: list[Blob], top: list[Blob]) -> None:
        if len(top) != self.n_tops:
            raise ShapeError(f"{self.name}: expected {self.n_tops} tops, got {len(top)}")
        dim = bottom[0].shape[self.axis]
        for t, (lo, hi) in zip(top, self._bounds(dim)):
            shape = list(bottom[0].shape)
            shape[self.axis] = hi - lo
            t.reshape(tuple(shape))
        self._count = bottom[0].count

    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        dim = bottom[0].shape[self.axis]
        for t, (lo, hi) in zip(top, self._bounds(dim)):
            index = [slice(None)] * len(bottom[0].shape)
            index[self.axis] = slice(lo, hi)
            t.data = np.ascontiguousarray(bottom[0].data[tuple(index)])

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        if not self.propagate_down:
            return
        dim = bottom[0].shape[self.axis]
        grad = np.zeros(bottom[0].shape, dtype=np.float64)
        for t, (lo, hi) in zip(top, self._bounds(dim)):
            index = [slice(None)] * len(bottom[0].shape)
            index[self.axis] = slice(lo, hi)
            grad[tuple(index)] = t.diff
        bottom[0].diff = bottom[0].diff + grad
