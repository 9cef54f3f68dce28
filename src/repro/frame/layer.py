"""Layer base class.

A layer transforms bottom blobs into top blobs (forward), routes gradients
back (backward), and prices both directions on the SW26010 model. Following
Algorithm 1, the timing convention is: functional arrays carry the *full*
mini-batch, while SW26010 costs are computed for the per-core-group share
(batch / 4) — the four CGs process disjoint quarters concurrently and the
node-level time is the per-CG time (they are symmetric).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import FillerError, ShapeError
from repro.frame.blob import Blob
from repro.hw.spec import SW26010Params, SW_PARAMS
from repro.kernels import elementwise
from repro.kernels.plan import PlanCost
from repro.utils.rng import Draw, FillLedger

#: Weight fillers by name: the variance gain over fan-in of a zero-mean
#: Gaussian (MSRA/He initialisation doubles Xavier's).
FILLER_GAINS = {"msra": 2.0, "xavier": 1.0}


def check_filler(layer: str, filler: str) -> str:
    """Return ``filler`` if it names a known weight filler, else raise."""
    if filler not in FILLER_GAINS:
        raise FillerError(
            f"{layer}: unknown weight filler {filler!r}; known: {sorted(FILLER_GAINS)}"
        )
    return filler


def filler_std(filler: str, fan_in: int) -> float:
    """Standard deviation of a ``filler`` weight with ``fan_in`` inputs."""
    return float(np.sqrt(FILLER_GAINS[filler] / fan_in))


class LayerCost:
    """Forward/backward simulated costs of one layer on one core group."""

    def __init__(self, forward: PlanCost, backward: PlanCost) -> None:
        self.forward = forward
        self.backward = backward

    @property
    def total_s(self) -> float:
        """Forward plus backward seconds of one iteration."""
        return self.forward.total_s + self.backward.total_s


class Layer(abc.ABC):
    """Base class for all swCaffe layers.

    Subclasses implement :meth:`reshape`, :meth:`forward_impl`,
    :meth:`backward_impl`, and the cost hooks :meth:`sw_forward_cost` /
    :meth:`sw_backward_cost`.
    """

    #: Layer type name (mirrors Caffe's ``type:`` field).
    type: str = "Layer"

    def __init__(self, name: str, params: SW26010Params | None = None) -> None:
        self.name = name
        self.hw = params or SW_PARAMS
        #: Learnable parameter blobs (weights, biases, ...).
        self.params: list[Blob] = []
        #: Whether backward should compute bottom diffs (False for data
        #: layers and the first learnable layer's input).
        self.propagate_down: bool = True
        #: Gradient seed for loss layers (Caffe's ``loss_weight``); ignored
        #: by non-loss layers. GoogLeNet's auxiliary heads use 0.3.
        self.loss_weight: float = 1.0
        self.phase: str = "train"

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def setup(self, bottom: list[Blob], top: list[Blob]) -> None:
        """One-time setup: validate bottoms, create params, shape tops."""
        self.check_bottom(bottom)
        self.reshape(bottom, top)

    def check_bottom(self, bottom: list[Blob]) -> None:
        """Validate bottom count/shapes; default accepts anything."""

    @abc.abstractmethod
    def reshape(self, bottom: list[Blob], top: list[Blob]) -> None:
        """Shape the top blobs from the bottom shapes."""

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def forward(self, bottom: list[Blob], top: list[Blob]) -> None:
        """Compute top data from bottom data."""
        self.forward_impl(bottom, top)

    def backward(self, top: list[Blob], bottom: list[Blob]) -> None:
        """Accumulate bottom diffs (and param diffs) from top diffs."""
        self.backward_impl(top, bottom)

    @abc.abstractmethod
    def forward_impl(self, bottom: list[Blob], top: list[Blob]) -> None:
        ...

    def backward_impl(self, top: list[Blob], bottom: list[Blob]) -> None:
        raise NotImplementedError(f"{self.type} layer has no backward")

    # ------------------------------------------------------------------ #
    # SW26010 timing
    # ------------------------------------------------------------------ #
    def cg_batch(self, batch: int) -> int:
        """Per-core-group share of the mini-batch (Algorithm 1, line 4)."""
        return max(1, -(-batch // self.hw.n_core_groups))

    def stream_cost(
        self, flops_per_element: float, n_inputs: int = 1, n_outputs: int = 1
    ) -> PlanCost:
        """One core group's share of streaming the layer's ``_count``
        elements (:func:`repro.kernels.elementwise.stream_cost`)."""
        return elementwise.stream_cost(
            -(-self._count // self.hw.n_core_groups),
            flops_per_element, n_inputs, n_outputs, self.hw,
        )

    def sw_forward_cost(self) -> PlanCost:
        """Simulated forward time on one core group (default: free)."""
        return PlanCost()

    def sw_backward_cost(self) -> PlanCost:
        """Simulated backward time on one core group (default: free)."""
        return PlanCost()

    def sw_cost(self) -> LayerCost:
        """Both directions bundled."""
        return LayerCost(self.sw_forward_cost(), self.sw_backward_cost())

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def add_param(
        self,
        name: str,
        array: np.ndarray,
        lr_mult: float = 1.0,
        decay_mult: float = 1.0,
    ) -> Blob:
        """Register a learnable parameter blob initialized from ``array``."""
        blob = Blob(f"{self.name}/{name}", array.shape, dtype=array.dtype)
        blob.data = array
        blob.lr_mult = lr_mult
        blob.decay_mult = decay_mult
        self.params.append(blob)
        return blob

    def add_weight(
        self, name: str, shape: tuple[int, ...], ledger: FillLedger, draw: Draw
    ) -> Blob:
        """Register a float32 weight blob whose value is ``draw(generator)``.

        The fill is queued on ``ledger``, which draws it at once or, if it
        owns its generator, when the weights are first needed (see
        :mod:`repro.frame.blob`).
        """
        blob = Blob(f"{self.name}/{name}", shape, dtype=np.float32)
        blob.fill_from(ledger, draw)
        self.params.append(blob)
        return blob

    @staticmethod
    def require_bottoms(bottom: list[Blob], n: int, who: str) -> None:
        """Raise unless exactly ``n`` bottoms were supplied."""
        if len(bottom) != n:
            raise ShapeError(f"{who} expects {n} bottom blob(s), got {len(bottom)}")

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({self.name!r})"
