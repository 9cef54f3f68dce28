"""Shared building blocks for the model zoo."""

from __future__ import annotations

import numpy as np

from repro.frame.layers import (
    AccuracyLayer,
    BatchNormLayer,
    ConvolutionLayer,
    DataLayer,
    DropoutLayer,
    InnerProductLayer,
    PoolingLayer,
    ReLULayer,
    SoftmaxWithLossLayer,
)
from repro.frame.net import Net
from repro.io.dataset import SyntheticImageNet
from repro.utils.rng import fill_ledger


def default_source(
    num_classes: int, sample_shape: tuple[int, ...], seed: int = 0
) -> SyntheticImageNet:
    """Synthetic ImageNet-shaped source matching a net's input."""
    return SyntheticImageNet(
        num_classes=num_classes, sample_shape=sample_shape, seed=seed
    )


class NetBuilder:
    """Thin fluent helper that tracks the current blob name."""

    def __init__(
        self,
        name: str,
        batch_size: int,
        num_classes: int,
        sample_shape: tuple[int, ...],
        source=None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.net = Net(name)
        #: One ledger for every weight fill and dropout mask of the net.
        self.fills = fill_ledger(rng)
        src = source or default_source(num_classes, sample_shape)
        self.net.add(
            DataLayer("data", src, batch_size), bottoms=[], tops=["data", "label"]
        )
        self.cur = "data"
        self.num_classes = num_classes

    # ------------------------------------------------------------------ #
    def conv(
        self, name: str, num_output: int, k: int, stride: int = 1, pad: int = 0,
        bias: bool = True, groups: int = 1, bottom: str | None = None,
    ) -> str:
        src = bottom or self.cur
        self.net.add(
            ConvolutionLayer(
                name, num_output, k, stride, pad, bias=bias, groups=groups,
                rng=self.fills,
            ),
            bottoms=[src],
            tops=[name],
        )
        self.cur = name
        return name

    def bn(self, name: str, bottom: str | None = None) -> str:
        src = bottom or self.cur
        self.net.add(BatchNormLayer(name), bottoms=[src], tops=[name])
        self.cur = name
        return name

    def relu(self, name: str, bottom: str | None = None) -> str:
        src = bottom or self.cur
        self.net.add(ReLULayer(name), bottoms=[src], tops=[name])
        self.cur = name
        return name

    def pool(
        self, name: str, k: int, stride: int | None = None, pad: int = 0,
        mode: str = "max", global_pooling: bool = False, bottom: str | None = None,
    ) -> str:
        src = bottom or self.cur
        self.net.add(
            PoolingLayer(name, k, stride, pad, mode, global_pooling),
            bottoms=[src],
            tops=[name],
        )
        self.cur = name
        return name

    def fc(self, name: str, num_output: int, bottom: str | None = None) -> str:
        src = bottom or self.cur
        self.net.add(
            InnerProductLayer(name, num_output, rng=self.fills),
            bottoms=[src],
            tops=[name],
        )
        self.cur = name
        return name

    def dropout(self, name: str, ratio: float = 0.5, bottom: str | None = None) -> str:
        src = bottom or self.cur
        self.net.add(DropoutLayer(name, ratio, rng=self.fills), bottoms=[src], tops=[name])
        self.cur = name
        return name

    def head(self, fc_name: str = "fc", include_accuracy: bool = False) -> Net:
        """Final classifier + loss (+ optional accuracy)."""
        logits = self.fc(fc_name, self.num_classes)
        self.net.add(
            SoftmaxWithLossLayer("loss"), bottoms=[logits, "label"], tops=["loss"]
        )
        if include_accuracy:
            self.net.add(
                AccuracyLayer("accuracy"), bottoms=[logits, "label"], tops=["accuracy"]
            )
        return self.net

    def loss_from(self, logits: str, include_accuracy: bool = False) -> Net:
        """Attach loss to an existing logits blob."""
        self.net.add(
            SoftmaxWithLossLayer("loss"), bottoms=[logits, "label"], tops=["loss"]
        )
        if include_accuracy:
            self.net.add(
                AccuracyLayer("accuracy"), bottoms=[logits, "label"], tops=["accuracy"]
            )
        return self.net
