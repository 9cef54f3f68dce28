"""Extended solver family.

Caffe ships several parameter-update rules beyond plain momentum SGD; the
paper's conclusion also points at large-batch methods (its reference [12]
is You, Gitman & Ginsburg's layer-wise adaptive rate scaling). This module
implements them all on top of :class:`~repro.frame.solver.SGDSolver`'s
loop/learning-rate machinery by overriding :meth:`apply_update`, each rule
starting from the float64 :meth:`~repro.frame.solver.SGDSolver.decayed_grad`:

* :class:`NesterovSolver` — Nesterov accelerated gradient (Caffe semantics);
* :class:`AdaGradSolver` — per-element adaptive rates;
* :class:`RMSPropSolver` — leaky second-moment normalization;
* :class:`AdamSolver` — bias-corrected first/second moments;
* :class:`LARSSolver` — layer-wise adaptive rate scaling for very large
  batches (trust ratio ||w|| / (||g|| + wd ||w||) per parameter tensor),
  the technique that pushes mini-batches to 32K on the paper's framework.
"""

from __future__ import annotations

import numpy as np

from repro.frame.net import Net
from repro.frame.solver import SGDSolver


class NesterovSolver(SGDSolver):
    """Nesterov accelerated gradient (Caffe's ``type: "Nesterov"``)."""

    def apply_update(self, lr: float | None = None) -> None:
        lr = self.learning_rate() if lr is None else lr
        for p in self.net.params:
            grad = self.decayed_grad(p)
            v_prev = self._velocity.get(id(p))
            if v_prev is None:
                v_prev = np.zeros(p.shape, dtype=np.float64)
            v = self.momentum * v_prev + lr * p.lr_mult * grad
            self._velocity[id(p)] = v
            # Caffe's Nesterov step: w -= (1 + mu) * v - mu * v_prev.
            step = (1 + self.momentum) * v - self.momentum * v_prev
            p.data = (p.data.astype(np.float64) - step).astype(p.dtype)


class AdaGradSolver(SGDSolver):
    """AdaGrad: accumulate squared gradients, scale rates elementwise."""

    def __init__(self, net: Net, eps: float = 1e-8, **kwargs) -> None:
        kwargs.setdefault("momentum", 0.0)
        super().__init__(net, **kwargs)
        if self.momentum != 0.0:
            raise ValueError("AdaGrad does not use momentum")
        self.eps = float(eps)
        self._hist: dict[int, np.ndarray] = {}

    def apply_update(self, lr: float | None = None) -> None:
        lr = self.learning_rate() if lr is None else lr
        for p in self.net.params:
            grad = self.decayed_grad(p)
            h = self._hist.get(id(p))
            if h is None:
                h = np.zeros(p.shape, dtype=np.float64)
            h = h + grad * grad
            self._hist[id(p)] = h
            p.data = (
                p.data.astype(np.float64)
                - lr * p.lr_mult * grad / (np.sqrt(h) + self.eps)
            ).astype(p.dtype)


class RMSPropSolver(SGDSolver):
    """RMSProp: exponentially-decayed squared-gradient normalization."""

    def __init__(self, net: Net, decay: float = 0.99, eps: float = 1e-8, **kwargs) -> None:
        kwargs.setdefault("momentum", 0.0)
        super().__init__(net, **kwargs)
        if not 0.0 < decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        self.decay = float(decay)
        self.eps = float(eps)
        self._ms: dict[int, np.ndarray] = {}

    def apply_update(self, lr: float | None = None) -> None:
        lr = self.learning_rate() if lr is None else lr
        for p in self.net.params:
            grad = self.decayed_grad(p)
            ms = self._ms.get(id(p))
            if ms is None:
                ms = np.zeros(p.shape, dtype=np.float64)
            ms = self.decay * ms + (1 - self.decay) * grad * grad
            self._ms[id(p)] = ms
            p.data = (
                p.data.astype(np.float64)
                - lr * p.lr_mult * grad / (np.sqrt(ms) + self.eps)
            ).astype(p.dtype)


class AdamSolver(SGDSolver):
    """Adam with bias correction."""

    def __init__(
        self,
        net: Net,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        **kwargs,
    ) -> None:
        kwargs.setdefault("momentum", 0.0)
        super().__init__(net, **kwargs)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._m: dict[int, np.ndarray] = {}
        self._v2: dict[int, np.ndarray] = {}
        self._t = 0

    def apply_update(self, lr: float | None = None) -> None:
        lr = self.learning_rate() if lr is None else lr
        self._t += 1
        b1t = 1 - self.beta1**self._t
        b2t = 1 - self.beta2**self._t
        for p in self.net.params:
            grad = self.decayed_grad(p)
            m = self._m.get(id(p), np.zeros(p.shape, dtype=np.float64))
            v = self._v2.get(id(p), np.zeros(p.shape, dtype=np.float64))
            m = self.beta1 * m + (1 - self.beta1) * grad
            v = self.beta2 * v + (1 - self.beta2) * grad * grad
            self._m[id(p)] = m
            self._v2[id(p)] = v
            step = lr * p.lr_mult * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
            p.data = (p.data.astype(np.float64) - step).astype(p.dtype)


class LARSSolver(SGDSolver):
    """Layer-wise adaptive rate scaling (You et al., the paper's [12]).

    Each parameter tensor gets a local learning rate
    ``trust * ||w|| / (||g|| + wd * ||w||)`` combined with momentum, which
    is what lets synchronous SGD keep accuracy at the 32K global batches
    the paper's scalability section targets.
    """

    def __init__(self, net: Net, trust: float = 0.001, **kwargs) -> None:
        super().__init__(net, **kwargs)
        if trust <= 0:
            raise ValueError("trust coefficient must be positive")
        self.trust = float(trust)

    def local_rate(self, p) -> float:
        """The LARS trust ratio for one parameter tensor."""
        w_norm = float(np.linalg.norm(p.data.astype(np.float64)))
        g_norm = float(np.linalg.norm(p.diff.astype(np.float64)))
        denom = g_norm + self.weight_decay * p.decay_mult * w_norm
        if w_norm == 0.0 or denom == 0.0:
            return 1.0
        return self.trust * w_norm / denom

    def apply_update(self, lr: float | None = None) -> None:
        lr = self.learning_rate() if lr is None else lr
        for p in self.net.params:
            grad = self.decayed_grad(p)
            local = self.local_rate(p)
            v = self._velocity.get(id(p))
            if v is None:
                v = np.zeros(p.shape, dtype=np.float64)
            v = self.momentum * v + lr * local * p.lr_mult * grad
            self._velocity[id(p)] = v
            p.data = (p.data.astype(np.float64) - v).astype(p.dtype)
