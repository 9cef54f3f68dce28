"""The five extended solvers keep their update rules bit for bit.

``NesterovSolver``, ``AdaGradSolver``, ``RMSPropSolver``, ``AdamSolver`` and
``LARSSolver`` each start their update from the same float64 decayed
gradient, ``diff + weight_decay * decay_mult * data``. Each oracle below
is one solver's ``apply_update`` as first written, kept verbatim: the
gradient built with ``astype`` copies and every formula out of place.
Production and oracle train identically built LeNets for three
iterations with weight decay; every weight and every solver-state array
must match byte for byte. LeNet's biases carry ``decay_mult=0``, so both
branches of the decay are exercised.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.frame.model_zoo import lenet
from repro.frame.solvers_ext import (
    AdaGradSolver,
    AdamSolver,
    LARSSolver,
    NesterovSolver,
    RMSPropSolver,
)
from repro.io.dataset import SyntheticImageNet

ITERS = 3


class OracleNesterov(NesterovSolver):
    def apply_update(self, lr: float | None = None) -> None:
        lr = self.learning_rate() if lr is None else lr
        for p in self.net.params:
            grad = p.diff.astype(np.float64)
            if self.weight_decay and p.decay_mult:
                grad = grad + self.weight_decay * p.decay_mult * p.data.astype(np.float64)
            v_prev = self._velocity.get(id(p))
            if v_prev is None:
                v_prev = np.zeros(p.shape, dtype=np.float64)
            v = self.momentum * v_prev + lr * p.lr_mult * grad
            self._velocity[id(p)] = v
            # Caffe's Nesterov step: w -= (1 + mu) * v - mu * v_prev.
            step = (1 + self.momentum) * v - self.momentum * v_prev
            p.data = (p.data.astype(np.float64) - step).astype(p.dtype)


class OracleAdaGrad(AdaGradSolver):
    def apply_update(self, lr: float | None = None) -> None:
        lr = self.learning_rate() if lr is None else lr
        for p in self.net.params:
            grad = p.diff.astype(np.float64)
            if self.weight_decay and p.decay_mult:
                grad = grad + self.weight_decay * p.decay_mult * p.data.astype(np.float64)
            h = self._hist.get(id(p))
            if h is None:
                h = np.zeros(p.shape, dtype=np.float64)
            h = h + grad * grad
            self._hist[id(p)] = h
            p.data = (
                p.data.astype(np.float64)
                - lr * p.lr_mult * grad / (np.sqrt(h) + self.eps)
            ).astype(p.dtype)


class OracleRMSProp(RMSPropSolver):
    def apply_update(self, lr: float | None = None) -> None:
        lr = self.learning_rate() if lr is None else lr
        for p in self.net.params:
            grad = p.diff.astype(np.float64)
            if self.weight_decay and p.decay_mult:
                grad = grad + self.weight_decay * p.decay_mult * p.data.astype(np.float64)
            ms = self._ms.get(id(p))
            if ms is None:
                ms = np.zeros(p.shape, dtype=np.float64)
            ms = self.decay * ms + (1 - self.decay) * grad * grad
            self._ms[id(p)] = ms
            p.data = (
                p.data.astype(np.float64)
                - lr * p.lr_mult * grad / (np.sqrt(ms) + self.eps)
            ).astype(p.dtype)


class OracleAdam(AdamSolver):
    def apply_update(self, lr: float | None = None) -> None:
        lr = self.learning_rate() if lr is None else lr
        self._t += 1
        b1t = 1 - self.beta1**self._t
        b2t = 1 - self.beta2**self._t
        for p in self.net.params:
            grad = p.diff.astype(np.float64)
            if self.weight_decay and p.decay_mult:
                grad = grad + self.weight_decay * p.decay_mult * p.data.astype(np.float64)
            m = self._m.get(id(p), np.zeros(p.shape, dtype=np.float64))
            v = self._v2.get(id(p), np.zeros(p.shape, dtype=np.float64))
            m = self.beta1 * m + (1 - self.beta1) * grad
            v = self.beta2 * v + (1 - self.beta2) * grad * grad
            self._m[id(p)] = m
            self._v2[id(p)] = v
            step = lr * p.lr_mult * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
            p.data = (p.data.astype(np.float64) - step).astype(p.dtype)


class OracleLARS(LARSSolver):
    def apply_update(self, lr: float | None = None) -> None:
        lr = self.learning_rate() if lr is None else lr
        for p in self.net.params:
            grad = p.diff.astype(np.float64)
            if self.weight_decay and p.decay_mult:
                grad = grad + self.weight_decay * p.decay_mult * p.data.astype(np.float64)
            local = self.local_rate(p)
            v = self._velocity.get(id(p))
            if v is None:
                v = np.zeros(p.shape, dtype=np.float64)
            v = self.momentum * v + lr * local * p.lr_mult * grad
            self._velocity[id(p)] = v
            p.data = (p.data.astype(np.float64) - v).astype(p.dtype)


#: (production, oracle, solver kwargs, state dicts): every solver trains
#: with weight decay.
CASES = {
    "nesterov": (
        NesterovSolver, OracleNesterov,
        dict(base_lr=0.01, momentum=0.9, weight_decay=1e-4), ("_velocity",),
    ),
    "adagrad": (
        AdaGradSolver, OracleAdaGrad,
        dict(base_lr=0.01, weight_decay=1e-4), ("_hist",),
    ),
    "rmsprop": (
        RMSPropSolver, OracleRMSProp,
        dict(base_lr=0.001, weight_decay=1e-4), ("_ms",),
    ),
    "adam": (
        AdamSolver, OracleAdam,
        dict(base_lr=0.001, weight_decay=1e-4), ("_m", "_v2"),
    ),
    "lars": (
        LARSSolver, OracleLARS,
        dict(base_lr=1.0, momentum=0.9, weight_decay=1e-4, trust=0.01),
        ("_velocity",),
    ),
}


def _lenet():
    source = SyntheticImageNet(num_classes=10, sample_shape=(1, 28, 28), seed=5)
    return lenet.build(batch_size=8, source=source, rng=np.random.default_rng(7))


def _state(solver, attrs) -> dict[str, bytes]:
    """Every state array of ``solver`` by attribute and parameter name."""
    out = {}
    for attr in attrs:
        arrays = getattr(solver, attr)
        for p in solver.net.params:
            arr = arrays[id(p)]
            assert arr.dtype == np.float64
            out[f"{attr}:{p.name}"] = arr.tobytes()
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_solver_matches_its_oracle(name):
    cls, oracle_cls, kwargs, attrs = CASES[name]
    solver = cls(_lenet(), **kwargs)
    oracle = oracle_cls(_lenet(), **kwargs)
    got = solver.step(ITERS)
    want = oracle.step(ITERS)
    assert got.losses == want.losses
    for p, q in zip(solver.net.params, oracle.net.params):
        assert p.data.dtype == q.data.dtype
        assert p.data.tobytes() == q.data.tobytes(), p.name
    assert _state(solver, attrs) == _state(oracle, attrs)
    if name == "adam":
        assert solver._t == oracle._t == ITERS
    # The weights moved: a rule that skipped the update would pass above.
    fresh = _lenet()
    assert any(
        p.data.tobytes() != q.data.tobytes()
        for p, q in zip(solver.net.params, fresh.params)
    )
