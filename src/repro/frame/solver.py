"""Solvers: SGD with momentum, weight decay, and learning-rate policies.

Caffe's solver level (Sec. II-C): controls the training loop and the
parameter-tuning algorithm. The distributed trainer in
:mod:`repro.parallel.trainer` builds on this class, inserting its gradient
allreduce between backward and update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.frame.net import Net
from repro.trace.tracer import active as _tracer


@dataclass
class SolverStats:
    """Training-curve record returned by :meth:`SGDSolver.step`."""

    iterations: int = 0
    losses: list[float] = field(default_factory=list)
    learning_rates: list[float] = field(default_factory=list)
    simulated_time_s: float = 0.0


class SGDSolver:
    """Mini-batch SGD with momentum (Caffe update rule).

    ``v <- momentum * v + lr * (grad + weight_decay * w); w <- w - v``.

    Parameters
    ----------
    net:
        The net to train.
    base_lr, momentum, weight_decay:
        Optimizer hyperparameters.
    lr_policy:
        One of ``fixed``, ``step`` (scale by ``gamma`` every ``stepsize``),
        ``multistep`` (scale at each iteration in ``steps``), ``poly``
        (``base_lr * (1 - iter/max_iter)^power``).
    iter_size:
        Caffe's gradient accumulation: each iteration runs ``iter_size``
        forward/backward passes and updates with the averaged gradient —
        an effective batch of ``iter_size * batch_size`` within one CG's
        memory budget.
    """

    def __init__(
        self,
        net: Net,
        base_lr: float = 0.01,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
        lr_policy: str = "fixed",
        gamma: float = 0.1,
        stepsize: int = 100000,
        steps: list[int] | None = None,
        max_iter: int = 100000,
        power: float = 1.0,
        iter_size: int = 1,
    ) -> None:
        if base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if lr_policy not in ("fixed", "step", "multistep", "poly"):
            raise ValueError(f"unknown lr_policy {lr_policy!r}")
        if iter_size < 1:
            raise ValueError("iter_size must be >= 1")
        self.iter_size = int(iter_size)
        self.net = net
        self.base_lr = float(base_lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.lr_policy = lr_policy
        self.gamma = float(gamma)
        self.stepsize = int(stepsize)
        self.steps = sorted(steps or [])
        self.max_iter = int(max_iter)
        self.power = float(power)
        self.iter = 0
        self._velocity: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    def learning_rate(self, iteration: int | None = None) -> float:
        """Learning rate at ``iteration`` (default: the current one)."""
        it = self.iter if iteration is None else iteration
        if self.lr_policy == "fixed":
            return self.base_lr
        if self.lr_policy == "step":
            return self.base_lr * self.gamma ** (it // self.stepsize)
        if self.lr_policy == "multistep":
            passed = sum(1 for s in self.steps if it >= s)
            return self.base_lr * self.gamma**passed
        # poly
        frac = min(it / self.max_iter, 1.0)
        return self.base_lr * (1.0 - frac) ** self.power

    def decayed_grad(self, p) -> np.ndarray:
        """A fresh float64 ``diff + weight_decay * decay_mult * data`` of ``p``
        (``dtype=np.float64``: float32 data times a Python float is float32)."""
        if not (self.weight_decay and p.decay_mult):
            return p.diff.astype(np.float64)
        g = np.multiply(p.data, self.weight_decay * p.decay_mult, dtype=np.float64)
        return np.add(p.diff, g, out=g)

    def apply_update(self, lr: float | None = None) -> None:
        """Apply one SGD update from the accumulated parameter diffs.

        Velocity and weights are updated where they live, one float64
        temporary per parameter, in the formula's operation order: the
        result is the out-of-place formula's bit for bit.
        """
        lr = self.learning_rate() if lr is None else lr
        for p in self.net.params:
            g = self.decayed_grad(p)
            v = self._velocity.get(id(p))
            if v is None:
                v = self._velocity[id(p)] = np.zeros(p.shape, dtype=np.float64)
            v *= self.momentum
            g *= lr * p.lr_mult
            v += g
            np.subtract(p.data, v, out=p.data, casting="unsafe")

    def step(self, n_iters: int = 1) -> SolverStats:
        """Run ``n_iters`` full iterations (forward, backward, update).

        With ``iter_size > 1``, each iteration accumulates that many
        forward/backward passes and updates with the averaged gradient.
        """
        stats = SolverStats()
        for _ in range(n_iters):
            self.net.zero_param_diffs()
            loss_sum = 0.0
            iter_time = 0.0
            for _ in range(self.iter_size):
                losses = self.net.forward()
                self.net.backward()
                loss_sum += sum(losses.values())
                pass_time = self.net.sw_iteration_time()
                stats.simulated_time_s += pass_time
                iter_time += pass_time
            tr = _tracer()
            if tr.enabled:
                tr.emit(
                    f"iter {self.iter}", "solver_iter", track="solver",
                    dur=iter_time,
                    args={"lr": self.learning_rate(), "iter_size": self.iter_size},
                )
            if self.iter_size > 1:
                for p in self.net.params:
                    p.diff /= self.iter_size
            lr = self.learning_rate()
            self.apply_update(lr)
            stats.iterations += 1
            stats.losses.append(loss_sum / self.iter_size)
            stats.learning_rates.append(lr)
            self.iter += 1
        return stats
