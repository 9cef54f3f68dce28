"""The in-place SGD update against its out-of-place oracle, byte for byte.

:meth:`SGDSolver.apply_update` writes the new weights into ``p.data`` and
the new velocity into the stored velocity array, with one float64
temporary per parameter. :class:`OracleSGD` is the update as first
written, kept verbatim: nine float64 temporaries and a fresh weight array
per parameter. Both run five iterations over the parameter shapes of
LeNet, in float32 and float64, with every combination of ``decay_mult``
(0, 1), ``lr_mult`` (1, 2), ``weight_decay`` (0, 1e-4) and ``momentum``
(0, 0.9). The gradients carry +0.0, -0.0, subnormals and +-inf next to
ordinary values, and both solvers go through a ``save_solver`` /
``load_solver`` restart after iteration 2. Weights and velocities must
match byte for byte after every iteration.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.frame.blob import Blob
from repro.frame.snapshot import load_solver, save_solver
from repro.frame.solver import SGDSolver

#: LeNet's parameter shapes: conv1, conv2, ip1, ip2 (weight, then bias).
LENET_SHAPES = (
    (20, 1, 5, 5), (20,),
    (50, 20, 5, 5), (50,),
    (500, 800), (500,),
    (10, 500), (10,),
)
#: ``(decay_mult, lr_mult)`` per parameter, every pair twice.
MULTS = list(itertools.product((0.0, 1.0), (1.0, 2.0))) * 2
ITERS = 5
RESTART_AFTER = 2
#: Learning-rate schedule: halve every two iterations, so the restored
#: iteration counter matters.
SCHEDULE = dict(base_lr=0.01, lr_policy="step", gamma=0.5, stepsize=2)


class OracleSGD(SGDSolver):
    """``SGDSolver.apply_update`` as first written (out of place)."""

    def apply_update(self, lr: float | None = None) -> None:
        lr = self.learning_rate() if lr is None else lr
        for p in self.net.params:
            grad = p.diff.astype(np.float64)
            if self.weight_decay and p.decay_mult:
                grad = grad + self.weight_decay * p.decay_mult * p.data.astype(np.float64)
            v = self._velocity.get(id(p))
            if v is None:
                v = np.zeros(p.shape, dtype=np.float64)
            v = self.momentum * v + lr * p.lr_mult * grad
            self._velocity[id(p)] = v
            p.data = (p.data.astype(np.float64) - v).astype(p.dtype)


class _Params:
    """The part of a net the update and the snapshot helpers read."""

    def __init__(self, params: list[Blob]) -> None:
        self.params = params


def _specials(dtype) -> np.ndarray:
    tiny = np.finfo(dtype).smallest_subnormal
    return np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, np.inf, -np.inf], dtype=dtype)


def _params(dtype, seed: int) -> list[Blob]:
    rng = np.random.default_rng(seed)
    params = []
    for i, (shape, (decay_mult, lr_mult)) in enumerate(zip(LENET_SHAPES, MULTS)):
        p = Blob(f"p{i}", shape, dtype=dtype)
        data = rng.standard_normal(shape).astype(dtype)
        data.reshape(-1)[0] = np.finfo(dtype).smallest_subnormal
        data.reshape(-1)[1] = -0.0
        p.data = data
        p.decay_mult, p.lr_mult = decay_mult, lr_mult
        params.append(p)
    return params


def _gradients(dtype, iteration: int) -> list[np.ndarray]:
    rng = np.random.default_rng(1000 + iteration)
    grads = []
    for shape in LENET_SHAPES:
        g = (0.1 * rng.standard_normal(shape)).astype(dtype)
        flat = g.reshape(-1)
        specials = _specials(dtype)
        # A different slot each iteration, so an inf meets finite history.
        start = (3 * iteration) % (flat.size - specials.size)
        flat[start : start + specials.size] = specials
        grads.append(g)
    return grads


def _assert_same(solver: SGDSolver, oracle: SGDSolver, where: str) -> None:
    for p, q in zip(solver.net.params, oracle.net.params):
        assert p.data.dtype == q.data.dtype == p.dtype, where
        assert p.data.tobytes() == q.data.tobytes(), f"{where}: weights of {p.name}"
        v, w = solver._velocity[id(p)], oracle._velocity[id(q)]
        assert v.dtype == w.dtype == np.float64, where
        assert v.tobytes() == w.tobytes(), f"{where}: velocity of {p.name}"


def _restart(solver: SGDSolver, path) -> SGDSolver:
    """Snapshot, then resume in a fresh solver over the same parameters."""
    save_solver(solver, str(path))
    resumed = type(solver)(
        solver.net, momentum=solver.momentum,
        weight_decay=solver.weight_decay, **SCHEDULE,
    )
    load_solver(resumed, str(path))
    return resumed


@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_update_matches_oracle(dtype, weight_decay, momentum, tmp_path):
    kwargs = dict(momentum=momentum, weight_decay=weight_decay, **SCHEDULE)
    solver = SGDSolver(_Params(_params(dtype, seed=3)), **kwargs)
    oracle = OracleSGD(_Params(_params(dtype, seed=3)), **kwargs)
    for it in range(1, ITERS + 1):
        grads = _gradients(dtype, it)
        for s in (solver, oracle):
            for p, g in zip(s.net.params, grads):
                p.diff = g.copy()
            with np.errstate(invalid="ignore"):  # inf - inf is meant
                s.apply_update()
            s.iter += 1
        _assert_same(solver, oracle, f"iteration {it}")
        if it == RESTART_AFTER:
            solver = _restart(solver, tmp_path / "solver.npz")
            oracle = _restart(oracle, tmp_path / "oracle.npz")
            _assert_same(solver, oracle, "after the restart")
    # The specials reached the weights: the comparison covered inf and NaN.
    assert any(not np.isfinite(p.data).all() for p in solver.net.params)


def test_update_writes_into_existing_arrays():
    """The weights and the stored velocity are updated where they live."""
    solver = SGDSolver(_Params(_params(np.float32, seed=4)), momentum=0.9,
                       weight_decay=1e-4)
    for p, g in zip(solver.net.params, _gradients(np.float32, 1)):
        p.diff = g
    data = [p.data for p in solver.net.params]
    with np.errstate(invalid="ignore"):
        solver.apply_update()
        velocity = [solver._velocity[id(p)] for p in solver.net.params]
        solver.apply_update()
    for p, d, v in zip(solver.net.params, data, velocity):
        assert p.data is d
        assert solver._velocity[id(p)] is v
