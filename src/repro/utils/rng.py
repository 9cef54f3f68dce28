"""Deterministic random number generation.

Every stochastic component (weight init, synthetic datasets, dropout masks)
draws from a :class:`numpy.random.Generator` created here, so whole-cluster
simulations replay bit-identically.

Weight initialisation goes through a :class:`FillLedger`, which queues the
random fills of one generator and draws them in queue order. When the
ledger creates the generator itself, nobody else can observe it, so the
fills wait until a weight is first read or the generator is wanted for
another draw; the values are the same as if they had been drawn at once.
Such a ledger seeds its generator only then, so a net that is only
priced builds no generator and never loads ``numpy.random``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

#: Default seed used across the package when a caller does not supply one.
DEFAULT_SEED = 0x5CAFFE


def seeded_rng(seed: int | None = None) -> np.random.Generator:
    """Return a fresh PCG64 generator seeded with ``seed`` (or the default)."""
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


#: ``draw(generator)`` returns one fill's value. (The generator type is a
#: forward reference so importing this module does not load numpy.random.)
Draw = Callable[["np.random.Generator"], np.ndarray]


class FillLedger:
    """The random fills queued on one generator, drawn in queue order.

    A ledger made without a generator lets fills wait: :meth:`flush`
    draws every pending fill, in the order queued, on first demand. It
    creates its generator (the package seed) on that first flush; the
    seed is a constant, so creating it late changes no value. A ledger
    given a caller's generator flushes on every :meth:`queue` instead,
    because the caller may draw from that generator between two fills.
    Either way each fill sees the generator state it would have seen had
    every fill been drawn when it was queued, so deferring changes no
    value.
    """

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        #: Whether fills wait for :meth:`flush` (the generator is ours).
        self.deferred = rng is None
        #: The generator; ``None`` until a deferring ledger's first flush.
        self._rng = rng
        self._pending: deque[tuple[Draw, Callable[[np.ndarray], None]]] = deque()

    def queue(self, draw: Draw, deliver: Callable[[np.ndarray], None]) -> None:
        """Queue ``deliver(draw(generator))``; drawn now unless deferred."""
        self._pending.append((draw, deliver))
        if not self.deferred:
            self.flush()

    def flush(self) -> None:
        """Draw every pending fill, in the order queued."""
        if self._rng is None:
            self._rng = seeded_rng()
        while self._pending:
            draw, deliver = self._pending.popleft()
            deliver(draw(self._rng))

    def generator(self) -> np.random.Generator:
        """The generator, for a draw of its own after every pending fill."""
        self.flush()
        return self._rng


def fill_ledger(rng: np.random.Generator | FillLedger | None) -> FillLedger:
    """The ledger behind a layer's or builder's ``rng`` argument.

    ``None`` gets a fresh deferring ledger on the package seed, a caller's
    generator gets a ledger that draws at once, and a ledger (a builder
    sharing its own with the layers it makes) is returned as is.
    """
    return rng if isinstance(rng, FillLedger) else FillLedger(rng)
