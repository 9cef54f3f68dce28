"""Elastic-recovery building blocks: shrink, renumber, rewind.

When a rank crash surfaces as a :class:`~repro.errors.CollectiveTimeout`,
the elastic trainer (``repro.parallel.trainer``) recovers in three moves:

1. :func:`survivor_indices` — drop the dead ranks from the active roster;
2. rebuild the communicator for the survivors with
   :func:`~repro.simmpi.reorder.supernode_comm` and the trainer's own
   placement, the call that built its first communicator, so a shrunken
   ``rhd`` run stays block-placed and a ``topo-aware`` one round-robin;
3. :func:`rewind_net_sources` — rewind every replica's data source to the
   resume iteration so the post-recovery batch schedule is bit-identical
   to an uninterrupted run at the surviving scale.

Moves 1 and 3 live here so the mutation tests can break them one at a time.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def survivor_indices(active: Sequence[int], dead: Iterable[int]) -> list[int]:
    """The external rank ids still alive, in their original order.

    ``active`` lists the external ids currently participating (logical rank
    ``i`` is ``active[i]``); ``dead`` gives external ids declared crashed.
    """
    lost = set(dead)
    return [r for r in active if r not in lost]


def rewind_net_sources(net, iteration: int) -> int:
    """Rewind a replica's data sources to the start of ``iteration``.

    Duck-types data layers: any layer with a ``source`` exposing
    ``seek(n_batches, batch_size)`` is rewound so its next batch is the one
    iteration ``iteration`` would consume in an uninterrupted run. Returns
    the number of sources rewound; stateless sources are left alone.
    """
    rewound = 0
    for layer in net.layers:
        source = getattr(layer, "source", None)
        seek = getattr(source, "seek", None)
        if seek is None:
            continue
        seek(int(iteration), int(getattr(layer, "batch_size")))
        rewound += 1
    return rewound
