"""Logical rank numbering schemes (paper Sec. V-A, Fig. 7).

* :func:`block_placement` — the default MPI numbering: ranks 0..q-1 fill
  supernode 0, q..2q-1 fill supernode 1, and so on. Under recursive
  halving/doubling this sends the *largest* messages across the
  over-subscribed central network (Eqs. 3-4).

* :func:`round_robin_placement` — the paper's improvement: logical rank L
  lives in supernode ``L mod s`` (s = number of supernodes), so steps whose
  logical distance is a multiple of s stay inside a supernode. Since RHD
  step distances are p/2, p/4, ..., 1, only the log(p/q) *smallest-message*
  steps cross supernodes (Eqs. 5-6).

:func:`supernode_comm` builds every trainer communicator with one of them.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import CommunicatorError
from repro.simmpi.comm import SimComm
from repro.simmpi.process import Placement
from repro.topology.fabric import TaihuLightFabric


def _check(p: int, q: int) -> int:
    if p <= 0 or q <= 0:
        raise CommunicatorError("p and q must be positive")
    if p % q != 0:
        raise CommunicatorError(
            f"rank count p={p} must be a multiple of supernode size q={q}"
        )
    return p // q


def block_placement(p: int, q: int) -> Placement:
    """Adjacent numbering: logical rank L -> physical node L.

    Physical node n lives in supernode ``n // q``, so logical ranks are
    packed supernode by supernode.
    """
    _check(p, q)
    return Placement(physical=tuple(range(p)), name="block")


def round_robin_placement(p: int, q: int) -> Placement:
    """Round-robin numbering across supernodes.

    Logical rank L -> physical node ``(L mod s) * q + (L div s)`` where
    ``s = p // q``: logical ranks 0, s, 2s, ... fill supernode 0 in order,
    ranks 1, s+1, ... fill supernode 1, matching the paper's example
    ("nodes numbered 0,4,8,... belong to supernode 0").
    """
    s = _check(p, q)
    physical = tuple((L % s) * q + (L // s) for L in range(p))
    return Placement(physical=physical, name="round-robin")


def supernode_comm(
    p: int, nodes_per_supernode: int, placement: Callable[[int, int], Placement]
) -> SimComm:
    """A communicator for ``p`` ranks on supernodes of ``nodes_per_supernode``.

    The fabric is built first, so a bad supernode size fails there. Ranks
    are then numbered by ``placement(p, q)``, where ``q`` is the supernode
    size when ``p`` tiles the supernodes and 1 otherwise: both schemes
    number whole supernodes, and with ``q = 1`` both are the identity.
    """
    fabric = TaihuLightFabric(
        n_nodes=max(p, nodes_per_supernode), nodes_per_supernode=nodes_per_supernode
    )
    q = nodes_per_supernode if p % nodes_per_supernode == 0 else 1
    return SimComm(fabric, placement(p, q))
